"""Bundled example scenario: a 0.2 km x 0.2 km urban area at 3 m resolution.

Four small cells serve two existing tenants whose hotspot demand is fitted
so the initial per-cell traffic is 22.5, 27.9, 19.3 and 16.6 Mbps; 2% of the
pixels are candidate sites; a third tenant contracting 100 Mbps arrives at
step 2 with demand spatially correlated with the existing traffic.  The
bundled JSON under ``data/`` is generated by :func:`build_reference_scenario`
and shipped so runs are reproducible without refitting.
"""
from __future__ import annotations

from importlib import resources
from pathlib import Path

import numpy as np

from .monitor import MonitorParams
from .planner import PlannerParams
from .radio import PropagationParams, configure_powers, serving_assignment
from .scenario import (GridSpec, Hotspot, NetworkState, SmallCell,
                       TenantProfile, pixel_positions, select_candidate_sites)
from .scenario_io import NewTenantEvent, Scenario

__all__ = [
    "build_reference_scenario",
    "bundled_scenario_path",
]

CANDIDATE_SEED = 12
INITIAL_DEMAND_MBPS = (22.5, 27.9, 19.3, 16.6)
SITE_ANCHORS_M = ((35.0, 45.0), (75.0, 40.0), (40.0, 100.0), (80.0, 92.0))
INITIAL_CHANNELS = (0, 1, 1, 0)     # farthest pairs reuse a channel
HOTSPOT_SPREAD_M = 32.0
FLOOR_MBPS = 0.0008
NEW_TENANT_MBPS = 100.0
NEW_TENANT_CENTERS = (0, 1, 2, 3)   # site index or free (x, y) coordinates
NEW_TENANT_RATIOS = (0.26, 0.33, 0.23, 0.18)
NEW_TENANT_SPREAD_M = 30.0
NEW_TENANT_FLOOR = 0.0003
EVENT_STEP = 2
HOURS = 24


def _gauss(pos: np.ndarray, center: tuple[float, float], spread: float) -> np.ndarray:
    d2 = (pos[:, 0] - center[0]) ** 2 + (pos[:, 1] - center[1]) ** 2
    return np.exp(-d2 / (2.0 * spread ** 2))


def _initial_layout(grid: GridSpec, candidates) -> list[int]:
    """Nearest candidate pixel to each site anchor, all distinct."""
    pos = pixel_positions(grid)
    cand = np.array(candidates.site_pixels)
    chosen: list[int] = []
    for ax, ay in SITE_ANCHORS_M:
        d2 = (pos[cand, 0] - ax) ** 2 + (pos[cand, 1] - ay) ** 2
        for idx in np.argsort(d2):
            pixel = int(cand[idx])
            if pixel not in chosen:
                chosen.append(pixel)
                break
    return chosen


def build_reference_scenario() -> Scenario:
    """Construct the bundled scenario, fitting hotspot peaks exactly.

    The per-cell initial demand is matched by solving a 4x4 linear system:
    each hotspot's unit-peak mass inside each cell's service area is
    measured on the initial serving map, and the peaks that land the target
    per-cell totals (after the uniform floor) follow directly.
    """
    grid = GridSpec(200.0, 200.0, 3.0)
    radio = PropagationParams()
    candidates = select_candidate_sites(grid, 0.02, CANDIDATE_SEED)
    site_pixels = _initial_layout(grid, candidates)
    cells = tuple(SmallCell(i + 1, p, (INITIAL_CHANNELS[i],))
                  for i, p in enumerate(site_pixels))
    state = configure_powers(NetworkState(cells), grid, radio)
    serving = serving_assignment(state, grid, radio)

    pos = pixel_positions(grid)
    centers = [tuple(pos[p]) for p in site_pixels]
    unit = [_gauss(pos, c, HOTSPOT_SPREAD_M) for c in centers]
    floor_total = np.full(grid.num_pixels, 2 * FLOOR_MBPS)

    mass = np.zeros((4, 4))
    floor_cell = np.zeros(4)
    for c in range(4):
        pixels = serving.cell_pixels[c + 1]
        floor_cell[c] = floor_total[pixels].sum()
        for k in range(4):
            mass[c, k] = unit[k][pixels].sum()
    peaks = np.linalg.solve(mass, np.array(INITIAL_DEMAND_MBPS) - floor_cell)
    peaks = np.round(peaks, 8)
    if peaks.min() <= 0:
        raise RuntimeError("hotspot fit produced a non-positive peak")

    flat = tuple([1.0] * HOURS)
    tenants = (
        TenantProfile(
            "retail",
            contracted_capacity_mbps=round(float(
                peaks[0] * unit[0].sum() + peaks[1] * unit[1].sum()
                + FLOOR_MBPS * grid.num_pixels), 6),
            temporal_profile=flat,
            hotspots=(Hotspot(*centers[0], HOTSPOT_SPREAD_M, float(peaks[0])),
                      Hotspot(*centers[1], HOTSPOT_SPREAD_M, float(peaks[1]))),
            uniform_floor_mbps=FLOOR_MBPS),
        TenantProfile(
            "transit",
            contracted_capacity_mbps=round(float(
                peaks[2] * unit[2].sum() + peaks[3] * unit[3].sum()
                + FLOOR_MBPS * grid.num_pixels), 6),
            temporal_profile=flat,
            hotspots=(Hotspot(*centers[2], HOTSPOT_SPREAD_M, float(peaks[2])),
                      Hotspot(*centers[3], HOTSPOT_SPREAD_M, float(peaks[3]))),
            uniform_floor_mbps=FLOOR_MBPS),
    )

    # arriving tenant: correlated with the busiest existing areas plus one
    # fresh high-density spot outside the current cluster
    new_centers = [centers[c] if isinstance(c, int) else tuple(c)
                   for c in NEW_TENANT_CENTERS]
    ratios = np.array(NEW_TENANT_RATIOS, dtype=float)
    new_unit = [_gauss(pos, c, NEW_TENANT_SPREAD_M) for c in new_centers]
    hotspot_mass = sum(r * u.sum() for r, u in zip(ratios, new_unit))
    scale = (NEW_TENANT_MBPS - NEW_TENANT_FLOOR * grid.num_pixels) / hotspot_mass
    new_peaks = np.round(ratios * scale, 8)
    new_tenant = TenantProfile(
        "media",
        contracted_capacity_mbps=NEW_TENANT_MBPS,
        temporal_profile=flat,
        hotspots=tuple(Hotspot(c[0], c[1], NEW_TENANT_SPREAD_M, float(p))
                       for c, p in zip(new_centers, new_peaks)),
        uniform_floor_mbps=NEW_TENANT_FLOOR)

    return Scenario(
        grid=grid,
        tenants=tenants,
        candidate_sites=candidates,
        initial_state=NetworkState(cells),
        radio=radio,
        monitor=MonitorParams(),
        planner=PlannerParams(),
        event=NewTenantEvent(EVENT_STEP, new_tenant),
        candidate_fraction=0.02,
    )


def bundled_scenario_path(name: str) -> Path | None:
    """Resolve a bundled scenario name to its JSON file, if it exists."""
    stem = Path(name).stem
    ref = resources.files("scplan").joinpath("data", f"{stem}.json")
    try:
        if ref.is_file():
            return Path(str(ref))
    except (OSError, TypeError):
        return None
    return None
