"""Seeded scenario documents for the benchmark workloads.

Every document is derived from the shipped ``urban200m`` scenario, read as
plain JSON from the checkout, with its candidate draw written out as an
explicit pixel list.

Tiling repeats ``urban200m`` by area.  The tiled grid keeps the pixel pitch
(ceil(400/3) = 2 * 67), so tile pixels map one to one: hotspots shift by
whole tiles, candidate and cell-site pixels by whole tile rows and columns,
channels are copied, and contracts and the cell budget scale with the tile
count.

The seed picks the mirror image of the scenario (``seed % 4``: none, left-
right, top-bottom, both) and, for the week, the jitter of the diurnal demand
profiles.  Mirroring keeps every distance, so the planner searches the same
number of sites on every seed while pixel indices, coordinates and outputs
all change.  Redrawing the candidate sites would not: it moves the number
of cells the planner adds, and with it the run time, from seed to seed.
``DEFAULT_SEED`` gives the unmirrored documents, whose tiles equal their
base: the shipped scenario, or for the arrival the shipped scenario with a
thinned candidate pool.
"""
from __future__ import annotations

import copy
import json
import math
from pathlib import Path

import numpy as np
from scplan.scenario import GridSpec, pixel_positions, select_candidate_sites

DEFAULT_SEED = 12           # the shipped urban200m candidate seed; 12 % 4 == 0
SHIPPED = Path("src") / "scplan" / "data" / "urban200m.json"
WEEK_STEPS = 168
# A full urban400m pool (360 sites) makes a re-plan take about 50 s; a sixth
# keeps the same four site searches at about 9 s.
ARRIVAL_KEEP_EVERY = 6


def shipped_doc(root: Path) -> dict:
    """The shipped scenario with its candidate draw as an explicit list."""
    doc = json.loads((root / SHIPPED).read_text())
    cs = doc["candidate_sites"]
    sites = select_candidate_sites(grid_of(doc), cs["fraction"], cs["seed"])
    doc["candidate_sites"] = {"pixels": list(sites.site_pixels), "seed": cs["seed"]}
    return doc


def grid_of(doc: dict) -> GridSpec:
    g = doc["grid"]
    return GridSpec(g["width_m"], g["height_m"], g["resolution_m"])


def _tile_pixel(grid: GridSpec, cols: int, pixel: int, ti: int, tj: int) -> int:
    row, col = divmod(pixel, grid.nx)
    return (row + ti * grid.ny) * cols * grid.nx + col + tj * grid.nx


def _tenants(doc: dict) -> list[dict]:
    return doc["tenants"] + ([doc["event"]["tenant"]] if doc.get("event") else [])


def tiled(base: dict, rows: int, cols: int) -> dict:
    """``base`` repeated ``rows`` x ``cols`` by area, arrival included."""
    grid = grid_of(base)
    tiles = [(ti, tj) for ti in range(rows) for tj in range(cols)]

    def tenant(t: dict) -> dict:
        return {**t,
                "contracted_capacity_mbps": t["contracted_capacity_mbps"] * len(tiles),
                "hotspots": [{**h, "x_m": h["x_m"] + tj * grid.width_m,
                              "y_m": h["y_m"] + ti * grid.height_m}
                             for ti, tj in tiles for h in t["hotspots"]]}

    per_tile = len(base["initial_cells"])
    doc = copy.deepcopy(base)
    doc["grid"] = {**base["grid"], "width_m": cols * grid.width_m,
                   "height_m": rows * grid.height_m}
    doc["tenants"] = [tenant(t) for t in base["tenants"]]
    doc["candidate_sites"]["pixels"] = sorted(
        _tile_pixel(grid, cols, p, ti, tj)
        for ti, tj in tiles for p in base["candidate_sites"]["pixels"])
    doc["initial_cells"] = [
        {**c, "id": k * per_tile + c["id"],
         "site_pixel": _tile_pixel(grid, cols, c["site_pixel"], ti, tj)}
        for k, (ti, tj) in enumerate(tiles) for c in base["initial_cells"]]
    doc["planner"]["n_max_sc"] = base["planner"]["n_max_sc"] * len(tiles)
    if doc.get("event"):
        doc["event"]["tenant"] = tenant(base["event"]["tenant"])
    return doc


def tiling_errors(doc: dict, base: dict, rows: int, cols: int) -> list[str]:
    """Where the unmirrored tiled ``doc`` differs from ``base`` on some tile."""
    grid = grid_of(base)
    pos, big_pos = pixel_positions(grid), pixel_positions(grid_of(doc))
    every = np.arange(grid.num_pixels)
    cands = doc["candidate_sites"]["pixels"]
    cells = {c["site_pixel"]: c["channels"] for c in doc["initial_cells"]}
    errors = []
    if len(cands) != rows * cols * len(base["candidate_sites"]["pixels"]):
        errors.append("candidate count differs")
    for ti in range(rows):
        for tj in range(cols):
            shifted = [_tile_pixel(grid, cols, int(p), ti, tj) for p in every]
            offset = np.array([tj * grid.width_m, ti * grid.height_m])
            if not np.allclose(big_pos[shifted] - offset, pos, rtol=0, atol=1e-9):
                errors.append(f"tile {ti},{tj}: pixel centres do not align")
            if not set(shifted[p] for p in base["candidate_sites"]["pixels"]) <= set(cands):
                errors.append(f"tile {ti},{tj}: candidate pixels differ")
            if any(cells.get(shifted[c["site_pixel"]]) != c["channels"]
                   for c in base["initial_cells"]):
                errors.append(f"tile {ti},{tj}: cells differ")
            for t, big_t in zip(_tenants(base), _tenants(doc)):
                spots = [(h["x_m"] - offset[0], h["y_m"] - offset[1],
                          h["spread_m"], h["peak_mbps"]) for h in big_t["hotspots"]]
                if not all(any(np.allclose(s, (h["x_m"], h["y_m"], h["spread_m"],
                                               h["peak_mbps"]), rtol=0, atol=1e-9)
                               for s in spots) for h in t["hotspots"]):
                    errors.append(f"tile {ti},{tj}: hotspots of {t['id']} differ")
    return errors


def mirror(doc: dict, flips: int) -> dict:
    """Mirror a document left-right (bit 0 of ``flips``) and top-bottom (bit 1)."""
    grid = grid_of(doc)
    fx, fy = bool(flips & 1), bool(flips & 2)

    def pixel(p: int) -> int:
        row, col = divmod(p, grid.nx)
        return ((grid.ny - 1 - row if fy else row) * grid.nx
                + (grid.nx - 1 - col if fx else col))

    def tenant(t: dict) -> dict:
        return {**t, "hotspots": [
            {**h, "x_m": grid.width_m - h["x_m"] if fx else h["x_m"],
             "y_m": grid.height_m - h["y_m"] if fy else h["y_m"]}
            for h in t["hotspots"]]}

    out = copy.deepcopy(doc)
    out["tenants"] = [tenant(t) for t in doc["tenants"]]
    out["candidate_sites"]["pixels"] = sorted(
        pixel(p) for p in doc["candidate_sites"]["pixels"])
    out["initial_cells"] = [{**c, "site_pixel": pixel(c["site_pixel"])}
                            for c in doc["initial_cells"]]
    if doc.get("event"):
        out["event"]["tenant"] = tenant(doc["event"]["tenant"])
    return out


def diurnal_profile(rng: np.random.Generator, steps: int = WEEK_STEPS) -> list[float]:
    """Hourly weights: evening peak, night trough, +-5% jitter, peak exactly 1."""
    hours = np.arange(steps) % 24
    shape = 0.55 - 0.45 * np.cos(2.0 * math.pi * (hours - 7) / 24.0)
    raw = shape * rng.uniform(0.95, 1.05, size=steps)
    return [float(w) for w in raw / raw.max()]


def sweep_doc(root: Path, seed: int) -> tuple[dict, list[str]]:
    """``urban200m`` itself, and the (empty) list of tiling errors."""
    return mirror(shipped_doc(root), seed % 4), []


def thinned(doc: dict, keep_every: int) -> dict:
    """``doc`` with every cell site and every ``keep_every``-th other
    candidate site, in pixel order."""
    sites = {c["site_pixel"] for c in doc["initial_cells"]}
    others = [p for p in doc["candidate_sites"]["pixels"] if p not in sites]
    out = copy.deepcopy(doc)
    out["candidate_sites"]["pixels"] = sorted(sites | set(others[::keep_every]))
    return out


def arrival_doc(root: Path, seed: int) -> tuple[dict, list[str]]:
    """``urban200m`` with a sixth of its free candidate sites, tiled 2x2
    (400 m square), arrival included."""
    base = thinned(shipped_doc(root), ARRIVAL_KEEP_EVERY)
    doc = tiled(base, 2, 2)
    return mirror(doc, seed % 4), tiling_errors(doc, base, 2, 2)


def week_doc(root: Path, seed: int) -> tuple[dict, list[str]]:
    """``urban200m`` tiled 2x2 (400 m square), no arrival, a diurnal week."""
    base = shipped_doc(root)
    doc = tiled(base, 2, 2)
    errors = tiling_errors(doc, base, 2, 2)
    del doc["event"]
    rng = np.random.default_rng(seed)
    for tenant in doc["tenants"]:
        tenant["temporal_profile"] = diurnal_profile(rng)
    return mirror(doc, seed % 4), errors
