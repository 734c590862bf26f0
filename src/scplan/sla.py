"""Translation of contracted tenant capacity into per-cell planning targets.

A tenant's contracted capacity is first reduced to its busy-hour value and
then split over the network, either evenly or proportionally to observed
demand, at cell granularity or pixel granularity.  Pixel-level splits are
kept as rasters and re-aggregated whenever the serving map changes; the sum
over the split always reproduces the busy-hour value.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scenario import GridSpec, NetworkState, ServingMap, left_sum


@dataclass(frozen=True, eq=False)
class PlanningSpecSet:
    """Per-cell (and optionally per-pixel) capacity targets for one tenant."""

    tenant_id: str
    level: str                      # "sc" | "pixel"
    method: str                     # "uniform" | "correlated"
    cell_values: dict[int, float] | None = None
    pixel_values: np.ndarray | None = None

    def total(self) -> float:
        if self.level == "sc":
            return float(left_sum(self.cell_values.values()))
        return float(self.pixel_values.sum())


def translate_sc_level(a_busy: float, state: NetworkState, method: str,
                       cell_demands: dict[int, float] | None = None,
                       tenant_id: str = "") -> PlanningSpecSet:
    """Split a busy-hour capacity over the deployed cells.

    ``uniform`` gives every cell an equal share; ``correlated`` splits in
    proportion to ``cell_demands`` (the observed per-cell traffic of the
    other tenants).  The shares always sum to ``a_busy``.
    """
    if not state.cells:
        raise ValueError("empty network")
    ids = state.cell_ids
    if method == "uniform":
        share = a_busy / len(ids)
        values = {i: share for i in ids}
    elif method == "correlated":
        if cell_demands is None:
            raise ValueError("correlated split needs per-cell demands")
        total = float(left_sum(cell_demands[i] for i in ids))
        if total <= 0:
            raise ValueError("no correlation basis")
        values = {i: a_busy * cell_demands[i] / total for i in ids}
    else:
        raise ValueError(f"unknown method {method!r}")
    return PlanningSpecSet(tenant_id, "sc", method, cell_values=values)


def translate_pixel_level(a_busy: float, grid: GridSpec, method: str,
                          pixel_demands: np.ndarray | None = None,
                          tenant_id: str = "") -> PlanningSpecSet:
    """Split a busy-hour capacity over the pixel grid.

    ``uniform`` spreads it evenly over all pixels; ``correlated`` spreads it
    in proportion to the per-pixel demand raster.  Aggregation to cells is
    done separately against a serving map (see ``pixel_specs_to_cell``);
    the raster is read-only.
    """
    n = grid.num_pixels
    if method == "uniform":
        values = np.full(n, a_busy / n)
    elif method == "correlated":
        if pixel_demands is None:
            raise ValueError("correlated split needs per-pixel demands")
        d = np.asarray(pixel_demands, dtype=float)
        if d.shape != (n,):
            raise ValueError("pixel_demands must have one entry per pixel")
        total = float(d.sum())
        if total <= 0:
            raise ValueError("no correlation basis")
        values = a_busy * d / total
    else:
        raise ValueError(f"unknown method {method!r}")
    values.flags.writeable = False
    return PlanningSpecSet(tenant_id, "pixel", method, pixel_values=values)


def pixel_specs_to_cell(specs: PlanningSpecSet, serving: ServingMap,
                        sums: dict[int, float] | None = None) -> dict[int, float]:
    """Aggregate a pixel-level spec raster to the cells serving the pixels:
    ``sums``, its per-cell sums on ``serving``, if given, else summed now."""
    if specs.level != "pixel":
        raise ValueError("expected a pixel-level spec set")
    return serving.cell_sums(specs.pixel_values) if sums is None else sums
