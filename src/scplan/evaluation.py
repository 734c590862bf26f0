"""Whole-network evaluation: demands, planning specs and required bandwidth.

This is the model the planner probes for every candidate configuration and
the monitor runs once per step.  Given a layout it recomputes powers, the
serving map and spectral efficiency, re-derives every tenant's per-cell
planning spec for that layout (pixel rasters are re-aggregated, cell-level
splits re-translated), and evaluates each cell's required bandwidth.

Tenants whose traffic is not yet observable contribute their planning spec
as their demand estimate.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .radio import LinkCache, PropagationParams, average_se
from .scenario import GridSpec, NetworkState, ServingMap, left_sum
from .monitor import required_bandwidth
from .sla import PlanningSpecSet, pixel_specs_to_cell, translate_pixel_level, translate_sc_level

METHODS = ("uniform-sc", "corr-sc", "uniform-px", "corr-px", "oracle")


@dataclass(frozen=True, eq=False)
class TenantSpecPolicy:
    """How one tenant's busy-hour capacity maps onto any given layout.

    Data that ``evaluate_state`` applies: a cell-level policy (no
    ``pixel_specs``) re-splits ``a_busy_mbps`` by ``split`` on every layout;
    a pixel-level one carries a fixed spec set, ``pixel_specs``, split by
    ``split`` once and re-aggregated over the serving map.
    """

    tenant_id: str
    a_busy_mbps: float
    split: str
    pixel_specs: PlanningSpecSet | None = None


def make_policy(method: str, tenant_id: str, a_busy_mbps: float, grid: GridSpec,
                basis_px: np.ndarray | None = None,
                own_map_px: np.ndarray | None = None) -> TenantSpecPolicy:
    """Build the spec policy for a tenant under one translation method: the
    ``uniform-`` methods split evenly, the others in proportion to demand;
    the ``-sc`` methods over each layout's cells, the others once over the
    pixels, corr-px following ``basis_px`` (the other tenants' per-pixel
    demand) and oracle ``own_map_px`` (the tenant's own)."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    split = "uniform" if method.startswith("uniform-") else "correlated"
    specs = None
    if not method.endswith("-sc"):
        follows = own_map_px if method == "oracle" else basis_px
        specs = translate_pixel_level(a_busy_mbps, grid, split, follows, tenant_id)
    return TenantSpecPolicy(tenant_id, a_busy_mbps, split, specs)


def traffic_sum(grid: GridSpec, rasters: dict[str, np.ndarray],
                scale: dict[str, float]) -> np.ndarray:
    """The read-only sum of each raster times its ``scale`` (1 if absent),
    added in order; zero traffic without rasters."""
    scaled = [raster * scale.get(m, 1.0) for m, raster in rasters.items()]
    out = np.sum(scaled, axis=0) if scaled else np.zeros(grid.num_pixels)
    out.flags.writeable = False
    return out


@dataclass(eq=False)
class EvaluationContext:
    """Everything the performance model needs besides the layout itself.

    ``known_demand`` holds per-pixel rasters for tenants whose traffic is
    observable at the evaluated step, each times its ``scale`` (1 if
    absent): a run passes every live tenant's peak raster with its temporal
    weight, which a layout evaluated at many steps gathers once (see
    ``evaluate_state``).  Tenants listed only in ``policies`` are planning
    estimates, each adding its spec times its ``scale`` (a run's temporal
    weight relative to the busy hour) to the SE weights: a pixel-level spec
    pixel by pixel, a cell-level split into each served cell's slice of the
    weights, spread evenly over its pixels.  ``basis`` is the busy-hour
    raster that correlated cell-level splits follow (defaults to the
    ``traffic_sum`` of the known traffic).  ``link_cache`` keeps the radio
    state and the kept layout's gathers and spec sums; contexts of one run
    share one, of ``grid`` and ``radio``, and keep their rasters unchanged
    as ``LinkCache`` requires.
    """

    grid: GridSpec
    radio: PropagationParams
    policies: dict[str, TenantSpecPolicy]
    known_demand: dict[str, np.ndarray] = field(default_factory=dict)
    scale: dict[str, float] = field(default_factory=dict)
    basis: np.ndarray | None = field(default=None, repr=False)
    link_cache: LinkCache | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.link_cache is None:
            self.link_cache = LinkCache(self.grid, self.radio)
        elif (self.link_cache.grid, self.link_cache.params) != (self.grid, self.radio):
            raise ValueError("link cache of another grid or radio")
        if self.basis is None:
            self.basis = traffic_sum(self.grid, self.known_demand, self.scale)


@dataclass(eq=False)
class NetworkEvaluation:
    """One layout's link state and per-cell demands, specs and required
    bandwidth.  ``pixel_se`` is the mean SE over the serving cell's
    channels, and ``avg_se`` each cell's demand-weighted mean of it."""

    state: NetworkState
    serving: ServingMap
    pixel_se: np.ndarray
    avg_se: dict[int, float]
    cell_demand: dict[str, dict[int, float]]
    cell_specs: dict[str, dict[int, float]]
    required_mhz: dict[int, float]

    def total_required(self) -> float:
        return left_sum(self.required_mhz.values())


def evaluate_state(state: NetworkState, ctx: EvaluationContext) -> NetworkEvaluation:
    """Run the performance model for one layout.

    Powers are re-configured, the serving map re-derived, every tenant's
    specs re-expressed for this layout and each cell's required bandwidth
    evaluated; powers and link state come from ``ctx.link_cache`` (see
    ``LinkCache.link``).  The SE average is weighted by the total expected
    traffic: observable demand plus the estimates of tenants that are not
    live yet.  One ``ServingMap.slice_sums`` sums each cell of a
    ``(k, P)`` array in the map's pixel order: each live tenant's traffic,
    each pixel-level spec raster whose sums the layout does not keep, the
    weights (the traffic added left to right, then the estimates in policy
    order) and the weighted SE.  ``translate_sc_level`` re-splits a
    cell-level policy before the sums, and ``pixel_specs_to_cell`` takes a
    pixel-level one's sums after them; a correlated split's basis is summed
    at each evaluation.  A layout that keeps (see ``LinkCache``) reuses its
    gathers and spec sums; a spec raster is summed once per kept layout, so
    it is gathered straight into its row, as a site-search trial gathers
    every raster.  Each tenant's demand and spec per cell feed one
    ``required_bandwidth`` call.
    """
    cache = ctx.link_cache
    state, serving, pixel_se = cache.link(state)
    pixel = {m: p.pixel_specs.pixel_values for m, p in ctx.policies.items()
             if p.pixel_specs is not None}
    summed = {m: cache.sums(raster) for m, raster in pixel.items()}
    unsummed = [m for m, sums in summed.items() if sums is None]

    # a traffic row holds the floats of ``(raster * scale)[order]``: a layout
    # evaluated at many steps keeps the raster gathered and only scales it
    k = len(ctx.known_demand)
    rows = np.empty((k + len(unsummed) + 2, serving.pixel_cell.size))
    traffic, weights, weighted = rows[:k], rows[-2], rows[-1]
    for (m, raster), row in zip(ctx.known_demand.items(), traffic):
        np.multiply(cache.ordered(raster, row), ctx.scale.get(m, 1.0), out=row)
    spec_rows = {m: serving.ordered(pixel[m], row) for m, row in zip(unsummed, rows[k:-2])}
    spec_rows.update((m, cache.ordered(raster)) for m, raster in pixel.items()
                     if m not in spec_rows and m not in ctx.known_demand)   # estimates' gathers
    weights[:] = traffic[0] if k else 0.0
    for row in traffic[1:]:
        np.add(weights, row, out=weights)
    specs: dict[str, dict[int, float]] = dict.fromkeys(ctx.policies)
    for tenant_id, policy in ctx.policies.items():
        if policy.pixel_specs is None:
            basis_cell = serving.cell_sums(ctx.basis) if policy.split == "correlated" else None
            specs[tenant_id] = translate_sc_level(policy.a_busy_mbps, state, policy.split,
                                                  basis_cell, policy.tenant_id).cell_values
        if tenant_id not in ctx.known_demand:      # an estimate: its spec, scaled
            scale = ctx.scale.get(tenant_id, 1.0)
            if tenant_id in spec_rows:
                np.add(weights, spec_rows[tenant_id] * scale, out=weights)
            else:       # spread evenly over each cell's pixels; empty spans add nothing
                for cid, value in specs[tenant_id].items():
                    span = serving.cell_slices[cid]
                    weights[span] += value * scale / max(span.stop - span.start, 1)
    np.multiply(cache.ordered(pixel_se, weighted), weights, out=weighted)
    *sums, totals, weighted_sums = serving.slice_sums(rows)
    for m, cell_sums in zip(unsummed, sums[k:]):
        cache.keep_sums(pixel[m], cell_sums)
        summed[m] = cell_sums

    demands: dict[str, dict[int, float]] = dict.fromkeys(ctx.policies)
    for tenant_id, cell_sums in zip(ctx.known_demand, sums):
        demands[tenant_id] = cell_sums
        if tenant_id not in ctx.policies:
            # observable traffic without a policy: capped by itself
            specs[tenant_id] = dict(cell_sums)
    for tenant_id, policy in ctx.policies.items():
        if policy.pixel_specs is not None:
            specs[tenant_id] = pixel_specs_to_cell(policy.pixel_specs, serving, summed[tenant_id])
        if tenant_id not in ctx.known_demand:
            scale = ctx.scale.get(tenant_id, 1.0)
            demands[tenant_id] = {cid: v * scale for cid, v in specs[tenant_id].items()}

    avg = average_se(serving, pixel_se, totals, weighted_sums)
    return NetworkEvaluation(state, serving, pixel_se, avg, demands, specs,
                             required_bandwidth(demands, specs, avg))
