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

from .radio import (LinkCache, PropagationParams, RadioSnapshot, average_se,
                    cell_capacity, configure_powers, link_state)
from .scenario import GridSpec, NetworkState
from .monitor import required_bandwidth
from .sla import PlanningSpecSet, pixel_specs_to_cell, translate_pixel_level, translate_sc_level

__all__ = [
    "TenantSpecPolicy",
    "make_policy",
    "EvaluationContext",
    "NetworkEvaluation",
    "evaluate_state",
    "METHODS",
]

METHODS = ("uniform-sc", "corr-sc", "uniform-px", "corr-px", "oracle")


@dataclass(frozen=True)
class TenantSpecPolicy:
    """How one tenant's busy-hour capacity maps onto any given layout.

    Cell-level modes re-translate on every layout; pixel-level modes carry a
    fixed per-pixel raster that is re-aggregated over the serving map.  The
    ``oracle`` mode is a pixel raster proportional to the tenant's own real
    traffic.
    """

    tenant_id: str
    a_busy_mbps: float
    mode: str
    pixel_spec: np.ndarray | None = None

    def cell_specs(self, state: NetworkState, serving, basis_cell_demand) -> dict[int, float]:
        if self.mode == "uniform-sc":
            return translate_sc_level(self.a_busy_mbps, state, "uniform",
                                      tenant_id=self.tenant_id).cell_values
        if self.mode == "corr-sc":
            return translate_sc_level(self.a_busy_mbps, state, "correlated",
                                      basis_cell_demand,
                                      tenant_id=self.tenant_id).cell_values
        specs = PlanningSpecSet(self.tenant_id, "pixel", self.mode,
                                pixel_values=self.pixel_spec)
        return pixel_specs_to_cell(specs, serving)


def make_policy(mode: str, tenant_id: str, a_busy_mbps: float, grid: GridSpec,
                basis_px: np.ndarray | None = None,
                own_map_px: np.ndarray | None = None) -> TenantSpecPolicy:
    """Build the spec policy for a tenant under one translation method.

    ``basis_px`` is the other tenants' per-pixel demand (correlated pixel
    split); ``own_map_px`` is the tenant's real traffic (oracle).
    """
    if mode not in METHODS:
        raise ValueError(f"unknown method {mode!r}")
    pixel_spec = None
    if mode == "uniform-px":
        pixel_spec = translate_pixel_level(a_busy_mbps, grid, "uniform").pixel_values
    elif mode == "corr-px":
        pixel_spec = translate_pixel_level(a_busy_mbps, grid, "correlated",
                                           basis_px).pixel_values
    elif mode == "oracle":
        if own_map_px is None:
            raise ValueError("oracle mode needs the tenant's own traffic map")
        pixel_spec = translate_pixel_level(a_busy_mbps, grid, "correlated",
                                           own_map_px).pixel_values
    return TenantSpecPolicy(tenant_id, a_busy_mbps, mode, pixel_spec)


@dataclass
class EvaluationContext:
    """Everything the performance model needs besides the layout itself.

    ``known_demand`` holds per-pixel rasters for tenants whose traffic is
    observable at the evaluated step; tenants listed only in ``policies``
    are planning estimates.  ``basis_demand`` is the busy-hour raster set
    used for correlated cell-level splits (defaults to ``known_demand``);
    ``estimate_scale`` scales an estimated tenant's contribution by its
    temporal profile (1 at the busy hour).  ``link_cache`` keeps the radio
    state of the layouts evaluated; contexts of one run share one.
    """

    grid: GridSpec
    radio: PropagationParams
    policies: dict[str, TenantSpecPolicy]
    known_demand: dict[str, np.ndarray] = field(default_factory=dict)
    basis_demand: dict[str, np.ndarray] | None = None
    estimate_scale: dict[str, float] = field(default_factory=dict)
    link_cache: LinkCache = field(default_factory=LinkCache, repr=False, compare=False)

    def basis(self) -> dict[str, np.ndarray]:
        return self.known_demand if self.basis_demand is None else self.basis_demand


@dataclass
class NetworkEvaluation:
    """Per-cell demands, specs and required bandwidth for one layout."""

    state: NetworkState
    snapshot: RadioSnapshot
    cell_demand: dict[str, dict[int, float]]
    cell_specs: dict[str, dict[int, float]]
    required_mhz: dict[int, float]

    def total_required(self) -> float:
        return sum(self.required_mhz.values())


def _estimate_raster(policy: TenantSpecPolicy, cell_specs: dict[int, float],
                     serving, scale: float, num_pixels: int) -> np.ndarray:
    """Expected per-pixel traffic of a tenant whose service is not live yet.

    Pixel-level policies carry the raster directly; cell-level splits are
    spread evenly over each cell's service area.
    """
    if policy.pixel_spec is not None:
        return policy.pixel_spec * scale
    out = np.zeros(num_pixels)
    for cid, value in cell_specs.items():
        pixels = serving.cell_pixels[cid]
        if pixels.size:
            out[pixels] = value * scale / pixels.size
    return out


def evaluate_state(state: NetworkState, ctx: EvaluationContext) -> NetworkEvaluation:
    """Run the performance model for one layout.

    Powers are re-configured, the serving map re-derived, every tenant's
    specs re-expressed for this layout and each cell's required bandwidth
    evaluated.  The SE average is weighted by the total expected traffic:
    observable demand plus the estimated rasters of tenants that are not
    live yet.  Powers and link state depend on the layout alone, so they
    are taken from ``ctx.link_cache`` when it holds this layout.
    """
    link = ctx.link_cache.link(state, ctx.grid, ctx.radio)
    if link is None:
        powered = configure_powers(state, ctx.grid, ctx.radio)
        link = ctx.link_cache.remember(
            state, powered, *link_state(powered, ctx.grid, ctx.radio, ctx.link_cache))
    state, serving, sinr_table, pixel_se = link

    basis_cell = None
    if any(p.mode == "corr-sc" for p in ctx.policies.values()):
        basis = ctx.basis()
        total_basis = (np.sum(list(basis.values()), axis=0) if basis
                       else np.zeros(ctx.grid.num_pixels))
        basis_cell = serving.cell_sums(total_basis)

    weights = np.zeros(ctx.grid.num_pixels)
    for raster in ctx.known_demand.values():
        weights = weights + raster
    demands: dict[str, dict[int, float]] = {}
    specs: dict[str, dict[int, float]] = {}
    for tenant_id, policy in ctx.policies.items():
        a = policy.cell_specs(state, serving, basis_cell)
        specs[tenant_id] = a
        if tenant_id in ctx.known_demand:
            demands[tenant_id] = serving.cell_sums(ctx.known_demand[tenant_id])
        else:
            scale = ctx.estimate_scale.get(tenant_id, 1.0)
            demands[tenant_id] = {cid: v * scale for cid, v in a.items()}
            weights = weights + _estimate_raster(policy, a, serving, scale,
                                                 ctx.grid.num_pixels)
    for tenant_id, raster in ctx.known_demand.items():
        if tenant_id not in ctx.policies:
            # observable traffic without a policy: capped by itself
            demands[tenant_id] = serving.cell_sums(raster)
            specs[tenant_id] = dict(demands[tenant_id])

    avg = {c.cell_id: average_se(c.cell_id, serving, pixel_se, weights)
           for c in state.cells}
    cap = {c.cell_id: cell_capacity(len(c.channels), avg[c.cell_id], ctx.radio)
           for c in state.cells}
    snap = RadioSnapshot(serving, sinr_table, pixel_se, avg, cap)

    tenant_ids = list(demands)
    required = {}
    for cid in state.cell_ids:
        required[cid] = required_bandwidth(
            {m: demands[m][cid] for m in tenant_ids},
            {m: specs[m][cid] for m in tenant_ids},
            snap.avg_se[cid])
    return NetworkEvaluation(state, snap, demands, specs, required)
