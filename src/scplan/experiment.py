"""End-to-end experiment runner.

A run steps time forward over the scenario's demand series, monitors
capacity conformance each step, launches the planner when the trigger
fires, and finally evaluates the deployed layout against the tenants'
actual traffic, producing the per-cell required-bandwidth table and the
action changelog.

The arriving tenant's traffic is not observable while its service is being
planned: until deployment completes its planning specs stand in for its
demand (scaled by its temporal profile relative to the busy step), after
which the real traffic map becomes operative.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import reporting
from .evaluation import (METHODS, EvaluationContext, TenantSpecPolicy,
                         evaluate_state, make_policy, traffic_sum)
from .monitor import CellCheck, DemandHistory, MonitorParams, SlaExceedNotice, \
    check_trigger, latest_max, sla_exceed_check
from .planner import ActionLedger, PlannerParams, plan
from .radio import LinkCache, serving_mean
from .scenario import GridSpec, NetworkState, is_count, require, select_candidate_sites
from .scenario_io import Scenario, load_scenario


@dataclass
class ExperimentConfig:
    scenario_path: str | Path
    method: str = "corr-px"
    horizon: int | None = None
    seed: int | None = None                 # overrides the candidate-site seed
    alpha: float | None = None
    beta: float | None = None
    gamma: float | None = None
    k_max: int | None = None
    n_max_sc: int | None = None
    window_steps: int | None = None
    consecutive_steps: int | None = None
    step4_mode: str | None = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")

    def scenario(self) -> Scenario:
        """The scenario at ``scenario_path`` loaded with each field set here
        as the monitor or planner parameter of the same name; a new seed then
        redraws the candidate sites of a fraction-drawn pool, and is the
        named violation ``run.seed_unused`` for an explicit pixel list."""
        scn = load_scenario(self.scenario_path, {n: getattr(self, n) for n in PARAM_OVERRIDES
                                                 if getattr(self, n) is not None})
        if self.seed is not None:
            require((scn.candidate_fraction is not None, "run.seed_unused",
                     f"seed {self.seed} would redraw the candidate sites, but the "
                     "scenario lists them as explicit pixels"))
            scn = replace(scn, candidate_sites=select_candidate_sites(
                scn.grid, scn.candidate_fraction, self.seed))
        return scn


# The ExperimentConfig fields that override the monitor or planner parameter
# of the same name, in field order, which is the order a run summary echoes.
PARAM_OVERRIDES = tuple(f.name for f in fields(ExperimentConfig) if f.name in
                        {p.name for p in fields(MonitorParams) + fields(PlannerParams)})


@dataclass(eq=False)
class Report:
    method: str
    horizon: int
    eval_step: int
    checks: list[CellCheck]
    fired_steps: list[int]
    notices: list[tuple[int, SlaExceedNotice]]
    ledgers: list[tuple[int, ActionLedger]]
    initial_state: NetworkState
    final_state: NetworkState
    bandwidth_rows: list[tuple[int, float]]
    total_required_mhz: float
    cell_count: int
    rasters: dict[str, np.ndarray]
    grid: GridSpec
    config_echo: dict


@dataclass(frozen=True, eq=False)
class RunContext:
    """What a run or a planning pass derives from a scenario before any step.

    ``spatial`` holds each tenant's read-only demand raster at its temporal
    peak, the arriving tenant included, and ``demand_totals`` each tenant's
    total traffic at every step of the horizon; ``busy_step`` is the step
    with the most existing traffic (ties go to the latest) and ``basis_sum``
    the read-only sum of the existing tenants' rasters at that step.
    ``policies`` holds the existing tenants' spec policies, then the arriving
    tenant's under the method; every context built here shares ``link_cache``.
    """

    scenario: Scenario
    horizon: int
    busy_step: int
    spatial: dict[str, np.ndarray]
    demand_totals: dict[str, list[float]]
    policies: dict[str, TenantSpecPolicy]
    basis_sum: np.ndarray = field(repr=False)
    link_cache: LinkCache = field(repr=False)

    def evaluation(self, active, live, t: int) -> EvaluationContext:
        """Model inputs at step ``t``: the ``active`` tenants' policies, the
        observed traffic of those ``live`` (each peak raster with its weight
        at ``t`` as its scale), and the others estimated from their busy-step
        specs, scaled by their weight at ``t`` over their weight at the busy
        step (0 where that is 0).  ``live`` is a subset of ``active``."""
        known = {tn.tenant_id: self.spatial[tn.tenant_id] for tn in live}
        scale = {tn.tenant_id: tn.temporal_weight(t) for tn in live}
        for tn in active:
            if tn.tenant_id not in known:
                busy = tn.temporal_weight(self.busy_step)
                scale[tn.tenant_id] = tn.temporal_weight(t) / busy if busy else 0.0
        return EvaluationContext(
            grid=self.scenario.grid, radio=self.scenario.radio,
            policies={m: p for m, p in self.policies.items() if m in scale},
            known_demand=known, scale=scale, basis=self.basis_sum,
            link_cache=self.link_cache)

    def busy_hour(self) -> EvaluationContext:
        """Model inputs for one planning pass with the trigger assumed fired:
        the existing traffic at the busy step, the arriving tenant at its
        full planning spec."""
        scn = self.scenario
        everyone = scn.tenants + (() if scn.event is None else (scn.event.tenant,))
        return self.evaluation(everyone, scn.tenants, self.busy_step)


def _busiest_step(series) -> int:
    """Step with the largest total over ``series``, each a sequence of
    ``(t, value)`` pairs summed in order; ties go to the latest."""
    totals: dict[int, float] = {}
    for pairs in series:
        for t, v in pairs:
            totals[t] = totals.get(t, 0.0) + v
    return latest_max(totals.items())[0]


def build_context(scn: Scenario, method: str, horizon: int | None = None) -> RunContext:
    """Set-up shared by runs, planning passes and spec translation.

    The horizon defaults to the longest temporal profile of the existing
    tenants.  Existing tenants plan against their own observed traffic; the
    arriving tenant's contract, at the busy step, is translated by ``method``.
    """
    if horizon is None:
        horizon = max(len(t.temporal_profile) for t in scn.tenants)
    require((is_count(horizon), "run.horizon_positive",
             f"horizon must be an integer >= 1, got {horizon!r}"))
    grid, existing, event = scn.grid, scn.tenants, scn.event
    arriving = () if event is None else (event.tenant,)
    spatial = {t.tenant_id: t.spatial_demand(grid) for t in existing + arriving}
    for raster in spatial.values():
        raster.flags.writeable = False
    totals = {tn.tenant_id: [float((spatial[tn.tenant_id] * tn.temporal_weight(t)).sum())
                             for t in range(horizon)] for tn in existing + arriving}
    busy_step = _busiest_step(enumerate(totals[tn.tenant_id]) for tn in existing)
    basis_sum = traffic_sum(grid, {tn.tenant_id: spatial[tn.tenant_id] for tn in existing},
                            {tn.tenant_id: tn.temporal_weight(busy_step) for tn in existing})
    policies = {}
    for tn in existing:
        own = spatial[tn.tenant_id]
        a_busy = float(own.sum()) * tn.temporal_weight(busy_step)
        policies[tn.tenant_id] = (
            make_policy("oracle", tn.tenant_id, a_busy, grid, own_map_px=own)
            if a_busy > 0 else make_policy("uniform-px", tn.tenant_id, 0.0, grid))
    for tn in arriving:
        policies[tn.tenant_id] = make_policy(
            method, tn.tenant_id,
            tn.contracted_capacity_mbps * tn.temporal_weight(busy_step), grid,
            basis_px=basis_sum,
            own_map_px=spatial[tn.tenant_id])
    return RunContext(scn, horizon, busy_step, spatial, totals, policies, basis_sum,
                      LinkCache(grid, scn.radio))


def run_experiment(cfg: ExperimentConfig) -> Report:
    scn = cfg.scenario()
    run = build_context(scn, cfg.method, cfg.horizon)
    grid, horizon, event = scn.grid, run.horizon, scn.event
    if event is not None:
        require((event.step < horizon, "event.step_in_horizon",
                 f"event step {event.step} is outside the {horizon}-step horizon"))

    existing = list(scn.tenants)
    state = initial_state = run.link_cache.link(scn.initial_state)[0]
    history = DemandHistory(scn.monitor.window_steps)

    checks: list[CellCheck] = []
    fired_steps: list[int] = []
    notices: list[tuple[int, SlaExceedNotice]] = []
    ledgers: list[tuple[int, ActionLedger]] = []
    event_live_step = -1 if event is None else None

    for t in range(horizon):
        active = list(existing)
        if event is not None and t >= event.step:
            active.append(event.tenant)
        operative = [tn for tn in active
                     if tn in existing
                     or (event_live_step is not None and t >= event_live_step)]
        ctx = run.evaluation(active, operative, t)

        ev = evaluate_state(state, ctx)
        state = ev.state
        history.record(t, ev.required_mhz)
        decision = check_trigger(history, state, scn.monitor,
                                 scn.radio.channel_bandwidth_mhz, t)
        checks.extend(decision.checks)
        for tn in operative:
            notice = sla_exceed_check(run.demand_totals[tn.tenant_id][t],
                                      tn.contracted_capacity_mbps, tn.tenant_id)
            if notice is not None:
                notices.append((t, notice))

        if decision.fire:
            fired_steps.append(t)
            busiest = _busiest_step(history.window(c.cell_id) for c in state.cells
                                    if history.has(c.cell_id))
            plan_ctx = run.evaluation(active, operative, busiest)
            state, ledger = plan(state, scn.candidate_sites, plan_ctx, scn.planner)
            ledgers.append((t, ledger))
            history = DemandHistory(scn.monitor.window_steps)
        if event_live_step is None and t >= event.step and (
                decision.fire or t >= event.step + scn.monitor.consecutive_steps - 1):
            # planned for, or capacity proved adequate for the estimate: live
            event_live_step = t + 1

    # evaluate the final layout against actual traffic from every tenant
    all_tenants = existing + ([event.tenant] if event is not None else [])
    eval_step = _busiest_step(enumerate(run.demand_totals[tn.tenant_id])
                              for tn in all_tenants)
    ctx = run.evaluation(all_tenants, all_tenants, eval_step)
    ev = evaluate_state(state, ctx)
    state = ev.state

    rows = [(cid, ev.required_mhz[cid]) for cid in state.cell_ids]
    rasters = {
        "demand_mbps": traffic_sum(grid, ctx.known_demand, ctx.scale),
        "serving_cell": ev.serving.pixel_cell.astype(float),
        "pixel_se": ev.pixel_se,
        "sinr_db": serving_mean(state, ev.serving, run.link_cache.sinr_table(state)),
    }
    echo = {"scenario": str(cfg.scenario_path), "method": cfg.method,
            "horizon": horizon, "seed": cfg.seed}
    for name in PARAM_OVERRIDES:
        echo[name] = getattr(scn.monitor if hasattr(scn.monitor, name) else scn.planner, name)
    return Report(cfg.method, horizon, eval_step, checks, fired_steps, notices,
                  ledgers, initial_state, state, rows, ev.total_required(), len(state.cells),
                  rasters, grid, echo)


def plan_once(scn: Scenario, method: str, horizon: int | None = None
              ) -> tuple[NetworkState, ActionLedger, EvaluationContext]:
    """One planner invocation on the initial layout, trigger assumed fired."""
    ctx = build_context(scn, method, horizon).busy_hour()
    new_state, ledger = plan(scn.initial_state, scn.candidate_sites, ctx, scn.planner)
    return new_state, ledger, ctx


def emit_report(report: Report, out_dir) -> list[Path]:
    """Write every report artifact; overwrites are idempotent."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = [
        reporting.write_monitor_log(out / "monitor_log.csv", report.checks,
                                    set(report.fired_steps)),
        reporting.write_notifications(out / "notifications.csv", report.notices),
        *reporting.write_plan_files(out, report.ledgers, report.final_state,
                                    report.bandwidth_rows),
    ]
    for name, raster in report.rasters.items():
        files.append(reporting.write_raster_csv(out / f"{name}.csv",
                                                report.grid, raster))
        files.append(reporting.write_raster_pgm(out / f"{name}.pgm",
                                                report.grid, raster))
    summary = {
        "method": report.method,
        "horizon": report.horizon,
        "eval_step": report.eval_step,
        "cell_count": report.cell_count,
        "total_required_mhz": report.total_required_mhz,
        "fired_steps": report.fired_steps,
        "actions": sum(len(l.actions) for _, l in report.ledgers),
        "notes": [n for _, l in report.ledgers for n in l.notes],
        "config": report.config_echo,
    }
    path = out / "summary.json"
    path.write_text(json.dumps(summary, indent=2) + "\n")
    files.append(path)
    return files
