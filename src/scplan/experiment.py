"""End-to-end experiment runner.

A run steps time forward over the scenario's demand series, monitors
capacity conformance each step, launches the planner when the trigger
fires, and finally evaluates the deployed layout against the tenants'
actual traffic, producing the per-cell required-bandwidth table and the
action changelog.

The arriving tenant's traffic is not observable while its service is being
planned: until deployment completes its planning specs stand in for its
demand (scaled by its temporal profile), after which the real traffic map
becomes operative.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import reporting
from .evaluation import (METHODS, EvaluationContext, TenantSpecPolicy,
                         evaluate_state, make_policy)
from .monitor import CellCheck, DemandHistory, MonitorParams, SlaExceedNotice, \
    check_trigger, sla_exceed_check
from .planner import ActionLedger, PlannerParams, plan
from .radio import LinkCache, configure_powers, serving_mean
from .scenario import (GridSpec, NetworkState, TenantProfile, is_count, require,
                       select_candidate_sites)
from .scenario_io import Scenario, load_scenario

__all__ = [
    "ExperimentConfig",
    "Report",
    "RunContext",
    "build_context",
    "run_experiment",
    "emit_report",
    "plan_once",
]


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
        """The scenario at ``scenario_path`` with this config's overrides: a
        field set here replaces the monitor or planner parameter of the same
        name, and a new seed redraws the candidate sites of a fraction-drawn
        pool; a seed given for an explicit pixel list is the named violation
        ``run.seed_unused``."""
        scn = load_scenario(self.scenario_path)

        def overridden(params):
            return replace(params, **{f.name: getattr(self, f.name) for f in fields(params)
                                      if getattr(self, f.name, None) is not None})

        scn = replace(scn, monitor=overridden(scn.monitor), planner=overridden(scn.planner))
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


@dataclass
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


@dataclass(frozen=True)
class RunContext:
    """What a run or a planning pass derives from a scenario before any step.

    ``spatial`` holds each tenant's demand raster at its temporal peak, the
    arriving tenant included; ``busy_step`` is the step of the horizon with
    the most existing traffic (ties go to the latest) and ``basis`` the
    existing tenants' rasters at that step.  ``policies`` holds the existing
    tenants' spec policies, then the arriving tenant's under the method.
    Every evaluation context built here shares ``link_cache``.
    """

    scenario: Scenario
    horizon: int
    busy_step: int
    spatial: dict[str, np.ndarray]
    basis: dict[str, np.ndarray]
    policies: dict[str, TenantSpecPolicy]
    link_cache: LinkCache = field(default_factory=LinkCache, repr=False, compare=False)

    def evaluation(self, active, live, t: int) -> EvaluationContext:
        """Model inputs at step ``t``: the ``active`` tenants' policies, the
        observed traffic of those ``live``, and the others estimated from
        their specs scaled by their temporal profile."""
        known = {tn.tenant_id: _demand(self.spatial, tn, t) for tn in live}
        ids = {tn.tenant_id for tn in active}
        return EvaluationContext(
            grid=self.scenario.grid, radio=self.scenario.radio,
            policies={m: p for m, p in self.policies.items() if m in ids},
            known_demand=known, basis_demand=self.basis,
            estimate_scale={tn.tenant_id: tn.temporal_weight(t) for tn in active
                            if tn.tenant_id not in known},
            link_cache=self.link_cache)

    def busy_hour(self) -> EvaluationContext:
        """Model inputs for one planning pass with the trigger assumed fired:
        the existing traffic at the busy step, the arriving tenant at its
        full planning spec."""
        return EvaluationContext(grid=self.scenario.grid, radio=self.scenario.radio,
                                 policies=self.policies, known_demand=self.basis,
                                 basis_demand=self.basis, link_cache=self.link_cache)


def _demand(spatial: dict[str, np.ndarray], tenant: TenantProfile, t: int) -> np.ndarray:
    """A tenant's traffic at step ``t``: its peak raster scaled by its profile."""
    return spatial[tenant.tenant_id] * tenant.temporal_weight(t)


def _peak_step(spatial: dict[str, np.ndarray], tenants, horizon: int) -> int:
    """Step of the horizon with the most traffic from ``tenants``; ties go
    to the latest."""
    return max(range(horizon), key=lambda t: (
        sum(float(_demand(spatial, tn, t).sum()) for tn in tenants), t))


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
    busy_step = _peak_step(spatial, existing, horizon)
    basis = {tn.tenant_id: _demand(spatial, tn, busy_step) for tn in existing}
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
            basis_px=np.sum(list(basis.values()), axis=0),
            own_map_px=spatial[tn.tenant_id])
    return RunContext(scn, horizon, busy_step, spatial, basis, policies)


def run_experiment(cfg: ExperimentConfig) -> Report:
    scn = cfg.scenario()
    run = build_context(scn, cfg.method, cfg.horizon)
    grid, horizon, event = scn.grid, run.horizon, scn.event
    if event is not None:
        require((event.step < horizon, "event.step_in_horizon",
                 f"event step {event.step} is outside the {horizon}-step horizon"))

    existing = list(scn.tenants)
    state = configure_powers(scn.initial_state, grid, scn.radio)
    initial_state = state
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
            notice = sla_exceed_check(float(ctx.known_demand[tn.tenant_id].sum()),
                                      tn.contracted_capacity_mbps, tn.tenant_id)
            if notice is not None:
                notices.append((t, notice))

        if decision.fire:
            fired_steps.append(t)
            plan_ctx = run.evaluation(active, operative, _planning_step(history, state))
            state, ledger = plan(state, scn.candidate_sites, plan_ctx, scn.planner)
            ledgers.append((t, ledger))
            history = DemandHistory(scn.monitor.window_steps)
            if event is not None and event_live_step is None:
                event_live_step = t + 1
        if (event is not None and event_live_step is None
                and t >= event.step + scn.monitor.consecutive_steps - 1):
            # capacity proved adequate for the estimate: service goes live
            event_live_step = t + 1

    # evaluate the final layout against actual traffic from every tenant
    all_tenants = existing + ([event.tenant] if event is not None else [])
    eval_step = _peak_step(run.spatial, all_tenants, horizon)
    ctx = run.evaluation(all_tenants, all_tenants, eval_step)
    ev = evaluate_state(state, ctx)
    state = ev.state

    rows = [(cid, ev.required_mhz[cid]) for cid in state.cell_ids]
    total = float(sum(v for _, v in rows))
    snap = ev.snapshot
    rasters = {
        "demand_mbps": np.sum(list(ctx.known_demand.values()), axis=0),
        "serving_cell": snap.serving.pixel_cell.astype(float),
        "pixel_se": snap.pixel_se,
        "sinr_db": serving_mean(state, snap.serving, snap.sinr_db),
    }
    echo = {"scenario": str(cfg.scenario_path), "method": cfg.method,
            "horizon": horizon, "seed": cfg.seed}
    for name in PARAM_OVERRIDES:
        echo[name] = getattr(scn.monitor if hasattr(scn.monitor, name) else scn.planner, name)
    return Report(cfg.method, horizon, eval_step, checks, fired_steps, notices,
                  ledgers, initial_state, state, rows, total, len(state.cells),
                  rasters, grid, echo)


def _planning_step(history: DemandHistory, state: NetworkState) -> int:
    """Window step with the highest total requirement; ties go most recent."""
    totals: dict[int, float] = {}
    for cell in state.cells:
        try:
            window = history.window(cell.cell_id)
        except ValueError:
            continue
        for t, v in window:
            totals[t] = totals.get(t, 0.0) + v
    return max(totals, key=lambda t: (totals[t], t))


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
        reporting.write_actions_csv(out / "actions.csv", report.ledgers),
        reporting.write_actions_csv(out / "actions_raw.csv", report.ledgers,
                                    raw=True),
        reporting.write_changelog(out / "changelog.txt", report.ledgers),
        reporting.write_bandwidth_table(out / "bandwidth_table.csv",
                                        report.bandwidth_rows),
        reporting.write_layout_fragment(out / "layout.json", report.final_state),
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
