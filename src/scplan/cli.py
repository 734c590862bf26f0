"""Command-line front end.

Subcommands: ``validate`` (invariant diagnostics), ``translate`` (emit
planning specs only), ``plan`` (one planner invocation), ``run`` (full
experiment) and ``report`` (summarize a run directory).

Exit codes: 0 ok, 1 invariant violation, 2 I/O or parse error.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .evaluation import METHODS, evaluate_state
from .experiment import (PARAM_OVERRIDES, ExperimentConfig, build_context, emit_report,
                         plan_once, run_experiment)
from .presets import bundled_scenario_path
from .reporting import (read_bandwidth_table, write_actions_csv,
                        write_bandwidth_table, write_changelog,
                        write_layout_fragment, write_spec_csv)
from .scenario_io import InvariantError, ScenarioError, validate_file

__all__ = ["main"]


def _resolve_scenario(name: str) -> Path:
    path = Path(name)
    if path.exists():
        return path
    bundled = bundled_scenario_path(name)
    if bundled is not None:
        return bundled
    raise ScenarioError(f"scenario not found: {name}")


def _add_common(p: argparse.ArgumentParser, with_method=True):
    p.add_argument("--scenario", required=True,
                   help="scenario file path or bundled scenario name")
    if with_method:
        p.add_argument("--method", choices=METHODS, default="corr-px",
                       help="translation method for the arriving tenant")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--seed", type=int, default=None,
                   help="override the candidate-site seed")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--kmax", type=int, default=None, dest="k_max")
    p.add_argument("--nmax", type=int, default=None, dest="n_max_sc")
    p.add_argument("--L", type=int, default=None, dest="consecutive_steps")
    p.add_argument("--T", type=int, default=None, dest="window_steps")
    p.add_argument("--step4-threshold", choices=["printed", "kmax"],
                   default=None, dest="step4_mode")


def _config(args, need_out=False) -> ExperimentConfig:
    if need_out and args.out is None:
        raise ScenarioError("--out is required")
    return ExperimentConfig(
        scenario_path=_resolve_scenario(args.scenario),
        method=getattr(args, "method", "corr-px"),
        horizon=args.horizon, seed=args.seed,
        **{name: getattr(args, name) for name in PARAM_OVERRIDES})


def _cmd_validate(args) -> int:
    violations = validate_file(_resolve_scenario(args.scenario))
    for line in violations:
        print(line)
    print(f"{len(violations)} violations")
    return 1 if violations else 0


def _cmd_translate(args) -> int:
    cfg = _config(args, need_out=True)
    scn = cfg.scenario()
    if scn.event is None:
        print("scenario has no arriving tenant to translate for")
        return 1
    ctx = build_context(scn, cfg.method, cfg.horizon).busy_hour()
    tenant_id = scn.event.tenant.tenant_id
    policy = ctx.policies[tenant_id]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    ev = evaluate_state(scn.initial_state, ctx)
    write_spec_csv(out / "specs_cell.csv", tenant_id, "cell",
                   ev.cell_specs[tenant_id])
    if policy.pixel_spec is not None:
        write_spec_csv(out / "specs_pixel.csv", tenant_id, "pixel",
                       policy.pixel_spec)
    print(f"wrote planning specs for {tenant_id} ({cfg.method}) to {out}")
    return 0


def _cmd_plan(args) -> int:
    cfg = _config(args, need_out=True)
    scn = cfg.scenario()
    state, ledger, ctx = plan_once(scn, cfg.method, cfg.horizon)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_actions_csv(out / "actions.csv", [(0, ledger)])
    write_actions_csv(out / "actions_raw.csv", [(0, ledger)], raw=True)
    write_changelog(out / "changelog.txt", [(0, ledger)])
    write_layout_fragment(out / "layout.json", state)
    ev = evaluate_state(state, ctx)
    write_bandwidth_table(out / "bandwidth_table.csv",
                          [(cid, ev.required_mhz[cid]) for cid in state.cell_ids])
    print(f"planned {len(state.cells)} cells with {len(ledger.actions)} "
          f"action(s); outputs in {out}")
    return 0


def _cmd_run(args) -> int:
    cfg = _config(args, need_out=True)
    report = run_experiment(cfg)
    emit_report(report, args.out)
    print(f"method={report.method} cells={report.cell_count} "
          f"total_required_mhz={report.total_required_mhz:.2f} "
          f"fired_steps={report.fired_steps}")
    print(f"report written to {args.out}")
    return 0


def _cmd_report(args) -> int:
    run_dir = Path(args.run)
    table = run_dir / "bandwidth_table.csv"
    if not table.exists():
        raise ScenarioError(f"no bandwidth_table.csv under {run_dir}")
    rows, total = read_bandwidth_table(table)
    recomputed = sum(v for _, v in rows)
    print(f"{'cell':>6}  required_mhz")
    for cell, mhz in rows:
        print(f"{cell:>6}  {mhz:10.3f}")
    print(f"{'total':>6}  {total:10.3f}")
    if abs(recomputed - total) > 1e-6 * max(1.0, abs(total)):
        print(f"total mismatch: table says {total}, rows sum to {recomputed}")
        return 1
    summary = run_dir / "summary.json"
    if summary.exists():
        import json
        doc = json.loads(summary.read_text())
        print(f"method={doc['method']} cells={doc['cell_count']} "
              f"actions={doc['actions']} fired_steps={doc['fired_steps']}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="scplan",
        description="Capacity self-planning for multi-tenant small-cell networks")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check every scenario invariant")
    p.add_argument("--scenario", required=True)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("translate", help="emit planning specs only")
    _add_common(p)
    p.set_defaults(func=_cmd_translate)

    p = sub.add_parser("plan", help="run one planner invocation")
    _add_common(p)
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("run", help="run a full experiment")
    _add_common(p)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("report", help="summarize a run directory")
    p.add_argument("--run", required=True, help="run output directory")
    p.set_defaults(func=_cmd_report)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvariantError as exc:
        for line in exc.violations:
            print(f"invariant violation: {line}", file=sys.stderr)
        return 1
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
