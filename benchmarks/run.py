#!/usr/bin/env python3
"""The scplan benchmark: one workload in one fresh process, one JSON result.

    python3 benchmarks/run.py --workload urban200m-sweep --seed 12 --seconds 30 --trace 0

Run from the root of a checkout.  The workload's scenario is generated from
``--seed``, operations run back to back for ``--seconds`` and every output
is checked.  The last line of standard output is the result, a JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced pass with
``--trace 1``.  The exit code is 0 only when every check passed.  See
``benchmarks/README.md`` for the workloads, the metrics and the checks.
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"      # pin BLAS before numpy loads, here and in children

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from tracer import SPAN_NAMES, Tracer, layer_stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
EXPECTED = HERE / "expected.json"
OUTPUTS = WORK / "outputs"       # default-seed outputs of the last run
# Set-up is sampled in fresh processes between the operations of an
# untraced run, at least MIN_SETUPS times and then whenever the samples have
# taken less than SETUP_SHARE of the time so far.  The machine's speed
# drifts over seconds, so samples spread over the whole run give a steadier
# median than the same number taken back to back.
MIN_SETUPS = 3
SETUP_SHARE = 0.1
SCENARIO = "scenario.json"

# Fresh interpreter to scenario ready: import, load and validate.
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import scplan
scplan.load_scenario(sys.argv[2])
violations = scplan.validate_file(sys.argv[2])
elapsed = time.perf_counter() - t0
if violations:
    sys.exit("invalid scenario: " + "; ".join(violations))
print(repr(elapsed))
"""


@dataclass(frozen=True)
class Workload:
    make_doc: str               # function of scenarios.py that makes the document
    methods: tuple | None       # None: every method, in METHODS order
    horizon: int
    fires: bool                 # whether the monitor must launch the planner
    idle_spans: tuple = ()      # spans predicted to record no call


WORKLOADS = {
    "urban200m-sweep": Workload("sweep_doc", None, 24, True),
    "urban400m-arrival": Workload("arrival_doc", ("corr-px",), 24, True,
                                  ("sla.translate_sc_level",)),
    "urban400m-week": Workload("week_doc", ("corr-px",), 168, False,
                               ("sla.translate_sc_level", "planner.plan",
                                "planner.select_site", "planner.compress_actions")),
}

# (span, statistic) pairs reported as per-layer metrics, beside the derived
# ratios below.
SPAN_METRICS = (
    ("scenario_io.load_scenario", "s"),
    ("scenario.spatial_demand", "calls"), ("scenario.spatial_demand", "s"),
    ("radio.configure_powers", "calls"), ("radio.configure_powers", "s"),
    ("radio.link_state", "calls"), ("radio.link_state", "self_s"),
    ("radio.rx_power_matrix", "s"), ("radio.spectral_efficiency", "s"),
    ("radio.average_se", "calls"), ("radio.average_se", "s"),
    ("sla.pixel_specs_to_cell", "calls"), ("sla.pixel_specs_to_cell", "s"),
    ("sla.translate_sc_level", "calls"), ("sla.translate_sc_level", "s"),
    ("monitor.check_trigger", "calls"), ("monitor.check_trigger", "s"),
    ("monitor.required_bandwidth", "calls"),
    ("evaluation.evaluate_state", "calls"), ("evaluation.evaluate_state", "s"),
    ("evaluation.evaluate_state", "self_s"),
    ("planner.plan", "calls"), ("planner.plan", "s"),
    ("planner.select_site", "calls"), ("planner.select_site", "s"),
    ("planner.compress_actions", "s"),
    ("experiment.run_experiment", "self_s"),
    ("reporting.emit_report", "s"), ("reporting.write_raster_csv", "s"),
    ("reporting.write_raster_pgm", "s"),
)
UNITS = {"calls": "count", "s": "s", "self_s": "s"}
DERIVED_UNITS = {
    "evaluation.evals_per_s": "1/s",
    "planner.sites_scored": "count",
    "planner.select_site.share": "ratio",
    "planner.raw_actions": "count",
    "planner.ledger_kept_ratio": "ratio",
    "reporting.bytes_written": "B",
    "tracing_overhead": "ratio",
}
END_TO_END_UNITS = {"setup_s": "s", "op_s.p50": "s", "run_s.p50": "s",
                    "peak_rss_mb": "MB"}


@dataclass
class MethodRun:
    method: str
    run_s: float
    report_s: float
    evals: int
    report: object              # dropped once checked, so memory stays flat
    files: list
    fingerprint: dict | None = None


@dataclass
class Op:
    op_s: float
    traced: bool
    runs: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    layers: dict = field(default_factory=dict)         # per-layer metrics
    span_calls: dict = field(default_factory=dict)     # span name -> calls


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def fingerprint(run: MethodRun) -> dict:
    """The outputs of one run that must not change between commits."""
    r = run.report
    return {
        "cell_count": r.cell_count,
        "layout": [[c.cell_id, c.site_pixel, list(c.channels), repr(c.power_dbm)]
                   for c in r.final_state.cells],
        "raw_actions": [[t, [repr(a) for a in ledger.raw_actions]]
                        for t, ledger in r.ledgers],
        "compressed_actions": [[t, [repr(a) for a in ledger.actions]]
                               for t, ledger in r.ledgers],
        "fired_steps": list(r.fired_steps),
        "total_required_mhz": repr(r.total_required_mhz),
        "report_sha256": {Path(f).name: sha256(f) for f in run.files},
    }


def run_op(scplan, workload: Workload, tracer, record: bool) -> Op:
    """One operation: run and report every method of the workload in turn,
    spans recorded if ``record``."""
    op = Op(0.0, record)
    start = time.perf_counter()
    tracer.recording = record
    try:
        for method in workload.methods or scplan.METHODS:
            evals = tracer.calls["evaluation.evaluate_state"]
            t0 = time.perf_counter()
            report = scplan.run_experiment(scplan.ExperimentConfig(
                SCENARIO, method=method, horizon=workload.horizon))
            t1 = time.perf_counter()
            files = scplan.emit_report(report, Path("out") / method)
            t2 = time.perf_counter()
            op.runs.append(MethodRun(method, t1 - t0, t2 - t1,
                                     tracer.calls["evaluation.evaluate_state"] - evals,
                                     report, files))
        op.op_s = time.perf_counter() - start
    except Exception:       # a failed operation is counted, and the loop goes on
        op.problems.append(traceback.format_exc())
        op.op_s = op.op_s or time.perf_counter() - start
    finally:
        tracer.recording = False
    return op


def check_op(scplan, op: Op, scn, workload: Workload, first: dict, expected):
    """Append to ``op.problems`` every output of ``op`` that is wrong."""
    for run in op.runs:
        r, where = run.report, f"{run.method}:"
        raw = compressed = r.initial_state
        for _, ledger in r.ledgers:
            raw = scplan.replay_actions(raw, ledger.raw_actions, scn.grid, scn.radio)
            compressed = scplan.replay_actions(compressed, ledger.actions,
                                               scn.grid, scn.radio)
        if raw != r.final_state:
            op.problems.append(f"{where} raw ledger does not replay to the final state")
        if compressed != r.final_state:
            op.problems.append(f"{where} compressed ledger does not replay "
                               "to the final state")
        if bool(r.fired_steps) != workload.fires:
            op.problems.append(f"{where} fired at {r.fired_steps}, "
                               f"expected {'some' if workload.fires else 'no'} step")
        print_ = run.fingerprint = fingerprint(run)
        run.report = None
        seen, evals = first.setdefault(run.method, (print_, run.evals))
        for key in differences(print_, seen):
            op.problems.append(f"{where} {key} differs from the first operation's")
        if run.evals != evals:
            op.problems.append(f"{where} {run.evals} evaluate_state calls, "
                               f"first operation made {evals}")
        if expected is not None:
            for key in differences(print_, expected.get(run.method, {})):
                op.problems.append(f"{where} {key} differs from {EXPECTED.name}")


def differences(a: dict, b: dict) -> list:
    return sorted(key for key in set(a) | set(b) if a.get(key) != b.get(key))


def measure(seconds: float, do_op, trace: bool) -> tuple[list, list]:
    """Operations back to back, timed from the first; stop before one that,
    with its checks, would end after ``seconds``.

    Untraced, fresh set-up processes run between the operations (see
    ``SETUP_SHARE``).  Traced, the operations alternate between untraced
    and traced, starting and ending untraced, and at least two are traced,
    so the call counts can be compared and each traced operation has an
    untraced one right after it.  Returns the operations and the set-up
    seconds.
    """
    ops, setup = [], []
    spent = 0.0
    start = time.perf_counter()
    while True:
        while not trace and (len(setup) < MIN_SETUPS
                             or spent < SETUP_SHARE * (time.perf_counter() - start)):
            t0 = time.perf_counter()
            setup.append(setup_seconds())
            spent += time.perf_counter() - t0
        ops.append(do_op(trace and len(ops) % 2 == 1))
        elapsed = time.perf_counter() - start
        if (elapsed * (len(ops) + 1) / len(ops) > seconds
                and (not trace or (len(ops) >= 5 and not ops[-1].traced))):
            return ops, setup


def setup_seconds() -> float:
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), SCENARIO],
                          capture_output=True, text=True, timeout=120, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed: {proc.stderr.strip()}")
    return float(proc.stdout)


def layer_values(stats: dict, op: Op) -> dict:
    """Per-layer metrics of one traced operation."""
    def get(span, stat="calls"):
        return stats[span][stat] if span in stats else 0

    values = {f"{span}.{stat}": get(span, stat) for span, stat in SPAN_METRICS}
    evals = stats.get("evaluation.evaluate_state")
    raw = sum(len(l.raw_actions) for run in op.runs for _, l in run.report.ledgers)
    kept = sum(len(l.actions) for run in op.runs for _, l in run.report.ledgers)
    values.update({
        "evaluation.evals_per_s": evals["calls"] / evals["s"] if evals else 0.0,
        "planner.sites_scored": evals["parents"]["planner.select_site"] if evals else 0,
        "planner.select_site.share": (get("planner.select_site", "s")
                                      / get("experiment.run_experiment", "s")),
        "planner.raw_actions": raw,
        "planner.ledger_kept_ratio": kept / raw if raw else 0.0,
        "reporting.bytes_written": sum(os.path.getsize(f)
                                       for run in op.runs for f in run.files),
    })
    return values


def per_layer(ops: list, workload: Workload) -> tuple[dict, list]:
    """Medians over the traced operations, and the mapping self-check: the
    exact call counts repeat, and each span is called exactly where the
    workload predicts work.  ``tracing_overhead`` is the median over the
    traced operations of their ``run_s`` over that of the untraced
    operation right after, so the machine's drift over a run cancels; the
    cold first operation is left out."""
    problems = []
    traced = [op for op in ops if op.traced]
    calls = traced[0].span_calls
    for op in traced[1:]:
        for span in sorted(set(calls) | set(op.span_calls)):
            if op.span_calls.get(span, 0) != calls.get(span, 0):
                problems.append(f"{span}: {op.span_calls.get(span, 0)} calls, first "
                                f"traced operation made {calls.get(span, 0)}")
    for span in SPAN_NAMES:
        idle = span in workload.idle_spans
        if idle == (calls.get(span, 0) > 0):
            problems.append(f"{span}: predicted {'idle' if idle else 'to work'} on "
                            f"this workload, but made {calls.get(span, 0)} calls")
    # Counts repeat on every traced operation (checked above); times vary.
    metrics = {name: value if isinstance(value, int)
               else statistics.median(op.layers[name] for op in traced)
               for name, value in traced[0].layers.items()}
    run_s = [sum(run.run_s for run in op.runs) for op in ops]
    metrics["tracing_overhead"] = statistics.median(
        run_s[i] / run_s[i + 1] for i, op in enumerate(ops) if op.traced)
    return metrics, problems


def end_to_end(ops: list, setup: list) -> dict:
    runs = [run for op in ops for run in op.runs]
    return {
        "setup_s": statistics.median(setup),
        "op_s.p50": statistics.median(op.op_s for op in ops),
        "run_s.p50": statistics.median(run.run_s for run in runs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the shipped scenario's)")
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "scplan" / "__init__.py").is_file():
        print(f"no scplan sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import scplan
    if Path(scplan.__file__).resolve().parent != (SRC / "scplan").resolve():
        print(f"scplan imported from {scplan.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import scenarios

    seed = scenarios.DEFAULT_SEED if args.seed is None else args.seed
    workload = WORKLOADS[args.workload]
    doc, problems = getattr(scenarios, workload.make_doc)(ROOT, seed)
    problems += [f"generated scenario: {v}" for v in scplan.validate(doc)]
    expected = None
    if seed == scenarios.DEFAULT_SEED:
        expected = json.loads(EXPECTED.read_text()).get(args.workload, {})

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    os.chdir(workdir)       # the report summary records the scenario path
    try:
        Path(SCENARIO).write_text(json.dumps(doc, indent=1) + "\n")
        scn = scplan.load_scenario(SCENARIO)
        first: dict = {}
        counter = Tracer(names=("evaluation.evaluate_state",))
        tracer = Tracer()

        def do_op(record):
            active = tracer if record else counter
            mark = len(active.spans)
            active.install()
            try:
                op = run_op(scplan, workload, active, record)
            finally:
                active.uninstall()
            if record and not op.problems:
                stats = layer_stats(active.spans, mark)
                op.layers = layer_values(stats, op)
                op.span_calls = {span: st["calls"] for span, st in stats.items()}
            check_op(scplan, op, scn, workload, first, expected)
            return op

        ops, setup = measure(args.seconds, do_op, bool(args.trace))
        if args.trace:
            tracer.write(WORK / "traces" / f"{args.workload}-seed{seed}.jsonl")
        if expected is not None:
            # The same outputs as an entry of expected.json, for a person
            # to compare with it, or to copy into it in a reviewed change.
            OUTPUTS.mkdir(parents=True, exist_ok=True)
            (OUTPUTS / f"{args.workload}.json").write_text(json.dumps(
                {run.method: run.fingerprint for run in ops[0].runs},
                indent=1, sort_keys=True) + "\n")
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(1 for op in ops if op.problems)
    for op in ops:
        problems += op.problems
    metrics, units = {}, {}
    if failed:
        problems.append(f"{failed} of {len(ops)} operations failed")
    elif args.trace:
        metrics, mapping = per_layer(ops, workload)
        problems += mapping
        units = {**{f"{s}.{k}": UNITS[k] for s, k in SPAN_METRICS}, **DERIVED_UNITS}
    else:
        metrics, units = end_to_end(ops, setup), END_TO_END_UNITS

    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(f"workload {args.workload}  seed {seed}  operations {len(ops)}  "
          f"runs {sum(len(op.runs) for op in ops)}  set-ups {len(setup)}")
    print("  operation seconds (* traced): "
          + " ".join(f"{op.op_s:.3f}{'*' if op.traced else ''}" for op in ops))
    if setup:
        print("  set-up seconds: " + " ".join(f"{s:.3f}" for s in setup))
    for name, value in metrics.items():
        print(f"  {name:34s} {value:>16.6g} {units[name]}")
    if not args.trace and not failed:
        report_s = statistics.median(run.report_s for op in ops for run in op.runs)
        print(f"  {'report_s.p50':34s} {report_s:>16.6g} s (not in the result)")
    print(f"  {'failed_ops':34s} {failed / len(ops):>16.6g} ratio "
          f"({failed}/{len(ops)})")
    correct = not problems
    print(json.dumps({
        "correct": correct, "attempted": len(ops), "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
