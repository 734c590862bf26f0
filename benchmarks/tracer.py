"""Outside-in tracer for scplan's layers.

The tracer changes no scplan file.  It replaces each traced function at
every module binding that holds it (``configure_powers`` is bound in
``scplan.radio``, ``scplan.evaluation``, ``scplan.planner``,
``scplan.experiment`` and the package itself), so a call is seen whichever
module makes it.  While recording, each call appends a span
``[name, start, end, parent]`` to an in-memory list; ``parent`` is the
index of the enclosing span, or -1.  Calls are counted while installed.
"""
from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

# (defining module, attribute, span name).  The span name is the layer the
# function belongs to, which for emit_report is the reporting layer.
TARGETS = (
    ("scplan.scenario_io", "load_scenario", "scenario_io.load_scenario"),
    ("scplan.scenario", "TenantProfile.spatial_demand", "scenario.spatial_demand"),
    ("scplan.radio", "configure_powers", "radio.configure_powers"),
    ("scplan.radio", "link_state", "radio.link_state"),
    ("scplan.radio", "rx_power_matrix", "radio.rx_power_matrix"),
    ("scplan.radio", "spectral_efficiency", "radio.spectral_efficiency"),
    ("scplan.radio", "average_se", "radio.average_se"),
    ("scplan.sla", "pixel_specs_to_cell", "sla.pixel_specs_to_cell"),
    ("scplan.sla", "translate_sc_level", "sla.translate_sc_level"),
    ("scplan.monitor", "check_trigger", "monitor.check_trigger"),
    ("scplan.monitor", "required_bandwidth", "monitor.required_bandwidth"),
    ("scplan.evaluation", "evaluate_state", "evaluation.evaluate_state"),
    ("scplan.planner", "plan", "planner.plan"),
    ("scplan.planner", "select_site", "planner.select_site"),
    ("scplan.planner", "compress_actions", "planner.compress_actions"),
    ("scplan.experiment", "run_experiment", "experiment.run_experiment"),
    ("scplan.experiment", "emit_report", "reporting.emit_report"),
    ("scplan.reporting", "write_raster_csv", "reporting.write_raster_csv"),
    ("scplan.reporting", "write_raster_pgm", "reporting.write_raster_pgm"),
)
SPAN_NAMES = tuple(name for _, _, name in TARGETS)


class Tracer:
    """Counts calls to the chosen targets and, while recording, their spans."""

    def __init__(self, names=SPAN_NAMES):
        self.names = tuple(names)
        self.calls: Counter = Counter()
        self.spans: list[list] = []
        self.recording = False
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        calls, spans, stack = self.calls, self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            calls[name] += 1
            if not self.recording:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()

        return traced

    def install(self) -> "Tracer":
        """Wrap every binding of every chosen target; a missing target raises."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == "scplan" or key.startswith("scplan.")]
        for module_name, attr, name in TARGETS:
            if name not in self.names:
                continue
            module = sys.modules[module_name]
            if "." in attr:
                owner_name, method = attr.split(".")
                owner = getattr(module, owner_name)
                original = owner.__dict__[method]
                self._undo.append((owner, method, original))
                setattr(owner, method, self._wrap(name, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._undo.append((m, key, original))
                        setattr(m, key, wrapper)
        return self

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def write(self, path: Path):
        """Write the recorded spans, one JSON list per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_stats(spans: list[list], first: int = 0) -> dict[str, dict]:
    """Per span name over ``spans[first:]``: calls, inclusive seconds, self
    seconds (inclusive minus the time of direct child spans) and
    ``parents``, a counter of the enclosing span names."""
    child = defaultdict(float)
    for _, start, end, parent in spans[first:]:
        if parent >= 0:
            child[parent] += end - start
    stats: dict[str, dict] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0,
                                                   "parents": Counter()})
    for index, (name, start, end, parent) in enumerate(spans[first:], start=first):
        entry = stats[name]
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += end - start - child[index]
        entry["parents"][spans[parent][0] if parent >= 0 else None] += 1
    return dict(stats)
