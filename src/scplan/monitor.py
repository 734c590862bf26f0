"""Capacity conformance monitoring: required bandwidth, busy hour, trigger.

Each cell's required bandwidth is the SLA-capped demand divided by its
average spectral efficiency (Mbps per b/s/Hz gives MHz).  A cell violates
when its busy-hour requirement exceeds ``alpha`` times its allocated
bandwidth; the planner is triggered only after ``consecutive_steps``
violating steps in a row.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Mapping, NamedTuple

from .scenario import NetworkState, in_unit, is_count, left_sum, require_fields


@dataclass(frozen=True)
class MonitorParams:
    alpha: float = 0.9              # utilization threshold on allocated bandwidth
    window_steps: int = 24          # sliding window for busy-hour detection
    consecutive_steps: int = 3      # violating steps required to fire

    def __post_init__(self):
        require_fields(self, ("monitor.alpha_range", "alpha", in_unit, "in [0, 1]"),
                       ("monitor.window_positive", "window_steps", is_count,
                        "an integer >= 1"),
                       ("monitor.consecutive_positive", "consecutive_steps", is_count,
                        "an integer >= 1"))


class DemandHistory:
    """Ring of per-cell required-bandwidth samples over the sliding window.

    Beside each cell's ring it keeps the samples that can still be the
    window's busy sample, the latest with the largest value, as a deque of
    strictly falling values: a new sample drops every earlier one it
    equals or exceeds, and the front leaves once it slides out of the
    ring.  ``busy_sample`` reads it in O(1) and equals ``latest_max`` of
    ``window``; samples arrive in increasing ``t``.

    Also owns the per-cell consecutive-violation counters; counters reset on
    any non-violating step and after a fired trigger.
    """

    def __init__(self, window_steps: int):
        if window_steps < 1:
            raise ValueError("window_steps must be >= 1")
        self.window_steps = window_steps
        self._ring: dict[int, deque] = {}
        self._busy: dict[int, deque] = {}
        self.counters: dict[int, int] = {}

    def record(self, t: int, required_mhz: Mapping[int, float]):
        for cell_id, value in required_mhz.items():
            if cell_id not in self._ring:
                self._ring[cell_id] = deque(maxlen=self.window_steps)
                self._busy[cell_id] = deque()
                self.counters.setdefault(cell_id, 0)
            ring, busy = self._ring[cell_id], self._busy[cell_id]
            sample = (t, float(value))
            ring.append(sample)
            while busy and busy[-1][1] <= sample[1]:
                busy.pop()
            busy.append(sample)
            if busy[0][0] < ring[0][0]:
                busy.popleft()

    def has(self, cell_id: int) -> bool:
        return bool(self._ring.get(cell_id))

    def window(self, cell_id: int) -> list[tuple[int, float]]:
        if not self.has(cell_id):
            raise ValueError(f"no history for cell {cell_id}")
        return list(self._ring[cell_id])

    def busy_sample(self, cell_id: int) -> tuple[int, float]:
        """``latest_max(window(cell_id))``: the window's ``(t, value)`` with
        the largest value, ties to the latest."""
        busy = self._busy.get(cell_id)
        if not busy:
            raise ValueError(f"no history for cell {cell_id}")
        return busy[0]


def required_bandwidth(demands: Mapping[str, Mapping[int, float]],
                       specs: Mapping[str, Mapping[int, float]],
                       avg_se: Mapping[int, float]) -> dict[int, float]:
    """Spectrum (MHz) each cell of ``avg_se`` needs for its SLA-capped
    demand, in ``avg_se`` order.

    ``demands`` and ``specs`` map each tenant to its per-cell Mbps.  A
    cell's capped demand is ``left_sum`` of min(demand, planning spec) over
    the tenants in ``demands`` order, divided by the cell's average spectral
    efficiency.  A cell with zero SE but positive capped demand is
    un-servable: the requirement is infinite, so every expansion threshold
    reads as exceeded.
    """
    pairs = [(cells, specs[m]) for m, cells in demands.items()]
    out = {}
    for cid, se in avg_se.items():
        capped = left_sum(min(d[cid], a[cid]) for d, a in pairs)
        if capped < 0:
            raise ValueError("demands and specs must be >= 0")
        out[cid] = 0.0 if capped == 0 else math.inf if se <= 0 else capped / se
    return out


def latest_max(samples):
    """The ``(t, value)`` pair of ``samples`` with the largest value, ties to
    the latest ``t``: the one busy-step rule of the monitor and of runs."""
    (best_t, best), *rest = samples
    for t, v in rest:
        if v > best or (v == best and t > best_t):
            best_t, best = t, v
    return best_t, best


class CellCheck(NamedTuple):
    """One cell's monitor reading at step ``t``, a row of ``monitor_log.csv``."""

    t: int
    cell_id: int
    busy_step: int
    required_mhz: float
    threshold_mhz: float
    violation: bool
    counter: int


@dataclass(frozen=True)
class TriggerDecision:
    fire: bool
    violating_cells: tuple[int, ...]
    checks: tuple[CellCheck, ...] = ()


def check_trigger(history: DemandHistory, state: NetworkState,
                  params: MonitorParams, channel_bandwidth_mhz: float,
                  t: int) -> TriggerDecision:
    """Update violation counters and decide whether to launch planning.

    A cell violates when its busy-hour requirement strictly exceeds
    ``alpha * allocated_bandwidth``; the trigger fires when any counter
    reaches ``consecutive_steps``, after which all counters restart.
    """
    checks = []
    fired_cells = []
    for cell in state.cells:
        if not history.has(cell.cell_id):
            continue        # just deployed: first sample arrives next step
        t_b, value = history.busy_sample(cell.cell_id)
        threshold = params.alpha * len(cell.channels) * channel_bandwidth_mhz
        violation = value > threshold
        counter = history.counters.get(cell.cell_id, 0)
        counter = counter + 1 if violation else 0
        history.counters[cell.cell_id] = counter
        if counter >= params.consecutive_steps:
            fired_cells.append(cell.cell_id)
        checks.append(CellCheck(t, cell.cell_id, t_b, value, threshold,
                                violation, counter))
    fire = bool(fired_cells)
    if fire:
        for cell_id in history.counters:
            history.counters[cell_id] = 0
    return TriggerDecision(fire, tuple(fired_cells), tuple(checks))


@dataclass(frozen=True)
class SlaExceedNotice:
    """Informational record that a tenant's demand outgrew its contract."""

    tenant_id: str
    total_demand_mbps: float
    contracted_mbps: float


def sla_exceed_check(total_tenant_demand: float, contracted: float,
                     tenant_id: str = "") -> SlaExceedNotice | None:
    """Return a notice when demand strictly exceeds the contracted capacity."""
    if total_tenant_demand > contracted:
        return SlaExceedNotice(tenant_id, float(total_tenant_demand), float(contracted))
    return None
