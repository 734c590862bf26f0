import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scplan.monitor import (DemandHistory, MonitorParams, check_trigger,
                            latest_max, required_bandwidth, sla_exceed_check)
from scplan.scenario import NetworkState, SmallCell


def one_cell(demands, specs, se):
    """``required_bandwidth`` of one cell, from each tenant's Mbps there."""
    return required_bandwidth({m: {1: v} for m, v in demands.items()},
                              {m: {1: v} for m, v in specs.items()}, {1: se})[1]


def test_required_bandwidth_hand_case():
    value = one_cell({"a": 10.0, "b": 30.0}, {"a": 20.0, "b": 20.0}, 2.0)
    assert value == pytest.approx(15.0)


def test_required_bandwidth_zero_and_saturated():
    assert one_cell({"a": 0.0}, {"a": 5.0}, 2.0) == 0.0
    # demand above every spec: the spec side caps
    value = one_cell({"a": 50.0, "b": 40.0}, {"a": 20.0, "b": 10.0}, 1.5)
    assert value == pytest.approx(30.0 / 1.5)


def test_required_bandwidth_unservable_sentinel():
    value = one_cell({"a": 5.0}, {"a": 10.0}, 0.0)
    assert math.isinf(value)
    # zero capped demand stays zero even with zero efficiency
    assert one_cell({"a": 0.0}, {"a": 0.0}, 0.0) == 0.0


def test_required_bandwidth_monotonicity():
    base = one_cell({"a": 10.0}, {"a": 20.0}, 2.0)
    assert one_cell({"a": 12.0}, {"a": 20.0}, 2.0) >= base
    assert one_cell({"a": 10.0}, {"a": 25.0}, 2.0) >= base
    assert one_cell({"a": 10.0}, {"a": 20.0}, 2.5) <= base


def test_required_bandwidth_applies_each_rule_per_cell():
    # zero demand, zero SE with demand and both zero, each in its own cell
    got = required_bandwidth({"a": {1: 0.0, 2: 5.0, 3: 0.0, 4: 10.0}},
                             {"a": {1: 5.0, 2: 5.0, 3: 0.0, 4: 8.0}},
                             {4: 2.0, 3: 0.0, 2: 0.0, 1: 2.0})
    assert got == {4: 4.0, 3: 0.0, 2: math.inf, 1: 0.0} and list(got) == [4, 3, 2, 1]


mbps = st.sampled_from([0.0, 0.0, 1e-300, 0.1, 0.2, 0.3, 1.0, 3.5, 1e16]) | \
    st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(1, 4), st.lists(st.integers(-5, 40), min_size=1,
                                              max_size=6, unique=True))
def test_required_bandwidth_maps_equal_a_per_cell_left_to_right_loop(data, tenants, cells):
    # the per-tenant cell maps give, cell by cell, the bits of min(demand,
    # spec) added over tenants left to right and divided by the cell's SE;
    # zero demand, zero SE (inf) and both (0.0) are drawn often
    names = [f"t{i}" for i in range(tenants)]
    demands = {m: {c: data.draw(mbps) for c in cells} for m in names}
    specs = {m: {c: data.draw(mbps) for c in reversed(cells)} for m in reversed(names)}
    avg_se = {c: data.draw(st.sampled_from([0.0, 4.4]) | st.floats(0.0, 5.0))
              for c in data.draw(st.permutations(cells))}
    got = required_bandwidth(demands, specs, avg_se)
    assert list(got) == list(avg_se)
    for cid, se in avg_se.items():
        capped = 0.0
        for m in names:
            capped += min(demands[m][cid], specs[m][cid])
        want = 0.0 if capped == 0 else math.inf if se <= 0 else capped / se
        assert got[cid].hex() == want.hex()
    # a negative demand or spec that caps a cell's sum below 0 raises
    cid = data.draw(st.sampled_from(cells))
    side = data.draw(st.sampled_from([demands, specs]))
    side[names[0]][cid] = -1e7 - sum(min(demands[m][cid], specs[m][cid]) for m in names)
    with pytest.raises(ValueError, match=">= 0"):
        required_bandwidth(demands, specs, avg_se)


def test_busy_hour_argmax_and_ties():
    history = DemandHistory(window_steps=8)
    for t, v in enumerate([10.0, 14.0, 12.0, 13.0]):
        history.record(t, {1: v})
    assert latest_max(history.window(1))[0] == 1
    flat = DemandHistory(window_steps=8)
    for t in range(4):
        flat.record(t, {1: 5.0})
    assert latest_max(flat.window(1))[0] == 3     # ties go to the most recent
    single = DemandHistory(window_steps=8)
    single.record(7, {1: 2.0})
    assert latest_max(single.window(1))[0] == 7
    with pytest.raises(ValueError):
        single.window(99)                          # a cell with no history
    apart = DemandHistory(window_steps=8)
    for t, v in enumerate([9.0, 3.0, 1.0, 9.0, 4.0]):
        apart.record(t, {1: v})
    assert latest_max(apart.window(1))[0] == 3    # equal maxima apart: the later one
    unservable = DemandHistory(window_steps=8)
    for t, v in enumerate([5.0, math.inf, 7.0]):
        unservable.record(t, {1: v})
    assert latest_max(unservable.window(1))[0] == 1   # an un-servable cell's inf wins


def test_busy_hour_window_evicts_old_samples():
    history = DemandHistory(window_steps=3)
    for t, v in enumerate([99.0, 1.0, 2.0, 3.0]):
        history.record(t, {1: v})
    assert latest_max(history.window(1))[0] == 3  # the 99 fell out of the window


# few distinct values, so ties are common, and the un-servable inf
_REQUIRED = st.sampled_from([0.0, 1.0, 2.5, 2.5, 7.0, math.inf]) | st.floats(0.0, 10.0)


@settings(max_examples=150, deadline=None)
@given(steps=st.lists(st.dictionaries(st.integers(0, 4), _REQUIRED, max_size=5),
                      max_size=40),
       gaps=st.lists(st.integers(1, 3), min_size=40, max_size=40))
def test_running_busy_sample_is_the_latest_max_of_the_window(steps, gaps):
    # cells come and go between records, start mid-run and skip steps;
    # steps themselves may skip
    for window in (1, 2, 3, 24):
        history = DemandHistory(window)
        t = 0
        for sample, gap in zip(steps, gaps):
            t += gap
            history.record(t, sample)
            for cell in range(5):
                if history.has(cell):
                    assert history.busy_sample(cell) == latest_max(history.window(cell))
                else:
                    with pytest.raises(ValueError):
                        history.busy_sample(cell)


def _one_cell_state(channels=(0, 1)):
    return NetworkState((SmallCell(1, 0, channels),))


def test_trigger_threshold_strictness():
    params = MonitorParams(alpha=0.9, window_steps=4, consecutive_steps=1)
    state = _one_cell_state()
    history = DemandHistory(4)
    history.record(0, {1: 36.0})     # exactly alpha * 2 * 20
    decision = check_trigger(history, state, params, 20.0, 0)
    assert not decision.fire
    history.record(1, {1: 37.0})
    decision = check_trigger(history, state, params, 20.0, 1)
    assert decision.fire and decision.violating_cells == (1,)


def test_trigger_consecutive_semantics():
    params = MonitorParams(alpha=0.9, window_steps=1, consecutive_steps=3)
    state = _one_cell_state()
    history = DemandHistory(1)
    fired = []
    # two violations, one clean step, then three violations
    series = [40.0, 40.0, 1.0, 40.0, 40.0, 40.0]
    for t, value in enumerate(series):
        history.record(t, {1: value})
        fired.append(check_trigger(history, state, params, 20.0, t).fire)
    assert fired == [False, False, False, False, False, True]


def test_trigger_counter_resets_after_fire():
    params = MonitorParams(alpha=0.9, window_steps=1, consecutive_steps=2)
    state = _one_cell_state()
    history = DemandHistory(1)
    results = []
    for t in range(4):
        history.record(t, {1: 40.0})
        results.append(check_trigger(history, state, params, 20.0, t).fire)
    # fires on the 2nd step, counters restart, fires again on the 4th
    assert results == [False, True, False, True]


def test_trigger_checks_report_rows():
    params = MonitorParams(alpha=0.9, window_steps=2, consecutive_steps=3)
    state = _one_cell_state((0,))
    history = DemandHistory(2)
    history.record(0, {1: 19.0})
    decision = check_trigger(history, state, params, 20.0, 0)
    (row,) = decision.checks
    assert row.threshold_mhz == pytest.approx(18.0)
    assert row.violation and row.counter == 1 and not decision.fire


def test_trigger_skips_unseen_cells():
    params = MonitorParams()
    state = NetworkState((SmallCell(1, 0, (0,)), SmallCell(2, 5, (0,))))
    history = DemandHistory(params.window_steps)
    history.record(0, {1: 5.0})      # cell 2 just deployed, no sample yet
    decision = check_trigger(history, state, params, 20.0, 0)
    assert {c.cell_id for c in decision.checks} == {1}


def test_sla_exceed_check():
    notice = sla_exceed_check(110.0, 100.0, "m")
    assert notice is not None and notice.total_demand_mbps == 110.0
    assert sla_exceed_check(100.0, 100.0, "m") is None
    assert sla_exceed_check(0.0, 100.0, "m") is None


def test_monitor_params_validation():
    with pytest.raises(ValueError):
        MonitorParams(alpha=1.2)
    with pytest.raises(ValueError):
        MonitorParams(window_steps=0)
    with pytest.raises(ValueError):
        MonitorParams(consecutive_steps=0)
