"""Layouts built as deltas on the full build a ``LinkCache`` keeps.

``link_state`` builds any layout that is the cache's kept full build plus
one trailing cell from that build's intermediates; no build holds a SINR
table, which ``LinkCache.sinr_table`` derives from a full build on request.
Every site-search trial is such a layout: ``select_site`` first has the
cache keep the full build of its base and solve all its trials' powers in
one batch.  Every delta build must equal the matrix form of
``tests/conftest.py`` byte for byte; every trial must also be a delta
build and equal a fresh-cache evaluation of its layout, and every power
must be the one the one-layout loop kept there, whether the search runs in
the run's shared cache or in a fresh one.
"""
import hashlib
import importlib.util
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_same_evaluation, matrix_link_state, oracle_configure_powers
from scplan import planner, radio
from scplan.evaluation import METHODS
from scplan.experiment import ExperimentConfig, run_experiment
from scplan.presets import bundled_scenario_path
from scplan.radio import LinkCache, link_state
from scplan.scenario import GridSpec, NetworkState, SmallCell

ROOT = Path(__file__).resolve().parent.parent


def _digest(serving, pixel_se) -> str:
    h = hashlib.sha256(repr(serving.cell_ids).encode())
    for a in (serving.pixel_cell, serving.pixel_col, pixel_se):
        h.update(repr((a.dtype.str, a.shape)).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _matrix_digest(state, grid, params) -> str:
    serving, _, _, pixel_se = matrix_link_state(state, grid, params)
    return _digest(serving, pixel_se)


def _check_every_trial(monkeypatch, run) -> int:
    """Call ``run`` with every ``select_site`` call repeated on a fresh
    ``LinkCache``, and check every delta build, in a search or not, against
    the matrix form; each trial of both searches to be a delta build and to
    match a fresh-cache ``evaluate_state`` of its layout; every power solved
    against the one-layout loop; and the SINR table derived from every full
    build against the matrix form.  Returns the number of trials checked."""
    expected = {}           # layout -> digest of its matrix form
    fresh = {}              # trial layout -> its evaluation in a fresh cache
    deltas, trials = [], []
    searching = []
    aside = []              # a fresh-cache evaluation runs: nothing is checked
    batches = []            # (layouts, cells per layout) of each power solve
    delta, select, full = radio._trial_link, planner.select_site, LinkCache._full
    solve, evaluate = radio.solve_powers, planner.evaluate_state

    def checked_powers(states, grid, params):
        got = solve(states, grid, params)
        if aside:
            return got
        for state, powered in zip(states, got):
            assert [repr(c.power_dbm) for c in powered.cells] == \
                [repr(p) for p in oracle_configure_powers(state, grid, params).tolist()]
        batches.append((len(states), len(states[0].cells)))
        return got

    def checked_full(cache, state):
        built = state not in cache._built[:1]       # else sinr_table's own ask
        got = full(cache, state)
        if built and not aside:
            table = matrix_link_state(state, cache.grid, cache.params)[2]
            assert cache.sinr_table(state).tobytes() == table.tobytes()
        return got

    def checked_delta(base, b, state, cache):
        got = delta(base, b, state, cache)
        if state not in expected:
            expected[state] = _matrix_digest(state, cache.grid, cache.params)
        assert _digest(*got) == expected[state]
        deltas.append(state)
        return got

    def checked_evaluate(state, ctx):
        before = len(deltas)
        got = evaluate(state, ctx)
        if searching:
            assert len(deltas) == before + 1, "a trial took the full build"
            trials.append(state)
            if state not in fresh:
                aside.append(1)
                try:
                    fresh[state] = evaluate(state, replace(ctx, link_cache=None))
                finally:
                    aside.pop()
            assert_same_evaluation(got, fresh[state])
        return got

    def select_twice(state, candidates, ctx, new_cell_id):
        searching.append(1)
        try:
            start, solves = len(trials), len(batches)
            site, ev = select(state, candidates, ctx, new_cell_id)
            shared = len(trials) - start
            again, fresh_ev = select(state, candidates, replace(ctx, link_cache=None),
                                     new_cell_id)
        finally:
            searching.pop()
        assert shared > 0 and len(trials) - start == 2 * shared
        # each search solved all its trials' powers in one batch
        assert [k for k, n in batches[solves:] if n == len(state.cells) + 1] == [shared] * 2
        assert again == site
        assert_same_evaluation(fresh_ev, ev)
        return site, ev

    monkeypatch.setattr(LinkCache, "_full", checked_full)
    monkeypatch.setattr(radio, "_trial_link", checked_delta)
    monkeypatch.setattr(radio, "solve_powers", checked_powers)
    monkeypatch.setattr(planner, "evaluate_state", checked_evaluate)
    monkeypatch.setattr(planner, "select_site", select_twice)
    run()
    return len(trials)


@pytest.mark.parametrize("method", METHODS)
def test_every_urban200m_trial_matches_the_matrix_form(method, monkeypatch):
    cfg = ExperimentConfig(bundled_scenario_path("urban200m"), method=method, horizon=24)
    assert _check_every_trial(monkeypatch, lambda: run_experiment(cfg)) > 0


def test_every_arrival_trial_matches_the_matrix_form(monkeypatch, tmp_path):
    spec = importlib.util.spec_from_file_location("scenarios",
                                                  ROOT / "benchmarks" / "scenarios.py")
    scenarios = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(scenarios)
    doc, problems = scenarios.arrival_doc(ROOT, scenarios.DEFAULT_SEED)
    assert problems == []
    path = tmp_path / "arrival.json"
    path.write_text(json.dumps(doc))
    cfg = ExperimentConfig(path, method="corr-px", horizon=24)
    assert _check_every_trial(monkeypatch, lambda: run_experiment(cfg)) > 0


def _random_trials(seed: int, grid: GridSpec):
    """A base layout of 9 to 16 fixed-power cells, at least 8 of them on
    channel 0 and none on channel 3, with cells 1 and 2 mirrored across the
    grid's middle column; and trials that add a cell, some mirroring a base
    cell at its power (rx ties with the new column), some moving base powers
    (cell 1 to cell 2's power: rx ties with a moved column)."""
    rng = np.random.default_rng(seed)
    levels = (12.0, 17.0, 24.0)
    row, col = int(rng.integers(grid.ny)), int(rng.integers(grid.nx // 2 - 1))
    mirror = (row * grid.nx + col, row * grid.nx + grid.nx - 1 - col)
    free = [p for p in range(grid.num_pixels) if p not in mirror]
    n = int(rng.integers(9, 17))
    sites = [*mirror, *(int(p) for p in rng.choice(free, size=n - 2, replace=False))]
    cells = [SmallCell(i, site, (0,) if i <= 8 or rng.random() < 0.5
                       else (int(rng.integers(1, 3)),) if rng.random() < 0.5
                       else (0, int(rng.integers(1, 3))),
                       levels[0] if i == 1 else levels[int(rng.integers(3))],
                       power_fixed=True)
             for i, site in enumerate(sites, start=1)]
    base = NetworkState(tuple(cells))

    def mirrored(cell):
        r, c = divmod(cell.site_pixel, grid.nx)
        return r * grid.nx + grid.nx - 1 - c

    trials = []
    for t in range(8):
        source = cells[int(rng.integers(len(cells)))]
        site = mirrored(source)
        if site in sites or t % 4 == 3:
            site = int(rng.choice([p for p in range(grid.num_pixels) if p not in sites]))
        channels = ((0,), (3,), (0, 3), source.channels)[t % 4]
        powers = [c.power_dbm for c in cells]
        if t % 2:
            for j in rng.choice(len(cells), size=int(rng.integers(1, 4)), replace=False):
                powers[j] = levels[int(rng.integers(3))]
            if t % 4 == 1:
                powers[0] = cells[1].power_dbm
        trial = tuple(replace(c, power_dbm=p) for c, p in zip(cells, powers))
        trials.append(NetworkState(trial + (SmallCell(n + 1, site, channels,
                                                      source.power_dbm),)))
    return base, trials


def test_random_trials_match_the_matrix_form(params, monkeypatch):
    grid = GridSpec(63.0, 45.0, 3.0)        # 21 x 15 pixels, a middle column
    full_builds = []
    columns = radio.rx_power_matrix
    monkeypatch.setattr(radio, "rx_power_matrix",
                        lambda *a: full_builds.append(1) or columns(*a))
    shared = LinkCache(grid, params)
    ties = moved = 0
    for seed in range(12):
        base, trials = _random_trials(seed, grid)
        assert max(sum(0 in c.channels for c in t.cells) for t in trials) >= 9
        base_table = matrix_link_state(base, grid, params)[2]
        for cache in (shared, LinkCache(grid, params)):
            # the base's table: its full build is kept, and each trial a delta on it
            assert cache.sinr_table(base).tobytes() == base_table.tobytes()
            for trial in trials:
                serving, rx, _, pixel_se = matrix_link_state(trial, grid, params)
                top = rx == rx.max(axis=1, keepdims=True)
                ties += int((top[:, -1] & (top.sum(axis=1) > 1)).sum())
                moved += any(c.power_dbm != b.power_dbm
                             for c, b in zip(trial.cells, base.cells))
                before = len(full_builds)
                got = link_state(trial, cache)
                assert len(full_builds) == before
                expected = _digest(serving, pixel_se)
                assert _digest(*got) == expected
                assert _digest(*link_state(trial, LinkCache(grid, params))) == expected
    assert ties > 0 and moved > 0


@pytest.mark.parametrize("num_cells", [255, 300])
def test_layouts_past_255_cells_match_the_matrix_form(params, monkeypatch, num_cells):
    # past 255 cells a serving column no longer fits a uint8, and a trial's
    # delta build indexes by the wider one; from 255 cells the trial crosses
    grid = GridSpec(120.0, 120.0, 3.0)      # 40 x 40 pixels
    rng = np.random.default_rng(num_cells)
    sites = rng.choice(grid.num_pixels, size=num_cells + 1, replace=False).tolist()
    levels = (12.0, 17.0, 24.0)
    cells = tuple(SmallCell(i, site, (int(rng.integers(4)),), levels[int(rng.integers(3))],
                            power_fixed=True) for i, site in enumerate(sites[:-1], start=1))
    base = NetworkState(cells)
    deltas = []
    delta = radio._trial_link
    monkeypatch.setattr(radio, "_trial_link", lambda *a: deltas.append(1) or delta(*a))
    cache = LinkCache(grid, params)
    assert cache.sinr_table(base).tobytes() == matrix_link_state(base, grid, params)[2].tobytes()
    new = SmallCell(num_cells + 1, sites[-1], (0, 2), 24.0)
    moved = tuple(replace(c, power_dbm=levels[(levels.index(c.power_dbm) + 1) % 3])
                  if j % 37 == 0 else c for j, c in enumerate(cells))
    for trial in (NetworkState(cells + (new,)), NetworkState(moved + (new,))):
        got = link_state(trial, cache)
        assert got[0].pixel_col.dtype == np.uint16
        assert _digest(*got) == _matrix_digest(trial, grid, params)
    assert len(deltas) == 2


_LEVELS = (-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0)      # few levels: exact ties


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_index_set_serving_update_equals_the_running_max(data):
    # a trial's serving column, folded in from the base's running max over
    # the touched columns' candidates with the max restarted only where the
    # base winner fell, equals a fresh running max over the trial's columns,
    # whether the restart's columns come as a list or a generator
    n = data.draw(st.integers(1, 6), label="base columns")
    size = data.draw(st.integers(1, 40), label="pixels")
    column = st.lists(st.sampled_from(_LEVELS), min_size=size, max_size=size)
    base = [np.array(data.draw(column)) for _ in range(n)]
    moves = data.draw(st.dictionaries(st.integers(0, n - 1),
                                      st.sampled_from((-2.0, -1.0, 1.0, 2.0))), label="moves")
    trial = [c + moves[j] if j in moves else c for j, c in enumerate(base)]
    trial.append(np.array(data.draw(column)))
    expected = radio._running_max(trial)[1]
    for form in (list, iter):
        best, col = radio._running_max(base)
        lost = np.concatenate([(col == j).nonzero()[0] for j in sorted(moves) if moves[j] < 0]
                              or [np.empty(0, np.intp)])
        radio._serve_trial(best, col, {j: trial[j] for j in [*sorted(moves), n]}, n, lost,
                           form(c[lost] for c in trial))
        assert (col.dtype, col.tobytes()) == (expected.dtype, expected.tobytes())


@pytest.mark.parametrize("step", [2.0, -2.0])
def test_trial_with_a_holder_whose_power_rises_or_falls_matches_the_matrix_form(
        params, monkeypatch, step):
    # cell 2 shares channel 0 with cells 1 and 3 and serves pixels in the
    # base; the trial moves its power up or down and adds a cell on channel
    # 0 beside it.  A rise keeps cell 2's pixels without a restart, a fall
    # restarts the max on them; both must give the matrix form's bytes
    grid = GridSpec(63.0, 45.0, 3.0)        # 21 x 15 pixels
    cells = (SmallCell(1, 2 * 21 + 3, (0,), 17.0, power_fixed=True),
             SmallCell(2, 7 * 21 + 10, (0, 1), 17.0, power_fixed=True),
             SmallCell(3, 12 * 21 + 17, (0,), 20.0, power_fixed=True),
             SmallCell(4, 3 * 21 + 16, (1,), 14.0, power_fixed=True))
    base = NetworkState(cells)
    trial = NetworkState((*cells[:1], replace(cells[1], power_dbm=17.0 + step), *cells[2:],
                          SmallCell(5, 8 * 21 + 6, (0,), 24.0)))
    restarts, deltas = [], []
    running_max, delta = radio._running_max, radio._trial_link
    monkeypatch.setattr(radio, "_running_max", lambda c: restarts.append(1) or running_max(c))
    monkeypatch.setattr(radio, "_trial_link", lambda *a: deltas.append(1) or delta(*a))
    cache = LinkCache(grid, params)
    assert cache.sinr_table(base).tobytes() == matrix_link_state(base, grid, params)[2].tobytes()
    assert (cache._built[1].serving.pixel_col == 1).any()
    restarts.clear()
    got = link_state(trial, cache)
    assert deltas == [1]
    assert len(restarts) == (step < 0)
    assert _digest(*got) == _matrix_digest(trial, grid, params)


def test_with_powers_keeps_a_cell_exactly_where_its_power_keeps_its_repr():
    # a cell is kept when its power is a float of the solved value with the
    # same sign of zero, the cells where the ``repr`` of the two agree
    powers = (24, 24.0, -0.0, 0.0, 0.0, -0.0, np.float64(17.5), 17.5, 12.25, 12.25)
    solved = (24.0, 24.0, 0.0, -0.0, 0.0, -0.0, 17.5, 17.5, 12.5, 12.25)
    cells = tuple(SmallCell(i, i, (0,), p) for i, p in enumerate(powers, start=1))
    state = NetworkState(cells)
    got = radio._with_powers(state, np.array(solved))
    kept = [repr(p) == repr(q) for p, q in zip(powers, solved)]
    assert kept == [False, True, False, False, True, True, False, True, False, True]
    assert [a is b for a, b in zip(got.cells, cells)] == kept
    assert [repr(c.power_dbm) for c in got.cells] == [repr(p) for p in solved]
    same = NetworkState(tuple(c for c, k in zip(cells, kept) if k))
    assert radio._with_powers(same, np.array([c.power_dbm for c in same.cells])) is same
