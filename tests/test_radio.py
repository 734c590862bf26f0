import math
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (matrix_link_state, oracle_noise_dbm, oracle_path_loss,
                      oracle_serving, oracle_sinr_db, random_state)
from scplan.evaluation import (METHODS, EvaluationContext, NetworkEvaluation,
                               evaluate_state, make_policy)
from scplan.radio import (LinkCache, PropagationParams, _running_max, average_se,
                          cell_capacity, configure_powers, link_state, noise_floor_dbm,
                          path_loss, rx_power_matrix, serving_assignment, serving_mean,
                          sinr, spectral_efficiency)
from scplan.scenario import (GridSpec, NetworkState, ServingMap, SmallCell,
                             pixel_positions)
from scplan.sla import PlanningSpecSet, pixel_specs_to_cell, translate_sc_level


def weighted_sums(serving, pixel_se, weights):
    """``average_se``'s per-cell sums for ``weights`` in the map's pixel
    order, as ``evaluate_state`` forms them: the weights and the weighted SE
    as two rows of one stacked reduce; none without weights."""
    if weights is None:
        return None, None
    return serving.slice_sums(np.stack([weights, serving.ordered(pixel_se) * weights]))


def test_path_loss_nlos_values(params):
    assert path_loss(20.0, params) == pytest.approx(81.81, abs=0.005)
    assert path_loss(20.0, params) == pytest.approx(oracle_path_loss(20.0))
    assert path_loss(1.0, params) == pytest.approx(25.48, abs=0.005)
    # distances below 1 m clamp to 1 m
    assert path_loss(0.0, params) == path_loss(1.0, params)


def test_path_loss_los_variant():
    los = PropagationParams(pathloss_variant="los")
    assert path_loss(20.0, los) == pytest.approx(oracle_path_loss(20.0, los=True))
    assert path_loss(20.0, los) < path_loss(20.0, PropagationParams())


def test_path_loss_monotone(params):
    rng = np.random.default_rng(5)
    d = np.sort(rng.uniform(1.0, 500.0, size=50))
    pl = path_loss(d, params)
    assert np.all(np.diff(pl) > 0)


def test_received_power_link_budget(params):
    grid = GridSpec(100.0, 10.0, 1.0)
    pos = pixel_positions(grid)
    site = 0
    # pick the pixel 20 m to the right of the site
    target = site + 20
    assert pos[target, 0] - pos[site, 0] == pytest.approx(20.0)
    state = NetworkState((SmallCell(1, site, (0,), 24.0),))
    rx = rx_power_matrix(state, LinkCache(grid, params))[0]     # one cell: the max is its column
    assert rx[target] == pytest.approx(24 + 2 - oracle_path_loss(20.0))
    assert rx[target] == pytest.approx(-55.81, abs=0.005)
    # at the cell's own pixel the distance clamp applies
    assert rx[site] == pytest.approx(0.52, abs=0.005)


def test_serving_single_cell(params):
    grid = GridSpec(30.0, 30.0, 3.0)
    state = NetworkState((SmallCell(1, 42, (0,), 20.0),))
    serving = serving_assignment(state, grid, params)
    assert set(serving.pixel_cell.tolist()) == {1}


def test_serving_tie_breaks_low_id(params):
    grid = GridSpec(33.0, 3.0, 3.0)   # single row of 11 pixels
    state = NetworkState((SmallCell(4, 2, (0,), 20.0),
                          SmallCell(9, 8, (0,), 20.0)))
    serving = serving_assignment(state, grid, params)
    assert serving.pixel_cell[5] == 4   # equidistant midpoint goes to lower id


def test_serving_empty_network(params):
    grid = GridSpec(30.0, 30.0, 3.0)
    with pytest.raises(ValueError, match="empty network"):
        serving_assignment(NetworkState(()), grid, params)


def test_serving_matches_bruteforce(params):
    rng = np.random.default_rng(17)
    for _ in range(5):
        grid = GridSpec(24.0, 21.0, 3.0)
        state = random_state(rng, grid, num_cells=3)
        serving = serving_assignment(state, grid, params)
        assert serving.pixel_cell.tolist() == oracle_serving(state, grid, params)


def test_configure_powers_single_cell(params):
    grid = GridSpec(60.0, 60.0, 3.0)
    state = NetworkState((SmallCell(1, 10, (0,), 15.0),))
    out = configure_powers(state, grid, params)
    assert out.cell(1).power_dbm == params.power_max_dbm


def test_configure_powers_clamps_with_shared_channel(params):
    # co-channel neighbor close to the cell edge: the solve demands far more
    # than 24 dBm and clamps
    grid = GridSpec(120.0, 3.0, 3.0)
    state = NetworkState((SmallCell(1, 10, (0,), 15.0),
                          SmallCell(2, 20, (0,), 15.0)))   # 30 m apart
    out = configure_powers(state, grid, params)
    assert out.cell(1).power_dbm == params.power_max_dbm
    assert out.cell(2).power_dbm == params.power_max_dbm


def test_configure_powers_hits_edge_target_when_in_range(params):
    # different channels, 60 m spacing: noise-limited solve lies inside
    # [10, 24] dBm, so the edge SINR must land on the target
    grid = GridSpec(201.0, 3.0, 3.0)
    a, b = 20, 40
    state = NetworkState((SmallCell(1, a, (0,), 15.0),
                          SmallCell(2, b, (1,), 15.0)))
    out = configure_powers(state, grid, params)
    pos = pixel_positions(grid)
    isd = abs(pos[b, 0] - pos[a, 0])
    assert isd == pytest.approx(60.0)
    for cell, other in ((out.cell(1), out.cell(2)), (out.cell(2), out.cell(1))):
        assert params.power_min_dbm < cell.power_dbm < params.power_max_dbm
        r = params.edge_fraction * isd
        signal = cell.power_dbm + params.antenna_gain_db - oracle_path_loss(r)
        # no co-channel interference: SINR is signal over noise
        achieved = signal - oracle_noise_dbm()
        assert achieved == pytest.approx(params.edge_sinr_target_db, abs=0.1)


def test_configure_powers_rebuilds_only_the_cells_whose_power_moved(params):
    grid = GridSpec(90.0, 90.0, 3.0)
    powered = configure_powers(random_state(np.random.default_rng(8), grid, num_cells=5),
                               grid, params)
    assert configure_powers(powered, grid, params) is powered
    second = powered.cells[1]
    off = replace(powered, cells=(powered.cells[0], replace(second, power_dbm=11.0),
                                  *powered.cells[2:]))
    again = configure_powers(off, grid, params)
    assert again == powered
    assert [a is b for a, b in zip(again.cells, off.cells)] == [True, False, True, True, True]
    # an equal power of another repr is replaced: the float is what is kept
    single = configure_powers(NetworkState((SmallCell(1, 10, (0,), 24),)), grid, params)
    assert repr(single.cell(1).power_dbm) == "24.0"


def test_configure_powers_respects_fixed_and_bounds(params):
    rng = np.random.default_rng(23)
    grid = GridSpec(90.0, 90.0, 3.0)
    for _ in range(10):
        state = random_state(rng, grid, num_cells=4)
        state = replace(state, cells=(replace(state.cells[0], power_fixed=True,
                                              power_dbm=17.5),) + state.cells[1:])
        out = configure_powers(state, grid, params)
        assert out.cells[0].power_dbm == 17.5
        for cell in out.cells[1:]:
            assert params.power_min_dbm <= cell.power_dbm <= params.power_max_dbm


def test_sinr_no_interferer(params):
    grid = GridSpec(100.0, 10.0, 1.0)
    state = NetworkState((SmallCell(1, 0, (0,), 24.0),))
    value = sinr(20, 0, state, grid, params)
    rx = 24 + 2 - oracle_path_loss(20.0)
    assert value == pytest.approx(rx - oracle_noise_dbm())
    assert value == pytest.approx(36.18, abs=0.01)


def test_sinr_requires_allocated_channel(params):
    grid = GridSpec(30.0, 30.0, 3.0)
    state = NetworkState((SmallCell(1, 0, (0,), 24.0),))
    with pytest.raises(ValueError, match="not allocated"):
        sinr(5, 1, state, grid, params)


def test_sinr_matches_bruteforce_oracle(params):
    rng = np.random.default_rng(29)
    for _ in range(4):
        grid = GridSpec(30.0, 30.0, 3.0)   # 10x10
        state = random_state(rng, grid, num_cells=3)
        serving = serving_assignment(state, grid, params)
        for pixel in rng.choice(grid.num_pixels, size=12, replace=False):
            cell = state.cell(int(serving.pixel_cell[pixel]))
            for ch in cell.channels:
                got = sinr(int(pixel), ch, state, grid, params)
                want = oracle_sinr_db(int(pixel), ch, state, grid, params)
                assert got == pytest.approx(want, abs=1e-9)


def test_removing_interferer_never_lowers_sinr(params):
    rng = np.random.default_rng(31)
    grid = GridSpec(36.0, 36.0, 3.0)
    state = random_state(rng, grid, num_cells=4)
    reduced = state.remove_cell(state.cell_ids[-1])
    serving = serving_assignment(reduced, grid, params)
    for pixel in range(0, grid.num_pixels, 7):
        cell = reduced.cell(int(serving.pixel_cell[pixel]))
        for ch in cell.channels:
            before = oracle_sinr_db(pixel, ch, state, grid, params) \
                if int(serving_assignment(state, grid, params).pixel_cell[pixel]) == cell.cell_id \
                else None
            if before is None:
                continue
            after = sinr(pixel, ch, reduced, grid, params)
            assert after >= before - 1e-9


def test_spectral_efficiency_points(params):
    assert spectral_efficiency(-20.0, params) == 0.0
    se9 = spectral_efficiency(9.0, params)
    assert se9 == pytest.approx(0.6 * math.log2(1 + 10 ** 0.9))
    assert se9 == pytest.approx(1.897, abs=0.001)
    assert spectral_efficiency(30.0, params) == 4.4
    # below the cutoff exactly at the boundary the shannon form applies
    assert spectral_efficiency(params.sinr_min_db, params) > 0


def test_spectral_efficiency_monotone_bounded(params):
    rng = np.random.default_rng(37)
    values = spectral_efficiency(rng.uniform(-40, 60, size=200), params)
    assert np.all(values >= 0) and np.all(values <= params.se_max_bps_hz)
    a, b = rng.uniform(-40, 60, size=(2, 100))
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    assert np.all(spectral_efficiency(hi, params) >= spectral_efficiency(lo, params))


def test_average_se_weighting():
    from scplan.scenario import ServingMap
    serving = ServingMap((1,), np.array([1, 1]))
    pixel_se = np.array([1.0, 3.0])

    def mean(se, weights):
        return average_se(serving, se, *weighted_sums(serving, se, np.array(weights)))
    assert mean(pixel_se, [1.0, 3.0]) == {1: pytest.approx(2.5)}
    assert mean(pixel_se, [1.0, 1.0]) == {1: pytest.approx(2.0)}
    # zero served demand falls back to a uniform mean
    assert mean(pixel_se, [0.0, 0.0]) == {1: pytest.approx(2.0)}
    constant = np.array([2.0, 2.0])
    assert mean(constant, [5.0, 1.0]) == {1: pytest.approx(2.0)}


def test_average_se_empty_cell():
    from scplan.scenario import ServingMap
    serving = ServingMap((1, 2), np.array([1, 1]))
    assert average_se(serving, np.array([1.0, 2.0]), None)[2] == 0.0


def test_average_se_bounds(params):
    rng = np.random.default_rng(41)
    grid = GridSpec(30.0, 30.0, 3.0)
    state = random_state(rng, grid, num_cells=3)
    weights = rng.uniform(0, 1, grid.num_pixels)
    serving, pixel_se = link_state(state, LinkCache(grid, params))
    sums = weighted_sums(serving, pixel_se, serving.ordered(weights))
    avg_se = average_se(serving, pixel_se, *sums)
    assert tuple(avg_se) == state.cell_ids
    for cid in state.cell_ids:
        mask = serving.pixel_cell == cid
        if mask.any():
            assert pixel_se[mask].min() - 1e-12 <= avg_se[cid] <= pixel_se[mask].max() + 1e-12


def test_cell_capacity_product(params):
    se = spectral_efficiency(9.0, params)
    assert cell_capacity(2, se, params) == pytest.approx(2 * 20 * se)
    assert cell_capacity(2, se, params) == pytest.approx(75.9, abs=0.05)
    assert cell_capacity(3, 0.0, params) == 0.0
    assert cell_capacity(4, 1.5, params) == 2 * cell_capacity(2, 1.5, params)


def test_snapshot_capacity_identity_and_partition(params):
    rng = np.random.default_rng(43)
    grid = GridSpec(45.0, 30.0, 3.0)
    state = random_state(rng, grid, num_cells=4)
    weights = rng.uniform(0, 2, grid.num_pixels)
    serving, pixel_se = link_state(state, LinkCache(grid, params))
    served = 0
    sums = weighted_sums(serving, pixel_se, serving.ordered(weights))
    by_cell = average_se(serving, pixel_se, *sums)
    for cell in state.cells:
        cid = cell.cell_id
        avg_se = by_cell[cid]
        assert cell_capacity(len(cell.channels), avg_se, params) == len(cell.channels) * \
            params.channel_bandwidth_mhz * avg_se
        served += int((serving.pixel_cell == cid).sum())
        assert 0 <= avg_se <= params.se_max_bps_hz
    assert served == grid.num_pixels


def test_cached_path_loss_columns_match_whole_matrix(params):
    # the streamed running max and serving column, and the mW columns kept
    # across layouts, give the same bits as the whole-matrix broadcast over
    # every pixel and cell, its row max and first argmax, and its
    # 10 ** (rx / 10), also when a radio's cache is used again after another's
    rng = np.random.default_rng(11)
    grid = GridSpec(45.0, 30.0, 3.0)
    pos = pixel_positions(grid)
    state = random_state(rng, grid, num_cells=4)
    free = [p for p in range(grid.num_pixels) if p not in state.site_pixels]
    grown = state.add_cell(SmallCell(9, free[7], (1,), 20.0))
    layouts = [state, state, grown, grown.remove_cell(2),
               grown.remove_cell(3).add_cell(SmallCell(10, free[40], (0,), 15.0)), state]
    caches = {}
    for radio in (params, replace(params, pathloss_variant="los"), params):
        for layout in layouts:
            sites = pos[list(layout.site_pixels)]
            d = np.sqrt(((pos[:, None, :] - sites[None, :, :]) ** 2).sum(axis=2))
            powers = np.array([c.power_dbm for c in layout.cells])
            whole = powers[None, :] + radio.antenna_gain_db - path_loss(d, radio)
            for c in (caches.setdefault(radio, LinkCache(grid, radio)), LinkCache(grid, radio)):
                best, col, rx_lin = rx_power_matrix(layout, c)
                assert best.tobytes() == whole.max(axis=1).tobytes()
                assert (col.dtype, col.tobytes()) == (np.dtype(np.intp),
                                                      np.argmax(whole, axis=1).tobytes())
                assert np.stack(rx_lin, axis=1).tobytes() == (10.0 ** (whole / 10.0)).tobytes()


def test_memoized_link_arrays_are_read_only(params):
    grid = GridSpec(30.0, 30.0, 3.0)
    state = random_state(np.random.default_rng(2), grid, num_cells=3)
    ctx = EvaluationContext(grid=grid, radio=params, policies={},
                            known_demand={"a": np.ones(grid.num_pixels)})
    for _ in range(2):          # computed, then taken from the cache
        ev = evaluate_state(state, ctx)
        table = ctx.link_cache.sinr_table(ev.state)
        for arr in (table, ev.pixel_se, ev.serving.pixel_cell):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0


def test_evaluation_context_takes_only_a_cache_of_its_grid_and_radio(params):
    grid = GridSpec(30.0, 30.0, 3.0)
    ctx = EvaluationContext(grid=grid, radio=params, policies={})
    assert (ctx.link_cache.grid, ctx.link_cache.params) == (grid, params)
    shared = EvaluationContext(grid=grid, radio=replace(params), policies={},
                               link_cache=ctx.link_cache)
    assert shared.link_cache is ctx.link_cache
    for cache in (LinkCache(GridSpec(30.0, 33.0, 3.0), params),
                  LinkCache(grid, replace(params, pathloss_variant="los"))):
        with pytest.raises(ValueError, match="another grid or radio"):
            EvaluationContext(grid=grid, radio=params, policies={}, link_cache=cache)
        with pytest.raises(ValueError, match="another grid or radio"):
            replace(ctx, link_cache=cache)


def _layouts_with_a_tie(seed: int, grid: GridSpec) -> list[NetworkState]:
    """Random layouts of 3 to 40 cells on 4 channels, each with two cells at
    equal power mirrored across the grid's middle column, so the pixels of
    that column receive them with equal power; the layout grows and shrinks
    by a cell and one cell's power changes, as in a site search."""
    rng = np.random.default_rng(seed)
    row, col = int(rng.integers(grid.ny)), int(rng.integers(grid.nx // 2))
    mirror = (row * grid.nx + col, row * grid.nx + grid.nx - 1 - col)
    free = [p for p in range(grid.num_pixels) if p not in mirror]
    sites = rng.choice(free, size=int(rng.integers(1, 39)) + 1, replace=False)
    power = float(rng.uniform(10.0, 24.0))
    cells = [SmallCell(1, mirror[0], (0,), power), SmallCell(2, mirror[1], (0, 2), power)]
    cells += [SmallCell(i, int(site), tuple(int(ch) for ch in rng.choice(
                  4, size=int(rng.integers(1, 3)), replace=False)),
                  float(rng.uniform(10.0, 24.0))) for i, site in enumerate(sites[1:], 3)]
    state = NetworkState(tuple(cells))
    last = cells[-1]
    return [state, state.add_cell(SmallCell(99, int(sites[0]), (1, 3), power)),
            state, state.remove_cell(last.cell_id),
            state.remove_cell(last.cell_id).add_cell(replace(last, power_dbm=power))]


def test_link_state_equals_the_matrix_form_bit_for_bit(params):
    grid = GridSpec(63.0, 45.0, 3.0)        # 21 x 15 pixels, a middle column
    shared = LinkCache(grid, params)
    ties = crowded = 0
    for seed in range(12):
        for layout in _layouts_with_a_tie(seed, grid):
            serving, rx, table, pixel_se = matrix_link_state(layout, grid, params)
            top = rx == rx.max(axis=1, keepdims=True)
            ties += int((top.sum(axis=1) > 1).sum())
            crowded += max(sum(ch in c.channels for c in layout.cells) for ch in range(4)) >= 8
            for cache in (shared, LinkCache(grid, params)):
                got = link_state(layout, cache)
                assert got[0].cell_ids == serving.cell_ids
                for x, y in ((got[0].pixel_cell, serving.pixel_cell),
                             (got[0].pixel_col, serving.pixel_col),
                             (cache.sinr_table(layout), table),
                             (got[1], pixel_se)):
                    assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes())
    assert ties > 0 and crowded > 0


def test_only_a_changed_cell_recomputes_its_mw_column(params):
    grid = GridSpec(45.0, 30.0, 3.0)
    state = random_state(np.random.default_rng(6), grid, num_cells=5)
    cache = LinkCache(grid, params)
    *_, before = rx_power_matrix(state, cache)
    third = state.cells[2]
    changed = state.remove_cell(third.cell_id).add_cell(
        replace(third, power_dbm=third.power_dbm + 1.0))
    *_, after = rx_power_matrix(changed, cache)
    assert [a is b for a, b in zip(after, before)] == [True, True, False, True, True]
    free = next(p for p in range(grid.num_pixels) if p not in state.site_pixels)
    *_, grown = rx_power_matrix(changed.add_cell(SmallCell(99, free, (1,), 20.0)), cache)
    assert len(grown) == 6 and all(a is b for a, b in zip(grown, after))
    for column in grown:
        with pytest.raises(ValueError, match="read-only"):
            column[0] = 0
    *_, other = rx_power_matrix(changed, LinkCache(grid, replace(params, antenna_gain_db=3.0)))
    *_, again = rx_power_matrix(changed, cache)
    assert not any(a is b for a, b in zip(other, after))
    assert all(a is b for a, b in zip(again, after))


_LEVELS = (12.0, 17.0, 24.0)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_streamed_max_equals_the_running_max_over_explicit_columns(data):
    # cells 1..n on a grid with a middle column; two of them mirror each
    # other across it at equal power, and every other cell is farther from
    # the middle pixel of their row at no more power, so that pixel ties
    # them and the one that comes first must win
    params, grid = PropagationParams(), GridSpec(63.0, 45.0, 3.0)     # 21 x 15 pixels
    pos = pixel_positions(grid)
    row, off = data.draw(st.integers(0, grid.ny - 1)), data.draw(st.integers(0, 9))
    pair, mid = (row * 21 + off, row * 21 + 20 - off), row * 21 + 10
    reach = np.hypot(*(pos - pos[mid]).T)
    farther = [p for p in range(grid.num_pixels) if reach[p] > reach[pair[0]]]
    others = data.draw(st.lists(st.sampled_from(farther), max_size=6, unique=True))
    power = data.draw(st.sampled_from(_LEVELS))
    sites = data.draw(st.permutations([*pair, *others]))
    cells = tuple(SmallCell(i, site, (0,), power if site in pair else data.draw(
        st.sampled_from([p for p in _LEVELS if p <= power]))) for i, site in enumerate(sites, 1))
    state = NetworkState(cells)
    columns = [(c.power_dbm + params.antenna_gain_db)
               - path_loss(np.sqrt(((pos - pos[c.site_pixel]) ** 2).sum(axis=1)), params)
               for c in state.cells]
    want_best, want_col = _running_max(columns)
    best, col, _ = rx_power_matrix(state, LinkCache(grid, params))
    assert best.tobytes() == want_best.tobytes()
    assert (col.dtype, col.tobytes()) == (want_col.dtype, want_col.tobytes())
    assert columns[sites.index(pair[0])][mid] == columns[sites.index(pair[1])][mid]
    assert col[mid] == min(sites.index(p) for p in pair)


def test_derived_sinr_table_is_the_sinr_formula_where_served_and_nan_elsewhere(params):
    # at a pixel whose serving cell holds the channel, 10 log10(s / ((total
    # - s) + noise)) over the serving mW s and the holders' mW added in cell
    # order, bit for bit; NaN elsewhere, read-only, and radio.sinr refuses a
    # channel the serving cell does not hold
    grid = GridSpec(63.0, 45.0, 3.0)
    noise = 10.0 ** (noise_floor_dbm(params) / 10.0)
    refused = 0
    for seed in range(6):
        for layout in _layouts_with_a_tie(seed, grid):
            table = LinkCache(grid, params).sinr_table(layout)
            _, col, lin = rx_power_matrix(layout, LinkCache(grid, params))
            s = np.stack(lin, axis=1)[np.arange(grid.num_pixels), col]
            for ch in range(params.num_channels):
                holders = [j for j, c in enumerate(layout.cells) if ch in c.channels]
                at = np.isin(col, holders).nonzero()[0]
                assert np.isnan(np.delete(table[:, ch], at)).all()
                if not holders:
                    continue
                total = lin[holders[0]].copy()
                for j in holders[1:]:
                    total += lin[j]
                want = 10.0 * np.log10(s[at] / ((total[at] - s[at]) + noise))
                assert table[at, ch].tobytes() == want.tobytes()
            with pytest.raises(ValueError, match="read-only"):
                table[0, 0] = 0.0
            pixel = int(np.isnan(table).any(axis=1).argmax())
            ch = int(np.isnan(table[pixel]).argmax())
            if np.isnan(table[pixel, ch]):
                refused += 1
                with pytest.raises(ValueError, match="not allocated"):
                    sinr(pixel, ch, layout, grid, params)
            held = int((~np.isnan(table[pixel])).argmax())
            assert sinr(pixel, held, layout, grid, params) == table[pixel, held]
    assert refused > 0


def test_a_cold_link_peaks_at_what_it_keeps_plus_three_pixel_columns(params):
    # the full build forms each cell's dBm column in one buffer, folds it
    # into the running max at once and keeps no SINR table, so a cold link of
    # 16 cells on the 134 x 134 grid of the 400 m workloads, powers solved,
    # peaks at most three pixel columns above what it keeps; holding every
    # dBm column at once would take 16
    grid = GridSpec(402.0, 402.0, 3.0)
    state = random_state(np.random.default_rng(16), grid, num_cells=16)
    cache = LinkCache(grid, params)
    started = not tracemalloc.is_tracing()      # else leave the suite's tracing on
    if started:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        cache.link(state)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        if started:
            tracemalloc.stop()
    assert kept - before > 32 * 8 * grid.num_pixels      # path-loss and mW columns
    assert peak - kept <= 3 * 8 * grid.num_pixels


def _random_serving(seed: int):
    """A serving map over non-contiguous cell ids, one of which serves no
    pixel, with the network state it belongs to."""
    rng = np.random.default_rng(seed)
    num_pixels = int(rng.integers(1, 400))
    ids = tuple(sorted(int(c) for c in rng.choice(100, size=5, replace=False)))
    idle = ids[int(rng.integers(len(ids)))]
    serving = ServingMap(ids, rng.choice([c for c in ids if c != idle], num_pixels))
    cells = tuple(SmallCell(cid, site, tuple(int(ch) for ch in rng.choice(
                  4, size=int(rng.integers(1, 4)), replace=False)))
                  for site, cid in enumerate(ids))
    return rng, serving, NetworkState(cells), idle


@pytest.mark.parametrize("seed", range(8))
def test_cell_pixels_partition_the_grid_in_ascending_groups(seed):
    _, serving, _, idle = _random_serving(seed)
    groups = serving.cell_pixels
    assert tuple(groups) == serving.cell_ids
    assert groups[idle].size == 0
    joined = np.concatenate(list(groups.values()))
    assert np.array_equal(np.sort(joined), np.arange(serving.pixel_cell.size))
    for cid, pixels in groups.items():
        assert np.all(np.diff(pixels) > 0)
        assert np.array_equal(pixels, np.flatnonzero(serving.pixel_cell == cid))
        with pytest.raises(ValueError, match="read-only"):
            pixels[:1] = 0
    assert serving.cell_pixels is groups
    assert np.array_equal(np.array(serving.cell_ids)[serving.pixel_col], serving.pixel_cell)
    assert serving.pixel_col.dtype == np.uint8


def test_serving_map_rejects_a_pixel_of_an_unknown_cell():
    for ids, pixel_cell in (((3, 1), [1, 3, 2]), ((3, 1), [1, 4]), ((), [0])):
        with pytest.raises(ValueError, match="not in cell_ids"):
            ServingMap(ids, np.array(pixel_cell))
    assert ServingMap((), np.array([], dtype=int)).cell_pixels == {}


def test_maps_and_evaluations_compare_by_identity():
    # equal fields hold arrays, whose ``==`` has no single truth value
    serving = ServingMap((3, 1), np.array([1, 3, 3]))
    copy = ServingMap(serving.cell_ids, serving.pixel_cell.copy())
    ev = NetworkEvaluation(None, serving, np.ones(3), {}, {}, {}, {})
    for one, rebuilt in ((serving, copy),
                         (ev, NetworkEvaluation(None, copy, np.ones(3), {}, {}, {}, {}))):
        assert one == one
        assert one != rebuilt
        assert len({one, one, rebuilt}) == 2


@pytest.mark.parametrize("seed", range(8))
def test_per_cell_aggregations_equal_the_mask_form_bit_for_bit(seed):
    rng, serving, state, idle = _random_serving(seed)
    num_pixels = serving.pixel_cell.size
    raster = rng.exponential(1.0, num_pixels)
    pixel_se = rng.uniform(0.0, 4.4, num_pixels)
    table = rng.uniform(-10.0, 40.0, (num_pixels, 4))
    masks = {cid: serving.pixel_cell == cid for cid in serving.cell_ids}

    def in_map_order(a):
        return None if a is None else np.concatenate([a[m] for m in masks.values()])

    expected = {cid: float(raster[m].sum()) for cid, m in masks.items()}
    assert serving.cell_sums(raster) == expected
    specs = PlanningSpecSet("t", "pixel", "correlated", pixel_values=raster)
    assert pixel_specs_to_cell(specs, serving) == expected

    assert (serving.ordered(raster) * 0.7).tobytes() == in_map_order(raster * 0.7).tobytes()

    def mask_average_se(mask, weights):
        if not mask.any():
            return 0.0
        if weights is not None and float(weights[mask].sum()) > 0:
            return float((pixel_se[mask] * weights[mask]).sum() / float(weights[mask].sum()))
        return float(pixel_se[mask].mean())

    unweighted = raster.copy()       # one serving cell with no demand
    unweighted[masks[next(c for c in serving.cell_ids if c != idle)]] = 0.0
    for weights in (raster, unweighted, np.zeros(num_pixels), None):
        sums = weighted_sums(serving, pixel_se, in_map_order(weights))
        assert average_se(serving, pixel_se, *sums) == \
            {cid: mask_average_se(mask, weights) for cid, mask in masks.items()}
    sums = weighted_sums(serving, pixel_se, in_map_order(raster))
    assert average_se(serving, pixel_se, *sums)[idle] == 0.0
    with pytest.raises(KeyError):
        average_se(serving, pixel_se, *sums)[max(serving.cell_ids) + 1]

    # through ``evaluate_state`` on this map: a uniform-sc and a corr-sc
    # estimate, each split times its scale, spread evenly over each served
    # cell's pixels and added after the live traffic, weight the SE as in
    # the mask form
    grid, radio = GridSpec(float(num_pixels), 1.0, 1.0), PropagationParams()
    cache = LinkCache(grid, radio)
    cache._layout = (state, state, serving, pixel_se)     # the layout links to this map
    scale = {"live": 0.9, "u": 0.7, "c": 1.3}
    policies = {"u": make_policy("uniform-sc", "u", 3.0, grid),
                "c": make_policy("corr-sc", "c", 5.0, grid)}
    ev = evaluate_state(state, EvaluationContext(grid, radio, policies, {"live": raster},
                                                 scale, link_cache=cache))
    weights = raster * scale["live"]
    basis = {cid: float(weights[mask].sum()) for cid, mask in masks.items()}
    for m, split, cell_demands in (("u", "uniform", None), ("c", "correlated", basis)):
        spec = translate_sc_level(policies[m].a_busy_mbps, state, split, cell_demands)
        assert ev.cell_specs[m] == spec.cell_values
        spread = np.zeros(num_pixels)
        for cid, mask in masks.items():
            if mask.any():
                spread[mask] = spec.cell_values[cid] * scale[m] / int(mask.sum())
        weights = weights + spread
    assert _bits(ev.avg_se) == _bits({cid: mask_average_se(mask, weights)
                                      for cid, mask in masks.items()})
    assert ev.avg_se[idle] == 0.0

    # and with two served cells widened to 8 and 9 channels, where numpy's
    # mean(axis=1) no longer adds left to right
    served = [c.cell_id for c in state.cells if c.cell_id != idle]
    wide = {served[0]: tuple(range(9)), served[1]: tuple(range(1, 9))}
    wide_state = replace(state, cells=tuple(replace(c, channels=wide.get(c.cell_id, c.channels))
                                            for c in state.cells))
    wide_table = rng.uniform(-10.0, 40.0, (num_pixels, 10))
    some = [j for j in range(len(state.cells)) if rng.random() < 0.5]
    kept = rng.uniform(0.0, 1.0, num_pixels)
    chosen = np.isin(serving.pixel_col, some)
    for state, table in ((state, table), (wide_state, wide_table)):
        reference = np.zeros(num_pixels)
        for c in state.cells:
            m = masks[c.cell_id]
            if m.any():
                reference[m] = table[np.ix_(m, np.array(c.channels))].mean(axis=1)
        assert serving_mean(state, serving, table).tobytes() == reference.tobytes()
        # a link build's tables are Fortran-ordered, with the same means
        assert serving_mean(state, serving, np.asfortranarray(table)).tobytes() == \
            reference.tobytes()
        # only the chosen cells' pixels of a given ``out`` are written
        got = serving_mean(state, serving, table, some, kept.copy())
        assert got.tobytes() == np.where(chosen, reference, kept).tobytes()


@pytest.mark.parametrize("method", METHODS)
def test_make_policy_decides_each_methods_split_once(method):
    # the split each method names, and the raster a pixel-level one follows
    grid = GridSpec(6.0, 6.0, 3.0)
    basis, own = np.array([1.0, 2.0, 3.0, 6.0]), np.array([5.0, 0.0, 1.0, 2.0])
    split, follows = {"uniform-sc": ("uniform", None), "corr-sc": ("correlated", None),
                      "uniform-px": ("uniform", np.ones(4)), "corr-px": ("correlated", basis),
                      "oracle": ("correlated", own)}[method]
    policy = make_policy(method, "t", 8.0, grid, basis_px=basis, own_map_px=own)
    assert (policy.tenant_id, policy.a_busy_mbps, policy.split) == ("t", 8.0, split)
    if follows is None:
        assert policy.pixel_specs is None
    else:
        assert (policy.pixel_specs.tenant_id, policy.pixel_specs.method) == ("t", split)
        assert policy.pixel_specs.pixel_values.tobytes() == \
            (8.0 * follows / follows.sum()).tobytes()
    with pytest.raises(ValueError, match="unknown method"):
        make_policy(method.upper(), "t", 8.0, grid)


def _bits(values: dict) -> dict:
    return {key: float(v).hex() for key, v in values.items()}


@pytest.mark.parametrize("seed", range(12))
def test_whole_map_sums_and_means_equal_the_mask_form_bit_for_bit(seed):
    # one gather into the map's pixel order and one sum per cell slice keep
    # the mask form's bits: plain and weighted sums, no weights, all-zero
    # weights and a cell that serves no pixel;
    # maps are large enough for numpy's pairwise blocks.  Weights are passed
    # in the map's pixel order, the cells' mask selections one after another
    rng = np.random.default_rng(100 + seed)
    ids = (2, 5, 9, 14, 30)
    idle = ids[seed % len(ids)]
    num_pixels = int(rng.integers(300, 6000))
    serving = ServingMap(ids, rng.choice([c for c in ids if c != idle], num_pixels))
    masks = {cid: serving.pixel_cell == cid for cid in ids}
    raster = rng.exponential(1.0, num_pixels)
    fixed = raster.copy()
    fixed.flags.writeable = False
    pixel_se = rng.uniform(0.0, 4.4, num_pixels)
    pixel_se.flags.writeable = False
    mask_sums = {cid: float(raster[m].sum()) for cid, m in masks.items()}
    for values in (raster, fixed):
        assert _bits(serving.cell_sums(values)) == _bits(mask_sums)
        in_order = np.concatenate([values[m] for m in masks.values()])
        assert serving.ordered(values).tobytes() == in_order.tobytes()
        into = np.empty(num_pixels)
        assert serving.ordered(values, into) is into and into.tobytes() == in_order.tobytes()
        assert _bits(serving.slice_sums(serving.ordered(values)[None])[0]) == _bits(mask_sums)
    with pytest.raises(ValueError, match="pixels for a map of"):
        serving.ordered(raster[1:])

    def mask_average_se(mask, weights):
        if not mask.any():
            return 0.0
        if weights is not None and float(weights[mask].sum()) > 0:
            return float((pixel_se[mask] * weights[mask]).sum() / float(weights[mask].sum()))
        return float(pixel_se[mask].mean())

    no_demand = raster.copy()       # one serving cell with no demand
    no_demand[masks[next(c for c in ids if c != idle)]] = 0.0
    for weights in (raster, fixed, no_demand, np.zeros(num_pixels), None, None):
        means = average_se(serving, pixel_se, *weighted_sums(
            serving, pixel_se, None if weights is None else serving.ordered(weights)))
        assert _bits(means) == _bits({cid: mask_average_se(m, weights)
                                      for cid, m in masks.items()})
        assert means[idle] == 0.0


@settings(max_examples=80, deadline=None)
@given(num_cells=st.sampled_from((1, 2, 5, 16, 256, 300)), num_rows=st.integers(1, 6),
       num_pixels=st.integers(0, 6000), idle=st.floats(0.0, 0.9),
       seed=st.integers(0, 2 ** 32 - 1))
def test_stacked_slice_sums_equal_each_rows_own_reduce_bit_for_bit(num_cells, num_rows,
                                                                   num_pixels, idle, seed):
    # one reduce of every row of a cell's slice keeps the pairwise bits of
    # that row's own reduce: 1 to 6 rows, cells that serve no pixel, and
    # maps of more than 255 cells, whose columns are 16-bit
    rng = np.random.default_rng(seed)
    ids = tuple(sorted(int(c) for c in rng.choice(4 * num_cells, num_cells, replace=False)))
    served = [c for c in ids if rng.random() >= idle] or [ids[0]]
    serving = ServingMap(ids, rng.choice(served, num_pixels))
    rows = rng.standard_normal((num_rows, num_pixels)) * 10.0 ** rng.uniform(-3, 3, num_pixels)
    sums = serving.slice_sums(rows)
    assert len(sums) == num_rows
    for row, got in zip(rows, sums):
        assert tuple(got) == ids
        assert _bits(got) == _bits({cid: np.add.reduce(row[span])
                                    for cid, span in serving.cell_slices.items()})
    assert serving.pixel_col.dtype == (np.uint8 if num_cells < 256 else np.uint16)


def _kept_layout(params, seed=4):
    grid = GridSpec(30.0, 30.0, 3.0)
    state = random_state(np.random.default_rng(seed), grid, num_cells=3)
    return grid, state, LinkCache(grid, params)


def test_memoised_sums_are_never_aliased(params):
    # the sums a kept layout keeps are copied in and out: no caller can edit
    # what the next evaluation reads; an equal raster of its own, or another
    # layout, has none
    grid, state, cache = _kept_layout(params)
    serving = cache.link(state)[1]
    fixed = np.arange(float(grid.num_pixels))
    assert cache.sums(fixed) is None
    handed = serving.cell_sums(fixed)
    cache.keep_sums(fixed, handed)
    expected = dict(handed)
    handed.clear()
    first = cache.sums(fixed)
    assert first == expected == serving.cell_sums(fixed)
    first[state.cell_ids[0]] = 99.0
    second = cache.sums(fixed)
    assert second == expected and second is not first
    second.clear()
    assert cache.sums(fixed) == expected
    assert cache.sums(fixed.copy()) is None
    assert cache.link(state)[1] is serving and cache.sums(fixed) == expected
    trial = state.add_cell(SmallCell(99, next(p for p in range(grid.num_pixels)
                                              if p not in state.site_pixels), (0,)))
    cache.link(trial)
    assert cache.sums(fixed) is None
    # nor are a map's SE means
    small, values = ServingMap((1, 2), np.array([1, 2, 1, 2, 2])), np.arange(5.0)
    means = average_se(small, values)
    assert means == {1: 1.0, 2: 8.0 / 3}
    means[2] = -1.0
    assert average_se(small, values) == {1: 1.0, 2: 8.0 / 3}


def test_the_kept_layout_holds_its_gathers_until_another_is_linked(params):
    # while a layout is kept, each raster is gathered once into its pixel
    # order, read-only, so no caller can edit what the next one reads; the
    # next layout linked releases them.  A site-search trial keeps none: a
    # gather is made into the given array, or anew
    grid, state, cache = _kept_layout(params)
    serving = cache.link(state)[1]
    raster = np.arange(float(grid.num_pixels))
    gathered = cache.ordered(raster)
    assert gathered.tobytes() == serving.ordered(raster).tobytes()
    assert cache.ordered(raster) is gathered and not gathered.flags.writeable
    assert cache.ordered(raster, np.empty(grid.num_pixels)) is gathered
    with pytest.raises(ValueError, match="read-only"):
        gathered[0] = 99.0
    assert cache.link(state)[1] is serving and cache.ordered(raster) is gathered
    twin = raster.copy()        # an equal raster of its own is gathered on its own
    assert cache.ordered(twin) is not gathered
    assert cache.ordered(twin).tobytes() == gathered.tobytes()
    released = weakref.ref(gathered)
    del gathered
    assert released() is not None
    free = [p for p in range(grid.num_pixels) if p not in state.site_pixels]
    trials = [state.add_cell(SmallCell(99, p, (0,), params.power_max_dbm)) for p in free[:2]]
    cache.prepare_search(state, trials)
    other = cache.link(trials[0])[1]
    assert released() is None
    into = np.empty(grid.num_pixels)
    assert cache.ordered(raster, into) is into
    assert into.tobytes() == other.ordered(raster).tobytes()
    assert cache.ordered(raster) is not cache.ordered(raster)
    cache.keep_sums(raster, other.cell_sums(raster))
    assert cache.sums(raster) is None
    # linked again, as a search's winner is, the trial keeps from then on
    assert cache.link(trials[0])[1] is other
    assert cache.ordered(raster) is cache.ordered(raster)


def test_a_writeable_raster_edited_in_place_is_summed_again():
    serving = ServingMap((1, 2), np.array([1, 2, 1, 2, 2]))
    values = np.arange(5.0)
    assert serving.cell_sums(values) == {1: 2.0, 2: 8.0}
    assert serving.ordered(values).tolist() == [0.0, 2.0, 1.0, 3.0, 4.0]
    values[0] = 10.0
    assert serving.cell_sums(values) == {1: 12.0, 2: 8.0}
    assert serving.ordered(values).tolist() == [10.0, 2.0, 1.0, 3.0, 4.0]
    ones = np.ones(5)
    sums = weighted_sums(serving, ones, serving.ordered(values))
    assert average_se(serving, ones, *sums) == {1: 1.0, 2: 1.0}
    values[:] = 0.0         # weights edited to zero: the uniform fallback
    se = np.arange(5.0)
    assert average_se(serving, se, *weighted_sums(serving, se, serving.ordered(values))) == \
        {1: 1.0, 2: 8.0 / 3}
    # a read-only view of a writeable raster can still change: not memoised
    values[:] = np.arange(5.0)
    view = values[:]
    view.flags.writeable = False
    assert serving.cell_sums(view) == {1: 2.0, 2: 8.0}
    assert serving.ordered(view).tolist() == [0.0, 2.0, 1.0, 3.0, 4.0]
    values[2] = 5.0
    assert serving.cell_sums(view) == {1: 5.0, 2: 8.0}
    assert serving.ordered(view).tolist() == [0.0, 5.0, 1.0, 3.0, 4.0]


def test_memoized_layout_keeps_one_set_of_cell_pixels(params):
    grid = GridSpec(30.0, 30.0, 3.0)
    state = random_state(np.random.default_rng(4), grid, num_cells=3)
    ctx = EvaluationContext(grid=grid, radio=params, policies={},
                            known_demand={"a": np.ones(grid.num_pixels)})
    first = evaluate_state(state, ctx).serving
    second = evaluate_state(state, ctx).serving
    assert second is first
    assert second.cell_pixels is first.cell_pixels
    derived = ServingMap(first.cell_ids, first.pixel_cell)     # columns found from the ids
    assert np.array_equal(derived.pixel_col, first.pixel_col)
    for cid, pixels in first.cell_pixels.items():
        assert np.array_equal(derived.cell_pixels[cid], pixels)
