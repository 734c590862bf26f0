import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import assert_same_evaluation, oracle_best_channel, random_state
from scplan import planner
from scplan.evaluation import EvaluationContext, evaluate_state, make_policy
from scplan.experiment import build_context
from scplan.planner import (AddCell, AddChannel, PlannerParams,
                            Relocate, RemoveCell, RemoveChannel,
                            compress_actions, plan, replay_actions,
                            select_channel, select_site)
from scplan.presets import bundled_scenario_path
from scplan.radio import PropagationParams, configure_powers
from scplan.scenario_io import load_scenario
from scplan.scenario import (CandidateSiteSet, GridSpec, NetworkState,
                             SmallCell, pixel_positions,
                             select_candidate_sites)


def test_densification_bar_printed_and_kmax():
    printed = PlannerParams()
    assert printed.densification_bar_mhz(20.0, 4) == pytest.approx(16.0)
    assert printed.densification_bar_mhz(20.0, 5) == pytest.approx(20.0)
    flat = PlannerParams(step4_mode="kmax")
    assert flat.densification_bar_mhz(20.0, 4) == pytest.approx(40.0)
    assert flat.densification_bar_mhz(20.0, 9) == pytest.approx(40.0)


def test_planner_params_validation():
    with pytest.raises(ValueError):
        PlannerParams(beta=1.5)
    with pytest.raises(ValueError):
        PlannerParams(k_max=0)
    with pytest.raises(ValueError):
        PlannerParams(step4_mode="bogus")


def test_select_channel_prefers_unused(params):
    grid = GridSpec(60.0, 60.0, 3.0)
    state = NetworkState((SmallCell(1, 0, (0,)), SmallCell(2, 30, (1,))))
    # channels 2 and 3 unused anywhere: lowest index wins the tie at infinity
    assert select_channel(1, state, grid, params) == 2


def test_select_channel_max_min_distance(params):
    grid = GridSpec(150.0, 3.0, 3.0)   # one row, 50 pixels
    state = NetworkState((
        SmallCell(1, 0, (0,)),
        SmallCell(2, 5, (1,)),          # 15 m away holds channel 1
        SmallCell(3, 40, (2,)),         # 120 m away holds channel 2
        SmallCell(4, 20, (3,)),         # 60 m away holds channel 3
    ))
    # cell 1 must pick the channel whose nearest holder is farthest: channel 2
    assert select_channel(1, state, grid, params) == 2


def test_select_channel_saturated(params):
    grid = GridSpec(30.0, 30.0, 3.0)
    state = NetworkState((SmallCell(1, 0, (0, 1, 2, 3)),))
    with pytest.raises(ValueError, match="channel-saturated"):
        select_channel(1, state, grid, params)


def test_select_channel_matches_bruteforce(params):
    rng = np.random.default_rng(67)
    grid = GridSpec(90.0, 90.0, 3.0)
    hits = 0
    for _ in range(100):
        n = int(rng.integers(5, 11))
        state = random_state(rng, grid, num_cells=n, k_max=2)
        target = int(rng.integers(1, n + 1))
        if len(state.cell(target).channels) >= params.num_channels:
            continue
        got = select_channel(target, state, grid, params)
        assert got == oracle_best_channel(target, state, grid, params.num_channels)
        hits += 1
    assert hits >= 90


def _simple_ctx(grid, radio, demand, a_busy=0.0, mode="uniform-px"):
    policies = {}
    known = {}
    if demand is not None:
        known["base"] = demand
        policies["base"] = make_policy("oracle", "base", float(demand.sum()),
                                       grid, own_map_px=demand)
    if a_busy > 0:
        policies["new"] = make_policy(mode, "new", a_busy, grid,
                                      basis_px=demand, own_map_px=demand)
    return EvaluationContext(grid=grid, radio=radio, policies=policies,
                             known_demand=known)


def test_select_site_single_candidate(params):
    grid = GridSpec(60.0, 60.0, 3.0)
    rng = np.random.default_rng(3)
    demand = rng.uniform(0, 0.1, grid.num_pixels)
    state = NetworkState((SmallCell(1, 0, (0,)),))
    ctx = _simple_ctx(grid, params, demand)
    candidates = CandidateSiteSet((0, 57))     # only pixel 57 is free
    site, ev = select_site(state, candidates, ctx, new_cell_id=2)
    assert site == 57
    assert set(ev.required_mhz) == {1, 2}


def test_select_site_site_saturated(params):
    grid = GridSpec(30.0, 30.0, 3.0)
    state = NetworkState((SmallCell(1, 4, (0,)),))
    ctx = _simple_ctx(grid, params, np.ones(grid.num_pixels))
    with pytest.raises(ValueError, match="site-saturated"):
        select_site(state, CandidateSiteSet((4,)), ctx, new_cell_id=2)


def test_select_site_prefers_hotspot(params):
    # single strong hotspot far from the deployed cell: the candidate inside
    # the hotspot must win the exhaustive search
    grid = GridSpec(120.0, 120.0, 3.0)
    pos = pixel_positions(grid)
    hot_center = np.array([90.0, 90.0])
    d2 = ((pos - hot_center) ** 2).sum(axis=1)
    demand = 2.0 * np.exp(-d2 / (2 * 12.0 ** 2))
    state = NetworkState((SmallCell(1, 0, (0,)),))
    hot_pixel = int(np.argmin(d2))
    far_pixels = np.argsort(d2)[::-1][:3]
    candidates = CandidateSiteSet((hot_pixel, *[int(p) for p in far_pixels]))
    ctx = _simple_ctx(grid, params, demand)
    site, _ = select_site(state, candidates, ctx, new_cell_id=2)
    assert site == hot_pixel


def test_select_site_deterministic(params):
    rng = np.random.default_rng(5)
    grid = GridSpec(60.0, 60.0, 3.0)
    demand = rng.uniform(0, 0.2, grid.num_pixels)
    state = NetworkState((SmallCell(1, 10, (0,)),))
    candidates = select_candidate_sites(grid, 0.05, seed=9)
    ctx = _simple_ctx(grid, params, demand)
    first = select_site(state, candidates, ctx, new_cell_id=2)
    second = select_site(state, candidates, ctx, new_cell_id=2)
    assert first[0] == second[0]
    assert_same_evaluation(first[1], second[1])


def test_select_site_ties_go_to_the_lowest_pixel(params):
    # one centre cell under uniform demand: the mirror-image sites 56 and 64
    # give the same total, so the lower pixel wins whatever the list order
    grid = GridSpec(33.0, 33.0, 3.0)                # 11 x 11, centre pixel 60
    state = NetworkState((SmallCell(1, 60, (0,)),))
    ctx = _simple_ctx(grid, params, np.full(grid.num_pixels, 0.1))
    totals = {}
    for order in ((64, 56), (56, 64)):
        site, ev = select_site(state, CandidateSiteSet(order), ctx, new_cell_id=2)
        assert site == 56
        totals[order] = ev.total_required()
    assert len(set(totals.values())) == 1


def test_select_site_raising_part_way_leaves_the_cache_exact(params, monkeypatch):
    grid = GridSpec(30.0, 30.0, 3.0)
    state = NetworkState((SmallCell(1, 4, (0,)), SmallCell(2, 66, (1,))))
    ctx = _simple_ctx(grid, params, np.ones(grid.num_pixels))
    evaluate, trials = planner.evaluate_state, []

    def fail_second(trial, c):
        trials.append(trial)
        if len(trials) == 2:
            raise RuntimeError("trial failed")
        return evaluate(trial, c)

    monkeypatch.setattr(planner, "evaluate_state", fail_second)
    with pytest.raises(RuntimeError, match="trial failed"):
        select_site(state, CandidateSiteSet((40, 77, 13)), ctx, new_cell_id=3)
    monkeypatch.undo()
    assert len(trials) == 2
    # the base, the trials done, failed and not reached (channel 2 is free),
    # then layouts no search made: one more cell on a taken channel, a cell
    # fewer, and the base again
    other = state.add_cell(SmallCell(3, 13, (0,)))
    layouts = [state, *trials, state.add_cell(SmallCell(3, 13, (2,), params.power_max_dbm)),
               other, other.remove_cell(1), state]
    for layout in layouts:
        fresh = replace(ctx, link_cache=None)
        assert_same_evaluation(evaluate_state(layout, ctx), evaluate_state(layout, fresh))


def _planning_setup(demand_scale=1.0, mode="corr-px", grid_m=42.0,
                    n_candidates=0.2, seed=13):
    grid = GridSpec(grid_m, grid_m, 3.0)
    radio = PropagationParams()
    rng = np.random.default_rng(seed)
    pos = pixel_positions(grid)
    center = np.array([grid_m * 0.7, grid_m * 0.7])
    d2 = ((pos - center) ** 2).sum(axis=1)
    demand = demand_scale * (0.02 + 1.5 * np.exp(-d2 / (2 * (grid_m / 6) ** 2)))
    candidates = select_candidate_sites(grid, n_candidates, seed=seed)
    site = candidates.site_pixels[0]
    state = configure_powers(
        NetworkState((SmallCell(1, site, (0,)),)), grid, radio)
    policies = {"base": make_policy("oracle", "base", float(demand.sum()),
                                    grid, own_map_px=demand)}
    new_a = float(demand.sum()) * 1.5
    policies["new"] = make_policy(mode, "new", new_a, grid, basis_px=demand,
                                  own_map_px=demand)
    ctx = EvaluationContext(grid=grid, radio=radio, policies=policies,
                            known_demand={"base": demand})
    return state, candidates, ctx


def test_plan_fixed_point_when_capacity_adequate(params):
    grid = GridSpec(42.0, 42.0, 3.0)
    demand = np.full(grid.num_pixels, 0.001)
    state = configure_powers(
        NetworkState((SmallCell(1, 7, (0,)), SmallCell(2, 100, (1,)))),
        grid, params)
    ctx = _simple_ctx(grid, params, demand)
    # gamma=0 so the near-empty cells are not trimmed either
    plan_params = PlannerParams(gamma=0.0)
    candidates = select_candidate_sites(grid, 0.1, seed=3)
    new_state, ledger = plan(state, candidates, ctx, plan_params)
    assert len(ledger.raw_actions) == 0 and len(ledger.actions) == 0
    assert new_state == state


def test_plan_postconditions_and_budget():
    state, candidates, ctx = _planning_setup()
    plan_params = PlannerParams(k_max=2, n_max_sc=4)
    new_state, ledger = plan(state, candidates, ctx, plan_params)
    assert len(new_state.cells) <= plan_params.n_max_sc
    ev = evaluate_state(new_state, ctx)
    bandwidth = ctx.radio.channel_bandwidth_mhz
    for cell in new_state.cells:
        assert len(cell.channels) <= plan_params.k_max
        ok = (ev.required_mhz[cell.cell_id]
              <= plan_params.alpha * len(cell.channels) * bandwidth + 1e-9)
        assert ok or len(cell.channels) == plan_params.k_max
    # the ledger replays to the same state
    assert replay_actions(state, ledger.raw_actions, ctx.grid, ctx.radio) == new_state


def test_plan_trims_overprovisioned_network(params):
    grid = GridSpec(42.0, 42.0, 3.0)
    demand = np.full(grid.num_pixels, 1e-5)
    cells = tuple(SmallCell(i + 1, p, (0, 1)) for i, p in
                  enumerate((7, 60, 120, 180)))
    state = configure_powers(NetworkState(cells), grid, params)
    ctx = _simple_ctx(grid, params, demand)
    candidates = select_candidate_sites(grid, 0.1, seed=3)
    new_state, ledger = plan(state, candidates, ctx, PlannerParams())
    # near-zero load: channels trimmed to one everywhere, cells removed
    # down to the last one
    assert len(new_state.cells) == 1
    assert all(len(c.channels) == 1 for c in new_state.cells)
    assert any(isinstance(a, RemoveCell) for a in ledger.raw_actions)
    assert any(isinstance(a, RemoveChannel) for a in ledger.raw_actions)
    assert replay_actions(state, ledger.raw_actions, grid, params) == new_state
    assert replay_actions(state, ledger.actions, grid, params) == new_state


def test_plan_site_saturated_note(params):
    grid = GridSpec(42.0, 42.0, 3.0)
    pos_demand = np.full(grid.num_pixels, 0.05)
    state = configure_powers(NetworkState((SmallCell(1, 7, (0,)),)),
                             grid, params)
    ctx = _simple_ctx(grid, params, pos_demand, a_busy=250.0, mode="uniform-px")
    candidates = CandidateSiteSet((7,))     # nowhere to grow
    new_state, ledger = plan(state, candidates, ctx, PlannerParams())
    assert "saturated: no sites" in ledger.notes
    assert len(new_state.cells) == 1


def test_plan_terminates_within_bounds():
    state, candidates, ctx = _planning_setup(demand_scale=3.0, mode="uniform-px")
    plan_params = PlannerParams(k_max=2, n_max_sc=6)
    new_state, ledger = plan(state, candidates, ctx, plan_params)
    adds_ch = sum(isinstance(a, AddChannel) for a in ledger.raw_actions)
    adds_cell = sum(isinstance(a, AddCell) for a in ledger.raw_actions)
    assert adds_cell <= plan_params.n_max_sc - 1
    assert adds_ch <= plan_params.k_max * plan_params.n_max_sc
    assert len(new_state.cells) <= plan_params.n_max_sc


def test_compress_cancels_channel_pair():
    actions = [AddChannel(2, 1, step=2), RemoveChannel(2, 1, step=8)]
    assert compress_actions(actions) == []


def test_compress_relocation():
    actions = [RemoveCell(3, site_pixel=40, step=11),
               AddCell(9, 77, (2,), step=5)]
    out = compress_actions(actions)
    assert len(out) == 1
    move = out[0]
    assert isinstance(move, Relocate)
    assert move.from_cell_id == 3 and move.to_cell_id == 9
    assert move.to_site_pixel == 77 and move.channels == (2,)


def test_compress_voids_created_and_removed_cell():
    actions = [AddCell(5, 10, (0,), step=5), AddChannel(5, 2, step=2),
               RemoveCell(5, site_pixel=10, step=11)]
    assert compress_actions(actions) == []


def test_compress_same_site_swap_replays():
    grid = GridSpec(30.0, 30.0, 3.0)
    radio = PropagationParams()
    initial = NetworkState((SmallCell(1, 4, (0,)), SmallCell(2, 9, (1,))))
    actions = [RemoveCell(1, site_pixel=4), AddCell(3, 4, (2,)),
               RemoveCell(2, site_pixel=9), AddCell(4, 9, (3,))]
    compressed = compress_actions(actions)
    assert all(isinstance(a, Relocate) for a in compressed)
    raw_final = replay_actions(initial, actions, grid, radio)
    squeezed_final = replay_actions(initial, compressed, grid, radio)
    assert raw_final == squeezed_final


def _random_ledger(rng, grid, initial, num_channels=4):
    """Random valid action sequence against a live state copy."""
    state = initial
    actions = []
    next_id = max(initial.cell_ids) + 1
    free_sites = [p for p in range(grid.num_pixels)
                  if p not in initial.site_pixels]
    rng.shuffle(free_sites)
    for _ in range(int(rng.integers(1, 14))):
        choices = []
        for cell in state.cells:
            if len(cell.channels) < num_channels:
                choices.append(("add_ch", cell.cell_id))
            if len(cell.channels) > 1:
                choices.append(("rm_ch", cell.cell_id))
            if len(state.cells) > 1:
                choices.append(("rm_cell", cell.cell_id))
        if free_sites and len(state.cells) < 6:
            choices.append(("add_cell", None))
        if not choices:
            break
        kind, cid = choices[int(rng.integers(len(choices)))]
        if kind == "add_ch":
            cell = state.cell(cid)
            ch = int(rng.choice([c for c in range(num_channels)
                                 if c not in cell.channels]))
            state = state.add_channel(cid, ch)
            actions.append(AddChannel(cid, ch))
        elif kind == "rm_ch":
            cell = state.cell(cid)
            ch = int(rng.choice(cell.channels))
            state = state.remove_channel(cid, ch)
            actions.append(RemoveChannel(cid, ch))
        elif kind == "rm_cell":
            site = state.cell(cid).site_pixel
            state = state.remove_cell(cid)
            actions.append(RemoveCell(cid, site_pixel=site))
            free_sites.append(site)
        else:
            site = free_sites.pop(0)
            ch = int(rng.integers(num_channels))
            state = state.add_cell(SmallCell(next_id, site, (ch,)))
            actions.append(AddCell(next_id, site, (ch,)))
            next_id += 1
    return actions, state


def test_compression_replay_equivalence_random_ledgers(params):
    rng = np.random.default_rng(71)
    grid = GridSpec(36.0, 36.0, 3.0)
    for _ in range(200):
        initial = random_state(rng, grid, num_cells=int(rng.integers(2, 5)))
        actions, expected_layout = _random_ledger(rng, grid, initial)
        raw_final = replay_actions(initial, actions, grid, params)
        compressed = compress_actions(actions)
        squeezed_final = replay_actions(initial, compressed, grid, params)
        assert raw_final == squeezed_final
        assert {c.cell_id for c in raw_final.cells} == \
            {c.cell_id for c in expected_layout.cells}
        assert len(compressed) <= len(actions)


def test_unservable_demand_drives_expansion(params):
    # all demand sits in a far corner where the only cell cannot serve it;
    # the requirement is infinite until the planner deploys a cell there
    grid = GridSpec(300.0, 300.0, 5.0)
    pos = pixel_positions(grid)
    corner = np.array([290.0, 290.0])
    d2 = ((pos - corner) ** 2).sum(axis=1)
    demand = 1.0 * (d2 < 30.0 ** 2)
    assert demand.sum() > 0
    state = configure_powers(NetworkState((SmallCell(1, 0, (0,)),)),
                             grid, params)
    ctx = _simple_ctx(grid, params, demand)
    ev = evaluate_state(state, ctx)
    assert math.isinf(ev.required_mhz[1])
    corner_pixel = int(np.argmin(d2))
    candidates = CandidateSiteSet((0, corner_pixel))
    new_state, ledger = plan(state, candidates, ctx, PlannerParams())
    assert corner_pixel in new_state.site_pixels
    ev2 = evaluate_state(new_state, ctx)
    assert all(not math.isinf(v) for v in ev2.required_mhz.values())


def test_evaluate_state_hand_computable_case(params):
    # one cell on a 15 m x 15 m grid: every pixel sits within 9 m, the SNR
    # saturates the SE cap, and the required bandwidth is exact arithmetic
    grid = GridSpec(15.0, 15.0, 3.0)
    state = NetworkState((SmallCell(1, 12, (0,), 24.0, power_fixed=True),))
    demand = np.full(grid.num_pixels, 0.2)          # 5 Mbps total
    policies = {"base": make_policy("oracle", "base", 5.0, grid,
                                    own_map_px=demand),
                "new": make_policy("uniform-px", "new", 9.0, grid)}
    ctx = EvaluationContext(grid=grid, radio=params, policies=policies,
                            known_demand={"base": demand})
    ev = evaluate_state(state, ctx)
    assert ev.avg_se[1] == pytest.approx(4.4)
    assert ev.cell_demand["base"][1] == pytest.approx(5.0)
    assert ev.cell_specs["new"][1] == pytest.approx(9.0)
    # estimate counts as demand at full weight: (5 + 9) / 4.4
    assert ev.required_mhz[1] == pytest.approx(14.0 / 4.4)
    # scaling the estimate by a temporal weight scales only its demand term
    ctx.scale = {"new": 0.5}
    ev2 = evaluate_state(state, ctx)
    assert ev2.required_mhz[1] == pytest.approx((5.0 + 4.5) / 4.4)


def test_shared_link_cache_matches_fresh_cache(monkeypatch):
    scn = load_scenario(bundled_scenario_path("urban200m"))
    ctx = build_context(scn, "corr-px").busy_hour()
    seen = []

    def check(state, tables=True):
        shared = evaluate_state(state, ctx)
        fresh = replace(ctx, link_cache=None)
        assert_same_evaluation(shared, evaluate_state(state, fresh))
        if tables:      # outside a search, whose trials build no SINR table
            got, want = (c.link_cache.sinr_table(shared.state) for c in (ctx, fresh))
            assert got.tobytes() == want.tobytes()
        seen.append(state)
        return shared

    start = scn.initial_state
    free = [p for p in scn.candidate_sites.site_pixels if p not in start.site_pixels]
    powered = check(start).state
    check(start)                                    # the same layout twice
    check(powered)                                  # and its powered state
    grown = start.add_cell(SmallCell(9, free[0], (3,)))
    check(grown)                                    # a cell added
    check(grown.add_channel(9, 1))                  # a channel added
    check(grown.add_channel(9, 1).remove_channel(9, 3))   # and one removed
    check(grown.remove_cell(2))                     # a cell removed
    check(grown.remove_cell(3).add_cell(SmallCell(10, free[1], (1,))))  # relocated

    # every trial layout of a site search, in the order the planner makes them
    before = len(seen)
    evaluate = planner.evaluate_state
    monkeypatch.setattr(planner, "evaluate_state", lambda state, c:
                        check(state, tables=False) if c is ctx else evaluate(state, c))
    site, chosen = select_site(powered, scn.candidate_sites, ctx, 9)
    assert len(seen) - before == len(free)
    monkeypatch.undo()
    again = select_site(powered, scn.candidate_sites, replace(ctx, link_cache=None), 9)
    assert again[0] == site
    assert_same_evaluation(again[1], chosen)
