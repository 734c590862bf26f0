"""Powers solved for many layouts in one batch.

``radio.solve_powers`` runs the fixed point of ``configure_powers`` for a
batch of layouts of one cell count; a site search solves all its trials in
one call.  Every power must have the ``repr`` that the one-layout loop kept
verbatim in ``tests/conftest.py`` gives, whether a layout is solved alone or
in a batch, converges early or late, or stops at ``POWER_MAX_ITER``.
"""
from collections import defaultdict
from dataclasses import replace

import numpy as np
import pytest

from conftest import oracle_configure_powers
from scplan import radio
from scplan.radio import PropagationParams, configure_powers, solve_powers
from scplan.scenario import GridSpec, NetworkState, SmallCell

GRID = GridSpec(400.0, 400.0, 4.0)          # 100 x 100 pixels


def _reprs(state) -> list[str]:
    return [repr(c.power_dbm) for c in state.cells]


def _expected(state, params, **kw) -> list[str]:
    return [repr(p) for p in oracle_configure_powers(state, GRID, params, **kw).tolist()]


def _layout(rng, num_cells: int, num_channels: int, k_max: int = 2) -> NetworkState:
    """Cells on distinct random pixels, each holding 1 to ``k_max`` of
    ``num_channels`` channels; about one in six has a fixed power, some
    outside the clamp range."""
    sites = rng.choice(GRID.num_pixels, size=num_cells, replace=False)
    cells = []
    for i, site in enumerate(sites.tolist(), start=1):
        count = int(rng.integers(1, min(k_max, num_channels) + 1))
        channels = tuple(rng.choice(num_channels, size=count, replace=False).tolist())
        cells.append(SmallCell(i, site, channels, float(rng.uniform(5.0, 30.0)),
                               power_fixed=bool(rng.random() < 1 / 6)))
    return NetworkState(tuple(cells))


def _iterations(state, params) -> int:
    """Fixed-point iterations the one-layout loop takes on ``state``."""
    final = _expected(state, params)
    return next(m for m in range(1, 51) if _expected(state, params, max_iter=m) == final)


def test_a_thousand_random_layouts_match_the_one_layout_loop():
    rng = np.random.default_rng(2024)
    batches = defaultdict(list)
    for _ in range(1000):
        num_channels = int(rng.integers(1, 9))
        params = PropagationParams(num_channels=num_channels,
                                   edge_sinr_target_db=float(rng.choice([-3.0, 9.0, 20.0])))
        state = _layout(rng, int(rng.integers(2, 41)), num_channels, int(rng.integers(1, 4)))
        expected = _expected(state, params)
        assert _reprs(configure_powers(state, GRID, params)) == expected
        batches[len(state.cells), params].append((state, expected))
    assert sum(len(b) > 1 for b in batches.values()) > 50
    for (_, params), batch in batches.items():
        solved = solve_powers([s for s, _ in batch], GRID, params)
        assert [_reprs(s) for s in solved] == [e for _, e in batch]


def test_a_batch_mixing_early_and_late_convergence_matches_the_loop(params):
    rng = np.random.default_rng(7)
    states = [_layout(rng, 20, 4, k_max=1) for _ in range(40)]
    iterations = [_iterations(s, params) for s in states]
    assert min(iterations) <= 2 and max(iterations) >= 15
    solved = solve_powers(states, GRID, params)
    assert [_reprs(s) for s in solved] == [_expected(s, params) for s in states]


def test_layouts_still_live_at_max_iter_keep_their_last_iterate(params, monkeypatch):
    rng = np.random.default_rng(11)
    states = [_layout(rng, 20, 4, k_max=1) for _ in range(30)]
    capped = [_expected(s, params, max_iter=3) for s in states]
    assert sum(c != _expected(s, params) for c, s in zip(capped, states)) >= 5
    monkeypatch.setattr(radio, "POWER_MAX_ITER", 3)
    solved = solve_powers(states, GRID, params)
    assert [_reprs(s) for s in solved] == capped
    assert [_reprs(configure_powers(s, GRID, params)) for s in states] == capped


def test_solve_powers_edge_cases(params):
    with pytest.raises(ValueError, match="empty network"):
        solve_powers([NetworkState(())], GRID, params)
    with pytest.raises(ValueError, match="empty network"):
        configure_powers(NetworkState(()), GRID, params)

    single = [NetworkState((SmallCell(1, p, (0,), 11.0),)) for p in (5, 500, 1999)]
    assert [s.cells[0].power_dbm for s in solve_powers(single, GRID, params)] == \
        [params.power_max_dbm] * 3

    rng = np.random.default_rng(3)
    three, four = _layout(rng, 3, 4), _layout(rng, 4, 4)
    with pytest.raises(ValueError, match="unequal cell counts"):
        solve_powers([three, four], GRID, params)

    fixed = [replace(s, cells=tuple(replace(c, power_fixed=c.cell_id % 2 == 1)
                                    for c in s.cells))
             for s in (_layout(rng, 9, 2) for _ in range(10))]
    for before, after in zip(fixed, solve_powers(fixed, GRID, params)):
        for b, a in zip(before.cells, after.cells):
            if b.power_fixed:
                assert a is b

    solved = solve_powers(fixed, GRID, params)
    for s, again in zip(solved, solve_powers(solved, GRID, params)):
        assert again is s
