import functools
import math
import operator

import numpy as np
import pytest

from conftest import oracle_pixel_xy
from scplan.evaluation import NetworkEvaluation
from scplan.monitor import required_bandwidth
from scplan.reporting import read_bandwidth_table, write_bandwidth_table
from scplan.scenario import (GridSpec, NetworkState, SmallCell, TenantProfile, left_sum,
                             pixel_positions, select_candidate_sites)
from scplan.sla import PlanningSpecSet, translate_sc_level


def test_grid_pixel_counts():
    grid = GridSpec(200.0, 200.0, 3.0)
    assert grid.nx == 67 and grid.ny == 67
    assert grid.num_pixels == 4489


def test_grid_positions_inside_bounds():
    rng = np.random.default_rng(3)
    for _ in range(20):
        w, h = rng.uniform(5, 300, size=2)
        res = rng.uniform(0.5, 12)
        grid = GridSpec(float(w), float(h), float(res))
        pos = pixel_positions(grid)
        assert pos.shape == (grid.num_pixels, 2)
        assert pos[:, 0].min() > 0 and pos[:, 0].max() < w
        assert pos[:, 1].min() > 0 and pos[:, 1].max() < h


def test_grid_row_major_indexing():
    grid = GridSpec(30.0, 12.0, 3.0)
    pos = pixel_positions(grid)
    for pixel in (0, 5, grid.nx, grid.num_pixels - 1):
        assert oracle_pixel_xy(grid, pixel) == pytest.approx(tuple(pos[pixel]))
    # index advances along x first
    assert pos[1, 0] > pos[0, 0]
    assert pos[grid.nx, 1] > pos[0, 1]


def test_grid_rejects_bad_resolution():
    with pytest.raises(ValueError):
        GridSpec(100.0, 100.0, 0.0)


def test_candidate_sites_count_from_fraction():
    grid = GridSpec(200.0, 200.0, 3.0)
    sites = select_candidate_sites(grid, 0.02, seed=7)
    assert len(sites) == 90          # round(0.02 * 4489)
    assert len(set(sites.site_pixels)) == 90
    assert all(0 <= p < grid.num_pixels for p in sites.site_pixels)


def test_candidate_sites_full_fraction_is_identity():
    grid = GridSpec(12.0, 12.0, 3.0)
    sites = select_candidate_sites(grid, 1.0, seed=1)
    assert sites.site_pixels == tuple(range(grid.num_pixels))


def test_candidate_sites_deterministic():
    grid = GridSpec(60.0, 60.0, 3.0)
    a = select_candidate_sites(grid, 0.1, seed=42)
    b = select_candidate_sites(grid, 0.1, seed=42)
    c = select_candidate_sites(grid, 0.1, seed=43)
    assert a.site_pixels == b.site_pixels
    assert len(c) == len(a)


def test_candidate_sites_empty_errors():
    grid = GridSpec(30.0, 30.0, 3.0)
    with pytest.raises(ValueError, match="no candidate sites"):
        select_candidate_sites(grid, 0.001, seed=0)
    with pytest.raises(ValueError):
        select_candidate_sites(grid, 1.5, seed=0)


def test_tenant_profile_invariants():
    with pytest.raises(ValueError):
        TenantProfile("t", -1.0)
    with pytest.raises(ValueError):
        TenantProfile("t", 1.0, temporal_profile=(0.5, 0.8))
    with pytest.raises(ValueError):
        TenantProfile("t", 1.0, temporal_profile=(1.0, 1.2))
    profile = TenantProfile("t", 1.0, temporal_profile=(0.25, 1.0, 0.5))
    assert profile.temporal_weight(4) == 1.0   # wraps around


def test_network_state_invariants():
    with pytest.raises(ValueError):
        NetworkState((SmallCell(1, 0, (0,)), SmallCell(1, 5, (1,))))
    with pytest.raises(ValueError):
        NetworkState((SmallCell(1, 3, (0,)), SmallCell(2, 3, (1,))))
    with pytest.raises(ValueError):
        SmallCell(1, 0, ())
    state = NetworkState((SmallCell(2, 5, (1, 0)), SmallCell(1, 3, (2,))))
    assert state.cell_ids == (1, 2)            # sorted by id
    assert state.cell(2).channels == (0, 1)    # channels normalized
    with pytest.raises(ValueError):
        state.add_channel(2, 1)
    with pytest.raises(ValueError):
        state.remove_channel(1, 0)
    grown = state.add_channel(1, 3).remove_channel(2, 0)
    assert grown.cell(1).channels == (2, 3)
    assert grown.cell(2).channels == (1,)
    assert state.cell(1).channels == (2,)      # original untouched


def test_float_sums_add_left_to_right_on_every_python_version(tmp_path):
    # from Python 3.12 on the builtin ``sum`` of floats is compensated; every
    # sum a report or a planner tie reads adds left to right instead, the
    # bits of ``sum`` up to 3.11, on a list where the two orders differ
    values = [1e16, 1.0, -1e16, 3.5, 0.1, 0.2]
    assert left_sum(values) == 3.8000000000000003 != math.fsum(values)
    assert left_sum(values) == functools.reduce(operator.add, values, 0.0)
    assert left_sum([]) == 0.0
    small = [1.0] + [1e-16] * 10        # left to right the small terms vanish
    assert left_sum(small) == 1.0 != math.fsum(small)
    cells = dict(enumerate(small, start=1))
    assert PlanningSpecSet("t", "sc", "uniform", cell_values=cells).total() == 1.0
    split = translate_sc_level(3.0, NetworkState(tuple(SmallCell(i, i, (0,)) for i in cells)),
                               "correlated", cells)
    assert split.cell_values[1] == 3.0
    assert required_bandwidth({m: {1: v} for m, v in enumerate(small)},
                              dict.fromkeys(range(len(small)), {1: 2.0}), {1: 1.0}) == {1: 1.0}
    ev = NetworkEvaluation(*(None,) * 6, required_mhz=cells)
    assert ev.total_required() == 1.0
    write_bandwidth_table(tmp_path / "bw.csv", list(cells.items()))
    assert read_bandwidth_table(tmp_path / "bw.csv")[1] == 1.0
