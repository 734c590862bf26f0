import numpy as np
import pytest

from scplan.scenario import GridSpec, NetworkState, ServingMap, SmallCell
from scplan.sla import pixel_specs_to_cell, translate_pixel_level, translate_sc_level


def _state(n):
    return NetworkState(tuple(SmallCell(i + 1, i * 3, (0,)) for i in range(n)))


def test_sc_uniform_split():
    specs = translate_sc_level(100.0, _state(4), "uniform")
    assert all(v == 25.0 for v in specs.cell_values.values())
    assert specs.total() == pytest.approx(100.0, rel=1e-12)


def test_sc_correlated_split_hand_values():
    demands = {1: 22.5, 2: 27.9, 3: 19.3, 4: 16.6}
    specs = translate_sc_level(100.0, _state(4), "correlated", demands)
    want = {1: 26.07, 2: 32.33, 3: 22.36, 4: 19.24}
    for cid, value in want.items():
        assert specs.cell_values[cid] == pytest.approx(value, abs=0.01)
    assert specs.total() == pytest.approx(100.0, rel=1e-9)


def test_sc_single_cell_degenerate():
    state = _state(1)
    for method, demands in (("uniform", None), ("correlated", {1: 5.0})):
        specs = translate_sc_level(42.0, state, method, demands)
        assert specs.cell_values[1] == pytest.approx(42.0)


def test_sc_correlated_needs_basis():
    with pytest.raises(ValueError, match="no correlation basis"):
        translate_sc_level(10.0, _state(2), "correlated", {1: 0.0, 2: 0.0})
    with pytest.raises(ValueError):
        translate_sc_level(10.0, _state(2), "correlated")
    with pytest.raises(ValueError, match="empty network"):
        translate_sc_level(10.0, NetworkState(()), "uniform")


def test_pixel_uniform_split():
    grid = GridSpec(200.0, 200.0, 3.0)
    specs = translate_pixel_level(100.0, grid, "uniform")
    assert specs.pixel_values[0] == pytest.approx(0.02228, abs=1e-5)
    assert specs.total() == pytest.approx(100.0, rel=1e-9)


def test_pixel_correlated_split():
    grid = GridSpec(12.0, 12.0, 3.0)
    rng = np.random.default_rng(2)
    demand = rng.uniform(0, 1, grid.num_pixels)
    demand[3] = 0.0
    specs = translate_pixel_level(50.0, grid, "correlated", demand)
    assert specs.pixel_values[3] == 0.0
    assert specs.total() == pytest.approx(50.0, rel=1e-9)
    with pytest.raises(ValueError, match="no correlation basis"):
        translate_pixel_level(50.0, grid, "correlated", np.zeros(grid.num_pixels))


def test_pixel_specs_to_cell_share():
    grid = GridSpec(12.0, 12.0, 3.0)   # 16 pixels
    specs = translate_pixel_level(100.0, grid, "uniform")
    pixel_cell = np.array([1] * 4 + [2] * 12)
    serving = ServingMap((1, 2), pixel_cell)
    cells = pixel_specs_to_cell(specs, serving)
    assert cells[1] == pytest.approx(25.0)      # serves 25% of the pixels
    assert cells[2] == pytest.approx(75.0)
    assert sum(cells.values()) == pytest.approx(100.0, rel=1e-9)


def test_pixel_specs_to_cell_empty_cell():
    grid = GridSpec(12.0, 12.0, 3.0)
    specs = translate_pixel_level(10.0, grid, "uniform")
    serving = ServingMap((1, 2), np.full(grid.num_pixels, 1))
    cells = pixel_specs_to_cell(specs, serving)
    assert cells[2] == 0.0


def test_conservation_over_random_cases():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n_cells = int(rng.integers(1, 8))
        a_busy = float(rng.uniform(0.1, 500))
        state = _state(n_cells)
        demands = {i + 1: float(rng.uniform(0.01, 50)) for i in range(n_cells)}
        for method, extra in (("uniform", None), ("correlated", demands)):
            specs = translate_sc_level(a_busy, state, method, extra)
            assert specs.total() == pytest.approx(a_busy, rel=1e-9)
        grid = GridSpec(float(rng.integers(6, 30)), float(rng.integers(6, 30)), 3.0)
        raster = rng.uniform(0, 1, grid.num_pixels)
        for method, extra in (("uniform", None), ("correlated", raster)):
            specs = translate_pixel_level(a_busy, grid, method, extra)
            assert specs.total() == pytest.approx(a_busy, rel=1e-9)


def test_correlated_monotone_and_scale_equivariant():
    rng = np.random.default_rng(9)
    state = _state(5)
    demands = {i + 1: float(rng.uniform(0, 10)) for i in range(5)}
    specs = translate_sc_level(70.0, state, "correlated", demands)
    ordered = sorted(demands, key=demands.get)
    values = [specs.cell_values[c] for c in ordered]
    assert values == sorted(values)
    scaled = translate_sc_level(140.0, state, "correlated", demands)
    for cid in state.cell_ids:
        assert scaled.cell_values[cid] == pytest.approx(2 * specs.cell_values[cid])
