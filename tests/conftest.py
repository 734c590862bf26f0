"""Shared fixtures and independent oracles for the test suite."""
from __future__ import annotations

import math

import numpy as np
import pytest

from scplan.radio import PropagationParams, noise_floor_dbm, path_loss, spectral_efficiency
from scplan.scenario import (GridSpec, NetworkState, ServingMap, SmallCell,
                             pixel_positions)


@pytest.fixture
def params():
    return PropagationParams()


def oracle_path_loss(d_m: float, f_ghz: float = 5.0, los: bool = False) -> float:
    """Independent re-coding of the indoor-hotspot path loss."""
    d = max(d_m, 1.0)
    if los:
        return 16.9 * math.log10(d) + 32.8 + 20.0 * math.log10(f_ghz)
    return 43.3 * math.log10(d) + 11.5 + 20.0 * math.log10(f_ghz)


def oracle_pixel_xy(grid: GridSpec, pixel: int) -> tuple[float, float]:
    """Center coordinates (x_m, y_m) of one pixel, row-major, scalar math."""
    row, col = divmod(pixel, grid.nx)
    return (col + 0.5) * grid.width_m / grid.nx, (row + 0.5) * grid.height_m / grid.ny


def oracle_noise_dbm(bandwidth_mhz: float = 20.0, noise_figure_db: float = 9.0) -> float:
    return -174.0 + 10.0 * math.log10(bandwidth_mhz * 1e6) + noise_figure_db


def oracle_sinr_db(pixel: int, channel: int, state: NetworkState, grid: GridSpec,
                   params: PropagationParams) -> float:
    """Brute-force link budget: loops and scalar math only."""
    px, py = oracle_pixel_xy(grid, pixel)

    def rx_dbm(cell):
        sx, sy = oracle_pixel_xy(grid, cell.site_pixel)
        d = math.hypot(px - sx, py - sy)
        pl = oracle_path_loss(d, params.carrier_ghz,
                              params.pathloss_variant == "los")
        return cell.power_dbm + params.antenna_gain_db - pl

    best, serving = None, None
    for cell in state.cells:
        r = rx_dbm(cell)
        if best is None or r > best:
            best, serving = r, cell
    if channel not in serving.channels:
        raise ValueError("channel not allocated at serving cell")
    signal_mw = 10.0 ** (best / 10.0)
    interference_mw = 0.0
    for cell in state.cells:
        if cell.cell_id != serving.cell_id and channel in cell.channels:
            interference_mw += 10.0 ** (rx_dbm(cell) / 10.0)
    noise_mw = 10.0 ** (oracle_noise_dbm(params.channel_bandwidth_mhz,
                                         params.noise_figure_db) / 10.0)
    return 10.0 * math.log10(signal_mw / (interference_mw + noise_mw))


def oracle_serving(state: NetworkState, grid: GridSpec,
                   params: PropagationParams) -> list[int]:
    """Per-pixel argmax of received power, lowest cell id on ties."""
    out = []
    for u in range(grid.num_pixels):
        px, py = oracle_pixel_xy(grid, u)
        best, best_id = None, None
        for cell in state.cells:
            sx, sy = oracle_pixel_xy(grid, cell.site_pixel)
            d = max(math.hypot(px - sx, py - sy), 1.0)
            if params.pathloss_variant == "los":
                pl = 16.9 * math.log10(d) + 32.8 + 20 * math.log10(params.carrier_ghz)
            else:
                pl = 43.3 * math.log10(d) + 11.5 + 20 * math.log10(params.carrier_ghz)
            r = cell.power_dbm + params.antenna_gain_db - pl
            if best is None or r > best:
                best, best_id = r, cell.cell_id
        out.append(best_id)
    return out


def oracle_best_channel(cell_id: int, state: NetworkState, grid: GridSpec,
                        num_channels: int) -> int:
    """Brute-force max-min co-channel distance scan."""
    pos = pixel_positions(grid)
    me = state.cell(cell_id)
    mx, my = pos[me.site_pixel]
    best_ch, best_d = None, None
    for ch in range(num_channels):
        if ch in me.channels:
            continue
        dmin = math.inf
        for other in state.cells:
            if other.cell_id != cell_id and ch in other.channels:
                ox, oy = pos[other.site_pixel]
                dmin = min(dmin, math.hypot(mx - ox, my - oy))
        if best_d is None or dmin > best_d:
            best_ch, best_d = ch, dmin
    return best_ch


def random_state(rng: np.random.Generator, grid: GridSpec, num_cells: int,
                 num_channels: int = 4, k_max: int = 2,
                 power_span=(10.0, 24.0)) -> NetworkState:
    sites = rng.choice(grid.num_pixels, size=num_cells, replace=False)
    cells = []
    for i, site in enumerate(sites, start=1):
        count = int(rng.integers(1, k_max + 1))
        channels = tuple(int(c) for c in
                         rng.choice(num_channels, size=count, replace=False))
        power = float(rng.uniform(*power_span))
        cells.append(SmallCell(i, int(site), channels, power))
    return NetworkState(tuple(cells))


def matrix_link_state(state: NetworkState, grid: GridSpec, params: PropagationParams):
    """The link state in its (pixels, cells) matrix form: stacked rx, argmax
    serving, the holders' columns of ``10 ** (rx / 10)`` summed along axis 1
    and SE over the whole NaN-filled table, averaged over each cell's block
    of pixels and channels.  Returns ``(serving, rx, SINR table, pixel
    SE)``."""
    pos = pixel_positions(grid)
    pl = np.stack([path_loss(np.sqrt(((pos - pos[site]) ** 2).sum(axis=1)), params)
                   for site in state.site_pixels], axis=1)
    powers = np.array([c.power_dbm for c in state.cells])
    rx = powers[None, :] + params.antenna_gain_db - pl
    serving_col = np.argmax(rx, axis=1)
    serving = ServingMap(state.cell_ids, np.array(state.cell_ids)[serving_col], serving_col)
    rx_lin = 10.0 ** (rx / 10.0)
    s_lin = rx_lin[np.arange(rx_lin.shape[0]), serving_col]
    noise_lin = 10.0 ** (noise_floor_dbm(params) / 10.0)
    table = np.full((rx.shape[0], params.num_channels), np.nan)
    for ch in range(params.num_channels):
        holders = np.array([ch in c.channels for c in state.cells])
        if not holders.any():
            continue
        total = rx_lin[:, holders].sum(axis=1)
        serving_holds = holders[serving_col]
        interference = total - np.where(serving_holds, s_lin, 0.0)
        col = 10.0 * np.log10(s_lin / (interference + noise_lin))
        table[:, ch] = np.where(serving_holds, col, np.nan)
    se_table = spectral_efficiency(np.nan_to_num(table, nan=-np.inf), params)
    pixel_se = np.zeros(rx.shape[0])
    for j, c in enumerate(state.cells):
        pixels = np.flatnonzero(serving_col == j)
        if pixels.size:
            pixel_se[pixels] = se_table[np.ix_(pixels, np.array(c.channels))].mean(axis=1)
    return serving, rx, table, pixel_se


def assert_same_evaluation(a, b):
    """Two evaluations agree bit for bit: layout, serving map and pixel SE
    by their bytes, and every per-cell number by its ``repr``."""
    assert a.state == b.state
    assert a.serving.cell_ids == b.serving.cell_ids
    for x, y in ((a.serving.pixel_cell, b.serving.pixel_cell),
                 (a.serving.pixel_col, b.serving.pixel_col),
                 (a.pixel_se, b.pixel_se)):
        assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes())
    assert repr((a.avg_se, a.cell_demand, a.cell_specs, a.required_mhz)) == \
        repr((b.avg_se, b.cell_demand, b.cell_specs, b.required_mhz))


def oracle_configure_powers(state: NetworkState, grid: GridSpec,
                            params: PropagationParams,
                            tol_db: float = 0.01, max_iter: int = 50) -> np.ndarray:
    """The powers ``configure_powers`` solved one layout at a time, before
    site searches solved their trials in one batch: this loop, verbatim."""
    cells = state.cells
    if not cells:
        raise ValueError("empty network")
    n = len(cells)
    fixed = np.array([c.power_fixed for c in cells])
    powers = np.where(fixed, [c.power_dbm for c in cells], params.power_max_dbm).astype(float)
    if n == 1:
        return powers

    sites = pixel_positions(grid)[list(state.site_pixels)]
    pair_d = np.sqrt(((sites[:, None, :] - sites[None, :, :]) ** 2).sum(axis=2))
    np.fill_diagonal(pair_d, np.inf)
    nearest = np.argmin(pair_d, axis=1)
    isd = pair_d[np.arange(n), nearest]
    edge = sites + (sites[nearest] - sites) * params.edge_fraction
    edge_d = np.sqrt(((edge[:, None, :] - sites[None, :, :]) ** 2).sum(axis=2))

    member = np.zeros((n, 1 + max(max(c.channels) for c in cells)), dtype=bool)
    for i, c in enumerate(cells):
        member[i, list(c.channels)] = True
    co_channel = member @ member.T
    np.fill_diagonal(co_channel, False)

    serving_pl = path_loss(params.edge_fraction * isd, params)
    edge_pl = path_loss(edge_d, params)
    noise_lin = 10.0 ** (noise_floor_dbm(params) / 10.0)

    for _ in range(max_iter):
        rx_edge = powers[None, :] + params.antenna_gain_db - edge_pl
        rx_lin = np.where(co_channel, 10.0 ** (rx_edge / 10.0), 0.0)
        strongest = rx_lin.max(axis=1)
        required = (params.edge_sinr_target_db
                    + 10.0 * np.log10(strongest + noise_lin)
                    + serving_pl - params.antenna_gain_db)
        new_powers = np.where(
            fixed, powers,
            np.clip(required, params.power_min_dbm, params.power_max_dbm))
        if np.max(np.abs(new_powers - powers)) < tol_db:
            powers = new_powers
            break
        powers = new_powers
    return powers
