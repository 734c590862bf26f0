"""Network performance model: propagation, serving, SINR and capacity.

Deterministic downlink model over the pixel grid.  Path loss follows the
indoor-hotspot formulas (NLOS default, LOS selectable), every pixel attaches
to the cell with the strongest received power, and per-channel SINR feeds a
truncated-Shannon spectral efficiency.  A cell's capacity in Mbps is
``num_channels * channel_bandwidth_mhz * average_se``.

All functions are pure; evaluation order is fixed so results are bit-for-bit
reproducible.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .scenario import (GridSpec, NetworkState, ServingMap, is_count, is_real,
                       pixel_positions, positive, require_fields)

__all__ = [
    "PropagationParams",
    "RadioSnapshot",
    "LinkCache",
    "path_loss",
    "noise_floor_dbm",
    "rx_power_matrix",
    "received_power",
    "serving_assignment",
    "configure_powers",
    "sinr",
    "spectral_efficiency",
    "average_se",
    "cell_capacity",
    "radio_snapshot",
    "serving_mean",
]

MIN_DISTANCE_M = 1.0    # clamp below this to keep log10 finite at a cell's own pixel


@dataclass(frozen=True)
class PropagationParams:
    """Radio constants for the downlink model."""

    carrier_ghz: float = 5.0
    channel_bandwidth_mhz: float = 20.0
    num_channels: int = 4
    antenna_gain_db: float = 2.0
    noise_figure_db: float = 9.0
    thermal_noise_dbm_per_hz: float = -174.0
    pathloss_variant: str = "nlos"          # "nlos" | "los"
    se_max_bps_hz: float = 4.4
    se_impl_factor: float = 0.6
    sinr_min_db: float = -10.0
    power_min_dbm: float = 10.0
    power_max_dbm: float = 24.0
    edge_sinr_target_db: float = 9.0
    edge_fraction: float = math.sqrt(3.0) / 2.0

    def __post_init__(self):
        levels = ("antenna_gain_db", "noise_figure_db", "thermal_noise_dbm_per_hz",
                  "sinr_min_db", "edge_sinr_target_db", "power_min_dbm", "power_max_dbm")
        require_fields(
            self, *((f"radio.{name}_real", name, is_real, "a finite number")
                    for name in levels),
            ("radio.carrier_positive", "carrier_ghz", positive, "> 0"),
            ("radio.bandwidth_positive", "channel_bandwidth_mhz", positive, "> 0"),
            ("radio.num_channels_positive", "num_channels", is_count, "an integer >= 1"),
            ("radio.pathloss_variant", "pathloss_variant",
             lambda v: v in ("nlos", "los"), "'nlos' or 'los'"),
            ("radio.se_max_positive", "se_max_bps_hz", positive, "> 0"),
            ("radio.se_impl_range", "se_impl_factor", lambda f: positive(f) and f <= 1,
             "in (0, 1]"),
            ("radio.edge_fraction_range", "edge_fraction",
             lambda f: positive(f) and f <= 1, "in (0, 1]"),
            ("radio.power_range", "power_max_dbm", lambda p: not is_real(p)
             or not is_real(self.power_min_dbm) or p >= self.power_min_dbm,
             "at least power_min_dbm"))


def path_loss(distance_m, params: PropagationParams):
    """Indoor-hotspot path loss in dB; distances are clamped to 1 m.

    NLOS: 43.3*log10(d) + 11.5 + 20*log10(f_GHz)
    LOS:  16.9*log10(d) + 32.8 + 20*log10(f_GHz)
    """
    d = np.maximum(np.asarray(distance_m, dtype=float), MIN_DISTANCE_M)
    f_term = 20.0 * np.log10(params.carrier_ghz)
    if params.pathloss_variant == "los":
        pl = 16.9 * np.log10(d) + 32.8 + f_term
    else:
        pl = 43.3 * np.log10(d) + 11.5 + f_term
    return float(pl) if np.isscalar(distance_m) else pl


def noise_floor_dbm(params: PropagationParams) -> float:
    """Thermal noise over one channel bandwidth plus the terminal noise figure."""
    return (params.thermal_noise_dbm_per_hz
            + 10.0 * math.log10(params.channel_bandwidth_mhz * 1e6)
            + params.noise_figure_db)


def _site_positions(state: NetworkState, grid: GridSpec) -> np.ndarray:
    pos = pixel_positions(grid)
    return pos[np.array(state.site_pixels, dtype=int)]


class LinkCache:
    """Radio quantities of one run that depend on the layout alone.

    It holds the path-loss column of each site of the last layout seen, so
    a layout that differs from it by a cell computes one new column, and
    the link state of the last layout evaluated: the input layout, its
    powered state, serving map, rx power, SINR table and per-pixel SE (see
    ``evaluation.evaluate_state``).  Both belong to one grid and one set of
    radio parameters; using the cache with others drops what it holds.
    Memoized arrays are read-only.
    """

    def __init__(self):
        self._scope = None
        self._columns: dict[int, np.ndarray] = {}
        self._layout = None

    def _use(self, grid: GridSpec, params: PropagationParams):
        if self._scope != (grid, params):
            self._scope = (grid, params)
            self._columns, self._layout = {}, None

    def path_loss(self, state: NetworkState, grid: GridSpec,
                  params: PropagationParams) -> np.ndarray:
        """(num_pixels, num_cells) path loss in dB, cells in id order."""
        self._use(grid, params)
        pos = pixel_positions(grid)
        columns = {}
        for site in state.site_pixels:
            column = self._columns.get(site)
            if column is None:
                column = path_loss(np.sqrt(((pos - pos[site]) ** 2).sum(axis=1)), params)
            columns[site] = column
        self._columns = columns
        return np.stack(list(columns.values()), axis=1)

    def link(self, state: NetworkState, grid: GridSpec, params: PropagationParams):
        """``(powered state, serving, rx, SINR table, pixel SE)`` of ``state``
        if it is the last layout remembered, or that layout's powered state
        (powers depend on the layout alone), else None."""
        self._use(grid, params)
        if self._layout is not None and state in self._layout[:2]:
            return self._layout[1:]
        return None

    def remember(self, state: NetworkState, powered: NetworkState, serving: ServingMap,
                 *arrays: np.ndarray):
        """Keep ``state``'s link state, as returned by ``link``."""
        for a in arrays:
            a.flags.writeable = False
        self._layout = (state, powered, serving, *arrays)
        return self._layout[1:]


def rx_power_matrix(state: NetworkState, grid: GridSpec, params: PropagationParams,
                    cache: LinkCache | None = None) -> np.ndarray:
    """(num_pixels, num_cells) received power in dBm, cells in id order."""
    if not state.cells:
        raise ValueError("empty network")
    pl = (LinkCache() if cache is None else cache).path_loss(state, grid, params)
    powers = np.array([c.power_dbm for c in state.cells])
    return powers[None, :] + params.antenna_gain_db - pl


def received_power(cell_id: int, pixel: int, state: NetworkState,
                   grid: GridSpec, params: PropagationParams) -> float:
    """Received power (dBm) from one cell at one pixel."""
    c = state.cell(cell_id)
    px, py = grid.pixel_xy(pixel)
    sx, sy = grid.pixel_xy(c.site_pixel)
    return c.power_dbm + params.antenna_gain_db - path_loss(math.hypot(px - sx, py - sy), params)


def serving_assignment(state: NetworkState, grid: GridSpec,
                       params: PropagationParams) -> ServingMap:
    """Attach every pixel to the strongest cell; ties go to the lowest cell id."""
    rx = rx_power_matrix(state, grid, params)
    serving_col = np.argmax(rx, axis=1)
    return ServingMap(state.cell_ids, np.array(state.cell_ids)[serving_col], serving_col)


def configure_powers(state: NetworkState, grid: GridSpec,
                     params: PropagationParams,
                     tol_db: float = 0.01, max_iter: int = 50) -> NetworkState:
    """Auto-configure transmit powers for a target cell-edge SINR.

    For each cell the inter-site distance is the distance to the nearest
    other deployed cell and the edge point lies toward that neighbor at
    ``edge_fraction * ISD``.  The power is solved so the SINR there hits
    ``edge_sinr_target_db`` against the single strongest co-channel
    interferer (at its current power) plus one channel of noise, clamped to
    [power_min_dbm, power_max_dbm].  Because the targets are coupled, the
    solve starts every non-fixed cell at maximum power and iterates until
    powers move less than ``tol_db``; the result depends only on the layout,
    never on the incoming power values.

    A single deployed cell (no interferer, no ISD) gets maximum power.
    Cells with ``power_fixed`` keep their power but still interfere.
    """
    cells = state.cells
    if not cells:
        raise ValueError("empty network")
    n = len(cells)
    fixed = np.array([c.power_fixed for c in cells])
    powers = np.where(fixed, [c.power_dbm for c in cells], params.power_max_dbm).astype(float)
    if n == 1:
        return _with_powers(state, powers)

    sites = _site_positions(state, grid)
    pair_d = np.sqrt(((sites[:, None, :] - sites[None, :, :]) ** 2).sum(axis=2))
    np.fill_diagonal(pair_d, np.inf)
    nearest = np.argmin(pair_d, axis=1)
    isd = pair_d[np.arange(n), nearest]
    edge = sites + (sites[nearest] - sites) * params.edge_fraction
    edge_d = np.sqrt(((edge[:, None, :] - sites[None, :, :]) ** 2).sum(axis=2))

    co_channel = np.zeros((n, n), dtype=bool)
    for i, ci in enumerate(cells):
        for j, cj in enumerate(cells):
            if i != j and set(ci.channels) & set(cj.channels):
                co_channel[i, j] = True

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
    return _with_powers(state, powers)


def _with_powers(state: NetworkState, powers: np.ndarray) -> NetworkState:
    cells = tuple(replace(c, power_dbm=float(p)) for c, p in zip(state.cells, powers))
    return replace(state, cells=cells)


def _sinr_table(state: NetworkState, params: PropagationParams,
                serving_col: np.ndarray, rx_dbm: np.ndarray) -> np.ndarray:
    """(num_pixels, num_channels) serving-link SINR in dB, NaN where the
    serving cell does not hold the channel.  ``serving_col`` is each pixel's
    serving column of ``rx_dbm``."""
    rx_lin = 10.0 ** (rx_dbm / 10.0)
    s_lin = rx_lin[np.arange(rx_lin.shape[0]), serving_col]
    noise_lin = 10.0 ** (noise_floor_dbm(params) / 10.0)

    out = np.full((rx_dbm.shape[0], params.num_channels), np.nan)
    for ch in range(params.num_channels):
        holders = np.array([ch in c.channels for c in state.cells])
        if not holders.any():
            continue
        total = rx_lin[:, holders].sum(axis=1)
        serving_holds = holders[serving_col]
        interference = total - np.where(serving_holds, s_lin, 0.0)
        sinr_lin = s_lin / (interference + noise_lin)
        col = 10.0 * np.log10(sinr_lin)
        out[:, ch] = np.where(serving_holds, col, np.nan)
    return out


def sinr(pixel: int, channel: int, state: NetworkState, grid: GridSpec,
         params: PropagationParams) -> float:
    """Serving-link SINR (dB) at a pixel on one channel.

    Interference is the sum of received powers from every other deployed
    cell holding the channel; noise spans one channel bandwidth.
    """
    rx = rx_power_matrix(state, grid, params)
    serving_col = np.argmax(rx, axis=1)
    serving_cell = state.cells[serving_col[pixel]]
    if channel not in serving_cell.channels:
        raise ValueError(f"channel {channel} not allocated at serving cell "
                         f"{serving_cell.cell_id}")
    return float(_sinr_table(state, params, serving_col, rx)[pixel, channel])


def spectral_efficiency(sinr_db, params: PropagationParams):
    """Truncated-Shannon mapping from SINR (dB) to b/s/Hz.

    Zero below ``sinr_min_db``, otherwise
    ``min(se_max, se_impl_factor * log2(1 + sinr))``.
    """
    arr = np.asarray(sinr_db, dtype=float)
    lin = 10.0 ** (arr / 10.0)
    se = np.minimum(params.se_max_bps_hz, params.se_impl_factor * np.log2(1.0 + lin))
    se = np.where(arr < params.sinr_min_db, 0.0, se)
    return float(se) if np.isscalar(sinr_db) else se


def serving_mean(state: NetworkState, serving: ServingMap, table: np.ndarray) -> np.ndarray:
    """Per-pixel mean of a (pixel, channel) table, such as SE or SINR, over
    the serving cell's allocated channels."""
    out = np.zeros(table.shape[0])
    for c in state.cells:
        pixels = serving.cell_pixels[c.cell_id]
        if pixels.size:
            out[pixels] = table[np.ix_(pixels, np.array(c.channels))].mean(axis=1)
    return out


def average_se(cell_id: int, serving: ServingMap, pixel_se: np.ndarray,
               pixel_weights: np.ndarray | None = None) -> float:
    """Demand-weighted mean SE over the pixels a cell serves.

    Falls back to a uniform mean when the served demand totals zero and to
    0 when the cell serves no pixels.
    """
    pixels = serving.cell_pixels.get(cell_id)
    if pixels is None:
        raise ValueError(f"unknown cell id {cell_id}")
    if not pixels.size:
        return 0.0
    se = pixel_se[pixels]
    if pixel_weights is not None:
        w = pixel_weights[pixels]
        tot = float(w.sum())
        if tot > 0:
            return float((se * w).sum() / tot)
    return float(se.mean())


def cell_capacity(num_channels: int, avg_se: float, params: PropagationParams) -> float:
    """Capacity in Mbps: allocated bandwidth (MHz) times average SE."""
    return num_channels * params.channel_bandwidth_mhz * avg_se


@dataclass(frozen=True)
class RadioSnapshot:
    """Derived radio state for one network layout.

    ``sinr_db`` is (num_pixels, num_channels) for the serving link, NaN on
    channels the serving cell does not hold; ``pixel_se`` is the mean SE over
    the serving cell's channels.
    """

    serving: ServingMap
    rx_power_dbm: np.ndarray
    sinr_db: np.ndarray
    pixel_se: np.ndarray
    avg_se: dict[int, float]
    capacity_mbps: dict[int, float]


def link_state(state: NetworkState, grid: GridSpec, params: PropagationParams,
               cache: LinkCache | None = None
               ) -> tuple[ServingMap, np.ndarray, np.ndarray, np.ndarray]:
    """Weight-independent link quantities: serving map, rx power, SINR table
    and per-pixel SE.  Path loss comes from ``cache`` if given."""
    rx = rx_power_matrix(state, grid, params, cache)
    serving_col = np.argmax(rx, axis=1)
    serving = ServingMap(state.cell_ids, np.array(state.cell_ids)[serving_col], serving_col)
    table = _sinr_table(state, params, serving_col, rx)
    se_table = spectral_efficiency(np.nan_to_num(table, nan=-np.inf), params)
    pixel_se = serving_mean(state, serving, se_table)
    return serving, rx, table, pixel_se


def radio_snapshot(state: NetworkState, grid: GridSpec, params: PropagationParams,
                   pixel_weights: np.ndarray | None = None) -> RadioSnapshot:
    """Evaluate serving, SINR, SE and capacity for the whole grid at once."""
    serving, rx, table, pixel_se = link_state(state, grid, params)
    avg = {c.cell_id: average_se(c.cell_id, serving, pixel_se, pixel_weights)
           for c in state.cells}
    cap = {c.cell_id: cell_capacity(len(c.channels), avg[c.cell_id], params)
           for c in state.cells}
    return RadioSnapshot(serving, rx, table, pixel_se, avg, cap)
