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
    "serving_assignment",
    "configure_powers",
    "sinr",
    "spectral_efficiency",
    "average_se",
    "cell_capacity",
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


class LinkCache:
    """Radio quantities of one run that depend on the layout alone.

    For the cells of the last layout seen it holds the path-loss column of
    each site and the mW received-power column of each (site, power), so a
    layout that differs from it by a cell or a power computes only that
    cell's columns (see ``rx_power_matrix``); and the link state of the last
    layout evaluated: the input layout, its powered state, serving map, SINR
    table and per-pixel SE (see ``evaluation.evaluate_state``).  Both belong
    to one grid and one set of radio parameters; using the cache with others
    drops what it holds.  Memoized arrays and mW columns are read-only.
    """

    def __init__(self):
        self._scope = None
        self._path_loss: dict[int, np.ndarray] = {}
        self._linear: dict[tuple[int, float], np.ndarray] = {}
        self._layout = None

    def _use(self, grid: GridSpec, params: PropagationParams):
        if self._scope != (grid, params):
            self._scope = (grid, params)
            self._path_loss, self._linear, self._layout = {}, {}, None

    def link(self, state: NetworkState, grid: GridSpec, params: PropagationParams):
        """``(powered state, serving, SINR table, pixel SE)`` of ``state``
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
                    cache: LinkCache | None = None
                    ) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """The (num_pixels, num_cells) received power as its columns, in dBm
    and in mW, cells in id order; no matrix is built.  A dBm column is
    ``(power + gain) - pl``, the float the whole-matrix broadcast gives;
    path-loss and mW columns come from ``cache`` when it holds them."""
    if not state.cells:
        raise ValueError("empty network")
    cache = LinkCache() if cache is None else cache
    cache._use(grid, params)
    pos = pixel_positions(grid)
    path_loss_by_site, linear, rx_dbm = {}, {}, []
    for c in state.cells:
        pl = cache._path_loss.get(c.site_pixel)
        if pl is None:
            pl = path_loss(np.sqrt(((pos - pos[c.site_pixel]) ** 2).sum(axis=1)), params)
        path_loss_by_site[c.site_pixel] = pl
        rx_dbm.append((c.power_dbm + params.antenna_gain_db) - pl)
        key = (c.site_pixel, c.power_dbm)
        lin = cache._linear.get(key)
        if lin is None:
            lin = 10.0 ** (rx_dbm[-1] / 10.0)
            lin.flags.writeable = False
        linear[key] = lin
    cache._path_loss, cache._linear = path_loss_by_site, linear
    return rx_dbm, list(linear.values())


def serving_assignment(state: NetworkState, grid: GridSpec,
                       params: PropagationParams) -> ServingMap:
    """Attach every pixel to the strongest cell; ties go to the lowest cell id."""
    return link_state(state, grid, params)[0]


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
    return _with_powers(state, powers)


def _with_powers(state: NetworkState, powers: np.ndarray) -> NetworkState:
    cells = tuple(replace(c, power_dbm=float(p)) for c, p in zip(state.cells, powers))
    return replace(state, cells=cells)


def sinr(pixel: int, channel: int, state: NetworkState, grid: GridSpec,
         params: PropagationParams) -> float:
    """Serving-link SINR (dB) at a pixel on one channel.

    Interference is the sum of received powers from every other deployed
    cell holding the channel; noise spans one channel bandwidth.
    """
    serving, table, _ = link_state(state, grid, params)
    serving_cell = state.cells[serving.pixel_col[pixel]]
    if channel not in serving_cell.channels:
        raise ValueError(f"channel {channel} not allocated at serving cell "
                         f"{serving_cell.cell_id}")
    return float(table[pixel, channel])


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
    sinr_db: np.ndarray
    pixel_se: np.ndarray
    avg_se: dict[int, float]
    capacity_mbps: dict[int, float]


def link_state(state: NetworkState, grid: GridSpec, params: PropagationParams,
               cache: LinkCache | None = None
               ) -> tuple[ServingMap, np.ndarray, np.ndarray]:
    """Weight-independent link quantities from each cell's rx columns (from
    ``cache`` if given): serving map, SINR table (NaN where the serving cell
    does not hold the channel) and per-pixel SE.  Serving is a running
    strict ``>`` in cell order, so ties go to the lowest cell id.  A
    channel's total adds its holders' mW columns in cell order, the
    additions numpy makes summing those matrix columns along axis 1.  SE is
    computed only where the serving cell holds the channel."""
    rx_dbm, rx_lin = rx_power_matrix(state, grid, params, cache)
    best = rx_dbm[0].copy()
    serving_col = np.zeros(best.size, dtype=np.intp)
    for j, col in enumerate(rx_dbm[1:], start=1):
        serving_col[col > best] = j
        np.maximum(best, col, out=best)
    serving = ServingMap(state.cell_ids, np.array(state.cell_ids)[serving_col], serving_col)
    s_lin = np.empty(best.size)
    for lin, pixels in zip(rx_lin, serving.cell_pixels.values()):
        s_lin[pixels] = lin[pixels]

    noise_lin = 10.0 ** (noise_floor_dbm(params) / 10.0)
    table = np.full((best.size, params.num_channels), np.nan)
    se_table = np.zeros(table.shape)
    for ch in range(params.num_channels):
        holders = np.array([ch in c.channels for c in state.cells])
        if holders.any():
            lin = [rx_lin[j] for j in np.flatnonzero(holders)]
            hold = holders[serving_col]
            s = s_lin[hold]
            total = sum(lin[1:], lin[0])        # ((lin[0] + lin[1]) + lin[2]) + ...
            sinr_db = 10.0 * np.log10(s / ((total[hold] - s) + noise_lin))
            table[hold, ch], se_table[hold, ch] = sinr_db, spectral_efficiency(sinr_db, params)
    return serving, table, serving_mean(state, serving, se_table)
