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
from collections.abc import Iterable
from dataclasses import dataclass, replace
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .scenario import (GridSpec, NetworkState, ServingMap, is_count, is_real,
                       pixel_positions, positive, require_fields)

MIN_DISTANCE_M = 1.0    # clamp below this to keep log10 finite at a cell's own pixel
POWER_TOL_DB = 0.01     # the power solve stops once no power moves this much
POWER_MAX_ITER = 50     # or after this many iterations


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
    slope, intercept = (16.9, 32.8) if params.pathloss_variant == "los" else (43.3, 11.5)
    if not isinstance(d, np.ndarray):
        pl = slope * np.log10(d) + intercept + f_term
        return float(pl) if np.isscalar(distance_m) else pl
    np.log10(d, out=d)          # in place, the same floats: d is new
    d *= slope
    d += intercept
    d += f_term
    return d


def _mw(dbm: np.ndarray) -> np.ndarray:
    """``10.0 ** (dbm / 10.0)``, formed in one new array."""
    out = dbm / 10.0
    return np.power(10.0, out, out=out)


def noise_floor_dbm(params: PropagationParams) -> float:
    """Thermal noise over one channel bandwidth plus the terminal noise figure."""
    return (params.thermal_noise_dbm_per_hz
            + 10.0 * math.log10(params.channel_bandwidth_mhz * 1e6)
            + params.noise_figure_db)


class LinkCache:
    """Radio quantities of one run that depend on the layout alone, on the
    cache's ``grid`` and radio ``params``, and the one home of what a layout
    keeps between its evaluations; nothing is process-global.

    For the cells of the last layout seen it holds the path-loss column of
    each site and the mW received-power column of each (site, power), so a
    layout that differs from it by a cell or a power computes only that
    cell's columns (see ``rx_power_matrix``); the link state of the last
    layout linked (see ``link``); and the last full build, SINR table
    included (see ``sinr_table``), on which ``link_state`` builds a site
    search's trials as deltas.  ``prepare_search`` keeps a search's base as
    that build and solves its trials' powers in one batch.  Two full builds
    never coexist.

    Until another layout is linked, the last one keeps each raster it is
    evaluated on gathered into its pixel order (see ``ordered``) and the
    per-cell sums of each spec raster (see ``sums``); a trial of the last
    search, evaluated once, keeps nothing unless it is linked again, as a
    search's winner may be.

    Memoized arrays and mW columns are read-only.  The rasters of every
    context that shares a cache stay unchanged while any of them is in use.
    """

    def __init__(self, grid: GridSpec, params: PropagationParams):
        self.grid, self.params = grid, params
        self._xy = np.ascontiguousarray(pixel_positions(grid).T)
        self._path_loss, self._linear, self._trials = {}, {}, {}
        self._layout, self._built, self._kept = (), (), None

    def link(self, state: NetworkState):
        """``(powered state, serving, pixel SE)`` of ``state``: the kept one
        if ``state`` is the kept layout or its powered state (powers depend
        on the layout alone), which keeps from then on; else ``state`` is
        powered (as solved by the last ``prepare_search`` if it is one of
        its trials, else by ``configure_powers``), built by ``link_state``
        and kept, after what the last layout kept is released."""
        if state in self._layout[:2]:
            self._kept = {} if self._kept is None else self._kept
            return self._layout[1:]
        powered = self._trials.get(state)
        self._kept = {} if powered is None else None    # a trial keeps nothing
        if powered is None:
            powered = configure_powers(state, self.grid, self.params)
        serving, pixel_se = link_state(powered, self)
        pixel_se.flags.writeable = False
        self._layout = (state, powered, serving, pixel_se)
        return self._layout[1:]

    def ordered(self, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``values`` in the pixel order of the last layout linked (see
        ``ServingMap.ordered``): the layout's read-only gather, made once,
        if it keeps; else gathered now, into ``out`` if given."""
        if self._kept is None:
            return self._layout[2].ordered(values, out)
        kept = self._kept.get(("gather", id(values)), (None,))
        if kept[0] is not values:
            kept = self._kept["gather", id(values)] = values, self._layout[2].ordered(values)
            kept[1].flags.writeable = False         # values is held: its id stays
        return kept[1]

    def sums(self, values: np.ndarray) -> dict[int, float] | None:
        """A copy of the per-cell sums of the raster ``values`` that the last
        layout linked keeps (see ``keep_sums``), or None."""
        kept = (self._kept or {}).get(("sums", id(values)), (None,))
        return dict(kept[1]) if kept[0] is values else None

    def keep_sums(self, values: np.ndarray, sums: dict[int, float]):
        """Keep a copy of ``sums``, the raster ``values``'s per-cell sums on
        the last layout linked, if it keeps; ``values`` must not change."""
        if self._kept is not None:
            self._kept["sums", id(values)] = values, dict(sums)

    def sinr_table(self, state: NetworkState):
        """SINR (pixels, channels) of the powered layout ``state``, NaN where
        its serving cell does not hold the channel; read-only."""
        return self._full(state).table

    def _full(self, state: NetworkState):
        """The full build of ``state``: the kept one, else one made now and kept."""
        if state not in self._built[:1]:
            self._built = ()        # two full builds never coexist
            self._built = state, _build(state, self)
        return self._built[1]

    def prepare_search(self, state: NetworkState, trials: list[NetworkState]):
        """Ready a site search from ``state`` over ``trials``, its layouts:
        keep the full build of ``state`` powered, on which ``link_state``
        builds each trial as a delta, and solve the trials' powers in one
        batch by ``solve_powers`` for ``link``."""
        powered = (self._layout[1] if state in self._layout[:2]
                   else configure_powers(state, self.grid, self.params))
        self._trials = dict(zip(trials, solve_powers(trials, self.grid, self.params)))
        self._full(powered)


class _Build(NamedTuple):
    """A layout's link state and the intermediates a site search reuses."""

    serving: ServingMap
    pixel_se: np.ndarray
    table: np.ndarray           # SINR (pixels, channels), read-only
    best: np.ndarray            # serving rx, dBm
    totals: list                # each channel's mW total, None without holders
    se_table: np.ndarray        # SE (pixels, channels), Fortran-ordered
    path_loss: list             # per cell
    linear: list                # per cell, mW


def _site_path_loss(site: int, cache: LinkCache) -> np.ndarray:
    """Path-loss column of one site, from contiguous x and y columns; the
    floats of ``sqrt(((pos - pos[site]) ** 2).sum(axis=1))``."""
    x, y = cache._xy
    dx, dy = x - x[site], y - y[site]
    dx *= dx
    dy *= dy
    dx += dy
    return path_loss(np.sqrt(dx, out=dx), cache.params)


def rx_power_matrix(state: NetworkState, cache: LinkCache
                    ) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """The (num_pixels, num_cells) received power as its columns, in dBm
    and in mW, cells in id order; no matrix is built.  A dBm column is
    ``(power + gain) - pl``, the float the whole-matrix broadcast gives;
    path-loss and mW columns come from ``cache`` when it holds them."""
    if not state.cells:
        raise ValueError("empty network")
    gain = cache.params.antenna_gain_db
    path_loss_by_site, linear, rx_dbm = {}, {}, []
    for c in state.cells:
        pl = cache._path_loss.get(c.site_pixel)
        if pl is None:
            pl = _site_path_loss(c.site_pixel, cache)
        path_loss_by_site[c.site_pixel] = pl
        rx_dbm.append((c.power_dbm + gain) - pl)
        key = (c.site_pixel, c.power_dbm)
        lin = cache._linear.get(key)
        if lin is None:
            lin = _mw(rx_dbm[-1])
            lin.flags.writeable = False
        linear[key] = lin
    cache._path_loss, cache._linear = path_loss_by_site, linear
    return rx_dbm, list(linear.values())


def serving_assignment(state: NetworkState, grid: GridSpec,
                       params: PropagationParams) -> ServingMap:
    """Attach every pixel to the strongest cell; ties go to the lowest cell id."""
    return link_state(state, LinkCache(grid, params))[0]


def configure_powers(state: NetworkState, grid: GridSpec,
                     params: PropagationParams) -> NetworkState:
    """Auto-configure transmit powers for a target cell-edge SINR.

    For each cell the inter-site distance is the distance to the nearest
    other deployed cell and the edge point lies toward that neighbor at
    ``edge_fraction * ISD``.  The power is solved so the SINR there hits
    ``edge_sinr_target_db`` against the single strongest co-channel
    interferer (at its current power) plus one channel of noise, clamped to
    [power_min_dbm, power_max_dbm].  Because the targets are coupled, the
    solve starts every non-fixed cell at maximum power and iterates until
    powers move less than ``POWER_TOL_DB``; the result depends only on the layout,
    never on the incoming power values.

    A single deployed cell (no interferer, no ISD) gets maximum power.
    Cells with ``power_fixed`` keep their power but still interfere.  This is
    ``solve_powers`` of the one layout.
    """
    return solve_powers([state], grid, params)[0]


def solve_powers(states: list[NetworkState], grid: GridSpec,
                 params: PropagationParams) -> list[NetworkState]:
    """``configure_powers`` of each of ``states`` in one fixed-point loop,
    with geometry and co-channel pairs computed once per batch.  Each layout
    iterates on its own floats with the one-layout arithmetic (a row max is
    order-free) until it meets ``POWER_TOL_DB`` or ``POWER_MAX_ITER``, so it gets the
    bits it gets alone.  Layouts of unequal cell counts raise ``ValueError``:
    a site search's trials all have one cell more than its base."""
    n = len(states[0].cells)
    if not n:
        raise ValueError("empty network")
    if any(len(s.cells) != n for s in states):
        raise ValueError("layouts of unequal cell counts")
    fixed = np.array([[c.power_fixed for c in s.cells] for s in states])
    powers = np.where(fixed, [[c.power_dbm for c in s.cells] for s in states],
                      params.power_max_dbm).astype(float)
    if n > 1:
        # (layout, cell) arrays, and (other cell, layout, cell) ones, so a
        # cell's strongest interferer is a max over the leading axis
        sites = pixel_positions(grid)[np.array([s.site_pixels for s in states])]
        pair_d = np.sqrt(((sites[:, :, None] - sites[:, None]) ** 2).sum(axis=3))
        pair_d[:, np.arange(n), np.arange(n)] = np.inf
        isd, nearest = pair_d.min(axis=2), np.argmin(pair_d, axis=2)[..., None]
        edge = np.take_along_axis(sites, nearest, axis=1)
        edge = sites + (edge - sites) * params.edge_fraction
        edge_d = np.sqrt(((edge[None] - sites.swapaxes(0, 1)[:, :, None]) ** 2).sum(axis=3))
        held = [(t, i, ch) for t, s in enumerate(states) for i, c in enumerate(s.cells)
                for ch in c.channels]
        member = np.zeros((*fixed.shape, 1 + max(ch for *_, ch in held)), dtype=bool)
        member[tuple(zip(*held))] = True
        co_channel = (member @ member.transpose(0, 2, 1)).swapaxes(0, 1).copy()
        co_channel[np.arange(n), :, np.arange(n)] = False
        serving_pl = path_loss(params.edge_fraction * isd, params)
        edge_pl = path_loss(edge_d, params)
        noise_lin = 10.0 ** (noise_floor_dbm(params) / 10.0)
        live, p, fix = np.arange(len(states)), powers, fixed
        for _ in range(POWER_MAX_ITER):
            rx_edge = p.T[:, :, None] + params.antenna_gain_db - edge_pl
            rx_lin = np.where(co_channel, 10.0 ** (rx_edge / 10.0), 0.0)
            strongest = rx_lin.max(axis=0)
            required = (params.edge_sinr_target_db
                        + 10.0 * np.log10(strongest + noise_lin)
                        + serving_pl - params.antenna_gain_db)
            new = np.where(fix, p, np.clip(required, params.power_min_dbm,
                                           params.power_max_dbm))
            going = ~(np.abs(new - p).max(axis=1) < POWER_TOL_DB)
            powers[live], p = new, new
            if not going.all():         # freeze the layouts that converged
                live, p, fix, serving_pl = (a[going] for a in (live, p, fix, serving_pl))
                co_channel, edge_pl = co_channel[:, going], edge_pl[:, going]
                if not live.size:
                    break
    return [_with_powers(s, row) for s, row in zip(states, powers)]


def _with_powers(state: NetworkState, powers: np.ndarray) -> NetworkState:
    """``state`` with its cells at ``powers``: a cell whose power keeps its
    ``repr``, a ``float`` of the same value and sign of zero, is kept, and
    so is ``state`` when every cell is."""
    cells = tuple(c if type(c.power_dbm) is float and c.power_dbm == p
                  and math.copysign(1.0, c.power_dbm) == math.copysign(1.0, p)
                  else replace(c, power_dbm=p) for c, p in zip(state.cells, powers.tolist()))
    if all(a is b for a, b in zip(cells, state.cells)):
        return state
    return replace(state, cells=cells)


def sinr(pixel: int, channel: int, state: NetworkState, grid: GridSpec,
         params: PropagationParams) -> float:
    """Serving-link SINR (dB) at a pixel on one channel.

    Interference is the sum of received powers from every other deployed
    cell holding the channel; noise spans one channel bandwidth.
    """
    b = _build(state, LinkCache(grid, params))
    serving_cell = state.cells[b.serving.pixel_col[pixel]]
    if channel not in serving_cell.channels:
        raise ValueError(f"channel {channel} not allocated at serving cell "
                         f"{serving_cell.cell_id}")
    return float(b.table[pixel, channel])


def spectral_efficiency(sinr_db, params: PropagationParams):
    """Truncated-Shannon mapping from SINR (dB) to b/s/Hz.

    Zero below ``sinr_min_db``, otherwise
    ``min(se_max, se_impl_factor * log2(1 + sinr))``.
    """
    arr = np.asarray(sinr_db, dtype=float)
    se = np.asarray(arr / 10.0)         # then in place, the same floats
    np.power(10.0, se, out=se)
    se += 1.0
    np.log2(se, out=se)
    se *= params.se_impl_factor
    np.minimum(se, params.se_max_bps_hz, out=se)
    se[arr < params.sinr_min_db] = 0.0
    return float(se) if np.isscalar(sinr_db) else se


def serving_mean(state: NetworkState, serving: ServingMap, table: np.ndarray,
                 cells: Iterable[int] | None = None,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Per-pixel mean of a (pixel, channel) table, such as SE or SINR, over
    the serving cell's allocated channels, written into ``out`` (a new
    array by default) at the pixels of ``cells``, positions in
    ``state.cells`` (every cell, so every pixel, by default); returns
    ``out``.  Each cell's means are ``table[np.ix_(pixels, channels)]
    .mean(axis=1)`` over its ``cell_pixels``, with its bits: below 8
    channels that adds one channel's gather after another, left to right,
    and divides, and from 8 on, where numpy switches to pairwise blocks, it
    is that ``mean``."""
    out = np.empty(table.shape[0]) if out is None else out
    groups, columns = list(serving.cell_pixels.values()), table.T
    for j in range(len(groups)) if cells is None else cells:
        pixels, channels = groups[j], state.cells[j].channels
        if len(channels) >= 8:
            out[pixels] = table[np.ix_(pixels, channels)].mean(axis=1)
        elif len(channels) == 1:
            out[pixels] = columns[channels[0]][pixels]      # x / 1 is x
        elif pixels.size:
            mean = columns[channels[0]][pixels]
            for ch in channels[1:]:
                mean += columns[ch][pixels]
            out[pixels] = mean / len(channels)
    return out


def average_se(serving: ServingMap, pixel_se: np.ndarray,
               totals: dict[int, float] | None = None,
               weighted: dict[int, float] | None = None) -> dict[int, float]:
    """Each cell's demand-weighted mean SE over the pixels it serves, in
    ``cell_ids`` order, from per-cell sums of the weights, ``totals``, and
    of SE times the weights, ``weighted``, both in the map's pixel order
    (rows of one ``serving.slice_sums``); a uniform mean where the served
    demand totals zero or no ``totals`` are given, 0 for a cell that serves
    no pixels.  With the bits of ``(se * w).sum() / w.sum()`` or
    ``se.mean()`` over the cell's pixels."""
    out, uniform = {}, None
    for cid, span in serving.cell_slices.items():
        size = span.stop - span.start
        if not size:
            out[cid] = 0.0
        elif totals is not None and totals[cid] > 0:
            out[cid] = weighted[cid] / totals[cid]
        else:
            uniform = uniform or serving.cell_sums(pixel_se)
            out[cid] = uniform[cid] / size
    return out


def cell_capacity(num_channels: int, avg_se: float, params: PropagationParams) -> float:
    """Capacity in Mbps: allocated bandwidth (MHz) times average SE."""
    return num_channels * params.channel_bandwidth_mhz * avg_se


def link_state(state: NetworkState, cache: LinkCache) -> tuple[ServingMap, np.ndarray]:
    """Weight-independent link quantities from each cell's rx columns, on
    ``cache``'s grid and radio: serving map and per-pixel SE.  Serving is a running
    strict ``>`` in cell order, so ties go to the lowest cell id.  A
    channel's total adds its holders' mW columns in cell order, as numpy
    sums the Fortran-ordered ``rx[:, holders]`` along axis 1; a C-ordered
    stack sums pairwise from 8 holders on and moves bits the week's report
    hashes see.  SE is computed only where the serving cell holds the
    channel, the only entries the per-pixel mean reads.

    A layout that is the full build kept in ``cache`` plus one trailing
    cell, powers aside, as every site-search trial is (cells sort by id and
    a new cell's id is the largest), is built as a delta on that build,
    with the same bytes; any other layout gets the full build, kept in
    ``cache`` with its SINR table (see ``LinkCache.sinr_table``)."""
    if cache._built and _extends(cache._built[0], state):
        return _trial_link(*cache._built, state, cache)
    return cache._full(state)[:2]


def _running_max(columns: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise max of ``columns`` and the index of the first column
    holding it: a running strict ``>``, so ties go to the lowest index."""
    best = columns[0].copy()
    col = np.zeros(best.size, dtype=np.intp)
    for j, column in enumerate(columns[1:], start=1):
        col[column > best] = j
        np.maximum(best, column, out=best)
    return best, col


def _holders(state: NetworkState, params: PropagationParams) -> list[np.ndarray]:
    """For each channel, which cells hold it, in cell order."""
    return [np.array([ch in c.channels for c in state.cells])
            for ch in range(params.num_channels)]


def _fill(se_table: np.ndarray, ch: int, pixels: np.ndarray, s: np.ndarray,
          total: np.ndarray, params: PropagationParams) -> np.ndarray:
    """SE on channel ``ch`` at ``pixels``, whose serving cells hold it, from
    ``s``, their serving mW, and ``total``, the channel's mW total there;
    returns their SINR, dB."""
    sinr_db = total - s         # then in place: 10 log10(s / ((total - s) + noise))
    sinr_db += 10.0 ** (noise_floor_dbm(params) / 10.0)
    np.divide(s, sinr_db, out=sinr_db)
    np.log10(sinr_db, out=sinr_db)
    sinr_db *= 10.0
    se_table[:, ch][pixels] = spectral_efficiency(sinr_db, params)
    return sinr_db


def _build(state: NetworkState, cache: LinkCache) -> _Build:
    """The full link state of ``state``, see ``link_state``."""
    params = cache.params
    rx_dbm, rx_lin = rx_power_matrix(state, cache)
    best, serving_col = _running_max(rx_dbm)
    serving = ServingMap(state.cell_ids, np.array(state.cell_ids)[serving_col], serving_col)
    s_lin = np.empty(best.size)
    for lin, pixels in zip(rx_lin, serving.cell_pixels.values()):
        s_lin[pixels] = lin[pixels]

    # Fortran order: each channel's column is contiguous, as it is filled and read
    table = np.full((best.size, params.num_channels), np.nan, order="F")
    se_table = np.zeros(table.shape, order="F")
    totals = []
    for ch, holders in enumerate(_holders(state, params)):
        total = None
        if holders.any():
            lin = [rx_lin[j] for j in holders.nonzero()[0]]
            total = sum(lin[1:], lin[0])        # ((lin[0] + lin[1]) + lin[2]) + ...
            at = holders[serving_col].nonzero()[0]
            table[:, ch][at] = _fill(se_table, ch, at, s_lin[at], total[at], params)
        totals.append(total)
    table.flags.writeable = False
    return _Build(serving, serving_mean(state, serving, se_table), table, best,
                  totals, se_table, [cache._path_loss[p] for p in state.site_pixels], rx_lin)


def _extends(base: NetworkState, state: NetworkState) -> bool:
    """Whether ``state`` is ``base`` plus one trailing cell, powers aside."""
    return len(state.cells) == len(base.cells) + 1 and all(
        (c.cell_id, c.site_pixel, c.channels) == (b.cell_id, b.site_pixel, b.channels)
        for c, b in zip(state.cells, base.cells))


def _serve_trial(best: np.ndarray, col: np.ndarray, touched: dict[int, np.ndarray], n: int,
                 lost: np.ndarray, at_lost: list[np.ndarray]) -> None:
    """Turn a base's running max ``best`` and serving column ``col`` (see
    ``_running_max``) into a trial's serving column, in place.

    ``touched`` maps each touched column, by ascending index with the new
    one, ``n``, last, to its dBm column.  A column takes a pixel where it
    beats the running max, or ties it and comes before the winner, so it is
    compared only on ``(d >= best).nonzero()[0]``.  A base winner whose
    power rose keeps its pixels, since ``(p' + g) - pl >= (p + g) - pl``;
    where it fell, at ``lost``, the max starts over on ``at_lost``, every
    trial column at those pixels."""
    for j, d in touched.items():
        at = (d >= best).nonzero()[0]
        d_at, best_at = d[at], best[at]
        take = d_at > best_at
        if j < n:
            take |= (d_at == best_at) & (col[at] > j)
        at = at[take]
        col[at] = j
        best[at] = d_at[take]
    if lost.size:
        col[lost] = _running_max(at_lost)[1]


def _channel_total(b: _Build, ch: int, hs: list[int], lin: dict[int, np.ndarray],
                   at: np.ndarray) -> np.ndarray:
    """A trial's mW total of channel ``ch`` at ``at``: its holders ``hs``
    added in cell order, as the full build adds them.  ``lin`` maps each
    touched holder to its mW at ``at`` and gains the gather of each
    untouched holder after the first touched one, which is added at ``at``.
    The holders before it are the base build's total when they are all its
    holders, else are added on the whole grid, where contiguous adds cost
    less than gathering each column."""
    first = next(i for i, j in enumerate(hs) if j in lin)
    if first and hs[first] == len(b.linear):
        total = b.totals[ch][at]        # every base holder is untouched
    elif first:
        total = b.linear[hs[0]].copy()
        for j in hs[1:first]:
            total += b.linear[j]
        total = total[at]
    else:
        total = lin[hs[0]].copy()
    for j in hs[first + (not first):]:
        if j not in lin:
            lin[j] = b.linear[j][at]
        total += lin[j]
    return total


def _trial_link(base: NetworkState, b: _Build, state: NetworkState,
                cache: LinkCache) -> tuple[ServingMap, np.ndarray]:
    """``link_state`` of ``state``, the kept ``base`` plus one trailing
    cell, as a delta on ``b``, the base's full build, with no SINR table.

    It works on index sets, not full-grid masks.  Only the touched cells,
    the new one and those whose power moved, get dBm columns (see
    ``_serve_trial``).  A channel with a touched holder is refilled at its
    holders' pixels, their groups in the trial's ``cell_pixels``, and only
    there are the touched holders' mW and the channel's total formed; a
    channel without one is refilled at the restarted pixels its holders now
    serve.  Pixel SE is re-averaged at both.  Every value is the full
    build's float, from the same operands in the same order, so the bytes
    are the same."""
    cells, n, params = state.cells, len(base.cells), cache.params
    gain = params.antenna_gain_db
    pl = [*b.path_loss, _site_path_loss(cells[n].site_pixel, cache)]
    dbm = {j: (c.power_dbm + gain) - pl[j] for j, (c, o) in enumerate(zip(cells, base.cells))
           if c.power_dbm != o.power_dbm}
    base_groups = list(b.serving.cell_pixels.values())
    fell = [j for j in dbm if cells[j].power_dbm < base.cells[j].power_dbm]
    lost = np.concatenate([base_groups[j] for j in fell] or [np.empty(0, np.intp)])
    at_lost = [(c.power_dbm + gain) - pl[j][lost] for j, c in enumerate(cells)] if fell else []
    dbm[n] = (cells[n].power_dbm + gain) - pl[n]
    best = b.best.copy()
    col = b.serving.pixel_col.astype(np.intp)  # indexes much faster than the small type
    _serve_trial(best, col, dbm, n, lost, at_lost)
    serving = ServingMap(state.cell_ids, np.array(state.cell_ids)[col], col)

    groups = list(serving.cell_pixels.values())
    lost_col = col[lost]
    redo = set(np.bincount(lost_col).nonzero()[0].tolist())     # cells to re-average
    s_lost = np.empty(lost.size)        # mW of a restarted pixel's server, if untouched
    for j in redo:
        if j not in dbm:
            at = (lost_col == j).nonzero()[0]
            s_lost[at] = b.linear[j][lost[at]]
    se_table = b.se_table.copy(order="F")      # each changed entry that is read is refilled
    for ch, holders in enumerate(_holders(state, params)):
        hs = holders.nonzero()[0].tolist()
        if not any(j in dbm for j in hs):
            at = holders[lost_col]      # same total: only the restarted pixels its holders serve
            if at.any():
                _fill(se_table, ch, lost[at], s_lost[at], b.totals[ch][lost[at]], params)
            continue
        at = np.concatenate([groups[j] for j in hs])
        lin = {j: _mw(dbm[j][at]) for j in hs if j in dbm}
        total = _channel_total(b, ch, hs, lin, at)
        ends = list(accumulate(groups[j].size for j in hs))
        s = np.concatenate([lin[j][a:e] if j in lin else b.linear[j][groups[j]]
                            for j, a, e in zip(hs, [0, *ends], ends)])
        _fill(se_table, ch, at, s, total, params)
        redo.update(hs)
    pixel_se = serving_mean(state, serving, se_table, redo, b.pixel_se.copy())
    return serving, pixel_se
