"""Incremental capacity planning: expand, then trim, via greedy actions.

One planning invocation runs four loops in sequence, re-evaluating the
network performance model after every action:

  1. add channels to cells whose requirement exceeds the utilization
     threshold, until they are at the per-cell channel cap;
  2. add cells (exhaustive search over free candidate sites, minimizing the
     summed requirement) while any cell's requirement exceeds the
     densification bar and the cell budget allows;
  3. remove channels from clearly over-provisioned cells;
  4. remove cells whose requirement has become negligible.

Every action is recorded in a ledger; opposite actions cancel out and a
removal paired with an addition compresses into a relocation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .evaluation import EvaluationContext, NetworkEvaluation, evaluate_state
from .radio import PropagationParams, configure_powers
from .scenario import (CandidateSiteSet, GridSpec, NetworkState, SmallCell, in_unit,
                       is_count, pixel_positions, require_fields)


@dataclass(frozen=True)
class PlannerParams:
    beta: float = 0.7               # channel-removal threshold factor
    gamma: float = 0.05             # cell-removal threshold factor
    k_max: int = 2                  # channels per cell cap
    n_max_sc: int = 10              # deployed-cell budget
    alpha: float = 0.9              # shared with the monitor
    step4_mode: str = "printed"     # densification bar: "printed" | "kmax"

    def __post_init__(self):
        require_fields(self, ("planner.beta_range", "beta", in_unit, "in [0, 1]"),
                       ("planner.gamma_range", "gamma", in_unit, "in [0, 1]"),
                       ("planner.alpha_range", "alpha", in_unit, "in [0, 1]"),
                       ("planner.k_max_positive", "k_max", is_count, "an integer >= 1"),
                       ("planner.n_max_positive", "n_max_sc", is_count, "an integer >= 1"),
                       ("planner.step4_mode", "step4_mode",
                        lambda m: m in ("printed", "kmax"), "'printed' or 'kmax'"))

    def densification_bar_mhz(self, bandwidth_mhz: float, num_cells: int) -> float:
        """Requirement level above which another cell is added.

        The default form scales with the current cell count divided by
        (budget / channel cap), so the bar rises as the network densifies;
        the alternative is a flat bar of one fully-loaded cell.
        """
        if self.step4_mode == "kmax":
            return bandwidth_mhz * self.k_max
        return bandwidth_mhz * num_cells / (self.n_max_sc / self.k_max)


@dataclass(frozen=True)
class AddChannel:
    cell_id: int
    channel: int
    step: int | None = None


@dataclass(frozen=True)
class RemoveChannel:
    cell_id: int
    channel: int
    step: int | None = None


@dataclass(frozen=True)
class AddCell:
    cell_id: int
    site_pixel: int
    channels: tuple[int, ...]
    step: int | None = None


@dataclass(frozen=True)
class RemoveCell:
    cell_id: int
    site_pixel: int | None = None
    step: int | None = None


@dataclass(frozen=True)
class Relocate:
    from_cell_id: int
    to_cell_id: int
    to_site_pixel: int
    channels: tuple[int, ...]
    from_site_pixel: int | None = None
    step: int | None = None


@dataclass(frozen=True)
class ActionLedger:
    """Planning actions in execution order, plus the compressed view.

    Replaying either ``raw_actions`` or ``actions`` (compressed) from the
    state the plan started from yields the same final state.
    """

    actions: tuple = ()
    raw_actions: tuple = ()
    notes: tuple[str, ...] = ()


def _nearest_holder_distance(site_pixel: int, channel: int, state: NetworkState,
                             grid: GridSpec, exclude_cell: int | None = None) -> float:
    pos = pixel_positions(grid)
    x, y = pos[site_pixel]
    best = math.inf
    for c in state.cells:
        if c.cell_id != exclude_cell and channel in c.channels:
            hx, hy = pos[c.site_pixel]
            best = min(best, math.hypot(x - hx, y - hy))
    return best


def _best_channel(site_pixel: int, held, state: NetworkState, grid: GridSpec,
                  params: PropagationParams, exclude_cell: int | None = None) -> int:
    """Channel not in ``held`` whose nearest co-channel cell is farthest from
    ``site_pixel``; with nothing held, the initial channel of a new cell."""
    candidates = [ch for ch in range(params.num_channels) if ch not in held]
    if not candidates:
        raise ValueError("channel-saturated")
    return max(candidates, key=lambda ch: _nearest_holder_distance(
        site_pixel, ch, state, grid, exclude_cell))


def select_channel(cell_id: int, state: NetworkState, grid: GridSpec,
                   params: PropagationParams) -> int:
    """Channel to add: the one whose nearest co-channel cell is farthest.

    Channels unused anywhere win outright; ties go to the lowest index.
    """
    cell = state.cell(cell_id)
    return _best_channel(cell.site_pixel, cell.channels, state, grid, params,
                         exclude_cell=cell_id)


def _channel_to_remove(cell_id: int, state: NetworkState, grid: GridSpec) -> int:
    """Channel to release: the one with the closest co-channel neighbor
    (mirror of the add rule); ties go to the lowest index."""
    cell = state.cell(cell_id)
    return min(cell.channels, key=lambda ch: _nearest_holder_distance(
        cell.site_pixel, ch, state, grid, exclude_cell=cell_id))


def select_site(state: NetworkState, candidates: CandidateSiteSet,
                ctx: EvaluationContext, new_cell_id: int) -> tuple[int, NetworkEvaluation]:
    """Exhaustively evaluate every free candidate site for one new cell.

    Each site is tried with a tentative cell (initial channel chosen by the
    max-min co-channel distance rule, powers reconfigured, serving re-derived
    and specs re-expressed) and the site minimizing the summed requirement
    wins; ties go to the lowest pixel index.  Returns the site and its
    trial's evaluation.  ``ctx.link_cache`` first keeps the full build of
    ``state`` and solves every trial's powers in one batch, so each trial's
    link state is built as a delta on the base.
    """
    occupied = set(state.site_pixels)
    free = [p for p in candidates.site_pixels if p not in occupied]
    if not free:
        raise ValueError("site-saturated")
    trials = [state.add_cell(SmallCell(new_cell_id, site,
                                       (_best_channel(site, (), state, ctx.grid, ctx.radio),),
                                       ctx.radio.power_max_dbm)) for site in free]
    ctx.link_cache.prepare_search(state, trials)
    best = None
    for site, trial in zip(free, trials):
        ev = evaluate_state(trial, ctx)
        key = (ev.total_required(), site)
        if best is None or key < best[0]:
            best = key, ev
    (_, site), ev = best
    return site, ev


def plan(state: NetworkState, candidates: CandidateSiteSet,
         ctx: EvaluationContext, params: PlannerParams
         ) -> tuple[NetworkState, ActionLedger]:
    """Run one full planning invocation and return the new state and ledger.

    The four loops run once each, in order; the model is re-evaluated after
    every action.  Cells reported as un-servable (infinite requirement)
    exceed every expansion threshold and never satisfy a trim condition.
    """
    bandwidth = ctx.radio.channel_bandwidth_mhz
    raw: list = []
    notes: list[str] = []
    next_id = max(state.cell_ids, default=0) + 1

    ev = evaluate_state(state, ctx)
    state = ev.state

    def act(state, action):
        # record an action and evaluate the layout it leaves
        raw.append(action)
        ev = evaluate_state(state, ctx)
        return ev.state, ev

    def expand_channels(state, ev):
        # add channels while a cell is over the utilization threshold
        while True:
            eligible = [
                c.cell_id for c in state.cells
                if ev.required_mhz[c.cell_id] > params.alpha * len(c.channels) * bandwidth
                and len(c.channels) < min(params.k_max, ctx.radio.num_channels)]
            if not eligible:
                break
            cell_id = min(eligible)
            ch = select_channel(cell_id, state, ctx.grid, ctx.radio)
            state, ev = act(state.add_channel(cell_id, ch), AddChannel(cell_id, ch, step=2))
        return state, ev

    state, ev = expand_channels(state, ev)

    # densify while a cell is over the rising bar and the budget allows
    while True:
        bar = params.densification_bar_mhz(bandwidth, len(state.cells))
        over = [cid for cid, b in ev.required_mhz.items() if b > bar]
        if not over or len(state.cells) >= params.n_max_sc:
            break
        if not set(candidates.site_pixels) - set(state.site_pixels):
            notes.append("saturated: no sites")
            break
        site, ev = select_site(state, candidates, ctx, next_id)
        state = ev.state
        raw.append(AddCell(next_id, site, state.cell(next_id).channels, step=5))
        next_id += 1

    # trim channels that are clearly over-provisioned
    while True:
        eligible = [
            c.cell_id for c in state.cells
            if len(c.channels) > 1
            and ev.required_mhz[c.cell_id] < params.beta * (len(c.channels) - 1) * bandwidth]
        if not eligible:
            break
        cell_id = min(eligible)
        ch = _channel_to_remove(cell_id, state, ctx.grid)
        state, ev = act(state.remove_channel(cell_id, ch), RemoveChannel(cell_id, ch, step=8))

    # remove near-empty cells, emptiest first, never the last cell
    while len(state.cells) > 1:
        empty = [cid for cid, b in ev.required_mhz.items() if b < params.gamma * bandwidth]
        if not empty:
            break
        cell_id = min(empty, key=lambda cid: (ev.required_mhz[cid], cid))
        site = state.cell(cell_id).site_pixel
        state, ev = act(state.remove_cell(cell_id), RemoveCell(cell_id, site, step=11))

    # final channel pass: cells deployed during densification start on one
    # channel, and trimming shifts load, so dimension channels once more to
    # leave no cell both short of spectrum and below its channel cap
    state, ev = expand_channels(state, ev)

    ledger = ActionLedger(actions=tuple(compress_actions(raw)),
                          raw_actions=tuple(raw), notes=tuple(notes))
    return state, ledger


def compress_actions(actions) -> list:
    """Cancel opposite actions and fold removal+addition pairs into moves.

    ``actions`` is a raw ledger: channel and cell additions and removals in
    execution order, no relocations.  Channel adds and removes on the same
    (cell, channel) cancel; a cell both created and removed in the ledger
    vanishes along with its channel edits; a surviving removal paired with a
    surviving addition becomes a relocation.  Replaying the result yields
    the same final state as the original sequence.  Assumes cell ids are not
    reused within one ledger (the planner never reuses them).

    A ledger from ``plan`` reaches neither the same-site pairing nor the
    break for an addition that no removal can pair with.  Densify runs
    before trim, so every ``AddCell`` precedes every ``RemoveCell``, and an
    added cell's site was free when it was added; so no surviving removal
    shares a site with a surviving addition.  The contract still covers any
    valid ledger: the hand-made ledgers in ``tests/test_planner.py`` reach
    both branches.
    """
    ch_net: dict[tuple[int, int], int] = {}
    ch_last: dict[tuple[int, int], object] = {}
    created: dict[int, AddCell] = {}
    removed: list[RemoveCell] = []
    order: list[int] = []
    for a in actions:
        if isinstance(a, (AddChannel, RemoveChannel)):
            key = (a.cell_id, a.channel)
            ch_net[key] = ch_net.get(key, 0) + (1 if isinstance(a, AddChannel) else -1)
            ch_last[key] = a
        elif isinstance(a, AddCell):
            created[a.cell_id] = a
            order.append(a.cell_id)
        elif isinstance(a, RemoveCell):
            if a.cell_id in created:
                del created[a.cell_id]          # created and dismantled: void
                order.remove(a.cell_id)
                ch_net = {k: v for k, v in ch_net.items() if k[0] != a.cell_id}
            else:
                removed.append(a)
        else:
            raise TypeError(f"unknown action {a!r}")
    # channel edits on removed cells are void; edits on created cells fold
    # into their final channel set
    removed_ids = {r.cell_id for r in removed}
    adds: list[AddCell] = []
    for cid in order:
        net = {ch: v for (cell_id, ch), v in ch_net.items() if cell_id == cid}
        channels = {*created[cid].channels, *(ch for ch, v in net.items() if v > 0)}
        channels -= {ch for ch, v in net.items() if v < 0}
        adds.append(replace(created[cid], channels=tuple(sorted(channels))))
    ch_edits = {k: v for k, v in ch_net.items()
                if v != 0 and k[0] not in removed_ids and k[0] not in created}

    # Pair removals with additions.  Same-site pairs first (an in-place swap
    # is always safe to replay atomically), then additions whose site does
    # not collide with a cell that is still awaiting removal.
    relocates: list[Relocate] = []
    for a in list(adds):
        match = next((r for r in removed if r.site_pixel == a.site_pixel), None)
        if match is not None:
            relocates.append(Relocate(match.cell_id, a.cell_id, a.site_pixel,
                                      a.channels, match.site_pixel, step=a.step))
            removed.remove(match)
            adds.remove(a)
    while removed and adds:
        pending_sites = {r.site_pixel for r in removed if r.site_pixel is not None}
        a = next((x for x in adds if x.site_pixel not in pending_sites), None)
        if a is None:
            break
        r = removed.pop(0)
        adds.remove(a)
        relocates.append(Relocate(r.cell_id, a.cell_id, a.site_pixel,
                                  a.channels, r.site_pixel, step=a.step))

    # channel additions, then removals, each in (cell, channel) order
    edits = sorted(ch_edits, key=lambda k: (ch_edits[k] < 0, k))
    return [*removed, *relocates, *adds, *(ch_last[k] for k in edits)]


def replay_actions(initial: NetworkState, actions, grid: GridSpec,
                   params: PropagationParams) -> NetworkState:
    """Apply a ledger literally, then derive powers from the final layout."""
    state = initial
    for a in actions:
        if isinstance(a, AddChannel):
            state = state.add_channel(a.cell_id, a.channel)
        elif isinstance(a, RemoveChannel):
            state = state.remove_channel(a.cell_id, a.channel)
        elif isinstance(a, AddCell):
            state = state.add_cell(SmallCell(a.cell_id, a.site_pixel, a.channels,
                                             params.power_max_dbm))
        elif isinstance(a, RemoveCell):
            state = state.remove_cell(a.cell_id)
        elif isinstance(a, Relocate):
            state = state.remove_cell(a.from_cell_id)
            state = state.add_cell(SmallCell(a.to_cell_id, a.to_site_pixel,
                                             a.channels, params.power_max_dbm))
        else:
            raise TypeError(f"unknown action {a!r}")
    return configure_powers(state, grid, params)
