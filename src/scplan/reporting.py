"""File outputs: rasters, tables, action changelogs and run summaries.

All writers are deterministic: fixed row order, shortest-round-trip float
formatting, no timestamps.  Raster CSVs round-trip value-identically.
"""
from __future__ import annotations

import csv
import json
from functools import lru_cache
from itertools import islice, product
from pathlib import Path

import numpy as np

from .monitor import CellCheck, SlaExceedNotice
from .planner import (ActionLedger, AddCell, AddChannel, Relocate, RemoveCell,
                      RemoveChannel)
from .scenario import GridSpec, NetworkState, ScenarioError, left_sum, pixel_positions


_ROWS_PER_WRITE = 4096
_GRAY_LEVELS = [str(g) for g in range(256)]


def _write_csv(path, header: list, rows) -> Path:
    """``header``, then each of ``rows``, through one ``csv.writer``."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    return Path(path)


def _fmt(x: float) -> str:
    return repr(float(x))


def _fmt_all(values) -> map:
    """``_fmt`` of every element, through one conversion to Python floats."""
    return map(repr, np.asarray(values, dtype=float).tolist())


@lru_cache(maxsize=1)
def _row_blocks(grid: GridSpec) -> tuple[str, ...]:
    """The CSV text of each block of ``_ROWS_PER_WRITE`` pixels, ``%r`` in
    place of every value: each row is ``\\r\\n``, ``index,x_m,y_m,`` and ``%r``."""
    pos = pixel_positions(grid)
    rows = enumerate(product(_fmt_all(pos[::grid.nx, 1]), list(_fmt_all(pos[:grid.nx, 0]))))
    return tuple("".join(f"\r\n{i},{x},{y},%r" for i, (y, x) in islice(rows, _ROWS_PER_WRITE))
                 for _ in range(0, grid.num_pixels, _ROWS_PER_WRITE))


def write_raster_csv(path, grid: GridSpec, values: np.ndarray) -> Path:
    """One row per pixel: index, x_m, y_m, value, as ``csv.writer`` writes it.

    The text before each value depends on the grid alone and is formatted
    once per grid (the last grid is kept); each raster formats its values
    only, in blocks of ``_ROWS_PER_WRITE`` rows, one ``%`` and ``write``
    each, which bound the text held: 0.79 MB at 17 956 pixels, against
    1.73 MB as one string per row."""
    path = Path(path)
    flat = np.asarray(values, dtype=float).reshape(grid.num_pixels)
    with path.open("w", newline="") as fh:
        fh.write("index,x_m,y_m,value")
        for start, rows in zip(range(0, grid.num_pixels, _ROWS_PER_WRITE), _row_blocks(grid)):
            fh.write(rows % tuple(flat[start:start + _ROWS_PER_WRITE].tolist()))
        fh.write("\r\n")
    return path


def write_raster_pgm(path, grid: GridSpec, values: np.ndarray) -> Path:
    """Grayscale PGM (ASCII P2) for quick viewing; finite values scaled to
    0..255 between their min and max."""
    path = Path(path)
    v = np.asarray(values, dtype=float).reshape(grid.ny, grid.nx)
    finite = v[np.isfinite(v)]
    lo, hi = (float(finite.min()), float(finite.max())) if finite.size else (0.0, 1.0)
    span = hi - lo if hi > lo else 1.0
    gray = np.clip(np.nan_to_num(v, nan=lo, neginf=lo, posinf=hi), lo, hi)
    gray = np.round((gray - lo) / span * 255).astype(int)
    lines = ["P2", f"{grid.nx} {grid.ny}", "255"]
    lines.extend(" ".join([_GRAY_LEVELS[g] for g in row]) for row in gray.tolist())
    path.write_text("\n".join(lines) + "\n")
    return path


def write_monitor_log(path, checks: list[CellCheck], fired_steps: set[int]) -> Path:
    return _write_csv(path, ["t", "cell", "required_mhz", "threshold_mhz", "violation",
                             "counter", "fired"],
                      ([c.t, c.cell_id, _fmt(c.required_mhz), _fmt(c.threshold_mhz),
                        int(c.violation), c.counter, int(c.t in fired_steps)]
                       for c in checks))


def write_notifications(path, notices: list[tuple[int, SlaExceedNotice]]) -> Path:
    return _write_csv(path, ["t", "tenant", "total_demand_mbps", "contracted_mbps"],
                      ([t, n.tenant_id, _fmt(n.total_demand_mbps), _fmt(n.contracted_mbps)]
                       for t, n in notices))


def _action_entry(a) -> tuple[list, str]:
    """An action's ``actions.csv`` columns from ``action`` on, and its
    changelog line."""
    if isinstance(a, AddChannel):
        return (["add_channel", a.cell_id, "", a.channel],
                f"add channel {a.channel} to cell {a.cell_id}")
    if isinstance(a, RemoveChannel):
        return (["remove_channel", a.cell_id, "", a.channel],
                f"remove channel {a.channel} from cell {a.cell_id}")
    if isinstance(a, AddCell):
        return (["add_cell", a.cell_id, a.site_pixel, " ".join(str(c) for c in a.channels)],
                f"deploy cell {a.cell_id} at pixel {a.site_pixel} on channel(s) "
                + ", ".join(str(c) for c in a.channels))
    if isinstance(a, RemoveCell):
        return (["remove_cell", a.cell_id, "" if a.site_pixel is None else a.site_pixel, ""],
                f"decommission cell {a.cell_id}")
    if isinstance(a, Relocate):
        return (["relocate", f"{a.from_cell_id}->{a.to_cell_id}", a.to_site_pixel,
                 " ".join(str(c) for c in a.channels)],
                f"relocate cell {a.from_cell_id} to pixel {a.to_site_pixel} "
                f"(new cell {a.to_cell_id})")
    raise TypeError(f"unknown action {a!r}")


def write_actions_csv(path, ledgers: list[tuple[int, ActionLedger]],
                      raw: bool = False) -> Path:
    actions = ((t, a) for t, ledger in ledgers
               for a in (ledger.raw_actions if raw else ledger.actions))
    return _write_csv(path, ["order", "t", "algorithm_step", "action", "cell", "site",
                             "channels"],
                      ([order, t, a.step, *_action_entry(a)[0]]
                       for order, (t, a) in enumerate(actions)))


def write_changelog(path, ledgers: list[tuple[int, ActionLedger]]) -> Path:
    path = Path(path)
    lines = ["# planning changelog"]
    for t, ledger in ledgers:
        lines.append(f"step {t}: {len(ledger.actions)} action(s)")
        for a in ledger.actions:
            lines.append(f"  - {_action_entry(a)[1]}")
        for note in ledger.notes:
            lines.append(f"  note: {note}")
    path.write_text("\n".join(lines) + "\n")
    return path


def write_bandwidth_table(path, rows: list[tuple[int, float]]) -> Path:
    """Per-cell required bandwidth plus a totals row, the ``left_sum`` of
    the rows in their order, as ``NetworkEvaluation.total_required`` sums."""
    return _write_csv(path, ["cell", "required_mhz"],
                      [*([cell_id, _fmt(mhz)] for cell_id, mhz in rows),
                       ["total", _fmt(left_sum(mhz for _, mhz in rows))]])


def read_bandwidth_table(path) -> tuple[list[tuple[str, float]], float]:
    """The cell rows and the total of a ``write_bandwidth_table`` file;
    ``ScenarioError`` naming the file if it is not one."""
    path = Path(path)
    try:
        with path.open(newline="") as fh:
            rows = list(csv.reader(fh))
        if rows[:1] != [["cell", "required_mhz"]] or rows[-1][:1] != ["total"]:
            raise ValueError("want a 'cell,required_mhz' header and a final 'total' row")
        return [(r[0], float(r[1])) for r in rows[1:-1]], float(rows[-1][1])
    except (IndexError, ValueError, csv.Error) as exc:
        raise ScenarioError(f"bad bandwidth table {path}: {exc}") from exc


def write_layout_fragment(path, state: NetworkState) -> Path:
    """Scenario-file fragment with the deployed cells, so runs can chain."""
    path = Path(path)
    doc = {"initial_cells": [
        {"id": c.cell_id, "site_pixel": c.site_pixel,
         "channels": list(c.channels), "power_dbm": c.power_dbm}
        for c in state.cells]}
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path


def write_plan_files(out, ledgers: list[tuple[int, ActionLedger]], state: NetworkState,
                     rows: list[tuple[int, float]]) -> list[Path]:
    """A planning outcome's files in ``out``: both action tables, the
    changelog, the bandwidth table of ``rows`` and the layout of ``state``."""
    out = Path(out)
    return [write_actions_csv(out / "actions.csv", ledgers),
            write_actions_csv(out / "actions_raw.csv", ledgers, raw=True),
            write_changelog(out / "changelog.txt", ledgers),
            write_bandwidth_table(out / "bandwidth_table.csv", rows),
            write_layout_fragment(out / "layout.json", state)]


def write_spec_csv(path, tenant_id: str, level: str,
                   values: dict[int, float] | np.ndarray) -> Path:
    """Planning-spec export: one row per cell or per pixel."""
    targets = sorted(values) if isinstance(values, dict) else range(len(values))
    values = [values[c] for c in targets] if isinstance(values, dict) else values
    return _write_csv(path, ["tenant", "level", "target", "value_mbps"],
                      ([tenant_id, level, i, v] for i, v in zip(targets, _fmt_all(values))))
