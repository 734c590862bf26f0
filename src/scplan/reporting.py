"""File outputs: rasters, tables, action changelogs and run summaries.

All writers are deterministic: fixed row order, shortest-round-trip float
formatting, no timestamps.  Raster CSVs round-trip value-identically.
"""
from __future__ import annotations

import csv
import json
from itertools import chain, count, repeat
from pathlib import Path

import numpy as np

from .monitor import CellCheck, SlaExceedNotice
from .planner import (ActionLedger, AddCell, AddChannel, Relocate, RemoveCell,
                      RemoveChannel)
from .scenario import GridSpec, NetworkState, pixel_positions

__all__ = [
    "write_raster_csv",
    "read_raster_csv",
    "write_raster_pgm",
    "write_monitor_log",
    "write_notifications",
    "write_actions_csv",
    "write_changelog",
    "write_bandwidth_table",
    "read_bandwidth_table",
    "write_layout_fragment",
    "write_spec_csv",
]


def _fmt(x: float) -> str:
    return repr(float(x))


def _fmt_all(values) -> map:
    """``_fmt`` of every element, through one conversion to Python floats."""
    return map(repr, np.asarray(values, dtype=float).tolist())


def write_raster_csv(path, grid: GridSpec, values: np.ndarray) -> Path:
    """One row per pixel: index, x_m, y_m, value.

    Lines are formatted as ``csv.writer`` would write them; each distinct
    coordinate is formatted once.
    """
    path = Path(path)
    pos = pixel_positions(grid)
    xs = list(_fmt_all(pos[:grid.nx, 0]))
    x_col = chain.from_iterable(repeat(xs, grid.ny))
    y_col = chain.from_iterable(repeat(y, grid.nx) for y in _fmt_all(pos[::grid.nx, 1]))
    value_col = _fmt_all(np.reshape(values, grid.num_pixels))
    with path.open("w", newline="") as fh:
        fh.write("index,x_m,y_m,value\r\n")
        fh.writelines(map("{},{},{},{}\r\n".format, count(), x_col, y_col, value_col))
    return path


def read_raster_csv(path) -> np.ndarray:
    with Path(path).open(newline="") as fh:
        rows = list(csv.reader(fh))
    return np.array([float(r[3]) for r in rows[1:]])


def write_raster_pgm(path, grid: GridSpec, values: np.ndarray,
                     lo: float | None = None, hi: float | None = None) -> Path:
    """Grayscale PGM (ASCII P2) for quick viewing; finite values scaled to 0..255."""
    path = Path(path)
    v = np.asarray(values, dtype=float).reshape(grid.ny, grid.nx)
    finite = v[np.isfinite(v)]
    lo = float(finite.min()) if lo is None and finite.size else (lo or 0.0)
    hi = float(finite.max()) if hi is None and finite.size else (hi or 1.0)
    span = hi - lo if hi > lo else 1.0
    gray = np.clip(np.nan_to_num(v, nan=lo, neginf=lo, posinf=hi), lo, hi)
    gray = np.round((gray - lo) / span * 255).astype(int)
    lines = ["P2", f"{grid.nx} {grid.ny}", "255"]
    lines.extend(" ".join(map(str, row)) for row in gray.tolist())
    path.write_text("\n".join(lines) + "\n")
    return path


def write_monitor_log(path, checks: list[CellCheck], fired_steps: set[int]) -> Path:
    path = Path(path)
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "cell", "required_mhz", "threshold_mhz",
                    "violation", "counter", "fired"])
        for c in checks:
            w.writerow([c.t, c.cell_id, _fmt(c.required_mhz),
                        _fmt(c.threshold_mhz), int(c.violation), c.counter,
                        int(c.t in fired_steps)])
    return path


def write_notifications(path, notices: list[tuple[int, SlaExceedNotice]]) -> Path:
    path = Path(path)
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "tenant", "total_demand_mbps", "contracted_mbps"])
        for t, n in notices:
            w.writerow([t, n.tenant_id, _fmt(n.total_demand_mbps),
                        _fmt(n.contracted_mbps)])
    return path


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
    path = Path(path)
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["order", "t", "algorithm_step", "action", "cell", "site",
                    "channels"])
        order = 0
        for t, ledger in ledgers:
            for a in (ledger.raw_actions if raw else ledger.actions):
                w.writerow([order, t, a.step, *_action_entry(a)[0]])
                order += 1
    return path


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
    """Per-cell required bandwidth plus a totals row."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["cell", "required_mhz"])
        total = 0.0
        for cell_id, mhz in rows:
            w.writerow([cell_id, _fmt(mhz)])
            total += mhz
        w.writerow(["total", _fmt(total)])
    return path


def read_bandwidth_table(path) -> tuple[list[tuple[str, float]], float]:
    with Path(path).open(newline="") as fh:
        rows = list(csv.reader(fh))
    body = [(r[0], float(r[1])) for r in rows[1:-1]]
    total = float(rows[-1][1])
    return body, total


def write_layout_fragment(path, state: NetworkState) -> Path:
    """Scenario-file fragment with the deployed cells, so runs can chain."""
    path = Path(path)
    doc = {"initial_cells": [
        {"id": c.cell_id, "site_pixel": c.site_pixel,
         "channels": list(c.channels), "power_dbm": c.power_dbm}
        for c in state.cells]}
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path


def write_spec_csv(path, tenant_id: str, level: str,
                   values: dict[int, float] | np.ndarray) -> Path:
    """Planning-spec export: one row per cell or per pixel."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["tenant", "level", "target", "value_mbps"])
        if isinstance(values, dict):
            for cell_id in sorted(values):
                w.writerow([tenant_id, level, cell_id, _fmt(values[cell_id])])
        else:
            for i, v in enumerate(values):
                w.writerow([tenant_id, level, i, _fmt(v)])
    return path
