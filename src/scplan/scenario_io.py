"""Scenario file format: one JSON document describing a full experiment world.

Sections: grid, tenants (with hotspot demand models), candidate_sites
(fraction+seed or an explicit pixel list), initial_cells, radio, monitor,
planner, and an optional new-tenant arrival event.  Loading the JSON of
``scenario_to_dict`` is a value-exact round trip.

Loading is the one definition of a valid scenario: each dataclass checks
its own fields, the loader adds the checks that span sections and raises
one InvariantError listing every violation, and ``validate`` returns it.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from .monitor import MonitorParams
from .planner import PlannerParams
from .radio import PropagationParams
from .scenario import (CandidateSiteSet, GridSpec, Hotspot, InvariantError,
                       NetworkState, ScenarioError, SmallCell, TenantProfile,
                       is_int, is_real, require, select_candidate_sites)

__all__ = [
    "Scenario",
    "NewTenantEvent",
    "ScenarioError",
    "InvariantError",
    "load_scenario",
    "scenario_to_dict",
    "scenario_from_dict",
    "read_document",
    "validate",
    "validate_file",
]

SECTIONS = ("grid", "tenants", "candidate_sites", "initial_cells", "radio",
            "monitor", "planner", "event")
TENANT_KEYS = ("id", "contracted_capacity_mbps", "temporal_profile", "hotspots",
               "uniform_floor_mbps")
CELL_KEYS = ("id", "site_pixel", "channels", "power_dbm")


@dataclass(frozen=True)
class NewTenantEvent:
    """Arrival of a new tenant at a given time step."""

    step: int
    tenant: TenantProfile

    def __post_init__(self):
        require((is_int(self.step) and self.step >= 0, "event.step_nonnegative",
                 f"step must be an integer >= 0, got {self.step!r}"))


@dataclass(frozen=True)
class Scenario:
    grid: GridSpec
    tenants: tuple[TenantProfile, ...]
    candidate_sites: CandidateSiteSet
    initial_state: NetworkState
    radio: PropagationParams
    monitor: MonitorParams
    planner: PlannerParams
    event: NewTenantEvent | None = None
    candidate_fraction: float | None = None


def _real(x):
    """Finite JSON numbers as floats; anything else is left for the checks."""
    return float(x) if is_real(x) else x


def _tuple(x, item=lambda v: v):
    """A JSON array as a tuple of ``item(v)``; anything else as is."""
    return tuple(item(v) for v in x) if isinstance(x, list) else x


class _Violations(list):
    """Named violations found so far; each part is built on its own."""

    def build(self, where: str, make, *args, **kwargs):
        """``make(*args, **kwargs)``, or None with its violations recorded."""
        try:
            return make(*args, **kwargs)
        except InvariantError as exc:
            self.extend(f"{v} (at {where})" if where else v for v in exc.violations)
            return None

    def check(self, where: str, *rules):
        self.build(where, require, *rules)

    def object(self, section: str, where: str, value, keys, required=()):
        """The known keys of ``value`` if it is a JSON object holding every
        required one; None if it is not."""
        if not isinstance(value, dict):
            self.check(where, (False, f"{section}.object",
                               f"must be a JSON object, got {value!r:.40}"))
            return None
        unknown = sorted(str(k) for k in value if k not in keys)
        missing = [k for k in required if k not in value]
        self.check(where, (not unknown, f"{section}.unknown_key",
                           f"unknown key(s) {', '.join(unknown)}"),
                   (not missing, f"{section}.missing_key",
                    f"missing key(s) {', '.join(missing)}"))
        return None if missing else {k: value[k] for k in keys if k in value}

    def array(self, section: str, where: str, value) -> list:
        """``value`` if it is a JSON array, else an empty list."""
        if isinstance(value, list):
            return value
        self.check(where, (False, f"{section}.array",
                           f"must be a JSON array, got {value!r:.40}"))
        return []

    def tenant(self, where: str, d) -> TenantProfile | None:
        d = self.object("tenant", where, d, TENANT_KEYS,
                        required=("id", "contracted_capacity_mbps"))
        if d is None:
            return None
        hotspots = []
        for k, h in enumerate(self.array("tenant.hotspots", where,
                                         d.get("hotspots", []))):
            at = f"{where}.hotspots[{k}]"
            keys = [f.name for f in fields(Hotspot)]
            h = self.object("tenant.hotspot", at, h, keys, required=keys)
            if h is not None:
                hotspots.append(self.build(at, Hotspot, *map(_real, h.values())))
        return self.build(
            where, TenantProfile, d["id"], _real(d["contracted_capacity_mbps"]),
            _tuple(d.get("temporal_profile", [1.0]), _real),
            tuple(h for h in hotspots if h is not None),
            _real(d.get("uniform_floor_mbps", 0.0)))

    def params(self, section: str, cls, value):
        d = self.object(section, "", value, [f.name for f in fields(cls)])
        return None if d is None else self.build("", cls, **d)


def scenario_from_dict(doc) -> Scenario:
    """Build a scenario from its JSON document.

    Raises InvariantError listing every violation in the document.
    """
    bad = _Violations()
    doc = bad.object("document", "", doc, SECTIONS) or {}

    grid = None
    g = bad.object("grid", "", doc.get("grid"), ("width_m", "height_m", "resolution_m"),
                   required=("width_m", "height_m", "resolution_m"))
    if g is not None:
        grid = bad.build("", GridSpec, *map(_real, g.values()))

    tenants = [bad.tenant(f"tenants[{i}]", t) for i, t in
               enumerate(bad.array("tenants", "", doc.get("tenants", [])))]
    bad.check("", (len(tenants) > 0, "tenants.nonempty",
                   "at least one existing tenant is required"))

    sites = fraction = None
    cs = doc.get("candidate_sites")
    if isinstance(cs, dict) and "pixels" in cs:
        cs = bad.object("candidate_sites", "", cs, ("pixels", "seed"))
        sites = bad.build("", CandidateSiteSet, _tuple(cs["pixels"]), cs.get("seed"))
    else:
        cs = bad.object("candidate_sites", "", cs, ("fraction", "seed"),
                        required=("fraction", "seed"))
        if cs is not None:
            fraction = _real(cs["fraction"])
            if grid is not None:
                sites = bad.build("", select_candidate_sites, grid, fraction,
                                  cs["seed"])

    cells = []
    for i, c in enumerate(bad.array("cells", "", doc.get("initial_cells", [])),
                          start=1):
        where = f"initial_cells[{i - 1}]"
        c = bad.object("cells", where, c, CELL_KEYS, required=("site_pixel", "channels"))
        if c is not None:
            power = c.get("power_dbm")
            cells.append((where, bad.build(
                where, SmallCell, c.get("id", i), c["site_pixel"],
                _tuple(c["channels"]), 24.0 if power is None else _real(power),
                power is not None)))
    bad.check("", (len(cells) > 0, "cells.nonempty",
                   "at least one initial cell is required"))
    state = bad.build("", NetworkState, tuple(c for _, c in cells if c is not None))

    radio = bad.params("radio", PropagationParams, doc.get("radio", {}))
    monitor = bad.params("monitor", MonitorParams, doc.get("monitor", {}))
    planner = bad.params("planner", PlannerParams, doc.get("planner", {}))

    event = arriving = None
    if doc.get("event") is not None:
        ev = bad.object("event", "", doc["event"], ("step", "tenant"),
                        required=("step", "tenant"))
        if ev is not None:
            arriving = bad.tenant("event.tenant", ev["tenant"])
            event = bad.build("", NewTenantEvent, ev["step"], arriving)

    # checks that span sections
    if monitor is not None and planner is not None:
        bad.check("", (monitor.alpha == planner.alpha, "planner.alpha_matches_monitor",
                       f"planner alpha {planner.alpha} differs from monitor alpha "
                       f"{monitor.alpha}; the trigger and the planner share one "
                       "utilization threshold"))
    everyone = [t for t in tenants + [arriving] if t is not None]
    ids = [t.tenant_id for t in everyone]
    repeated = sorted({i for i in ids if ids.count(i) > 1})
    bad.check("", (not repeated, "tenants.ids_distinct",
                   f"tenant id(s) {repeated} used more than once "
                   "(the arriving tenant included)"))
    candidates = set() if sites is None else set(sites.site_pixels)
    if grid is not None:
        # the correlated and oracle splits divide by a tenant's traffic
        empty = [t.tenant_id for t in everyone if not (
            t.uniform_floor_mbps > 0 or t.spatial_demand(grid).sum() > 0)]
        outside = sorted(p for p in candidates if p >= grid.num_pixels)
        bad.check("", (not empty, "tenants.demand_on_grid",
                       f"tenant(s) {empty} have no demand on the grid"),
                  (not outside, "candidate_sites.pixel_range",
                   f"pixels {outside[:5]} lie outside the {grid.num_pixels}-pixel grid"))
    for where, cell in cells:
        if cell is None:
            continue
        ch, power = cell.channels, cell.power_dbm
        bad.check(where,
                  (sites is None or cell.site_pixel in candidates,
                   "cells.site_is_candidate",
                   f"cell {cell.cell_id} at non-candidate pixel {cell.site_pixel}"),
                  (planner is None or len(ch) <= planner.k_max, "cells.channel_count",
                   f"cell {cell.cell_id} holds {len(ch)} channels, more than k_max"),
                  (radio is None or ch[-1] < radio.num_channels, "cells.channel_range",
                   f"cell {cell.cell_id} channels {list(ch)} not all below "
                   "num_channels"),
                  (radio is None or not cell.power_fixed
                   or radio.power_min_dbm <= power <= radio.power_max_dbm,
                   "cells.power_range",
                   f"cell {cell.cell_id} power {power} outside "
                   "[power_min_dbm, power_max_dbm]"))
    if bad:
        raise InvariantError(bad)
    return Scenario(grid, tuple(tenants), sites, state, radio, monitor, planner,
                    event, fraction)


def _tenant_to_dict(t: TenantProfile) -> dict:
    return {
        "id": t.tenant_id,
        "contracted_capacity_mbps": t.contracted_capacity_mbps,
        "temporal_profile": list(t.temporal_profile),
        "hotspots": [{"x_m": h.x_m, "y_m": h.y_m, "spread_m": h.spread_m,
                      "peak_mbps": h.peak_mbps} for h in t.hotspots],
        "uniform_floor_mbps": t.uniform_floor_mbps,
    }


def scenario_to_dict(scn: Scenario) -> dict:
    doc: dict = {
        "grid": {"width_m": scn.grid.width_m, "height_m": scn.grid.height_m,
                 "resolution_m": scn.grid.resolution_m},
        "tenants": [_tenant_to_dict(t) for t in scn.tenants],
    }
    if scn.candidate_fraction is not None:
        doc["candidate_sites"] = {"fraction": scn.candidate_fraction,
                                  "seed": scn.candidate_sites.seed}
    else:
        doc["candidate_sites"] = {"pixels": list(scn.candidate_sites.site_pixels)}
        if scn.candidate_sites.seed is not None:
            doc["candidate_sites"]["seed"] = scn.candidate_sites.seed
    doc["initial_cells"] = [
        {"id": c.cell_id, "site_pixel": c.site_pixel,
         "channels": list(c.channels),
         **({"power_dbm": c.power_dbm} if c.power_fixed else {})}
        for c in scn.initial_state.cells]
    doc["radio"] = asdict(scn.radio)
    doc["monitor"] = asdict(scn.monitor)
    doc["planner"] = asdict(scn.planner)
    if scn.event is not None:
        doc["event"] = {"step": scn.event.step,
                        "tenant": _tenant_to_dict(scn.event.tenant)}
    return doc


def read_document(path):
    """The parsed JSON of a scenario file; ScenarioError if unreadable."""
    path = Path(path)
    try:
        with path.open() as fh:
            return json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}:{exc.lineno}: {exc.msg}") from exc


def load_scenario(path) -> Scenario:
    return scenario_from_dict(read_document(path))


def validate(doc) -> list[str]:
    """Every violation that loading ``doc`` would raise, one line each."""
    try:
        scenario_from_dict(doc)
    except InvariantError as exc:
        return exc.violations
    return []


def validate_file(path) -> list[str]:
    return validate(read_document(path))
