import csv
import json
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from scplan.cli import main
from scplan.evaluation import METHODS
from scplan.experiment import ExperimentConfig, build_context, emit_report, run_experiment
from scplan.monitor import MonitorParams
from scplan.planner import PlannerParams
from scplan.presets import build_reference_scenario, bundled_scenario_path
from scplan.radio import PropagationParams
from scplan.reporting import read_raster_csv, write_raster_csv, write_raster_pgm
from scplan.scenario import GridSpec, pixel_positions, select_candidate_sites
from scplan.scenario_io import (InvariantError, ScenarioError, load_scenario,
                                scenario_from_dict, scenario_to_dict, validate,
                                validate_file)

BUNDLED = bundled_scenario_path("urban200m")


def _mini_scenario_doc(**overrides):
    doc = {
        "grid": {"width_m": 45.0, "height_m": 45.0, "resolution_m": 3.0},
        "tenants": [
            {"id": "a", "contracted_capacity_mbps": 4.0,
             "temporal_profile": [1.0] * 4,
             "hotspots": [{"x_m": 12.0, "y_m": 12.0, "spread_m": 8.0,
                           "peak_mbps": 0.08}],
             "uniform_floor_mbps": 0.001},
        ],
        "candidate_sites": {"fraction": 0.1, "seed": 5},
        "initial_cells": [],
        "radio": {},
        "monitor": {"window_steps": 4, "consecutive_steps": 2},
        "planner": {},
    }
    doc.update(overrides)
    return doc


@pytest.fixture
def mini_path(tmp_path):
    doc = _mini_scenario_doc()
    grid = GridSpec(45.0, 45.0, 3.0)
    from scplan.scenario import select_candidate_sites
    sites = select_candidate_sites(grid, 0.1, 5)
    doc["initial_cells"] = [{"id": 1, "site_pixel": sites.site_pixels[3],
                             "channels": [0]},
                            {"id": 2, "site_pixel": sites.site_pixels[12],
                             "channels": [1]}]
    path = tmp_path / "mini.json"
    path.write_text(json.dumps(doc))
    return path


def test_bundled_scenario_matches_builder(tmp_path):
    built = build_reference_scenario()
    regenerated = scenario_to_dict(built)
    shipped = json.loads(Path(BUNDLED).read_text())
    assert regenerated == shipped


def test_bundled_scenario_initial_demands():
    scn = load_scenario(BUNDLED)
    from scplan.radio import configure_powers, serving_assignment
    state = configure_powers(scn.initial_state, scn.grid, scn.radio)
    serving = serving_assignment(state, scn.grid, scn.radio)
    total = np.sum([t.spatial_demand(scn.grid) for t in scn.tenants], axis=0)
    targets = {1: 22.5, 2: 27.9, 3: 19.3, 4: 16.6}
    for cid, want in targets.items():
        got = float(total[serving.pixel_cell == cid].sum())
        assert got == pytest.approx(want, abs=0.05)
    assert scn.event is not None
    new_total = float(scn.event.tenant.spatial_demand(scn.grid).sum())
    assert new_total == pytest.approx(100.0, abs=0.05)


def test_scenario_round_trip_is_value_identical(tmp_path, mini_path):
    scn = load_scenario(mini_path)
    out = tmp_path / "copy.json"
    out.write_text(json.dumps(scenario_to_dict(scn), indent=2))
    again = load_scenario(out)
    assert scenario_to_dict(scn) == scenario_to_dict(again)
    assert again.grid == scn.grid
    a = scn.tenants[0].spatial_demand(scn.grid)
    b = again.tenants[0].spatial_demand(again.grid)
    np.testing.assert_array_equal(a, b)


def test_validate_well_formed():
    assert validate_file(BUNDLED) == []


def test_validate_reports_named_invariants():
    doc = _mini_scenario_doc()
    doc["grid"]["resolution_m"] = -1
    names = " ".join(validate(doc))
    assert "grid.resolution_positive" in names

    doc = _mini_scenario_doc()
    doc["initial_cells"] = [{"id": 1, "site_pixel": 1, "channels": [0, 1, 2]}]
    names = " ".join(validate(doc))
    assert "cells.site_is_candidate" in names
    assert "cells.channel_count" in names

    doc = _mini_scenario_doc()
    doc["tenants"][0]["temporal_profile"] = [0.4, 0.8]
    assert any("tenant.temporal_peak_one" in v for v in validate(doc))

    doc = _mini_scenario_doc()
    doc["monitor"]["alpha"] = 2.0
    assert any("monitor.alpha_range" in v for v in validate(doc))

    doc = _mini_scenario_doc()
    doc["candidate_sites"] = {"pixels": [1, 1, 2]}
    assert any("candidate_sites.distinct" in v for v in validate(doc))


def test_validate_file_parse_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    with pytest.raises(ScenarioError):
        validate_file(bad)


def test_run_without_event_is_fixed_point(mini_path):
    cfg = ExperimentConfig(mini_path, method="uniform-sc", horizon=4)
    report = run_experiment(cfg)
    assert report.fired_steps == []
    assert report.ledgers == []
    assert report.final_state.site_pixels == report.initial_state.site_pixels


def test_run_report_totals_consistent(tmp_path):
    cfg = ExperimentConfig(BUNDLED, method="corr-px", horizon=6)
    report = run_experiment(cfg)
    assert report.cell_count == len(report.final_state.cells)
    assert report.total_required_mhz == pytest.approx(
        sum(v for _, v in report.bandwidth_rows))
    files = emit_report(report, tmp_path)
    table = tmp_path / "bandwidth_table.csv"
    assert table in files
    lines = table.read_text().strip().splitlines()
    assert len(lines) == 1 + report.cell_count + 1   # header + cells + total
    from scplan.reporting import read_bandwidth_table
    rows, total = read_bandwidth_table(table)
    assert total == pytest.approx(sum(v for _, v in rows))
    assert total == pytest.approx(report.total_required_mhz)


def test_emit_report_empty_ledger_changelog(mini_path, tmp_path):
    cfg = ExperimentConfig(mini_path, method="uniform-sc", horizon=4)
    report = run_experiment(cfg)
    emit_report(report, tmp_path)
    changelog = (tmp_path / "changelog.txt").read_text().strip().splitlines()
    assert changelog == ["# planning changelog"]
    layout = json.loads((tmp_path / "layout.json").read_text())
    assert len(layout["initial_cells"]) == 2


def test_raster_csv_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    grid = GridSpec(30.0, 21.0, 3.0)
    values = rng.uniform(-5, 40, grid.num_pixels)
    path = write_raster_csv(tmp_path / "raster.csv", grid, values)
    again = read_raster_csv(path)
    np.testing.assert_array_equal(values, again)


def test_writers_match_csv_writer_reference(tmp_path):
    grid = GridSpec(21.0, 12.0, 3.0)            # 7 x 4 pixels
    special = [np.nan, np.inf, -np.inf, -0.0, 1e-05, 1e16, 3.0, 2.0 ** 60]
    values = np.random.default_rng(9).uniform(-5, 40, grid.num_pixels)
    values[:len(special)] = special

    pos = pixel_positions(grid)
    ref = tmp_path / "ref.csv"
    with ref.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["index", "x_m", "y_m", "value"])
        for i in range(grid.num_pixels):
            w.writerow([i, repr(float(pos[i, 0])), repr(float(pos[i, 1])),
                        repr(float(values[i]))])
    got = write_raster_csv(tmp_path / "raster.csv", grid, values)
    assert got.read_bytes() == ref.read_bytes()
    ints = np.arange(grid.num_pixels)           # an integer raster is written as floats
    assert write_raster_csv(tmp_path / "ints.csv", grid, ints).read_bytes() == \
        write_raster_csv(tmp_path / "floats.csv", grid, ints.astype(float)).read_bytes()
    with pytest.raises(ValueError):
        write_raster_csv(tmp_path / "short.csv", grid, values[:-1])

    gray = np.round(np.linspace(0, 255, grid.num_pixels)).astype(int).reshape(grid.ny, grid.nx)
    ref.write_text("\n".join(["P2", f"{grid.nx} {grid.ny}", "255"]
                             + [" ".join(str(g) for g in row) for row in gray]) + "\n")
    got = write_raster_pgm(tmp_path / "raster.pgm", grid, gray.ravel().astype(float))
    assert got.read_bytes() == ref.read_bytes()


def test_layout_fragment_chains_into_scenario(tmp_path):
    cfg = ExperimentConfig(BUNDLED, method="corr-px", horizon=6)
    report = run_experiment(cfg)
    emit_report(report, tmp_path)
    fragment = json.loads((tmp_path / "layout.json").read_text())
    doc = json.loads(Path(BUNDLED).read_text())
    doc["initial_cells"] = fragment["initial_cells"]
    chained = tmp_path / "chained.json"
    chained.write_text(json.dumps(doc))
    scn = load_scenario(chained)
    assert scn.initial_state.site_pixels == report.final_state.site_pixels


def test_event_outside_horizon_rejected():
    cfg = ExperimentConfig(BUNDLED, method="corr-px", horizon=2)
    with pytest.raises(ScenarioError):
        run_experiment(cfg)


def test_cli_validate_ok(capsys):
    assert main(["validate", "--scenario", str(BUNDLED)]) == 0
    assert "0 violations" in capsys.readouterr().out


def test_cli_validate_violations(tmp_path, capsys):
    doc = _mini_scenario_doc()
    doc["monitor"]["alpha"] = 5.0
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", "--scenario", str(path)]) == 1
    assert "monitor.alpha_range" in capsys.readouterr().out


def test_cli_missing_scenario_is_io_error(capsys):
    assert main(["validate", "--scenario", "/nonexistent.json"]) == 2


def test_cli_bundled_name_resolution(capsys):
    assert main(["validate", "--scenario", "urban200m"]) == 0


def test_cli_run_and_report(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["run", "--scenario", str(BUNDLED), "--method", "corr-px",
                 "--horizon", "6", "--out", str(out)])
    assert code == 0
    for name in ("monitor_log.csv", "bandwidth_table.csv", "summary.json",
                 "actions.csv", "changelog.txt", "layout.json",
                 "serving_cell.pgm", "pixel_se.csv"):
        assert (out / name).exists()
    assert main(["report", "--run", str(out)]) == 0
    assert "total" in capsys.readouterr().out


def test_cli_translate_and_plan(tmp_path):
    out = tmp_path / "tr"
    assert main(["translate", "--scenario", str(BUNDLED), "--method",
                 "corr-px", "--out", str(out)]) == 0
    assert (out / "specs_cell.csv").exists()
    assert (out / "specs_pixel.csv").exists()
    out2 = tmp_path / "plan"
    assert main(["plan", "--scenario", str(BUNDLED), "--method", "uniform-sc",
                 "--out", str(out2)]) == 0
    assert (out2 / "actions.csv").exists()
    assert (out2 / "layout.json").exists()


def test_cli_param_overrides(tmp_path):
    out = tmp_path / "ov"
    code = main(["run", "--scenario", str(BUNDLED), "--method", "uniform-sc",
                 "--horizon", "6", "--out", str(out),
                 "--alpha", "0.8", "--L", "2", "--step4-threshold", "kmax"])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["alpha"] == 0.8
    assert summary["config"]["consecutive_steps"] == 2
    assert summary["config"]["step4_mode"] == "kmax"


def test_cli_translate_without_event(mini_path, tmp_path, capsys):
    code = main(["translate", "--scenario", str(mini_path), "--method",
                 "corr-px", "--out", str(tmp_path / "x")])
    assert code == 1
    assert "no arriving tenant" in capsys.readouterr().out


def test_unknown_radio_key_is_parse_error(tmp_path):
    doc = _mini_scenario_doc()
    doc["radio"] = {"carrier_ghz": 5.0, "bogus_knob": 1}
    path = tmp_path / "bad_radio.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ScenarioError):
        load_scenario(path)


# --- one definition of a valid scenario: validate lists what loading rejects


def _bundled_doc():
    return json.loads(Path(BUNDLED).read_text())


def _set(path, value):
    def mutate(doc):
        *parents, last = path
        target = doc
        for key in parents:
            target = target[key]
        target[last] = value
    return mutate


def _names(violations):
    return [v.split(":")[0] for v in violations]


# Each document below used to be accepted by one of validate and the loader
# and rejected, crashed on or silently trimmed by the other.
BUNDLED_CASES = {
    "duplicate-tenant": (lambda d: d["tenants"].append(dict(d["tenants"][0])),
                         "tenants.ids_distinct"),
    "arrival-reuses-id": (lambda d: d["event"]["tenant"].update(id=d["tenants"][0]["id"]),
                          "tenants.ids_distinct"),
    "no-initial-cells": (_set(["initial_cells"], []), "cells.nonempty"),
    "unknown-radio-key": (_set(["radio", "bogus_knob"], 1), "radio.unknown_key"),
    "bad-pathloss-variant": (_set(["radio", "pathloss_variant"], "x"),
                             "radio.pathloss_variant"),
    "fraction-without-seed": (lambda d: d["candidate_sites"].pop("seed"),
                              "candidate_sites.missing_key"),
    "nan-contract": (_set(["tenants", 0, "contracted_capacity_mbps"], float("nan")),
                     "tenant.contracted_nonnegative"),
    "non-numeric-alpha": (_set(["monitor", "alpha"], "x"), "monitor.alpha_range"),
    "zero-hotspot-spread": (_set(["tenants", 0, "hotspots", 0, "spread_m"], 0),
                            "tenant.hotspot_spread_positive"),
    "negative-floor": (_set(["tenants", 0, "uniform_floor_mbps"], -0.01),
                       "tenant.floor_nonnegative"),
    "channels-over-kmax": (_set(["initial_cells", 0, "channels"], [0, 2, 3]),
                           "cells.channel_count"),
}


@pytest.mark.parametrize("case", sorted(BUNDLED_CASES))
def test_bundled_regressions_rejected_by_name(case, tmp_path, capsys):
    mutate, name = BUNDLED_CASES[case]
    doc = _bundled_doc()
    mutate(doc)
    violations = validate(doc)
    assert _names(violations) == [name]
    path = tmp_path / "case.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InvariantError) as exc:
        load_scenario(path)
    assert exc.value.violations == violations
    code = main(["run", "--scenario", str(path), "--method", "corr-px",
                 "--horizon", "8", "--out", str(tmp_path / "run")])
    assert code == 1
    assert name in capsys.readouterr().err


def test_load_lists_every_violation_at_once():
    doc = _bundled_doc()
    doc["grid"]["resolution_m"] = 0
    doc["monitor"]["alpha"] = 2.0
    doc["event"]["tenant"]["id"] = "retail"
    doc["initial_cells"][1]["channels"] = [7]
    with pytest.raises(InvariantError) as exc:
        scenario_from_dict(doc)
    assert sorted(_names(exc.value.violations)) == [
        "cells.channel_range", "grid.resolution_positive", "monitor.alpha_range",
        "tenants.ids_distinct"]
    assert validate(doc) == exc.value.violations


def test_cli_exit_codes_match_readme(tmp_path, capsys):
    doc = _bundled_doc()
    doc["monitor"]["alpha"] = 2.0
    bad = tmp_path / "alpha.json"
    bad.write_text(json.dumps(doc))
    for cmd in ("validate", "run", "plan", "translate"):
        args = [cmd, "--scenario", str(bad)]
        if cmd != "validate":
            args += ["--out", str(tmp_path / cmd)]
        assert main(args) == 1, cmd
        captured = capsys.readouterr()
        assert "monitor.alpha_range" in captured.out + captured.err, cmd
    broken = tmp_path / "broken.json"
    broken.write_text("{ not json")
    for path in (broken, tmp_path / "missing.json"):
        for cmd in ("validate", "run"):
            args = [cmd, "--scenario", str(path)]
            if cmd != "validate":
                args += ["--out", str(tmp_path / "x")]
            assert main(args) == 2, (cmd, path.name)
    # an override is checked like the document's own value
    assert main(["translate", "--scenario", str(BUNDLED), "--alpha", "2",
                 "--out", str(tmp_path / "tr")]) == 1
    assert "monitor.alpha_range" in capsys.readouterr().err


def test_candidate_redraw_is_not_rechecked(tmp_path):
    # the redrawn pool no longer holds the initial cells' sites
    assert main(["run", "--scenario", "urban200m", "--seed", "7", "--horizon", "6",
                 "--out", str(tmp_path / "run")]) == 0


def test_seed_on_explicit_pixel_list_is_named(tmp_path, capsys):
    # a pixel list has no draw for a seed to redo: say so, do not echo it
    doc = _bundled_doc()
    scn = load_scenario(BUNDLED)
    doc["candidate_sites"] = {"pixels": list(scn.candidate_sites.site_pixels)}
    path = tmp_path / "pixels.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InvariantError) as exc:
        ExperimentConfig(path, seed=7).scenario()
    assert _names(exc.value.violations) == ["run.seed_unused"]
    assert main(["run", "--scenario", str(path), "--seed", "7", "--horizon", "6",
                 "--out", str(tmp_path / "run")]) == 1
    assert "run.seed_unused" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()
    assert (ExperimentConfig(path).scenario().candidate_sites.site_pixels
            == scn.candidate_sites.site_pixels)


def test_monitor_and_planner_alpha_must_agree(tmp_path):
    doc = _bundled_doc()
    doc["planner"]["alpha"] = 0.8
    assert _names(validate(doc)) == ["planner.alpha_matches_monitor"]
    # a value already out of range is named once, by its own section
    doc["monitor"]["alpha"] = 2.0
    assert _names(validate(doc)) == ["monitor.alpha_range"]
    # --alpha sets both
    scn = ExperimentConfig(BUNDLED, alpha=0.8).scenario()
    assert scn.monitor.alpha == scn.planner.alpha == 0.8


def test_build_context_honours_horizon(tmp_path, capsys):
    scn = load_scenario(BUNDLED)
    assert build_context(scn, "corr-px").horizon == 24
    run = build_context(scn, "corr-px", horizon=3)
    assert (run.horizon, run.busy_step) == (3, 2)
    assert main(["plan", "--scenario", str(BUNDLED), "--horizon", "0",
                 "--out", str(tmp_path / "plan")]) == 1
    assert "run.horizon_positive" in capsys.readouterr().err


def _runnable_mini_doc():
    doc = _mini_scenario_doc()
    sites = select_candidate_sites(GridSpec(45.0, 45.0, 3.0), 0.1, 5).site_pixels
    doc["initial_cells"] = [
        {"id": 1, "site_pixel": sites[3], "channels": [0]},
        {"id": 2, "site_pixel": sites[12], "channels": [1], "power_dbm": 20.0}]
    doc["event"] = {"step": 1, "tenant": {
        "id": "b", "contracted_capacity_mbps": 3.0, "temporal_profile": [1.0, 0.5],
        "hotspots": [{"x_m": 30.0, "y_m": 30.0, "spread_m": 6.0, "peak_mbps": 0.05}],
        "uniform_floor_mbps": 0.0}}
    for section, cls in (("radio", PropagationParams), ("monitor", MonitorParams),
                         ("planner", PlannerParams)):
        doc[section] = {**asdict(cls()), **doc[section]}
    return doc


def _field_paths(doc, path=()):
    """Every leaf and container below ``doc``, as key paths; the event step
    is left out because a valid one may still lie past a short horizon."""
    if path == ("event", "step"):
        return []
    paths = [path] if path else []
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        paths += _field_paths(value, path + (key,))
    return paths


MINI = _runnable_mini_doc()
FIELDS = _field_paths(MINI)
VALUES = ("x", None, True, [], {}, -1, 0, 1, 2, 3, 7, 1000, 10 ** 30, 0.5, 1.5,
          -0.01, float("nan"), float("inf"))


def _structural(doc):
    return {
        "duplicate-tenant": lambda d: d["tenants"].append(dict(d["tenants"][0])),
        "arrival-reuses-id": _set(["event", "tenant", "id"], "a"),
        "duplicate-cell-id": _set(["initial_cells", 1, "id"], 1),
        "duplicate-cell-site": _set(["initial_cells", 1, "site_pixel"],
                                    doc["initial_cells"][0]["site_pixel"]),
        "duplicate-candidate": _set(["candidate_sites"], {"pixels": [
            c["site_pixel"] for c in doc["initial_cells"] * 2]}),
        "no-initial-cells": _set(["initial_cells"], []),
        "no-tenants": _set(["tenants"], []),
        "no-event": lambda d: d.pop("event"),
        "event-step-negative": _set(["event", "step"], -1),
        "event-step-text": _set(["event", "step"], "1"),
        **{f"unknown-key-{'.'.join(map(str, p)) or 'document'}": _set([*p, "bogus"], 1)
           for p in ((), ("grid",), ("tenants", 0), ("tenants", 0, "hotspots", 0),
                     ("candidate_sites",), ("initial_cells", 0), ("radio",),
                     ("monitor",), ("planner",), ("event",), ("event", "tenant"))},
    }


STRUCTURAL = _structural(MINI)
MUTATIONS = st.one_of(
    st.tuples(st.sampled_from(FIELDS), st.sampled_from(VALUES)),
    st.sampled_from(sorted(STRUCTURAL)))


@settings(max_examples=500, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutation=MUTATIONS, method=st.sampled_from(METHODS))
def test_valid_exactly_when_runnable(mutation, method, tmp_path):
    """A mutated mini scenario passes validate exactly when it loads and runs;
    one that does not run fails with the violations validate lists."""
    doc = json.loads(json.dumps(MINI))
    if isinstance(mutation, str):
        STRUCTURAL[mutation](doc)
    else:
        _set(list(mutation[0]), mutation[1])(doc)
    violations = validate(doc)
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps(doc))
    try:
        run_experiment(ExperimentConfig(path, method=method, horizon=4))
    except InvariantError as exc:
        assert exc.violations == violations
        assert violations
    else:
        assert violations == []
