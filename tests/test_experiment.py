import csv
import dataclasses
import hashlib
import importlib
import inspect
import json
import pkgutil
import typing
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import assert_same_evaluation
from scplan.cli import main
from scplan.evaluation import METHODS, EvaluationContext, evaluate_state
from scplan.experiment import ExperimentConfig, build_context, emit_report, run_experiment
from scplan.monitor import MonitorParams
from scplan.planner import (AddCell, PlannerParams, Relocate, RemoveCell, replay_actions,
                            select_site)
from scplan.presets import bundled_scenario_path
from scplan.radio import PropagationParams
from scplan.reporting import write_raster_csv, write_raster_pgm
from scplan.scenario import (GridSpec, ServingMap, SmallCell, pixel_positions,
                             select_candidate_sites)
from scplan.scenario_io import (InvariantError, ScenarioError, load_scenario,
                                scenario_from_dict, validate, validate_file)

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


def test_bundled_scenario_initial_demands():
    """The shipped JSON is the bundled scenario's only source: pin its
    layout, tenants and event, and the per-cell demands its hotspot peaks
    were fitted to."""
    scn = load_scenario(BUNDLED)
    assert scn.grid == GridSpec(200.0, 200.0, 3.0)
    assert scn.candidate_fraction == 0.02
    assert scn.candidate_sites == select_candidate_sites(scn.grid, 0.02, 12)
    cells = scn.initial_state.cells
    assert [c.cell_id for c in cells] == [1, 2, 3, 4]
    assert [c.channels for c in cells] == [(0,), (1,), (1,), (0,)]
    assert all(c.site_pixel in scn.candidate_sites.site_pixels and not c.power_fixed
               for c in cells)
    assert [t.tenant_id for t in scn.tenants] == ["retail", "transit"]
    for tenant in scn.tenants:
        assert tenant.temporal_profile == (1.0,) * 24
        assert len(tenant.hotspots) == 2
    assert scn.event is not None and scn.event.step == 2
    media = scn.event.tenant
    assert (media.tenant_id, media.contracted_capacity_mbps) == ("media", 100.0)
    assert media.temporal_profile == (1.0,) * 24
    assert len(media.hotspots) == 4
    from scplan.radio import configure_powers, serving_assignment
    state = configure_powers(scn.initial_state, scn.grid, scn.radio)
    serving = serving_assignment(state, scn.grid, scn.radio)
    total = np.sum([t.spatial_demand(scn.grid) for t in scn.tenants], axis=0)
    targets = {1: 22.5, 2: 27.9, 3: 19.3, 4: 16.6}
    for cid, want in targets.items():
        got = float(total[serving.pixel_cell == cid].sum())
        assert got == pytest.approx(want, abs=0.05)
    new_total = float(scn.event.tenant.spatial_demand(scn.grid).sum())
    assert new_total == pytest.approx(100.0, abs=0.05)


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


def test_arriving_tenant_is_estimated_until_a_plan_made_after_it_arrives(monkeypatch):
    # alpha 0.3 and one violating step fire the trigger at step 0, before the
    # arrival at step 2: that plan does not deploy the arriving service, so
    # its spec stands in for its traffic at step 2 and it goes live at step 3
    known = []

    def recording(state, ctx):
        known.append(set(ctx.known_demand))
        return evaluate_state(state, ctx)

    monkeypatch.setattr("scplan.experiment.evaluate_state", recording)
    scn = load_scenario(BUNDLED)
    arriving, step = scn.event.tenant.tenant_id, scn.event.step
    report = run_experiment(ExperimentConfig(BUNDLED, method="corr-px", horizon=6,
                                             alpha=0.3, consecutive_steps=1))
    assert report.fired_steps[0] < step
    assert arriving not in known[step]
    assert [arriving in k for k in known[step + 1:]] == [True] * (len(known) - step - 1)
    assert report.total_required_mhz == pytest.approx(56.499, abs=5e-4)


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
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["index", "x_m", "y_m", "value"]
    np.testing.assert_array_equal(values, [float(r[3]) for r in rows[1:]])


def _csv_writer_raster(path, grid, values):
    """The raster CSV as ``csv.writer`` writes it, one row at a time."""
    pos = pixel_positions(grid)
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["index", "x_m", "y_m", "value"])
        for i in range(grid.num_pixels):
            w.writerow([i, repr(float(pos[i, 0])), repr(float(pos[i, 1])),
                        repr(float(values[i]))])
    return path.read_bytes()


def _pgm_reference(grid, gray):
    return ("\n".join(["P2", f"{grid.nx} {grid.ny}", "255"]
                      + [" ".join(str(g) for g in row)
                         for row in np.reshape(gray, (grid.ny, grid.nx)).tolist()])
            + "\n").encode()


def test_writers_match_csv_writer_reference(tmp_path):
    grid = GridSpec(21.0, 12.0, 3.0)            # 7 x 4 pixels
    special = [np.nan, np.inf, -np.inf, -0.0, 1e-05, 1e16, 3.0, 2.0 ** 60]
    values = np.random.default_rng(9).uniform(-5, 40, grid.num_pixels)
    values[:len(special)] = special

    got = write_raster_csv(tmp_path / "raster.csv", grid, values)
    assert got.read_bytes() == _csv_writer_raster(tmp_path / "ref.csv", grid, values)
    ints = np.arange(grid.num_pixels)           # an integer raster is written as floats
    assert write_raster_csv(tmp_path / "ints.csv", grid, ints).read_bytes() == \
        write_raster_csv(tmp_path / "floats.csv", grid, ints.astype(float)).read_bytes()
    with pytest.raises(ValueError):
        write_raster_csv(tmp_path / "short.csv", grid, values[:-1])

    # nx != ny and more rows than one block of the writer: 134 x 67 = 8 978 pixels
    wide = GridSpec(400.0, 200.0, 3.0)
    big = np.random.default_rng(4).uniform(-90, 30, wide.num_pixels)
    got = write_raster_csv(tmp_path / "wide.csv", wide, big)
    assert got.read_bytes() == _csv_writer_raster(tmp_path / "wide_ref.csv", wide, big)

    # grids of one pixel count but other coordinates, written alternately:
    # row heads of one grid must never be reused for another
    tall = GridSpec(12.0, 21.0, 3.0)            # 4 x 7 pixels
    coarse = GridSpec(42.0, 24.0, 6.0)          # 7 x 4 pixels, other pitch
    for k, g in enumerate([grid, tall, grid, coarse, grid]):
        got = write_raster_csv(tmp_path / f"alt{k}.csv", g, values)
        assert got.read_bytes() == _csv_writer_raster(tmp_path / f"alt{k}_ref.csv", g, values)

    gray = np.round(np.linspace(0, 255, grid.num_pixels)).astype(int)
    got = write_raster_pgm(tmp_path / "raster.pgm", grid, gray.astype(float))
    assert got.read_bytes() == _pgm_reference(grid, gray)
    # every gray level once, then NaN and -inf at the bottom, +inf at the top
    levels = GridSpec(60.0, 42.0, 3.0)          # 20 x 14 = 280 pixels
    raster = np.full(levels.num_pixels, 7.0)
    raster[:256] = np.arange(256)
    raster[256:259] = [np.nan, np.inf, -np.inf]
    gray = raster.copy()
    gray[256:259] = [0, 255, 0]
    got = write_raster_pgm(tmp_path / "levels.pgm", levels, raster)
    assert got.read_bytes() == _pgm_reference(levels, gray.astype(int))


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


def test_cli_translate_names_its_refusal(mini_path, tmp_path, capsys):
    # a document with no arriving tenant has nothing to translate: a named
    # violation on stderr like the document's own, exit 1, nothing written
    out = tmp_path / "specs"
    assert main(["translate", "--scenario", str(mini_path), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("invariant violation: translate.event_required: ")
    assert not out.exists()


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


@pytest.mark.parametrize("text", ["", "cell,required_mhz\r\n",
                                  "cell,required_mhz\r\n1,2.5\r\n2,1.5\r\n"],
                         ids=["empty", "header-only", "no-total-row"])
def test_cli_report_rejects_a_damaged_bandwidth_table(text, tmp_path, capsys):
    (tmp_path / "bandwidth_table.csv").write_text(text, newline="")
    assert main(["report", "--run", str(tmp_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "bandwidth_table.csv" in err[0]


@pytest.mark.parametrize("text", ["{ not json", "{}", "[]"],
                         ids=["not-json", "no-keys", "not-an-object"])
def test_cli_report_rejects_a_damaged_summary(text, tmp_path, capsys):
    (tmp_path / "bandwidth_table.csv").write_text(
        "cell,required_mhz\r\n1,2.5\r\ntotal,2.5\r\n", newline="")
    (tmp_path / "summary.json").write_text(text)
    assert main(["report", "--run", str(tmp_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "summary.json" in err[0]


# sha256 of what ``plan --method uniform-sc`` writes on urban200m
PLAN_SHA256 = {
    "actions.csv": "d97c549ba482fdfd8910911a6e629b524a825cd920dfe5eb6fe5f0cd248206ec",
    "actions_raw.csv": "36d730c0fb92ec984da005018f68dfb7c7f0d27856b5c8e998f5c21b60306518",
    "bandwidth_table.csv": "15845f95ba0e244b1d87809be8370576d330bcfbfe89c145655dae4348552a73",
    "changelog.txt": "fa2d23fda0287622dea20acdb2e118906ee9d9e1debd92d8ff0bb4e0e2720c07",
    "layout.json": "f67547a38cacbbae7e683fbd3c07fbc04d881b2cb74d74fac6bdca9ad752a018",
}

# sha256 of what ``translate --method corr-px`` writes on urban200m
SPEC_SHA256 = {
    "specs_cell.csv": "03a99d8a80729ec82066fb061ac739b256d5340aebbfa70151e8d2d54621c2d2",
    "specs_pixel.csv": "d9576705cbdcdaa6c196517f9da0d310767bccd10b51d2a3670c4ff65248d9d4",
}


def test_cli_translate_and_plan(tmp_path):
    out = tmp_path / "tr"
    assert main(["translate", "--scenario", str(BUNDLED), "--method",
                 "corr-px", "--out", str(out)]) == 0
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in out.iterdir()} == SPEC_SHA256
    out2 = tmp_path / "plan"
    assert main(["plan", "--scenario", str(BUNDLED), "--method", "uniform-sc",
                 "--out", str(out2)]) == 0
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in out2.iterdir()} == PLAN_SHA256
    assert main(["report", "--run", str(out2)]) == 0


# sha256 of what ``run --horizon 6 --gamma 0.2 --method uniform-px`` writes
# on urban200m: the one bundled run whose plan trims cells and relocates
RELOCATE_SHA256 = {
    "actions.csv": "91f2c319bb0ddacfe23b8f4d114968abaff70fd0450d5bdce5fd5452fa6eddf4",
    "changelog.txt": "bf20c3031b771f7b9f902e0d7cdc56aa6390292d452b9d15d03ade5e7270bcf7",
}


def test_cli_run_that_relocates_replays_both_ledgers(tmp_path):
    out = tmp_path / "reloc"
    assert main(["run", "--scenario", str(BUNDLED), "--horizon", "6", "--gamma", "0.2",
                 "--method", "uniform-px", "--out", str(out)]) == 0
    assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in RELOCATE_SHA256} == RELOCATE_SHA256
    assert main(["report", "--run", str(out)]) == 0

    cfg = ExperimentConfig(BUNDLED, method="uniform-px", horizon=6, gamma=0.2)
    report, scn = run_experiment(cfg), cfg.scenario()
    (_, ledger), = report.ledgers
    for actions in (ledger.raw_actions, ledger.actions):
        assert (replay_actions(report.initial_state, actions, scn.grid, scn.radio)
                == report.final_state)

    def cell_actions(actions):
        return sorted(type(a).__name__ for a in actions
                      if isinstance(a, (AddCell, RemoveCell, Relocate)))
    assert cell_actions(ledger.raw_actions) == ["AddCell"] * 2 + ["RemoveCell"] * 2
    assert cell_actions(ledger.actions) == ["Relocate"] * 2


def test_busy_hour_is_the_busy_step_evaluation_with_the_estimate_unscaled(tmp_path):
    doc = _runnable_mini_doc()
    doc["tenants"][0]["temporal_profile"] = [0.5, 1.0, 0.8, 0.6]
    doc["event"]["tenant"]["temporal_profile"] = [1.0, 0.4, 1.0, 1.0]
    path = tmp_path / "weighted.json"
    path.write_text(json.dumps(doc))
    scn = load_scenario(path)
    everyone = scn.tenants + (scn.event.tenant,)
    for method in METHODS:
        run = build_context(scn, method)
        assert run.busy_step == 1
        busy = run.busy_hour()
        step = run.evaluation(everyone, scn.tenants, run.busy_step)
        assert list(busy.policies) == list(step.policies) == ["a", "b"]
        assert all(busy.policies[m] is step.policies[m] for m in busy.policies)
        assert ({m: r.tobytes() for m, r in busy.known_demand.items()}
                == {m: r.tobytes() for m, r in step.known_demand.items()})
        assert list(busy.known_demand) == ["a"]
        assert busy.basis.tobytes() == step.basis.tobytes()
        # live "a" scales by w(t); the spec is already C * w(busy), so the
        # estimated "b" scales by w(t) / w(busy)
        assert busy.scale == step.scale == {"a": 1.0, "b": 1.0}
        assert run.evaluation(everyone, scn.tenants, 0).scale["b"] == 1.0 / 0.4
        assert_same_evaluation(evaluate_state(scn.initial_state, busy),
                               evaluate_state(scn.initial_state, step))


def test_peak_rasters_with_their_scale_evaluate_as_the_scaled_rasters(tmp_path):
    # a run hands evaluate_state each live tenant's peak raster and its step
    # weight; the evaluation must be the bytes of one on the scaled rasters,
    # on a new map and on the same map again, whichever tenants are live
    doc = _runnable_mini_doc()
    doc["tenants"][0]["temporal_profile"] = [0.3, 1.0, 0.7, 0.55]
    doc["event"]["tenant"]["temporal_profile"] = [0.9, 0.35, 1.0, 0.6]
    path = tmp_path / "weighted.json"
    path.write_text(json.dumps(doc))
    scn = load_scenario(path)
    everyone = scn.tenants + (scn.event.tenant,)
    for method in METHODS:
        run = build_context(scn, method)
        for live, t in ((scn.tenants, 0), (scn.tenants, 2), (everyone, 3)):
            ctx = run.evaluation(everyone, live, t)
            assert set(ctx.scale) == set(ctx.known_demand) | set(ctx.policies)
            assert {m: ctx.scale[m] for m in ctx.known_demand} != \
                {m: 1.0 for m in ctx.known_demand}
            for fixed in (True, False):
                scaled = {}
                for m, raster in ctx.known_demand.items():
                    scaled[m] = raster * ctx.scale[m]
                    scaled[m].flags.writeable = not fixed
                plain = EvaluationContext(grid=ctx.grid, radio=ctx.radio,
                                          policies=ctx.policies, known_demand=scaled,
                                          basis=ctx.basis,
                                          scale={m: w for m, w in ctx.scale.items()
                                                 if m not in scaled})
                mine = replace(ctx, link_cache=None)
                for _ in range(2):      # a new map, then the same map again
                    assert_same_evaluation(evaluate_state(scn.initial_state, mine),
                                           evaluate_state(scn.initial_state, plain))


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
    assert "no arriving tenant" in capsys.readouterr().err


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
    not_utf8 = tmp_path / "not_utf8.json"
    not_utf8.write_bytes(b'{"grid": "\xff"}')
    long_int = tmp_path / "long_int.json"
    long_int.write_text('{"grid": ' + "9" * 5000 + "}")
    for path in (broken, tmp_path / "missing.json", not_utf8, long_int):
        for cmd in ("validate", "run"):
            args = [cmd, "--scenario", str(path)]
            if cmd != "validate":
                args += ["--out", str(tmp_path / "x")]
            assert main(args) == 2, (cmd, path.name)
            assert path.name in capsys.readouterr().err, (cmd, path.name)
        with pytest.raises(ScenarioError, match=path.name):
            validate_file(path)
    # an override is checked like the document's own value
    assert main(["translate", "--scenario", str(BUNDLED), "--alpha", "2",
                 "--out", str(tmp_path / "tr")]) == 1
    assert "monitor.alpha_range" in capsys.readouterr().err


@pytest.mark.parametrize("override, sections", [({"k_max": 1}, ("planner",)),
                                                ({"alpha": 2}, ("monitor", "planner"))])
def test_overrides_meet_the_documents_checks(override, sections, tmp_path, capsys):
    # a second channel is within the document's k_max, not within the override's
    doc = _bundled_doc()
    doc["initial_cells"][0]["channels"] = [0, 1]
    assert validate(doc) == []
    path = tmp_path / "two_channels.json"
    path.write_text(json.dumps(doc))
    for section in sections:
        doc[section].update(override)
    expected = validate(doc)
    assert expected
    with pytest.raises(InvariantError) as exc:
        ExperimentConfig(path, **override).scenario()
    assert exc.value.violations == expected
    (name, value), = override.items()
    flag = {"k_max": "--kmax", "alpha": "--alpha"}[name]
    assert main(["run", "--scenario", str(path), flag, str(value), "--horizon", "4",
                 "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert all(rule in err for rule in _names(expected))
    assert not (tmp_path / "run").exists()


def test_overrides_leave_a_malformed_document_to_the_loader(tmp_path):
    doc = _bundled_doc()
    doc["monitor"] = [0.5]
    path = tmp_path / "malformed.json"
    for text in (json.dumps(doc), "[]"):
        path.write_text(text)
        with pytest.raises(InvariantError) as exc:
            ExperimentConfig(path, alpha=0.5).scenario()
        assert exc.value.violations == validate(json.loads(text))


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


def test_stacked_spec_sums_equal_cell_sums_on_a_fresh_map(monkeypatch):
    # a layout whose link cache keeps no sums of a pixel-level spec raster
    # sums it as one more row of evaluate_state's one slice_sums and keeps
    # the sums in the cache: they must be the bits of cell_sums on a fresh
    # map, for every method, on the layout's map and on a grown layout's
    scn = load_scenario(BUNDLED)
    calls = []
    slice_sums = ServingMap.slice_sums
    monkeypatch.setattr(ServingMap, "slice_sums",
                        lambda self, rows: calls.append(len(rows)) or slice_sums(self, rows))
    site = next(p for p in scn.candidate_sites.site_pixels
                if p not in scn.initial_state.site_pixels)
    trial = scn.initial_state.add_cell(SmallCell(99, site, (0,)))
    for method in METHODS:
        ctx = build_context(scn, method).busy_hour()
        for state in (scn.initial_state, trial):
            calls.clear()
            ev = evaluate_state(state, ctx)
            pixel = {m: p.pixel_specs.pixel_values for m, p in ctx.policies.items()
                     if p.pixel_specs is not None}
            # existing tenants plan on their own traffic: pixel level under every method
            assert len(pixel) == len(ctx.policies) - (method in ("uniform-sc", "corr-sc"))
            # one stacked call: traffic, spec rasters, weights, weighted SE
            # (corr-sc also sums its basis raster)
            assert calls[-1] == len(ctx.known_demand) + len(pixel) + 2
            assert len(calls) == 1 + (method == "corr-sc")
            fresh = ServingMap(ev.serving.cell_ids, ev.serving.pixel_cell)
            for m, raster in pixel.items():
                assert repr(ev.cell_specs[m]) == repr(fresh.cell_sums(raster))
            # evaluated again, the layout reads its kept sums and stacks no spec row
            calls.clear()
            assert_same_evaluation(evaluate_state(state, ctx), ev)
            assert calls[-1] == len(ctx.known_demand) + 2


def test_a_site_search_keeps_nothing_and_kept_layouts_reuse_their_sums(monkeypatch, tmp_path):
    # a trial is evaluated once: after select_site no trial's gather or sum
    # is held.  The winner, evaluated on, and a week's one layout keep their
    # spec sums: only their first evaluation stacks spec rows
    scn = load_scenario(BUNDLED)
    calls = []
    slice_sums = ServingMap.slice_sums
    monkeypatch.setattr(ServingMap, "slice_sums",
                        lambda self, rows: calls.append(len(rows)) or slice_sums(self, rows))
    ctx = build_context(scn, "corr-px").busy_hour()
    cache, k = ctx.link_cache, len(ctx.known_demand)
    pixel = [p.pixel_specs.pixel_values for p in ctx.policies.values()]
    base = evaluate_state(scn.initial_state, ctx)
    assert all(cache.sums(raster) is not None for raster in pixel)
    site, ev = select_site(base.state, scn.candidate_sites, ctx, 99)
    for raster in (*pixel, *ctx.known_demand.values(), ev.pixel_se):
        assert cache.sums(raster) is None
        assert cache.ordered(raster) is not cache.ordered(raster)
    calls.clear()
    for _ in range(3):
        assert_same_evaluation(evaluate_state(ev.state, ctx), ev)
    assert calls == [k + len(pixel) + 2, k + 2, k + 2]
    assert all(cache.sums(raster) is not None for raster in pixel)

    doc = _bundled_doc()
    del doc["event"]
    path = tmp_path / "week.json"
    path.write_text(json.dumps(doc))
    calls.clear()
    report = run_experiment(ExperimentConfig(path, method="corr-px", horizon=6))
    assert report.fired_steps == []
    tenants = len(doc["tenants"])
    assert calls == [2 * tenants + 2] + [tenants + 2] * 6


def _compares_arrays(cls, seen=frozenset()) -> bool:
    """Whether ``==`` on the dataclass ``cls`` compares a field whose type
    holds an array: an array, a container of arrays, or another dataclass
    that compares one."""
    if not dataclasses.is_dataclass(cls) or not cls.__dataclass_params__.eq or cls in seen:
        return False
    hints = typing.get_type_hints(cls)

    def holds(tp):
        return tp is np.ndarray or _compares_arrays(tp, seen | {cls}) or any(
            holds(arg) for arg in typing.get_args(tp))

    return any(f.compare and holds(hints[f.name]) for f in dataclasses.fields(cls))


def test_no_dataclass_compares_arrays(mini_path):
    # == on a dataclass compares its fields as a tuple, and an array field
    # makes that raise numpy's "truth value of an array is ambiguous": such
    # holders compare by identity (eq=False)
    import scplan
    classes = {cls for name in pkgutil.iter_modules(scplan.__path__)
               for _, cls in inspect.getmembers(importlib.import_module(f"scplan.{name.name}"),
                                                inspect.isclass)
               if dataclasses.is_dataclass(cls) and cls.__module__.startswith("scplan.")}
    assert len(classes) > 20
    assert sorted(c.__qualname__ for c in classes if _compares_arrays(c)) == []
    # two holders built the same way are two values: == is a bool and never raises
    scn = load_scenario(mini_path)
    runs = [build_context(scn, "corr-px") for _ in range(2)]
    policies = [run.policies["a"] for run in runs]
    reports = [run_experiment(ExperimentConfig(mini_path, horizon=2)) for _ in range(2)]
    for a, b in (runs, [run.busy_hour() for run in runs], policies,
                 [policy.pixel_specs for policy in policies], reports):
        assert (a == b) is False and (a == a) is True
