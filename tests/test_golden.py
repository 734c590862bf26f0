"""Golden outputs of the bundled scenario, frozen before any speed-up.

Every method's run of ``urban200m`` at horizon 24 must reproduce the frozen
record exactly: floats are compared through ``repr``, so a change in the
last bit of a power or of the total fails.  Two ``--gamma 0.5`` runs and
a uniform-px ``--gamma 0.2`` run, whose plans remove and relocate cells,
are frozen beside them.  Regenerate the
file only for a change that is meant to alter results, and say why in
CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py --write
"""
import json
import sys
from pathlib import Path

import pytest

from scplan.evaluation import METHODS
from scplan.experiment import ExperimentConfig, run_experiment
from scplan.planner import replay_actions
from scplan.presets import bundled_scenario_path

GOLDEN = Path(__file__).parent / "data" / "golden_urban200m.json"
HORIZON = 24
# runs with an override, keyed as in the golden file: the planner trims
# cells, and the compressed ledgers hold a RemoveCell and a Relocate
# (uniform-sc), void the added cell (corr-px) or hold two Relocates
# (uniform-px)
OVERRIDES = {"uniform-sc gamma=0.5": ("uniform-sc", {"gamma": 0.5}),
             "corr-px gamma=0.5": ("corr-px", {"gamma": 0.5}),
             "uniform-px gamma=0.2": ("uniform-px", {"gamma": 0.2})}
RUNS = {**{m: (m, {}) for m in METHODS}, **OVERRIDES}


def golden_run(key: str):
    method, overrides = RUNS[key]
    cfg = ExperimentConfig(bundled_scenario_path("urban200m"), method=method,
                           horizon=HORIZON, **overrides)
    return run_experiment(cfg), cfg.scenario()


def golden_record(report) -> dict:
    return {
        "cell_count": report.cell_count,
        "layout": [[c.cell_id, c.site_pixel, list(c.channels), repr(c.power_dbm)]
                   for c in report.final_state.cells],
        "raw_actions": [[t, [repr(a) for a in ledger.raw_actions]]
                        for t, ledger in report.ledgers],
        "compressed_actions": [[t, [repr(a) for a in ledger.actions]]
                               for t, ledger in report.ledgers],
        "fired_steps": list(report.fired_steps),
        "total_required_mhz": repr(report.total_required_mhz),
    }


@pytest.mark.parametrize("method", METHODS)
def test_golden_urban200m(method):
    expected = json.loads(GOLDEN.read_text())[method]
    # through JSON, so tuples and lists compare alike
    assert json.loads(json.dumps(golden_record(golden_run(method)[0]))) == expected


@pytest.mark.parametrize("key", OVERRIDES)
def test_golden_urban200m_runs_that_remove_cells_replay_both_ledgers(key):
    report, scn = golden_run(key)
    expected = json.loads(GOLDEN.read_text())[key]
    assert json.loads(json.dumps(golden_record(report))) == expected
    (_, ledger), = report.ledgers
    assert "RemoveCell" in repr(ledger.raw_actions)
    for actions in (ledger.raw_actions, ledger.actions):
        assert (replay_actions(report.initial_state, actions, scn.grid, scn.radio)
                == report.final_state)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({key: golden_record(golden_run(key)[0]) for key in RUNS},
                                 indent=1, sort_keys=True) + "\n")
