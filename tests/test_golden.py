"""Golden outputs of the bundled scenario, frozen before any speed-up.

Every method's run of ``urban200m`` at horizon 24 must reproduce the frozen
record exactly: floats are compared through ``repr``, so a change in the
last bit of a power or of the total fails.  Regenerate the file only for a
change that is meant to alter results, and say why in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py --write
"""
import json
import sys
from pathlib import Path

import pytest

from scplan.evaluation import METHODS
from scplan.experiment import ExperimentConfig, run_experiment
from scplan.presets import bundled_scenario_path

GOLDEN = Path(__file__).parent / "data" / "golden_urban200m.json"
HORIZON = 24


def golden_record(method: str) -> dict:
    report = run_experiment(ExperimentConfig(bundled_scenario_path("urban200m"),
                                             method=method, horizon=HORIZON))
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
    assert json.loads(json.dumps(golden_record(method))) == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({m: golden_record(m) for m in METHODS},
                                 indent=1, sort_keys=True) + "\n")
