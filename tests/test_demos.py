import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, monkeypatch, tmp_path):
    # demos write their rasters to the working directory
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(demo), run_name="__main__")
