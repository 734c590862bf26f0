"""Bundled example scenario: a 0.2 km x 0.2 km urban area at 3 m resolution.

``data/urban200m.json`` holds it.  Four small cells on channels 0, 1, 1 and
0 serve two existing tenants, ``retail`` and ``transit``, each with two
hotspots whose peaks were fitted so the initial per-cell traffic is 22.5,
27.9, 19.3 and 16.6 Mbps (``tests/test_experiment.py`` checks these
figures); 2% of the pixels are candidate sites; a third tenant, ``media``,
contracting 100 Mbps, arrives at step 2 with demand spatially correlated
with the existing traffic.
"""
from __future__ import annotations

from importlib import resources
from pathlib import Path


def bundled_scenario_path(name: str) -> Path | None:
    """Resolve a bundled scenario name to its JSON file, if it exists."""
    stem = Path(name).stem
    ref = resources.files("scplan").joinpath("data", f"{stem}.json")
    try:
        return Path(str(ref)) if ref.is_file() else None
    except (OSError, TypeError):
        return None
