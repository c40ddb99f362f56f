"""Reports pinned byte for byte.

``data/pinned_reports.json`` holds criterion-10's nine configs and, for
each, the report that ``mixerlab run`` wrote for it, minus ``wall_time_s``.
Among them are the metered report fields: ``arthur_queries_per_trial`` (am),
``cm_queries_per_call`` (projector-demo) and ``g_queries_max`` /
``g_queries_mean`` (counterfeit, grover-embed). A refactor that keeps the
schema must keep these reports; a schema bump regenerates the file.
"""

import json
from pathlib import Path

import pytest

from mixerlab.cli import main

PINNED = json.loads((Path(__file__).parent / "data" / "pinned_reports.json").read_text())


@pytest.mark.parametrize("name", sorted(PINNED))
def test_report_matches_pinned(tmp_path, capsys, name):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(PINNED[name]["config"]))
    out = tmp_path / "report.json"
    assert main(["run", str(cfg), "--output", str(out)]) == 0, capsys.readouterr().err
    report = json.loads(out.read_text())
    report.pop("wall_time_s")
    assert json.dumps(report, sort_keys=True) == json.dumps(PINNED[name]["report"], sort_keys=True)
