"""Reports pinned byte for byte.

``data/pinned_reports.json`` holds criterion-10's nine configs and the am
config with the ``optimal_cheat`` Merlin and, for each, the report that
``mixerlab run`` wrote for it, minus ``wall_time_s``.
Among them are the metered report fields: ``arthur_queries_per_trial`` (am),
``cm_queries_per_call`` (projector-demo) and ``g_queries_max`` /
``g_queries_mean`` (counterfeit, grover-embed). ``data/pinned_verify_reports.json``
holds verify-mixer reports on graphiso v=3 and v=4, a coset, a marked grover
mixer and two hidden layered instances, written by the per-pair verifiers
before they became one sweep. ``data/pinned_quantum_reports.json`` holds qma
reports (qma-offset3's config at 200 trials, graphiso v=3, a single-component
instance) and projector-demo reports (graphiso v=4 and an instance with
garbage), written by the 4-axis projector before it computed one flag branch
at a time. A refactor that keeps the schema must keep these reports; a
schema bump regenerates the files.
"""

import json
from pathlib import Path

import pytest

from mixerlab.cli import main

DATA = Path(__file__).parent / "data"
PINNED = json.loads((DATA / "pinned_reports.json").read_text())
PINNED_VERIFY = json.loads((DATA / "pinned_verify_reports.json").read_text())
PINNED_QUANTUM = json.loads((DATA / "pinned_quantum_reports.json").read_text())


def run_report(tmp_path, capsys, config) -> str:
    """The report ``mixerlab run`` writes for ``config``, minus ``wall_time_s``."""
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "report.json"
    assert main(["run", str(cfg), "--output", str(out)]) == 0, capsys.readouterr().err
    report = json.loads(out.read_text())
    report.pop("wall_time_s")
    return json.dumps(report, sort_keys=True)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_report_matches_pinned(tmp_path, capsys, name):
    expected = json.dumps(PINNED[name]["report"], sort_keys=True)
    assert run_report(tmp_path, capsys, PINNED[name]["config"]) == expected


@pytest.mark.parametrize("name", sorted(PINNED_VERIFY))
def test_verify_mixer_report_matches_pinned(tmp_path, capsys, name):
    expected = json.dumps(PINNED_VERIFY[name]["report"], sort_keys=True)
    assert run_report(tmp_path, capsys, PINNED_VERIFY[name]["config"]) == expected


@pytest.mark.parametrize("name", sorted(PINNED_QUANTUM))
def test_quantum_report_matches_pinned(tmp_path, capsys, name):
    expected = json.dumps(PINNED_QUANTUM[name]["report"], sort_keys=True)
    assert run_report(tmp_path, capsys, PINNED_QUANTUM[name]["config"]) == expected
