import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mixerlab import GroundTruthPartition, cli
from mixerlab.trials import MAX_TRIALS

PARTITION = GroundTruthPartition.from_components(3, [[0, 1, 2], [3, 4]]).to_json_dict()
BALANCED = GroundTruthPartition.from_components(2, [[0, 1], [2, 3]]).to_json_dict()
# the CLI subprocesses import mixerlab from this checkout, installed or not
SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(*args):
    pythonpath = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "mixerlab.cli", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )


def write_config(tmp_path, name, config):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return str(path)


def load_payload(path):
    report = json.loads(open(path).read())
    report.pop("wall_time_s")
    return report


def test_list_experiments():
    proc = run_cli("list-experiments")
    assert proc.returncode == 0
    names = [line.split()[0] for line in proc.stdout.strip().splitlines()]
    assert "verify-mixer" in names and "counterfeit" in names
    assert names == sorted(names)
    counterfeit = next(line for line in proc.stdout.splitlines() if line.startswith("counterfeit"))
    assert "params.s" in counterfeit and "budgets.counterfeiter" in counterfeit
    grover = next(line for line in proc.stdout.splitlines() if line.startswith("grover-embed"))
    assert "params.q (int, 0..65536)" in grover


def test_verify_mixer_run_and_report_shape(tmp_path):
    cfg = write_config(
        tmp_path,
        "c.json",
        {
            "experiment": "verify-mixer",
            "seed": 1,
            "instance": {"family": "offset", "partition": PARTITION},
        },
    )
    out = str(tmp_path / "report.json")
    proc = run_cli("run", cfg, "--output", out)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(open(out).read())
    assert report["schema"] == 1
    assert report["results"]["no_cross_mixing"] is True
    assert report["results"]["instant_mixing_tv"] == 0.0
    assert "version" in report and "wall_time_s" in report


def test_reports_are_deterministic(tmp_path):
    cfg = write_config(
        tmp_path,
        "c.json",
        {
            "experiment": "am",
            "seed": 9,
            "trials": 200,
            "instance": {"family": "coset", "modulus": 8, "generators": [2]},
            "params": {"merlin": "honest"},
        },
    )
    out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert run_cli("run", cfg, "--output", out1).returncode == 0
    assert run_cli("run", cfg, "--output", out2).returncode == 0
    assert load_payload(out1) == load_payload(out2)


def test_csv_export(tmp_path):
    cfg = write_config(
        tmp_path,
        "c.json",
        {
            "experiment": "coam",
            "seed": 3,
            "trials": 50,
            "instance": {"family": "coset", "modulus": 4, "generators": [1]},
        },
    )
    csv_path = str(tmp_path / "rows.csv")
    proc = run_cli("run", cfg, "--csv", csv_path)
    assert proc.returncode == 0, proc.stderr
    lines = open(csv_path).read().strip().splitlines()
    assert lines[0] == "trial,accept"
    assert len(lines) == 51


def test_missing_seed_is_a_config_error(tmp_path):
    cfg = write_config(
        tmp_path,
        "c.json",
        {"experiment": "verify-mixer", "instance": {"family": "coset", "modulus": 4, "generators": [1]}},
    )
    proc = run_cli("run", cfg)
    assert proc.returncode == 1
    assert "seed" in proc.stderr


def test_unknown_field_is_a_config_error(tmp_path):
    cfg = write_config(
        tmp_path,
        "c.json",
        {"experiment": "verify-mixer", "seed": 1, "bogus": True,
         "instance": {"family": "coset", "modulus": 4, "generators": [1]}},
    )
    assert run_cli("run", cfg).returncode == 1


def test_promise_violation_exit_code(tmp_path):
    unbalanced = GroundTruthPartition.from_components(
        3, [[0, 1, 2, 3, 4], [5, 6]]
    ).to_json_dict()
    cfg = write_config(
        tmp_path,
        "c.json",
        {
            "experiment": "am",
            "seed": 1,
            "instance": {"family": "offset", "partition": unbalanced},
        },
    )
    proc = run_cli("run", cfg)
    assert proc.returncode == 2
    assert "promise" in proc.stderr


def test_budget_exhaustion_exit_code(tmp_path):
    cfg = write_config(
        tmp_path,
        "c.json",
        {
            "experiment": "counterfeit",
            "seed": 1,
            "trials": 2,
            "instance": {"family": "offset", "partition": BALANCED},
            "params": {"alg": "reference", "s": "00"},
            "budgets": {"counterfeiter": 1},
        },
    )
    proc = run_cli("run", cfg)
    assert proc.returncode == 3
    assert "budget" in proc.stderr


def test_zero_budget_is_exhausted_at_once(tmp_path):
    cfg = write_config(
        tmp_path,
        "c.json",
        {
            "experiment": "counterfeit",
            "seed": 1,
            "trials": 2,
            "instance": {"family": "offset", "partition": BALANCED},
            "budgets": {"counterfeiter": 0},
        },
    )
    proc = run_cli("run", cfg)
    assert proc.returncode == 3
    assert proc.stderr == "budget exhausted: counterfeiter has no query budget\n"


@pytest.mark.parametrize("flag", ["--output", "--csv"])
def test_output_path_in_a_missing_directory_exits_1_naming_it(tmp_path, flag):
    cfg = write_config(
        tmp_path,
        "c.json",
        {"experiment": "coam", "seed": 1, "trials": 5,
         "instance": {"family": "offset", "partition": BALANCED}},
    )
    path = str(tmp_path / "missing" / "out")
    proc = run_cli("run", cfg, flag, path)
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"output error: cannot write {path}: ")
    assert "Traceback" not in proc.stderr


COAM = {"experiment": "coam", "seed": 1, "trials": 5,
        "instance": {"family": "offset", "partition": BALANCED}}


@pytest.mark.parametrize(
    "bad, report_exists", [("--output", False), ("--csv", False), ("--csv", True), ("config", False)]
)
def test_unwritable_output_exits_1_before_the_experiment(
    tmp_path, monkeypatch, capsys, bad, report_exists
):
    monkeypatch.setattr(cli, "_run_experiment", lambda config: pytest.fail("experiment ran"))
    missing = str(tmp_path / "missing" / "out")
    report, rows = tmp_path / "r.json", tmp_path / "x.csv"
    if report_exists:
        report.write_text("old report\n")
    config = dict(COAM, output=missing) if bad == "config" else COAM
    argv = ["run", write_config(tmp_path, "c.json", config),
            "--csv", missing if bad == "--csv" else str(rows)]
    if bad != "config":
        argv += ["--output", missing if bad == "--output" else str(report)]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.startswith(f"output error: cannot write {missing}: ")
    # the report path was probed first: an old report is kept, a new one not left
    assert report.read_text() == "old report\n" if report_exists else not report.exists()
    assert not rows.exists()


@pytest.mark.parametrize("lost", ["report", "csv"])
def test_a_failed_write_leaves_no_report(tmp_path, monkeypatch, capsys, lost):
    # the directory of one output vanishes while the experiment runs
    (tmp_path / "report").mkdir()
    (tmp_path / "csv").mkdir()
    report, rows = tmp_path / "report" / "r.json", tmp_path / "csv" / "x.csv"
    run = cli._run_experiment

    def run_then_remove(config):
        (tmp_path / lost).rmdir()
        return run(config)

    monkeypatch.setattr(cli, "_run_experiment", run_then_remove)
    argv = ["run", write_config(tmp_path, "c.json", COAM), "--output", str(report), "--csv", str(rows)]
    assert cli.main(argv) == 1
    gone = report if lost == "report" else rows
    assert capsys.readouterr().err.startswith(f"output error: cannot write {gone}: ")
    assert not report.exists() and not rows.exists()


@pytest.mark.parametrize("experiment", ["am", "coam"])
def test_trial_rows_are_built_only_for_csv(tmp_path, monkeypatch, experiment):
    rows = cli._rows

    def unbuilt(trial_outcome):
        pytest.fail("a trial row was built without --csv")

    monkeypatch.setattr(cli, "_rows", lambda outcomes, column, value: rows(outcomes, column, unbuilt))
    config = {**COAM, "experiment": experiment, "output": str(tmp_path / "r.json")}
    assert cli.main(["run", write_config(tmp_path, "c.json", config)]) == 0
    assert (tmp_path / "r.json").exists()


def test_invalid_json_is_a_config_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert run_cli("run", str(path)).returncode == 1


@pytest.mark.parametrize(
    "experiment, config_trials, args",
    [
        ("am", None, ["--trials", "0"]),
        ("am", None, ["--trials", "-3"]),
        ("am", 0, []),
        ("grover-embed", None, ["--trials", "0"]),
    ],
)
def test_trials_below_one_is_a_config_error(tmp_path, experiment, config_trials, args):
    config = {
        "experiment": experiment,
        "seed": 1,
        "instance": {"family": "offset", "partition": BALANCED},
        "params": {"merlin": "honest"} if experiment == "am" else {"n": 4, "q": 2},
    }
    if config_trials is not None:
        config["trials"] = config_trials
    proc = run_cli("run", write_config(tmp_path, "c.json", config), *args)
    assert proc.returncode == 1
    assert proc.stderr.startswith("config error:") and "trials" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "experiment, params",
    [
        ("am", {"merlin": "honest"}),
        ("coam", {}),
        ("qma", {}),
        ("projector-demo", {"s": "00"}),
        ("counterfeit", {}),
        ("grover-embed", {"n": 4, "q": 2}),
    ],
)
@pytest.mark.parametrize(
    "config_trials, args, shown",
    [
        (2**70, [], 2**70),
        (MAX_TRIALS + 1, [], MAX_TRIALS + 1),
        (5, ["--trials", str(2**70)], 2**70),
    ],
)
def test_trials_over_the_cap_is_a_config_error_before_anything_is_built(
    tmp_path, monkeypatch, capsys, experiment, params, config_trials, args, shown,
):
    def unbuilt(*args, **kwargs):
        pytest.fail("the experiment was built before trials was checked")

    monkeypatch.setattr(cli, "instance_from_config", unbuilt)
    monkeypatch.setattr(cli, "grover_embedding_query_experiment", unbuilt)
    config = {
        "experiment": experiment,
        "seed": 1,
        "trials": config_trials,
        "instance": {"family": "offset", "partition": BALANCED},
        "params": params,
    }
    assert cli.main(["run", write_config(tmp_path, "c.json", config), *args]) == 1
    assert capsys.readouterr().err == (
        f"config error: trials must be between 1 and {MAX_TRIALS}, got {shown}\n"
    )


def test_point_out_of_range_is_a_config_error(tmp_path):
    cfg = write_config(
        tmp_path,
        "c.json",
        {"experiment": "verify-mixer", "seed": 1,
         "instance": {"family": "grover", "n": 2, "point": "111"}},
    )
    proc = run_cli("run", cfg)
    assert proc.returncode == 1
    assert "point 7 out of range" in proc.stderr


@pytest.mark.parametrize("args", [["--parallel", "2"], ["--trials", "abc"], ["--bogus"]])
def test_command_line_errors_exit_1(tmp_path, args):
    cfg = write_config(
        tmp_path,
        "c.json",
        {"experiment": "coam", "seed": 1, "trials": 5,
         "instance": {"family": "offset", "partition": BALANCED}},
    )
    proc = run_cli("run", cfg, *args)
    assert proc.returncode == 1
    assert proc.stderr.startswith("usage:")
    assert "Traceback" not in proc.stderr


def test_a_negative_seed_on_the_command_line_is_a_config_error(tmp_path):
    cfg = write_config(
        tmp_path,
        "c.json",
        {"experiment": "coam", "seed": 1, "trials": 5,
         "instance": {"family": "offset", "partition": BALANCED}},
    )
    proc = run_cli("run", cfg, "--seed", "-5")
    assert proc.returncode == 1
    assert proc.stderr == "config error: seed must be at least 0, got -5\n"


@pytest.mark.parametrize("experiment", [{"a": 1}, ["am"], 5, None])
def test_an_experiment_that_is_not_a_name_is_a_config_error(tmp_path, experiment):
    config = {"experiment": experiment, "seed": 1}
    proc = run_cli("run", write_config(tmp_path, "c.json", config))
    assert proc.returncode == 1
    assert proc.stderr == f"config error: experiment must be one of {sorted(cli.EXPERIMENTS)}\n"


def test_missing_subcommand_exits_1_and_help_exits_0():
    proc = run_cli()
    assert proc.returncode == 1 and proc.stderr.startswith("usage:")
    assert run_cli("run", "--help").returncode == 0


@pytest.mark.parametrize(
    "experiment, section, entries",
    [
        ("am", "params", {"merlim": "optimal_cheat"}),
        ("coam", "params", {"merlin": "honest"}),
        ("counterfeit", "budgets", {"mixer": 5}),
    ],
)
def test_unknown_params_or_budgets_key_is_a_config_error(tmp_path, experiment, section, entries):
    config = {
        "experiment": experiment,
        "seed": 1,
        "trials": 5,
        "instance": {"family": "offset", "partition": BALANCED},
        section: entries,
    }
    proc = run_cli("run", write_config(tmp_path, "c.json", config))
    assert proc.returncode == 1
    key = next(iter(entries))
    assert proc.stderr.startswith("config error:") and repr(key) in proc.stderr


COSET4 = {"family": "coset", "modulus": 4, "generators": [2]}


@pytest.mark.parametrize(
    "config, message",
    [
        ({"experiment": "verify-mixer"}, "instance is required"),
        ({"experiment": "grover-embed", "params": {"q": 2}}, "params.n is required"),
        ({"experiment": "qma", "instance": COSET4, "params": {"k2": 9}},
         "no component 9: component ids run 1..2"),
        ({"experiment": "coam", "instance": COSET4, "seed": "x"},
         "seed must be an integer, got 'x'"),
        ({"experiment": "coam", "instance": COSET4, "seed": -1},
         "seed must be at least 0, got -1"),
        ({"experiment": "verify-mixer", "instance": {
            "family": "layered", "base": COSET4, "variant": "row0", "hide": True, "seed": -3}},
         "instance seed must be at least 0, got -3"),
        # over the cap: rejected before any residue is enumerated
        ({"experiment": "verify-mixer",
          "instance": {"family": "coset", "modulus": 65537, "generators": [1]}},
         "coset modulus must be between 1 and 65536, got 65537"),
        ({"experiment": "coam", "instance": COSET4, "trials": "x"},
         "trials must be an integer, got 'x'"),
        ({"experiment": "verify-mixer", "instance": {"family": "offset"}},
         "family offset needs field 'partition'"),
        ({"experiment": "verify-mixer", "instance": 5},
         "an instance spec must be a JSON object, got 5"),
        ({"experiment": "grover-embed", "params": {"n": 0, "q": 2}},
         "params.n must be between 1 and 16, got 0"),
        ({"experiment": "grover-embed", "params": {"n": -2, "q": 2}},
         "params.n must be between 1 and 16, got -2"),
        # over the cap: rejected before any trial builds a mixer
        ({"experiment": "grover-embed", "params": {"n": 17, "q": 2}},
         "params.n must be between 1 and 16, got 17"),
        ({"experiment": "grover-embed", "params": {"n": 4, "q": -1}},
         "params.q must be between 0 and 65536, got -1"),
        # over the cap: rejected before any probe is drawn
        ({"experiment": "grover-embed", "params": {"n": 4, "q": 65537}},
         "params.q must be between 0 and 65536, got 65537"),
        ({"experiment": "verify-mixer", "instance": {"family": "graphiso", "v": "x"}},
         "family graphiso field 'v' must be an integer, got 'x'"),
        ({"experiment": "verify-mixer", "instance": {"family": "offset", "partition": 5}},
         "a partition must be a JSON object, got 5"),
        ({"experiment": "projector-demo", "instance": COSET4, "params": {"s": [1]}},
         "params.s must be an integer, got [1]"),
        ({"experiment": "sd-scp", "instance": COSET4, "params": {"s": "00", "t": "0x"}},
         "params.t: not a bit string: '0x'"),
        ({"experiment": "verify-mixer",
          "instance": {"family": "coset", "modulus": 4, "generators": 2}},
         "family coset field 'generators' must be a list, got 2"),
        ({"experiment": "verify-mixer", "instance": {"family": "grover", "n": 2, "point": "1x"}},
         "field 'point': not a bit string: '1x'"),
        ({"experiment": "verify-mixer", "instance": {"family": "grover", "n": -1}},
         "grover n must be between 1 and 16, got -1"),
        ({"experiment": "counterfeit", "instance": COSET4,
          "params": {"alg": "scan", "scan_count": -5}},
         "params.scan_count must be at least 0, got -5"),
        ({"experiment": "counterfeit", "instance": COSET4, "budgets": {"counterfeiter": -1}},
         "budgets.counterfeiter must be at least 0, got -1"),
        # over the cap: rejected before the density sums are allocated (this
        # 10-bit base once asked numpy for 32 TiB)
        ({"experiment": "counterfeit",
          "instance": {"family": "coset", "modulus": 1024, "generators": [512]}},
         "counterfeit density sums of 2199023255552 entries (a 10-bit base) "
         "exceed the cap 4194304"),
        ({"experiment": "counterfeit",
          "instance": {"family": "coset", "modulus": 64, "generators": [32]}},
         "counterfeit density sums of 33554432 entries (a 6-bit base) exceed the cap 4194304"),
        # over the cap: rejected before the 1.5e10-tuple walk
        ({"experiment": "sd-mbcp", "instance": {"family": "graphiso", "v": 5}},
         "sd-mbcp enumeration of 15099494400 tuples exceeds the cap 4194304"),
        ({"experiment": "verify-mixer", "instance": COSET4, "output": [1]},
         "output must be a path string, got [1]"),
        ({"experiment": "verify-mixer", "instance": COSET4, "output": 1},
         "output must be a path string, got 1"),
    ],
)
def test_missing_or_malformed_field_is_a_config_error_naming_it(tmp_path, config, message):
    config = {"seed": 1, "trials": 2, **config}
    proc = run_cli("run", write_config(tmp_path, "c.json", config))
    assert proc.returncode == 1
    assert proc.stderr == f"config error: {message}\n"

