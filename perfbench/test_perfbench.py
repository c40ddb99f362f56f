"""Tests of the benchmark's own machinery.

    python3 -m pytest perfbench -q

They are outside the repository's ``testpaths``, so the tier-1 suite does
not collect them.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import bench_trace  # noqa: E402
import bench_workloads  # noqa: E402
import mixerlab.cli  # noqa: E402


def _snapshot() -> dict:
    """Every attribute of every mixerlab module and class, by identity."""
    objects = {}
    for name, module in sys.modules.items():
        if name == "mixerlab" or name.startswith("mixerlab."):
            for key, value in vars(module).items():
                objects[(name, key)] = value
                if isinstance(value, type) and value.__module__ == name:
                    for attr, member in vars(value).items():
                        objects[(name, key, attr)] = member
                elif callable(value) and getattr(value, "__module__", None) == name:
                    objects[(name, key, "__defaults__")] = getattr(value, "__defaults__", None)
    return objects


def _run(tmp_path, workload: str, trials: int | None = None) -> dict:
    config = bench_workloads.make_config(workload, 5)
    if trials is not None:
        config["trials"] = trials
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    report_path = tmp_path / "report.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert mixerlab.cli.main(["run", str(config_path), "--output", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert bench_workloads.check_report(workload, report, config) == []
    return bench_workloads.without_timing(report)


def _traced(tmp_path, workload: str, trials: int | None = None):
    tracer = bench_trace.Tracer()
    try:
        tracer.install()
        report = _run(tmp_path, workload, trials)
    finally:
        tracer.remove()
    return tracer, report


def test_untraced_run_after_traced_sees_original_functions(tmp_path):
    before = _snapshot()
    tracer, traced_report = _traced(tmp_path, "counterfeit-offset3", trials=20)
    assert tracer.span_count > 0
    after = _snapshot()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
    spans = tracer.span_count
    assert _run(tmp_path, "counterfeit-offset3", trials=20) == traced_report
    assert tracer.span_count == spans


def test_every_target_is_wrapped_while_installed():
    tracer = bench_trace.Tracer()
    try:
        tracer.install()
        for module_name, path, _ in bench_trace.TARGETS:
            owner = sys.modules[f"mixerlab.{module_name}"]
            for part in path.split("."):
                owner = getattr(owner, part)
            assert hasattr(owner, "__wrapped__"), path
    finally:
        tracer.remove()


def test_traced_counts_repeat_exactly(tmp_path):
    counts = []
    for _ in range(2):
        tracer, _ = _traced(tmp_path, "grover-embed-n10", trials=6)
        metrics = bench_trace.layer_metrics(tracer)
        counts.append({k: v for k, (v, unit) in metrics.items() if unit == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["instances.mixers_built"] == 6
    assert counts[0]["instances.g_queries"] == 2 * counts[0]["oracle.apply_calls"]


def test_self_time_excludes_children():
    tracer = bench_trace.Tracer()
    inner = tracer.wrap("b.inner", lambda: sum(range(20000)))
    outer = tracer.wrap("a.outer", lambda: inner() + inner())
    outer()
    groups, duration, self_time = bench_trace.self_times(tracer)
    assert [tracer.groups[g] for g in groups] == ["a.outer", "b.inner", "b.inner"]
    assert abs(self_time[0] - (duration[0] - duration[1] - duration[2])) < 1e-12
    assert list(self_time[1:]) == list(duration[1:])


def test_report_checks_reject_wrong_results():
    config = bench_workloads.make_config("verify-graphiso4", 1)
    results = {
        "no_cross_mixing": True,
        "instant_mixing_tv": 0.0,
        "meets_bound": True,
        "full_connectivity_ok": True,
        "num_components": 11,
    }
    report = {"config": config, "results": results}
    assert bench_workloads.check_report("verify-graphiso4", report, config) == []
    report["results"] = {**results, "num_components": 10}
    assert bench_workloads.check_report("verify-graphiso4", report, config) != []
    qma = bench_workloads.make_config("qma-offset3", 1)
    bad = {"config": qma, "results": {"accept_rate": 0.7, "ci95": 0.03}}
    assert bench_workloads.check_report("qma-offset3", bad, qma) != []
