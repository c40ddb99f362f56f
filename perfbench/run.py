"""mixerlab benchmark: one `mixerlab run` workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; mixerlab is imported from ``src/``
there, so nothing needs installing. Each invocation is one process that runs
the workload's config through ``mixerlab.cli.main(["run", ...])`` serially,
checks every report, and prints a JSON result as its last line.

``--trace 0`` reports the end-to-end metrics, measured with tracing off:
``run_s`` (median wall time of one complete run, over every run that fits in
``--seconds``), ``setup_s`` (median, over fresh interpreters, of importing
``mixerlab.cli`` and building the instance) and ``peak_rss_mb``.

``--trace 1`` reports the per-layer metrics: untraced runs, then one run with
every layer wrapped (see bench_trace.py), then the unit-cost probes.

Details of each invocation, environment included, go to perfbench/out/.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import bench_workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_SAMPLES = 5
IMPORT_SAMPLES = 3
MIN_RUNS = 3
CHILD_TIMEOUT_S = 60


def import_cli():
    """``mixerlab.cli`` from this checkout's ``src/``; exits if it is absent."""
    if not (SRC / "mixerlab" / "cli.py").is_file():
        sys.exit(f"perfbench: no mixerlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import mixerlab.cli

    if SRC not in Path(mixerlab.cli.__file__).resolve().parents:
        sys.exit(f"perfbench: imported mixerlab from {mixerlab.cli.__file__}, not {SRC}")
    return mixerlab.cli


@contextlib.contextmanager
def alternating_cpus():
    """Yield ``move(i)``, which confines this process to the i-th CPU it may
    use, cyclically; the original affinity comes back on exit.

    On a shared host each vCPU drifts in speed on its own, so runs that all
    land on one vCPU inherit its drift. On a 2-vCPU VM, spreading the runs
    over both halved the run-to-run spread of ``run_s`` in paired trials.
    """
    cpus = sorted(os.sched_getaffinity(0))
    try:
        yield lambda i: os.sched_setaffinity(0, {cpus[i % len(cpus)]})
    finally:
        os.sched_setaffinity(0, cpus)


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    import numpy as np

    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    thread_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var, "unset") for var in thread_vars},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "git_commit": git_commit(),
        "note": "no CPU is reserved or isolated on this shared machine; timed runs take turns on every allowed CPU",
    }


class Runs:
    """Complete `mixerlab run` calls of one workload, timed and checked."""

    def __init__(self, cli, workload: str, config: dict, config_path: Path, report_path: Path):
        self.cli = cli
        self.workload = workload
        self.config = config
        self.args = ["run", str(config_path), "--output", str(report_path)]
        self.report_path = report_path
        self.first_report = None
        self.attempted = 0
        self.problems: list[str] = []
        self.failed = 0

    def once(self) -> float:
        """Run the config once; return its wall seconds and check its report."""
        self.attempted += 1
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            try:
                code = self.cli.main(self.args)
            except Exception:
                traceback.print_exc()
                code = "exception"
            elapsed = time.perf_counter() - t0
        problems = [f"exit code {code}"] if code != 0 else self._check()
        if problems:
            self.failed += 1
            self.problems.extend(f"run {self.attempted}: {p}" for p in problems)
        return elapsed

    def _check(self) -> list[str]:
        report = bench_workloads.without_timing(json.loads(self.report_path.read_text()))
        if self.first_report is None:
            self.first_report = report
        elif report != self.first_report:
            return ["report differs from the first run's"]
        return bench_workloads.check_report(self.workload, report, self.config)

    def timed(self, seconds: float, min_runs: int = MIN_RUNS) -> list[float]:
        """Wall times of every run that starts within ``seconds``."""
        times = []
        deadline = time.perf_counter() + seconds
        with alternating_cpus() as move:
            while len(times) < min_runs or time.perf_counter() < deadline:
                move(len(times))
                times.append(self.once())
        return times


def fresh_interpreter_samples(config_path: Path, samples: int) -> list[dict]:
    """``setup_child.py`` results from ``samples`` fresh interpreters, after
    one unmeasured start that writes compiled bytecode, so that every measured
    start imports from bytecode as an installed package does."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    out = []
    with alternating_cpus() as move:
        for i in range(samples + 1):
            move(i)  # the child inherits this CPU
            proc = subprocess.run(
                [sys.executable, str(HERE / "setup_child.py"), str(SRC), str(config_path)],
                capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True, env=env,
            )
            doc = json.loads(proc.stdout.strip().splitlines()[-1])
            if SRC not in Path(doc["module"]).resolve().parents:
                sys.exit(f"perfbench: set-up child imported {doc['module']}")
            if i:
                out.append(doc)
    return out


def median_of(samples: list[dict], key: str) -> float:
    return statistics.median(s[key] for s in samples)


def timed_mode(runs: Runs, config_path: Path, seconds: int) -> tuple[dict, dict]:
    setup = fresh_interpreter_samples(config_path, SETUP_SAMPLES)
    runs.once()  # warm-up: first-call costs inside numpy, checked but not timed
    times = runs.timed(seconds)
    metrics = {
        "run_s": (statistics.median(times), "s"),
        "setup_s": (median_of(setup, "setup_s"), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    details = {"run_s_samples": times, "setup_samples": setup}
    # the highest percentile that still has ten samples above it
    tail = int(100 * (1 - 10 / len(times)))
    if tail >= 50:
        details[f"run_s_p{tail}"] = statistics.quantiles(times, n=100)[tail - 1]
    return metrics, details


def trace_mode(runs: Runs, config_path: Path, seconds: int, workload: str, seed: int) -> tuple[dict, dict]:
    import bench_probes
    import bench_trace

    runs.once()  # warm-up, as in the timed mode
    untraced = statistics.median(runs.timed(seconds / 2))

    tracer = bench_trace.Tracer()
    try:
        tracer.install()
        traced = runs.once()
    finally:
        still_wrapped = tracer.remove()
    spans = tracer.span_count
    runs.once()
    if still_wrapped or tracer.span_count != spans:
        runs.problems.append(f"tracing was not removed: {still_wrapped or 'spans recorded after removal'}")

    largest = bench_trace.largest_layer_check(tracer, workload)
    if not largest["ok"]:
        runs.problems.append(f"largest self-time layer is {largest['runner_up']}, not {largest['expected']}")
    metrics = bench_trace.layer_metrics(tracer)
    probes = bench_probes.run_probes()
    metrics.update((name, (p["value"], p["unit"])) for name, p in probes.items())
    import_samples = fresh_interpreter_samples(config_path, IMPORT_SAMPLES)
    metrics["cli.import_s"] = (median_of(import_samples, "import_s"), "s")
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    metrics["trace.spans"] = (spans, "count")

    spans_path = OUT / f"spans-{workload}-seed{seed}.npz"
    tracer.save(spans_path)
    details = {
        "untraced_run_s": untraced,
        "traced_run_s": traced,
        "largest_layer": largest,
        "probes": probes,
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return metrics, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=bench_workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    cli = import_cli()
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    config = bench_workloads.make_config(args.workload, args.seed)
    config_path = OUT / f"{stem}.config.json"
    config_path.write_text(json.dumps(config))
    runs = Runs(cli, args.workload, config, config_path, OUT / f"{stem}.report.json")

    env = environment()
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    if args.trace:
        metrics, details = trace_mode(runs, config_path, args.seconds, args.workload, args.seed)
        print("largest self-time layer " + json.dumps(details["largest_layer"]))
        for name, probe in details["probes"].items():
            verdict = "reproduced" if probe["reproduced"] else "NOT reproduced"
            print(f"probe {name} {probe['value']:.4g} {probe['unit']}, baseline {probe['baseline']}: {verdict}")
    else:
        metrics, details = timed_mode(runs, config_path, args.seconds)
        tails = {k: v for k, v in details.items() if k.startswith("run_s_p")}
        print(f"run_s: median of {len(details['run_s_samples'])} runs; {tails}")

    for name, (value, unit) in metrics.items():
        print(f"  {name:<34} {value:>14.6g} {unit}")
    print(f"  {'fail_rate':<34} {runs.failed / runs.attempted:>14.6g} ({runs.failed} of {runs.attempted} runs)")
    for problem in runs.problems:
        print(f"  FAIL {problem}")

    result = {
        "correct": not runs.problems,
        "attempted": runs.attempted,
        "failed": runs.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    fail_rate = runs.failed / runs.attempted
    (OUT / f"{stem}.json").write_text(json.dumps(
        {"env": env, "config": config, "fail_rate": fail_rate, "problems": runs.problems, **details, **result},
        indent=2,
    ))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
