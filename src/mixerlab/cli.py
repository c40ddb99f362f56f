"""Command-line front end.

``mixerlab run config.json`` builds the configured instance, hands it to the
library runner of the named experiment, prints a summary, and writes a JSON
report formatted from the runner's result. Reports are bit-reproducible for
equal (config, version) up to the wall-time field. The report and CSV paths
are checked before the experiment runs, and the two files are written both
or neither.

Exit codes: 0 success, 1 malformed config or command line, 2 promise
violation, 3 query budget exhausted.
"""

import argparse
import contextlib
import csv
import io
import json
import os
import sys
import time

from . import __version__
from .counterfeit import (
    LabelScanningCounterfeiter,
    ReferenceCounterfeiter,
    distinguishing_experiment,
    grover_embedding_query_experiment,
)
from .errors import (
    BudgetExhaustedError,
    InvalidArgumentError,
    MalformedQueryError,
    MixerError,
    PromiseViolationError,
    check_int,
)
from .instances import GROVER_MAX_N, GROVER_MAX_Q, instance_from_config
from .protocols import (
    build_qma_witness,
    run_am_mbcp,
    run_coam_mbcp,
    run_projector_demo,
    run_qma_mc,
    sd_reduction_mbcp,
    sd_reduction_scp,
)
from .quantum import QuantumState
from .bits import as_int
from .trials import MAX_TRIALS
from .verify import instant_mixing_bound, sweep_mixer

SCHEMA_VERSION = 1

# experiment -> (top-level fields it reads, {"params.<key>" or
# "budgets.<key>": (low, high) for an int key, high None when unbounded; a
# tuple of names for a named key, the first its default; or else what the key
# takes}, the column of its per-trial CSV or None). No other params or budgets
# key is accepted, and list-experiments prints this table.
EXPERIMENTS = {
    "am": ("instance, trials, seed", {"params.merlin": ("honest", "optimal_cheat")}, "accept"),
    "coam": ("instance, trials, seed", {}, "accept"),
    "counterfeit": ("instance (base), trials, seed", {
        "params.alg": ("reference", "scan"),
        "params.scan_count": (0, None),
        "params.s": "bit string",
        "budgets.counterfeiter": (0, None),
    }, None),
    "grover-embed": ("trials, seed", {
        "params.n": (1, GROVER_MAX_N),
        "params.q": (0, GROVER_MAX_Q),
    }, None),
    "projector-demo": ("instance, trials, seed", {"params.s": "bit string"}, "outcome"),
    "qma": ("instance, trials, seed",
            {"params.k1": "component id", "params.k2": "component id"}, "accept"),
    "sd-mbcp": ("instance, seed", {}, None),
    "sd-scp": ("instance, seed", {"params.s": "bit string", "params.t": "bit string"}, None),
    "verify-mixer": ("instance, seed", {}, None),
}

_TOP_LEVEL_FIELDS = {
    "experiment", "instance", "trials", "seed", "budgets", "params", "output",
}


def _describe(spec) -> str:
    """What a params or budgets key takes, from its :data:`EXPERIMENTS` entry."""
    if isinstance(spec, str):
        return spec
    if isinstance(spec[0], str):
        return " or ".join(spec)
    low, high = spec
    return f"int, at least {low}" if high is None else f"int, {low}..{high}"


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            config = json.load(fh)
    except OSError as exc:
        raise InvalidArgumentError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidArgumentError(f"line {exc.lineno}: invalid JSON ({exc.msg})") from exc
    if not isinstance(config, dict):
        raise InvalidArgumentError("config must be a JSON object")
    unknown = set(config) - _TOP_LEVEL_FIELDS
    if unknown:
        raise InvalidArgumentError(f"unknown config fields: {sorted(unknown)}")
    if "seed" not in config:
        raise InvalidArgumentError("seed is mandatory")
    if not isinstance(config.get("output", ""), str):
        raise InvalidArgumentError(f"output must be a path string, got {config['output']!r}")
    name = config.get("experiment")
    if not isinstance(name, str) or name not in EXPERIMENTS:
        raise InvalidArgumentError(f"experiment must be one of {sorted(EXPERIMENTS)}")
    keys = EXPERIMENTS[name][1]
    for section in ("params", "budgets"):
        given = config.get(section, {})
        if not isinstance(given, dict):
            raise InvalidArgumentError(f"{section} must be a JSON object")
        for key in given:
            if f"{section}.{key}" not in keys:
                raise InvalidArgumentError(f"unknown {section} key {key!r} for experiment {name}")
    return config


_REQUIRED = object()


def _field(config: dict, label: str, default=_REQUIRED):
    """The field ``label`` ("instance", "params.s", ...) of ``config``, or
    ``default``; a missing required field is a config error naming it."""
    section, _, key = label.rpartition(".")
    given = config.get(section, {}) if section else config
    if key in given:
        return given[key]
    if default is _REQUIRED:
        raise InvalidArgumentError(f"{label} is required")
    return default


def _key(config: dict, label: str, default=_REQUIRED):
    """The int or named key ``label`` ("params.q", "params.alg", ...) of
    ``config``, checked against its experiment's :data:`EXPERIMENTS` entry: an
    int in its range, or one of its names (the first when the key is absent)."""
    spec = EXPERIMENTS[config["experiment"]][1][label]
    if isinstance(spec[0], int):
        value = _field(config, label, default)
        return value if value is default else check_int(value, label, *spec)
    value = _field(config, label, spec[0])
    if value not in spec:
        raise InvalidArgumentError(f"{label} must be {_describe(spec)}, got {value!r}")
    return value


def _element_field(config: dict, label: str, n: int) -> int:
    """:func:`_field` for a required n-bit element, given as a bit string or
    an integer."""
    value = _field(config, label)
    if not isinstance(value, str):
        check_int(value, label)
    try:
        return as_int(value, n)
    except MalformedQueryError as exc:
        raise InvalidArgumentError(f"{label}: {exc}") from None


def _trial_results(est, column: str, value, **extra):
    """A trial experiment's payload (its acceptance estimate and ``extra``)
    and its per-trial CSV rows, ``value(record)`` in ``column``; the rows are
    built only if they are read (``--csv``)."""
    payload = {"accept_rate": est.estimate, "ci95": est.ci95, "trials": est.trials, **extra}
    return payload, ({"trial": t, column: value(o)} for t, o in enumerate(est.outcomes))


def _run_experiment(config: dict):
    """The experiment's results payload and its per-trial CSV rows (none for
    an experiment without a CSV column)."""
    name = config["experiment"]
    seed = check_int(_field(config, "seed"), "seed", 0)
    trials = check_int(_field(config, "trials", 1000), "trials", 1, MAX_TRIALS)
    column = EXPERIMENTS[name][2]

    if name == "grover-embed":
        n, q = _key(config, "params.n"), _key(config, "params.q")
        est = grover_embedding_query_experiment(n, q, trials, seed)
        g_queries = [g for _, g in est.outcomes]
        return {"q": q, "trials": trials, "success_rate": est.estimate, "ci95": est.ci95,
                "g_queries_mean": sum(g_queries) / trials, "g_queries_max": max(g_queries)}, ()

    # a named key is checked before the instance is built
    merlin = _key(config, "params.merlin") if name == "am" else None
    alg = _key(config, "params.alg") if name == "counterfeit" else None
    bundle = instance_from_config(_field(config, "instance"))
    oracle, truth = bundle.oracle, bundle.truth

    if name == "verify-mixer":
        sweep = sweep_mixer(oracle, truth)
        tv = sweep.instant_mixing_tv()
        return {
            "num_components": truth.num_components,
            "component_sizes": list(truth.component_sizes()),
            "no_cross_mixing": sweep.no_cross_mixing(),
            "instant_mixing_tv": tv,
            "instant_mixing_bound": instant_mixing_bound(truth.n),
            "meets_bound": tv <= instant_mixing_bound(truth.n),
            "full_connectivity_ok": sweep.full_connectivity(),
        }, ()

    if name == "am":
        est = run_am_mbcp(oracle, truth, merlin, trials, seed)
        return _trial_results(est, column, lambda o: int(o[0]), merlin=merlin,
                              arthur_queries_per_trial=est.outcomes[0][1])

    if name == "coam":
        return _trial_results(run_coam_mbcp(oracle, truth, trials, seed), column, int)

    if name == "qma":
        if truth.num_components > 1:
            k1 = check_int(_field(config, "params.k1", 1), "params.k1")
            k2 = check_int(_field(config, "params.k2", 2), "params.k2")
            witness = build_qma_witness(truth, k1, k2)
        else:
            single = QuantumState.uniform(1 << truth.n, truth.members)
            witness = single.tensor(single)
        return _trial_results(run_qma_mc(oracle, witness, trials, seed), column, int)

    if name == "sd-scp":
        s = _element_field(config, "params.s", truth.n)
        t = _element_field(config, "params.t", truth.n)
        return {"statistical_difference": sd_reduction_scp(oracle, truth, s, t)}, ()

    if name == "sd-mbcp":
        return {"statistical_difference": sd_reduction_mbcp(oracle, truth)}, ()

    if name == "projector-demo":
        s = _element_field(config, "params.s", truth.n)
        comp_size = len(truth.component_elements(truth.component_id(s)))
        est = run_projector_demo(oracle, s, trials, seed)
        return _trial_results(est, column, lambda o: o[0], expected_rate=1.0 / comp_size,
                              cm_queries_per_call=est.outcomes[0][1])

    # counterfeit, the one experiment left
    budget = _key(config, "budgets.counterfeiter", None)
    scan_count = _key(config, "params.scan_count", 0)
    if alg == "reference":
        factory = lambda: ReferenceCounterfeiter(budget=budget)
    else:
        factory = lambda: LabelScanningCounterfeiter(scan_count, budget=budget)
    s = (_element_field(config, "params.s", truth.n) if "s" in config.get("params", {})
         else truth.component_elements(1)[0])
    report = distinguishing_experiment(oracle, truth, s, factory, trials, seed)
    fields = ("distance", "g_queries_max", "trials", "detections_zero", "detections_point")
    return {field: getattr(report, field) for field in fields}, ()


def _check_writable(path: str):
    """Raise OSError if ``path`` cannot be opened for writing; a file the
    probe creates is removed again."""
    existed = os.path.lexists(path)
    with open(path, "a"):
        pass
    if not existed:
        os.remove(path)


def _write_all(files):
    """Write each (path, text, newline); on a failure remove every file
    already written and re-raise, so the outputs come out whole or not at all."""
    written = []
    try:
        for path, text, newline in files:
            with open(path, "w", newline=newline) as fh:
                written.append(path)
                fh.write(text)
    except OSError:
        for path in written:
            with contextlib.suppress(OSError):
                os.remove(path)
        raise


def run_command(args) -> int:
    try:
        config = _load_config(args.config)
        name = config["experiment"]
        if args.csv and EXPERIMENTS[name][2] is None:
            raise InvalidArgumentError(f"experiment {name} has no per-trial CSV rows")
    except InvalidArgumentError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    if args.trials is not None:
        config["trials"] = args.trials
    if args.seed is not None:
        config["seed"] = args.seed
    output = args.output or config.get("output")
    try:
        for path in (output, args.csv):
            if path:
                _check_writable(path)
    except OSError as exc:
        print(f"output error: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 1

    start = time.monotonic()
    try:
        results, rows = _run_experiment(config)
    except PromiseViolationError as exc:
        print(f"promise violation: {exc}", file=sys.stderr)
        return 2
    except BudgetExhaustedError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return 3
    except MixerError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    wall = time.monotonic() - start

    report = {
        "schema": SCHEMA_VERSION,
        "version": __version__,
        "config": config,
        "results": results,
        "wall_time_s": wall,
    }
    files = []
    if output:
        files.append((output, json.dumps(report, indent=2, sort_keys=True) + "\n", None))
    if args.csv:
        table = io.StringIO()
        writer = csv.DictWriter(table, fieldnames=["trial", EXPERIMENTS[name][2]])
        writer.writeheader()
        writer.writerows(rows)
        files.append((args.csv, table.getvalue(), ""))
    try:
        _write_all(files)
    except OSError as exc:
        print(f"output error: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 1
    summary = {k: v for k, v in results.items() if not isinstance(v, (list, dict))}
    print(f"{name}: " + json.dumps(summary, sort_keys=True))
    return 0


def list_experiments_command(_args) -> int:
    width = max(len(name) for name in EXPERIMENTS)
    for name in sorted(EXPERIMENTS):
        fields, keys, _ = EXPERIMENTS[name]
        described = "".join(f"; {key} ({_describe(spec)})" for key, spec in keys.items())
        print(f"{name:<{width}}  {fields}{described}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Command-line errors exit 1, like a malformed config; exit 2 means a
    promise violation here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mixerlab", description="Component-mixer query experiments"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment from a JSON config")
    run_p.add_argument("config", help="path to the config JSON")
    run_p.add_argument("--output", default=None, help="report output path")
    run_p.add_argument("--csv", default=None, help="trial-level CSV output path")
    run_p.add_argument("--trials", type=int, default=None, help="override trials")
    run_p.add_argument("--seed", type=int, default=None, help="override seed")
    run_p.set_defaults(func=run_command)

    list_p = sub.add_parser("list-experiments", help="list experiment names")
    list_p.set_defaults(func=list_experiments_command)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
