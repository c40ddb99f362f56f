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
# "budgets.<key>": what that key takes}); no other params or budgets key is
# accepted
EXPERIMENTS = {
    "am": ("instance, trials, seed", {"params.merlin": "honest or optimal_cheat"}),
    "coam": ("instance, trials, seed", {}),
    "counterfeit": ("instance (base), trials, seed", {
        "params.alg": "reference or scan",
        "params.scan_count": "int, at least 0",
        "params.s": "bit string",
        "budgets.counterfeiter": "int, at least 0",
    }),
    "grover-embed": ("trials, seed", {
        "params.n": f"int, 1..{GROVER_MAX_N}",
        "params.q": f"int, 0..{GROVER_MAX_Q}",
    }),
    "projector-demo": ("instance, trials, seed", {"params.s": "bit string"}),
    "qma": ("instance, trials, seed", {"params.k1": "component id", "params.k2": "component id"}),
    "sd-mbcp": ("instance, seed", {}),
    "sd-scp": ("instance, seed", {"params.s": "bit string", "params.t": "bit string"}),
    "verify-mixer": ("instance, seed", {}),
}

_TOP_LEVEL_FIELDS = {
    "experiment", "instance", "trials", "seed", "budgets", "params", "output",
}


class ConfigError(Exception):
    pass


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            config = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"line {exc.lineno}: invalid JSON ({exc.msg})") from exc
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(config) - _TOP_LEVEL_FIELDS
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    if "seed" not in config:
        raise ConfigError("seed is mandatory")
    if not isinstance(config.get("output", ""), str):
        raise ConfigError(f"output must be a path string, got {config['output']!r}")
    name = config.get("experiment")
    if not isinstance(name, str) or name not in EXPERIMENTS:
        raise ConfigError(
            f"experiment must be one of {sorted(EXPERIMENTS)}"
        )
    keys = EXPERIMENTS[name][1]
    for section in ("params", "budgets"):
        given = config.get(section, {})
        if not isinstance(given, dict):
            raise ConfigError(f"{section} must be a JSON object")
        for key in given:
            if f"{section}.{key}" not in keys:
                raise ConfigError(f"unknown {section} key {key!r} for experiment {name}")
    return config


_REQUIRED = object()


def _field(section: dict, label: str, default=_REQUIRED):
    """The value that ``label`` ("instance", "params.s", ...) names in
    ``section``, or ``default``; a missing required field is a config error
    naming it."""
    key = label.rpartition(".")[2]
    if key in section:
        return section[key]
    if default is _REQUIRED:
        raise ConfigError(f"{label} is required")
    return default


def _int_field(section: dict, label: str, default=_REQUIRED, low=None, high=None):
    """:func:`_field` for a field that takes a JSON integer, at least ``low``
    and at most ``high`` where given."""
    value = _field(section, label, default)
    if value is default:
        return value
    check_int(value, label)
    if high is not None and not low <= value <= high:
        raise ConfigError(f"{label} must be between {low} and {high}, got {value}")
    if low is not None and value < low:
        raise ConfigError(f"{label} must be at least {low}, got {value}")
    return value


def _element_field(section: dict, label: str, n: int) -> int:
    """:func:`_field` for a required n-bit element, given as a bit string or
    an integer."""
    value = _field(section, label)
    if not isinstance(value, str):
        check_int(value, label)
    try:
        return as_int(value, n)
    except MalformedQueryError as exc:
        raise ConfigError(f"{label}: {exc}") from None


def _rate_payload(est, extra: dict | None = None) -> dict:
    payload = {"accept_rate": est.estimate, "ci95": est.ci95, "trials": est.trials}
    if extra:
        payload.update(extra)
    return payload


def _rows(outcomes, column: str, value):
    """The per-trial CSV rows, built only if they are read (``--csv``)."""
    return ({"trial": t, column: value(o)} for t, o in enumerate(outcomes))


def _run_experiment(config: dict):
    name = config["experiment"]
    seed = _int_field(config, "seed", low=0)
    trials = _int_field(config, "trials", 1000, low=1, high=MAX_TRIALS)
    params = dict(config.get("params", {}))
    budgets = dict(config.get("budgets", {}))
    rows = []

    if name == "grover-embed":
        report = grover_embedding_query_experiment(
            n=_int_field(params, "params.n", low=1, high=GROVER_MAX_N),
            q=_int_field(params, "params.q", low=0, high=GROVER_MAX_Q),
            trials=trials, seed=seed,
        )
        return report.to_json_dict(), rows

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
        }, rows

    if name == "am":
        merlin = params.get("merlin", "honest")
        est = run_am_mbcp(oracle, truth, merlin, trials, seed)
        rows = _rows(est.outcomes, "accept", lambda o: int(o[0]))
        return _rate_payload(
            est, {"merlin": merlin, "arthur_queries_per_trial": est.outcomes[0][1]}
        ), rows

    if name == "coam":
        est = run_coam_mbcp(oracle, truth, trials, seed)
        return _rate_payload(est), _rows(est.outcomes, "accept", int)

    if name == "qma":
        if truth.num_components > 1:
            k1 = _int_field(params, "params.k1", 1)
            k2 = _int_field(params, "params.k2", 2)
            witness = build_qma_witness(truth, k1, k2)
        else:
            single = QuantumState.uniform(1 << truth.n, truth.members)
            witness = single.tensor(single)
        est = run_qma_mc(oracle, witness, trials, seed)
        return _rate_payload(est), _rows(est.outcomes, "accept", int)

    if name == "sd-scp":
        s = _element_field(params, "params.s", truth.n)
        t = _element_field(params, "params.t", truth.n)
        return {"statistical_difference": sd_reduction_scp(oracle, truth, s, t)}, rows

    if name == "sd-mbcp":
        return {"statistical_difference": sd_reduction_mbcp(oracle, truth)}, rows

    if name == "projector-demo":
        s = _element_field(params, "params.s", truth.n)
        comp_size = len(truth.component_elements(truth.component_id(s)))
        est = run_projector_demo(oracle, s, trials, seed)
        rows = _rows(est.outcomes, "outcome", lambda o: o[0])
        return _rate_payload(
            est,
            {"expected_rate": 1.0 / comp_size, "cm_queries_per_call": est.outcomes[0][1]},
        ), rows

    if name == "counterfeit":
        alg_name = params.get("alg", "reference")
        budget = _int_field(budgets, "budgets.counterfeiter", None, low=0)
        scan_count = _int_field(params, "params.scan_count", 0, low=0)
        if alg_name == "reference":
            factory = lambda: ReferenceCounterfeiter(budget=budget)
        elif alg_name == "scan":
            factory = lambda: LabelScanningCounterfeiter(scan_count, budget=budget)
        else:
            raise ConfigError(f"unknown counterfeiter {alg_name!r}")
        s = (_element_field(params, "params.s", truth.n) if "s" in params
             else truth.component_elements(1)[0])
        report = distinguishing_experiment(oracle, truth, s, factory, trials, seed)
        return report.to_json_dict(), rows

    raise ConfigError(f"unknown experiment {name!r}")


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
    except ConfigError as exc:
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
    except (ConfigError, MixerError) as exc:
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
    rows = list(rows) if args.csv else []
    if rows:
        table = io.StringIO()
        writer = csv.DictWriter(table, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
        files.append((args.csv, table.getvalue(), ""))
    try:
        _write_all(files)
    except OSError as exc:
        print(f"output error: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 1
    summary = {k: v for k, v in results.items() if not isinstance(v, (list, dict))}
    print(f"{config['experiment']}: " + json.dumps(summary, sort_keys=True))
    return 0


def list_experiments_command(_args) -> int:
    width = max(len(name) for name in EXPERIMENTS)
    for name in sorted(EXPERIMENTS):
        fields, keys = EXPERIMENTS[name]
        described = "".join(f"; {key} ({what})" for key, what in keys.items())
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
