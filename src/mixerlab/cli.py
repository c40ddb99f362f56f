"""Command-line front end.

``mixerlab run config.json`` builds the configured instance, dispatches to
the named experiment, prints a summary, and writes a JSON report. Reports
are bit-reproducible for equal (config, version) up to the wall-time field.

Exit codes: 0 success, 1 malformed config, 2 promise violation, 3 query
budget exhausted.
"""

import argparse
import csv
import json
import sys
import time

import numpy as np

from . import __version__
from .counterfeit import (
    LabelScanningCounterfeiter,
    ReferenceCounterfeiter,
    distinguishing_experiment,
    grover_embedding_query_experiment,
)
from .errors import BudgetExhaustedError, MixerError, PromiseViolationError
from .instances import instance_from_config
from .oracle import MixerOracle
from .partition import GroundTruthPartition
from .protocols import (
    EstimatedProbability,
    am_mbcp_trial,
    build_qma_witness,
    coam_mbcp_trial,
    qma_verify_mc,
    sd_reduction_mbcp,
    sd_reduction_scp,
)
from .quantum import QuantumState, measure_component_projector
from .bits import as_int
from .trials import run_seeded_trials
from .verify import (
    full_connectivity_witness,
    instant_mixing_bound,
    verify_instant_mixing,
    verify_no_cross_mixing,
)

SCHEMA_VERSION = 1

EXPERIMENTS = {
    "am": "instance, trials, seed; params.merlin in {honest, optimal_cheat}",
    "coam": "instance, trials, seed",
    "counterfeit": "instance (base), trials, seed; params.alg, params.scan_count, budgets.counterfeiter",
    "grover-embed": "trials, seed; params.n, params.q",
    "projector-demo": "instance, trials, seed; params.s (bit string)",
    "qma": "instance, trials, seed; params.k1, params.k2",
    "sd-mbcp": "instance, seed",
    "sd-scp": "instance, seed; params.s, params.t (bit strings)",
    "verify-mixer": "instance, seed",
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
    if config.get("experiment") not in EXPERIMENTS:
        raise ConfigError(
            f"experiment must be one of {sorted(EXPERIMENTS)}"
        )
    return config


def _rate_payload(flags: list, extra: dict | None = None) -> dict:
    est = EstimatedProbability(sum(flags) / len(flags), len(flags))
    payload = {"accept_rate": est.estimate, "ci95": est.ci95, "trials": est.trials}
    if extra:
        payload.update(extra)
    return payload


def _connectivity_ok(oracle: MixerOracle, truth: GroundTruthPartition) -> bool:
    if len(truth.members) > 64:
        return True  # skipped at larger sizes; the verifier suite covers it
    for s in truth.members:
        for t in truth.members:
            witness = full_connectivity_witness(oracle, truth, s, t)
            if truth.same_component(s, t) != (witness is not None):
                return False
    return True


def _run_experiment(config: dict, parallel: int):
    name = config["experiment"]
    seed = int(config["seed"])
    trials = int(config.get("trials", 1000))
    if trials < 1:
        raise ConfigError(f"trials must be at least 1, got {trials}")
    params = dict(config.get("params", {}))
    budgets = dict(config.get("budgets", {}))
    rows = []

    if name == "grover-embed":
        report = grover_embedding_query_experiment(
            n=int(params["n"]), q=int(params["q"]), trials=trials, seed=seed
        )
        return report.to_json_dict(), rows

    bundle = instance_from_config(config["instance"])
    oracle, truth = bundle.oracle, bundle.truth

    if name == "verify-mixer":
        tv = verify_instant_mixing(oracle, truth)
        return {
            "num_components": truth.num_components,
            "component_sizes": list(truth.component_sizes()),
            "no_cross_mixing": verify_no_cross_mixing(oracle, truth),
            "instant_mixing_tv": tv,
            "instant_mixing_bound": instant_mixing_bound(truth.n),
            "meets_bound": tv <= instant_mixing_bound(truth.n),
            "full_connectivity_ok": _connectivity_ok(oracle, truth),
        }, rows

    if name == "am":
        from .protocols import _require_mbcp_promise

        _require_mbcp_promise(truth)
        merlin = params.get("merlin", "honest")
        results = run_seeded_trials(
            lambda t, rng: am_mbcp_trial(oracle, truth, merlin, rng),
            trials, seed, parallel,
        )
        flags = [ok for ok, _ in results]
        rows = [{"trial": t, "accept": int(ok)} for t, (ok, _) in enumerate(results)]
        return _rate_payload(
            flags,
            {"merlin": merlin, "arthur_queries_per_trial": results[0][1]},
        ), rows

    if name == "coam":
        from .protocols import _require_mbcp_promise

        _require_mbcp_promise(truth)
        flags = run_seeded_trials(
            lambda t, rng: coam_mbcp_trial(oracle, rng), trials, seed, parallel
        )
        rows = [{"trial": t, "accept": int(ok)} for t, ok in enumerate(flags)]
        return _rate_payload(flags), rows

    if name == "qma":
        if truth.num_components > 1:
            k1 = int(params.get("k1", 1))
            k2 = int(params.get("k2", 2))
            witness = build_qma_witness(truth, k1, k2)
        else:
            dim = 1 << truth.n
            single = QuantumState.uniform(dim, truth.members)
            witness = single.tensor(single)
        flags = run_seeded_trials(
            lambda t, rng: qma_verify_mc(witness, oracle, rng),
            trials, seed, parallel,
        )
        rows = [{"trial": t, "accept": int(ok)} for t, ok in enumerate(flags)]
        return _rate_payload(flags), rows

    if name == "sd-scp":
        s = params["s"]
        t = params["t"]
        return {"statistical_difference": sd_reduction_scp(oracle, truth, s, t)}, rows

    if name == "sd-mbcp":
        return {"statistical_difference": sd_reduction_mbcp(oracle, truth)}, rows

    if name == "projector-demo":
        s = as_int(params["s"], truth.n)
        dim = 1 << truth.n
        comp_size = len(truth.component_elements(truth.component_id(s)))

        def one(t, rng):
            state = QuantumState.basis((dim,), s)
            session = oracle.session(rng=rng)
            result = measure_component_projector(state, oracle, rng, session=session)
            return result.outcome, session.quantum_breakdown.get("CM", 0)

        results = run_seeded_trials(one, trials, seed, parallel)
        flags = [out for out, _ in results]
        rows = [{"trial": t, "outcome": out} for t, (out, _) in enumerate(results)]
        return _rate_payload(
            flags,
            {
                "expected_rate": 1.0 / comp_size,
                "cm_queries_per_call": results[0][1],
            },
        ), rows

    if name == "counterfeit":
        alg_name = params.get("alg", "reference")
        budget = budgets.get("counterfeiter")
        scan_count = int(params.get("scan_count", 0))
        if alg_name == "reference":
            factory = lambda: ReferenceCounterfeiter(budget=budget)
        elif alg_name == "scan":
            factory = lambda: LabelScanningCounterfeiter(scan_count, budget=budget)
        else:
            raise ConfigError(f"unknown counterfeiter {alg_name!r}")
        s = as_int(params["s"], truth.n) if "s" in params else truth.component_elements(1)[0]
        report = distinguishing_experiment(oracle, truth, s, factory, trials, seed)
        return report.to_json_dict(), rows

    raise ConfigError(f"unknown experiment {name!r}")


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

    start = time.monotonic()
    try:
        results, rows = _run_experiment(config, args.parallel)
    except PromiseViolationError as exc:
        print(f"promise violation: {exc}", file=sys.stderr)
        return 2
    except BudgetExhaustedError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, KeyError, MixerError) as exc:
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
    text = json.dumps(report, indent=2, sort_keys=True)
    output = args.output or config.get("output")
    if output:
        with open(output, "w") as fh:
            fh.write(text + "\n")
    if args.csv and rows:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
    summary = {k: v for k, v in results.items() if not isinstance(v, (list, dict))}
    print(f"{config['experiment']}: " + json.dumps(summary, sort_keys=True))
    return 0


def list_experiments_command(_args) -> int:
    width = max(len(name) for name in EXPERIMENTS)
    for name in sorted(EXPERIMENTS):
        print(f"{name:<{width}}  {EXPERIMENTS[name]}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixerlab", description="Component-mixer query experiments"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment from a JSON config")
    run_p.add_argument("config", help="path to the config JSON")
    run_p.add_argument("--output", default=None, help="report output path")
    run_p.add_argument("--csv", default=None, help="trial-level CSV output path")
    run_p.add_argument("--parallel", type=int, default=1, metavar="N")
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
