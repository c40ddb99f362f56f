"""The benchmark's four `mixerlab run` workloads and their report checks.

Each workload is one fixed config; only ``seed`` comes from the benchmark's
``--seed``. Trial counts are sized so that one complete run takes about half
a second on a 2-core box, which gives a few dozen runs per measuring window.
Why each workload was chosen is written down in README.md.
"""

import copy


def _partition(n, components):
    """An offset-family partition spec in the GroundTruthPartition JSON form."""
    bits = {x: format(x, f"0{n}b") for comp in components for x in comp}
    return {
        "n": n,
        "members": [bits[x] for comp in components for x in comp],
        "component_of": {
            bits[x]: cid for cid, comp in enumerate(components, start=1) for x in comp
        },
    }


CONFIGS = {
    "qma-offset3": {
        "experiment": "qma",
        "trials": 600,
        "instance": {"family": "offset", "partition": _partition(3, [[0, 1, 2, 3], [4, 5, 6, 7]])},
        "params": {"k1": 1, "k2": 2},
    },
    "grover-embed-n10": {
        "experiment": "grover-embed",
        "trials": 300,
        "params": {"n": 10, "q": 256},
    },
    "counterfeit-offset3": {
        "experiment": "counterfeit",
        "trials": 800,
        "instance": {"family": "offset", "partition": _partition(3, [[0, 1, 2], [3, 4]])},
        "params": {"alg": "reference"},
    },
    "verify-graphiso4": {
        "experiment": "verify-mixer",
        "instance": {"family": "graphiso", "v": 4},
    },
}

WORKLOADS = tuple(CONFIGS)


def make_config(workload: str, seed: int) -> dict:
    return {**copy.deepcopy(CONFIGS[workload]), "seed": seed}


def _check_qma(results: dict) -> list[str]:
    # criterion-06's valid arm: the honest two-component witness is accepted
    # with probability exactly 1/2
    gap = abs(results["accept_rate"] - 0.5)
    if gap > 3 * results["ci95"]:
        return [f"accept_rate {results['accept_rate']} is {gap:.4f} from 0.5, beyond 3*ci95"]
    return []


def _check_grover(results: dict, config: dict) -> list[str]:
    q = config["params"]["q"]
    problems = []
    limit = 0.5 + q * 2.0**-9 + 3 * results["ci95"]  # criterion-09's bound
    if results["success_rate"] > limit:
        problems.append(f"success_rate {results['success_rate']} exceeds {limit}")
    if results["g_queries_max"] > 2 * q:
        problems.append(f"g_queries_max {results['g_queries_max']} exceeds 2q = {2 * q}")
    return problems


def _check_counterfeit(results: dict) -> list[str]:
    # criterion-08c: the reference counterfeiter cannot tell the regimes apart
    problems = []
    if results["distance"] > 0.05:
        problems.append(f"distance {results['distance']} exceeds 0.05")
    if results["detections_zero"] or results["detections_point"]:
        problems.append("the reference counterfeiter reported a detection")
    return problems


def _check_verify(results: dict) -> list[str]:
    expected = {
        "no_cross_mixing": True,
        "instant_mixing_tv": 0,
        "meets_bound": True,
        "full_connectivity_ok": True,
        "num_components": 11,
    }
    return [
        f"{key} is {results.get(key)!r}, expected {value!r}"
        for key, value in expected.items()
        if results.get(key) != value
    ]


def check_report(workload: str, report: dict, config: dict) -> list[str]:
    """Problems found in one report; an empty list means it passed."""
    if report.get("config") != config:
        return ["report does not echo the config it was run with"]
    results = report["results"]
    if workload == "qma-offset3":
        return _check_qma(results)
    if workload == "grover-embed-n10":
        return _check_grover(results, config)
    if workload == "counterfeit-offset3":
        return _check_counterfeit(results)
    return _check_verify(results)


def without_timing(report: dict) -> dict:
    return {k: v for k, v in report.items() if k != "wall_time_s"}
