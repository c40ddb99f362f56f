"""End-to-end acceptance checks.

Each test covers one acceptance criterion, prints a single PASS/FAIL line
to the terminal (bypassing pytest capture), and enforces its runtime cap.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from mixerlab import (
    GroundTruthPartition,
    PointFunction,
    QuantumState,
    make_coset_mixer,
    make_graph_iso_mixer,
    make_grover_mixer,
    make_grover_partition,
    make_offset_mixer,
    measure_component_projector,
    trace_distance,
    verify_instant_mixing,
    verify_no_cross_mixing,
)
from mixerlab.counterfeit import (
    LabelScanningCounterfeiter,
    ReferenceCounterfeiter,
    distinguishing_experiment,
    grover_embedding_query_experiment,
    hiding_indistinguishability_check,
    run_counterfeiter,
    solve_component_superposition_via_counterfeiter,
)
from mixerlab.layered import make_layered_instance
from mixerlab.protocols import (
    build_qma_witness,
    run_am_mbcp,
    run_coam_mbcp,
    run_qma_mc,
    sd_reduction_mbcp,
    sd_reduction_scp,
)
from mixerlab.verify import full_connectivity_witness
from quantum_reference import component_projector_matrix, exact_component_projector


def finish(capsys, name, started, limit, ok, detail=""):
    elapsed = time.monotonic() - started
    ok = ok and elapsed < limit
    with capsys.disabled():
        print(f"\n[{name}] {'PASS' if ok else 'FAIL'} ({elapsed:.1f}s) {detail}")
    assert ok, f"{name}: {detail} (elapsed {elapsed:.1f}s, limit {limit}s)"


def offset(n, components):
    truth = GroundTruthPartition.from_components(n, components)
    return make_offset_mixer(truth), truth


def test_criterion_01_mixer_definition_suite(capsys):
    t0 = time.monotonic()
    exact_cases = [
        offset(3, [[0, 1, 2], [3, 4]]),
        make_graph_iso_mixer(3),
        make_graph_iso_mixer(4),
        make_coset_mixer(8, [2]),
    ]
    ok = all(
        verify_no_cross_mixing(o, t) and verify_instant_mixing(o, t) == 0.0
        for o, t in exact_cases
    )
    unmarked_tv = verify_instant_mixing(
        make_grover_mixer(3, PointFunction(3, None)), make_grover_partition(3, None)
    )
    ok = ok and unmarked_tv == 0.0
    marked_tv = verify_instant_mixing(
        make_grover_mixer(3, PointFunction(3, 5)), make_grover_partition(3, 5)
    )
    finish(
        capsys,
        "criterion-01 mixer definitions",
        t0,
        10,
        ok,
        f"marked-point TV reported: {marked_tv:.4f}",
    )


def test_criterion_02_full_connectivity(capsys):
    t0 = time.monotonic()
    base2 = GroundTruthPartition.from_components(2, [[0, 1], [2, 3]])
    cases = [
        offset(3, [[0, 1, 2], [3, 4]]),
        make_graph_iso_mixer(3),
        make_coset_mixer(16, [6]),
        (make_grover_mixer(4, PointFunction(4, None)), make_grover_partition(4, None)),
        (make_grover_mixer(4, PointFunction(4, 9)), make_grover_partition(4, 9)),
    ]
    layered = make_layered_instance(make_offset_mixer(base2), base2, "row_j", j=1)
    cases.append((layered.mixer2n, layered.truth2n))
    ok = True
    for oracle, truth in cases:
        for s in truth.members:
            for t in truth.members:
                witness = full_connectivity_witness(oracle, truth, s, t)
                if truth.same_component(s, t) != (witness is not None):
                    ok = False
                if witness is not None and oracle.apply_int(witness.as_int(), s) != t:
                    ok = False
    finish(capsys, "criterion-02 full connectivity", t0, 30, ok)


def test_criterion_03_projector_algorithm(capsys):
    t0 = time.monotonic()
    oracle, truth = offset(3, [[0, 1, 2], [3, 4]])
    matrix_err = np.max(
        np.abs(component_projector_matrix(oracle) - exact_component_projector(truth))
    )
    ok = matrix_err < 1e-10
    rng = np.random.default_rng(0)
    for s in truth.members:
        comp_size = len(truth.component_elements(truth.component_id(s)))
        session = oracle.session(rng=rng)
        result = measure_component_projector(
            QuantumState.basis((8,), s), oracle, rng, session=session
        )
        ok = ok and abs(result.probability_one - 1 / comp_size) < 1e-9
        ok = ok and result.ancilla_fidelity >= 1 - 1e-9
        ok = ok and session.queries["CM"] == 2
    finish(
        capsys,
        "criterion-03 projector algorithm",
        t0,
        20,
        ok,
        f"matrix error {matrix_err:.2e}",
    )


def test_criterion_04_guessing_protocol(capsys):
    t0 = time.monotonic()
    balanced_o, balanced_t = offset(3, [[0, 1, 2, 3], [4, 5, 6, 7]])
    honest = run_am_mbcp(balanced_o, balanced_t, "honest", trials=10_000, seed=41)
    ok = honest.estimate >= 0.75 - 3 * honest.ci95
    single_o, single_t = offset(3, [list(range(8))])
    cheat = run_am_mbcp(single_o, single_t, "optimal_cheat", trials=10_000, seed=42)
    ok = ok and abs(cheat.estimate - 0.5) <= 3 * cheat.ci95
    ok = ok and cheat.estimate <= 5 / 8 + 3 * cheat.ci95
    finish(
        capsys,
        "criterion-04 component-guessing protocol",
        t0,
        20,
        ok,
        f"honest {honest.estimate:.4f}, cheat {cheat.estimate:.4f}",
    )


def test_criterion_05_matching_protocol(capsys):
    t0 = time.monotonic()
    single_o, single_t = offset(3, [list(range(8))])
    complete = run_coam_mbcp(single_o, single_t, trials=10_000, seed=51)
    ok = complete.estimate == 1.0
    balanced_o, balanced_t = offset(3, [[0, 1, 2, 3], [4, 5, 6, 7]])
    sound = run_coam_mbcp(balanced_o, balanced_t, trials=10_000, seed=52)
    ok = ok and sound.estimate <= 0.5 + 3 * sound.ci95
    finish(
        capsys,
        "criterion-05 element-matching protocol",
        t0,
        20,
        ok,
        f"complete {complete.estimate:.4f}, sound {sound.estimate:.4f}",
    )


def test_criterion_06_witness_protocol(capsys):
    t0 = time.monotonic()
    balanced_o, balanced_t = offset(3, [[0, 1, 2, 3], [4, 5, 6, 7]])
    witness = build_qma_witness(balanced_t, 1, 2)
    valid = run_qma_mc(balanced_o, witness, trials=10_000, seed=61)
    ok = abs(valid.estimate - 0.5) <= 3 * valid.ci95
    single_o, single_t = offset(3, [list(range(8))])
    uniform = QuantumState.uniform(8, range(8))
    invalid = run_qma_mc(single_o, uniform.tensor(uniform), trials=10_000, seed=62)
    ok = ok and invalid.estimate <= 1e-6 + 3 * invalid.ci95
    finish(
        capsys,
        "criterion-06 witness protocol",
        t0,
        60,
        ok,
        f"valid {valid.estimate:.4f}, invalid {invalid.estimate:.2e}",
    )


def test_criterion_07_pair_distribution_reductions(capsys):
    t0 = time.monotonic()
    balanced_o, balanced_t = offset(3, [[0, 1, 2, 3], [4, 5, 6, 7]])
    same = sd_reduction_scp(balanced_o, balanced_t, 0, 1)
    cross = sd_reduction_scp(balanced_o, balanced_t, 0, 4)
    multi = sd_reduction_mbcp(balanced_o, balanced_t)
    single_o, single_t = offset(3, [list(range(8))])
    single = sd_reduction_mbcp(single_o, single_t)
    ok = same == 0.0 and cross == 1.0 and single <= 2.0 ** -3 and multi >= 0.75
    finish(
        capsys,
        "criterion-07 distribution-distance reductions",
        t0,
        10,
        ok,
        f"same {same}, cross {cross}, single {single:.4f}, multi {multi:.4f}",
    )


def test_criterion_08_counterfeiting_reduction(capsys):
    t0 = time.monotonic()
    # (a) the reference counterfeiter solves component superposition at n = 3
    oracle3, truth3 = offset(3, [[0, 1, 2], [3, 4]])
    rng = np.random.default_rng(81)
    solved = solve_component_superposition_via_counterfeiter(
        oracle3, truth3, 0, ReferenceCounterfeiter(), rng
    )
    target = QuantumState.uniform(8, [0, 1, 2]).density()
    solve_dist = trace_distance(solved.density, target)
    ok = solve_dist <= 1e-6

    # (b) hiding indistinguishability, exhaustive at n = 2
    truth2 = GroundTruthPartition.from_components(2, [[0, 1], [2, 3]])
    oracle2 = make_offset_mixer(truth2)
    ok = ok and hiding_indistinguishability_check(oracle2, truth2, seed=82)

    # (c) the reference counterfeiter's output ignores the point function
    ref = distinguishing_experiment(
        oracle2, truth2, 0, lambda: ReferenceCounterfeiter(), trials=10_000, seed=83
    )
    ok = ok and ref.distance <= 0.05

    # (d) a full-scan foil does distinguish (reported, not bounded)
    foil = distinguishing_experiment(
        oracle2,
        truth2,
        0,
        lambda: LabelScanningCounterfeiter(scan_count=16),
        trials=2_000,
        seed=84,
    )

    # (e) metered evaluations charge exactly two point-function queries
    g = PointFunction(2, 2)
    gated = make_layered_instance(oracle2, truth2, "grover", g=g)
    before = g.queries
    _, mixer, label = run_counterfeiter(
        ReferenceCounterfeiter(), gated, 0, np.random.default_rng(85)
    )
    applies = mixer.queries["apply"] + mixer.queries["apply_inverse"]
    ok = ok and g.queries - before == 2 * (applies + label.queries)

    finish(
        capsys,
        "criterion-08 counterfeiting reduction",
        t0,
        300,
        ok,
        f"solve dist {solve_dist:.2e}, reference dist {ref.distance:.4f}, "
        f"scan-foil dist {foil.distance:.4f}",
    )


def test_criterion_09_gated_shift_mixer(capsys):
    t0 = time.monotonic()
    session = make_grover_mixer(2, PointFunction(2, 0b11)).session()
    ok = (
        session.apply("01", "00") == "01"
        and session.apply("01", "10") == "10"
        and session.apply_inverse("01", "01") == "00"
    )
    rates = {}
    for q in (1, 16, 256):
        est = grover_embedding_query_experiment(n=10, q=q, trials=400, seed=90 + q)
        bound = 0.5 + q * 2.0 ** -9 + 3 * est.ci95
        ok = ok and est.estimate <= bound
        rates[q] = est.estimate
    finish(
        capsys,
        "criterion-09 gated-shift mixer",
        t0,
        60,
        ok,
        "tester success " + ", ".join(f"q={q}: {r:.3f}" for q, r in rates.items()),
    )


def test_criterion_10_cli_determinism(capsys, tmp_path):
    t0 = time.monotonic()
    partition = GroundTruthPartition.from_components(2, [[0, 1], [2, 3]]).to_json_dict()
    offset_instance = {"family": "offset", "partition": partition}
    configs = {
        "verify-mixer": {"instance": offset_instance},
        "am": {"instance": offset_instance, "trials": 100, "params": {"merlin": "honest"}},
        "coam": {"instance": offset_instance, "trials": 100},
        "qma": {"instance": offset_instance, "trials": 50},
        "sd-scp": {"instance": offset_instance, "params": {"s": "00", "t": "10"}},
        "sd-mbcp": {"instance": offset_instance},
        "projector-demo": {"instance": offset_instance, "trials": 50, "params": {"s": "00"}},
        "counterfeit": {
            "instance": offset_instance,
            "trials": 50,
            "params": {"alg": "reference", "s": "00"},
        },
        "grover-embed": {"trials": 50, "params": {"n": 6, "q": 4}},
    }
    # the CLI subprocesses import mixerlab from this checkout, installed or not
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    ok = True
    mismatches = []
    for name, extra in configs.items():
        config = {"experiment": name, "seed": 7, **extra}
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps(config))
        payloads = []
        for run in (1, 2):
            out = tmp_path / f"{name}-{run}.json"
            proc = subprocess.run(
                [sys.executable, "-m", "mixerlab.cli", "run", str(cfg_path),
                 "--output", str(out)],
                capture_output=True,
                text=True,
                env=env,
            )
            if proc.returncode != 0:
                ok = False
                mismatches.append(f"{name} rc={proc.returncode}")
                break
            report = json.loads(out.read_text())
            report.pop("wall_time_s")
            payloads.append(json.dumps(report, sort_keys=True).encode())
        if len(payloads) == 2 and payloads[0] != payloads[1]:
            ok = False
            mismatches.append(name)
    finish(
        capsys,
        "criterion-10 CLI determinism",
        t0,
        120,
        ok,
        f"{len(configs)} experiments" + (f"; mismatches: {mismatches}" if mismatches else ""),
    )
