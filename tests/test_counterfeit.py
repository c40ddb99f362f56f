import numpy as np
import pytest

from mixerlab import (
    GroundTruthPartition,
    PointFunction,
    QuantumState,
    make_offset_mixer,
    state_fidelity,
)
from mixerlab.counterfeit import (
    LabelScanningCounterfeiter,
    ReferenceCounterfeiter,
    distinguishing_experiment,
    fixed_point_probe_tester,
    grover_embedding_query_experiment,
    hiding_indistinguishability_check,
    run_counterfeiter,
    solve_component_superposition_via_counterfeiter,
)
from mixerlab.errors import InvalidArgumentError
from mixerlab.layered import hide_instance, make_layered_instance


@pytest.fixture
def base():
    truth = GroundTruthPartition.from_components(2, [[0, 1], [2, 3]])
    return make_offset_mixer(truth), truth


def test_reference_counterfeiter_outputs_row_superposition(base):
    oracle, truth = base
    inst = make_layered_instance(oracle, truth, "row0")
    rng = np.random.default_rng(0)
    state, mixer, label = run_counterfeiter(ReferenceCounterfeiter(), inst, 0, rng)
    # row 0 carries the whole base problem; the output spans {(0, z): z in S_1}
    target = QuantumState.uniform(16, [0, 1])
    assert state_fidelity(state, target) == pytest.approx(1.0)
    assert sum(mixer.queries.values()) > 0 and label.queries > 0


def test_reference_counterfeiter_on_hidden_instance(base):
    oracle, truth = base
    inst = hide_instance(
        make_layered_instance(oracle, truth, "row0"), np.random.default_rng(1)
    )
    rng = np.random.default_rng(2)
    start = inst.start_element(0)
    state, _, _ = run_counterfeiter(ReferenceCounterfeiter(), inst, start, rng)
    target = QuantumState.uniform(16, [int(inst.pi[0]), int(inst.pi[1])])
    assert state_fidelity(state, target) == pytest.approx(1.0)


def test_solve_recovers_base_component_superposition(base):
    oracle, truth = base
    rng = np.random.default_rng(3)
    result = solve_component_superposition_via_counterfeiter(
        oracle, truth, 0, ReferenceCounterfeiter(), rng
    )
    target = QuantumState.uniform(4, [0, 1])
    assert result.purity == pytest.approx(1.0, abs=1e-9)
    assert state_fidelity(result.state, target) == pytest.approx(1.0, abs=1e-9)


def test_hiding_indistinguishability(base):
    oracle, truth = base
    assert hiding_indistinguishability_check(oracle, truth, seed=4, num_perms=4)


def test_reference_counterfeiter_cannot_distinguish_point_function(base):
    oracle, truth = base
    report = distinguishing_experiment(
        oracle, truth, 0, lambda: ReferenceCounterfeiter(), trials=200, seed=5
    )
    assert report.distance <= 1e-9
    assert report.detections_zero == 0 and report.detections_point == 0


def test_density_sums_are_capped_before_allocation():
    # a 5-bit base (two d x d sums, d = 4^5) fits STATE_DIM_CAP; a 6-bit one
    # is refused before any trial runs
    five = GroundTruthPartition.from_components(5, [list(range(16)), list(range(16, 32))])
    report = distinguishing_experiment(
        make_offset_mixer(five), five, 0, ReferenceCounterfeiter, 1, 0
    )
    assert report.distance == 0.0 and report.trials == 1
    six = GroundTruthPartition.from_components(6, [list(range(32)), list(range(32, 64))])
    with pytest.raises(InvalidArgumentError, match="33554432 entries .* exceed the cap"):
        distinguishing_experiment(make_offset_mixer(six), six, 0, ReferenceCounterfeiter, 1, 0)


def test_scanning_foil_distinguishes_point_function(base):
    oracle, truth = base
    report = distinguishing_experiment(
        oracle,
        truth,
        0,
        lambda: LabelScanningCounterfeiter(scan_count=16),
        trials=200,
        seed=6,
    )
    assert report.distance > 0.3
    assert report.detections_point > 0
    assert report.detections_zero == 0


def test_gated_mixer_coherent_query_accounting(base):
    oracle, truth = base
    g = PointFunction(2, 2)
    inst = make_layered_instance(oracle, truth, "grover", g=g)
    rng = np.random.default_rng(8)
    before = g.queries
    state, mixer, label = run_counterfeiter(ReferenceCounterfeiter(), inst, 0, rng)
    # sessions charge exactly two g queries per metered evaluation; membership
    # tests never touch g, only apply/apply_inverse and the label do
    applies = mixer.queries["apply"] + mixer.queries["apply_inverse"]
    assert g.queries - before == 2 * (applies + label.queries)


def test_fixed_point_probe_never_false_positives():
    from mixerlab import make_grover_mixer

    g = PointFunction(4, None)
    oracle = make_grover_mixer(4, g)
    rng = np.random.default_rng(9)
    for _ in range(20):
        assert fixed_point_probe_tester(oracle.session(rng=rng), 4, 8, rng) == "single"


def test_gated_shift_distinguishing_is_query_limited():
    report = grover_embedding_query_experiment(n=6, q=2, trials=400, seed=10)
    # success stays close to the guessing rate when q << 2^(n/2)
    assert report.success_rate <= 0.5 + 2 * 2.0 ** -5 + 3 * report.ci95
    assert report.g_queries_max <= 2 * 2 + 1  # per trial: q applies, 2 g queries each


def _scalar_draw_tester(session, n, q, rng):
    """Reference tester: the probe loop with two scalar ``rng.integers``
    calls per probe, drawn only until the answer is known."""
    dim = 1 << n
    for _ in range(q):
        x = int(rng.integers(dim))
        i = int(rng.integers(1, dim))
        if session.apply(i, x) == x:
            return "multiple"
    return "single"


@pytest.mark.parametrize("n", [1, 2, 3, 10])
@pytest.mark.parametrize("marked", [False, True])
def test_probe_tester_matches_scalar_draw_reference(n, marked):
    from mixerlab import make_grover_mixer

    early = 0
    for seed in range(5):
        # 4·2^n probes find a marked point with probability ~1 - e^-8
        for q in (0, 1, 5, 4 << n):
            outcomes = []
            for tester in (fixed_point_probe_tester, _scalar_draw_tester):
                rng = np.random.default_rng([seed, n, q])
                g = PointFunction(n, int(rng.integers(1 << n)) if marked else None)
                answer = tester(make_grover_mixer(n, g).session(rng=rng), n, q, rng)
                # the stream continues alike once both testers drew all 2q values
                after = int(rng.integers(1 << 62)) if answer == "single" else None
                outcomes.append((answer, g.queries, after))
            assert outcomes[0] == outcomes[1], (seed, q)
            early += outcomes[0][0] == "multiple"
    assert (early > 0) == marked


@pytest.mark.parametrize("n, q, seed", [(1, 3, 5), (3, 0, 4), (3, 4, 1), (6, 2, 10), (10, 16, 2)])
def test_grover_experiment_report_matches_scalar_draw_reference(n, q, seed):
    report = grover_embedding_query_experiment(n=n, q=q, trials=60, seed=seed)
    reference = grover_embedding_query_experiment(
        n=n, q=q, trials=60, seed=seed, tester=_scalar_draw_tester
    )
    assert report.to_json_dict() == reference.to_json_dict()


@pytest.mark.parametrize("lows, high", [
    ((0, 1), 2), ((0, 1), 8), ((0, 1), 1024),
    ((0, 1), 3 << 30),  # ~25% of 32-bit draws are rejected
    ((0, 5, 2), 3 << 40),  # the 64-bit sampler
])
@pytest.mark.parametrize("prior", [None, 3, 1 << 40])
def test_broadcast_integers_equal_scalar_calls(lows, high, prior):
    """The numpy behaviour the probe tester relies on: ``rng.integers`` with
    an array of low bounds draws element by element, like scalar calls."""
    for seed in range(20):
        batched, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
        if prior is not None:  # a prior 32-bit draw leaves half a word buffered
            assert batched.integers(prior) == scalar.integers(prior)
        low = np.tile(lows, 40)
        assert batched.integers(low, high).tolist() == [int(scalar.integers(b, high)) for b in low]
        assert batched.integers(1 << 62) == scalar.integers(1 << 62)
