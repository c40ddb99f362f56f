import dataclasses
import itertools

import numpy as np
import pytest

from mixerlab import (
    DensityMatrix,
    GroundTruthPartition,
    PointFunction,
    QuantumState,
    counterfeit,
    make_coset_mixer,
    make_graph_iso_mixer,
    make_offset_mixer,
    trace_distance,
)
from mixerlab.counterfeit import (
    DistinguishingReport,
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
from mixerlab.layered import apply_hiding, hide_instance, make_layered_instance
from mixerlab.trials import run_seeded_trials
from quantum_reference import state_fidelity


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


def _per_trial_dense_reference(base_oracle, base_truth, s, alg_factory, trials, seed):
    """The distinguishing loop with a fresh layered instance per arm per
    trial and a dense outer-product sum per arm: the reference that
    :func:`distinguishing_experiment` must match bit for bit."""
    n = base_truth.n
    d2 = 1 << (2 * n)
    acc = np.zeros((2, d2, d2), dtype=complex)

    def one(t, rng):
        pi = rng.permutation(d2)
        sigma = rng.permutation(d2)
        y = int(rng.integers(1 << n))
        records = []
        for arm, g in enumerate((PointFunction(n, None), PointFunction(n, y))):
            instance = make_layered_instance(base_oracle, base_truth, "grover", g=g)
            instance = apply_hiding(instance, pi, sigma)
            alg = alg_factory()
            state, _, _ = run_counterfeiter(alg, instance, s, rng)
            v = state.amp.reshape(-1)
            acc[arm] += np.outer(v, v.conj())
            records.append((g.queries, getattr(alg, "last_detected", False)))
        return records

    per_trial = run_seeded_trials(one, trials, seed)
    rho_zero = DensityMatrix(acc[0] / trials)
    rho_point = DensityMatrix(acc[1] / trials)
    return DistinguishingReport(
        rho_zero=rho_zero,
        rho_point=rho_point,
        distance=trace_distance(rho_zero, rho_point),
        g_queries_max=max(q for arms in per_trial for q, _ in arms),
        trials=trials,
        detections_zero=sum(arms[0][1] for arms in per_trial),
        detections_point=sum(arms[1][1] for arms in per_trial),
    )


def _scalar_fields(report):
    """A distinguishing report's fields other than its two density matrices:
    the counterfeit report's results."""
    return {f.name: getattr(report, f.name) for f in dataclasses.fields(report)
            if not f.name.startswith("rho_")}


class _PhasedCounterfeiter:
    """The reference output with a random complex phase on each amplitude."""

    def __call__(self, mixer, label, start, rng):
        amp = ReferenceCounterfeiter()(mixer, label, start, rng).amp
        return QuantumState(amp.shape, amp * np.exp(2j * np.pi * rng.random(amp.shape)))


class _FullSupportCounterfeiter:
    """The reference output plus a small complex amplitude on every string."""

    def __call__(self, mixer, label, start, rng):
        amp = ReferenceCounterfeiter()(mixer, label, start, rng).amp
        noise = rng.standard_normal(amp.shape) + 1j * rng.standard_normal(amp.shape)
        return QuantumState(amp.shape, amp + 0.1 * noise, normalize=True)


def _offset_base(n, components):
    truth = GroundTruthPartition.from_components(n, components)
    return make_offset_mixer(truth), truth


DISTINGUISHING_BASES = {
    "offset2": lambda: _offset_base(2, [[0, 1], [2, 3]]),
    "offset3": lambda: _offset_base(3, [[0, 1, 2], [3, 4]]),
    "graphiso3": lambda: make_graph_iso_mixer(3),
    "coset8": lambda: make_coset_mixer(8, [2]),
}


@pytest.mark.parametrize("base_name", sorted(DISTINGUISHING_BASES))
@pytest.mark.parametrize("alg", ["reference", "scan5", "scan_all", "phased", "full_support"])
@pytest.mark.parametrize("seed", [1, 7])
def test_distinguishing_matches_per_trial_dense_reference(base_name, alg, seed):
    oracle, truth = DISTINGUISHING_BASES[base_name]()
    factory = {
        "reference": ReferenceCounterfeiter,
        "scan5": lambda: LabelScanningCounterfeiter(scan_count=5),
        "scan_all": lambda: LabelScanningCounterfeiter(scan_count=1 << (2 * truth.n)),
        "phased": _PhasedCounterfeiter,
        "full_support": _FullSupportCounterfeiter,
    }[alg]
    s = truth.component_elements(1)[0]
    report = distinguishing_experiment(oracle, truth, s, factory, trials=24, seed=seed)
    reference = _per_trial_dense_reference(oracle, truth, s, factory, trials=24, seed=seed)
    assert _scalar_fields(report) == _scalar_fields(reference)
    for rho, expected in [(report.rho_zero, reference.rho_zero), (report.rho_point, reference.rho_point)]:
        assert np.array_equal(rho.matrix, expected.matrix)
        assert rho.matrix.tobytes() == expected.matrix.tobytes()  # the signs of zeros too


class _DivergingCounterfeiter:
    """The reference output, or on request a changed one: the all-zeros flag
    state, or the same state times i (other bytes, the same density)."""

    def __init__(self, change):
        self.change = change

    def __call__(self, mixer, label, start, rng):
        state = ReferenceCounterfeiter()(mixer, label, start, rng)
        if self.change == "flag":
            return QuantumState.basis(state.dims, 0)
        if self.change == "phase":
            return QuantumState(state.dims, 1j * state.amp)
        return state


def _diverging_factory(first, change):
    """Counterfeiters whose marked-point arm changes its output from trial
    ``first`` on (never when ``first`` is None). Both drivers make one per
    arm per trial, the g = 0 arm first, so the call count gives both."""
    calls = itertools.count()

    def factory():
        t, arm = divmod(next(calls), 2)
        return _DivergingCounterfeiter(change if arm and first is not None and t >= first else None)

    return factory


@pytest.mark.parametrize("first, change", [
    (0, "flag"), (9, "flag"), (0, "phase"), (9, "phase"), (None, None),
])
def test_arms_share_one_sum_until_their_outputs_first_differ(first, change):
    oracle, truth = DISTINGUISHING_BASES["offset3"]()
    report = distinguishing_experiment(oracle, truth, 0, _diverging_factory(first, change), 24, 3)
    reference = _per_trial_dense_reference(oracle, truth, 0, _diverging_factory(first, change), 24, 3)
    assert _scalar_fields(report) == _scalar_fields(reference)
    for rho, expected in [(report.rho_zero, reference.rho_zero), (report.rho_point, reference.rho_point)]:
        assert rho.matrix.tobytes() == expected.matrix.tobytes()
    assert (report.rho_point is report.rho_zero) == (first is None)
    if first is None or change == "phase":
        assert report.distance == 0.0
    else:
        assert report.distance > 0.1


def test_a_reference_run_makes_no_lapack_call_on_a_complex_array(monkeypatch):
    oracle, truth = DISTINGUISHING_BASES["offset3"]()
    calls = []
    for name in ["eigvalsh", "eigh", "eigvals", "eig", "svd", "solve", "inv", "det",
                 "slogdet", "lstsq", "pinv", "matrix_rank", "cholesky", "qr"]:
        def recording(a, *args, _original=getattr(np.linalg, name), _name=name, **kwargs):
            calls.append((_name, np.asarray(a).dtype))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recording)
    report = distinguishing_experiment(oracle, truth, 0, ReferenceCounterfeiter, trials=40, seed=5)
    assert report.distance == 0.0
    assert calls == [("eigvalsh", np.float64)]  # rho_zero's PSD check


@pytest.mark.parametrize("trials", [1, 3, 40])
def test_distinguishing_builds_each_embedding_once_per_run(base, monkeypatch, trials):
    oracle, truth = base
    built = []

    def counting(*args, **kwargs):
        built.append(kwargs["g"].y)
        return make_layered_instance(*args, **kwargs)

    monkeypatch.setattr(counterfeit, "make_layered_instance", counting)
    distinguishing_experiment(oracle, truth, 0, ReferenceCounterfeiter, trials=trials, seed=2)
    assert len(built) <= (1 << truth.n) + 1
    assert len(set(built)) == len(built)


def test_fixed_point_probe_never_false_positives():
    from mixerlab import make_grover_mixer

    g = PointFunction(4, None)
    oracle = make_grover_mixer(4, g)
    rng = np.random.default_rng(9)
    for _ in range(20):
        assert fixed_point_probe_tester(oracle.session(rng=rng), 4, 8, rng) == "single"


def test_gated_shift_distinguishing_is_query_limited():
    est = grover_embedding_query_experiment(n=6, q=2, trials=400, seed=10)
    # success stays close to the guessing rate when q << 2^(n/2)
    assert est.estimate <= 0.5 + 2 * 2.0 ** -5 + 3 * est.ci95
    # per trial: q applies, 2 g queries each
    assert max(g for _, g in est.outcomes) <= 2 * 2 + 1


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
    est = grover_embedding_query_experiment(n=n, q=q, trials=60, seed=seed)
    reference = grover_embedding_query_experiment(
        n=n, q=q, trials=60, seed=seed, tester=_scalar_draw_tester
    )
    # every trial's (correct, g queries) record, so the rate, its ci95 and
    # the g-query mean and maximum too
    assert est == reference
    assert est.outcomes == reference.outcomes


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
