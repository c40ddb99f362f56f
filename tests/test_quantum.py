import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mixerlab import (
    DensityMatrix,
    GroundTruthPartition,
    MixerOracle,
    PointFunction,
    QuantumState,
    make_coset_mixer,
    make_graph_iso_mixer,
    make_grover_mixer,
    make_offset_mixer,
    measure_component_projector,
    swap_test,
    trace_distance,
)
from mixerlab.errors import InvalidArgumentError
from mixerlab.protocols import build_qma_witness
from mixerlab.quantum import STATE_DIM_CAP, _move_axis, _norm
from quantum_reference import component_projector_matrix, exact_component_projector, state_fidelity
from test_verify import partitions, restricted


def charged(session) -> dict:
    """The kinds a session has charged, with their counts."""
    return {kind: count for kind, count in session.queries.items() if count}


@pytest.fixture
def setup():
    truth = GroundTruthPartition.from_components(3, [[0, 1, 2], [3, 4]])
    return make_offset_mixer(truth), truth


def test_state_constructors():
    s = QuantumState.basis((8,), 3)
    assert s.amp[3] == 1.0
    u = QuantumState.uniform(8, [0, 1, 2, 3])
    assert np.allclose(np.abs(u.amp[:4]), 0.5)
    with pytest.raises(InvalidArgumentError):
        QuantumState((2,), np.array([1.0, 1.0]))  # not normalized


@pytest.mark.parametrize(
    "amp, normalize", [([np.nan, 0], False), ([np.nan, 1], True), ([np.inf, 0], True)],
)
def test_a_state_with_a_non_finite_norm_is_rejected(amp, normalize):
    with pytest.raises(InvalidArgumentError, match="is not finite"):
        QuantumState((2,), np.array(amp), normalize=normalize)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "support, message",
    [
        ([], "non-empty support"),
        ([1, 1], "repeated elements"),
        ([0, 2, 3, 2], "repeated elements"),
        ([0, 4], r"support element 4 is outside \[0, 4\)"),
        ([1, -3], r"support element -3 is outside \[0, 4\)"),  # not aliased to 1
    ],
)
def test_uniform_rejects_an_empty_or_repeated_support(support, message):
    # refused before anything is divided: a division by zero would warn,
    # and warnings are errors here
    with pytest.raises(InvalidArgumentError, match=message):
        QuantumState.uniform(4, support)


@pytest.mark.parametrize(
    "build, size",
    [
        # a real view that holds no memory: converting it would allocate
        (lambda: QuantumState((2049, 2048), np.broadcast_to(0.0, (2049 * 2048,))),
         2049 * 2048),
        (lambda: QuantumState.basis((2049, 2048), (0, 0)), 2049 * 2048),
        (lambda: QuantumState.uniform(STATE_DIM_CAP + 1, [0]), STATE_DIM_CAP + 1),
        (lambda: QuantumState.uniform(2049, [0]).tensor(QuantumState.uniform(2048, [0])),
         2049 * 2048),
    ],
    ids=["init", "basis", "uniform", "tensor"],
)
def test_a_state_over_the_cap_is_refused_before_it_is_allocated(build, size):
    tracemalloc.start()
    try:
        with pytest.raises(InvalidArgumentError) as refused:
            build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < STATE_DIM_CAP * 16  # bytes in one cap-sized complex array
    assert str(refused.value) == f"state dimension {size} exceeds the cap {STATE_DIM_CAP}"


def test_overlap_and_fidelity():
    a = QuantumState.uniform(4, [0, 1])
    b = QuantumState.uniform(4, [0, 1])
    c = QuantumState.uniform(4, [2, 3])
    assert a.overlap(b) == pytest.approx(1.0)
    assert state_fidelity(a, c) == pytest.approx(0.0)
    d = QuantumState.uniform(4, [0, 1, 2, 3])
    assert state_fidelity(a, d) == pytest.approx(0.5)


def test_trace_distance_basic():
    a = QuantumState.basis((2,), 0).density()
    b = QuantumState.basis((2,), 1).density()
    assert trace_distance(a, a) == pytest.approx(0.0, abs=1e-12)
    assert trace_distance(a, b) == pytest.approx(1.0)
    plus = QuantumState((2,), np.array([1, 1]) / np.sqrt(2))
    assert trace_distance(a.matrix, plus.density().matrix) == pytest.approx(
        np.sqrt(0.5), abs=1e-9
    )
    mixed = DensityMatrix(np.eye(2) / 2)
    assert trace_distance(a, mixed) == pytest.approx(0.5)


def _recording_eigvalsh(monkeypatch):
    """Patch ``np.linalg.eigvalsh`` to record each input's dtype."""
    dtypes, eigvalsh = [], np.linalg.eigvalsh

    def recording(a, *args, **kwargs):
        dtypes.append(np.asarray(a).dtype)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    return dtypes


def test_trace_distance_of_equal_inputs_is_zero_without_an_eigen_solve(monkeypatch):
    v = np.exp(2j * np.pi * np.arange(4) / 5) / 2
    rho = DensityMatrix(np.outer(v, v.conj()))
    copy = DensityMatrix(rho.matrix.copy())
    # the value the solver gives on a zero difference, sign bit included
    solved = float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(np.zeros((4, 4), complex)))))

    def refuse(*args, **kwargs):
        raise AssertionError("eigvalsh called")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    for a, b in [(rho, rho), (rho, copy), (rho.matrix, copy.matrix)]:
        distance = trace_distance(a, b)
        assert type(distance) is float
        assert np.float64(distance).tobytes() == np.float64(solved).tobytes()
    with pytest.raises(InvalidArgumentError, match="not Hermitian"):
        trace_distance(rho.matrix, rho.matrix + np.triu(np.ones((4, 4)), 1))


def test_a_matrix_with_no_imaginary_part_is_checked_in_real_arithmetic(monkeypatch):
    dtypes = _recording_eigvalsh(monkeypatch)
    real = np.eye(4, dtype=complex) / 4
    assert real.dtype == np.complex128
    DensityMatrix(real)
    v = np.array([1, 1j]) / np.sqrt(2)
    DensityMatrix(np.outer(v, v.conj()))
    assert dtypes == [np.float64, np.complex128]


@pytest.mark.parametrize("matrix, dtype", [
    (np.diag([1.5, -0.5]).astype(complex), np.float64),
    (np.array([[0.5, 1j], [-1j, 0.5]]), np.complex128),  # eigenvalues 1.5 and -0.5
])
def test_a_non_psd_matrix_is_refused_on_both_paths(monkeypatch, matrix, dtype):
    dtypes = _recording_eigvalsh(monkeypatch)
    with pytest.raises(InvalidArgumentError, match="not PSD"):
        DensityMatrix(matrix)
    assert dtypes == [dtype]


def test_density_average_and_purity():
    a = QuantumState.basis((2,), 0)
    b = QuantumState.basis((2,), 1)
    rho = DensityMatrix((a.density().matrix + b.density().matrix) / 2)
    assert rho.purity() == pytest.approx(0.5)
    lam, vec = a.density().dominant_eigenvector()
    assert lam == pytest.approx(1.0)
    assert abs(vec[0]) == pytest.approx(1.0)


def test_reduced_density():
    bell = QuantumState((2, 2), np.array([[1, 0], [0, 1]]) / np.sqrt(2))
    reduced = bell.reduced_density([0])
    assert np.allclose(reduced.matrix, np.eye(2) / 2)


def test_projector_matrix_matches_exact(setup):
    oracle, truth = setup
    P = component_projector_matrix(oracle)
    assert np.max(np.abs(P - exact_component_projector(truth))) < 1e-12
    assert np.max(np.abs(P @ P - P)) < 1e-12


def test_projector_measurement_statistics(setup):
    oracle, truth = setup
    # exact outcome-1 probability on a basis state is 1/|component|
    for s, expected in [(0, 1 / 3), (4, 1 / 2)]:
        state = QuantumState.basis((8,), s)
        rng = np.random.default_rng(5)
        result = measure_component_projector(state, oracle, rng)
        assert result.probability_one == pytest.approx(expected, abs=1e-9)
        assert result.ancilla_fidelity >= 1 - 1e-9


def test_projector_measurement_query_cost(setup):
    oracle, _ = setup
    rng = np.random.default_rng(6)
    session = oracle.session()
    measure_component_projector(QuantumState.basis((8,), 0), oracle, rng, session=session)
    assert session.queries["CM"] == 2
    assert session.queries["project_Ind"] == 2


def test_projector_measurement_post_state(setup):
    oracle, truth = setup
    rng = np.random.default_rng(7)
    # outcome 1 leaves the component superposition
    for _ in range(20):
        result = measure_component_projector(
            QuantumState.basis((8,), 0), oracle, rng
        )
        target = QuantumState.uniform(8, [0, 1, 2])
        if result.outcome == 1:
            assert state_fidelity(result.state, target) == pytest.approx(1.0)
        else:
            assert state_fidelity(result.state, target) == pytest.approx(0.0, abs=1e-9)


def test_projector_measurement_fixes_garbage(setup):
    oracle, _ = setup
    rng = np.random.default_rng(8)
    garbage = QuantumState.basis((8,), 7)
    result = measure_component_projector(garbage, oracle, rng)
    assert result.outcome == 1
    assert abs(result.state.overlap(garbage)) == pytest.approx(1.0)


def test_swap_test_probabilities():
    rng = np.random.default_rng(10)
    a = QuantumState.uniform(4, [0, 1])
    c = QuantumState.uniform(4, [2, 3])
    d = QuantumState.uniform(4, [0, 1, 2, 3])
    # identical states: never "different"
    same = a.tensor(a)
    assert all(swap_test(same, rng)[0] == "same" for _ in range(30))
    # orthogonal states: "different" with probability 1/2
    hits = sum(swap_test(a.tensor(c), rng)[0] == "different" for _ in range(4000))
    assert abs(hits / 4000 - 0.5) < 0.05
    # overlap 1/sqrt(2): "different" with probability 1/4
    hits = sum(swap_test(a.tensor(d), rng)[0] == "different" for _ in range(4000))
    assert abs(hits / 4000 - 0.25) < 0.05


# ---------------------------------------------------------------------------
# The table-based engine against per-index reference loops
# ---------------------------------------------------------------------------

def reference_projector(state, oracle, rng, axis=0):
    """measure_component_projector as one loop over the index register per
    mixer step, with a table and an argsort per index and call; returns
    (outcome, probability_one, ancilla_fidelity, post-state amplitudes)."""
    da = state.dims[axis]
    k = len(oracle.index_ints)
    amp = np.moveaxis(state.amp, axis, -1)
    rest_shape = amp.shape[:-1]
    amp = amp.reshape(-1, da)
    r = amp.shape[0]
    work = np.zeros((r, da, k, 2), dtype=complex)
    work[:, :, :, 0] = amp[:, :, None] / np.sqrt(k)
    fwd_tables = [oracle.permutation_table(enc) for enc in oracle.index_ints]
    inv_tables = [np.argsort(t) for t in fwd_tables]
    for ji in range(k):
        work[:, :, ji, :] = work[:, inv_tables[ji], ji, :]
    mean = work.sum(axis=2) / np.sqrt(k)
    e0_part = mean[:, :, None, :] / np.sqrt(k)
    work = (work - e0_part) + e0_part[..., ::-1]
    for ji in range(k):
        work[:, :, ji, :] = work[:, fwd_tables[ji], ji, :]
    p1 = float(np.sum(np.abs(work[:, :, :, 1]) ** 2))
    outcome = 1 if rng.random() < p1 else 0
    kept = work[:, :, :, outcome]
    kept = kept / np.linalg.norm(kept)
    proj_b = kept.sum(axis=2) / np.sqrt(k)
    fidelity = float(np.linalg.norm(proj_b))
    post = np.moveaxis((proj_b / fidelity).reshape(rest_shape + (da,)), -1, axis)
    return outcome, p1, fidelity, QuantumState(state.dims, post).amp


SHAPES = [(5,), (3, 4), (2, 3, 4), (2, 3, 2, 3)]


def views(shape, seed):
    """A random complex array of ``shape``, as a C-contiguous array, a
    transposed view and a strided view."""
    parts = np.random.default_rng(seed).normal(size=(2, *shape))
    a = parts[0] + 1j * parts[1]
    return {"contiguous": a, "transposed": a.T, "strided": a[..., ::2]}


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("fill", [None, complex(np.nan, 0), complex(0, np.inf),
                                  complex(-np.inf, np.nan), complex(np.inf, 1)])
def test_norm_equals_numpys_norm_bit_for_bit(shape, fill):
    for name, a in views(shape, len(shape)).items():
        if fill is not None:
            a[(0,) * a.ndim] = fill
        expected, got = np.linalg.norm(a), _norm(a)
        assert type(got) is float
        assert got == expected or (np.isnan(expected) and np.isnan(got)), name
        if fill is not None:  # a state still refuses a non-finite norm
            for normalize in (False, True):
                with pytest.raises(InvalidArgumentError, match="is not finite"):
                    QuantumState(a.shape, a, normalize=normalize)


@pytest.mark.parametrize("shape", SHAPES)
def test_move_axis_returns_numpys_moveaxis_view(shape):
    ndim = len(shape)
    for name, a in views(shape, ndim).items():
        for source in range(-ndim, ndim):
            for destination in range(-ndim, ndim):
                got = _move_axis(a, source, destination)
                expected = np.moveaxis(a, source, destination)
                assert got.shape == expected.shape, (name, source, destination)
                assert got.strides == expected.strides, (name, source, destination)
                assert got.ctypes.data == expected.ctypes.data == a.ctypes.data


def random_state(dims, seed) -> QuantumState:
    parts = np.random.default_rng(seed).normal(size=(2, *dims))
    return QuantumState(dims, parts[0] + 1j * parts[1], normalize=True)


@st.composite
def oracles(draw):
    """The offset mixer of a random n <= 3 partition, or the same maps under
    a random subset of its indices (then the mixing is inexact and the
    ancilla fidelity can fall below 1)."""
    oracle = make_offset_mixer(draw(partitions()))
    if draw(st.booleans()) and len(oracle.index_ints) > 1:
        keep = draw(st.lists(st.sampled_from(oracle.index_ints), min_size=1, unique=True))
        oracle = restricted(oracle, keep)
    return oracle


def assert_matches_reference(state, oracle, seed, axis):
    expected = reference_projector(state, oracle, np.random.default_rng(seed), axis)
    result = measure_component_projector(state, oracle, np.random.default_rng(seed), axis)
    assert result.outcome == expected[0]
    assert result.probability_one == expected[1]
    assert result.ancilla_fidelity == expected[2]
    assert np.array_equal(result.state.amp, expected[3])
    return result


@settings(max_examples=60, deadline=None)
@given(
    oracle=oracles(),
    r=st.sampled_from([1, 3, 4, "2^n"]),  # 2^n: the shape of a QMA witness
    axis=st.sampled_from([0, 1]),
    seed=st.integers(0, 2**32 - 1),
)
def test_projector_is_bitwise_identical_to_the_per_index_loops(oracle, r, axis, seed):
    da = 1 << oracle.n
    r = da if r == "2^n" else r
    state = random_state((da, r) if axis == 0 else (r, da), seed)
    assert_matches_reference(state, oracle, seed, axis)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("r", [1, 8])
@pytest.mark.parametrize("axis", [0, 1])
def test_projector_matches_the_loops_on_graphiso_v3(axis, r, seed):
    oracle, _ = make_graph_iso_mixer(3)
    assert len(oracle.index_ints) == 6
    state = random_state((8, r) if axis == 0 else (r, 8), seed)
    assert_matches_reference(state, oracle, seed, axis)


@pytest.mark.parametrize("seed", range(6))
def test_projector_matches_the_loops_on_the_qma_witness(seed):
    # qma-offset3: both registers projected in turn, as qma_verify_mc does
    truth = GroundTruthPartition.from_components(3, [[0, 1, 2, 3], [4, 5, 6, 7]])
    oracle = make_offset_mixer(truth)
    first = assert_matches_reference(build_qma_witness(truth, 1, 2), oracle, seed, 0)
    assert_matches_reference(first.state, oracle, seed + 100, 1)


def test_tables_are_built_once_on_first_quantum_use(setup, monkeypatch):
    calls = []
    original = MixerOracle.permutation_table

    def counted(self, enc):
        calls.append(enc)
        return original(self, enc)

    monkeypatch.setattr(MixerOracle, "permutation_table", counted)
    oracle = make_offset_mixer(setup[1])
    assert calls == []
    rng = np.random.default_rng(11)
    for _ in range(3):
        measure_component_projector(QuantumState.basis((8,), 0), oracle, rng)
    assert sorted(calls) == sorted(oracle.index_ints)
    assert not any(t.flags.writeable for t in oracle.permutation_tables())


def test_non_bijective_mixer_names_the_first_offending_index():
    # with point 1 marked, index 1 sends both 0 and 3 to 0; index 0 is the identity
    oracle = make_grover_mixer(2, PointFunction(2, 1))
    for _ in range(2):  # a failed build caches nothing
        with pytest.raises(InvalidArgumentError, match="grover-n2 index 1 is not a bijection"):
            measure_component_projector(QuantumState.basis((4,), 0), oracle, np.random.default_rng(0))


def test_a_measurement_that_raises_charges_nothing():
    g = PointFunction(2, 1)
    oracle = make_grover_mixer(2, g)
    session = oracle.session()
    with pytest.raises(InvalidArgumentError, match="index 1 is not a bijection"):
        measure_component_projector(
            QuantumState.basis((4,), 0), oracle, np.random.default_rng(0), session=session
        )
    assert charged(session) == {}
    assert g.queries == 0


def lazy_branch_case(name):
    """An exact mixer, a component superposition's support and a pair (a, b)
    inside one component; "gated" meters a point function."""
    if name == "offset":
        truth = GroundTruthPartition.from_components(3, [[0, 1, 2], [3, 4]])
        return make_offset_mixer(truth), [3, 4], (3, 4)
    return make_grover_mixer(2, PointFunction(2)), [0, 1, 2, 3], (0, 1)


@pytest.mark.parametrize("name", ["offset", "gated"])
def test_a_branch_no_trial_takes_never_raises(name):
    oracle, support, (a, b) = lazy_branch_case(name)
    dim = 1 << oracle.n
    inside = QuantumState.uniform(dim, support)
    amp = np.zeros(dim, dtype=complex)
    amp[a], amp[b] = 1, -1
    outside = QuantumState((dim,), amp, normalize=True)  # P psi = 0 exactly
    # the flag-1 branch of ``outside`` is all zeros, so drawing it would raise
    assert measure_component_projector(outside, oracle, np.random.default_rng(0)).probability_one == 0.0
    rng = np.random.default_rng(12)
    for state, outcome in ((inside, 1), (outside, 0)):
        for _ in range(200):
            session = oracle.session()
            g_before = oracle.point.queries if oracle.point else 0
            result = measure_component_projector(state, oracle, rng, session=session)
            assert result.outcome == outcome
            assert charged(session) == {"CM": 2, "project_Ind": 2}
            if oracle.point is not None:  # one g evaluation per CM step, 2 queries each
                assert oracle.point.queries - g_before == 2 * 2


def test_projector_work_tensor_is_capped_before_tables_are_built(monkeypatch):
    oracle, _ = make_coset_mixer(1024, [1])
    assert len(oracle.index_ints) == 1024
    monkeypatch.setattr(oracle, "permutation_tables", lambda: pytest.fail("tables built"))
    session = oracle.session()
    state = QuantumState.basis((1024, 4), (0, 0))
    size = 1024 * 4 * 1024 * 2
    assert size > STATE_DIM_CAP
    with pytest.raises(InvalidArgumentError, match=f"work tensor of {size} amplitudes exceeds the cap"):
        measure_component_projector(state, oracle, np.random.default_rng(0), session=session)
    assert charged(session) == {}
