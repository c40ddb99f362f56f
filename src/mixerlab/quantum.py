"""Dense state-vector engine for small-n quantum query experiments.

States are complex amplitude vectors shaped by a tuple of register
dimensions. All operators are applied exactly; measurement outcomes are
sampled from Born probabilities with a caller-supplied generator.

Quantum query accounting, charged to the session passed in, if any: the
component-projector measurement charges exactly two controlled-mixer queries
(compute and uncompute) plus two index-register queries (prepare and
reflect). Each controlled-mixer step also charges the oracle's point
function, if any.

A state's dimension is checked against ``STATE_DIM_CAP`` before its
amplitudes are allocated or converted to complex.

Mixer applications read the oracle's stacked index-by-element tables
(:meth:`MixerOracle.permutation_tables`): each controlled-mixer step is one
array gather over the whole index register. The tables are built on the
oracle's first quantum use and cached on it. The component projector builds
its flag branches as separate arrays, the flag-0 branch only when drawn, so
its largest array holds r * 2^n * |Ind| amplitudes (r: the other registers).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .oracle import MixerOracle, QuerySession

TRACE_TOL = 1e-10

STATE_DIM_CAP = 1 << 22


# The engine's arrays are small, so numpy's Python-level wrappers would cost
# as much as the arithmetic. These two helpers do what the wrappers do on the
# arrays the engine passes them, step for step, so results match bit for bit.

def _norm(a: np.ndarray) -> float:
    """``np.linalg.norm(a)`` for a complex array: the same ravel, dots and
    square root, so the same float."""
    a = a.ravel(order="K")
    re, im = a.real, a.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def _move_axis(a: np.ndarray, source: int, destination: int) -> np.ndarray:
    """``np.moveaxis(a, source, destination)`` for one in-range axis: the
    same transposed view."""
    order = list(range(a.ndim))
    del order[source]
    order.insert(destination % a.ndim, source % a.ndim)
    return a.transpose(order)


def _check_dimension(size: int) -> None:
    if size > STATE_DIM_CAP:
        raise InvalidArgumentError(
            f"state dimension {size} exceeds the cap {STATE_DIM_CAP}"
        )


class QuantumState:
    """A unit-norm complex amplitude tensor over declared registers."""

    __slots__ = ("dims", "amp")

    def __init__(self, dims, amp, normalize=False):
        dims = tuple(int(d) for d in dims)
        _check_dimension(math.prod(dims))
        amp = np.asarray(amp, dtype=complex).reshape(dims)
        norm = _norm(amp)
        if not math.isfinite(norm):
            raise InvalidArgumentError(f"state norm {norm} is not finite")
        if normalize:
            if norm == 0:
                raise InvalidArgumentError("cannot normalize the zero vector")
            amp = amp / norm
        elif abs(norm - 1.0) > 1e-9:
            raise InvalidArgumentError(f"state is not normalized (norm {norm})")
        self.dims = dims
        self.amp = amp

    @classmethod
    def basis(cls, dims, index) -> "QuantumState":
        _check_dimension(math.prod(dims))
        amp = np.zeros(dims, dtype=complex)
        amp[index] = 1.0
        return cls(dims, amp)

    @classmethod
    def uniform(cls, dim: int, support) -> "QuantumState":
        support = list(support)
        if not support:
            raise InvalidArgumentError("a uniform state needs a non-empty support")
        if len(set(support)) != len(support):
            raise InvalidArgumentError("a uniform state's support has repeated elements")
        lo, hi = min(support), max(support)
        if lo < 0 or hi >= dim:
            raise InvalidArgumentError(
                f"support element {lo if lo < 0 else hi} is outside [0, {dim})"
            )
        _check_dimension(dim)
        amp = np.zeros(dim, dtype=complex)
        amp[support] = 1.0 / math.sqrt(len(support))
        return cls((dim,), amp)

    def tensor(self, other: "QuantumState") -> "QuantumState":
        _check_dimension(self.amp.size * other.amp.size)
        amp = np.tensordot(self.amp, other.amp, axes=0)
        return QuantumState(self.dims + other.dims, amp)

    def overlap(self, other: "QuantumState") -> complex:
        return complex(np.vdot(self.amp, other.amp))

    def density(self) -> "DensityMatrix":
        v = self.amp.reshape(-1)
        return DensityMatrix(np.outer(v, v.conj()))

    def reduced_density(self, keep_axes) -> "DensityMatrix":
        """Partial trace down to the given axes (in their current order)."""
        keep = tuple(keep_axes)
        drop = tuple(a for a in range(len(self.dims)) if a not in keep)
        perm = keep + drop
        dk = int(np.prod([self.dims[a] for a in keep]))
        dd = int(np.prod([self.dims[a] for a in drop])) if drop else 1
        m = np.transpose(self.amp, perm).reshape(dk, dd)
        return DensityMatrix(m @ m.conj().T)


class DensityMatrix:
    """Hermitian, PSD, trace-one matrix with tolerance checks."""

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        m = np.asarray(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InvalidArgumentError("density matrix must be square")
        if np.max(np.abs(m - m.conj().T)) > 1e-8:
            raise InvalidArgumentError("density matrix is not Hermitian")
        tr = np.trace(m).real
        if abs(tr - 1.0) > TRACE_TOL * max(1, m.shape[0]):
            raise InvalidArgumentError(f"trace {tr} is not 1")
        # a matrix with no imaginary part takes the real solver: complex
        # LAPACK calls wake OpenBLAS's worker thread, which then spins
        if np.min(np.linalg.eigvalsh(m.real if not m.imag.any() else m)) < -1e-8:
            raise InvalidArgumentError("density matrix is not PSD")
        self.matrix = m

    def purity(self) -> float:
        return float(np.trace(self.matrix @ self.matrix).real)

    def dominant_eigenvector(self) -> tuple[float, np.ndarray]:
        w, v = np.linalg.eigh(self.matrix)
        return float(w[-1]), v[:, -1]


def _as_matrix(obj) -> np.ndarray:
    if isinstance(obj, DensityMatrix):
        return obj.matrix
    if isinstance(obj, QuantumState):
        return obj.density().matrix
    return np.asarray(obj, dtype=complex)


def trace_distance(a, b) -> float:
    """(1/2) ||a - b||_1 via eigenvalues of the Hermitian difference.

    Equal inputs give exactly 0.0 without an eigen-solve, as the solver
    would: its eigenvalues of the zero matrix are zeros.
    """
    ma, mb = _as_matrix(a), _as_matrix(b)
    if ma.shape != mb.shape:
        raise InvalidArgumentError("dimension mismatch")
    d = ma - mb
    if np.max(np.abs(d - d.conj().T)) > 1e-8:
        raise InvalidArgumentError("inputs are not Hermitian")
    if not d.any():
        return 0.0
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(d))))


# ---------------------------------------------------------------------------
# Quantum query access
# ---------------------------------------------------------------------------

@dataclass
class ProjectorMeasurement:
    """Outcome of the component-projector measurement."""

    outcome: int
    state: QuantumState       # post-measurement state, ancillas removed
    probability_one: float    # Born probability of outcome 1
    ancilla_fidelity: float   # fidelity of the index register with |e0>


def measure_component_projector(
    state: QuantumState,
    oracle: MixerOracle,
    rng,
    axis: int = 0,
    session: QuerySession | None = None,
) -> ProjectorMeasurement:
    """Measure the projector onto the span of component superpositions.

    Four steps: adjoin an index register in the uniform state |e0> and a flag
    qubit; apply the controlled mixer; reflect the flag about |e0>; uncompute
    the controlled mixer; measure the flag. For an exactly mixing family the
    flag statistics equal <psi|P|psi> and the index register returns to |e0>
    unentangled. Garbage basis states (outside S) pass the measurement
    untouched, since every mixer application fixes them.

    Each flag branch is a 3-axis array: flag 1 holds e0[:, fwd[j, y]], with
    e0 the |e0> part of w0[:, j, y] = amp[:, inv[j, y]] / sqrt(|Ind|), and
    gives the Born probability; flag 0 holds (w0 - e0)[:, j, fwd[j, y]] and
    is gathered only when drawn, so a branch no outcome takes never raises.
    The largest array holds r * 2^n * |Ind| amplitudes, r the dimension of
    the other registers. The cap still bounds r * 2^n * |Ind| * 2 and raises
    before any table is built; lifting it means streaming over the index
    rows (ROADMAP item 5). Results match the full (r, 2^n, |Ind|, 2) tensor
    bit for bit, so e0 adds the rows j in order (a middle-axis sum, not the
    pairwise sum over a contiguous last axis) and each branch is summed in
    C-ordered (r, 2^n, |Ind|) layout: a sum rounds by the layout it runs over.
    """
    da = state.dims[axis]
    if da != 1 << oracle.n:
        raise InvalidArgumentError("axis dimension must be 2^n")
    k = len(oracle.index_ints)
    work_size = state.amp.size * k * 2
    if work_size > STATE_DIM_CAP:
        raise InvalidArgumentError(
            f"projector work tensor of {work_size} amplitudes exceeds the cap "
            f"{STATE_DIM_CAP}"
        )
    fwd, inv = oracle.permutation_tables()  # raises before anything is charged
    if session is not None:
        session.charge("CM", 2)
        session.charge("project_Ind", 2)
        if oracle.point is not None:
            oracle.point.charge(2)

    amp = _move_axis(state.amp, axis, -1)
    rest_shape = amp.shape[:-1]
    amp = amp.reshape(-1, da)
    root_k = math.sqrt(k)

    # steps 1-2: adjoin B = |e0> and C = |0>, then apply
    # U = sum_j Mtilde_j (x) |j><j|. numpy divides a complex array by a real
    # scalar by multiplying with its reciprocal: this rounds as ``/ root_k``.
    w0 = amp.take(inv, axis=1) * (1 / root_k)  # flag 0, (r, k, 2^n)

    # step 3: flip C on the |e0> component of B; the flip moves it to flag 1
    e0_part = w0.sum(axis=1) / root_k / root_k     # |e0><e0| w0, one row

    # step 4: uncompute with U^dagger. Each branch is gathered C-ordered
    # (r, 2^n, k): the sums below round according to that layout.
    branch1 = e0_part.take(fwd.T, axis=1)
    p1 = float((np.abs(branch1) ** 2).sum())
    outcome = 1 if rng.random() < p1 else 0
    if outcome == 1:
        kept = branch1
    else:  # gathered only when drawn, so a branch no trial takes never raises
        kept = np.ascontiguousarray((w0 - e0_part[:, None, :])[:, np.arange(k), fwd.T])
    kept_norm = _norm(kept)
    if kept_norm == 0:
        raise InvalidArgumentError("measurement collapsed to the zero vector")
    kept = kept * (1 / kept_norm)  # = kept / kept_norm, as in step 2

    # discard B by contracting with |e0>; exact for exactly mixing families
    proj_b = kept.sum(axis=2) / root_k
    fidelity = _norm(proj_b)
    if fidelity == 0:
        raise InvalidArgumentError("index register lost all weight on |e0>")
    post = (proj_b / fidelity).reshape(rest_shape + (da,))
    post = _move_axis(post, -1, axis)
    return ProjectorMeasurement(
        outcome=outcome,
        state=QuantumState(state.dims, post),
        probability_one=p1,
        ancilla_fidelity=fidelity,
    )


def swap_test(state: QuantumState, rng, axis1: int = 0, axis2: int = 1):
    """Swap test between two equal-dimension registers of a joint state.

    Returns ("different" | "same", post-state). "different" is reported with
    probability (1 - |<psi|phi>|^2) / 2 on product input.
    """
    if state.dims[axis1] != state.dims[axis2]:
        raise InvalidArgumentError("swap test requires equal dimensions")
    swapped = state.amp.swapaxes(axis1, axis2)
    anti = (state.amp - swapped) / 2.0
    p_diff = float(np.vdot(anti, anti).real)
    if rng.random() < p_diff:
        return "different", QuantumState(state.dims, anti, normalize=True)
    sym = (state.amp + swapped) / 2.0
    return "same", QuantumState(state.dims, sym, normalize=True)
