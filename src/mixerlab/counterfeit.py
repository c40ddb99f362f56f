"""Counterfeiting reduction machinery.

A counterfeiter is a callable run against metered mixer and label sessions
for a hidden 2n-bit instance; it returns a quantum state over 2n bits and
may never touch ground truth. Two stand-ins are provided:

* the reference counterfeiter reconstructs its start element's component by
  applying every index, queries labels only on elements it reached, and
  outputs the uniform superposition over the reconstructed component;
* the label-scanning counterfeiter first samples random points and queries
  their labels, and switches to a fixed flag output if it catches the label
  assigning its component's value to an unreachable point.

Because the reference counterfeiter stays on its component, its entire query
transcript is identical under the collapsed-row-0 label and under the valid
embed-only label once both are hidden with the same permutations.
"""

from dataclasses import dataclass

import numpy as np

from .errors import BudgetExhaustedError, InvalidArgumentError
from .instances import PointFunction, make_grover_mixer
from .layered import LayeredInstance, apply_hiding, hide_instance, make_layered_instance
from .oracle import LabelSession, MixerOracle, QuerySession
from .partition import GroundTruthPartition
from .protocols import EstimatedProbability
from .quantum import STATE_DIM_CAP, DensityMatrix, QuantumState, trace_distance
from .trials import run_seeded_trials, trial_rng


def _component_closure(mixer: QuerySession, label: LabelSession, start: int):
    """Reconstruct the start element's component through metered queries.

    Enumerates index encodings by membership testing, applies each valid
    index to the start element (full connectivity makes one pass complete),
    and keeps the elements sharing the start's label.
    """
    width = mixer.oracle.index_width
    valid = [e for e in range(1 << width) if mixer.test_membership_ind(e)]
    start_label = label.query(start)
    component = {start}
    for enc in valid:
        y = mixer.apply(enc, start)
        if y not in component and label.query(y) == start_label:
            component.add(y)
    return sorted(component), start_label


class ReferenceCounterfeiter:
    """Closure-based counterfeiter; never queries a label off its component."""

    def __init__(self, budget: int | None = None):
        self.budget = budget

    def __call__(
        self, mixer: QuerySession, label: LabelSession, start: int, rng
    ) -> QuantumState:
        if self.budget is not None and self.budget <= 0:
            raise BudgetExhaustedError("counterfeiter has no query budget")
        mixer.budget = self.budget
        label.budget = self.budget
        component, _ = _component_closure(mixer, label, start)
        return QuantumState.uniform(1 << mixer.oracle.n, component)


class LabelScanningCounterfeiter:
    """Adversarial foil: scans random label inputs before reconstructing.

    Detection rule: some scanned point outside the reconstructed component
    carries the component's label. On detection the output is the all-zeros
    flag state instead of the component superposition.
    """

    def __init__(self, scan_count: int, budget: int | None = None):
        self.scan_count = scan_count
        self.budget = budget
        self.last_detected = False

    def __call__(
        self, mixer: QuerySession, label: LabelSession, start: int, rng
    ) -> QuantumState:
        mixer.budget = self.budget
        label.budget = self.budget
        dim = 1 << mixer.oracle.n
        if self.scan_count >= dim:
            scanned = list(range(dim))
        else:
            scanned = [int(x) for x in rng.integers(dim, size=self.scan_count)]
        scan_labels = {x: label.query(x) for x in set(scanned)}
        component, start_label = _component_closure(mixer, label, start)
        in_component = set(component)
        self.last_detected = any(
            lab == start_label and x not in in_component
            for x, lab in scan_labels.items()
        )
        if self.last_detected:
            return QuantumState.basis((dim,), 0)
        return QuantumState.uniform(dim, component)


def run_counterfeiter(alg, instance: LayeredInstance, s: int, rng):
    """Run a counterfeiter against a (hidden) instance's metered sessions."""
    mixer = instance.mixer2n.session(rng=rng)
    label = instance.label2n.session()
    state = alg(mixer, label, instance.start_element(s), rng)
    return state, mixer, label


@dataclass
class SolveResult:
    density: DensityMatrix    # reduced state over the last n qubits
    state: QuantumState       # dominant eigenvector of the reduced state
    purity: float


def solve_component_superposition_via_counterfeiter(
    base_oracle: MixerOracle,
    base_truth: GroundTruthPartition,
    s: int,
    alg,
    rng,
) -> SolveResult:
    """Solve component superposition using a counterfeiter as a subroutine.

    Builds the collapsed-row-0 embedding, hides it with fresh permutations,
    runs the counterfeiter from the hidden image of (0, s), undoes the hiding
    permutation coherently, and returns the last n qubits of the result.
    """
    if s not in base_truth:
        raise InvalidArgumentError(f"{s} is not a member of S")
    instance = hide_instance(make_layered_instance(base_oracle, base_truth, "row0"), rng)
    output, _, _ = run_counterfeiter(alg, instance, s, rng)

    # undo pi coherently: |x> -> |pi^-1(x)>
    amp = output.amp.reshape(-1)[instance.pi]
    n = base_truth.n
    unhidden = QuantumState((1 << n, 1 << n), amp.reshape(1 << n, 1 << n))
    density = unhidden.reduced_density([1])
    weight, vec = density.dominant_eigenvector()
    return SolveResult(
        density=density,
        state=QuantumState(((1 << n),), vec, normalize=True),
        purity=density.purity(),
    )


@dataclass
class DistinguishingReport:
    """Estimated counterfeiter outputs under the two point-function regimes."""

    rho_zero: DensityMatrix
    rho_point: DensityMatrix
    distance: float
    g_queries_max: int
    trials: int
    detections_zero: int = 0
    detections_point: int = 0


def distinguishing_experiment(
    base_oracle: MixerOracle,
    base_truth: GroundTruthPartition,
    s: int,
    alg_factory,
    trials: int,
    seed: int,
) -> DistinguishingReport:
    """Estimate the counterfeiter's output under g = 0 vs a random point g.

    Each trial draws fresh hiding permutations from its own seeded stream and
    uses the same pair for both regimes (common random numbers: both
    marginals stay exact, only the estimation error is correlated). The
    point row is drawn uniformly at random per trial. The two d x d density
    sums (d = 4^n) must fit ``STATE_DIM_CAP``, which holds for n <= 5.

    A grover-variant embedding depends only on its rest row (None or the
    marked point), so the 2^n + 1 of them are built once per run, each with
    its own point function; a trial only hides one and runs the
    counterfeiter, and an arm's g-query count is what its run added. Each
    output state v adds only the rows of v v^H on its support: the rows it
    skips would add +-0, which changes no entry of a sum that starts at +0,
    so the sums equal the dense ones bit for bit. (Full rows, not a k x k
    block: numpy may multiply a short complex row by another inner loop,
    and a 1 x 1 block differs in the last bit on an AVX-512 build.)

    While every trial's two outputs are equal byte for byte, the arms share
    one sum; the first trial whose outputs differ copies it into two, so
    each arm's sum is still bit for bit its own. When the outputs never
    differ (the reference counterfeiter cannot tell g = 0 from a marked
    point), ``rho_point`` is ``rho_zero`` and the distance is exactly 0.0.
    The two-sum cap is checked up front either way.
    """
    n = base_truth.n
    d2 = 1 << (2 * n)
    if 2 * d2 * d2 > STATE_DIM_CAP:
        raise InvalidArgumentError(
            f"counterfeit density sums of {2 * d2 * d2} entries (a {n}-bit base) "
            f"exceed the cap {STATE_DIM_CAP}"
        )
    # one density sum while every trial's two outputs agree, then one per arm
    acc = np.zeros((1, d2, d2), dtype=complex)
    layered = {
        row: make_layered_instance(base_oracle, base_truth, "grover", g=PointFunction(n, row))
        for row in (None, *range(1 << n))
    }

    def one(t, rng):
        nonlocal acc
        pi = rng.permutation(d2)
        sigma = rng.permutation(d2)
        y = int(rng.integers(1 << n))
        records, outputs = [], []
        for row in (None, y):
            instance = layered[row]
            g = instance.mixer2n.point
            before = g.queries
            alg = alg_factory()
            state, _, _ = run_counterfeiter(alg, apply_hiding(instance, pi, sigma), s, rng)
            outputs.append(state.amp.reshape(-1))
            records.append((g.queries - before, getattr(alg, "last_detected", False)))
        if len(acc) == 1 and outputs[0].tobytes() != outputs[1].tobytes():
            acc = np.concatenate((acc, acc))
        for arm_sum, v in zip(acc, outputs):
            k = np.flatnonzero(v)
            arm_sum[k] += np.outer(v[k], v.conj())
        return records

    per_trial = run_seeded_trials(one, trials, seed)
    rho_zero = DensityMatrix(acc[0] / trials)
    rho_point = DensityMatrix(acc[1] / trials) if len(acc) == 2 else rho_zero
    return DistinguishingReport(
        rho_zero=rho_zero,
        rho_point=rho_point,
        distance=trace_distance(rho_zero, rho_point),
        g_queries_max=max(q for arms in per_trial for q, _ in arms),
        trials=trials,
        detections_zero=sum(arms[0][1] for arms in per_trial),
        detections_point=sum(arms[1][1] for arms in per_trial),
    )


def hiding_indistinguishability_check(
    base_oracle: MixerOracle,
    base_truth: GroundTruthPartition,
    seed: int,
    num_perms: int = 8,
) -> bool:
    """Exhaustive check that hidden collapsed-row-0 and embed-only instances
    agree everywhere except on the hidden images of the other components.

    For each seeded permutation pair: mixers and labels must agree pointwise
    off the revealing set pi({0} x (complement of component 1)), and the
    reference counterfeiter must produce identical output states.
    """
    n = base_truth.n
    d2 = 1 << (2 * n)
    dim = 1 << n
    s1 = set(base_truth.component_elements(1))
    revealing_cols = [z for z in range(dim) if z not in s1]
    start = base_truth.component_elements(1)[0]

    row0 = make_layered_instance(base_oracle, base_truth, "row0")
    nowhere = make_layered_instance(base_oracle, base_truth, "nowhere")

    def agree(p, rng):
        pi = rng.permutation(d2)
        sigma = rng.permutation(d2)
        h_row0 = apply_hiding(row0, pi, sigma)
        h_nowhere = apply_hiding(nowhere, pi, sigma)
        revealing = {int(pi[z]) for z in revealing_cols}
        for x in range(d2):
            if x in revealing:
                continue
            if h_row0.label2n.label_int(x) != h_nowhere.label2n.label_int(x):
                return False
            for enc in base_oracle.index_ints:
                if h_row0.mixer2n._apply_fn(enc, x) != h_nowhere.mixer2n._apply_fn(enc, x):
                    return False
        out0, _, _ = run_counterfeiter(
            ReferenceCounterfeiter(), h_row0, start, trial_rng(seed, 10_000 + p)
        )
        out1, _, _ = run_counterfeiter(
            ReferenceCounterfeiter(), h_nowhere, start, trial_rng(seed, 10_000 + p)
        )
        return np.allclose(out0.amp, out1.amp)

    return all(run_seeded_trials(agree, num_perms, seed))


# ---------------------------------------------------------------------------
# Grover embedding query experiment
# ---------------------------------------------------------------------------

def fixed_point_probe_tester(session: QuerySession, n: int, q: int, rng) -> str:
    """Classical tester: q random applications; answer "multiple" iff any
    non-trivial shift leaves its input fixed.

    Probe k applies shift i_k in [1, 2^n) to x_k in [0, 2^n). All 2q values
    are drawn up front in one call, in the order x_0, i_0, x_1, i_1, ...;
    numpy's broadcast path draws them element by element with the same
    bounded sampler as a scalar ``rng.integers`` call, so they equal the
    values of 2q scalar calls. ``rng`` therefore advances by 2q draws
    whatever the answer, also when a fixed point ends the loop early.
    """
    dim = 1 << n
    probes = rng.integers(np.tile((0, 1), q), dim).reshape(q, 2).tolist()
    apply = session.apply
    for x, i in probes:
        if apply(i, x) == x:
            return "multiple"
    return "single"


def grover_embedding_query_experiment(
    n: int, q: int, trials: int, seed: int, tester=fixed_point_probe_tester
) -> EstimatedProbability:
    """Run a classical component-count tester against Grover-embedding mixers.

    Half the trials use an all-zeros point function ("single" is correct),
    half a uniformly random marked point ("multiple" is correct). Every
    mixer application costs two point-function queries. Returns the tester's
    success rate over per-trial (correct, g queries) records.
    """
    def one(t, rng):
        marked = t % 2 == 1
        y = int(rng.integers(1 << n)) if marked else None
        g = PointFunction(n, y)
        oracle = make_grover_mixer(n, g)
        answer = tester(oracle.session(rng=rng), n, q, rng)
        expected = "multiple" if marked else "single"
        return answer == expected, g.queries

    return EstimatedProbability.from_outcomes(
        run_seeded_trials(one, trials, seed), accepted=lambda r: r[0]
    )
