"""Interactive-proof simulations and statistical-difference reductions.

Arthur is query-bounded and goes through metered sessions; Merlin (honest or
cheating) is computationally unbounded and may hold the ground truth. The
balanced-components promise is checked up front and violations raise.
"""

import math
from dataclasses import dataclass, field

from .bits import as_int
from .errors import InvalidArgumentError, PromiseViolationError
from .oracle import MixerOracle
from .partition import GroundTruthPartition
from .quantum import (
    QuantumState,
    measure_component_projector,
    swap_test,
)
from .trials import run_seeded_trials
from .verify import tv_distance

ARTHUR_QUERIES_PER_AM_TRIAL = 4  # two samples, one index draw, one apply
# sd_reduction_mbcp walks |S|^2 |Ind|^2 tuples: 2.36M on graphiso v=4, but
# 1.5e10 on v=5, which would not finish
SD_MBCP_MAX_TUPLES = 1 << 22


@dataclass(frozen=True)
class EstimatedProbability:
    """A Monte Carlo acceptance estimate with a 95% normal-approx interval.

    ``outcomes`` holds the per-trial records the estimate was built from, in
    trial order; equality and the JSON form ignore them.
    """

    estimate: float
    trials: int
    outcomes: tuple = field(default=(), compare=False, repr=False)

    @classmethod
    def from_outcomes(cls, outcomes, accepted=bool) -> "EstimatedProbability":
        """The acceptance rate of per-trial records; ``accepted(record)``
        is the record's accept flag."""
        outcomes = tuple(outcomes)
        accepts = sum(1 for o in outcomes if accepted(o))
        return cls(accepts / len(outcomes), len(outcomes), outcomes)

    @property
    def ci95(self) -> float:
        p = self.estimate
        return 1.96 * math.sqrt(max(p * (1.0 - p), 0.0) / self.trials)


def _require_mbcp_promise(truth: GroundTruthPartition):
    if not truth.mbcp_promise_holds():
        raise PromiseViolationError(
            "instance violates the balanced-components promise"
        )


# ---------------------------------------------------------------------------
# AM protocol for multiple balanced components
# ---------------------------------------------------------------------------

def am_mbcp_trial(
    oracle: MixerOracle, truth: GroundTruthPartition, merlin: str, rng
) -> tuple[bool, int]:
    """One protocol round; returns (accepted, Arthur's query count)."""
    session = oracle.session(rng=rng)
    s1 = session.sample_s()
    s2 = session.sample_s()
    i = int(rng.integers(1, 3))
    j = session.sample_ind()
    t = session.apply(j, s1 if i == 1 else s2)

    if merlin == "honest":
        if truth.same_component(s1, s2):
            guess = int(rng.integers(1, 3))
        else:
            guess = 1 if truth.same_component(t, s1) else 2
    elif merlin == "optimal_cheat":
        # exact Bayes over the enumerable instance: the posterior for i is
        # proportional to the number of indices mapping s_i to t
        n1 = sum(1 for enc in oracle.index_ints if oracle.apply_int(enc, s1) == t)
        n2 = sum(1 for enc in oracle.index_ints if oracle.apply_int(enc, s2) == t)
        if n1 > n2:
            guess = 1
        elif n2 > n1:
            guess = 2
        else:
            guess = int(rng.integers(1, 3))
    else:
        raise InvalidArgumentError(f"unknown merlin strategy {merlin!r}")
    return guess == i, sum(session.queries.values())


def run_am_mbcp(
    oracle: MixerOracle,
    truth: GroundTruthPartition,
    merlin: str,
    trials: int,
    seed: int,
) -> EstimatedProbability:
    """Outcomes are (accepted, Arthur's query count) per trial."""
    _require_mbcp_promise(truth)
    results = run_seeded_trials(
        lambda t, rng: am_mbcp_trial(oracle, truth, merlin, rng), trials, seed
    )
    return EstimatedProbability.from_outcomes(results, accepted=lambda r: r[0])


# ---------------------------------------------------------------------------
# co-AM protocol
# ---------------------------------------------------------------------------

def coam_mbcp_trial(oracle: MixerOracle, rng) -> bool:
    session = oracle.session(rng=rng)
    s1 = session.sample_s()
    s2 = session.sample_s()
    # Merlin is unbounded: brute-force search for a connecting index
    witness = None
    for enc in oracle.index_ints:
        if oracle.apply_int(enc, s1) == s2:
            witness = enc
            break
    if witness is None:
        witness = oracle.index_ints[0]
    return session.apply(witness, s1) == s2


def run_coam_mbcp(
    oracle: MixerOracle,
    truth: GroundTruthPartition,
    trials: int,
    seed: int,
) -> EstimatedProbability:
    _require_mbcp_promise(truth)
    results = run_seeded_trials(
        lambda t, rng: coam_mbcp_trial(oracle, rng), trials, seed
    )
    return EstimatedProbability.from_outcomes(results)


# ---------------------------------------------------------------------------
# QMA protocol for multiple components
# ---------------------------------------------------------------------------

def build_qma_witness(
    truth: GroundTruthPartition, k1: int, k2: int
) -> QuantumState:
    """Tensor product of the two component superpositions (the honest witness)."""
    if k1 == k2:
        raise InvalidArgumentError("witness components must be distinct")
    dim = 1 << truth.n
    a = QuantumState.uniform(dim, truth.component_elements(k1))
    b = QuantumState.uniform(dim, truth.component_elements(k2))
    return a.tensor(b)


def qma_verify_mc(witness: QuantumState, oracle: MixerOracle, rng) -> bool:
    """Project each register onto component superpositions, then swap test.

    Accepts iff both projections succeed and the swap test reports
    "different".
    """
    r1 = measure_component_projector(witness, oracle, rng, axis=0)
    if r1.outcome == 0:
        return False
    r2 = measure_component_projector(r1.state, oracle, rng, axis=1)
    if r2.outcome == 0:
        return False
    verdict, _ = swap_test(r2.state, rng, axis1=0, axis2=1)
    return verdict == "different"


def run_qma_mc(
    oracle: MixerOracle,
    witness: QuantumState,
    trials: int,
    seed: int,
) -> EstimatedProbability:
    results = run_seeded_trials(
        lambda t, rng: qma_verify_mc(witness, oracle, rng), trials, seed
    )
    return EstimatedProbability.from_outcomes(results)


# ---------------------------------------------------------------------------
# Component-projector measurement on a basis state
# ---------------------------------------------------------------------------

def run_projector_demo(
    oracle: MixerOracle, s, trials: int, seed: int
) -> EstimatedProbability:
    """Measure the component projector on |s> once per trial.

    Outcomes are (flag outcome, CM queries charged) per trial; the flag is 1
    with probability 1/|component(s)|.
    """
    si = as_int(s, oracle.n)

    def one(t, rng):
        state = QuantumState.basis((1 << oracle.n,), si)
        session = oracle.session(rng=rng)
        result = measure_component_projector(state, oracle, rng, session=session)
        return result.outcome, session.queries["CM"]

    return EstimatedProbability.from_outcomes(
        run_seeded_trials(one, trials, seed), accepted=lambda r: r[0]
    )


# ---------------------------------------------------------------------------
# Statistical-difference reductions
# ---------------------------------------------------------------------------

def sd_reduction_scp(
    oracle: MixerOracle, truth: GroundTruthPartition, s, t
) -> float:
    """TV distance between the laws of M_I(s) and M_J(t), I, J uniform.

    Zero iff s and t share a component (for exact mixers); one when the
    components are disjoint.
    """
    si = as_int(s, oracle.n)
    ti = as_int(t, oracle.n)
    if si not in truth or ti not in truth:
        raise InvalidArgumentError("s and t must be members of S")
    k = len(oracle.index_ints)
    law_s: dict[int, float] = {}
    law_t: dict[int, float] = {}
    for enc in oracle.index_ints:
        y = oracle.apply_int(enc, si)
        law_s[y] = law_s.get(y, 0.0) + 1.0 / k
        y = oracle.apply_int(enc, ti)
        law_t[y] = law_t.get(y, 0.0) + 1.0 / k
    return tv_distance(law_s, law_t)


def sd_reduction_mbcp(oracle: MixerOracle, truth: GroundTruthPartition) -> float:
    """TV distance between (a, M_I(a), b, M_J(b)) and four independent
    uniform samples from S, exact by enumeration of all |S|^2 |Ind|^2
    tuples, at most ``SD_MBCP_MAX_TUPLES`` of them."""
    _require_mbcp_promise(truth)
    members = truth.members
    k = len(oracle.index_ints)
    tuples = len(members) ** 2 * k * k
    if tuples > SD_MBCP_MAX_TUPLES:
        raise InvalidArgumentError(
            f"sd-mbcp enumeration of {tuples} tuples exceeds the cap {SD_MBCP_MAX_TUPLES}"
        )
    images = {
        x: [oracle.apply_int(enc, x) for enc in oracle.index_ints] for x in members
    }
    weight = 1.0 / (len(members) ** 2 * k * k)
    law: dict[tuple, float] = {}
    for a in members:
        for ma in images[a]:
            for b in members:
                for mb in images[b]:
                    key = (a, ma, b, mb)
                    law[key] = law.get(key, 0.0) + weight
    uniform_mass = 1.0 / len(members) ** 4
    total_tuples = len(members) ** 4
    diff = sum(abs(p - uniform_mass) for p in law.values())
    diff += (total_tuples - len(law)) * uniform_mass
    return 0.5 * diff
