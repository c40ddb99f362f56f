"""Verifiers that check a candidate mixer against its ground truth.

These run with privileged access to the partition and enumerate every
member and every index, so each verdict is exact.
"""

from .bits import as_int, to_bits
from .errors import InvalidArgumentError
from .oracle import LabelOracle, MixerIndex, MixerOracle
from .partition import GroundTruthPartition


def tv_distance(p: dict, q: dict) -> float:
    """Total variation distance between two distributions given as dicts."""
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


def instant_mixing_bound(n: int) -> float:
    """The definitional bound on single-application mixing error: 2^-(n+2)."""
    return 2.0 ** (-(n + 2))


def verify_no_cross_mixing(oracle: MixerOracle, truth: GroundTruthPartition) -> bool:
    """True iff no application moves an element out of its component."""
    for x in truth.members:
        cid = truth.component_id(x)
        for enc in oracle.index_ints:
            if truth.component_id(oracle.apply_int(enc, x)) != cid:
                return False
    return True


def verify_instant_mixing(oracle: MixerOracle, truth: GroundTruthPartition) -> float:
    """Max over x of TV(law of M_I(x) for uniform I, uniform on x's component),
    exact by enumeration."""
    k = len(oracle.index_ints)
    worst = 0.0
    for x in truth.members:
        comp = truth.component_elements(truth.component_id(x))
        # integer counts keep the result free of float roundoff
        counts: dict[int, int] = {}
        for enc in oracle.index_ints:
            y = oracle.apply_int(enc, x)
            counts[y] = counts.get(y, 0) + 1
        numerator = sum(
            abs(counts.get(u, 0) * len(comp) - k) for u in comp
        ) + sum(c * len(comp) for u, c in counts.items() if u not in comp)
        worst = max(worst, numerator / (2 * k * len(comp)))
    return worst


def verify_full_connectivity(oracle: MixerOracle, truth: GroundTruthPartition) -> bool:
    """True iff every member reaches exactly its own component in one step.

    ``{M_i(s) : i in Ind}`` restricted to S must equal the component of s;
    this is the pairwise ``full_connectivity_witness`` sweep, one image set
    per member.
    """
    for s in truth.members:
        images = {oracle.apply_int(enc, s) for enc in oracle.index_ints}
        reached = {y for y in images if y in truth}
        if reached != set(truth.component_elements(truth.component_id(s))):
            return False
    return True


def full_connectivity_witness(
    oracle: MixerOracle, truth: GroundTruthPartition, s, t
) -> MixerIndex | None:
    """Brute-force search for an index mapping s to t.

    Returns the first witness in canonical index order (the identity index
    when s == t), or None when no index works.
    """
    si = as_int(s, oracle.n)
    ti = as_int(t, oracle.n)
    if si not in truth or ti not in truth:
        raise InvalidArgumentError("s and t must be members of S")
    for enc in oracle.index_ints:
        if oracle.apply_int(enc, si) == ti:
            return MixerIndex(to_bits(enc, oracle.index_width))
    return None


def is_label_consistent(label: LabelOracle, truth: GroundTruthPartition) -> bool:
    """True iff equal-label classes over S coincide exactly with components."""
    by_label: dict[int, set[int]] = {}
    for x in truth.members:
        by_label.setdefault(label.label_int(x), set()).add(x)
    classes = {frozenset(v) for v in by_label.values()}
    components = {
        frozenset(truth.component_elements(c))
        for c in range(1, truth.num_components + 1)
    }
    return classes == components
