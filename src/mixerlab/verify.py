"""Verifiers that check a candidate mixer against its ground truth.

These run with privileged access to the partition and enumerate every
member and every index, so each verdict is exact. The three definitional
checks (no cross-mixing, instant mixing, full connectivity) share one sweep,
:func:`sweep_mixer`, that evaluates each image M_i(x) once, in blocks of
members holding at most ``SWEEP_BLOCK_CAP`` images each, and derives every
verdict from integer arrays; the three ``verify_*`` functions are views of it.
"""

from dataclasses import dataclass

import numpy as np

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


# the most (member, index) images one block of the sweep holds, so a block has
# at most SWEEP_BLOCK_CAP // |Ind| members and never fewer than one
SWEEP_BLOCK_CAP = 1 << 16


@dataclass(frozen=True)
class MixerSweep:
    """What one pass over every (member, index) image found.

    Each verdict raises where the per-pair loop over members in order, and
    over ``index_ints`` within a member, would: on a member the oracle does
    not hold unless an earlier member already settled the verdict, and, for
    no cross-mixing, on an image outside S met before any image in another
    component. The worst member's TV is kept as its exact integer fraction.
    """

    missing: int | None   # first member of S the oracle does not hold
    escape: int | None    # first image outside its member's component
    escape_in_s: bool
    disconnected: bool    # a member before ``missing`` reaches other than its component
    tv_numerator: int
    tv_denominator: int

    def _check_missing(self):
        if self.missing is not None:
            raise InvalidArgumentError(f"{self.missing} is not a member of S")

    def no_cross_mixing(self) -> bool:
        if self.escape is not None:
            if not self.escape_in_s:
                raise InvalidArgumentError(f"{self.escape} is not a member of S")
            return False
        self._check_missing()
        return True

    def instant_mixing_tv(self) -> float:
        self._check_missing()
        return self.tv_numerator / self.tv_denominator

    def full_connectivity(self) -> bool:
        if self.disconnected:
            return False
        self._check_missing()
        return True


def sweep_mixer(oracle: MixerOracle, truth: GroundTruthPartition) -> MixerSweep:
    """Evaluate M_i(x) once for every member x of S and index i, and derive
    all three verdicts from the images.

    Members go in blocks of at most ``SWEEP_BLOCK_CAP`` images (one row per
    member), located in S by a sorted search. Per row: the first image whose
    component differs from the member's; the sorted hits in the member's own
    component, whose run lengths are the exact integer image counts behind
    the TV numerator; and whether every in-S image is an own hit and every
    member of the component is hit.
    """
    members = np.array(truth.members, dtype=np.int64)
    cids = np.array([truth.component_of[x] for x in truth.members], dtype=np.int64)
    sizes = np.bincount(cids)
    m = members.size
    encs = oracle.index_ints
    k = len(encs)
    fn = oracle._apply_fn
    held = oracle._member_set
    # a member the oracle does not hold is only met through an application
    stop = next((p for p, x in enumerate(truth.members) if k and x not in held), m)
    block = max(1, SWEEP_BLOCK_CAP // max(k, 1))
    escape, escape_in_s, disconnected = None, False, False
    # the worst TV so far, as num / den; with no indices den stays 0, and
    # instant_mixing_tv() raises ZeroDivisionError
    num, den = 0, 2 * k * int(sizes[cids[0]])
    for lo in range(0, stop, block):
        hi = min(lo + block, stop)
        xs = truth.members[lo:hi]
        rows = len(xs)
        images = np.fromiter(
            (fn(enc, x) for x in xs for enc in encs), dtype=np.int64, count=rows * k
        ).reshape(rows, k)
        pos = np.minimum(np.searchsorted(members, images), m - 1)
        in_s = members[pos] == images
        row_cid = cids[lo:hi]
        out = np.flatnonzero(np.where(in_s, cids[pos], 0) != row_cid[:, None])
        if escape is None and out.size:
            r, c = divmod(int(out[0]), k)
            escape, escape_in_s = int(images[r, c]), bool(in_s[r, c])
        own = in_s & (cids[pos] == row_cid[:, None])
        # each row's own hits sorted by position in S, m for any other image,
        # offset by row * (m + 1) so that no run of equal keys spans two rows
        keys = (np.sort(np.where(own, pos, m), axis=1)
                + np.arange(rows)[:, None] * (m + 1)).ravel()
        starts = np.flatnonzero(np.diff(keys, prepend=-1))
        counts = np.diff(starts, append=keys.size)
        row_of, key = np.divmod(keys[starts], m + 1)
        hit = key < m
        row_of, counts = row_of[hit], counts[hit]
        size = sizes[row_cid]
        reached = np.bincount(row_of, minlength=rows)
        spread = np.zeros(rows, dtype=np.int64)
        np.add.at(spread, row_of, np.abs(counts * size[row_of] - k))
        # sum over the component of |c_u |C| - k| (k for each member not hit),
        # plus |C| for each image that left it: the TV of the member's law is
        # this over 2k|C|
        numerators = (size - reached) * k + spread + (k - own.sum(axis=1)) * size
        for a, b in zip(numerators.tolist(), (2 * k * size).tolist()):
            if a * den > num * b:  # a / b > num / den, compared exactly
                num, den = a, b
        disconnected = disconnected or bool(np.any(in_s & ~own) or np.any(reached != size))
    return MixerSweep(
        missing=None if stop == m else truth.members[stop],
        escape=escape,
        escape_in_s=escape_in_s,
        disconnected=disconnected,
        tv_numerator=num,
        tv_denominator=den,
    )


def verify_no_cross_mixing(oracle: MixerOracle, truth: GroundTruthPartition) -> bool:
    """True iff no application moves an element out of its component."""
    return sweep_mixer(oracle, truth).no_cross_mixing()


def verify_instant_mixing(oracle: MixerOracle, truth: GroundTruthPartition) -> float:
    """Max over x of TV(law of M_I(x) for uniform I, uniform on x's component),
    exact by enumeration."""
    return sweep_mixer(oracle, truth).instant_mixing_tv()


def verify_full_connectivity(oracle: MixerOracle, truth: GroundTruthPartition) -> bool:
    """True iff every member reaches exactly its own component in one step:
    ``{M_i(s) : i in Ind}`` restricted to S equals the component of s."""
    return sweep_mixer(oracle, truth).full_connectivity()


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
