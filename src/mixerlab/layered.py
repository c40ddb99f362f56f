"""Layered 2n-bit instances: embedding an n-bit mixer into a grid.

A 2n-bit string is read as a pair (r, z) of n-bit numbers: r is the row, z
the column. Every variant follows one rule. Base component 1 sits in row 0;
the rest of the base (the other components and the garbage) sits in a
single ``rest_row``, or nowhere. An element is *embedded* when it is (0, z)
with z in S_1, or (rest_row, z) with z outside S_1; the mixer acts on
embedded elements through the base action, and every other element is its
own component. The variants differ only in where the rest goes:

* ``row0``: rest_row = 0, so the whole base problem lives in row 0;
* ``row_j``: rest_row = j;
* ``nowhere``: no rest row; only component 1 is embedded;
* ``grover``: rest_row is the marked point of a point function g (no rest
  row when g is identically zero).

The label gives every embedded element the label of (0, min S_1) and every
other element its own value. It is therefore valid exactly when nothing is
collapsed: there is no rest row, or the base is one component without
garbage.

The grover variant gates its mixer and label by the point function g; the
sessions charge g two queries per metered evaluation
(:meth:`~mixerlab.instances.PointFunction.charge`).

The base mixer is only defined on S, but the row embeddings act on whole
rows; garbage columns are moved by a cyclic shift within the (sorted)
garbage set, keyed by the index's canonical rank. This keeps every variant
cross-mixing-free and fully connected on its garbage component.
"""

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .bits import pair_decode, pair_encode
from .errors import InvalidArgumentError
from .instances import PointFunction
from .oracle import LabelOracle, MixerOracle
from .partition import GroundTruthPartition

VARIANTS = ("row0", "row_j", "nowhere", "grover")

# A layered instance has 4^n members: its ground truth maps every one of them
# and hiding draws two 4^n-entry permutations. Like the base families' caps,
# this allows at most 2^16 members, so a base of at most 8 bits.
LAYERED_MAX_MEMBERS = 1 << 16


def check_layered_members(n: int):
    """Refuse a 2n-bit layered space over :data:`LAYERED_MAX_MEMBERS`
    before anything of that size is built or drawn."""
    members = 1 << (2 * n)
    if members > LAYERED_MAX_MEMBERS:
        raise InvalidArgumentError(
            f"a layered instance over a {n}-bit base has {members} members, "
            f"over the cap {LAYERED_MAX_MEMBERS}"
        )


@dataclass
class LayeredInstance:
    base_oracle: MixerOracle
    base_truth: GroundTruthPartition
    mixer2n: MixerOracle
    label2n: LabelOracle
    build_truth: Callable[[], GroundTruthPartition] = field(repr=False)
    pi: np.ndarray | None = None     # hiding permutation on 2n-bit strings
    sigma: np.ndarray | None = None  # label-scrambling permutation

    @cached_property
    def truth2n(self) -> GroundTruthPartition:
        """The 2n-bit ground truth, built on first read."""
        return self.build_truth()

    @property
    def n(self) -> int:
        return self.base_truth.n

    def start_element(self, s: int) -> int:
        """The start element handed to a counterfeiter: pi((0, s))."""
        x = pair_encode(0, s, self.n)
        return int(self.pi[x]) if self.pi is not None else x


def _base_action(base_oracle: MixerOracle, base_truth: GroundTruthPartition):
    """Row action on all 2^n columns: the base mixer on S, a rank-keyed
    cyclic shift on garbage."""
    garbage = base_truth.garbage
    gpos = {z: p for p, z in enumerate(garbage)}
    rank = {enc: r for r, enc in enumerate(base_oracle.index_ints)}

    def act(enc: int, z: int, sign: int) -> int:
        if base_oracle.is_member(z):
            return (
                base_oracle._apply_fn(enc, z)
                if sign > 0
                else base_oracle._inverse_fn(enc, z)
            )
        shift = sign * rank[enc]
        return garbage[(gpos[z] + shift) % len(garbage)]

    return act


def make_layered_instance(
    base_oracle: MixerOracle,
    base_truth: GroundTruthPartition,
    variant: str,
    j: int | None = None,
    g: PointFunction | None = None,
) -> LayeredInstance:
    """Build the 2n-bit mixer, label, and ground truth for one variant."""
    if variant not in VARIANTS:
        raise InvalidArgumentError(f"unknown variant {variant!r}")
    n = base_truth.n
    dim = 1 << n
    if variant == "row_j":
        if j is None or j == 0:
            raise InvalidArgumentError("row_j requires j != 0")
        if not 0 < j < dim:
            raise InvalidArgumentError(f"row index {j} out of range")
    if variant == "grover":
        if g is None:
            raise InvalidArgumentError("grover variant requires a point function")
        if g.n != n:
            raise InvalidArgumentError("point function width must match base n")

    rest_row = g.y if variant == "grover" else {"row0": 0, "row_j": j}.get(variant)
    act = _base_action(base_oracle, base_truth)
    s1 = base_truth.component_elements(1)
    in_s1 = frozenset(s1)

    def embedded(r: int, z: int) -> bool:
        return (r == 0 and z in in_s1) or (r == rest_row and z not in in_s1)

    def mixer_fn(enc: int, x: int, sign: int) -> int:
        r, z = pair_decode(x, n)
        return pair_encode(r, act(enc, z, sign), n) if embedded(r, z) else x

    # (0, min S_1) is itself embedded, so no singleton shares its value
    embedded_label = pair_encode(0, s1[0], n)

    def label_fn(x: int) -> int:
        return embedded_label if embedded(*pair_decode(x, n)) else x

    point = g if variant == "grover" else None
    mixer2n = MixerOracle(
        n=2 * n,
        index_width=base_oracle.index_width,
        members=range(dim * dim),
        index_ints=base_oracle.index_ints,
        apply_fn=lambda enc, x: mixer_fn(enc, x, +1),
        inverse_fn=lambda enc, x: mixer_fn(enc, x, -1),
        name=f"layered-{variant}({base_oracle.name})",
        point=point,
    )
    whole_base = base_truth.num_components == 1 and not base_truth.garbage
    label2n = LabelOracle(
        width=2 * n,
        label_width=2 * n,
        fn=label_fn,
        valid=rest_row is None or whole_base,
        point=point,
        name=f"label-{variant}",
    )

    def build_truth() -> GroundTruthPartition:
        components = [[pair_encode(0, z, n) for z in s1]]
        if rest_row is not None:
            rest = [
                base_truth.component_elements(a)
                for a in range(2, base_truth.num_components + 1)
            ]
            if base_truth.garbage:
                rest.append(base_truth.garbage)
            components += [[pair_encode(rest_row, z, n) for z in cols] for cols in rest]
        components += [
            [x] for x in range(dim * dim) if not embedded(*pair_decode(x, n))
        ]
        return GroundTruthPartition.from_components(2 * n, components)

    return LayeredInstance(base_oracle, base_truth, mixer2n, label2n, build_truth)


def hide_instance(instance: LayeredInstance, rng) -> LayeredInstance:
    """Conjugate the mixer by a random permutation pi and scramble labels
    with an independent sigma, both stored as explicit tables."""
    if instance.pi is not None:
        raise InvalidArgumentError("instance is already hidden")
    check_layered_members(instance.n)
    d = 1 << (2 * instance.n)
    pi = rng.permutation(d)
    sigma = rng.permutation(d)
    return apply_hiding(instance, pi, sigma)


def apply_hiding(
    instance: LayeredInstance, pi: np.ndarray, sigma: np.ndarray
) -> LayeredInstance:
    """Hide with explicit permutation tables (identity tables leave the
    instance's behavior unchanged)."""
    pi = np.asarray(pi)
    sigma = np.asarray(sigma)
    pi_inv = np.argsort(pi)
    inner_m = instance.mixer2n
    inner_l = instance.label2n

    mixer2n = MixerOracle(
        n=inner_m.n,
        index_width=inner_m.index_width,
        members=inner_m.members,
        index_ints=inner_m.index_ints,
        apply_fn=lambda enc, x: int(pi[inner_m._apply_fn(enc, int(pi_inv[x]))]),
        inverse_fn=lambda enc, x: int(pi[inner_m._inverse_fn(enc, int(pi_inv[x]))]),
        name=f"hidden-{inner_m.name}",
        point=inner_m.point,
    )
    label2n = LabelOracle(
        width=inner_l.width,
        label_width=inner_l.label_width,
        fn=lambda x: int(sigma[inner_l._fn(int(pi_inv[x]))]),
        valid=inner_l._valid,
        point=inner_l.point,
        name=f"hidden-{inner_l.name}",
    )

    def build_truth() -> GroundTruthPartition:
        component_of = {
            int(pi[x]): cid for x, cid in instance.truth2n.component_of.items()
        }
        return GroundTruthPartition(2 * instance.n, component_of)

    return LayeredInstance(
        instance.base_oracle,
        instance.base_truth,
        mixer2n,
        label2n,
        build_truth,
        pi=pi,
        sigma=sigma,
    )
