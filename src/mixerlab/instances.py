"""Concrete mixer families.

Four base families are provided:

* offset mixers: exact synthetic mixers shifting within each component's
  canonical ordering (TV = 0 by construction);
* graph-permutation mixers: graphs on v vertices under vertex permutations,
  components are isomorphism classes;
* coset mixers: Z_N under addition of subgroup elements, components are
  cosets of the generated subgroup;
* Grover-embedding mixers: modular shifts gated by a point function, so that
  distinguishing one component from two requires finding the marked point.

All constructions return oracles whose canonical index order starts with the
identity map.
"""

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .bits import from_bits
from .errors import InvalidArgumentError, MalformedQueryError, check_int
from .oracle import MixerOracle
from .partition import GroundTruthPartition

# make_coset_mixer enumerates every member and index, a grover ground truth
# every member, and make_offset_mixer every offset tuple; the caps allow at
# most 2^16 of each. GROVER_MAX_Q caps the probes a grover-embed tester draws
# up front (2q values per trial).
GROVER_MAX_N = 16
GROVER_MAX_Q = 1 << 16
COSET_MAX_MODULUS = 1 << 16
OFFSET_MAX_INDICES = 1 << 16


def _field_width(size: int) -> int:
    return max(1, (size - 1).bit_length())


def _pack(fields, widths) -> int:
    """Concatenate fixed-width fields into one encoding, the first field in
    the most significant bits."""
    enc = 0
    for value, width in zip(fields, widths):
        enc = (enc << width) | value
    return enc


def _orbit_partition(n: int, elements, orbit) -> GroundTruthPartition:
    """The partition of ``elements`` (ascending) into the orbits ``orbit(x)``
    yields, numbered in order of their least element."""
    component_of: dict[int, int] = {}
    count = 0
    for x in elements:
        if x not in component_of:
            count += 1
            component_of.update(dict.fromkeys(orbit(x), count))
    return GroundTruthPartition(n, component_of)


# ---------------------------------------------------------------------------
# Offset mixers
# ---------------------------------------------------------------------------

def make_offset_mixer(truth: GroundTruthPartition) -> MixerOracle:
    """Exact mixer: index = one offset per component, applied cyclically.

    Ind is the set of tuples (k_1, ..., k_c) with k_a < |S_a|, encoded as
    concatenated fixed-width fields in product order. Uniform offsets give
    exactly uniform outputs within each component. At most
    :data:`OFFSET_MAX_INDICES` tuples, checked before any is enumerated.
    """
    c = truth.num_components
    comps = [truth.component_elements(a) for a in range(1, c + 1)]
    sizes = [len(comp) for comp in comps]
    count = math.prod(sizes)
    if count > OFFSET_MAX_INDICES:
        raise InvalidArgumentError(
            f"offset mixer of {count} indices exceeds the cap {OFFSET_MAX_INDICES}"
        )
    widths = [_field_width(size) for size in sizes]
    pos = {x: (a, p) for a, comp in enumerate(comps) for p, x in enumerate(comp)}
    offsets = {
        _pack(ks, widths): ks for ks in itertools.product(*(range(s) for s in sizes))
    }

    def apply_fn(enc: int, x: int) -> int:
        a, p = pos[x]
        return comps[a][(p + offsets[enc][a]) % sizes[a]]

    def inverse_fn(enc: int, x: int) -> int:
        a, p = pos[x]
        return comps[a][(p - offsets[enc][a]) % sizes[a]]

    return MixerOracle(
        n=truth.n,
        index_width=sum(widths),
        members=truth.members,
        index_ints=offsets,
        apply_fn=apply_fn,
        inverse_fn=inverse_fn,
        name="offset",
    )


# ---------------------------------------------------------------------------
# Graph-permutation mixers
# ---------------------------------------------------------------------------

@functools.cache
def _edge_tables(v: int) -> tuple[tuple[tuple[int, int], ...], dict[tuple[int, int], int]]:
    """The edge pairs (u, w), u < w, in bit order, and each pair's position."""
    pairs = tuple((u, w) for u in range(v) for w in range(u + 1, v))
    return pairs, {pq: k for k, pq in enumerate(pairs)}


def graph_apply_permutation(perm: tuple[int, ...], x: int, v: int) -> int:
    """Relabel the vertices of the edge-indicator graph ``x`` by ``perm``."""
    pairs, idx = _edge_tables(v)
    n = len(pairs)
    out = 0
    for k, (u, w) in enumerate(pairs):
        if (x >> (n - 1 - k)) & 1:
            a, b = perm[u], perm[w]
            if a > b:
                a, b = b, a
            k2 = idx[(a, b)]
            out |= 1 << (n - 1 - k2)
    return out


def make_graph_iso_mixer(v: int) -> tuple[MixerOracle, GroundTruthPartition]:
    """Graphs on v vertices under vertex permutations.

    S is every n-bit edge-indicator string (upper-triangular adjacency bits
    in row-major order), Ind is the full symmetric group, and components are
    isomorphism classes found by orbit enumeration. Each orbit element is hit
    |Aut(G)| times, so a uniform permutation mixes exactly (TV = 0).
    """
    if v < 2 or v > 5:
        raise InvalidArgumentError("vertex count must be between 2 and 5")
    n = v * (v - 1) // 2
    widths = [_field_width(v)] * v
    perms = sorted(itertools.permutations(range(v)))
    # each index encoding (the images of 0..v-1) resolved once
    perm_of = {_pack(p, widths): p for p in perms}
    inverse_of = {enc: tuple(p.index(u) for u in range(v)) for enc, p in perm_of.items()}

    def apply_fn(enc: int, x: int) -> int:
        return graph_apply_permutation(perm_of[enc], x, v)

    def inverse_fn(enc: int, x: int) -> int:
        return graph_apply_permutation(inverse_of[enc], x, v)

    truth = _orbit_partition(
        n, range(1 << n), lambda x: {graph_apply_permutation(p, x, v) for p in perms}
    )
    oracle = MixerOracle(
        n=n,
        index_width=sum(widths),
        members=range(1 << n),
        index_ints=perm_of,
        apply_fn=apply_fn,
        inverse_fn=inverse_fn,
        name=f"graphiso-v{v}",
    )
    return oracle, truth


# ---------------------------------------------------------------------------
# Coset mixers
# ---------------------------------------------------------------------------

def subgroup_closure(modulus: int, generators) -> tuple[int, ...]:
    """Closure of the generators under addition mod ``modulus``."""
    h = {0}
    frontier = [0]
    gens = [g % modulus for g in generators]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = (x + g) % modulus
            if y not in h:
                h.add(y)
                frontier.append(y)
    return tuple(sorted(h))


def make_coset_mixer(
    modulus: int, generators
) -> tuple[MixerOracle, GroundTruthPartition]:
    """Z_N under addition by elements of the subgroup H = <generators>.

    Components are the cosets of H; indices are the elements of H themselves,
    encoded in n bits. An empty generator set gives H = {0} and every element
    its own component. ``modulus`` runs from 1 to :data:`COSET_MAX_MODULUS`.
    """
    check_int(modulus, "coset modulus", 1, COSET_MAX_MODULUS)
    n = _field_width(modulus)
    h = subgroup_closure(modulus, generators)
    truth = _orbit_partition(n, range(modulus), lambda x: ((x + e) % modulus for e in h))

    def apply_fn(enc: int, x: int) -> int:
        return (x + enc) % modulus

    def inverse_fn(enc: int, x: int) -> int:
        return (x - enc) % modulus

    oracle = MixerOracle(
        n=n,
        index_width=n,
        members=range(modulus),
        index_ints=h,
        apply_fn=apply_fn,
        inverse_fn=inverse_fn,
        name=f"coset-N{modulus}",
    )
    return oracle, truth


# ---------------------------------------------------------------------------
# Grover-embedding mixers
# ---------------------------------------------------------------------------

@dataclass
class PointFunction:
    """A Boolean function that is 1 on at most one input, with a query meter."""

    n: int
    y: int | None = None
    queries: int = field(default=0)

    def __post_init__(self):
        if self.y is not None and not 0 <= self.y < 1 << self.n:
            raise InvalidArgumentError(
                f"point {self.y} out of range for a {self.n}-bit point function"
            )

    def charge(self, evaluations: int = 1):
        """Charge two g queries for each of ``evaluations`` metered
        evaluations of a map gated by g. Two is the price of one coherent
        evaluation: the gated shift reads g at x and at x + i, and a layered
        row test computes g(r) into an ancilla and uncomputes it. A classical
        layered evaluation needs only one, but sessions charge all alike."""
        self.queries += 2 * evaluations


def make_grover_mixer(n: int, g: PointFunction) -> MixerOracle:
    """Modular-shift mixer gated by a point function.

    M_i(x) = (x + i) mod 2^n when g(x) = g(x + i) = 0, else x. With g all
    zeros this is a single exactly-mixing component; with a marked point y,
    {y} is its own component. Each application costs two queries to g.

    Note the case formula is only approximately invertible near the marked
    point; round-trip identities hold exactly only for g all zeros.
    """
    check_int(n, "grover n", 1, GROVER_MAX_N)
    dim = 1 << n

    # g(r) = 1 iff r == g.y; y is None (never equal) when g is all zeros
    def apply_fn(enc: int, x: int) -> int:
        y, shifted = g.y, (x + enc) % dim
        return x if y == x or y == shifted else shifted

    def inverse_fn(enc: int, x: int) -> int:
        y, shifted = g.y, (x - enc) % dim
        return x if y == x or y == shifted else shifted

    return MixerOracle(
        n=n,
        index_width=n,
        members=range(dim),
        index_ints=range(dim),
        apply_fn=apply_fn,
        inverse_fn=inverse_fn,
        name=f"grover-n{n}",
        point=g,
    )


def make_grover_partition(n: int, y: int | None) -> GroundTruthPartition:
    """Ground truth for the Grover mixer: one component, or all-but-y + {y}."""
    dim = 1 << n
    if y is None:
        return GroundTruthPartition(n, {x: 1 for x in range(dim)})
    component_of = {x: 1 for x in range(dim) if x != y}
    component_of[y] = 2
    return GroundTruthPartition(n, component_of)


# ---------------------------------------------------------------------------
# Config loading
# ---------------------------------------------------------------------------

@dataclass
class InstanceBundle:
    """A constructed instance: oracle, ground truth, and optional extras."""

    oracle: MixerOracle
    truth: GroundTruthPartition
    point: PointFunction | None = None
    layered: object | None = None  # LayeredInstance when family == "layered"


def instance_from_config(spec: dict) -> InstanceBundle:
    """Build an instance from a JSON-style spec.

    Families: offset (explicit partition), graphiso (v), coset (modulus,
    generators), grover (n, point), layered (base spec + variant + hide).
    Construction is deterministic given the spec's seed.
    """
    if not isinstance(spec, dict):
        raise InvalidArgumentError(f"an instance spec must be a JSON object, got {spec!r}")
    spec = dict(spec)
    family = spec.pop("family", None)
    seed = check_int(spec.pop("seed", 0), "instance seed", 0)
    if family == "offset":
        truth = GroundTruthPartition.from_json_dict(_take(spec, "partition", family))
        _reject_unknown(spec, "offset")
        return InstanceBundle(make_offset_mixer(truth), truth)
    if family == "graphiso":
        v = _take_int(spec, "v", family)
        _reject_unknown(spec, "graphiso")
        oracle, truth = make_graph_iso_mixer(v)
        return InstanceBundle(oracle, truth)
    if family == "coset":
        modulus = _take_int(spec, "modulus", family)
        generators = _take(spec, "generators", family)
        if not isinstance(generators, list):
            raise InvalidArgumentError(
                f"family coset field 'generators' must be a list, got {generators!r}"
            )
        generators = [check_int(g, "family coset generator") for g in generators]
        _reject_unknown(spec, "coset")
        oracle, truth = make_coset_mixer(modulus, generators)
        return InstanceBundle(oracle, truth)
    if family == "grover":
        n = _take_int(spec, "n", family)
        g = _point_function(n, spec.pop("point", None))
        _reject_unknown(spec, "grover")
        return InstanceBundle(make_grover_mixer(n, g), make_grover_partition(n, g.y), point=g)
    if family == "layered":
        from .layered import check_layered_members, hide_instance, make_layered_instance

        base = instance_from_config(_take(spec, "base", family))
        variant = _take(spec, "variant", family)
        j = spec.pop("j", None)
        point = spec.pop("point", None)
        hide = spec.pop("hide", False)
        if not isinstance(hide, bool):
            raise InvalidArgumentError(
                f"family layered field 'hide' must be true or false, got {hide!r}"
            )
        _reject_unknown(spec, "layered")
        check_layered_members(base.truth.n)
        g = _point_function(base.truth.n, point) if variant == "grover" else None
        inst = make_layered_instance(
            base.oracle, base.truth, variant,
            j=None if j is None else check_int(j, "family layered field 'j'"), g=g,
        )
        if hide:
            inst = hide_instance(inst, np.random.default_rng([seed, 0x91D]))
        return InstanceBundle(inst.mixer2n, inst.truth2n, point=g, layered=inst)
    raise InvalidArgumentError(f"unknown instance family: {family!r}")


def _point_function(n: int, point) -> PointFunction:
    """A point function from a config's ``point``: absent, a bit string, or
    an integer."""
    if point is None:
        return PointFunction(n)
    if isinstance(point, str):
        try:
            point = from_bits(point)
        except MalformedQueryError as exc:
            raise InvalidArgumentError(f"field 'point': {exc}") from None
    return PointFunction(n, check_int(point, "field 'point'"))


def _take(spec: dict, key: str, family: str):
    """Remove and return a required field of an instance spec."""
    if key not in spec:
        raise InvalidArgumentError(f"family {family} needs field {key!r}")
    return spec.pop(key)


def _take_int(spec: dict, key: str, family: str) -> int:
    """:func:`_take` for a field that takes an integer."""
    return check_int(_take(spec, key, family), f"family {family} field {key!r}")


def _reject_unknown(leftover: dict, family: str):
    if leftover:
        raise InvalidArgumentError(
            f"unknown fields for family {family}: {sorted(leftover)}"
        )
