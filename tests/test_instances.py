import itertools

import pytest

from mixerlab import (
    GroundTruthPartition,
    PointFunction,
    instance_from_config,
    make_coset_mixer,
    make_graph_iso_mixer,
    make_grover_mixer,
    make_grover_partition,
    make_offset_mixer,
    verify_instant_mixing,
    verify_no_cross_mixing,
)
from hypothesis import given, settings

from mixerlab.errors import InvalidArgumentError
from mixerlab.instances import (
    COSET_MAX_MODULUS,
    OFFSET_MAX_INDICES,
    graph_apply_permutation,
    subgroup_closure,
)
from test_verify import partitions


def test_offset_mixer_index_count():
    truth = GroundTruthPartition.from_components(3, [[0, 1, 2], [3, 4]])
    oracle = make_offset_mixer(truth)
    assert len(oracle.index_ints) == 6  # 3 * 2 offset tuples
    assert verify_no_cross_mixing(oracle, truth)
    assert verify_instant_mixing(oracle, truth) == 0.0


def test_an_offset_mixer_at_the_index_cap_builds():
    # 16 pairs at n = 5: exactly 2^16 offset tuples (one pair more is refused,
    # see test_cli)
    at_cap = GroundTruthPartition.from_components(5, [[x, x + 1] for x in range(0, 32, 2)])
    assert len(make_offset_mixer(at_cap).index_ints) == OFFSET_MAX_INDICES == 1 << 16


def test_graph_permutation_action():
    # swapping the first two vertices of a 3-vertex graph swaps edges 02 / 12
    assert graph_apply_permutation((1, 0, 2), 0b100, 3) == 0b100
    assert graph_apply_permutation((1, 0, 2), 0b010, 3) == 0b001


def reference_graph_permutation(perm, x, v):
    """The relabelling with its edge list and edge-index map built per call."""
    pairs = [(u, w) for u in range(v) for w in range(u + 1, v)]
    n = len(pairs)
    idx = {pq: k for k, pq in enumerate(pairs)}
    out = 0
    for k, (u, w) in enumerate(pairs):
        if (x >> (n - 1 - k)) & 1:
            a, b = sorted((perm[u], perm[w]))
            out |= 1 << (n - 1 - idx[(a, b)])
    return out


@pytest.mark.parametrize("v", [2, 3, 4])
def test_cached_edge_tables_match_a_per_call_construction(v):
    n = v * (v - 1) // 2
    perms = list(itertools.permutations(range(v)))
    for perm in perms:
        for x in range(1 << n):
            assert graph_apply_permutation(perm, x, v) == reference_graph_permutation(perm, x, v)
    # the orbits, found with the per-call construction and numbered in order
    # of their least element, are the components
    component_of = {}
    for x in range(1 << n):
        if x not in component_of:
            cid = len(set(component_of.values())) + 1
            component_of.update((reference_graph_permutation(p, x, v), cid) for p in perms)
    _, truth = make_graph_iso_mixer(v)
    assert truth.component_of == component_of


def test_graph_orbit_sizes_three_vertices():
    oracle, truth = make_graph_iso_mixer(3)
    assert truth.n == 3
    assert sorted(truth.component_sizes()) == [1, 1, 3, 3]
    assert len(oracle.index_ints) == 6  # |S_3|
    assert verify_instant_mixing(oracle, truth) == 0.0


def test_graph_orbit_sizes_four_vertices():
    oracle, truth = make_graph_iso_mixer(4)
    assert truth.n == 6
    # 11 isomorphism classes of 4-vertex graphs
    assert truth.num_components == 11
    assert sum(truth.component_sizes()) == 64


def test_subgroup_closure():
    assert subgroup_closure(8, [2]) == (0, 2, 4, 6)
    assert subgroup_closure(6, [4]) == (0, 2, 4)
    assert subgroup_closure(5, [2]) == (0, 1, 2, 3, 4)


def test_coset_mixer_components_are_cosets():
    oracle, truth = make_coset_mixer(8, [2])
    assert truth.num_components == 2
    assert truth.component_elements(1) == (0, 2, 4, 6)
    assert truth.component_elements(2) == (1, 3, 5, 7)
    assert verify_no_cross_mixing(oracle, truth)
    assert verify_instant_mixing(oracle, truth) == 0.0


def test_gated_shift_mixer_case_analysis():
    # n = 2, marked point 11: shifts act only when both endpoints are unmarked
    g = PointFunction(2, 0b11)
    oracle = make_grover_mixer(2, g)
    session = oracle.session()
    assert session.apply("01", "00") == "01"
    assert session.apply("01", "10") == "10"  # 10 + 01 hits the marked point
    assert session.apply_inverse("01", "01") == "00"
    assert session.apply("01", "11") == "11"  # marked points never move


def test_gated_shift_mixer_unmarked_is_plain_shift():
    g = PointFunction(3, None)
    oracle = make_grover_mixer(3, g)
    truth = make_grover_partition(3, None)
    assert truth.num_components == 1
    session = oracle.session()
    for i in range(8):
        for x in range(8):
            assert session.apply(i, x) == (x + i) % 8
    assert verify_instant_mixing(oracle, truth) == 0.0


def test_gated_shift_query_cost_is_two_per_application():
    g = PointFunction(3, 5)
    oracle = make_grover_mixer(3, g)
    session = oracle.session()
    session.apply(1, 0)
    assert g.queries == 2
    session.apply_inverse(1, 1)
    assert g.queries == 4
    # privileged evaluation does not touch the counter
    oracle.apply_int(1, 0)
    assert g.queries == 4


def reference_gated_shift(n, g):
    """The gated shift's maps written with one point evaluation per read of
    g, as a metered g would answer them."""
    dim = 1 << n

    def peek(r):
        return 1 if g.y is not None and r == g.y else 0

    def apply_fn(enc, x):
        if peek(x) == 0 and peek((x + enc) % dim) == 0:
            return (x + enc) % dim
        return x

    def inverse_fn(enc, x):
        if peek(x) == 0 and peek((x - enc) % dim) == 0:
            return (x - enc) % dim
        return x

    return apply_fn, inverse_fn


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_gated_shift_matches_the_point_evaluation_closures(n):
    dim = 1 << n
    pairs = [(enc, x) for enc in range(dim) for x in range(dim)]
    for y in [None, *range(dim)]:
        g = PointFunction(n, y)
        oracle = make_grover_mixer(n, g)
        for fn, ref in zip((oracle._apply_fn, oracle._inverse_fn), reference_gated_shift(n, g)):
            assert [fn(enc, x) for enc, x in pairs] == [ref(enc, x) for enc, x in pairs], y
    assert g.queries == 0  # the maps themselves charge nothing


def test_marked_partition_isolates_the_point():
    truth = make_grover_partition(2, 0b11)
    assert truth.num_components == 2
    assert truth.component_elements(2) == (3,)


def test_instance_from_config_families():
    truth = GroundTruthPartition.from_components(2, [[0, 1], [2, 3]])
    bundle = instance_from_config({"family": "offset", "partition": truth.to_json_dict()})
    assert bundle.truth.num_components == 2
    bundle = instance_from_config({"family": "coset", "modulus": 6, "generators": [2]})
    assert bundle.truth.num_components == 2
    bundle = instance_from_config({"family": "grover", "n": 2, "point": "11"})
    assert bundle.point is not None and bundle.point.y == 3
    layered = instance_from_config(
        {
            "family": "layered",
            "base": {"family": "offset", "partition": truth.to_json_dict()},
            "variant": "row_j",
            "j": 1,
            "hide": True,
            "seed": 7,
        }
    )
    assert layered.layered is not None
    assert layered.layered.pi is not None


@pytest.mark.parametrize("n", [-1, 0, 17])
def test_grover_mixer_n_is_capped_before_building(n):
    with pytest.raises(InvalidArgumentError, match=f"grover n must be between 1 and 16, got {n}"):
        make_grover_mixer(n, PointFunction(n))


def test_point_out_of_range_is_rejected():
    with pytest.raises(InvalidArgumentError, match="point 9 out of range"):
        PointFunction(2, 9)
    with pytest.raises(InvalidArgumentError, match="point -1 out of range"):
        PointFunction(2, -1)


def test_instance_from_config_rejects_unknown_fields():
    with pytest.raises(InvalidArgumentError):
        instance_from_config({"family": "coset", "modulus": 6, "generators": [2], "x": 1})
    with pytest.raises(InvalidArgumentError):
        instance_from_config({"family": "nope"})


# -- reference families: each index decoded on every call ---------------------

def _width(size):
    return max(1, (size - 1).bit_length())


def reference_offset(truth):
    """The offset family's index list and maps, decoding each index per call."""
    comps = [truth.component_elements(a) for a in range(1, truth.num_components + 1)]
    sizes = [len(comp) for comp in comps]
    widths = [_width(size) for size in sizes]
    pos = {x: (a, p) for a, comp in enumerate(comps) for p, x in enumerate(comp)}

    def encode(ks):
        enc = 0
        for k, w in zip(ks, widths):
            enc = (enc << w) | k
        return enc

    def decode(enc):
        ks = []
        for w in reversed(widths):
            ks.append(enc & ((1 << w) - 1))
            enc >>= w
        return tuple(reversed(ks))

    def apply_fn(enc, x):
        a, p = pos[x]
        return comps[a][(p + decode(enc)[a]) % sizes[a]]

    def inverse_fn(enc, x):
        a, p = pos[x]
        return comps[a][(p - decode(enc)[a]) % sizes[a]]

    index_ints = [encode(ks) for ks in itertools.product(*(range(s) for s in sizes))]
    return index_ints, apply_fn, inverse_fn


def reference_graph_iso(v):
    """The graph-iso family's index list, maps and orbit partition, decoding
    and validating each index per call."""
    n = v * (v - 1) // 2
    w = _width(v)
    perms = sorted(itertools.permutations(range(v)))

    def encode(perm):
        enc = 0
        for image in perm:
            enc = (enc << w) | image
        return enc

    def decode(enc):
        fields = []
        for _ in range(v):
            fields.append(enc & ((1 << w) - 1))
            enc >>= w
        perm = tuple(reversed(fields))
        return perm if sorted(perm) == list(range(v)) else None

    def apply_fn(enc, x):
        return graph_apply_permutation(decode(enc), x, v)

    def inverse_fn(enc, x):
        perm = decode(enc)
        return graph_apply_permutation(tuple(perm.index(u) for u in range(v)), x, v)

    component_of = {}
    next_id = 1
    for x in range(1 << n):
        if x in component_of:
            continue
        for y in sorted({graph_apply_permutation(p, x, v) for p in perms}):
            component_of[y] = next_id
        next_id += 1
    return [encode(p) for p in perms], apply_fn, inverse_fn, component_of


def reference_coset_components(modulus, generators):
    """The coset family's orbit partition, one coset of H at a time."""
    hset = set(subgroup_closure(modulus, generators))
    component_of = {}
    next_id = 1
    for x in range(modulus):
        if x in component_of:
            continue
        for e in hset:
            component_of[(x + e) % modulus] = next_id
        next_id += 1
    return component_of


def assert_same_maps(oracle, index_ints, apply_fn, inverse_fn):
    assert oracle.index_ints == tuple(index_ints)
    for enc in index_ints:
        for x in oracle.members:
            assert oracle.apply_int(enc, x) == apply_fn(enc, x)
            assert oracle.inverse_int(enc, x) == inverse_fn(enc, x)


@settings(max_examples=60, deadline=None)
@given(truth=partitions())
def test_offset_lookup_matches_per_call_decoding(truth):
    assert_same_maps(make_offset_mixer(truth), *reference_offset(truth))


@pytest.mark.parametrize("v", [2, 3, 4, 5])
def test_graph_iso_lookup_matches_per_call_decoding(v):
    index_ints, apply_fn, inverse_fn, component_of = reference_graph_iso(v)
    oracle, truth = make_graph_iso_mixer(v)
    assert_same_maps(oracle, index_ints, apply_fn, inverse_fn)
    assert truth.component_of == component_of


@pytest.mark.parametrize(
    "modulus, generators",
    [(1, []), (1, [3]), (8, []), (8, [2]), (6, [4]), (12, [8, 3]), (16, [-6]), (260, [4, 10])],
)
def test_coset_orbits_match_the_per_coset_loop(modulus, generators):
    oracle, truth = make_coset_mixer(modulus, generators)
    assert_same_maps(
        oracle, subgroup_closure(modulus, generators),
        lambda enc, x: (x + enc) % modulus, lambda enc, x: (x - enc) % modulus,
    )
    assert truth.component_of == reference_coset_components(modulus, generators)


@pytest.mark.parametrize("modulus", [0, -4, COSET_MAX_MODULUS + 1])
def test_coset_modulus_is_capped_before_building(modulus):
    message = f"coset modulus must be between 1 and {COSET_MAX_MODULUS}, got {modulus}"
    with pytest.raises(InvalidArgumentError, match=message):
        make_coset_mixer(modulus, [1])
