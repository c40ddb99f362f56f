import itertools

import numpy as np
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
from mixerlab.errors import InvalidArgumentError
from mixerlab.instances import graph_apply_permutation, subgroup_closure


def test_offset_mixer_index_count():
    truth = GroundTruthPartition.from_components(3, [[0, 1, 2], [3, 4]])
    oracle = make_offset_mixer(truth)
    assert len(oracle.index_ints) == 6  # 3 * 2 offset tuples
    assert verify_no_cross_mixing(oracle, truth)
    assert verify_instant_mixing(oracle, truth) == 0.0


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
