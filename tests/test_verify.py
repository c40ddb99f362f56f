from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mixerlab import (
    GroundTruthPartition,
    MixerOracle,
    PointFunction,
    full_connectivity_witness,
    make_coset_mixer,
    make_graph_iso_mixer,
    make_grover_mixer,
    make_grover_partition,
    make_offset_mixer,
    verify_full_connectivity,
    verify_instant_mixing,
    verify_no_cross_mixing,
)
from mixerlab import verify
from mixerlab.verify import sweep_mixer
from mixerlab.errors import InvalidArgumentError
from mixerlab.layered import hide_instance, make_layered_instance


# -- the per-pair loops the sweep replaced, kept as its reference -------------

def reference_no_cross_mixing(oracle, truth) -> bool:
    for x in truth.members:
        cid = truth.component_id(x)
        for enc in oracle.index_ints:
            if truth.component_id(oracle.apply_int(enc, x)) != cid:
                return False
    return True


def reference_instant_mixing(oracle, truth) -> float:
    k = len(oracle.index_ints)
    worst = 0.0
    for x in truth.members:
        comp = truth.component_elements(truth.component_id(x))
        counts: dict[int, int] = {}
        for enc in oracle.index_ints:
            y = oracle.apply_int(enc, x)
            counts[y] = counts.get(y, 0) + 1
        numerator = sum(
            abs(counts.get(u, 0) * len(comp) - k) for u in comp
        ) + sum(c * len(comp) for u, c in counts.items() if u not in comp)
        worst = max(worst, numerator / (2 * k * len(comp)))
    return worst


def reference_full_connectivity(oracle, truth) -> bool:
    for s in truth.members:
        images = {oracle.apply_int(enc, s) for enc in oracle.index_ints}
        reached = {y for y in images if y in truth}
        if reached != set(truth.component_elements(truth.component_id(s))):
            return False
    return True


PAIRS = (
    (verify_no_cross_mixing, reference_no_cross_mixing),
    (verify_instant_mixing, reference_instant_mixing),
    (verify_full_connectivity, reference_full_connectivity),
)


def outcome(verifier, oracle, truth):
    """The verdict's repr, or the type and message of what it raised."""
    try:
        return repr(verifier(oracle, truth))
    except (InvalidArgumentError, ZeroDivisionError) as exc:
        return type(exc).__name__, str(exc)


def assert_matches_reference(oracle, truth, rows_per_block=None):
    """Every public verifier gives its reference's verdict or error, with the
    sweep in blocks of ``rows_per_block`` members when given."""
    cap = verify.SWEEP_BLOCK_CAP
    if rows_per_block is not None:
        cap = rows_per_block * max(len(oracle.index_ints), 1)
    with mock.patch.object(verify, "SWEEP_BLOCK_CAP", cap):
        for verifier, reference in PAIRS:
            assert outcome(verifier, oracle, truth) == outcome(reference, oracle, truth)


def pairwise_connectivity(oracle, truth) -> bool:
    """The reference sweep: a witness exists for (s, t) iff they share a component."""
    return all(
        truth.same_component(s, t)
        == (full_connectivity_witness(oracle, truth, s, t) is not None)
        for s in truth.members
        for t in truth.members
    )


def restricted(oracle, index_ints) -> MixerOracle:
    """The same maps, offered under a smaller index set."""
    return MixerOracle(
        oracle.n, oracle.index_width, oracle.members, index_ints,
        oracle.apply_int, oracle.inverse_int,
    )


@st.composite
def partitions(draw, max_n=3):
    """A partition of a nonempty subset of n-bit strings, n <= max_n; label 0
    marks garbage."""
    n = draw(st.integers(1, max_n))
    labels = draw(st.lists(st.integers(0, 3), min_size=1 << n, max_size=1 << n))
    if not any(labels):
        labels[draw(st.integers(0, (1 << n) - 1))] = 1
    comps: dict[int, list[int]] = {}
    for x, lab in enumerate(labels):
        if lab:
            comps.setdefault(lab, []).append(x)
    return GroundTruthPartition.from_components(n, comps.values())


def sub_index_sets(oracle):
    """The identity index plus any subset of the others, in any order."""
    rest = oracle.index_ints[1:]
    if not rest:
        return st.just([oracle.index_ints[0]])
    return st.lists(st.sampled_from(rest), unique=True).map(
        lambda keep: [oracle.index_ints[0], *keep]
    )


block_rows = st.one_of(st.none(), st.integers(1, 5))


# -- differential tests: sweep against the per-pair loops ----------------------

@settings(max_examples=60, deadline=None)
@given(truth=partitions(), data=st.data(), rows=block_rows)
def test_offset_mixers_and_index_subsets_match_reference(truth, data, rows):
    oracle = make_offset_mixer(truth)
    assert_matches_reference(oracle, truth, rows)
    partial = restricted(oracle, data.draw(sub_index_sets(oracle)))
    assert_matches_reference(partial, truth, rows)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 4), data=st.data(), rows=block_rows,
)
def test_grover_mixers_match_reference(n, data, rows):
    points = st.one_of(st.none(), st.integers(0, (1 << n) - 1))
    oracle = make_grover_mixer(n, PointFunction(n, data.draw(points)))
    # the truth's marked point need not be the mixer's: then S_1 leaks
    truth = make_grover_partition(n, data.draw(points))
    assert_matches_reference(oracle, truth, rows)
    assert_matches_reference(restricted(oracle, data.draw(sub_index_sets(oracle))), truth, rows)


@settings(max_examples=40, deadline=None)
@given(
    base_truth=partitions(max_n=2),
    variant=st.sampled_from(["row0", "row_j", "nowhere", "grover"]),
    hide=st.booleans(),
    seed=st.integers(0, 2**16),
    data=st.data(),
    rows=block_rows,
)
def test_layered_instances_match_reference(base_truth, variant, hide, seed, data, rows):
    n = base_truth.n
    j = data.draw(st.integers(1, (1 << n) - 1)) if variant == "row_j" else None
    g = (PointFunction(n, data.draw(st.one_of(st.none(), st.integers(0, (1 << n) - 1))))
         if variant == "grover" else None)
    inst = make_layered_instance(make_offset_mixer(base_truth), base_truth, variant, j=j, g=g)
    if hide:
        inst = hide_instance(inst, np.random.default_rng(seed))
    assert_matches_reference(inst.mixer2n, inst.truth2n, rows)
    # against another hiding's truth, images leave their components
    other = hide_instance(
        make_layered_instance(make_offset_mixer(base_truth), base_truth, variant, j=j, g=g),
        np.random.default_rng(seed + 1),
    )
    assert_matches_reference(inst.mixer2n, other.truth2n, rows)


@st.composite
def arbitrary_oracles(draw):
    """A hand-built oracle on a random subset of the n-bit strings, with up to
    three indices whose images are arbitrary n-bit strings, and a random
    partition of n-bit strings to judge it by."""
    truth = draw(partitions())
    dim = 1 << truth.n
    held = draw(st.sets(st.integers(0, dim - 1), min_size=1))
    k = draw(st.integers(0, 3))
    table = draw(st.lists(
        st.lists(st.integers(0, dim - 1), min_size=dim, max_size=dim), min_size=k, max_size=k,
    ))
    oracle = MixerOracle(
        truth.n, 2, held, range(k),
        lambda enc, x: table[enc][x], lambda enc, x: table[enc][x],
    )
    return oracle, truth


@settings(max_examples=200, deadline=None)
@given(case=arbitrary_oracles(), rows=block_rows)
def test_hand_built_oracles_match_reference(case, rows):
    oracle, truth = case
    assert_matches_reference(oracle, truth, rows)


def test_an_image_outside_s_is_an_error_only_for_no_cross_mixing():
    truth = GroundTruthPartition.from_components(2, [[0, 1, 2]])
    # index 1 shifts 0 -> 1 -> 2 -> 3, and 3 is garbage
    oracle = MixerOracle(2, 1, range(4), [0, 1], lambda e, x: (x + e) % 4, None)
    with pytest.raises(InvalidArgumentError, match="^3 is not a member of S$"):
        verify_no_cross_mixing(oracle, truth)
    assert verify_instant_mixing(oracle, truth) == reference_instant_mixing(oracle, truth) > 0
    assert verify_full_connectivity(oracle, truth) is False
    assert_matches_reference(oracle, truth, rows_per_block=1)


@pytest.mark.parametrize("rows", [None, 1])
def test_the_first_escape_decides_no_cross_mixing(rows):
    truth = GroundTruthPartition.from_components(2, [[0], [1]])

    def oracle(moved):
        """Index 0 is the identity; index 1 maps x to moved[x]."""
        tables = [range(4), moved]
        return MixerOracle(2, 1, range(4), [0, 1], lambda e, x: tables[e][x], None)

    # 0 goes into the other component before 1 goes outside S, and then after
    crosses_first, leaves_first = oracle([1, 3, 2, 3]), oracle([3, 0, 2, 3])
    with mock.patch.object(verify, "SWEEP_BLOCK_CAP", 1 if rows else verify.SWEEP_BLOCK_CAP):
        assert verify_no_cross_mixing(crosses_first, truth) is False
        with pytest.raises(InvalidArgumentError, match="^3 is not a member of S$"):
            verify_no_cross_mixing(leaves_first, truth)
    assert_matches_reference(crosses_first, truth, rows)
    assert_matches_reference(leaves_first, truth, rows)


def test_a_member_the_oracle_lacks_is_an_error_unless_a_verdict_came_first():
    truth = GroundTruthPartition.from_components(2, [[0, 1], [2, 3]])
    # 0 <-> 2 crosses before member 3, which the oracle lacks, is reached
    oracle = MixerOracle(2, 1, [0, 1, 2], [0, 1], lambda e, x: x ^ (2 * e), None)
    assert verify_no_cross_mixing(oracle, truth) is False
    assert verify_full_connectivity(oracle, truth) is False
    with pytest.raises(InvalidArgumentError, match="^3 is not a member of S$"):
        verify_instant_mixing(oracle, truth)
    assert_matches_reference(oracle, truth)


def test_an_empty_index_set_keeps_the_loops_verdicts():
    oracle, truth = make_coset_mixer(4, [1])
    empty = restricted(oracle, [])
    assert verify_no_cross_mixing(empty, truth) is True
    assert verify_full_connectivity(empty, truth) is False
    with pytest.raises(ZeroDivisionError):
        verify_instant_mixing(empty, truth)


@pytest.mark.parametrize("rows", [None, 1, 7, 64])
def test_graphiso_verdicts_match_reference_in_any_block_size(rows):
    oracle, truth = make_graph_iso_mixer(4)
    assert_matches_reference(oracle, truth, rows)
    assert_matches_reference(restricted(oracle, oracle.index_ints[:5]), truth, rows)


def test_the_sweep_applies_each_pair_once(monkeypatch):
    oracle, truth = make_graph_iso_mixer(3)
    calls = []
    fn = oracle._apply_fn
    monkeypatch.setattr(oracle, "_apply_fn", lambda enc, x: calls.append((enc, x)) or fn(enc, x))
    monkeypatch.setattr(verify, "SWEEP_BLOCK_CAP", 3 * len(oracle.index_ints))
    sweep = sweep_mixer(oracle, truth)
    assert sorted(calls) == sorted(
        (enc, x) for x in truth.members for enc in oracle.index_ints
    )
    assert len(calls) == len(set(calls))
    assert (sweep.no_cross_mixing(), sweep.instant_mixing_tv(), sweep.full_connectivity()) == (
        True, 0.0, True,
    )


@pytest.mark.parametrize("modulus, generator, cap, shapes", [
    # |Ind| = 64 images per row, so three rows per block
    (64, 1, 200, [3 * 64] * 21 + [64]),
    # |Ind| = 2: a row's work follows |Ind| alone, so 4096 members fit in one
    (4096, 2048, verify.SWEEP_BLOCK_CAP, [4096 * 2]),
])
def test_a_block_never_holds_more_than_the_cap(monkeypatch, modulus, generator, cap, shapes):
    oracle, truth = make_coset_mixer(modulus, [generator])
    seen = []
    real = np.fromiter
    monkeypatch.setattr(
        verify.np, "fromiter", lambda *a, **kw: seen.append(kw["count"]) or real(*a, **kw)
    )
    monkeypatch.setattr(verify, "SWEEP_BLOCK_CAP", cap)
    sweep = sweep_mixer(oracle, truth)
    assert seen == shapes
    assert (sweep.no_cross_mixing(), sweep.instant_mixing_tv(), sweep.full_connectivity()) == (
        True, 0.0, True,
    )


# -- connectivity against the pairwise witness sweep ---------------------------

@settings(max_examples=60, deadline=None)
@given(truth=partitions(), data=st.data())
def test_connectivity_verdict_matches_pairwise_sweep(truth, data):
    oracle = make_offset_mixer(truth)
    assert verify_full_connectivity(oracle, truth) is True
    assert pairwise_connectivity(oracle, truth) is True
    # the identity comes first; dropping indices often disconnects a component
    partial = restricted(oracle, data.draw(sub_index_sets(oracle)))
    assert verify_full_connectivity(partial, truth) == pairwise_connectivity(partial, truth)


def test_connectivity_is_checked_above_64_members():
    oracle, truth = make_coset_mixer(128, [1])
    assert len(truth.members) > 64
    assert verify_full_connectivity(oracle, truth) is True
    identity_only = restricted(oracle, [0])
    assert verify_full_connectivity(identity_only, truth) is False
    assert full_connectivity_witness(identity_only, truth, 0, 1) is None


def test_instant_mixing_is_exact_above_the_old_sampling_limit():
    oracle, truth = make_coset_mixer(257, [1])
    assert len(truth.members) * len(oracle.index_ints) == 257 * 257 > 65536
    assert verify_instant_mixing(oracle, truth) == 0.0
