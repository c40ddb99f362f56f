from hypothesis import given, settings, strategies as st

from mixerlab import (
    GroundTruthPartition,
    MixerOracle,
    full_connectivity_witness,
    make_coset_mixer,
    make_offset_mixer,
    verify_full_connectivity,
    verify_instant_mixing,
)


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
def partitions(draw):
    """A partition of a nonempty subset of n-bit strings, n <= 3; label 0
    marks garbage."""
    n = draw(st.integers(1, 3))
    labels = draw(st.lists(st.integers(0, 3), min_size=1 << n, max_size=1 << n))
    if not any(labels):
        labels[draw(st.integers(0, (1 << n) - 1))] = 1
    comps: dict[int, list[int]] = {}
    for x, lab in enumerate(labels):
        if lab:
            comps.setdefault(lab, []).append(x)
    return GroundTruthPartition.from_components(n, comps.values())


@settings(max_examples=60, deadline=None)
@given(truth=partitions(), data=st.data())
def test_connectivity_verdict_matches_pairwise_sweep(truth, data):
    oracle = make_offset_mixer(truth)
    assert verify_full_connectivity(oracle, truth) is True
    assert pairwise_connectivity(oracle, truth) is True
    # the identity comes first; dropping indices often disconnects a component
    keep = data.draw(
        st.lists(st.sampled_from(oracle.index_ints[1:]), unique=True)
        if len(oracle.index_ints) > 1 else st.just([])
    )
    partial = restricted(oracle, [oracle.index_ints[0], *keep])
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
