import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mixerlab import (
    GroundTruthPartition,
    PointFunction,
    is_label_consistent,
    make_offset_mixer,
    pair_encode,
    verify_no_cross_mixing,
)
from mixerlab.errors import InvalidArgumentError
from mixerlab.layered import (
    LAYERED_MAX_MEMBERS,
    VARIANTS,
    apply_hiding,
    hide_instance,
    make_layered_instance,
)


@pytest.fixture
def base():
    truth = GroundTruthPartition.from_components(2, [[0, 1], [2, 3]])
    return make_offset_mixer(truth), truth


def enc(r, z, n=2):
    return pair_encode(r, z, n)


def test_collapsed_row_moves_whole_row(base):
    oracle, truth = base
    inst = make_layered_instance(oracle, truth, "row0")
    session = inst.mixer2n.session()
    # a non-identity index moves row-0 members within their base component
    i = oracle.index_ints[1]
    assert inst.mixer2n.apply_int(i, enc(0, 0)) == enc(0, oracle.apply_int(i, 0))
    # other rows are fixed
    assert inst.mixer2n.apply_int(i, enc(1, 0)) == enc(1, 0)
    # every row-0 element shares one label; the label is flagged invalid
    labels = {inst.label2n.label_int(enc(0, z)) for z in range(4)}
    assert len(labels) == 1
    assert inst.label2n.valid is False
    assert sum(session.queries.values()) == 0


def test_shifted_row_splits_component_one_from_the_rest(base):
    oracle, truth = base
    j = 2
    inst = make_layered_instance(oracle, truth, "row_j", j=j)
    i = oracle.index_ints[1]
    # component 1 stays in row 0
    assert inst.mixer2n.apply_int(i, enc(0, 0)) == enc(0, oracle.apply_int(i, 0))
    # the remaining components act in row j
    assert inst.mixer2n.apply_int(i, enc(j, 2)) == enc(j, oracle.apply_int(i, 2))
    # the label collapses rows 0 and j, so it is invalid for the true partition
    assert inst.label2n.label_int(enc(0, 0)) == inst.label2n.label_int(enc(j, 2))
    assert not is_label_consistent(inst.label2n, inst.truth2n)
    assert inst.label2n.valid is False


def test_embed_only_variant_has_a_valid_label(base):
    oracle, truth = base
    inst = make_layered_instance(oracle, truth, "nowhere")
    assert is_label_consistent(inst.label2n, inst.truth2n)
    assert inst.label2n.valid is True
    # only component 1 of the base is embedded; everything else is a singleton
    sizes = sorted(inst.truth2n.component_sizes())
    assert sizes == [1] * 14 + [2]


def test_gated_variant_matches_embed_only_when_g_is_zero(base):
    oracle, truth = base
    g = PointFunction(2, None)
    gated = make_layered_instance(oracle, truth, "grover", g=g)
    plain = make_layered_instance(oracle, truth, "nowhere")
    for i in oracle.index_ints:
        for x in range(16):
            assert gated.mixer2n.apply_int(i, x) == plain.mixer2n.apply_int(i, x)
    for x in range(16):
        assert gated.label2n.label_int(x) == plain.label2n.label_int(x)
    assert gated.truth2n.component_of == plain.truth2n.component_of


def test_gated_variant_matches_shifted_row_at_the_marked_point(base):
    oracle, truth = base
    j = 3
    gated = make_layered_instance(oracle, truth, "grover", g=PointFunction(2, j))
    shifted = make_layered_instance(oracle, truth, "row_j", j=j)
    for i in oracle.index_ints:
        for x in range(16):
            assert gated.mixer2n.apply_int(i, x) == shifted.mixer2n.apply_int(i, x)
    for x in range(16):
        assert gated.label2n.label_int(x) == shifted.label2n.label_int(x)
    assert gated.truth2n.component_of == shifted.truth2n.component_of


def test_gated_variant_with_marked_zero_collapses_row_zero(base):
    oracle, truth = base
    gated = make_layered_instance(oracle, truth, "grover", g=PointFunction(2, 0))
    collapsed = make_layered_instance(oracle, truth, "row0")
    for i in oracle.index_ints:
        for x in range(16):
            assert gated.mixer2n.apply_int(i, x) == collapsed.mixer2n.apply_int(i, x)
    assert gated.truth2n.component_of == collapsed.truth2n.component_of


def test_layered_variants_are_mixers(base):
    oracle, truth = base
    for variant in VARIANTS:
        kwargs = {}
        if variant == "row_j":
            kwargs["j"] = 1
        if variant == "grover":
            kwargs["g"] = PointFunction(2, 2)
        inst = make_layered_instance(oracle, truth, variant, **kwargs)
        assert verify_no_cross_mixing(inst.mixer2n, inst.truth2n)


def test_hiding_round_trip(base):
    oracle, truth = base
    inst = make_layered_instance(oracle, truth, "row_j", j=1)
    rng = np.random.default_rng(11)
    hidden = hide_instance(inst, rng)
    pi, sigma = hidden.pi, hidden.sigma
    pi_inv = np.argsort(pi)
    for i in oracle.index_ints:
        for x in range(16):
            expected = int(pi[inst.mixer2n.apply_int(i, int(pi_inv[x]))])
            assert hidden.mixer2n.apply_int(i, x) == expected
    for x in range(16):
        expected = int(sigma[inst.label2n.label_int(int(pi_inv[x]))])
        assert hidden.label2n.label_int(x) == expected
    # the hidden ground truth is the permuted partition
    for x in range(16):
        assert hidden.truth2n.component_id(int(pi[x])) == inst.truth2n.component_id(x)
    assert hidden.start_element(0) == int(pi[enc(0, 0)])


def test_hiding_with_identity_tables_changes_nothing(base):
    oracle, truth = base
    inst = make_layered_instance(oracle, truth, "nowhere")
    ident = np.arange(16)
    hidden = apply_hiding(inst, ident, ident)
    for x in range(16):
        assert hidden.label2n.label_int(x) == inst.label2n.label_int(x)


def test_variant_argument_validation(base):
    oracle, truth = base
    with pytest.raises(InvalidArgumentError):
        make_layered_instance(oracle, truth, "row_j")  # j missing
    with pytest.raises(InvalidArgumentError):
        make_layered_instance(oracle, truth, "row_j", j=0)
    with pytest.raises(InvalidArgumentError):
        make_layered_instance(oracle, truth, "grover")  # g missing
    with pytest.raises(InvalidArgumentError):
        make_layered_instance(oracle, truth, "sideways")


def test_gated_variant_meters_its_point_function(base):
    oracle, truth = base
    g = PointFunction(2, 1)
    inst = make_layered_instance(oracle, truth, "grover", g=g)
    session = inst.mixer2n.session()
    before = g.queries
    session.apply(oracle.index_ints[0], 0)
    assert g.queries == before + 2  # every metered evaluation: two g queries
    before = g.queries
    inst.label2n.session().query(0)
    assert g.queries == before + 2
    # privileged construction-time evaluation is free
    before = g.queries
    inst.mixer2n.apply_int(oracle.index_ints[0], 0)
    inst.label2n.label_int(0)
    assert g.queries == before


def test_ground_truth_is_built_on_first_read(base, monkeypatch):
    oracle, truth = base
    builds = []
    init = GroundTruthPartition.__init__

    def counting_init(self, *args):
        builds.append(args)
        init(self, *args)

    monkeypatch.setattr(GroundTruthPartition, "__init__", counting_init)
    inst = make_layered_instance(oracle, truth, "row_j", j=1)
    hidden = hide_instance(inst, np.random.default_rng(3))
    assert builds == []
    assert hidden.truth2n is hidden.truth2n
    assert len(builds) == 2  # the unhidden truth, then its permuted image


@st.composite
def layered_cases(draw):
    """(n, base components, variant, j, marked point, hiding seed); tag 0
    marks garbage, and each other tag value is one base component."""
    n = draw(st.integers(1, 3))
    dim = 1 << n
    tags = draw(st.lists(st.integers(0, dim), min_size=dim, max_size=dim).filter(any))
    components = [
        [x for x in range(dim) if tags[x] == t] for t in sorted(set(tags) - {0})
    ]
    variant = draw(st.sampled_from(VARIANTS))
    j = draw(st.integers(1, dim - 1)) if variant == "row_j" else None
    y = draw(st.none() | st.integers(0, dim - 1)) if variant == "grover" else None
    return n, components, variant, j, y, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(layered_cases())
@example((1, [[1]], "nowhere", None, None, 0))
@example((2, [[2, 3], [0, 1]], "grover", None, None, 0))
def test_layered_instances_mix_and_flag_their_label_honestly(case):
    n, components, variant, j, y, seed = case
    truth = GroundTruthPartition.from_components(n, components)
    g = PointFunction(n, y) if variant == "grover" else None
    inst = make_layered_instance(make_offset_mixer(truth), truth, variant, j=j, g=g)
    for candidate in (inst, hide_instance(inst, np.random.default_rng(seed))):
        assert verify_no_cross_mixing(candidate.mixer2n, candidate.truth2n)
        consistent = is_label_consistent(candidate.label2n, candidate.truth2n)
        assert candidate.label2n.valid == consistent


class _NoDraws:
    def permutation(self, d):
        pytest.fail(f"drew a permutation of {d} entries")


def test_hiding_is_capped_before_any_permutation_is_drawn():
    # an 8-bit base gives 2^16 members, the cap; a 9-bit base is refused
    assert LAYERED_MAX_MEMBERS == 1 << 16
    eight = GroundTruthPartition.from_components(8, [list(range(256))])
    inst = hide_instance(
        make_layered_instance(make_offset_mixer(eight), eight, "row0"), np.random.default_rng(0)
    )
    assert len(inst.pi) == LAYERED_MAX_MEMBERS
    nine = GroundTruthPartition.from_components(9, [list(range(512))])
    inst = make_layered_instance(make_offset_mixer(nine), nine, "row0")
    with pytest.raises(
        InvalidArgumentError, match="9-bit base has 262144 members, over the cap 65536"
    ):
        hide_instance(inst, _NoDraws())
