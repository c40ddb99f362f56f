from types import SimpleNamespace

import numpy as np
import pytest
from scipy import stats

from mixerlab import (
    BudgetExhaustedError,
    GroundTruthPartition,
    MalformedQueryError,
    MixerIndex,
    PointFunction,
    full_connectivity_witness,
    instant_mixing_bound,
    make_coset_mixer,
    make_graph_iso_mixer,
    make_grover_mixer,
    make_offset_mixer,
    tv_distance,
    verify_instant_mixing,
    verify_no_cross_mixing,
)
from mixerlab.bits import as_int, to_bits
from mixerlab.errors import InvalidArgumentError
from mixerlab.instances import GROVER_MAX_N, instance_from_config
from mixerlab.layered import hide_instance, make_layered_instance
from mixerlab.oracle import QUERY_KINDS, MixerOracle
from mixerlab.quantum import QuantumState, measure_component_projector
from mixerlab.verify import sweep_mixer
from quantum_reference import component_projector_matrix


@pytest.fixture
def setup():
    truth = GroundTruthPartition.from_components(3, [[0, 1, 2], [3, 4]])
    return make_offset_mixer(truth), truth


def test_membership_queries(setup):
    oracle, truth = setup
    session = oracle.session()
    assert session.test_membership_s("000")
    assert not session.test_membership_s("111")
    assert session.test_membership_s(4)
    assert session.queries["membership_S"] == 3
    assert sum(session.queries.values()) == 3


def test_query_strings_must_match_width(setup):
    oracle, _ = setup
    session = oracle.session()
    with pytest.raises(MalformedQueryError):
        session.test_membership_s("00")
    with pytest.raises(MalformedQueryError):
        session.apply("0" * oracle.index_width, "0000")


def test_apply_round_trip_and_type_mirroring(setup):
    oracle, truth = setup
    session = oracle.session(rng=np.random.default_rng(0))
    for enc in oracle.index_ints:
        for x in truth.members:
            y = session.apply(enc, x)
            assert isinstance(y, int)
            assert session.apply_inverse(enc, y) == x
    i = MixerIndex("000" + "0" * (oracle.index_width - 3))
    assert isinstance(session.apply(i.bits, "000"), str)


def test_every_operation_costs_one_query(setup):
    oracle, _ = setup
    rng = np.random.default_rng(1)
    session = oracle.session(rng=rng)
    session.test_membership_s(0)
    session.sample_s()
    session.test_membership_ind(0)
    session.sample_ind()
    session.apply(oracle.index_ints[0], 0)
    session.apply_inverse(oracle.index_ints[0], 0)
    assert session.queries == {kind: int(kind in QUERY_KINDS[:6]) for kind in QUERY_KINDS}


def test_budget_enforced(setup):
    oracle, _ = setup
    session = oracle.session(rng=np.random.default_rng(2), budget=2)
    session.sample_s()
    session.sample_s()
    with pytest.raises(BudgetExhaustedError):
        session.sample_s()


def test_sampling_is_uniform(setup):
    oracle, truth = setup
    session = oracle.session(rng=np.random.default_rng(3))
    draws = [session.sample_s() for _ in range(5000)]
    counts = [draws.count(x) for x in truth.members]
    assert stats.chisquare(counts).pvalue > 1e-4
    idx_draws = [session.sample_ind().as_int() for _ in range(5000)]
    idx_counts = [idx_draws.count(enc) for enc in oracle.index_ints]
    assert stats.chisquare(idx_counts).pvalue > 1e-4


def test_identity_is_first_index(setup):
    oracle, truth = setup
    enc = oracle.index_ints[0]
    assert all(oracle.apply_int(enc, x) == x for x in truth.members)


def test_no_cross_mixing_and_instant_mixing(setup):
    oracle, truth = setup
    assert verify_no_cross_mixing(oracle, truth)
    assert verify_instant_mixing(oracle, truth) == 0.0
    assert instant_mixing_bound(3) == 2.0 ** -5


def test_connectivity_witness(setup):
    oracle, truth = setup
    w = full_connectivity_witness(oracle, truth, 0, 2)
    assert w is not None
    assert oracle.apply_int(w.as_int(), 0) == 2
    assert full_connectivity_witness(oracle, truth, 0, 3) is None
    same = full_connectivity_witness(oracle, truth, 1, 1)
    assert same is not None and oracle.apply_int(same.as_int(), 1) == 1
    with pytest.raises(InvalidArgumentError):
        full_connectivity_witness(oracle, truth, 0, 7)


def test_tv_distance():
    assert tv_distance({0: 0.5, 1: 0.5}, {0: 0.5, 1: 0.5}) == 0.0
    assert tv_distance({0: 1.0}, {1: 1.0}) == 1.0
    assert tv_distance({0: 0.75, 1: 0.25}, {0: 0.25, 1: 0.75}) == pytest.approx(0.5)


def _reference_metered_apply(session, kind, i, x):
    """QuerySession's metered apply without the int fast path: every argument
    goes through the bit-string conversion."""
    session.charge(kind)
    enc = session._index_int(i)
    xi = as_int(x, session.oracle.n)
    if enc not in session.oracle._index_set:
        raise InvalidArgumentError(f"invalid index encoding {enc}")
    if xi not in session.oracle._member_set:
        raise InvalidArgumentError(f"{x!r} is not a member of S")
    if session.oracle.point is not None:
        session.oracle.point.charge()
    fn = session.oracle._apply_fn if kind == "apply" else session.oracle._inverse_fn
    out = fn(enc, xi)
    return to_bits(out, session.oracle.n) if isinstance(x, str) else out


# offset mixer on [[0, 1, 2], [3, 4]]: indices 0..5 of width 3, members 0..4
FAST_PATH_INDICES = [
    2, 8, 7, True, np.int64(2), "010", "01", "0a0", MixerIndex("010"), MixerIndex("1"),
]
FAST_PATH_ELEMENTS = [3, 8, 6, True, np.int64(3), "011", "0111", "x", -1]


def _outcome(call):
    try:
        out = call()
    except Exception as exc:  # the exception is the outcome compared
        return ("raised", type(exc), str(exc))
    return ("returned", type(out), out)


def _offset_bundle():
    truth = GroundTruthPartition.from_components(3, [[0, 1, 2], [3, 4]])
    return instance_from_config({"family": "offset", "partition": truth.to_json_dict()})


BALANCED2 = GroundTruthPartition.from_components(2, [[0, 1], [2, 3]]).to_json_dict()
# instances whose members (and, for grover, indices) are whole ranges
RANGE_BACKED = {
    "grover-marked": {"family": "grover", "n": 3, "point": 5},
    "grover-unmarked": {"family": "grover", "n": 3},
    "coset-8": {"family": "coset", "modulus": 8, "generators": [2]},
    "hidden-layered": {
        "family": "layered", "base": {"family": "offset", "partition": BALANCED2},
        "variant": "grover", "point": 1, "hide": True, "seed": 3,
    },
}


def _fast_path_arguments(oracle):
    """FAST_PATH_* plus the last valid index and member, a valid bit string
    of each, the first int past each width, and the ints around the ends of
    the oracle's indices and members, for this oracle's widths."""
    enc, x = oracle.index_ints[1], oracle.members[1]
    index_bits = to_bits(enc, oracle.index_width)
    indices = [*FAST_PATH_INDICES, oracle.index_ints[-1], index_bits, MixerIndex(index_bits),
               1 << oracle.index_width, *_edge_ints(oracle.index_ints)]
    elements = [*FAST_PATH_ELEMENTS, oracle.members[-1], to_bits(x, oracle.n), 1 << oracle.n,
                *_edge_ints(oracle.members)]
    return indices, elements


def _edge_ints(values):
    """Ints around the ends of a collection of ints: below, at and just past
    each end, and negatives."""
    lo, hi = (values.start, values.stop) if type(values) is range else (min(values), max(values) + 1)
    return sorted({-hi - 1, -1, 0, lo - 1, lo, lo + 1, hi - 1, hi, hi + 1})


def _g_queries(bundle):
    return None if bundle.point is None else bundle.point.queries


def _assert_metered_apply_matches_reference(make_bundle, inverse, indices, elements):
    """Each (i, x): the same outcome and query counts as the conversion path,
    on two equal instances, so the point-function totals must agree too."""
    kind = "apply_inverse" if inverse else "apply"
    fast_bundle, ref_bundle = make_bundle(), make_bundle()
    for i in indices:
        for x in elements:
            fast, ref = fast_bundle.oracle.session(), ref_bundle.oracle.session()
            apply = fast.apply_inverse if inverse else fast.apply
            got = _outcome(lambda: apply(i, x))
            assert got == _outcome(lambda: _reference_metered_apply(ref, kind, i, x)), (i, x)
            assert fast.queries == ref.queries and sum(fast.queries.values()) == 1
            assert _g_queries(fast_bundle) == _g_queries(ref_bundle), (i, x)


@pytest.mark.parametrize("inverse", [False, True])
def test_metered_apply_fast_path_matches_reference(setup, inverse):
    oracle, _ = setup
    _assert_metered_apply_matches_reference(
        _offset_bundle, inverse, FAST_PATH_INDICES, FAST_PATH_ELEMENTS
    )
    # int in, int out; str in, str out
    assert _outcome(lambda: oracle.session().apply(2, 3))[1] is int
    assert _outcome(lambda: oracle.session().apply(2, "011"))[1] is str


@pytest.mark.parametrize("inverse", [False, True])
@pytest.mark.parametrize("name", RANGE_BACKED)
def test_metered_apply_fast_path_matches_reference_on_range_backed_oracles(name, inverse):
    bundle = lambda: instance_from_config(RANGE_BACKED[name])  # noqa: E731
    indices, elements = _fast_path_arguments(bundle().oracle)
    _assert_metered_apply_matches_reference(bundle, inverse, indices, elements)


@pytest.mark.parametrize("kind", ["apply", "apply_inverse"])
def test_metered_apply_fast_path_charges_point_queries_like_reference(kind):
    g_fast, g_ref = PointFunction(3, 5), PointFunction(3, 5)
    fast, ref = make_grover_mixer(3, g_fast).session(), make_grover_mixer(3, g_ref).session()
    for i in range(8):
        for x in range(8):
            assert getattr(fast, kind)(i, x) == _reference_metered_apply(ref, kind, i, x)
    assert fast.queries == ref.queries and fast.queries[kind] == 64
    assert g_fast.queries == g_ref.queries == 128


def _offset_range_bundle(members, indices):
    """An oracle over step-1 ranges that need not start at 0: index ``enc``
    shifts the members cyclically by ``enc``; gated by a marked point so the
    point-function totals are compared too."""
    size = max(len(members), 1)

    def shift(sign):
        return lambda enc, x: members.start + (x - members.start + sign * enc) % size

    point = PointFunction(4, 5)
    oracle = MixerOracle(4, 4, members, indices, shift(1), shift(-1), point=point)
    return SimpleNamespace(oracle=oracle, point=point)


@pytest.mark.parametrize("inverse", [False, True])
@pytest.mark.parametrize("members, indices", [
    (range(3, 11), range(2, 7)),
    (range(5, 16), range(1, 16)),
    (range(5, 5), range(2, 7)),  # no members
    (range(3, 11), range(4, 4)),  # no indices
])
def test_metered_apply_matches_reference_on_ranges_not_at_zero(members, indices, inverse):
    bundle = lambda: _offset_range_bundle(members, indices)  # noqa: E731
    oracle = bundle().oracle
    assert oracle.members is members and oracle.index_ints is indices
    index_args, member_args = _edge_ints(indices), _edge_ints(members)
    index_args += [to_bits(i, 4) for i in index_args if 0 <= i < 16] + [True, np.int64(3)]
    member_args += [to_bits(x, 4) for x in member_args if 0 <= x < 16] + [True, np.int64(6)]
    _assert_metered_apply_matches_reference(bundle, inverse, index_args, member_args)


@pytest.mark.parametrize("name", RANGE_BACKED)
def test_budget_runs_out_partway_like_reference(name):
    """A budget above 0 runs out in the middle of a sequence of applies, on
    the fast path and the conversion path alike: every call before the last
    returns (or raises an argument error) as the reference does, the call
    past the budget raises, and the counts agree at each step."""
    budget = 9
    fast_bundle, ref_bundle = (instance_from_config(RANGE_BACKED[name]) for _ in range(2))
    fast, ref = (b.oracle.session(budget=budget) for b in (fast_bundle, ref_bundle))
    oracle = fast_bundle.oracle
    enc, x = oracle.index_ints[-1], oracle.members[-1]
    calls = [
        ("apply", enc, x), ("apply_inverse", enc, x), ("apply", enc, to_bits(x, oracle.n)),
        ("apply", enc, 1 << oracle.n), ("apply_inverse", -1, x), ("membership", None, x),
    ] * 3
    for step, (kind, i, y) in enumerate(calls):
        if kind == "membership":
            got, want = (_outcome(lambda s=s: s.test_membership_s(y)) for s in (fast, ref))
        else:
            got = _outcome(lambda: getattr(fast, kind)(i, y))
            want = _outcome(lambda: _reference_metered_apply(ref, kind, i, y))
        assert got == want, step
        assert fast.queries == ref.queries, step
        assert _g_queries(fast_bundle) == _g_queries(ref_bundle), step
        if got[1] is BudgetExhaustedError:
            break
    assert step == budget and sum(fast.queries.values()) == budget + 1
    assert _g_queries(fast_bundle) in (None, 2 * 6)  # six valid applies were evaluated


def _assert_budget_comes_first(oracle, indices, elements):
    for i in indices:
        for x in elements:
            for name in ("apply", "apply_inverse"):
                session = oracle.session(budget=0)
                with pytest.raises(BudgetExhaustedError):
                    getattr(session, name)(i, x)
            for name, arg in (("test_membership_s", x), ("test_membership_ind", i)):
                with pytest.raises(BudgetExhaustedError):
                    getattr(oracle.session(budget=0), name)(arg)


def test_budget_exhaustion_comes_before_argument_errors(setup):
    oracle, _ = setup
    _assert_budget_comes_first(oracle, FAST_PATH_INDICES, FAST_PATH_ELEMENTS)


@pytest.mark.parametrize("name", RANGE_BACKED)
def test_budget_exhaustion_comes_first_on_range_backed_oracles(name):
    bundle = instance_from_config(RANGE_BACKED[name])
    _assert_budget_comes_first(bundle.oracle, *_fast_path_arguments(bundle.oracle))
    assert _g_queries(bundle) in (None, 0)  # no evaluation was charged


def _tuple_backed_copy(oracle):
    return MixerOracle(
        oracle.n, oracle.index_width, tuple(oracle.members), tuple(oracle.index_ints),
        oracle._apply_fn, oracle._inverse_fn, name=oracle.name, point=oracle.point,
    )


def _tables_or_error(oracle):
    try:
        return [table.tolist() for table in oracle.permutation_tables()]
    except InvalidArgumentError as exc:  # a marked gated shift is no bijection
        return str(exc)


@pytest.mark.parametrize("name", RANGE_BACKED)
def test_range_backed_oracle_matches_a_tuple_backed_copy(name):
    bundle = instance_from_config(RANGE_BACKED[name])
    oracle, truth = bundle.oracle, bundle.truth
    copy = _tuple_backed_copy(oracle)
    assert type(oracle.members) is range and type(copy.members) is tuple
    assert list(oracle.members) == list(copy.members)
    assert list(oracle.index_ints) == list(copy.index_ints)
    ours, theirs = (o.session(rng=np.random.default_rng(11)) for o in (oracle, copy))
    assert [ours.sample_s() for _ in range(64)] == [theirs.sample_s() for _ in range(64)]
    assert [ours.sample_ind() for _ in range(64)] == [theirs.sample_ind() for _ in range(64)]
    assert _tables_or_error(oracle) == _tables_or_error(copy)
    assert sweep_mixer(oracle, truth) == sweep_mixer(copy, truth)


def test_a_step_one_range_is_kept_as_is():
    members, indices = range(1 << 16), range(1 << 16)
    identity = lambda enc, x: x  # noqa: E731
    oracle = MixerOracle(16, 16, members, indices, identity, identity)
    assert oracle.members is members and oracle._member_set is members
    assert oracle.index_ints is indices and oracle._index_set is indices
    # any other range is enumerated: sorted for members, in order for indices
    stepped = MixerOracle(3, 3, range(6, -1, -2), range(6, -1, -2), identity, identity)
    assert stepped.members == (0, 2, 4, 6) and stepped.index_ints == (6, 4, 2, 0)
    grover = make_grover_mixer(GROVER_MAX_N, PointFunction(GROVER_MAX_N))
    assert grover.members == grover.index_ints == range(1 << GROVER_MAX_N)


def test_every_family_keeps_indices_and_members_inside_their_width():
    truth = GroundTruthPartition.from_components(3, [[0, 1, 2], [3, 4]])
    offset = make_offset_mixer(truth)
    graph, _ = make_graph_iso_mixer(3)
    coset, _ = make_coset_mixer(12, [4])
    layered = make_layered_instance(offset, truth, "row0")
    hidden = hide_instance(layered, np.random.default_rng(0))
    for oracle in (offset, graph, coset, make_grover_mixer(4, PointFunction(4, 9)),
                   layered.mixer2n, hidden.mixer2n):
        assert all(0 <= x < 1 << oracle.n for x in oracle.members)
        assert all(0 <= e < 1 << oracle.index_width for e in oracle.index_ints)


# ---------------------------------------------------------------------------
# Point-function accounting: one price per metered evaluation
# ---------------------------------------------------------------------------

def _grover_mixer():
    g = PointFunction(3)  # all zeros, so the tables are a bijection
    return make_grover_mixer(3, g), None, g


def _hidden_layered_grover():
    truth = GroundTruthPartition.from_components(2, [[0, 1], [2, 3]])
    g = PointFunction(2, 1)
    inst = make_layered_instance(make_offset_mixer(truth), truth, "grover", g=g)
    inst = hide_instance(inst, np.random.default_rng(3))
    return inst.mixer2n, inst.label2n, g


# operation -> (call on (mixer, label, session), evaluations it makes)
METERED = {
    "apply": (lambda m, lab, s: s.apply(m.index_ints[1], 1), 1),
    "apply_inverse": (lambda m, lab, s: s.apply_inverse(m.index_ints[1], 1), 1),
    "label query": (lambda m, lab, s: lab.session().query(1), 1),
    "projector": (
        lambda m, lab, s: measure_component_projector(
            QuantumState.basis((1 << m.n,), 0), m, np.random.default_rng(0), session=s
        ),
        2,
    ),
}
# operations that evaluate no gated map through a session: privileged paths,
# membership tests and samplers
G_FREE = {
    "apply_int": lambda m, lab: m.apply_int(m.index_ints[1], 1),
    "inverse_int": lambda m, lab: m.inverse_int(m.index_ints[1], 1),
    "tables": lambda m, lab: (m.permutation_tables(), component_projector_matrix(m)),
    "label_int": lambda m, lab: lab.label_int(1),
    "membership and sampling": lambda m, lab: (
        m.session().test_membership_s(1), m.session().test_membership_ind(m.index_ints[1]),
        m.session().sample_s(), m.session().sample_ind(),
    ),
}


@pytest.mark.parametrize("make, operation", [
    (make, operation)
    for make in (_grover_mixer, _hidden_layered_grover)
    for operation in [*METERED, *G_FREE]
    if make is _hidden_layered_grover or "label" not in operation  # no label to query
])
def test_point_function_charges_two_per_metered_evaluation_only(make, operation):
    mixer, label, g = make()
    before = g.queries
    if operation in METERED:
        call, evaluations = METERED[operation]
        call(mixer, label, mixer.session())
    else:
        evaluations = 0
        G_FREE[operation](mixer, label)
    assert g.queries - before == 2 * evaluations
