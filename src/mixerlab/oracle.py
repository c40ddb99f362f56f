"""Black-box query access to component mixers and labeling functions.

A :class:`MixerOracle` bundles the six classical query operations (membership
tests, samplers, forward/inverse application). Algorithms under test go
through a :class:`QuerySession` or :class:`LabelSession`, the one place a
query is charged: the session counts it by kind, enforces its budget, and,
for an oracle gated by a point function, charges that function's queries
(:meth:`PointFunction.charge`) for every metered evaluation. Privileged code
(constructors, verifiers) may use the ``*_int`` accessors and the tables,
which charge nothing.

The quantum engine reads a mixer as stacked index-by-element tables
(:meth:`MixerOracle.permutation_tables`), built on its first quantum use and
cached on the oracle.
"""

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .bits import as_int, from_bits, to_bits
from .errors import BudgetExhaustedError, InvalidArgumentError

if TYPE_CHECKING:
    from .instances import PointFunction

# the kinds a QuerySession counts: the six classical operations, then the
# component projector's controlled-mixer steps and index-register projections
QUERY_KINDS = (
    "membership_S", "sample_S", "membership_Ind", "sample_Ind", "apply", "apply_inverse",
    "CM", "project_Ind",
)


@dataclass(frozen=True)
class MixerIndex:
    """An index into the mixer family, as a fixed-width bit string."""

    bits: str

    def as_int(self) -> int:
        return from_bits(self.bits)


class MixerOracle:
    """An indexed family of maps on a subset S of n-bit strings.

    ``index_ints`` is the canonical enumeration of valid index encodings;
    its order defines the basis of the quantum index register. The first
    entry is the identity map for every construction in this package.
    Members lie in [0, 2^n) and index encodings in [0, 2^index_width), so
    each is its own bit-string decoding. ``point`` is the point function
    that gates the maps, if any; sessions charge it per metered evaluation.

    A step-1 ``range`` of members or index encodings is kept as it is: it is
    already sorted, and ``in``, ``len`` and indexing on it are O(1), so an
    oracle over whole ranges is built without enumerating them. Any other
    collection is copied into a tuple and a frozenset. A metered int query
    tests a kept range by its bounds, ``start <= v < stop``, and any other
    collection by its frozenset.
    """

    def __init__(
        self,
        n: int,
        index_width: int,
        members,
        index_ints,
        apply_fn,
        inverse_fn,
        name: str = "",
        point: "PointFunction | None" = None,
    ):
        self.n = n
        self.index_width = index_width
        self.members, self._member_set = _sequence_and_set(sorted, members)
        self.index_ints, self._index_set = _sequence_and_set(tuple, index_ints)
        # how a metered query tests an int index, then an int member
        self._int_tests = (*_int_test(self._index_set), *_int_test(self._member_set))
        self.name = name
        self._apply_fn = apply_fn
        self._inverse_fn = inverse_fn
        self.point = point
        self._tables: tuple[np.ndarray, np.ndarray] | None = None

    # -- privileged accessors (not metered) --------------------------------

    def is_member(self, x: int) -> bool:
        return x in self._member_set

    def apply_int(self, enc: int, x: int) -> int:
        return self._checked(self._apply_fn, enc, x)

    def inverse_int(self, enc: int, x: int) -> int:
        return self._checked(self._inverse_fn, enc, x)

    def _checked(self, fn, enc: int, x: int) -> int:
        if enc not in self._index_set:
            raise InvalidArgumentError(f"{enc} is not a valid index encoding")
        if x not in self._member_set:
            raise InvalidArgumentError(f"{x} is not a member of S")
        return fn(enc, x)

    def permutation_table(self, enc: int) -> np.ndarray:
        """Basis map of M_i on all 2^n strings; identity off S.

        Built afresh on every call; :meth:`permutation_tables` stacks these
        rows once per oracle. Raises if the resulting table is not a
        bijection (exact mixers always are; the Grover embedding with a
        marked point is not).
        """
        dim = 1 << self.n
        fn = self._apply_fn
        table = np.array([fn(enc, s) if s in self._member_set else s for s in range(dim)])
        if len(set(table.tolist())) != dim:
            raise InvalidArgumentError(
                f"mixer {self.name or '?'} index {enc} is not a bijection"
            )
        return table

    def permutation_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """Stacked basis maps of every M_i and of its inverse.

        Returns ``(fwd, inv)``, both of shape (|Ind|, 2^n) with rows in
        ``index_ints`` order: ``fwd[j, x]`` is M_j(x) and ``inv[j]``, the
        row-wise ``argsort`` of ``fwd[j]``, is the basis map of M_j^-1. The
        pair is built from :meth:`permutation_table` on first use and cached
        on the oracle, so oracles that never enter the quantum engine build
        no tables.
        """
        if self._tables is None:
            fwd = np.stack([self.permutation_table(enc) for enc in self.index_ints])
            tables = (fwd, np.argsort(fwd, axis=1))
            for table in tables:  # shared by every caller
                table.flags.writeable = False
            self._tables = tables
        return self._tables

    # -- session factory ----------------------------------------------------

    def session(self, rng=None, budget=None) -> "QuerySession":
        return QuerySession(self, rng=rng, budget=budget)


def _sequence_and_set(order, values):
    """``values`` as an indexable sequence (``order(values)``) and a set to
    test membership in; a step-1 range serves as both."""
    if type(values) is range and values.step == 1:
        return values, values
    seq = tuple(order(values))
    return seq, frozenset(seq)


def _int_test(values):
    """How a metered query tests an int against ``values``, the oracle's set
    of members or index encodings: ``(start, stop, None)`` for a step-1
    range, which holds exactly the ints in [start, stop), else
    ``(0, 0, values)`` for a frozenset, tested by ``in``."""
    if type(values) is range:
        return values.start, values.stop, None
    return 0, 0, values


def _metered_apply(kind: str, fn_name: str):
    """``QuerySession.apply`` or ``apply_inverse`` (``kind``), running the
    oracle's map ``fn_name``.

    The query is charged first, so an exhausted budget is reported before a
    bad argument. A plain ``int`` pair that is a valid index and member is
    passed to the map as is (:func:`_int_test`), since each fits its width
    and the bit-string conversion would return it unchanged. Every other
    argument (bit strings, ``MixerIndex``, bools, numpy integers,
    out-of-range or non-member ints) goes through the conversion and its
    checks, and a bit-string element is answered as a bit string.
    """
    def metered(self, i, x):
        self.queries[kind] += 1
        if self.budget is not None:
            self._check_budget()
        oracle = self.oracle
        ilo, ihi, iset, xlo, xhi, xset = oracle._int_tests
        if (type(i) is int and type(x) is int
                and (ilo <= i < ihi if iset is None else i in iset)
                and (xlo <= x < xhi if xset is None else x in xset)):
            point = oracle.point
            if point is not None:
                point.queries += 2  # PointFunction.charge(), inlined
            return getattr(oracle, fn_name)(i, x)
        enc = self._index_int(i)
        xi = as_int(x, oracle.n)
        if enc not in oracle._index_set:
            raise InvalidArgumentError(f"invalid index encoding {enc}")
        if xi not in oracle._member_set:
            raise InvalidArgumentError(f"{x!r} is not a member of S")
        if oracle.point is not None:
            oracle.point.charge()
        out = getattr(oracle, fn_name)(enc, xi)
        return to_bits(out, oracle.n) if isinstance(x, str) else out

    metered.__name__ = kind
    metered.__qualname__ = f"QuerySession.{kind}"
    return metered


class QuerySession:
    """Metered handle to a mixer oracle.

    One session per trial; a session must not be shared between concurrent
    activities. ``queries`` counts every query charged to the session by
    kind (:data:`QUERY_KINDS`); the budget bounds their sum. An application
    that passes its checks, and every controlled-mixer step the quantum
    engine charges here, also charges the oracle's point function.

    ``apply``/``apply_inverse`` share one implementation,
    :func:`_metered_apply`, which charges inline and passes a valid plain
    ``int`` pair to the map after one bounds or set test each.
    """

    def __init__(self, oracle: MixerOracle, rng=None, budget=None):
        self.oracle = oracle
        self.rng = rng if rng is not None else np.random.default_rng()
        self.budget = budget
        self.queries = dict.fromkeys(QUERY_KINDS, 0)

    def charge(self, kind: str, count: int = 1):
        self.queries[kind] += count
        if self.budget is not None:
            self._check_budget()

    def _check_budget(self):
        if sum(self.queries.values()) > self.budget:
            raise BudgetExhaustedError(f"query budget {self.budget} exhausted")

    def _index_int(self, i) -> int:
        if isinstance(i, MixerIndex):
            i = i.bits
        return as_int(i, self.oracle.index_width)

    # -- the six query operations -------------------------------------------

    def test_membership_s(self, x) -> bool:
        self.charge("membership_S")
        return as_int(x, self.oracle.n) in self.oracle._member_set

    def sample_s(self):
        self.charge("sample_S")
        x = self.oracle.members[self.rng.integers(len(self.oracle.members))]
        return int(x)

    def test_membership_ind(self, i) -> bool:
        self.charge("membership_Ind")
        return self._index_int(i) in self.oracle._index_set

    def sample_ind(self) -> MixerIndex:
        self.charge("sample_Ind")
        enc = self.oracle.index_ints[self.rng.integers(len(self.oracle.index_ints))]
        return MixerIndex(to_bits(enc, self.oracle.index_width))

    apply = _metered_apply("apply", "_apply_fn")
    apply_inverse = _metered_apply("apply_inverse", "_inverse_fn")


class LabelOracle:
    """A queryable labeling function.

    ``valid`` records whether the label is consistent with the mixer it was
    built for; it is constructor metadata, hidden from algorithms under test.
    ``point`` is the point function that gates the label, if any;
    :class:`LabelSession` charges it per query.
    """

    def __init__(
        self, width: int, label_width: int, fn, valid=None,
        point: "PointFunction | None" = None, name: str = "",
    ):
        self.width = width
        self.label_width = label_width
        self._fn = fn
        self._valid = valid
        self.point = point
        self.name = name

    @property
    def valid(self):
        return self._valid

    def label_int(self, x: int) -> int:
        """Privileged evaluation, not metered."""
        return self._fn(x)

    def query(self, x):
        """Evaluation on a bit string or int, answered in the same type; the
        metering is :meth:`LabelSession.query`'s."""
        out = self._fn(as_int(x, self.width))
        return to_bits(out, self.label_width) if isinstance(x, str) else out

    def session(self, budget=None) -> "LabelSession":
        return LabelSession(self, budget=budget)


class LabelSession:
    """Metered, optionally budgeted handle to a label oracle."""

    def __init__(self, label: LabelOracle, budget=None):
        self.label = label
        self.budget = budget
        self.queries = 0

    def query(self, x):
        self.queries += 1
        if self.budget is not None and self.queries > self.budget:
            raise BudgetExhaustedError(f"label budget {self.budget} exhausted")
        out = self.label.query(x)  # g is charged once the input is well formed
        if self.label.point is not None:
            self.label.point.charge()
        return out
