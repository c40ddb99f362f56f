"""Black-box query access to component mixers and labeling functions.

A :class:`MixerOracle` bundles the six classical query operations (membership
tests, samplers, forward/inverse application). Algorithms under test go
through a :class:`QuerySession`, which meters every query and can enforce a
budget. Privileged code (constructors, verifiers) may use the underscore-free
``*_int`` accessors, which do not count queries.

The quantum engine reads a mixer as stacked index-by-element tables
(:meth:`MixerOracle.permutation_tables`), built on its first quantum use and
cached on the oracle.
"""

from dataclasses import dataclass

import numpy as np

from .bits import as_int, from_bits, to_bits
from .errors import BudgetExhaustedError, InvalidArgumentError


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
    each is its own bit-string decoding.
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
        on_metered_apply=None,
    ):
        self.n = n
        self.index_width = index_width
        self.members = tuple(sorted(members))
        self.index_ints = tuple(index_ints)
        self.name = name
        self._member_set = frozenset(self.members)
        self._index_set = frozenset(self.index_ints)
        self._apply_fn = apply_fn
        self._inverse_fn = inverse_fn
        # Side-channel accounting (e.g. point-function queries) charged only
        # when an application goes through a metered session.
        self._on_metered_apply = on_metered_apply
        # alpha -> (fwd, inv) stacked tables, see permutation_tables
        self._tables: dict[int, tuple[np.ndarray, np.ndarray]] = {}

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

    def permutation_table(self, enc: int, alpha: int = 1) -> np.ndarray:
        """Basis map of M_i^alpha (alpha = 1 or -1) on all 2^n strings;
        identity off S.

        Built afresh on every call; :meth:`permutation_tables` stacks these
        rows once per oracle. Raises if the resulting table is not a
        bijection (exact mixers always are; the Grover embedding with a
        marked point is not).
        """
        dim = 1 << self.n
        fn = {1: self._apply_fn, -1: self._inverse_fn}[alpha]
        table = np.array([fn(enc, s) if s in self._member_set else s for s in range(dim)])
        if len(set(table.tolist())) != dim:
            raise InvalidArgumentError(
                f"mixer {self.name or '?'} index {enc} is not a bijection"
            )
        return table

    def permutation_tables(self, alpha: int = 1) -> tuple[np.ndarray, np.ndarray]:
        """Stacked basis maps of M_i^alpha for every index, and their inverses.

        Returns ``(fwd, inv)``, both of shape (|Ind|, 2^n) with rows in
        ``index_ints`` order: ``fwd[j, x]`` is M_j^alpha(x) and ``inv[j]`` is
        the row-wise ``argsort`` of ``fwd[j]``. The pair is built from
        :meth:`permutation_table` on first use and cached on the oracle, so
        oracles that never enter the quantum engine build no tables.
        """
        tables = self._tables.get(alpha)
        if tables is None:
            fwd = np.stack([self.permutation_table(enc, alpha) for enc in self.index_ints])
            tables = (fwd, np.argsort(fwd, axis=1))
            for table in tables:  # shared by every caller
                table.flags.writeable = False
            self._tables[alpha] = tables
        return tables

    # -- session factory ----------------------------------------------------

    def session(self, rng=None, budget=None, coherent=False) -> "QuerySession":
        return QuerySession(self, rng=rng, budget=budget, coherent=coherent)


class QuerySession:
    """Metered handle to a mixer oracle.

    One session per trial; a session must not be shared between concurrent
    activities. ``coherent=True`` routes applications through the oracle's
    coherent-evaluation path (relevant only where that path carries extra
    side-channel accounting, e.g. point-function queries).

    ``apply``/``apply_inverse`` take a plain ``int`` that is already a valid
    index (or member) as is, skipping the bit-string conversion: every index
    and member fits its width, so the conversion would return it unchanged.
    Every other argument (bit strings, ``MixerIndex``, bools, numpy
    integers, out-of-range or non-member ints) goes through the full
    conversion and checks, with the same errors in the same order. The query
    is charged first either way, so an exhausted budget is reported before a
    bad argument.
    """

    def __init__(self, oracle: MixerOracle, rng=None, budget=None, coherent=False):
        self.oracle = oracle
        self.rng = rng if rng is not None else np.random.default_rng()
        self.budget = budget
        self.coherent = coherent
        self.classical_queries = 0
        self.quantum_queries = 0
        self.apply_calls = 0
        self.quantum_breakdown: dict[str, int] = {}

    def _charge(self):
        self.classical_queries += 1
        self._check_budget()

    def charge_quantum(self, kind: str, count: int = 1):
        self.quantum_queries += count
        self.quantum_breakdown[kind] = self.quantum_breakdown.get(kind, 0) + count
        self._check_budget()

    def _check_budget(self):
        if self.budget is not None:
            if self.classical_queries + self.quantum_queries > self.budget:
                raise BudgetExhaustedError(
                    f"query budget {self.budget} exhausted"
                )

    def _index_int(self, i) -> int:
        if isinstance(i, MixerIndex):
            i = i.bits
        return as_int(i, self.oracle.index_width)

    # -- the six query operations -------------------------------------------

    def test_membership_s(self, x) -> bool:
        self._charge()
        return as_int(x, self.oracle.n) in self.oracle._member_set

    def sample_s(self):
        self._charge()
        x = self.oracle.members[self.rng.integers(len(self.oracle.members))]
        return int(x)

    def test_membership_ind(self, i) -> bool:
        self._charge()
        return self._index_int(i) in self.oracle._index_set

    def sample_ind(self) -> MixerIndex:
        self._charge()
        enc = self.oracle.index_ints[self.rng.integers(len(self.oracle.index_ints))]
        return MixerIndex(to_bits(enc, self.oracle.index_width))

    def apply(self, i, x):
        return self._metered_apply(self.oracle._apply_fn, i, x)

    def apply_inverse(self, i, x):
        return self._metered_apply(self.oracle._inverse_fn, i, x)

    def _metered_apply(self, fn, i, x):
        self._charge()
        self.apply_calls += 1
        oracle = self.oracle
        # an int already in the set is what the conversion would return
        enc = i if type(i) is int and i in oracle._index_set else self._index_int(i)
        xi = x if type(x) is int and x in oracle._member_set else as_int(x, oracle.n)
        if enc not in oracle._index_set:
            raise InvalidArgumentError(f"invalid index encoding {enc}")
        if xi not in oracle._member_set:
            raise InvalidArgumentError(f"{x!r} is not a member of S")
        if oracle._on_metered_apply is not None:
            oracle._on_metered_apply(enc, xi, self.coherent)
        out = fn(enc, xi)
        return to_bits(out, oracle.n) if isinstance(x, str) else out


class LabelOracle:
    """A queryable labeling function.

    ``valid`` records whether the label is consistent with the mixer it was
    built for; it is constructor metadata, hidden from algorithms under test.
    """

    def __init__(self, width: int, label_width: int, fn, valid=None,
                 on_metered_query=None, name: str = ""):
        self.width = width
        self.label_width = label_width
        self._fn = fn
        self._valid = valid
        self._on_metered_query = on_metered_query
        self.name = name

    @property
    def valid(self):
        return self._valid

    def label_int(self, x: int) -> int:
        """Privileged evaluation, not metered."""
        return self._fn(x)

    def query(self, x, coherent=False):
        xi = as_int(x, self.width)
        if self._on_metered_query is not None:
            self._on_metered_query(xi, coherent)
        out = self._fn(xi)
        return to_bits(out, self.label_width) if isinstance(x, str) else out

    def session(self, budget=None, coherent=False) -> "LabelSession":
        return LabelSession(self, budget=budget, coherent=coherent)


class LabelSession:
    """Metered, optionally budgeted handle to a label oracle."""

    def __init__(self, label: LabelOracle, budget=None, coherent=False):
        self.label = label
        self.budget = budget
        self.coherent = coherent
        self.queries = 0

    def query(self, x):
        self.queries += 1
        if self.budget is not None and self.queries > self.budget:
            raise BudgetExhaustedError(f"label budget {self.budget} exhausted")
        return self.label.query(x, coherent=self.coherent)
