"""Ground-truth partitions of n-bit strings into components.

A :class:`GroundTruthPartition` is the privileged, explicit element-to-
component map. Constructors, verifiers, and unbounded provers may hold it;
algorithms under test only ever see oracle handles.
"""

import json

from .bits import from_bits, to_bits
from .errors import InvalidArgumentError, check_int


class GroundTruthPartition:
    """Explicit partition of a subset S of n-bit strings into components.

    Component ids run from 1 to ``num_components``; each component's
    canonical ordering is ascending numeric order of its members. Strings
    outside ``members`` form the garbage set G.
    """

    def __init__(self, n: int, component_of: dict[int, int]):
        if n < 1:
            raise InvalidArgumentError("n must be positive")
        if not component_of:
            raise InvalidArgumentError("partition must have at least one member")
        self.n = n
        self.component_of = dict(component_of)
        comps: dict[int, list[int]] = {}
        for x, cid in self.component_of.items():
            if x < 0 or x >= 1 << n:
                raise InvalidArgumentError(f"member {x} out of range for n={n}")
            comps.setdefault(cid, []).append(x)
        c = len(comps)
        if sorted(comps) != list(range(1, c + 1)):
            raise InvalidArgumentError(f"component ids must be exactly 1..{c}")
        self._components = {cid: tuple(sorted(xs)) for cid, xs in comps.items()}
        self.members = tuple(sorted(self.component_of))
        self._member_set = frozenset(self.members)

    @classmethod
    def from_components(cls, n: int, components) -> "GroundTruthPartition":
        """Build from an iterable of element collections, ids in given order."""
        component_of = {}
        for cid, elems in enumerate(components, start=1):
            for x in elems:
                if x in component_of:
                    raise InvalidArgumentError(f"element {x} appears in two components")
                component_of[x] = cid
        return cls(n, component_of)

    @property
    def num_components(self) -> int:
        return len(self._components)

    @property
    def garbage(self) -> tuple[int, ...]:
        return tuple(x for x in range(1 << self.n) if x not in self._member_set)

    def __contains__(self, x: int) -> bool:
        return x in self._member_set

    def component_id(self, x: int) -> int:
        try:
            return self.component_of[x]
        except KeyError:
            raise InvalidArgumentError(f"{x} is not a member of S") from None

    def component_elements(self, cid: int) -> tuple[int, ...]:
        try:
            return self._components[cid]
        except KeyError:
            raise InvalidArgumentError(
                f"no component {cid!r}: component ids run 1..{self.num_components}"
            ) from None

    def component_sizes(self) -> tuple[int, ...]:
        return tuple(len(self._components[c]) for c in sorted(self._components))

    def same_component(self, s: int, t: int) -> bool:
        return self.component_id(s) == self.component_id(t)

    def mbcp_promise_holds(self) -> bool:
        """Either a single component, or no component exceeds half of S."""
        if self.num_components == 1:
            return True
        return max(self.component_sizes()) <= len(self.members) / 2

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "members": [to_bits(x, self.n) for x in self.members],
            "component_of": {
                to_bits(x, self.n): cid for x, cid in sorted(self.component_of.items())
            },
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "GroundTruthPartition":
        if not isinstance(doc, dict):
            raise InvalidArgumentError(f"a partition must be a JSON object, got {doc!r}")
        missing = {"n", "members", "component_of"} - set(doc)
        if missing:
            raise InvalidArgumentError(f"partition is missing fields {sorted(missing)}")
        n = check_int(doc["n"], "partition n")
        if not isinstance(doc["component_of"], dict) or not isinstance(doc["members"], list):
            raise InvalidArgumentError(
                "partition component_of must be a JSON object and members a list"
            )
        component_of = {
            from_bits(s, n): check_int(c, "partition component id")
            for s, c in doc["component_of"].items()
        }
        members = {from_bits(s, n) for s in doc["members"]}
        if members != set(component_of):
            raise InvalidArgumentError("members and component_of keys disagree")
        return cls(n, component_of)

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def loads(cls, text: str) -> "GroundTruthPartition":
        return cls.from_json_dict(json.loads(text))
