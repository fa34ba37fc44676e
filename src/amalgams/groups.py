"""Group backends with decidable (or honestly three-valued) structure tests.

Backends: finite multiplication table, free group, the integers, and the
amalgam-quotient backend built in :mod:`amalgams.cancellation`. Subgroups
are symbolic descriptors, never materialized element sets.
"""

from __future__ import annotations

import enum
import itertools
import json
from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from amalgams import words


class Tri(enum.Enum):
    YES = "yes"
    NO = "no"
    INCONCLUSIVE = "inconclusive"

    def __bool__(self) -> bool:
        raise TypeError("Tri must be compared explicitly, not truth-tested")


class InconclusiveError(Exception):
    """Raised internally when a decision procedure exhausts its budget."""


def require(t: Tri) -> bool:
    """Collapse a Tri to bool, raising on INCONCLUSIVE."""
    if t is Tri.INCONCLUSIVE:
        raise InconclusiveError
    return t is Tri.YES


class GroupHandle:
    """Base class for group backends."""

    kind: str = "abstract"
    name: str = "?"

    def identity(self) -> "Element":
        raise NotImplementedError

    def mul(self, a: "Element", b: "Element") -> "Element":
        self._check_owner(a)
        self._check_owner(b)
        return Element(self, self._mul_payload(a.payload, b.payload))

    def inv(self, a: "Element") -> "Element":
        self._check_owner(a)
        return Element(self, self._inv_payload(a.payload))

    def is_identity(self, a: "Element") -> Tri:
        self._check_owner(a)
        return self._is_identity_payload(a.payload)

    def element(self, payload) -> "Element":
        return Element(self, self._normalize_payload(payload))

    def payload_to_json(self, payload):
        raise NotImplementedError

    def payload_from_json(self, data):
        raise NotImplementedError

    # backend hooks
    def _mul_payload(self, a, b):
        raise NotImplementedError

    def _inv_payload(self, a):
        raise NotImplementedError

    def _is_identity_payload(self, a) -> Tri:
        raise NotImplementedError

    def _normalize_payload(self, payload):
        return payload

    def _check_owner(self, a: "Element") -> None:
        if a.owner is not self:
            raise ValueError(f"element of {a.owner.name} used in {self.name}")

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"


@dataclass(frozen=True)
class Element:
    owner: GroupHandle
    payload: Hashable

    def __mul__(self, other: "Element") -> "Element":
        return self.owner.mul(self, other)

    def inv(self) -> "Element":
        return self.owner.inv(self)

    def key(self) -> Tuple[str, Hashable]:
        return (self.owner.name, self.payload)

    def __repr__(self) -> str:
        return f"{self.owner.name}:{self.payload!r}"


class FiniteTableGroup(GroupHandle):
    """Finite group given by a 0-based multiplication table."""

    kind = "finite-table"

    def __init__(self, table: Sequence[Sequence[int]], name: str = "finite"):
        self.name = name
        self.table = tuple(tuple(row) for row in table)
        self.order = len(self.table)
        if any(len(row) != self.order for row in self.table):
            raise ValueError("multiplication table must be square")
        self._identity = self._find_identity()
        self._inverse = self._find_inverses()
        self._spot_check_associativity()

    def _find_identity(self) -> int:
        for e in range(self.order):
            if all(
                self.table[e][g] == g and self.table[g][e] == g
                for g in range(self.order)
            ):
                return e
        raise ValueError("table has no identity element")

    def _find_inverses(self) -> Tuple[int, ...]:
        inv = [-1] * self.order
        for g in range(self.order):
            for h in range(self.order):
                if self.table[g][h] == self._identity:
                    inv[g] = h
                    break
            if inv[g] < 0:
                raise ValueError(f"element {g} has no inverse")
        return tuple(inv)

    def _spot_check_associativity(self, samples: int = 64) -> None:
        n = self.order
        triples = itertools.product(range(n), repeat=3)
        if n ** 3 > samples:
            step = max(1, n ** 3 // samples)
            triples = itertools.islice(triples, 0, None, step)
        for a, b, c in triples:
            if self.table[self.table[a][b]][c] != self.table[a][self.table[b][c]]:
                raise ValueError(f"table not associative at ({a},{b},{c})")

    def identity(self) -> Element:
        return Element(self, self._identity)

    def elements(self) -> List[Element]:
        return [Element(self, g) for g in range(self.order)]

    def _mul_payload(self, a: int, b: int) -> int:
        return self.table[a][b]

    def _inv_payload(self, a: int) -> int:
        return self._inverse[a]

    def _is_identity_payload(self, a: int) -> Tri:
        return Tri.YES if a == self._identity else Tri.NO

    def _normalize_payload(self, payload) -> int:
        g = int(payload)
        if not 0 <= g < self.order:
            raise ValueError(f"element index {g} out of range")
        return g

    def payload_to_json(self, payload):
        return payload

    def payload_from_json(self, data):
        return self._normalize_payload(data)

    def to_json(self) -> dict:
        return {"order": self.order, "table": [list(r) for r in self.table]}

    @classmethod
    def from_json(cls, data: dict, name: str = "finite") -> "FiniteTableGroup":
        if set(data) - {"order", "table", "name"}:
            raise ValueError(f"unexpected keys in table file: {sorted(data)}")
        table = data["table"]
        if "order" in data and data["order"] != len(table):
            raise ValueError("declared order does not match table size")
        return cls(table, name=data.get("name", name))

    @classmethod
    def load(cls, path, name: str = "finite") -> "FiniteTableGroup":
        with open(path) as fh:
            return cls.from_json(json.load(fh), name=name)

    @classmethod
    def cyclic(cls, n: int, name: Optional[str] = None) -> "FiniteTableGroup":
        table = [[(i + j) % n for j in range(n)] for i in range(n)]
        return cls(table, name=name or f"Z{n}")

    @classmethod
    def from_permutations(
        cls, perms: Sequence[Tuple[int, ...]], name: str = "perm"
    ) -> "FiniteTableGroup":
        """Table of a permutation list closed under composition."""
        index = {p: i for i, p in enumerate(perms)}
        if len(index) != len(perms):
            raise ValueError("duplicate permutations")
        table = []
        for p in perms:
            row = []
            for q in perms:
                comp = tuple(p[q[i]] for i in range(len(p)))
                if comp not in index:
                    raise ValueError("permutation list not closed under composition")
                row.append(index[comp])
            table.append(row)
        return cls(table, name=name)

    @classmethod
    def symmetric(cls, n: int) -> "FiniteTableGroup":
        perms = sorted(itertools.permutations(range(n)))
        return cls.from_permutations(perms, name=f"S{n}")


class FreeGroup(GroupHandle):
    """Free group on a declared alphabet; payloads are reduced words."""

    kind = "free"

    def __init__(self, symbols: Sequence[Hashable], name: Optional[str] = None):
        self.symbols = tuple(symbols)
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("duplicate generator symbols")
        self.name = name or "F(" + ",".join(map(str, self.symbols)) + ")"

    def identity(self) -> Element:
        return Element(self, ())

    def generator(self, sym: Hashable, sign: int = 1) -> Element:
        if sym not in self.symbols:
            raise ValueError(f"{sym!r} is not a generator of {self.name}")
        return Element(self, ((sym, sign),))

    def word_element(self, letters: Iterable[Tuple[Hashable, int]]) -> Element:
        return self.element(tuple(letters))

    def _mul_payload(self, a, b):
        return words.free_reduce(a + b)

    def _inv_payload(self, a):
        return words.inverse(a)

    def _is_identity_payload(self, a) -> Tri:
        return Tri.YES if len(a) == 0 else Tri.NO

    def _normalize_payload(self, payload):
        w = words.word(payload)
        for sym, _ in w:
            if sym not in self.symbols:
                raise ValueError(f"{sym!r} is not a generator of {self.name}")
        return words.free_reduce(w)

    def payload_to_json(self, payload):
        return words.to_json(payload)

    def payload_from_json(self, data):
        return self._normalize_payload(words.from_json(data))


class IntegerGroup(GroupHandle):
    """The additive integers; the stage-0 backend for a fresh generator."""

    kind = "integer-cyclic"

    def __init__(self, name: str = "Z"):
        self.name = name

    def identity(self) -> Element:
        return Element(self, 0)

    def generator(self) -> Element:
        return Element(self, 1)

    def _mul_payload(self, a: int, b: int) -> int:
        return a + b

    def _inv_payload(self, a: int) -> int:
        return -a

    def _is_identity_payload(self, a: int) -> Tri:
        return Tri.YES if a == 0 else Tri.NO

    def _normalize_payload(self, payload) -> int:
        return int(payload)

    def payload_to_json(self, payload):
        return payload

    def payload_from_json(self, data):
        return int(data)


# ---------------------------------------------------------------------------
# subgroup descriptors


class SubgroupDescriptor:
    """Symbolic subgroup of a fixed group."""

    group: GroupHandle

    def contains(self, g: Element) -> Tri:
        raise NotImplementedError

    def sample(self, budget: int) -> Iterable[Element]:
        """Some elements of the subgroup, identity first; may be partial."""
        raise NotImplementedError

    def is_trivial(self) -> Tri:
        raise NotImplementedError


class TrivialSubgroup(SubgroupDescriptor):
    def __init__(self, group: GroupHandle):
        self.group = group

    def contains(self, g: Element) -> Tri:
        return self.group.is_identity(g)

    def sample(self, budget: int) -> Iterable[Element]:
        return [self.group.identity()]

    def is_trivial(self) -> Tri:
        return Tri.YES

    def __repr__(self) -> str:
        return f"<Trivial <= {self.group.name}>"


class FiniteGeneratedSubgroup(SubgroupDescriptor):
    """Subgroup of a finite-table group generated by a list of elements."""

    def __init__(self, group: FiniteTableGroup, generators: Sequence[Element]):
        if not isinstance(group, FiniteTableGroup):
            raise TypeError("FiniteGeneratedSubgroup needs a finite-table group")
        self.group = group
        self.generators = tuple(generators)
        for g in self.generators:
            group._check_owner(g)
        self._closure = self._compute_closure()

    def _compute_closure(self) -> frozenset:
        seen = {self.group._identity}
        frontier = [self.group._identity]
        gens = [g.payload for g in self.generators]
        gens += [self.group._inv_payload(g) for g in gens]
        while frontier:
            a = frontier.pop()
            for b in gens:
                c = self.group.table[a][b]
                if c not in seen:
                    seen.add(c)
                    frontier.append(c)
        return frozenset(seen)

    def contains(self, g: Element) -> Tri:
        self.group._check_owner(g)
        return Tri.YES if g.payload in self._closure else Tri.NO

    def sample(self, budget: int) -> Iterable[Element]:
        ordered = sorted(self._closure)
        ordered.remove(self.group._identity)
        ordered.insert(0, self.group._identity)
        return [Element(self.group, p) for p in ordered[:budget]]

    def order(self) -> int:
        return len(self._closure)

    def is_trivial(self) -> Tri:
        return Tri.YES if len(self._closure) == 1 else Tri.NO

    def __repr__(self) -> str:
        return f"<gen{list(self.generators)} <= {self.group.name}>"


class LetterSupportSubgroup(SubgroupDescriptor):
    """Subgroup of a free group generated by a subset of the alphabet."""

    def __init__(self, group: FreeGroup, symbols: Sequence[Hashable]):
        if not isinstance(group, FreeGroup):
            raise TypeError("LetterSupportSubgroup needs a free group")
        self.group = group
        self.symbols = frozenset(symbols)
        if not self.symbols <= set(group.symbols):
            raise ValueError("subgroup symbols must be group generators")

    def contains(self, g: Element) -> Tri:
        self.group._check_owner(g)
        ok = all(sym in self.symbols for sym, _ in g.payload)
        return Tri.YES if ok else Tri.NO

    def sample(self, budget: int) -> Iterable[Element]:
        out = [self.group.identity()]
        for sym in sorted(self.symbols, key=str):
            for sign in (1, -1):
                out.append(Element(self.group, ((sym, sign),)))
        return out[:budget]

    def is_trivial(self) -> Tri:
        return Tri.YES if not self.symbols else Tri.NO

    def __repr__(self) -> str:
        return f"<F({sorted(map(str, self.symbols))}) <= {self.group.name}>"


def in_subgroup(g: Element, sub: SubgroupDescriptor) -> Tri:
    return sub.contains(g)


# ---------------------------------------------------------------------------
# double cosets and good fellows


def segments(word_payload, symbols: frozenset):
    """Split a reduced word into (h-segment, skeleton-letter, h-segment, ...)."""
    segs = [[]]
    skel = []
    for letter in word_payload:
        if letter[0] in symbols:
            segs[-1].append(letter)
        else:
            skel.append(letter)
            segs.append([])
    return skel, [tuple(s) for s in segs]


def in_double_coset(g: Element, sub: SubgroupDescriptor, h: Element) -> Tri:
    """Is g an element of sub * h * sub?"""
    group = sub.group
    group._check_owner(g)
    group._check_owner(h)
    if isinstance(sub, TrivialSubgroup):
        return Tri.YES if g.payload == h.payload else Tri.NO
    if isinstance(sub, FiniteGeneratedSubgroup):
        for u in sub._closure:
            uh = group.table[u][h.payload]
            for v in sub._closure:
                if group.table[uh][v] == g.payload:
                    return Tri.YES
        return Tri.NO
    if isinstance(sub, LetterSupportSubgroup):
        # In a free group with H generated by a sub-alphabet, u*h*v reduces
        # without cancelling any non-H letter, so the skeleton and the inner
        # H-segments of the reduced word are double-coset invariants; the
        # outer segments are absorbed by H exactly.
        skel_g, segs_g = segments(g.payload, sub.symbols)
        skel_h, segs_h = segments(h.payload, sub.symbols)
        if skel_g != skel_h:
            return Tri.NO
        if not skel_g:
            # both lie in H itself
            return Tri.YES
        return Tri.YES if segs_g[1:-1] == segs_h[1:-1] else Tri.NO
    raise InconclusiveError(f"no double-coset procedure for {type(sub).__name__}")


def good_fellows(g: Element, h: Element, sub: SubgroupDescriptor) -> Tri:
    """YES iff g lies in neither sub*h*sub nor sub*h^-1*sub."""
    try:
        direct = in_double_coset(g, sub, h)
        if direct is Tri.YES:
            return Tri.NO
        inverted = in_double_coset(g, sub, h.inv())
        if inverted is Tri.YES:
            return Tri.NO
        if direct is Tri.NO and inverted is Tri.NO:
            return Tri.YES
    except InconclusiveError:
        pass
    return Tri.INCONCLUSIVE


def is_malnormal(
    sub: SubgroupDescriptor, ambient: GroupHandle, budget: int = 1000
) -> Tri:
    """Is sub malnormal in ambient: conjugates of sub minus 1 by outside
    elements meet sub trivially."""
    if sub.is_trivial() is Tri.YES:
        return Tri.YES
    if isinstance(ambient, FiniteTableGroup):
        if sub.group is not ambient:
            raise ValueError("descriptor must live in the ambient group")
        ident = ambient._identity
        members = [e.payload for e in sub.sample(ambient.order + 1)]
        member_set = set(members)
        for g in range(ambient.order):
            if g in member_set:
                continue
            ginv = ambient._inv_payload(g)
            for h in members:
                if h == ident:
                    continue
                conj = ambient.table[ambient.table[ginv][h]][g]
                if conj in member_set:
                    return Tri.NO
        return Tri.YES
    if isinstance(ambient, FreeGroup) and isinstance(sub, LetterSupportSubgroup):
        # g^-1 h g for h in H minus 1 and g outside H keeps a nonempty
        # skeleton (the conjugating skeleton letters cannot cancel across
        # the nontrivial H-core), so the conjugate is never in H.
        return Tri.YES
    # generic bounded search: sample conjugators and subgroup elements
    count = 0
    for h in sub.sample(budget):
        if require(ambient.is_identity(h)):
            continue
        for g in ambient_sample(ambient, budget):
            if sub.contains(g) is Tri.YES:
                continue
            conj = ambient.mul(ambient.mul(g.inv(), h), g)
            if sub.contains(conj) is Tri.YES:
                return Tri.NO
            count += 1
            if count >= budget:
                return Tri.INCONCLUSIVE
    return Tri.INCONCLUSIVE


def ambient_sample(group: GroupHandle, budget: int) -> Iterable[Element]:
    if isinstance(group, FiniteTableGroup):
        return group.elements()[:budget]
    if isinstance(group, FreeGroup):
        out = []
        for sym in group.symbols:
            for sign in (1, -1):
                out.append(Element(group, ((sym, sign),)))
        return out[:budget]
    if isinstance(group, IntegerGroup):
        return [Element(group, n) for n in range(1, budget + 1)]
    return []


# ---------------------------------------------------------------------------
# the element registry


class ElementRegistry:
    """Bijection between materialized elements and consecutive codes."""

    def __init__(self) -> None:
        self._code_of: Dict[Tuple[str, Hashable], int] = {}
        self._element_of: List[Element] = []

    def register(self, g: Element) -> int:
        key = g.key()
        code = self._code_of.get(key)
        if code is None:
            code = len(self._element_of)
            self._code_of[key] = code
            self._element_of.append(g)
        return code

    def code_of(self, g: Element) -> Optional[int]:
        return self._code_of.get(g.key())

    def decode(self, code: int) -> Element:
        if not 0 <= code < len(self._element_of):
            raise KeyError(f"code {code} not assigned")
        return self._element_of[code]

    def __len__(self) -> int:
        return len(self._element_of)

    def __contains__(self, g: Element) -> bool:
        return g.key() in self._code_of

    def dump_json(self) -> list:
        return [
            [code, g.owner.name, g.owner.payload_to_json(g.payload)]
            for code, g in enumerate(self._element_of)
        ]
