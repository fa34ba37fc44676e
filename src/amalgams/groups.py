"""Group backends with decidable structure tests.

Two backends: a finite multiplication table and a free group on a
symbol list. Subgroups are descriptors: a generated subgroup of a
finite table (kept as its closure) or the letter-support subgroup of a
free group (never materialized). Double cosets and malnormality are
decided exactly on both; any other pair raises.

Every predicate here is exact and returns a plain bool. The package's
"inconclusive" outcomes come only from the C' gray zone and Dehn's
round budget or gray label run.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from amalgams import words


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

    def is_identity(self, a: "Element") -> bool:
        self._check_owner(a)
        return self._is_identity_payload(a.payload)

    def element(self, payload) -> "Element":
        return Element(self, self._normalize_payload(payload))

    def payload_to_json(self, payload):
        raise NotImplementedError

    # backend hooks
    def _mul_payload(self, a, b):
        raise NotImplementedError

    def _inv_payload(self, a):
        raise NotImplementedError

    def _is_identity_payload(self, a) -> bool:
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

    def _spot_check_associativity(self) -> None:
        n = self.order
        triples = itertools.product(range(n), repeat=3)
        step = max(1, n ** 3 // 64)
        for a, b, c in itertools.islice(triples, 0, None, step):
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

    def _is_identity_payload(self, a: int) -> bool:
        return a == self._identity

    def _normalize_payload(self, payload) -> int:
        g = int(payload)
        if not 0 <= g < self.order:
            raise ValueError(f"element index {g} out of range")
        return g

    def payload_to_json(self, payload):
        return payload

    @classmethod
    def cyclic(cls, n: int) -> "FiniteTableGroup":
        table = [[(i + j) % n for j in range(n)] for i in range(n)]
        return cls(table, name=f"Z{n}")

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
    """Free group on a declared alphabet; payloads are reduced words.

    Every element of a free group wraps a freely reduced payload:
    `element` reduces its input, `mul` and `inv` keep reducedness, and
    the package builds `Element(F, payload)` directly only on a
    generator, the identity, a slice of a reduced payload (an outer
    H-segment, a transversal core) or the payload of an element of
    another free group, all reduced too. `mul` relies on this: it
    cancels only at the seam.
    """

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

    def _mul_payload(self, a, b):
        # a and b are reduced, so a·b can cancel only where they meet:
        # strip the k letters a[-1-k] that are inverse to b[k]
        n, k = len(a), 0
        stop = min(n, len(b))
        while k < stop:
            x, y = a[n - 1 - k], b[k]
            if x[0] != y[0] or x[1] != -y[1]:
                break
            k += 1
        return a[:n - k] + b[k:]

    def _inv_payload(self, a):
        return words.inverse(a)

    def _is_identity_payload(self, a) -> bool:
        return len(a) == 0

    def _normalize_payload(self, payload):
        w = words.word(payload)
        for sym, _ in w:
            if sym not in self.symbols:
                raise ValueError(f"{sym!r} is not a generator of {self.name}")
        return words.free_reduce(w)

    def payload_to_json(self, payload):
        return words.to_json(payload)


# ---------------------------------------------------------------------------
# subgroup descriptors


class SubgroupDescriptor:
    """Symbolic subgroup of a fixed group."""

    group: GroupHandle

    def contains(self, g: Element) -> bool:
        raise NotImplementedError

    def is_trivial(self) -> bool:
        raise NotImplementedError


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

    def contains(self, g: Element) -> bool:
        self.group._check_owner(g)
        return g.payload in self._closure

    def is_trivial(self) -> bool:
        return len(self._closure) == 1

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

    def contains(self, g: Element) -> bool:
        self.group._check_owner(g)
        return all(sym in self.symbols for sym, _ in g.payload)

    def is_trivial(self) -> bool:
        return not self.symbols

    def __repr__(self) -> str:
        return f"<F({sorted(map(str, self.symbols))}) <= {self.group.name}>"


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


def in_double_coset(g: Element, sub: SubgroupDescriptor, h: Element) -> bool:
    """Is g an element of sub * h * sub?"""
    group = sub.group
    group._check_owner(g)
    group._check_owner(h)
    if isinstance(sub, FiniteGeneratedSubgroup):
        for u in sub._closure:
            uh = group.table[u][h.payload]
            for v in sub._closure:
                if group.table[uh][v] == g.payload:
                    return True
        return False
    if isinstance(sub, LetterSupportSubgroup):
        # In a free group with H generated by a sub-alphabet, u*h*v reduces
        # without cancelling any non-H letter, so the skeleton and the inner
        # H-segments of the reduced word are double-coset invariants; the
        # outer segments are absorbed by H exactly.
        skel_g, segs_g = segments(g.payload, sub.symbols)
        skel_h, segs_h = segments(h.payload, sub.symbols)
        if skel_g != skel_h:
            return False
        if not skel_g:
            # both lie in H itself
            return True
        return segs_g[1:-1] == segs_h[1:-1]
    raise TypeError(f"no double-coset procedure for {type(sub).__name__}")


def good_fellows(g: Element, h: Element, sub: SubgroupDescriptor) -> bool:
    """True iff g lies in neither sub*h*sub nor sub*h^-1*sub."""
    return not (in_double_coset(g, sub, h)
                or in_double_coset(g, sub, h.inv()))


def is_malnormal(sub: SubgroupDescriptor, ambient: GroupHandle) -> bool:
    """Is sub malnormal in ambient: conjugates of sub minus 1 by outside
    elements meet sub trivially. Decided for a subgroup of a finite
    table, by trying every conjugator, and for a letter-support subgroup
    of a free group; any other pair raises TypeError."""
    if sub.is_trivial():
        return True
    if isinstance(sub, FiniteGeneratedSubgroup):
        if sub.group is not ambient:
            raise ValueError("descriptor must live in the ambient group")
        ident = ambient._identity
        members = sub._closure
        for g in range(ambient.order):
            if g in members:
                continue
            ginv = ambient._inv_payload(g)
            for h in members:
                if h == ident:
                    continue
                conj = ambient.table[ambient.table[ginv][h]][g]
                if conj in members:
                    return False
        return True
    if isinstance(ambient, FreeGroup) and isinstance(sub, LetterSupportSubgroup):
        # g^-1 h g for h in H minus 1 and g outside H keeps a nonempty
        # skeleton (the conjugating skeleton letters cannot cancel across
        # the nontrivial H-core), so the conjugate is never in H.
        return True
    raise TypeError(f"no malnormality procedure for {type(sub).__name__} "
                    f"in {type(ambient).__name__}")


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
