"""Group backends with decidable structure tests.

Two backends: a finite multiplication table and a free group on a
symbol list. Subgroups are descriptors: a generated subgroup of a
finite table (kept as its closure) or the letter-support subgroup of a
free group (never materialized). Each descriptor decides double cosets
and malnormality in its own group exactly: it labels every element by
its double coset H·g·H, and ``is_malnormal`` asks about its own group.

Every predicate here is exact and returns a plain bool. The package's
"inconclusive" outcomes come only from the C' gray zone and Dehn's
round budget or gray label run.
"""

from __future__ import annotations

import itertools
from typing import Dict, Hashable, List, NamedTuple, Optional, Sequence, Tuple

from amalgams import words


class GroupHandle:
    """Base class for group backends."""

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


class Element(NamedTuple):
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

    def __init__(self, table: Sequence[Sequence[int]], name: str = "finite"):
        self.name = name
        self.table = tuple(tuple(row) for row in table)
        self.order = len(self.table)
        for a, row in enumerate(self.table):
            if len(row) != self.order:
                raise ValueError("multiplication table must be square")
            for b, c in enumerate(row):  # the rule of _normalize_payload
                if type(c) is not int or not 0 <= c < self.order:
                    raise ValueError(f"table cell ({a},{b}) must be an "
                                     f"element index, not {c!r}")
        self._identity = self._find_identity()
        self._inverse = self._find_inverses()
        self._check_associativity()

    def _find_identity(self) -> int:
        for e in range(self.order):
            if all(
                self.table[e][g] == g and self.table[g][e] == g
                for g in range(self.order)
            ):
                return e
        raise ValueError("table has no identity element")

    def _find_inverses(self) -> Tuple[int, ...]:
        e = self._identity
        for g, row in enumerate(self.table):
            if e not in row:
                raise ValueError(f"element {g} has no inverse")
        return tuple(row.index(e) for row in self.table)

    def _check_associativity(self) -> None:
        """Light's test. The elements g with (x·g)·y = x·(g·y) for all
        x, y include the identity and are closed under products, so the
        table is associative when they include a set whose products
        reach every element. The set is picked greedily: each element
        not yet reached joins it."""
        t, n = self.table, self.order
        gens, reached = [], {self._identity}
        for g in range(n):
            if g in reached:
                continue
            gens.append(g)
            todo = [g] + [t[c][g] for c in reached]
            while todo:
                c = todo.pop()
                if c not in reached:
                    reached.add(c)
                    todo.extend(t[c][s] for s in gens)
        for g in gens:
            for x in range(n):
                # (x·g)·y and x·(g·y) for every y at once
                left, right = t[t[x][g]], tuple(map(t[x].__getitem__, t[g]))
                if left != right:
                    y = next(y for y in range(n) if left[y] != right[y])
                    raise ValueError(
                        f"table not associative at ({x},{g},{y})")

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

    def _normalize_payload(self, g) -> int:
        # not int(): 2.7, "3" and True are not element indices
        if type(g) is not int:
            raise ValueError(f"element index must be an int, not {g!r}")
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
    """Symbolic subgroup H of a fixed group, with its double cosets."""

    group: GroupHandle

    def contains(self, g: Element) -> bool:
        raise NotImplementedError

    def double_coset_label(self, g: Element) -> Hashable:
        """A label of g that equals the label of h exactly when
        H·g·H = H·h·H."""
        raise NotImplementedError

    def is_malnormal(self) -> bool:
        """Is H malnormal in its group: do the conjugates of H minus 1
        by elements outside H meet H trivially?"""
        raise NotImplementedError


class FiniteGeneratedSubgroup(SubgroupDescriptor):
    """Subgroup of a finite-table group generated by a list of elements.

    Its double-coset label is the least element of H·g·H, read from a
    table built with the descriptor; malnormality is decided by trying
    every conjugator."""

    def __init__(self, group: FiniteTableGroup, generators: Sequence[Element]):
        if not isinstance(group, FiniteTableGroup):
            raise TypeError("FiniteGeneratedSubgroup needs a finite-table group")
        self.group = group
        self.generators = tuple(generators)
        for g in self.generators:
            group._check_owner(g)
        self._closure = self._compute_closure()
        self._labels = self._compute_labels()

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

    def _compute_labels(self) -> List[int]:
        table, members = self.group.table, self._closure
        labels = [-1] * self.group.order
        for g in range(self.group.order):
            if labels[g] >= 0:
                continue
            orbit = {table[table[u][g]][v] for u in members for v in members}
            rep = min(orbit)
            for x in orbit:
                labels[x] = rep
        return labels

    def contains(self, g: Element) -> bool:
        self.group._check_owner(g)
        return g.payload in self._closure

    def double_coset_label(self, g: Element) -> int:
        self.group._check_owner(g)
        return self._labels[g.payload]

    def is_malnormal(self) -> bool:
        group, members = self.group, self._closure
        for g in range(group.order):
            if g in members:
                continue
            ginv = group._inv_payload(g)
            for h in members:
                if h == group._identity:
                    continue
                if group.table[group.table[ginv][h]][g] in members:
                    return False
        return True

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

    def double_coset_label(self, g: Element, split=None) -> Hashable:
        """The label "H" for an element of H, else its skeleton and
        inner H-segments. u·g·v with u, v in H reduces without cancelling any
        letter outside H, so the skeleton and the inner H-segments of
        the reduced word are double-coset invariants; H absorbs the
        outer segments exactly. ``split``, if given, is
        ``segments(g.payload, self.symbols)``."""
        self.group._check_owner(g)
        skel, segs = split or segments(g.payload, self.symbols)
        if not skel:
            return "H"
        return tuple(skel), tuple(segs[1:-1])

    def is_malnormal(self) -> bool:
        # g^-1 h g for h in H minus 1 and g outside H keeps a nonempty
        # skeleton (the conjugating skeleton letters cannot cancel across
        # the nontrivial H-core), so the conjugate is never in H
        return True

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
    return sub.double_coset_label(g) == sub.double_coset_label(h)


def good_fellows(g: Element, h: Element, sub: SubgroupDescriptor) -> bool:
    """True iff g lies in neither sub*h*sub nor sub*h^-1*sub."""
    return not (in_double_coset(g, sub, h)
                or in_double_coset(g, sub, h.inv()))


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
