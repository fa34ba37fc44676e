"""Canonical forms in an amalgamated free product K *_H L.

A canonical word is an alternating sequence of syllables from K minus H
and L minus H (or a single element, or empty for the identity). Two
canonical words represent the same group element exactly when an
interleaving chain of H-elements connects them syllable by syllable
(Lyndon–Schupp, *Combinatorial Group Theory*, IV.2);
``cancellation.cancellation_chain`` walks such chains. ``canonicalize``
returns one representative, and a canonical word is its own normal
form.
"""

from __future__ import annotations

import itertools
from typing import Hashable, Iterable, List, NamedTuple, Optional, Sequence, \
    Tuple

from amalgams.groups import (
    Element,
    ElementRegistry,
    FiniteGeneratedSubgroup,
    FiniteTableGroup,
    FreeGroup,
    GroupHandle,
    SubgroupDescriptor,
    LetterSupportSubgroup,
    segments,
)

K_SIDE = "K"
L_SIDE = "L"


class Syllable(NamedTuple):
    side: str
    elt: Element

    def __repr__(self) -> str:
        return f"{self.side}[{self.elt.payload!r}]"


class CanonicalWord:
    """A word as its tuple of syllables. It is not itself a tuple: its
    length, indexing and truthiness are those of the syllables, and it
    equals and hashes as the record of that one field."""

    __slots__ = ("syllables",)

    def __init__(self, syllables: Tuple[Syllable, ...]):
        self.syllables = syllables

    def __eq__(self, other):
        if type(other) is not CanonicalWord:
            return NotImplemented
        return self.syllables == other.syllables

    def __hash__(self) -> int:
        return hash((self.syllables,))

    def __len__(self) -> int:
        return len(self.syllables)

    def __getitem__(self, i):
        return self.syllables[i]

    def is_empty(self) -> bool:
        return not self.syllables

    def __repr__(self) -> str:
        return "CW(" + " ".join(map(repr, self.syllables)) + ")"


class AmalgamTriple:
    """The data of K *_H L with executable structure tests.

    H is held as one subgroup descriptor per side (``h_subgroup``),
    which decides the double cosets H·g·H that ``coset_label`` reads.
    Subclasses provide H-membership per side, transfer of H-elements
    between the sides, and the seeds of a cancellation chain: every
    H-element h with a·h·b ∈ H (``junction_solutions``), in a fixed
    order, since a chain keeps the first seed that runs longest. A
    subclass with ``label_and_ends`` has at most one seed per junction,
    so its chains can be compared as codes. ``ambient`` is the free
    group on the union alphabet when the amalgam is one (a shared-free
    amalgam), else None.
    """

    name: str = "amalgam"
    ambient: Optional[FreeGroup] = None

    def __init__(self, K: GroupHandle, L: GroupHandle,
                 H_K: SubgroupDescriptor, H_L: SubgroupDescriptor):
        self.K, self.L = K, L
        self._h = {K_SIDE: H_K, L_SIDE: H_L}

    def side_group(self, side: str) -> GroupHandle:
        return self.K if side == K_SIDE else self.L

    def side_of_group(self, group: GroupHandle) -> str:
        if group is self.K:
            return K_SIDE
        if group is self.L:
            return L_SIDE
        raise ValueError(f"{group.name} is not a side of {self.name}")

    def in_H(self, g: Element) -> bool:
        raise NotImplementedError

    def transfer(self, g: Element, side: str) -> Element:
        """Re-express an H-element on the given side."""
        raise NotImplementedError

    def h_subgroup(self, side: str) -> SubgroupDescriptor:
        """H as a subgroup descriptor of the given side group."""
        return self._h[side]

    def coset_label(self, g: Element) -> Hashable:
        """(side, the label of g by the H descriptor of its side): two
        labels are equal exactly when their elements lie on one side and
        in one double coset H·g·H."""
        raise NotImplementedError

    def label_and_ends(
        self, g: Element
    ) -> Optional[Tuple[Hashable, tuple, tuple]]:
        """(coset_label(g), head, tail): g = head · s · tail with head and
        tail the payloads of H-words such that, for a and b outside H
        and P in H, a·P·b ∈ H forces P = tail(a)^-1 · head(b)^-1 and
        then a·P·b = head(a) · tail(b). None when the amalgam has no such
        ends; its cancellation chains are walked by element arithmetic."""
        return None

    def junction_solutions(self, a: Element, b: Element) -> List[Element]:
        """Every H-element h (on a's side) with a·h·b ∈ H."""
        raise NotImplementedError


class TableAmalgam(AmalgamTriple):
    """Amalgam of two finite-table groups along an explicit H-pairing."""

    def __init__(
        self,
        K: FiniteTableGroup,
        L: FiniteTableGroup,
        h_pairs: Sequence[Tuple[int, int]],
        name: str = "amalgam",
    ):
        self.name = name
        self._k2l = {k: l for k, l in h_pairs}
        self._l2k = {l: k for k, l in h_pairs}
        if len(self._k2l) != len(h_pairs) or len(self._l2k) != len(h_pairs):
            raise ValueError("H-pairing must be a bijection")
        self._check_embedding(K, L)
        super().__init__(K, L, *(
            FiniteGeneratedSubgroup(G, [Element(G, p) for p in sorted(h)])
            for G, h in ((K, self._k2l), (L, self._l2k))))

    def _check_embedding(self, K: FiniteTableGroup,
                         L: FiniteTableGroup) -> None:
        if self._k2l.get(K._identity) != L._identity:
            raise ValueError("H-pairing must match identities")
        for a, b in itertools.product(self._k2l, repeat=2):
            left = self._k2l.get(K.table[a][b])  # None: not closed
            right = L.table[self._k2l[a]][self._k2l[b]]
            if left != right:
                raise ValueError("H-pairing is not a homomorphism")

    def in_H(self, g: Element) -> bool:
        side = self.side_of_group(g.owner)
        table = self._k2l if side == K_SIDE else self._l2k
        return g.payload in table

    def transfer(self, g: Element, side: str) -> Element:
        cur = self.side_of_group(g.owner)
        if cur == side:
            return g
        table = self._k2l if cur == K_SIDE else self._l2k
        if g.payload not in table:
            raise ValueError(f"{g!r} is not in H")
        return Element(self.side_group(side), table[g.payload])

    def junction_solutions(self, a: Element, b: Element) -> List[Element]:
        # every H-element is tried, identity first and then by K index,
        # so the first seed of a chain is fixed
        group, side = a.owner, self.side_of_group(a.owner)
        ks = sorted(self._k2l, key=lambda k: (k != self.K._identity, k))
        hs = [Element(group, k if side == K_SIDE else self._k2l[k])
              for k in ks]
        return [h for h in hs if self.in_H(group.mul(group.mul(a, h), b))]

    def coset_label(self, g: Element) -> Hashable:
        side = self.side_of_group(g.owner)
        return (side, self._h[side].double_coset_label(g))


class SharedFreeAmalgam(AmalgamTriple):
    """Amalgam of two free groups sharing the H sub-alphabet.

    The side alphabets overlap exactly in the H-symbols, so the amalgam
    is the free group on the union alphabet; this makes every structure
    test exact.
    """

    def __init__(
        self,
        K: FreeGroup,
        L: FreeGroup,
        h_symbols: Sequence[Hashable],
        name: str = "amalgam",
    ):
        self.name = name
        self.h_symbols = frozenset(h_symbols)
        shared = set(K.symbols) & set(L.symbols)
        if shared != self.h_symbols:
            raise ValueError("side alphabets must overlap exactly in H")
        super().__init__(K, L, LetterSupportSubgroup(K, h_symbols),
                         LetterSupportSubgroup(L, h_symbols))
        union = list(K.symbols) + [s for s in L.symbols if s not in shared]
        self.ambient = FreeGroup(union, name=f"{name}-ambient")

    def in_H(self, g: Element) -> bool:
        return self._h[self.side_of_group(g.owner)].contains(g)

    def transfer(self, g: Element, side: str) -> Element:
        if not self.in_H(g):
            raise ValueError(f"{g!r} is not in H")
        return Element(self.side_group(side), g.payload)

    def coset_label(self, g: Element, split=None) -> Hashable:
        """``split``, if given, is ``segments(g.payload, h_symbols)``."""
        side = self.side_of_group(g.owner)
        return (side, self._h[side].double_coset_label(g, split))

    def label_and_ends(self, g: Element) -> Tuple[Hashable, tuple, tuple]:
        # the ends are the outer H-segments: the skeleton letters around
        # them cannot cancel against an H-word
        split = segments(g.payload, self.h_symbols)
        return self.coset_label(g, split), split[1][0], split[1][-1]

    def junction_solutions(self, a: Element, b: Element) -> List[Element]:
        # a·h·b ∈ H has at most one solution: the skeletons of a and b
        # must cancel exactly across h, which forces
        # h = tail(a)^-1 · head(b)^-1, with tail and head the outer
        # H-segments; the in_H test decides whether that h solves it
        group = a.owner
        tail_a = Element(group, segments(a.payload, self.h_symbols)[1][-1])
        head_b = Element(group, segments(b.payload, self.h_symbols)[1][0])
        h = group.mul(tail_a.inv(), head_b.inv())
        return [h] if self.in_H(group.mul(group.mul(a, h), b)) else []


# ---------------------------------------------------------------------------
# canonicalization


def syllable(side: str, elt: Element) -> Syllable:
    if side not in (K_SIDE, L_SIDE):
        raise ValueError(f"side must be K or L, got {side!r}")
    return Syllable(side, elt)


def canonicalize(
    syllables: Sequence[Syllable], T: AmalgamTriple
) -> CanonicalWord:
    """Normal form of a product of tagged syllables.

    H-factors are absorbed into the LEFT neighbor when one exists;
    same-side neighbors merge, cascading when a merge lands in H.
    """
    return canonical_product(((syllables, False),), T)


def canonical_product(
    pieces: Iterable[Tuple[Sequence[Syllable], bool]], T: AmalgamTriple
) -> CanonicalWord:
    """Normal form of the product of pieces ``(syllables, trusted)``.

    An untrusted piece is any sequence of tagged syllables; a trusted
    piece is a contiguous slice of one canonical word. The result is
    built on a stack. A canonical slice of length >= 2 lies outside H
    and alternates sides, so only its seam with what came before can
    change: it is fed syllable by syllable until no H-carry is pending
    and its next syllable lies on the other side from the top of the
    stack, and the rest is pushed unchanged. A merge that lands in H
    folds into the syllable on its left, so a seam can cascade.

    The owner check and ``T.in_H`` run once per distinct input syllable
    object: a memo keyed on ``id(syl)`` lives for the call, and each
    entry holds ``syl`` itself, so no id in it can be reused by another
    object, even one from a generator piece that drops its syllables.
    An equal but distinct syllable misses the memo and is checked
    again. A syllable whose element passes through unchanged is pushed
    as the same object, so the result shares the input's objects.
    """
    stack: List[Syllable] = []
    push = stack.append
    carry: Optional[Element] = None  # pending H-factor to the right of stack
    memo = {}  # id(syl) -> (syl, T.in_H(syl.elt)), for input syllables
    recall, in_H, transfer = memo.get, T.in_H, T.transfer
    for piece, trusted in pieces:
        for i, syl in enumerate(piece):
            side = syl.side
            if trusted and i and carry is None and (
                    not stack or stack[-1].side != side):
                stack.extend(piece[i:])
                break
            g = syl.elt
            known = recall(id(syl))
            if known is None:
                if g.owner is not T.side_group(side):
                    raise ValueError(
                        f"syllable {syl!r} not owned by the {side} side")
                known = memo[id(syl)] = (syl, in_H(g))
            if known[1]:
                carry = g if carry is None else \
                    g.owner.mul(transfer(carry, side), g)
                continue
            if carry is not None:
                if stack:
                    _fold_right(stack, carry, T)
                elif not carry.owner.is_identity(carry):
                    # an identity carry leaves the syllable object as is
                    g = g.owner.mul(transfer(carry, side), g)
                    if in_H(g):
                        carry = g
                        continue
                carry = None
            if stack and stack[-1].side == side:
                merged = g.owner.mul(stack.pop().elt, g)
                if in_H(merged):
                    carry = merged
                else:
                    push(Syllable(side, merged))
            else:
                push(syl if g is syl.elt else Syllable(side, g))
    if carry is not None:
        if stack:
            _fold_right(stack, carry, T)
        else:
            side = T.side_of_group(carry.owner)
            if T.side_group(side).is_identity(carry):
                return CanonicalWord(())
            return CanonicalWord((Syllable(side, carry),))
    return CanonicalWord(tuple(stack))


def _fold_right(stack: List[Syllable], h: Element, T: AmalgamTriple) -> None:
    """Multiply the top syllable by the H-element h on its right."""
    top = stack[-1]
    stack[-1] = Syllable(top.side, top.elt.owner.mul(
        top.elt, T.transfer(h, top.side)))


def canonical_inverse(w: CanonicalWord, T: AmalgamTriple) -> CanonicalWord:
    """The inverse word. Each distinct syllable object of ``w`` is
    inverted once, keyed on its id: ``w`` holds its syllables for the
    call, so no id is reused, and the result shares one inverse object
    per input object."""
    inverses = {id(s): s for s in w.syllables}
    for key, s in inverses.items():
        inverses[key] = Syllable(s.side, s.elt.inv())
    return CanonicalWord(
        tuple([inverses[id(s)] for s in reversed(w.syllables)]))


# ---------------------------------------------------------------------------
# weakly cyclically reduced words and rotation


def is_wcr(w: CanonicalWord, T: AmalgamTriple) -> bool:
    """Weakly cyclically reduced: length <= 1, or even length, or the
    seam product (last syllable)(first syllable) lies outside H."""
    n = len(w)
    return n <= 1 or n % 2 == 0 or w[-1].side != w[0].side or not T.in_H(
        T.side_group(w[-1].side).mul(w[-1].elt, w[0].elt))


def rotate(w: CanonicalWord, T: AmalgamTriple) -> CanonicalWord:
    """Conjugate by the first syllable: move it past the end and
    renormalize. ``w`` must be canonical; only the seam where its first
    syllable lands is renormalized."""
    if len(w) <= 1:
        return w
    return canonical_product(
        ((w.syllables[1:], True), ((w.syllables[0],), False)), T)


# ---------------------------------------------------------------------------
# serialization


def word_to_json(w: CanonicalWord, registry: ElementRegistry) -> list:
    return [
        {"side": s.side, "code": registry.register(s.elt)} for s in w.syllables
    ]


def word_from_json(data: Sequence, registry: ElementRegistry) -> CanonicalWord:
    return CanonicalWord(
        tuple(Syllable(item["side"], registry.decode(item["code"])) for item in data)
    )
