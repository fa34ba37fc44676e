"""Canonical forms in an amalgamated free product K *_H L.

A canonical word is an alternating sequence of syllables from K minus H
and L minus H (or a single element, or empty for the identity). Two
canonical words represent the same group element exactly when an
interleaving chain of H-elements connects them syllable by syllable;
``canonical_equal`` decides this by forward propagation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator, List, Optional, Sequence, Tuple

from amalgams.groups import (
    Element,
    ElementRegistry,
    FiniteTableGroup,
    FreeGroup,
    GroupHandle,
    InconclusiveError,
    SubgroupDescriptor,
    LetterSupportSubgroup,
    Tri,
    require,
    segments,
)

K_SIDE = "K"
L_SIDE = "L"


@dataclass(frozen=True)
class Syllable:
    side: str
    elt: Element

    def __repr__(self) -> str:
        return f"{self.side}[{self.elt.payload!r}]"


@dataclass(frozen=True)
class CanonicalWord:
    syllables: Tuple[Syllable, ...]

    def __len__(self) -> int:
        return len(self.syllables)

    def __getitem__(self, i):
        return self.syllables[i]

    def is_empty(self) -> bool:
        return not self.syllables

    def sides(self) -> Tuple[str, ...]:
        return tuple(s.side for s in self.syllables)

    def __repr__(self) -> str:
        return "CW(" + " ".join(map(repr, self.syllables)) + ")"


@dataclass(frozen=True)
class Part:
    word: CanonicalWord
    source: Hashable
    offset: int


class AmalgamTriple:
    """The data of K *_H L with executable structure tests.

    Subclasses provide the two side groups, H-membership per side,
    transfer of H-elements between the sides, and a per-syllable double
    coset label. ``label_exact`` declares whether equal labels are
    equivalent to equal double cosets (not just implied by them).
    """

    name: str = "amalgam"
    label_exact: bool = False

    def __init__(self, K: GroupHandle, L: GroupHandle):
        self.K = K
        self.L = L

    def side_group(self, side: str) -> GroupHandle:
        return self.K if side == K_SIDE else self.L

    def side_of_group(self, group: GroupHandle) -> str:
        if group is self.K:
            return K_SIDE
        if group is self.L:
            return L_SIDE
        raise ValueError(f"{group.name} is not a side of {self.name}")

    def in_H(self, g: Element) -> Tri:
        raise NotImplementedError

    def transfer(self, g: Element, side: str) -> Element:
        """Re-express an H-element on the given side."""
        raise NotImplementedError

    def h_identity(self, side: str) -> Element:
        return self.side_group(side).identity()

    def h_sample(self, budget: int) -> List[Element]:
        """Some H-elements on the K side, identity first."""
        raise NotImplementedError

    def h_subgroup(self, side: str) -> SubgroupDescriptor:
        """H as a subgroup descriptor of the given side group."""
        raise NotImplementedError

    def coset_label(self, g: Element) -> Hashable:
        """Label constant on double cosets H g H of the owning side."""
        raise NotImplementedError

    def junction_solutions(
        self, a: Element, b: Element, budget: int = 64
    ) -> List[Element]:
        """H-elements h (on a's side) with a·h·b ∈ H; may be partial."""
        group = a.owner
        side = self.side_of_group(group)
        out = []
        for h in self.h_sample(budget):
            h = self.transfer(h, side)
            if self.in_H(group.mul(group.mul(a, h), b)) is Tri.YES:
                out.append(h)
        return out

    def coset_factor(
        self, g: Element, target: Element, budget: int = 64
    ) -> List[Tuple[Element, Element]]:
        """Pairs (u, v) of H-elements with g = u * target * v.

        Exhaustive when h_sample covers H (finite backends), a solved
        single candidate on structural backends, else partial.
        """
        group = g.owner
        side = self.side_of_group(group)
        if self.side_of_group(target.owner) != side:
            return []
        out = []
        hs = [self.transfer(h, side) for h in self.h_sample(budget)]
        for u in hs:
            for v in hs:
                cand = group.mul(group.mul(u, target), v)
                if cand.payload == g.payload:
                    out.append((u, v))
        return out

    def split_candidates(self, syl: Syllable) -> List[Tuple[Element, Element]]:
        """Pairs (x1, x2) with x2·x1 = syl.elt, both outside H.

        Used to enumerate the odd-length conjugates that split one
        syllable across the seam. Exhaustive on finite sides, a finite
        structural family otherwise.
        """
        group = syl.elt.owner
        out = []
        if isinstance(group, FiniteTableGroup):
            for x1 in group.elements():
                x2 = group.mul(syl.elt, x1.inv())
                if self.in_H(x1) is Tri.NO and self.in_H(x2) is Tri.NO:
                    out.append((x1, x2))
            return out
        if isinstance(group, FreeGroup):
            w = syl.elt.payload
            for cut in range(1, len(w)):
                x2 = Element(group, w[:cut])
                x1 = Element(group, w[cut:])
                if self.in_H(x1) is Tri.NO and self.in_H(x2) is Tri.NO:
                    out.append((x1, x2))
            return out
        return out


class TableAmalgam(AmalgamTriple):
    """Amalgam of two finite-table groups along an explicit H-pairing."""

    def __init__(
        self,
        K: FiniteTableGroup,
        L: FiniteTableGroup,
        h_pairs: Sequence[Tuple[int, int]],
        name: str = "amalgam",
    ):
        super().__init__(K, L)
        self.name = name
        self.label_exact = True
        self._k2l = {k: l for k, l in h_pairs}
        self._l2k = {l: k for k, l in h_pairs}
        if len(self._k2l) != len(h_pairs) or len(self._l2k) != len(h_pairs):
            raise ValueError("H-pairing must be a bijection")
        self._check_embedding()
        self._labels = {K_SIDE: self._coset_labels(K, self._k2l),
                        L_SIDE: self._coset_labels(L, self._l2k)}

    def _check_embedding(self) -> None:
        if self._k2l.get(self.K._identity) != self.L._identity:
            raise ValueError("H-pairing must match identities")
        for a, b in itertools.product(self._k2l, repeat=2):
            left = self._k2l[self.K.table[a][b]]
            right = self.L.table[self._k2l[a]][self._k2l[b]]
            if left != right:
                raise ValueError("H-pairing is not a homomorphism")

    @staticmethod
    def _coset_labels(group: FiniteTableGroup, h_map) -> List[int]:
        labels = [-1] * group.order
        for g in range(group.order):
            if labels[g] >= 0:
                continue
            orbit = {
                group.table[group.table[u][g]][v]
                for u in h_map
                for v in h_map
            }
            rep = min(orbit)
            for x in orbit:
                labels[x] = rep
        return labels

    def in_H(self, g: Element) -> Tri:
        side = self.side_of_group(g.owner)
        table = self._k2l if side == K_SIDE else self._l2k
        return Tri.YES if g.payload in table else Tri.NO

    def transfer(self, g: Element, side: str) -> Element:
        cur = self.side_of_group(g.owner)
        if cur == side:
            return g
        table = self._k2l if cur == K_SIDE else self._l2k
        if g.payload not in table:
            raise ValueError(f"{g!r} is not in H")
        return Element(self.side_group(side), table[g.payload])

    def h_sample(self, budget: int) -> List[Element]:
        ordered = sorted(self._k2l)
        ordered.remove(self.K._identity)
        ordered.insert(0, self.K._identity)
        return [Element(self.K, p) for p in ordered[:budget]]

    def h_subgroup(self, side: str):
        from amalgams.groups import FiniteGeneratedSubgroup

        group = self.side_group(side)
        table = self._k2l if side == K_SIDE else self._l2k
        gens = [Element(group, p) for p in sorted(table)]
        return FiniteGeneratedSubgroup(group, gens)

    def coset_label(self, g: Element) -> Hashable:
        side = self.side_of_group(g.owner)
        return (side, self._labels[side][g.payload])


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
        super().__init__(K, L)
        self.name = name
        self.label_exact = True
        self.h_symbols = frozenset(h_symbols)
        shared = set(K.symbols) & set(L.symbols)
        if shared != self.h_symbols:
            raise ValueError("side alphabets must overlap exactly in H")
        union = list(K.symbols) + [s for s in L.symbols if s not in shared]
        self.ambient = FreeGroup(union, name=f"{name}-ambient")
        self.H_K = LetterSupportSubgroup(K, h_symbols)
        self.H_L = LetterSupportSubgroup(L, h_symbols)

    def h_subgroup(self, side: str) -> LetterSupportSubgroup:
        return self.H_K if side == K_SIDE else self.H_L

    def in_H(self, g: Element) -> Tri:
        side = self.side_of_group(g.owner)
        sub = self.H_K if side == K_SIDE else self.H_L
        return sub.contains(g)

    def transfer(self, g: Element, side: str) -> Element:
        if require(self.in_H(g)) is False:
            raise ValueError(f"{g!r} is not in H")
        return Element(self.side_group(side), g.payload)

    def h_sample(self, budget: int) -> List[Element]:
        out = [self.K.identity()]
        # short H-words in length-lex order
        syms = sorted(self.h_symbols, key=str)
        for n in (1, 2):
            for letters in itertools.product(
                [(s, sign) for s in syms for sign in (1, -1)], repeat=n
            ):
                g = self.K.element(letters)
                if len(g.payload) == n:
                    out.append(g)
                if len(out) >= budget:
                    return out[:budget]
        return out[:budget]

    def coset_label(self, g: Element) -> Hashable:
        side = self.side_of_group(g.owner)
        skel, segs = segments(g.payload, self.h_symbols)
        if not skel:
            return (side, "H")
        return (side, tuple(skel), tuple(segs[1:-1]))

    def junction_solutions(
        self, a: Element, b: Element, budget: int = 64
    ) -> List[Element]:
        # a·h·b ∈ H has at most one solution h: the skeletons of a and b
        # must cancel exactly, which pins h to the inverse of the H-gap
        # between a's tail segment and b's head segment.
        group = a.owner
        if self.side_of_group(b.owner) != self.side_of_group(group):
            return []
        skel_a, segs_a = segments(a.payload, self.h_symbols)
        skel_b, segs_b = segments(b.payload, self.h_symbols)
        if len(skel_a) != len(skel_b):
            return []
        inv_b = b.inv()
        skel_bi, _ = segments(inv_b.payload, self.h_symbols)
        if skel_a != skel_bi:
            return []
        # solve u with a = u' * b^-1-pattern: h = a^-1 * h_core * b^-1
        # realized by direct computation in the ambient free group
        core_candidates = []
        # h must equal tail(a)^-1 glue; derive it from the first
        # junction: a h b in H forces h = (tail of a)^-1 (head of b)^-1
        tail_a = Element(group, segs_a[-1])
        head_b = Element(group, segs_b[0])
        h = group.mul(tail_a.inv(), head_b.inv())
        prod = group.mul(group.mul(a, h), b)
        if self.in_H(prod) is Tri.YES:
            core_candidates.append(h)
        return core_candidates

    def coset_factor(
        self, g: Element, target: Element, budget: int = 64
    ) -> List[Tuple[Element, Element]]:
        # unique candidate when the skeletons agree: the outer H-segments
        # pin u and v (malnormality of letter-support subgroups)
        group = g.owner
        if self.side_of_group(target.owner) != self.side_of_group(group):
            return []
        skel_g, segs_g = segments(g.payload, self.h_symbols)
        skel_t, segs_t = segments(target.payload, self.h_symbols)
        if skel_g != skel_t:
            return []
        if not skel_g:
            return [(group.mul(g, target.inv()), group.identity())]
        u = group.mul(Element(group, segs_g[0]),
                      Element(group, segs_t[0]).inv())
        v = group.mul(Element(group, segs_t[-1]).inv(),
                      Element(group, segs_g[-1]))
        if group.mul(group.mul(u, target), v).payload == g.payload:
            return [(u, v)]
        return []


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
    stack: List[Syllable] = []
    carry: Optional[Element] = None  # pending H-factor to the right of stack

    def fold_carry_left() -> None:
        nonlocal carry
        if carry is None or not stack:
            return
        top = stack[-1]
        h = T.transfer(carry, top.side)
        stack[-1] = Syllable(top.side, top.elt.owner.mul(top.elt, h))
        carry = None

    for syl in syllables:
        side = syl.side
        group = T.side_group(side)
        g = syl.elt
        if g.owner is not group:
            raise ValueError(f"syllable {syl!r} not owned by the {side} side")
        if require(T.in_H(g)):
            if carry is None:
                carry = g
            else:
                carry = group.mul(T.transfer(carry, side), g)
            continue
        if carry is not None and not stack:
            g = group.mul(T.transfer(carry, side), g)
            carry = None
            if require(T.in_H(g)):
                carry = g
                continue
        if stack and stack[-1].side == side:
            fold_carry_left()
            top = stack.pop()
            merged = group.mul(top.elt, g)
            if require(T.in_H(merged)):
                carry = merged
            else:
                stack.append(Syllable(side, merged))
        else:
            fold_carry_left()
            stack.append(Syllable(side, g))
    if carry is not None:
        if stack:
            fold_carry_left()
        else:
            side = T.side_of_group(carry.owner)
            if require(T.side_group(side).is_identity(carry)):
                return CanonicalWord(())
            return CanonicalWord((Syllable(side, carry),))
    return CanonicalWord(tuple(stack))


def canonical_inverse(w: CanonicalWord, T: AmalgamTriple) -> CanonicalWord:
    return CanonicalWord(
        tuple(Syllable(s.side, s.elt.inv()) for s in reversed(w.syllables))
    )


def canonical_mul(u: CanonicalWord, v: CanonicalWord, T: AmalgamTriple) -> CanonicalWord:
    return canonicalize(u.syllables + v.syllables, T)


def canonical_equal(u: CanonicalWord, v: CanonicalWord, T: AmalgamTriple) -> Tri:
    """Equality via forward propagation of the interleaving h-chain."""
    try:
        if len(u) != len(v):
            return Tri.NO
        if u.sides() != v.sides():
            # a length-1 H-word may sit on either side
            if len(u) == 1 and _h_word_equal(u, v, T) is not None:
                return _h_word_equal(u, v, T)
            return Tri.NO
        if len(u) == 0:
            return Tri.YES
        if len(u) == 1:
            res = _h_word_equal(u, v, T)
            if res is not None:
                return res
            group = T.side_group(u[0].side)
            return group.is_identity(group.mul(u[0].elt.inv(), v[0].elt))
        h = T.h_identity(u[0].side)
        for i in range(len(u)):
            side = u[i].side
            group = T.side_group(side)
            h = T.transfer(h, side)
            nxt = group.mul(group.mul(u[i].elt.inv(), h), v[i].elt)
            if not require(T.in_H(nxt)):
                return Tri.NO
            h = nxt
        final = T.transfer(h, K_SIDE)
        return T.K.is_identity(final)
    except InconclusiveError:
        return Tri.INCONCLUSIVE


def _h_word_equal(u: CanonicalWord, v: CanonicalWord, T: AmalgamTriple) -> Optional[Tri]:
    """Compare length-1 words when at least one lies in H; None otherwise."""
    u_in = require(T.in_H(u[0].elt))
    v_in = require(T.in_H(v[0].elt))
    if not (u_in or v_in):
        return None
    if u_in != v_in:
        return Tri.NO
    side = u[0].side
    group = T.side_group(side)
    hv = T.transfer(v[0].elt, side)
    return group.is_identity(group.mul(u[0].elt.inv(), hv))


# ---------------------------------------------------------------------------
# weakly cyclically reduced conjugates and parts


def is_wcr(w: CanonicalWord, T: AmalgamTriple) -> Tri:
    """Weakly cyclically reduced: length <= 1, or even length, or the
    seam product (last syllable)(first syllable) lies outside H."""
    n = len(w)
    if n <= 1 or n % 2 == 0:
        return Tri.YES
    last, first = w[n - 1], w[0]
    if last.side != first.side:
        return Tri.YES
    group = T.side_group(last.side)
    seam = group.mul(last.elt, first.elt)
    return Tri.YES if T.in_H(seam) is Tri.NO else Tri.NO


def rotate(w: CanonicalWord, T: AmalgamTriple) -> CanonicalWord:
    """Conjugate by the first syllable: move it past the end and renormalize."""
    if len(w) <= 1:
        return w
    return canonicalize(w.syllables[1:] + (w.syllables[0],), T)


def _word_key(w: CanonicalWord, T: AmalgamTriple) -> Tuple:
    return tuple((s.side, T.coset_label(s.elt)) for s in w.syllables)


def _dedup_insert(
    pool: dict, w: CanonicalWord, T: AmalgamTriple
) -> bool:
    key = _word_key(w, T)
    bucket = pool.setdefault(key, [])
    for seen in bucket:
        if canonical_equal(seen, w, T) is Tri.YES:
            return False
    bucket.append(w)
    return True


def wcr_conjugates(
    w: CanonicalWord,
    T: AmalgamTriple,
    budget: int = 10_000,
    include_splittings: bool = True,
) -> List[CanonicalWord]:
    """All weakly cyclically reduced conjugates reachable by rotation and
    seam-splitting, deduplicated up to canonical equality."""
    if w.is_empty():
        raise ValueError("wcr_conjugates requires a nontrivial word")
    pool: dict = {}
    out: List[CanonicalWord] = []
    frontier = [w]
    steps = 0
    while frontier and steps < budget:
        cur = frontier.pop()
        steps += 1
        if not _dedup_insert(pool, cur, T):
            continue
        if require(is_wcr(cur, T)):
            out.append(cur)
        if len(cur) > 1:
            frontier.append(rotate(cur, T))
        if include_splittings and len(cur) >= 1 and len(cur) % 2 == 0:
            # split one even-length rotation's first syllable across the
            # seam: with g0 = x2·x1 the conjugate x1·g1···g_{n-1}·x2 has
            # odd length n+1 and seam product x2·x1 = g0 outside H
            for x1, x2 in T.split_candidates(cur[0]):
                split = CanonicalWord(
                    (Syllable(cur[0].side, x1),)
                    + cur.syllables[1:]
                    + (Syllable(cur[0].side, x2),)
                )
                if _dedup_insert(pool, split, T):
                    if require(is_wcr(split, T)):
                        out.append(split)
    return out


def iter_parts(
    w: CanonicalWord,
    T: AmalgamTriple,
    min_len: int,
    source: Hashable = None,
    budget: int = 10_000,
    include_splittings: bool = False,
) -> Iterator[Part]:
    for conj in wcr_conjugates(w, T, budget=budget,
                               include_splittings=include_splittings):
        n = len(conj)
        for length in range(min_len, n + 1):
            for off in range(0, n - length + 1):
                yield Part(CanonicalWord(conj.syllables[off:off + length]),
                           source, off)


def parts_of(
    w: CanonicalWord,
    T: AmalgamTriple,
    min_len: int,
    source: Hashable = None,
    budget: int = 10_000,
) -> List[Part]:
    if min_len < 1:
        raise ValueError("min_len must be >= 1")
    out = []
    for p in iter_parts(w, T, min_len, source=source, budget=budget):
        out.append(p)
        if len(out) > budget:
            raise InconclusiveError("part enumeration budget exhausted")
    return out


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
