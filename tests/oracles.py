"""Independent brute-force oracles used by the test suite.

Everything here is deliberately implemented with different algorithms
and conventions than the package (right-to-left transversal rewriting,
naive DP scans, exhaustive chain search) so agreement is meaningful.
"""

from __future__ import annotations

import json
import math
from array import array
from typing import Dict, List, Sequence, Tuple

from amalgams import kernels, words
from amalgams.cancellation import (
    ChainResult,
    CPrimeResult,
    CPrimeWitness,
    DehnResult,
    DehnStep,
    Diagonal,
    _apply_replacement,
    _element_walk,
    _intern,
    cancellation_chain,
    distinct_cyclic_runs,
    part_threshold,
)
from amalgams.canonical import (
    CanonicalWord,
    Syllable,
    is_wcr,
    rotate,
)
from amalgams.colorings import (
    LadderSystem,
    WalkColoring,
    fundamental_seq,
    ord_sort_key,
    ord_to_str,
    predecessor,
    walk,
)
from amalgams.groups import Element, FiniteTableGroup


def naive_free_reduce(word: Sequence[int]) -> List[int]:
    """Repeated single-pass cancellation until a fixed point."""
    cur = list(word)
    while True:
        for i in range(len(cur) - 1):
            if cur[i] == -cur[i + 1]:
                cur = cur[:i] + cur[i + 2:]
                break
        else:
            return cur


def naive_longest_common_run(a: Sequence[int],
                             b: Sequence[int]) -> Tuple[int, int, int]:
    """O(n*m) dynamic program: (length, start_in_a, start_in_b) of the
    longest common run whose end comes first in a, and among those ends
    first in b; (0, 0, 0) when there is none."""
    best = (0, 0, 0)
    prev = [0] * (len(b) + 1)
    for i, x in enumerate(a):
        cur = [0] * (len(b) + 1)
        for j, y in enumerate(b):
            if x == y:
                n = cur[j + 1] = prev[j] + 1
                if n > best[0]:
                    best = (n, i + 1 - n, j + 1 - n)
        prev = cur
    return best


def naive_runs_at_least(a: Sequence[int], b: Sequence[int], k: int):
    """All maximal diagonal runs of length >= k by direct diagonal walk."""
    out = []
    for i in range(len(a)):
        for j in range(len(b)):
            if a[i] != b[j]:
                continue
            if i > 0 and j > 0 and a[i - 1] == b[j - 1]:
                continue  # not a run start
            length = 0
            while (i + length < len(a) and j + length < len(b)
                   and a[i + length] == b[j + length]):
                length += 1
            if length >= k:
                out.append((i, j, length))
    return sorted(out)


_KR_MOD = (1 << 61) - 1
_KR_BASE = 1_000_003


def _kr_window_hashes(seq: Sequence[int], k: int) -> array:
    """Rolling polynomial hash of every length-k window of seq."""
    out = array("q")
    vals = [(v & 0xFFFFFFFFFFFF) + 7 for v in seq]
    if len(vals) < k:
        return out
    h = 0
    for v in vals[:k]:
        h = (h * _KR_BASE + v) % _KR_MOD
    out.append(h)
    top = pow(_KR_BASE, k, _KR_MOD)  # weight of the value leaving the window
    for new, old in zip(vals[k:], vals):
        h = (h * _KR_BASE + new - old * top) % _KR_MOD
        out.append(h)
    return out


def karp_rabin_runs_at_least(a: Sequence[int], b: Sequence[int], k: int):
    """The package's earlier run finder, kept as a reference: every pair
    of equal length-k window hashes (Karp-Rabin) is confirmed element by
    element and extended to its maximal run. Takes int sequences."""
    if len(a) < k or len(b) < k:
        return []
    a_table: Dict[int, List[int]] = {}
    for i, h in enumerate(_kr_window_hashes(a, k)):
        a_table.setdefault(h, []).append(i)
    a, b = list(a), list(b)
    covered: Dict[int, int] = {}  # diagonal -> end in a of its last run
    out = []
    for j, h in enumerate(_kr_window_hashes(b, k)):
        for i in a_table.get(h, ()):
            if i < covered.get(i - j, -1) or a[i:i + k] != b[j:j + k]:
                continue
            si, sj = i, j
            while si > 0 and sj > 0 and a[si - 1] == b[sj - 1]:
                si -= 1
                sj -= 1
            length = k + (i - si)
            while si + length < len(a) and sj + length < len(b) and \
                    a[si + length] == b[sj + length]:
                length += 1
            covered[i - j] = si + length
            out.append((si, sj, length))
    return sorted(out)


def rho_letter_sequence(x: str, y: str) -> str:
    """The pumping word over single-character generators, as a string."""
    return "".join(x * i + y for i in range(1, 81))


# ---------------------------------------------------------------------------
# transversal normal forms for finite amalgams
#
# Every element of K *_H L is uniquely h * t1 * ... * tn with the t_i
# nontrivial right-coset representatives whose sides alternate. We build
# the form by right-to-left multiplication, the opposite direction to
# the package's left-absorption pass, and with min-code representatives
# where the package keeps raw syllable values.


class FiniteAmalgamOracle:
    def __init__(self, k_table, l_table, h_pairs: Sequence[Tuple[int, int]]):
        self.tables = {"K": [list(r) for r in k_table],
                       "L": [list(r) for r in l_table]}
        self.h_sets = {"K": sorted(k for k, _ in h_pairs),
                       "L": sorted(l for _, l in h_pairs)}
        self.k2l = {k: l for k, l in h_pairs}
        self.l2k = {l: k for k, l in h_pairs}
        self.identity = {"K": self._find_identity("K"),
                         "L": self._find_identity("L")}
        self.rep = {side: self._coset_reps(side) for side in ("K", "L")}

    def _find_identity(self, side: str) -> int:
        table = self.tables[side]
        for e in range(len(table)):
            if all(table[e][g] == g for g in range(len(table))):
                return e
        raise AssertionError("no identity")

    def _coset_reps(self, side: str) -> Dict[int, int]:
        """Map g -> min of the right coset H g."""
        table = self.tables[side]
        return {
            g: min(table[h][g] for h in self.h_sets[side])
            for g in range(len(table))
        }

    def inverse(self, side: str, g: int) -> int:
        table = self.tables[side]
        return next(x for x in range(len(table))
                    if table[g][x] == self.identity[side])

    def transfer(self, h: int, from_side: str, to_side: str) -> int:
        if from_side == to_side:
            return h
        return self.k2l[h] if from_side == "K" else self.l2k[h]

    def _decompose(self, side: str, g: int) -> Tuple[int, int]:
        """g = h * t with t the min-code coset representative."""
        t = self.rep[side][g]
        table = self.tables[side]
        h = next(h for h in self.h_sets[side] if table[h][t] == g)
        return h, t

    def _mul_left(self, side: str, g: int, form):
        """Multiply g (on the given side) onto the left of a normal form."""
        h_side, h, tail = form
        table = self.tables[side]
        y = table[g][self.transfer(h, h_side, side)]
        tail = list(tail)
        if y in self.h_sets[side]:
            return side, y, tail
        h2, t = self._decompose(side, y)
        if tail and tail[0][0] == side:
            # same-side head: merge t into it and redecompose
            z = table[t][tail.pop(0)[1]]
            if z in self.h_sets[side]:
                return side, table[h2][z], tail
            h3, t2 = self._decompose(side, z)
            return side, table[h2][h3], [(side, t2)] + tail
        return side, h2, [(side, t)] + tail

    def normal_form(self, syllables: Sequence[Tuple[str, int]]):
        form = ("K", self.identity["K"], [])
        for side, g in reversed(list(syllables)):
            form = self._mul_left(side, g, form)
        return form

    def forms_equal(self, f1, f2) -> bool:
        s1, h1, t1 = f1
        s2, h2, t2 = f2
        return (self.transfer(h1, s1, "K") == self.transfer(h2, s2, "K")
                and list(t1) == list(t2))

    def length(self, form) -> int:
        return len(form[2])


def naive_part_length(oracle: FiniteAmalgamOracle,
                      w: Sequence[Tuple[str, int]],
                      r: Sequence[Tuple[str, int]], p: int, j: int) -> int:
    """Longest t <= min(len(w) - p, len(r)) with
    w[p..p+t) = h_start^-1 * r[j..j+t) * h_end for some H-elements, r read
    cyclically. Searches every H-chain: each start h_0 in H, and at each
    link every h_{i+1} in H with w[p+i] = h_i^-1 * r[j+i] * h_{i+1}."""
    m = len(r)
    limit = min(len(w) - p, m)

    def longest(i: int, h_k: int) -> int:
        # h_k is the chain value h_i, coded on the K side
        if i == limit:
            return i
        side, gw = w[p + i]
        r_side, gr = r[(j + i) % m]
        if side != r_side:
            return i
        table = oracle.tables[side]
        h_inv = oracle.inverse(side, oracle.transfer(h_k, "K", side))
        best = i
        for h_next in oracle.h_sets[side]:
            if table[h_inv][table[gr][h_next]] == gw:
                best = max(best, longest(
                    i + 1, oracle.transfer(h_next, side, "K")))
        return best

    return max(longest(0, h) for h in oracle.h_sets["K"])


def double_coset(table, h_set, g: int):
    """The set H g H by direct enumeration."""
    return {table[u][table[g][v]] for u in h_set for v in h_set}


# ---------------------------------------------------------------------------
# walks on the canonical ladder by scanning its points
#
# The package finds a canonical ladder index by CNF arithmetic and
# compares ordinals by cached keys. Here the points predecessor(delta),
# or fundamental_seq(delta, n) for n = 0, 1, ..., are listed until one is
# not below alpha, and ordinals are compared term by term.


def cnf_less(a, b) -> bool:
    """a < b, by recursion on the Cantor-normal-form terms."""
    for (ea, ca), (eb, cb) in zip(a.terms, b.terms):
        if cnf_less(ea, eb):
            return True
        if cnf_less(eb, ea):
            return False
        if ca != cb:
            return ca < cb
    return len(a.terms) < len(b.terms)


def ord_key(a) -> tuple:
    """A nested tuple naming the ordinal, built from its terms."""
    return tuple((ord_key(exp), coeff) for exp, coeff in a.terms)


def scan_ladder_step(delta, alpha, points=fundamental_seq):
    """(the least ladder point of delta that is >= alpha, its index), for
    alpha < delta; points(delta, n) is the n-th point of a limit's
    ladder, the canonical one by default."""
    if delta.is_successor():
        return predecessor(delta), 0
    n = 0
    while cnf_less(points(delta, n), alpha):
        n += 1
    return points(delta, n), n


def scan_members_below(delta, alpha, points=fundamental_seq):
    """The ladder points of delta below alpha < delta."""
    if delta.is_successor():
        return []
    n = scan_ladder_step(delta, alpha, points)[1]
    return [points(delta, k) for k in range(n)]


class ScanWalks:
    """Walks, e, c0 and c1 on a ladder system from the scanned steps,
    with e by its defining recursion. ``points`` gives the ladders of
    limits as in ``scan_ladder_step``; a successor's is its
    predecessor."""

    def __init__(self, points=fundamental_seq):
        self.points = points
        self.memo = {}

    def step(self, delta, alpha):
        return scan_ladder_step(delta, alpha, self.points)

    def walk(self, alpha, beta):
        trace = [beta]
        while cnf_less(alpha, trace[-1]):
            trace.append(self.step(trace[-1], alpha)[0])
        return trace

    def e(self, alpha, beta) -> int:
        if not cnf_less(alpha, beta):
            return 0
        key = (ord_key(alpha), ord_key(beta))
        if key not in self.memo:
            nxt, otp = self.step(beta, alpha)
            value = max(otp, self.e(alpha, nxt))
            for xi in scan_members_below(beta, alpha, self.points):
                value = max(value, self.e(xi, alpha))
            self.memo[key] = value
        return self.memo[key]

    def c0(self, alpha, beta) -> int:
        return len(self.walk(alpha, beta)) - 1

    def c1(self, alpha, beta) -> int:
        return self.step(beta, alpha)[1]


def reference_from_walks(scope, C=None) -> tuple:
    """The walk colorings of ``ColoringTable.from_walks`` pair by pair:
    (ranked scope, e, c0, c1), each coloring a dict on index pairs. Pairs
    run alpha-major and each makes one ``walk``; c1 and e are read off
    the row entry of beta that this walk filled."""
    C = C or LadderSystem()
    coloring = WalkColoring(C)
    ranked = sorted(scope, key=ord_sort_key)
    e, c0, c1 = {}, {}, {}
    for i, a in enumerate(ranked):
        row = C.row(a)
        for j in range(i + 1, len(ranked)):
            b = ranked[j]
            c0[i, j] = len(walk(a, b, C)) - 1
            entry = row[b._key]
            c1[i, j] = entry[1]
            e[i, j] = coloring.row_e(a, entry)
    return ranked, e, c0, c1


def naive_subadditivity(e_map, scope) -> dict:
    """``ColoringTable.check_contract`` by a triple loop: for each middle
    b, inequality 1 (e(a, c) <= max(e(a, b), e(b, c))) over all a < b < c,
    then inequality 2 (e(a, b) <= max(e(a, c), e(b, c))), each row-major.
    A missing entry reads 0. A passing table reports its largest weak
    D-set at each level i from 0 to the largest value, counted over
    every column."""
    n = len(scope)

    def e(i, j):
        return e_map.get((i, j), 0)

    triples = 0
    for b in range(1, n - 1):
        for inequality in (1, 2):
            for a in range(b):
                for c in range(b + 1, n):
                    ab, bc, ac = e(a, b), e(b, c), e(a, c)
                    if (ac > max(ab, bc) if inequality == 1
                            else ab > max(ac, bc)):
                        return {"triples": triples, "violation": {
                            "inequality": inequality,
                            "triple": [ord_to_str(scope[x])
                                       for x in (a, b, c)]}}
        triples += b * (n - 1 - b)
    top = max((e(x, c) for c in range(n) for x in range(c)), default=-1)
    weak = [max(sum(1 for x in range(c) if e(x, c) <= i) for c in range(n))
            for i in range(top + 1)]
    return {"triples": triples, "weak_d_size_by_level": weak}


# ---------------------------------------------------------------------------
# the tower's transversal decomposition, unmemoised
#
# The engine strips once per query and memoises the result per stage.
# Here g and g^-1 are each stripped on every call, every piece is
# normalised again, and the two cores are compared in the full
# stratified order: level over gamma, registry code, length-lex.


def tower_support(payload) -> frozenset:
    """Stage indices of the letters x0, x1, ... of a tower payload."""
    return frozenset(int(str(s)[1:]) for s, _ in payload)


def _strip_ends(payload, strip_syms):
    i, j = 0, len(payload)
    while i < j and payload[i][0] in strip_syms:
        i += 1
    while j > i and payload[j - 1][0] in strip_syms:
        j -= 1
    return payload[:i], payload[i:j], payload[j:]


def reference_decompose_star(g, gamma: int, i: int, beta: int, state):
    """(y0, t, eps, y1) with g = y0 * t^eps * y1; raises ValueError when
    g is outside the (gamma, i) layer."""
    colorings = state.colorings
    strict = colorings.d_set(gamma, i, "strict")
    if not tower_support(g.payload) <= set(strict) | {gamma}:
        raise ValueError(f"element outside the ({gamma},{i}) layer")
    strip_syms = {f"x{b}" for b in strict if b < beta}
    amb = state.ambient
    p1, core1, s1 = _strip_ends(g.payload, strip_syms)
    p2, core2, s2 = _strip_ends(g.inv().payload, strip_syms)
    c1, c2 = amb.element(core1), amb.element(core2)

    def key(h):
        supp = tower_support(h.payload) - {gamma}
        level = max((colorings.e(b, gamma) for b in supp), default=0)
        code = state.registry.code_of(h)
        return (level, 1 << 60 if code is None else code, len(h.payload),
                h.payload)

    if key(c1) <= key(c2):
        return (amb.element(p1), c1, 1, amb.element(s1))
    return (amb.element(s2).inv(), c2, -1, amb.element(p2).inv())


def reference_transversal_rep(g, gamma: int, i: int, beta: int, state):
    return reference_decompose_star(g, gamma, i, beta, state)[1]


# ---------------------------------------------------------------------------
# the explicit symmetrized closure
#
# The package's scanners read a relator set's closure implicitly, through
# cyclic label arrays. Here it is enumerated: every weakly cyclically
# reduced conjugate reachable by rotation and seam-splitting, each kept
# once per element of the group. A shared-free amalgam is the free group
# on the union of its alphabets, so two of its words name one element
# exactly when their letters, concatenated and freely reduced, agree.
# Feasible only for small relators of shared-free amalgams.


def flat_letters(w) -> tuple:
    """The letters of a word of a shared-free amalgam, concatenated and
    freely reduced by a stack."""
    out: list = []
    for syl in w:
        for sym, sign in syl.elt.payload:
            if out and out[-1] == (sym, -sign):
                out.pop()
            else:
                out.append((sym, sign))
    return tuple(out)


def flat_equal(u, v) -> bool:
    """Do two words of a shared-free amalgam name one element?"""
    return flat_letters(u) == flat_letters(v)


def flat_syllables(letters, T) -> list:
    """The canonical syllable split of a freely reduced letter sequence
    of a shared-free amalgam, as letter tuples: a syllable starts at each
    non-H letter whose side differs from that of the last non-H letter,
    and every H-letter joins the syllable on its left, the H-letters
    before the first non-H letter the first syllable. A word of H-letters
    alone is one syllable, or none when it is empty. Its length is the
    canonical length of the element it names."""
    sylls, side = [[]], None
    for letter in letters:
        if letter[0] not in T.h_symbols:
            letter_side = letter[0] in T.K.symbols
            if side is not None and letter_side != side:
                sylls.append([])
            side = letter_side
        sylls[-1].append(letter)
    return [tuple(syl) for syl in sylls if syl]


def split_candidates(T, syl):
    """Pairs (x1, x2) with x2·x1 = syl.elt, both outside H: exhaustive on
    finite sides; on free sides, the cuts of the reduced word."""
    group = syl.elt.owner
    if isinstance(group, FiniteTableGroup):
        pairs = ((x1, group.mul(syl.elt, x1.inv()))
                 for x1 in group.elements())
    else:
        w = syl.elt.payload
        pairs = ((Element(group, w[cut:]), Element(group, w[:cut]))
                 for cut in range(1, len(w)))
    return [(x1, x2) for x1, x2 in pairs
            if not T.in_H(x1) and not T.in_H(x2)]


def wcr_conjugates(w, T, budget: int = 10_000,
                   include_splittings: bool = True) -> list:
    """All weakly cyclically reduced conjugates reachable by rotation and
    seam-splitting, one word per element of the group."""
    if not w:
        raise ValueError("wcr_conjugates requires a nontrivial word")
    seen = set()

    def first_visit(word) -> bool:
        key = flat_letters(word)
        if key in seen:
            return False
        seen.add(key)
        return True

    out = []
    frontier = [w]
    steps = 0
    while frontier and steps < budget:
        cur = frontier.pop()
        steps += 1
        if not first_visit(cur):
            continue
        if is_wcr(cur, T):
            out.append(cur)
        if len(cur) > 1:
            frontier.append(rotate(cur, T))
        if include_splittings and len(cur) >= 1 and len(cur) % 2 == 0:
            # split one even-length rotation's first syllable across the
            # seam: with g0 = x2·x1 the conjugate x1·g1···g_{n-1}·x2 has
            # odd length n+1 and seam product x2·x1 = g0 outside H
            for x1, x2 in split_candidates(T, cur[0]):
                split = ((Syllable(cur[0].side, x1),) + cur[1:]
                         + (Syllable(cur[0].side, x2),))
                if first_visit(split) and is_wcr(split, T):
                    out.append(split)
    return out


def materialize(R, budget: int = 100_000,
                include_splittings: bool = True) -> list:
    """The explicit closure of a small relator set; ValueError past the
    budget."""
    total = sum(len(u.word) for u in R.units)
    if total * max((len(u.word) for u in R.units), default=0) > budget:
        raise ValueError("materialization budget exhausted")
    out = []
    for unit in R.units:
        for w in wcr_conjugates(unit.word, R.T, budget=budget,
                                include_splittings=include_splittings):
            if not any(flat_equal(w, seen) for seen in out):
                out.append(w)
    return out


def closure_contains(R, w) -> bool:
    """Does w name the element of a member of R's explicit closure?"""
    return any(flat_equal(w, r) for r in materialize(R))


# ---------------------------------------------------------------------------
# the element replay of Dehn certificates
#
# On shared-free amalgams replay_certificate checks each Dehn part by one
# free reduction in the ambient free group. The reference walks every
# part's cancellation chain syllable by syllable by element arithmetic,
# on any amalgam.


def element_replay_certificate(w, cert, R) -> bool:
    """Re-execute a 'trivial' certificate, walking each part's chain
    with ``cancellation_chain``; True iff it reaches the empty word with
    every step strictly decreasing canonical length. A step that names
    no unit or no part of the word, or whose H-element h_start or its
    side differs from the replayed chain's, gives False."""
    T = R.T
    for step in cert:
        if step.from_len != len(w):
            return False
        if step.kind == "cyclic-reduce":
            w = rotate(w, T)
        elif step.kind == "replace":
            unit = R.by_uid.get(step.uid) if isinstance(step.uid, str) \
                else None
            p, j, t = step.offset, step.rotation, step.ell
            # the walker reads both words cyclically, so a part that does
            # not lie inside w must be rejected here
            if unit is None or not all(type(x) is int for x in (p, j, t)) \
                    or t < 1 or p < 0 or p + t > len(w):
                return False
            m = len(unit.word)
            j %= m
            inv = R.by_uid[unit.partner].word
            # capped at t, the chain starts from the first seed that
            # reaches t, which is the seed find_replacement recorded
            chain = cancellation_chain(T, inv, w, m - 1 - j, p, t)
            if chain.ell != t:
                return False
            h0 = chain.h0
            replayed = (T.side_of_group(h0.owner),
                        h0.owner.payload_to_json(h0.payload))
            recorded = (step.h_start_side, step.h_start_json)
            # compared as JSON text, since certificates arrive from JSON
            if json.dumps(replayed, sort_keys=True) != \
                    json.dumps(recorded, sort_keys=True):
                return False
            w = _apply_replacement(T, w, inv, p, j, chain)
        else:
            return False
        if len(w) >= step.from_len:
            return False
        if len(w) != step.to_len:
            return False
    return not w


# ---------------------------------------------------------------------------
# memo-free references of the per-syllable-object memos
#
# canonical_product, canonical_inverse and RelatorSet._code do their
# per-syllable work once per distinct syllable object. These are the
# same bodies without any memo: every syllable is checked, tested for H
# membership, inverted and labelled on its own.


def reference_canonical_product(pieces, T) -> CanonicalWord:
    """``canonical_product`` with the owner check and ``in_H`` run on
    every syllable, and a fresh syllable pushed for every element."""
    stack: List[Syllable] = []
    carry = None

    def fold_carry_left() -> None:
        nonlocal carry
        if carry is None or not stack:
            return
        top = stack[-1]
        h = T.transfer(carry, top.side)
        stack[-1] = Syllable(top.side, top.elt.owner.mul(top.elt, h))
        carry = None

    for piece, trusted in pieces:
        for i, syl in enumerate(piece):
            side = syl.side
            if trusted and i and carry is None and (
                    not stack or stack[-1].side != side):
                stack.extend(piece[i:])
                break
            group = T.side_group(side)
            g = syl.elt
            if g.owner is not group:
                raise ValueError(
                    f"syllable {syl!r} not owned by the {side} side")
            if T.in_H(g):
                if carry is None:
                    carry = g
                else:
                    carry = group.mul(T.transfer(carry, side), g)
                continue
            if carry is not None and not stack:
                g = group.mul(T.transfer(carry, side), g)
                carry = None
                if T.in_H(g):
                    carry = g
                    continue
            if stack and stack[-1].side == side:
                fold_carry_left()
                top = stack.pop()
                merged = group.mul(top.elt, g)
                if T.in_H(merged):
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
            if T.side_group(side).is_identity(carry):
                return ()
            return (Syllable(side, carry),)
    return tuple(stack)


def reference_canonical_inverse(w: CanonicalWord) -> CanonicalWord:
    return tuple(Syllable(s.side, s.elt.inv()) for s in reversed(w))


def reference_code(R, w: CanonicalWord, grow: bool):
    """``RelatorSet._code`` keyed on values: labels through an
    ``Element``-keyed memo and junctions through the set's
    (label, tail, head) table, per position. It reads and grows R's
    code tables as the method does. Labels come as a list of codes,
    chain codes as the method's string of ``chr(code)``."""
    T = R.T
    labels: List[int] = []
    ends = []
    seen = {}
    for s in w:
        known = seen.get(s.elt)
        if known is None:
            coded = T.label_and_ends(s.elt)
            label = T.coset_label(s.elt) if coded is None else coded[0]
            known = seen[s.elt] = (_intern(R._label_codes, label, grow),
                                   coded and coded[1:])
        labels.append(known[0])
        ends.append(known[1])
    if None in ends:
        return labels, None
    codes = []
    prev_tail = ends[-1][1] if ends else ()
    for label, (head, tail) in zip(labels, ends):
        key = (label, prev_tail, head)
        code = R._junctions.get(key)
        if code is None:
            code = R._junctions[key] = _intern(
                R._chain_codes,
                (label, words.free_reduce(prev_tail + head)), grow)
        codes.append(chr(code))
        prev_tail = tail
    return labels, "".join(codes)


# ---------------------------------------------------------------------------
# Dehn's algorithm and the C' scan as they were before the one-pass
# cyclic reduction and the block-compared coded walk
#
# reference_dehn_decide reduces a word cyclically by one rotate per
# syllable pair, and the coded walk of both references compares one
# chain code per step. The query word is coded by reference_code. The
# element walk, the label runs and _apply_replacement are the
# package's own.


def reference_cyclic_reduce(w, T):
    steps = []
    guard = len(w) + 2
    while guard and len(w) > 1 and not is_wcr(w, T):
        guard -= 1
        prev = len(w)
        w = rotate(w, T)
        steps.append(DehnStep("cyclic-reduce", prev, len(w)))
    return w, steps


def reference_coded_walk(T, w1, w2, i1, j2, max_steps, codes, h0):
    n, m = len(w1), len(w2)
    inv_codes, w2_codes = codes
    if max_steps < 1:
        return 0, h0
    # a_t^-1 is entry n-1-i1+t of the unit spelling w1^-1; both code
    # strings are read modulo the word lengths
    x0 = n - 1 - i1
    ell = 1
    while ell < max_steps and \
            inv_codes[(x0 + ell) % n] == w2_codes[(j2 + ell) % m]:
        ell += 1
    a = w1[(i1 - ell + 1) % n].elt
    b = w2[(j2 + ell - 1) % m].elt
    group = a.owner
    head = Element(group, T.label_and_ends(a)[1])
    tail = Element(group, T.label_and_ends(b)[2])
    return ell, group.mul(head, tail)


def reference_cancellation_chain(T, w1, w2, i1, j2, max_steps,
                                 skip_trivial_wrap=False, codes=None,
                                 diagonal=None):
    """``cancellation_chain`` with ``reference_coded_walk``."""
    n, m = len(w1), len(w2)
    a0, b0 = w1[i1 % n], w2[j2 % m]
    best = ChainResult(0, None, False)
    if a0.side != b0.side:
        return best
    coded = codes is not None and n > 1 and m > 1
    stop, states = (j2 + max_steps, None) if diagonal is None \
        else (diagonal.stop, diagonal.states)
    for h0 in T.junction_solutions(a0.elt, b0.elt):
        if coded:
            ell, P = reference_coded_walk(T, w1, w2, i1, j2, max_steps,
                                          codes, h0)
            if diagonal is not None:
                diagonal.settled = j2 + ell
        else:
            R, r = _element_walk(T, w1, w2, i1, j2, h0, stop, states)
            ell = min(r, max_steps)
            P = T.transfer(R[r - ell], w1[(i1 + 1 - max(ell, 1)) % n].side)
        wrap = ell == max_steps == n == m and h0.owner.is_identity(h0) \
            and P.owner.is_identity(P)
        if wrap and skip_trivial_wrap:
            continue
        if ell > best.ell or best.h0 is None:
            best = ChainResult(ell, h0, wrap, P)
    return best


class ReferenceDiagonal(Diagonal):
    """``Diagonal`` whose chains are ``reference_cancellation_chain``."""

    def chains(self, skip_trivial_wrap=False):
        skip = skip_trivial_wrap and self.codes is None
        o = 0
        while o < self.length:
            yield o, reference_cancellation_chain(
                self.T, self.w1, self.w2, self.i1 - o, self.j2 + o,
                min(self.max_steps, self.room - o), skip, self.codes, self)
            o = max(o + 1, self.settled - self.j2)


def reference_scan_cprime(R) -> CPrimeResult:
    """``check_cprime``'s scan on ``ReferenceDiagonal``, not kept on R."""
    T, codes, chi = R.T, R.codes, R.chi
    max_core, pairs, gray = 0, 0, False
    for u1 in R.units:
        n = len(u1.word)
        U2 = R.cyclic_labels[u1.partner]
        for u2 in R.units:
            pairs += 1
            m = len(u2.word)
            k_min = math.ceil(chi * min(n, m))
            if k_min > min(n, m):
                continue
            scan_k = max(1, k_min - 2)
            runs = kernels.runs_at_least(U2, R.cyclic_labels[u2.uid], scan_k)
            for (s, j, length) in distinct_cyclic_runs(runs, n, m):
                diagonal = ReferenceDiagonal(
                    T, u1.word, u2.word, n - 1 - s, j,
                    min(length, math.lcm(n, m)), min(n, m),
                    codes=codes and (codes[u1.partner], codes[u2.uid]))
                for o, res in diagonal.chains(skip_trivial_wrap=True):
                    if res.full_wrap_trivial:
                        continue
                    if res.ell >= k_min:
                        h_elt = res.h0
                        wit = CPrimeWitness(
                            u1.uid, u2.uid, (n - 1 - s - o) % n,
                            (j + o) % m, res.ell, min(n, m), k_min,
                            h_elt.owner.payload_to_json(h_elt.payload),
                            T.side_of_group(h_elt.owner))
                        return CPrimeResult("fail", wit, res.ell, pairs)
                    max_core = max(max_core, res.ell)
                    if res.ell >= scan_k:
                        gray = True
    if gray:
        return CPrimeResult(
            "inconclusive", None, max_core, pairs,
            note="verified overlaps approach the bound within split slack")
    return CPrimeResult("pass", None, max_core, pairs)


def reference_find_replacement(w, R):
    T = R.T
    labels, W_codes = reference_code(R, w, False)
    W = "".join(map(chr, labels))
    gray = False
    candidates = []
    for unit in R.units:
        m = len(unit.word)
        t_min = part_threshold(m)
        if t_min > min(len(w), m):
            continue
        scan_k = max(1, t_min - 2)
        inv = R.by_uid[unit.partner].word
        runs = kernels.runs_at_least(W, R.cyclic_labels[unit.uid], scan_k)
        for (p, j, length) in runs:
            diagonal = ReferenceDiagonal(
                T, inv, w, m - 1 - j, p, length, m, room=len(w) - p,
                codes=W_codes and (R.codes[unit.uid], W_codes))
            ends = set()
            for o, chain in diagonal.chains():
                q, jq, t = p + o, (j + o) % m, chain.ell
                if t < t_min:
                    gray = gray or t >= scan_k
                elif (q + t, chain.h_end.payload) not in ends:
                    ends.add((q + t, chain.h_end.payload))
                    new_word = _apply_replacement(T, w, inv, q, jq, chain)
                    if len(new_word) < len(w):
                        candidates.append(
                            (len(new_word), q, unit.uid, jq, t, chain.h0,
                             new_word))
    if not candidates:
        return None, gray
    candidates.sort(key=lambda c: (c[0], c[1], c[2], c[3]))
    new_len, p, uid, j, t, h_start, new_word = candidates[0]
    step = DehnStep("replace", len(w), new_len, uid=uid, rotation=j,
                    offset=p, ell=t,
                    h_start_json=h_start.owner.payload_to_json(
                        h_start.payload),
                    h_start_side=T.side_of_group(h_start.owner))
    return (new_word, step), gray


def reference_dehn_decide(w, R, budget: int = 10_000) -> DehnResult:
    cert = []
    rounds = 0
    while True:
        rounds += 1
        if rounds > budget:
            return DehnResult("inconclusive", cert, "round budget")
        w, red_steps = reference_cyclic_reduce(w, R.T)
        cert.extend(red_steps)
        if not w:
            return DehnResult("trivial", cert)
        found, gray = reference_find_replacement(w, R)
        if found is None:
            if gray:
                return DehnResult(
                    "inconclusive", cert,
                    "label run near the part bound resisted verification")
            return DehnResult("nontrivial", cert)
        w, step = found
        cert.append(step)
