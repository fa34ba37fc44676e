"""Ordinal arithmetic in Cantor normal form, ladder systems, walks, and
the derived subadditive colorings.

Ordinals lie below epsilon_0, with one ladder system, the canonical one
from fundamental sequences; ``LadderSystem`` reads a ladder index off the
CNF, and the point scan in the test oracles is its reference. For a
fixed alpha the walk steps delta -> step(delta, alpha) form a tree
rooted at alpha, and ``LadderSystem`` keeps the tree of its latest
alpha. The coloring e comes from the walk recursion; its binding
contract is subadditivity (both inequalities), checked on every triple
of a scope. ``ColoringTable`` holds e, c0 and c1 in flat triangular
lists on int index pairs: stage indices in the tower engine, positions
in a ranked scope in ``scan-colorings``, where ``from_walks`` walks only
to limits and crosses each run of successors in one step.
"""

from __future__ import annotations

import math
from functools import total_ordering
from typing import Callable, Dict, List, Optional, Sequence, Tuple


@total_ordering
class OrdinalCNF:
    """Ordinal below epsilon_0 as a Cantor-normal-form term list.

    terms is a tuple of (exponent, coefficient) pairs with strictly
    decreasing exponents and positive coefficients; the empty tuple is 0.
    The ``ord_sort_key`` tuple and its hash are built once, here, so
    comparing and hashing ordinals never recurses in Python. Given the
    key, the terms are taken as normal without checks; the ladder
    arithmetic, whose results are normal by construction, passes it.
    ``_pred`` is predecessor(self), kept by ``predecessor`` on its first
    call.
    """

    __slots__ = ("terms", "_key", "_hash", "_pred")

    def __init__(self, terms: Tuple[Tuple["OrdinalCNF", int], ...] = (),
                 key: Optional[Tuple] = None):
        if key is None:
            prev = None
            for exp, coeff in terms:
                if coeff <= 0:
                    raise ValueError("CNF coefficients must be positive")
                if prev is not None and exp._key >= prev._key:
                    raise ValueError("CNF exponents must strictly decrease")
                prev = exp
            key = tuple((exp._key, coeff) for exp, coeff in terms)
        self.terms, self._key, self._hash = terms, key, hash(key)
        self._pred = None

    def is_zero(self) -> bool:
        return not self.terms

    def is_successor(self) -> bool:
        return bool(self.terms) and self.terms[-1][0].is_zero()

    def is_limit(self) -> bool:
        return bool(self.terms) and not self.terms[-1][0].is_zero()

    def __eq__(self, other):
        if not isinstance(other, OrdinalCNF):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "OrdinalCNF") -> bool:
        return self._key < other._key

    def __repr__(self) -> str:
        return f"Ord({ord_to_str(self)})"


ZERO = OrdinalCNF()
ONE = OrdinalCNF((( ZERO, 1),))
OMEGA = OrdinalCNF(((ONE, 1),))


def from_int(n: int) -> OrdinalCNF:
    if n < 0:
        raise ValueError("ordinals are nonnegative")
    if n == 0:
        return ZERO
    return OrdinalCNF(((ZERO, n),))


def omega_power(exp: OrdinalCNF, coeff: int = 1) -> OrdinalCNF:
    return OrdinalCNF(((exp, coeff),))


def ord_cmp(a: OrdinalCNF, b: OrdinalCNF) -> int:
    ka, kb = a._key, b._key
    return (ka > kb) - (ka < kb)


def ord_add(a: OrdinalCNF, b: OrdinalCNF) -> OrdinalCNF:
    """Ordinal sum: the low tail of a below b's leading exponent is
    absorbed."""
    if b.is_zero():
        return a
    lead_exp, lead_coeff = b.terms[0]
    kept = []
    for exp, coeff in a.terms:
        c = ord_cmp(exp, lead_exp)
        if c > 0:
            kept.append((exp, coeff))
        elif c == 0:
            kept.append((exp, coeff + lead_coeff))
            return OrdinalCNF(tuple(kept) + b.terms[1:])
        else:
            break
    return OrdinalCNF(tuple(kept) + b.terms)


def successor(a: OrdinalCNF) -> OrdinalCNF:
    return ord_add(a, ONE)


def _head(a: OrdinalCNF) -> Tuple[tuple, tuple]:
    """(terms, key) of a with the coefficient of its last term lowered
    by one: a - 1 for a successor, and the part of a limit before its
    last w^exp."""
    exp, coeff = a.terms[-1]
    if coeff > 1:
        return (a.terms[:-1] + ((exp, coeff - 1),),
                a._key[:-1] + ((exp._key, coeff - 1),))
    return a.terms[:-1], a._key[:-1]


def predecessor(a: OrdinalCNF) -> OrdinalCNF:
    """a - 1, built on the first call and kept on a."""
    if a._pred is not None:
        return a._pred
    if not a.is_successor():
        raise ValueError(f"{a!r} is not a successor ordinal")
    a._pred = OrdinalCNF(*_head(a))
    return a._pred


def fundamental_seq(delta: OrdinalCNF, n: int) -> OrdinalCNF:
    """The n-th point (0-based) of the canonical fundamental sequence of
    a limit ordinal."""
    if not delta.is_limit():
        raise ValueError(f"{delta!r} is not a limit ordinal")
    if n < 0:
        raise ValueError("index must be nonnegative")
    head, key = _head(delta)
    # remaining part is omega^exp with exp > 0
    exp = delta.terms[-1][0]
    if exp.is_successor():
        x, coeff = predecessor(exp), n + 1
    else:
        x, coeff = fundamental_seq(exp, n), 1
    return OrdinalCNF(head + ((x, coeff),), key + ((x._key, coeff),))


# ---------------------------------------------------------------------------
# parsing and formatting (JSON keys)


def ord_to_str(a: OrdinalCNF) -> str:
    if a.is_zero():
        return "0"
    parts = []
    for exp, coeff in a.terms:
        if exp.is_zero():
            parts.append(str(coeff))
            continue
        if ord_cmp(exp, ONE) == 0:
            base = "w"
        else:
            base = f"w^({ord_to_str(exp)})"
        parts.append(base if coeff == 1 else f"{base}*{coeff}")
    return "+".join(parts)


def ord_from_str(s: str) -> OrdinalCNF:
    text = s.replace(" ", "")
    value, pos = _parse_sum(text, 0)
    if pos != len(text):
        raise ValueError(f"trailing characters in ordinal {s!r}")
    return value


def _parse_sum(text: str, pos: int) -> Tuple[OrdinalCNF, int]:
    total = ZERO
    while True:
        term, pos = _parse_term(text, pos)
        total = ord_add(total, term)
        if pos < len(text) and text[pos] == "+":
            pos += 1
            continue
        return total, pos


def _parse_term(text: str, pos: int) -> Tuple[OrdinalCNF, int]:
    if pos >= len(text):
        raise ValueError("unexpected end of ordinal string")
    if text[pos].isdigit():
        end = pos
        while end < len(text) and text[end].isdigit():
            end += 1
        return from_int(int(text[pos:end])), end
    if text[pos] != "w":
        raise ValueError(f"unexpected character {text[pos]!r} in ordinal")
    pos += 1
    exp = ONE
    if pos < len(text) and text[pos] == "^":
        if pos + 1 >= len(text) or text[pos + 1] != "(":
            raise ValueError("exponent must be parenthesized")
        depth = 1
        end = pos + 2
        while end < len(text) and depth:
            if text[end] == "(":
                depth += 1
            elif text[end] == ")":
                depth -= 1
            end += 1
        if depth:
            raise ValueError("unbalanced parentheses in ordinal")
        exp = ord_from_str(text[pos + 2:end - 1])
        pos = end
    coeff = 1
    if pos < len(text) and text[pos] == "*":
        end = pos + 1
        while end < len(text) and text[end].isdigit():
            end += 1
        coeff = int(text[pos + 1:end])
        pos = end
    return omega_power(exp, coeff), pos


# ---------------------------------------------------------------------------
# ladder systems and walks


class LadderSystem:
    """The canonical ladder system: C_delta is the fundamental sequence
    of a limit delta and the singleton predecessor of a successor, which
    a successor steps to with otp 0 (``from_walks`` relies on it).

    It keeps one row toward the alpha of its latest ``row`` or
    ``entry`` call, dropped when alpha changes. For a fixed alpha the
    steps delta -> step(delta, alpha) form a tree rooted at alpha; the
    row holds the nodes walked so far, by ``_key``, each with its step
    and its trace down to alpha, computed once."""

    def __init__(self):
        self._row_key: Optional[tuple] = None
        self._row: Dict[tuple, list] = {}

    def step(self, delta: OrdinalCNF, alpha: OrdinalCNF) -> Tuple[OrdinalCNF, int]:
        """(min(C_delta minus alpha), otp(C_delta intersect alpha)).

        Requires alpha < delta; cofinality of the ladder guarantees the
        minimum exists. The index comes from CNF arithmetic
        (``_ladder_index``), not from a scan of the ladder's points.
        """
        if not alpha < delta:
            raise ValueError("step requires alpha < delta")
        if delta.is_successor():
            return predecessor(delta), 0
        n = _ladder_index(delta, alpha)
        return fundamental_seq(delta, n), n

    def members_below(self, delta: OrdinalCNF,
                      alpha: OrdinalCNF) -> List[OrdinalCNF]:
        """C_delta intersect alpha, in increasing order, counted by CNF
        arithmetic as ``step`` does; a limit delta needs alpha < delta."""
        if delta.is_successor():
            p = predecessor(delta)
            return [p] if p < alpha else []
        if not alpha < delta:
            raise ValueError("C_delta below alpha is infinite unless "
                             "alpha < delta")
        return [fundamental_seq(delta, k)
                for k in range(_ladder_index(delta, alpha))]

    def row(self, alpha: OrdinalCNF) -> Dict[tuple, list]:
        """The kept walk tree toward alpha: delta._key -> its entry
        [e, otp, below, trace, k], where

        - e is e(alpha, delta), or None until ``WalkColoring.row_e``
          fills it;
        - otp is otp(C_delta intersect alpha);
        - below is the entry of step(delta, alpha), None at alpha;
        - trace[k:] is the walk from delta down to alpha.

        A new alpha starts a row that holds alpha alone, with e = 0."""
        if alpha._key != self._row_key:
            self._row_key = alpha._key
            self._row = {alpha._key: [0, 0, None, (alpha,), 0]}
        return self._row

    def entry(self, alpha: OrdinalCNF, delta: OrdinalCNF) -> list:
        """The row entry of delta, for alpha <= delta. A node the row
        lacks is walked down to the first node the row holds; the new
        nodes share one trace tuple, each at its own position in it."""
        row = self.row(alpha)
        hit = row.get(delta._key)
        if hit is not None:
            return hit
        path, otps = [], []
        cur = delta
        while hit is None:
            path.append(cur)
            cur, otp = self.step(cur, alpha)
            otps.append(otp)
            hit = row.get(cur._key)
        trace = (*path, *hit[3][hit[4]:])
        for k in range(len(path) - 1, -1, -1):
            hit = row[path[k]._key] = [None, otps[k], hit, trace, k]
        return hit


def _ladder_index(delta: OrdinalCNF, alpha: OrdinalCNF) -> int:
    """The least n with fundamental_seq(delta, n) >= alpha, for a limit
    delta and alpha < delta.

    Write the limit delta as head + w^e, so its points are head + w^x.
    Below or at head, n is 0. Above it alpha = head + r with 0 < r <
    w^e. For e = f + 1 the points are head + w^f*(n+1), so n comes from
    r's coefficient c at w^f: c when r has more below w^f, else c - 1.
    For a limit e the points are head + w^(fundamental_seq(e, n)), and
    w^x >= r exactly when x >= g, where g is r's leading exponent if r
    is w^g itself and its successor otherwise: n is e's index for g.
    """
    exp, coeff = delta.terms[-1]
    head = delta.terms[:-1]
    if coeff > 1:
        head += ((exp, coeff - 1),)
    k = len(head)
    if len(alpha.terms) <= k or alpha.terms[:k] != head:
        return 0
    rest = alpha.terms[k:]
    lead, c = rest[0]
    if exp.is_successor():
        if lead != predecessor(exp):
            return 0
        return c if len(rest) > 1 else c - 1
    if c != 1 or len(rest) > 1:
        lead = successor(lead)
    return _ladder_index(exp, lead)


def walk(alpha: OrdinalCNF, beta: OrdinalCNF,
         C: LadderSystem) -> List[OrdinalCNF]:
    """Descending trace of the walk from beta down to alpha. Every step
    lands in [alpha, cur), so the walk ends.

    The trace is read off C's row for alpha (``LadderSystem.entry``). A
    walk of L steps costs O(L): a first walk makes one step and one row
    entry per node it adds and builds one trace tuple, and a repeated
    walk, or one that meets the row early, copies the kept tuple. Its
    length less one is c0(alpha, beta)."""
    if not alpha < beta:
        raise ValueError("walk requires alpha < beta")
    entry = C.entry(alpha, beta)
    return list(entry[3][entry[4]:])


class WalkColoring:
    """The coloring e from the walk recursion.

    e(alpha, beta) = max of: otp(C_beta intersect alpha),
    e(alpha, min(C_beta minus alpha)), and e(xi, alpha) for xi in
    C_beta intersect alpha; with e(alpha, alpha) = 0.

    ``e`` runs the recursion through a memo keyed on pairs of keys;
    ``row_e`` runs it on a walk tree of C's row and uses the memo only
    for the e(xi, alpha) terms, which belong to other rows.
    """

    def __init__(self, C: Optional[LadderSystem] = None):
        self.C = C or LadderSystem()
        self._memo: Dict[Tuple[tuple, tuple], int] = {}

    def e(self, alpha: OrdinalCNF, beta: OrdinalCNF) -> int:
        c = ord_cmp(alpha, beta)
        if c == 0:
            return 0
        if c > 0:
            raise ValueError("e requires alpha <= beta")
        key = (alpha._key, beta._key)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        nxt, otp = self.C.step(beta, alpha)
        value = max(otp, self.e(alpha, nxt))
        for xi in self.C.members_below(beta, alpha):
            value = max(value, self.e(xi, alpha))
        self._memo[key] = value
        return value

    def row_e(self, alpha: OrdinalCNF, entry: list) -> int:
        """e(alpha, delta) for the entry of delta in C's row for alpha,
        filled in on it and on every entry below it that lacks it. A
        successor delta has no ladder point below alpha, and a limit
        delta has otp of them."""
        pending = []
        while entry[0] is None:
            pending.append(entry)
            entry = entry[2]
        value = entry[0]
        for entry in reversed(pending):
            value = max(entry[1], value)
            if entry[1]:
                delta = entry[3][entry[4]]
                for xi in self.C.members_below(delta, alpha):
                    value = max(value, self.e(xi, alpha))
            entry[0] = value
        return value


def ord_sort_key(a: OrdinalCNF) -> Tuple:
    """A plain tuple that sorts like the ordinal: one (exponent key,
    coefficient) pair per term."""
    return a._key


# ---------------------------------------------------------------------------
# Cantor pairing, which the engine's bookkeeping codes are built from


def cantor_pair(x: int, y: int) -> int:
    return (x + y) * (x + y + 1) // 2 + y


def cantor_unpair(n: int) -> Tuple[int, int]:
    if n < 0:
        raise ValueError("pairing is defined on naturals")
    s = (math.isqrt(8 * n + 1) - 1) // 2
    y = n - s * (s + 1) // 2
    return s - y, y


# ---------------------------------------------------------------------------
# coloring tables


def _masks_below(at: Dict[int, int], levels: List[int]) -> Dict[int, int]:
    """For each v of the increasing ``levels``, the union of at[u], u < v."""
    out, acc = {}, 0
    for v in levels:
        out[v] = acc
        acc |= at.get(v, 0)
    return out


class ColoringTable:
    """Pair-colorings e, c0, c1 on int pairs (i, j) with 0 <= i < j.

    In the tower, index i is stage i; in a table from ``from_walks``, it
    is ``scope[i]``, the i-th ordinal of the ranked scope. Each coloring
    is a flat list over the indices below ``n``: (i, j) sits at j(j-1)/2
    + i, so column j is one slice. An absent entry is None, as is every
    entry past the table: it reads 0 in e and None ("undecodable") in c0
    and c1, which keeps the engine's relator seeds that would need it
    out, and ``to_json`` and the ``*_map`` views leave it out."""

    def __init__(self, e: Optional[Dict[Tuple[int, int], int]] = None,
                 c0: Optional[Dict[Tuple[int, int], int]] = None,
                 c1: Optional[Dict[Tuple[int, int], int]] = None,
                 scope: Sequence[OrdinalCNF] = ()):
        self.scope = list(scope)
        maps = {"e": e or {}, "c0": c0 or {}, "c1": c1 or {}}
        self.n = max([len(self.scope)] +
                     [j + 1 for m in maps.values() for _, j in m])
        self._d_sets: Dict[Tuple[int, int, str], Tuple[int, ...]] = {}
        flats = []
        for name, m in maps.items():
            flat = [None] * (self.n * (self.n - 1) // 2)
            for (i, j), v in m.items():
                if not 0 <= i < j or v < 0:
                    raise ValueError(f"bad {name} entry ({i},{j})={v}")
                flat[j * (j - 1) // 2 + i] = v
            flats.append(flat)
        self._e, self._c0, self._c1 = flats

    def _at(self, flat: list, i: int, j: int) -> Optional[int]:
        return flat[j * (j - 1) // 2 + i] if 0 <= i < j < self.n else None

    def _column(self, flat: list, j: int) -> list:
        """The entries (i, j), i < j, of a flat list: column j."""
        if j < self.n:
            return flat[j * (j - 1) // 2:j * (j + 1) // 2]
        return [None] * j

    def _e_column(self, j: int) -> list:
        col = self._column(self._e, j)
        return [v or 0 for v in col] if None in col else col

    def _map(self, flat: list) -> Dict[Tuple[int, int], int]:
        return {(i, j): v for j in range(self.n)
                for i, v in enumerate(self._column(flat, j)) if v is not None}

    e_map = property(lambda self: self._map(self._e))
    c0_map = property(lambda self: self._map(self._c0))
    c1_map = property(lambda self: self._map(self._c1))

    def e(self, i: int, j: int) -> int:
        if not 0 <= i < j:
            raise ValueError(f"e needs i < j, got ({i},{j})")
        return self._at(self._e, i, j) or 0

    def c0(self, i: int, j: int) -> Optional[int]:
        return self._at(self._c0, i, j)

    def c1(self, i: int, j: int) -> Optional[int]:
        return self._at(self._c1, i, j)

    def d_set(self, gamma: int, i: int, mode: str) -> Tuple[int, ...]:
        """The indices b < gamma with e(b, gamma) < i (strict) or
        <= i (weak), in increasing order: a scan of column gamma. Built
        once per (gamma, i, mode) and kept, so the table must not change
        after its first D-set."""
        key = (gamma, i, mode)
        out = self._d_sets.get(key)
        if out is None:
            if mode not in ("strict", "weak"):
                raise ValueError("mode must be strict or weak")
            bound = i if mode == "strict" else i + 1
            out = self._d_sets[key] = tuple(
                b for b, v in enumerate(self._e_column(gamma)) if v < bound)
        return out

    @classmethod
    def from_walks(cls, scope: Sequence[OrdinalCNF],
                   C: Optional[LadderSystem] = None) -> "ColoringTable":
        """The walk colorings on the ranked scope: for alpha < beta, e
        from the walk recursion, c0 the number of steps of the walk from
        beta down to alpha and c1 the otp of its first step.

        A member is head + k, its head zero or a limit. A successor steps
        to its predecessor with otp 0, so for beta = head + k, k > 0, each
        c1 is 0, a member head + k' has e = 0 and c0 = k - k', and a
        member below the head has the head's e and its c0 plus k. Only
        limit members and heads outside the scope are walked, alpha-major,
        so each walk grows C's row for its alpha and e of a node is
        computed once per row (``WalkColoring.row_e``)."""
        C = C or LadderSystem()
        coloring = WalkColoring(C)
        ranked = sorted(scope, key=ord_sort_key)
        if len({x._key for x in ranked}) < len(ranked):
            raise ValueError("from_walks needs distinct ordinals")
        heads, depths, first = [], [], {}
        for j, x in enumerate(ranked):
            k = x.terms[-1][1] if x.is_successor() else 0
            heads.append(x._key[:-1] if k else x._key)
            depths.append(k)
            first.setdefault(heads[-1], j)
        # the walked nodes: (key, members below, ordinal) of each head
        # with members below it, and their columns (e, c0, c1)
        nodes = [(h, m, OrdinalCNF(ranked[m].terms[:-1], h)
                  if depths[m] else ranked[m])
                 for h, m in first.items() if m]
        below = {h: ([], [], []) for h, _, _ in nodes}
        for i, a in enumerate(ranked):
            row = C.row(a)
            for h, m, node in nodes:
                if i < m:
                    col = below[h]
                    col[1].append(len(walk(a, node, C)) - 1)
                    entry = row[h]
                    col[0].append(coloring.row_e(a, entry))
                    col[2].append(entry[1])
        e, c0, c1 = [], [], []
        for j, (h, k) in enumerate(zip(heads, depths)):
            he, hc0, hc1 = below.get(h, ((), (), ()))
            e += he
            if k:
                run = range(first[h], j)
                e += [0] * len(run)
                c0 += [d + k for d in hc0] + [k - depths[i] for i in run]
                c1 += [0] * j
            else:
                c0 += hc0
                c1 += hc1
        table = cls()
        table.scope, table.n = ranked, len(ranked)
        table._e, table._c0, table._c1 = e, c0, c1
        return table

    def check_contract(self) -> dict:
        """Subadditivity on every triple a < b < c of the scope:
        (1) e(a, c) <= max(e(a, b), e(b, c)) and
        (2) e(a, b) <= max(e(a, c), e(b, c)).

        The scan reads the table column by column and runs over pairs, on
        bit masks: row x's mask at v holds the c > x with e(x, c) < v, and
        column x's the b < x with e(b, x) < v. For a pair a < c with z =
        e(a, c), row a's and column c's masks at z meet in the middles b
        that break (1), and the row masks of a and c at z in the thirds
        that break (2) with c as the middle: O(n^2) big-int operations.

        The first violation, the least (middle, inequality, a, third), is
        returned under "violation" with its triple as ordinal strings,
        and "triples" counts the triples of the smaller middles. A pass
        reports, for each level i up to the largest e, the largest weak
        D-set, the max over c of |{b < c : e(b, c) <= i}|: a popcount of
        column masks. An e entry outside the scope raises ValueError.
        """
        n = len(self.scope)
        for (i, j), v in (self.e_map.items() if self.n > n else ()):
            if j >= n:
                raise ValueError(f"e entry ({i},{j})={v} lies outside the "
                                 f"scope of {n} ordinals")
        # row_at[x][v]: the c > x with e(x, c) = v, as a bit mask; the
        # column masks below each value of column c, made as c is read
        # weak[v]: the largest weak D-set at v, where column c has v
        row_at: List[Dict[int, int]] = [{} for _ in range(n)]
        col_lt, weak = [], {}
        for c in range(n):
            at, bit = {}, 1 << c
            for b, v in enumerate(self._e_column(c)):
                at[v] = at.get(v, 0) | 1 << b
                row = row_at[b]
                row[v] = row.get(v, 0) | bit
            levels, size = sorted(at), 0
            col_lt.append(_masks_below(at, levels))
            for v in levels:
                size += at[v].bit_count()
                weak[v] = max(weak.get(v, 0), size)
        # the row masks below each value that index x looks up: its row
        # and column values, since (2) reads row c at a value of column c
        row_lt = []
        for x in range(n):
            at, row_at[x] = row_at[x], None
            row_lt.append(_masks_below(at, sorted(at.keys() |
                                                  col_lt[x].keys())))
        first = (n,)
        for c in range(n):
            below_c, row_c = col_lt[c], row_lt[c]
            for a, z in enumerate(self._e_column(c)):
                below = row_lt[a][z]
                bad = below & below_c[z]
                if bad:
                    first = min(first, ((bad & -bad).bit_length() - 1, 1,
                                        a, c))
                bad = below & row_c[z]
                if bad:
                    first = min(first, (c, 2, a,
                                        (bad & -bad).bit_length() - 1))
        if first[0] < n:
            middle, inequality, a, third = first
            return {"triples": sum(j * (n - 1 - j) for j in range(middle)),
                    "violation": {"inequality": inequality, "triple": [
                        ord_to_str(self.scope[x])
                        for x in (a, middle, third)]}}
        return {"triples": math.comb(n, 3), "weak_d_size_by_level": [
            max([size for v, size in weak.items() if v <= i], default=0)
            for i in range(max(weak, default=-1) + 1)]}

    def to_json(self) -> dict:
        """The tower config's colorings block: {"e": {"i,j": v}, ...}."""
        return {name: {f"{i},{j}": v
                       for (i, j), v in sorted(self._map(flat).items())}
                for name, flat in (("e", self._e), ("c0", self._c0),
                                   ("c1", self._c1))}

    @classmethod
    def from_json(cls, data: dict, stages: int) -> "ColoringTable":
        """Inverse of to_json for a tower of ``stages`` stages; raises
        ValueError on a malformed block or an entry past the last stage."""
        if not isinstance(data, dict):
            raise ValueError("colorings must be an object")
        unknown = sorted(set(data) - {"e", "c0", "c1"})
        if unknown:
            raise ValueError(f"unknown colorings key(s): "
                             f"{', '.join(map(repr, unknown))}; expected "
                             f"'e', 'c0' or 'c1'")
        maps = []
        for name in ("e", "c0", "c1"):
            m = data.get(name) or {}
            if not isinstance(m, dict):
                raise ValueError(f"colorings {name!r} must be an object")
            out = {}
            for key, v in m.items():
                try:
                    i, j = map(int, key.split(","))
                except ValueError:
                    raise ValueError(f"colorings {name!r} key {key!r} is "
                                     f"not 'i,j'") from None
                if type(v) is not int:
                    raise ValueError(f"colorings {name!r} value at {key!r} "
                                     f"is not an integer: {v!r}")
                if j >= stages:
                    raise ValueError(f"colorings {name!r} key {key!r} is "
                                     f"past the last of {stages} stages")
                out[i, j] = v
            maps.append(out)
        return cls(*maps)


# ---------------------------------------------------------------------------
# scopes and scans


def omega_sq_scope(count: int) -> List[OrdinalCNF]:
    """The first ``count`` ordinals below omega^2 in a square
    enumeration: omega*a + b over a growing square grid, sorted."""
    side = math.isqrt(count) + 2
    return sorted((ord_add(omega_power(ONE, a) if a else ZERO, from_int(b))
                   for a in range(side) for b in range(side)),
                  key=ord_sort_key)[:count]


def hitting_scan(
    A: Sequence[OrdinalCNF],
    targets: Sequence[Tuple[int, int, int]],
    c0: Callable[[int, int], Optional[int]],
    c1: Callable[[int, int], Optional[int]],
    e: Callable[[int, int], int],
) -> dict:
    """Witness counts per (beta, target): how many alpha < beta in A
    satisfy c0 = xi0, c1 = xi1 and e > i. The colorings take positions
    (i, j), i < j, in sorted A, as the lookups of ``from_walks(A)`` do.
    Reporting only; the club-quantified property is not decidable at
    this scale."""
    ordered = sorted(A, key=ord_sort_key)
    # one pass over the pairs: the e values of each targeted (c0, c1),
    # grouped by beta in increasing order
    wanted = {(xi0, xi1) for xi0, xi1, _ in targets}
    groups: Dict[Tuple[int, int], Dict[int, List[int]]] = {}
    for bj in range(1, len(ordered)):
        for ai in range(bj):
            key = (c0(ai, bj), c1(ai, bj))
            if key in wanted:
                groups.setdefault(key, {}).setdefault(bj, []).append(
                    e(ai, bj))
    report: Dict[str, Dict[str, int]] = {}
    hit_targets = 0
    for xi0, xi1, i in targets:
        counts: Dict[str, int] = {}
        for bj, es in groups.get((xi0, xi1), {}).items():
            n = sum(1 for v in es if v > i)
            if n:
                counts[ord_to_str(ordered[bj])] = n
        report[f"{xi0},{xi1},>{i}"] = counts
        hit_targets += bool(counts)
    return {"targets": len(targets), "targets_hit": hit_targets,
            "witnesses": report}
