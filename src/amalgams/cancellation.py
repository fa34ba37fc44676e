"""Symmetrized relator sets, the metric overlap condition C', and
Dehn's algorithm for the word problem of their quotients.

A relator set keeps its weakly cyclically reduced base words and reads
rotations and inverses off cyclic code strings, written once. Both
scans, C' and Dehn's long-part search, first find label runs (labels
are constant on H-double cosets, so a cancellation chain forces a
label run) and then walk each run's diagonal once, with
``Diagonal``: one rule for every amalgam, which computes each chain
state once and gives the chain from each offset by
``cancellation_chain``, on shared-free amalgams by comparing code
slices. The C' verdict is kept on the set. The replays of C' witnesses
and Dehn certificates share no code with the chain codes.

A quotient has no group object of its own: ``build_quotient`` gates a
relator set by C'(1/10) alone, and ``dehn_decide`` on the set decides
words in the quotient.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Dict, Hashable, List, NamedTuple, Optional, Sequence, \
    Tuple

from amalgams import kernels, words
from amalgams.groups import Element, ElementRegistry
from amalgams.canonical import (
    AmalgamTriple,
    CanonicalWord,
    Syllable,
    canonical_inverse,
    canonical_product,
    is_wcr,
    rotate,
    word_from_json,
    word_to_json,
)


class ScanUnit(NamedTuple):
    """A base relator, or the inverse of one. A base's word is wcr with
    even length (or length <= 1), and its origin says what it was built
    from; ``RelatorSet`` names each unit's partner."""

    uid: str
    word: CanonicalWord
    partner: Optional[str] = None  # uid of the unit that spells its inverse
    origin: Optional[dict] = None


class RelatorSet:
    """A symmetrized relator set, represented by its base relators.

    The closure members (rotations of the bases and their inverses, and
    the seam-splitting odd conjugates) are read implicitly, never
    enumerated. Units come in (base, inverse) pairs. Each unit's codes
    are strings of ``chr(code)`` written twice, so a cyclic read is a
    slice: ``cyclic_labels`` holds its double-coset label codes, which
    ``kernels.runs_at_least`` searches, and ``codes`` its chain codes
    when the amalgam has ``label_and_ends`` (else None): syllable x codes
    (label of u[x], reduced junction tail(u[x-1]) · head(u[x])), read
    cyclically, with head and tail the outer H-segments (see
    ``cancellation_chain``). ``code_word`` codes a query word, once.
    Replays read no codes: a C' witness is walked by element
    arithmetic, and so is a Dehn certificate, except that on an amalgam
    with an ambient free group each part is one free reduction.
    ``cprime`` keeps ``check_cprime``'s verdict at ``chi``; the set must
    not change after construction.

    Coding runs Python once per distinct syllable object (keyed on
    ``id``; the word holds its syllables, so no id is reused), and per
    distinct (previous, current) pair of objects when some object has
    a tail; each string is then one ``str.join``.
    """

    def __init__(
        self,
        T: AmalgamTriple,
        bases: Sequence[ScanUnit],
        chi: Fraction = Fraction(1, 10),
        rho_generated: bool = False,
    ):
        self.T = T
        self.chi = Fraction(chi)
        self.rho_generated = rho_generated
        self.units: List[ScanUnit] = []
        for base in bases:
            if base.word.is_empty():
                raise ValueError(f"relator {base.uid} is trivial")
            if not is_wcr(base.word, T):
                raise ValueError(f"relator {base.uid} is not wcr")
            inv = base.uid + "^-1"
            self.units.append(base._replace(partner=inv))
            self.units.append(ScanUnit(
                inv, canonical_inverse(base.word, T), base.uid))
        self.bases = self.units[::2]
        self.by_uid: Dict[str, ScanUnit] = {u.uid: u for u in self.units}
        self._label_codes: Dict[Hashable, int] = {}
        self._chain_codes: Dict[Tuple[int, tuple], int] = {}
        self._junctions: Dict[Tuple[int, tuple, tuple], int] = {}
        self.cyclic_labels: Dict[str, str] = {}
        codes = {}
        for unit in self.units:
            labels, chain = self._code(unit.word, grow=True)
            self.cyclic_labels[unit.uid] = labels * 2
            codes[unit.uid] = chain and chain * 2
        self.codes: Optional[Dict[str, str]] = \
            None if None in codes.values() else codes
        self.cprime: Optional["CPrimeResult"] = None

    def code_word(self, w: CanonicalWord) -> Tuple[str, Optional[str]]:
        """Label codes and chain codes (None without ``codes``) of a
        query word, each a string of ``chr(code)``; 0, which matches no
        unit, for a label or a (label, junction) pair that no unit has."""
        return self._code(w, grow=False)

    def _code(self, w: CanonicalWord, grow: bool):
        T = self.T
        ids = list(map(id, w.syllables))
        label, ends = {}, {}  # id(syllable) -> label code, (head, tail)
        for key, s in dict(zip(ids, w.syllables)).items():
            coded = T.label_and_ends(s.elt)
            label[key] = _intern(self._label_codes, T.coset_label(s.elt)
                                 if coded is None else coded[0], grow)
            ends[key] = coded and coded[1:]
        char = {key: chr(code) for key, code in label.items()}
        labels = "".join(map(char.__getitem__, ids))
        if None in ends.values():
            return labels, None
        # the junction before syllable x is tail(w[x-1]) · head(w[x]),
        # read cyclically: keyed on the (previous, current) pair of
        # objects, or on the current one when no object has a tail; the
        # pairs are zipped twice, as a list they take 64 bytes a syllable
        tails = any(tail for _, tail in ends.values())
        before = ids[-1:] + ids[:-1]
        char = {}
        for key in dict.fromkeys(zip(before, ids) if tails else ids):
            prev, cur = key if tails else (key, key)
            junction = (label[cur], ends[prev][1], ends[cur][0])
            code = self._junctions.get(junction)
            if code is None:
                code = self._junctions[junction] = _intern(
                    self._chain_codes, (junction[0], words.free_reduce(
                        junction[1] + junction[2])), grow)
            char[key] = chr(code)
        return labels, "".join(map(
            char.__getitem__, zip(before, ids) if tails else ids))


def _intern(table: dict, key, grow: bool) -> int:
    """The code of key in table, numbered from 1; a new key gets the
    next code when ``grow``, else 0."""
    code = table.get(key, 0)
    if grow and not code:
        code = table[key] = len(table) + 1
    return code


def symmetrized_closure(
    R0: Sequence[CanonicalWord],
    T: AmalgamTriple,
    chi: Fraction = Fraction(1, 10),
    origins: Optional[Sequence[Optional[dict]]] = None,
    rho_generated: bool = False,
) -> RelatorSet:
    """The set of base relators R0, each rotated to a wcr conjugate of
    even (or <= 1) length. The loop stops: an odd word of length >= 3
    starts and ends on one side, so each rotation merges its first
    syllable into its last and removes one or two syllables."""
    bases = []
    for idx, r in enumerate(R0):
        while len(r) > 1 and len(r) % 2:
            r = rotate(r, T)
        origin = origins[idx] if origins else None
        bases.append(ScanUnit(f"r{idx}", r, origin=origin))
    return RelatorSet(T, bases, chi=chi, rho_generated=rho_generated)


# ---------------------------------------------------------------------------
# exact cancellation chains


class ChainResult(NamedTuple):
    ell: int
    h0: Optional[Element]
    full_wrap_trivial: bool  # cancellation consumed both words to product 1
    h_end: Optional[Element] = None  # the running H-product after ell steps


def cancellation_chain(
    T: AmalgamTriple,
    w1: CanonicalWord,
    w2: CanonicalWord,
    i1: int,
    j2: int,
    max_steps: int,
    skip_trivial_wrap: bool = False,
    codes: Optional[Tuple[str, str]] = None,
    diagonal: Optional["Diagonal"] = None,
) -> ChainResult:
    """Exact cancellation length of (rotation of w1 ending at i1) times
    (h-conjugated rotation of w2 starting at j2), the longest over the
    seeds h.

    Step t multiplies a_t = w1[i1-t], the running H-product, and
    b_t = w2[j2+t]; cancellation continues while the product stays in H.
    Both words are read cyclically. With w1 spelling r^-1 (m syllables)
    and i1 = m-1-j this is Dehn's part match:
    w2[j2..j2+ell) = h0^-1 * r[j..j+ell) * h_end.

    A wrap, ``full_wrap_trivial``, is a chain that starts on seed 1,
    consumes both words and ends on 1: then w2's rotation is w1^-1's
    rotation letter for letter, the alignment of a relator with itself
    that pieces leave out (R1 = R2 in Lyndon–Schupp, ch. V.11). A full
    chain from a seed h != 1 that ends on 1 shows that w2's rotation is
    h^-1 times w1^-1's rotation, a different relator, so it is no wrap,
    and a chain of that length is a piece. With ``skip_trivial_wrap`` a
    wrap is left out, so the result is the longest chain between w1^-1
    and a conjugate of w2 that is a different relator.

    ``codes``, the chain code strings of the unit that spells w1^-1
    (doubled, from ``RelatorSet.codes``) and of w2 (a unit's, or a
    query word's from ``code_word``), replaces element arithmetic after
    step 0 when both words have at least two syllables (all outside H).
    Step 0 holds exactly when h0 is a seed. For t >= 1, a_t·P·b_t ∈ H
    forces P = tail(a_t)^-1·head(b_t)^-1, while the previous step left
    P = head(a_{t-1})·tail(b_{t-1}), and the skeletons and inner
    H-segments of a_t and b_t must cancel exactly: b_t's (label,
    junction) code is the code of a_t^-1, read off w1^-1. The chain
    ends on h_end = head(a_{ell-1})·tail(b_{ell-1}).

    ``diagonal`` is the ``Diagonal`` of this offset, if any, with ``j2``
    its position along w2, not reduced; element walks share its states.
    """
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
            ell, P = _coded_walk(T, w1, w2, i1, j2, max_steps, codes, h0)
            if diagonal is not None:
                diagonal.settled = j2 + ell
        else:
            R, r = _element_walk(T, w1, w2, i1, j2, h0, stop, states)
            ell = min(r, max_steps)
            # states are kept on the side of their w1 syllable; the
            # chain ends on the side of its last step
            P = T.transfer(R[r - ell], w1[(i1 + 1 - max(ell, 1)) % n].side)
        wrap = ell == max_steps == n == m and h0.owner.is_identity(h0) \
            and P.owner.is_identity(P)
        if wrap and skip_trivial_wrap:
            continue
        if ell > best.ell or best.h0 is None:
            best = ChainResult(ell, h0, wrap, P)
    return best


class Diagonal:
    """The chains from each offset o < length of one diagonal: w1 read
    backwards from i1 - o against w2 from j2 + o, capped at
    min(max_steps, room - o) steps. Both scans walk their label runs so.

    A chain state is a position j along w2 and the H-element carried
    into it. Each has one successor, and P -> a·P·b is injective, so
    states lie on disjoint paths, cut at ``stop``, the furthest position
    a capped chain reads. ``states`` maps each state walked to (R, r): R
    lists its path from the end, R[r] is the state, and its chain runs r
    steps and after t of them carries R[r - t]. A walk that meets a
    known state has met the start of its path and extends R, so each
    state is computed once; the product-1 wrap is one such path.

    On a shared-free amalgam a junction has at most one seed, so the
    state is the position: a coded chain of ell steps from j settles
    positions j..j+ell-1, whose chains continue it, and ``chains`` steps
    past them.
    """

    def __init__(self, T, w1, w2, i1, j2, length, max_steps,
                 room=math.inf, codes=None):
        self.T, self.w1, self.w2, self.i1, self.j2 = T, w1, w2, i1, j2
        self.length, self.max_steps, self.room, self.codes = \
            length, max_steps, room, codes
        self.stop = j2 + min(room, length - 1 + max_steps)
        self.states: Dict[tuple, Tuple[list, int]] = {}
        self.settled = j2

    def chains(self, skip_trivial_wrap: bool = False):
        """(o, ``cancellation_chain`` from offset o) for each offset no
        chain has settled. A coded wrap hides no other seed, so it is kept."""
        skip = skip_trivial_wrap and self.codes is None
        o = 0
        while o < self.length:
            yield o, cancellation_chain(
                self.T, self.w1, self.w2, self.i1 - o, self.j2 + o,
                min(self.max_steps, self.room - o), skip, self.codes, self)
            o = max(o + 1, self.settled - self.j2)


def _element_walk(T, w1, w2, i1, j2, h0, stop, states):
    """(R, r) of the state (j2, h0), as in ``Diagonal``; ``states`` (its
    memo, or None) gives the states walked before and takes the new."""
    n, m = len(w1), len(w2)
    path, R = [], []
    j, P = j2, h0
    while True:
        a, b = w1[(i1 + j2 - j) % n], w2[j % m]
        P = T.transfer(P, a.side)
        if states is not None and (j, P.payload) in states:
            R = states[j, P.payload][0]
            break
        path.append(P)
        group = P.owner
        if j == stop or a.side != b.side:
            break
        P = group.mul(group.mul(a.elt, P), b.elt)
        if not T.in_H(P):
            break
        j += 1
    R.extend(reversed(path))
    if states is None:
        return R, len(R) - 1
    for t, P in enumerate(path):
        states[j2 + t, P.payload] = (R, len(R) - 1 - t)
    return states[j2, h0.payload]


def _coded_walk(T, w1, w2, i1, j2, max_steps, codes, h0):
    """(ell, h_end) of the coded chain from h0: codes compared in
    slices of 64, then one at a time, w2's read cyclically."""
    n, m = len(w1), len(w2)
    inv_codes, w2_codes = codes
    if max_steps < 1:
        return 0, h0
    # a_t^-1 is entry x + t of the doubled codes of the unit spelling
    # w1^-1, and b_t entry y + t of w2's
    x, y, size = (n - 1 - i1) % n, j2 % m, len(w2_codes)
    ell = 1
    while ell + 64 <= max_steps and \
            inv_codes[x + ell:x + ell + 64] == w2_codes[y + ell:y + ell + 64]:
        ell += 64
    while ell < max_steps and \
            inv_codes[x + ell] == w2_codes[(y + ell) % size]:
        ell += 1
    a = w1[(i1 - ell + 1) % n].elt
    b = w2[(j2 + ell - 1) % m].elt
    group = a.owner
    head = Element(group, T.label_and_ends(a)[1])
    tail = Element(group, T.label_and_ends(b)[2])
    return ell, group.mul(head, tail)


# ---------------------------------------------------------------------------
# the metric overlap checker


class CPrimeWitness(NamedTuple):
    uid1: str
    uid2: str
    i1: int
    j2: int
    ell: int
    min_len: int
    threshold: int
    h0_json: object
    h0_side: str


class CPrimeResult(NamedTuple):
    status: str  # pass | fail | inconclusive
    witness: Optional[CPrimeWitness] = None
    max_core: int = 0
    pairs_scanned: int = 0
    note: str = ""


def distinct_cyclic_runs(
    runs: Sequence[Tuple[int, int, int]], n: int, m: int
) -> List[Tuple[int, int, int]]:
    """The runs of a scan over doubled arrays (periods n and m) with
    distinct cyclic starts (s mod n, j mod m), first copy kept: a copy
    repeats the first copy's chains, and the first copy in sorted order
    starts inside both first periods and runs at least as far."""
    seen, out = set(), []
    for run in runs:
        start = (run[0] % n, run[1] % m)
        if start not in seen:
            seen.add(start)
            out.append(run)
    return out


def check_cprime(R: RelatorSet) -> CPrimeResult:
    """The metric overlap condition C'(R.chi) on R.

    The result is kept on the set, so checking it again is free."""
    if R.cprime is None:
        R.cprime = _scan_cprime(R)
    return R.cprime


def _scan_cprime(R: RelatorSet) -> CPrimeResult:
    T, codes, chi = R.T, R.codes, R.chi
    max_core, pairs, gray = 0, 0, False
    for u1 in R.units:
        n = len(u1.word)
        # read backwards, u1 spells its partner: entry s of the partner's
        # labels is the label of u1's syllable n-1-s, inverted
        U2 = R.cyclic_labels[u1.partner]
        for u2 in R.units:
            pairs += 1
            m = len(u2.word)
            k_min = math.ceil(chi * min(n, m))  # least violating ell
            if k_min > min(n, m):
                continue
            scan_k = max(1, k_min - 2)
            runs = kernels.runs_at_least(U2, R.cyclic_labels[u2.uid], scan_k)
            for (s, j, length) in distinct_cyclic_runs(runs, n, m):
                # offsets a period apart are the same chain states
                diagonal = Diagonal(
                    T, u1.word, u2.word, n - 1 - s, j,
                    min(length, math.lcm(n, m)), min(n, m),
                    codes=codes and (codes[u1.partner], codes[u2.uid]))
                for o, res in diagonal.chains(skip_trivial_wrap=True):
                    if res.full_wrap_trivial:
                        continue  # the excluded self-alignment
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
    # No verified chain reaches the bound. Seam-splitting conjugates can
    # extend a chain by at most one syllable at each end, and their
    # interior steps are plain full-syllable chain steps, so any split
    # violation would have produced a chain within the scan slack (gray).
    if gray:
        return CPrimeResult(
            "inconclusive", None, max_core, pairs,
            note="verified overlaps approach the bound within split slack")
    return CPrimeResult("pass", None, max_core, pairs)


def replay_cprime_witness(R: RelatorSet, wit: CPrimeWitness) -> bool:
    """Re-run the witnessed chain step by step and confirm the verdict;
    a witness that names no unit gives False."""
    u1, u2 = R.by_uid.get(wit.uid1), R.by_uid.get(wit.uid2)
    if u1 is None or u2 is None:
        return False
    res = cancellation_chain(R.T, u1.word, u2.word, wit.i1, wit.j2,
                             wit.min_len, skip_trivial_wrap=True)
    return res.ell >= wit.ell >= wit.threshold


# ---------------------------------------------------------------------------
# the Dehn algorithm


class DehnStep(NamedTuple):
    kind: str  # "cyclic-reduce" or "replace"
    from_len: int
    to_len: int
    uid: Optional[str] = None
    rotation: Optional[int] = None
    offset: Optional[int] = None
    ell: Optional[int] = None
    h_start_json: Optional[object] = None
    h_start_side: Optional[str] = None

    def to_json(self) -> dict:
        out = {"kind": self.kind, "from_len": self.from_len,
               "to_len": self.to_len}
        if self.kind == "replace":
            out.update(uid=self.uid, rotation=self.rotation,
                       offset=self.offset, ell=self.ell,
                       h_start=self.h_start_json,
                       h_start_side=self.h_start_side)
        return out


class DehnResult(NamedTuple):
    status: str  # trivial | nontrivial | inconclusive
    certificate: List[DehnStep]
    note: str = ""


def part_threshold(relator_len: int) -> int:
    """Smallest integer ell with 10 * ell > 7 * relator_len: a part
    longer than 7/10 of its relator, which C'(1/10) makes long enough
    for Dehn's algorithm."""
    return 7 * relator_len // 10 + 1


def find_replacement(
    w: CanonicalWord, R: RelatorSet
) -> Tuple[Optional[Tuple], bool]:
    """Best long-part replacement, or None.

    Returns ((new_word, step), gray) where gray means a label run near
    the bound resisted exact verification.
    """
    T = R.T
    W, W_codes = R.code_word(w)
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
            # w[q..q+t) = h0^-1 * r[jq..jq+t) * h_end: r^-1 read
            # backwards from m-1-jq cancels against w from q
            diagonal = Diagonal(
                T, inv, w, m - 1 - j, p, length, m, room=len(w) - p,
                codes=W_codes and (R.codes[unit.uid], W_codes))
            ends = set()  # a chain that ends on a known end is a suffix
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


def _apply_replacement(
    T: AmalgamTriple,
    w: CanonicalWord,
    inv: CanonicalWord,
    p: int,
    j: int,
    chain: ChainResult,
) -> CanonicalWord:
    """Replace w[p..p+t) = h_start^-1 * r[j..j+t) * h_end by
    h_start^-1 * (r[j+t..j+m))^-1 * h_end, using that the rotation of the
    relator starting at j is trivial in the quotient. ``inv`` spells
    r^-1, so (r[j+t..j+m))^-1 is inv[m-j..2m-j-t), read cyclically.

    ``w`` and ``inv`` must be canonical: only the seams are
    renormalized. The cyclic slice of ``inv`` is split at its wrap,
    because in an odd-length unit the wrap joins two syllables of one
    side."""
    m, t = len(inv), chain.ell
    h_start, h_end = chain.h0, chain.h_end
    r = inv.syllables
    return canonical_product((
        (w.syllables[:p], True),
        ((Syllable(T.side_of_group(h_start.owner), h_start.inv()),), False),
        (r[m - j:2 * m - j - t], True),
        (r[:max(m - j - t, 0)], True),
        ((Syllable(T.side_of_group(h_end.owner), h_end),), False),
        (w.syllables[p + t:], True),
    ), T)


def _cyclic_reduce(w: CanonicalWord, T: AmalgamTriple
                   ) -> Tuple[CanonicalWord, List[DehnStep]]:
    """The wcr conjugate of a canonical word, with one ``cyclic-reduce``
    step per ``rotate`` it stands for: while the length is odd and the
    seam (last)(first) is in H, a rotation folds it into the syllable
    before the last. Both ends are walked in, the word built once."""
    s = w.syllables
    i, j = 0, len(s) - 1
    last = s[j] if s else None
    steps = []
    while j - i >= 2 and (j - i) % 2 == 0 and s[i].side == last.side:
        seam = last.elt.owner.mul(last.elt, s[i].elt)
        if not T.in_H(seam):
            break
        prev = s[j - 1]
        last = Syllable(prev.side, prev.elt.owner.mul(
            prev.elt, T.transfer(seam, prev.side)))
        steps.append(DehnStep("cyclic-reduce", j - i + 1, j - i - 1))
        i, j = i + 1, j - 1
    if not steps:
        return w, steps
    return CanonicalWord(s[i:j] + (last,)), steps


def dehn_decide(
    w: CanonicalWord, R: RelatorSet, budget: int = 10_000
) -> DehnResult:
    """Word problem in (K *_H L) / N(R) for R satisfying the metric
    overlap condition C'(1/10), which ``build_quotient`` gates.

    Replaces long relator parts by their shorter complements until the
    word is empty (trivial, with a replayable certificate) or no long
    part exists (nontrivial, provided the word is nontrivial in the
    plain amalgam). Each round reduces the word cyclically in one pass
    (``replay_certificate`` replays each step with ``rotate``), then
    codes the whole word and searches it against every unit.
    """
    cert: List[DehnStep] = []
    rounds = 0
    while True:
        rounds += 1
        if rounds > budget:
            return DehnResult("inconclusive", cert, "round budget")
        w, red_steps = _cyclic_reduce(w, R.T)
        cert.extend(red_steps)
        if w.is_empty():
            return DehnResult("trivial", cert)
        found, gray = find_replacement(w, R)
        if found is None:
            if gray:
                return DehnResult(
                    "inconclusive", cert,
                    "label run near the part bound resisted verification")
            # no long part: by the Greendlinger-type lemma the word
            # is outside the normal closure; it is nontrivial in the
            # quotient because it is nontrivial in the amalgam
            return DehnResult("nontrivial", cert)
        w, step = found
        cert.append(step)


def replay_certificate(
    w: CanonicalWord, cert: Sequence[DehnStep], R: RelatorSet
) -> bool:
    """Re-execute a 'trivial' certificate on the canonical word w; True
    iff it reaches the empty word with every step strictly decreasing
    canonical length. A step that names no unit or no part of the word,
    or whose H-element h_start or its side differs from the replayed
    chain's, gives False.

    A replace step's part identity w[p..p+t) = h0^-1 · r[j..j+t) · h_end
    is replayed by element arithmetic with ``cancellation_chain``, or,
    when the amalgam has an ambient free group, by ``_free_part`` as one
    free reduction in it. Neither reads chain codes."""
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
            if T.ambient is None:
                # capped at t, the chain starts from the first seed that
                # reaches t, which is the seed find_replacement recorded
                chain = cancellation_chain(T, inv, w, m - 1 - j, p, t)
            else:
                chain = _free_part(T, inv, w, p, j, t)
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
    return w.is_empty()


def _free_part(
    T: AmalgamTriple, inv: CanonicalWord, w: CanonicalWord, p: int, j: int,
    t: int,
) -> ChainResult:
    """``cancellation_chain(T, inv, w, m-1-j, p, t)`` on an amalgam with
    an ambient free group, as one free reduction: the part match of
    w[p..p+t) against the relator r that ``inv`` spells backwards.

    With h0 the one seed, the payloads of r[j..j+t)^-1 (cyclic), h0 and
    w[p..p+t) are concatenated and freely reduced, their product in
    ``T.ambient``; the chain runs t steps iff that h_end is an H-word.
    The element walk needs every partial product in H instead, and the
    tests agree: if h_end ∈ H, h0^-1 · r[j..j+t) · h_end = w[p..p+t).
    For t >= 2 both are reduced alternating sequences of t syllables (w
    is canonical, r wcr: a slice across the same-side wrap of an odd
    relator is shorter), so by the normal-form theorem (Lyndon–Schupp,
    *Combinatorial Group Theory*, IV.2) they have the same sides and an
    interleaving chain of H-elements, the walk's. For t = 1 both tests
    are the seed test."""
    m = len(inv)
    a, b = inv[(m - 1 - j) % m], w[p]
    seeds = T.junction_solutions(a.elt, b.elt) if a.side == b.side else []
    if not seeds:
        return ChainResult(0, None, False)
    h0 = seeds[0]
    # r[j..j+t)^-1 is inv[m-j-t..m-j), read cyclically. Every payload
    # is a reduced word over the ambient alphabet, so the letters need
    # none of the checks of T.ambient.element
    letters = []
    for s in range(m - j - t, m - j):
        letters += inv.syllables[s % m].elt.payload
    letters += h0.payload
    for syl in w.syllables[p:p + t]:
        letters += syl.elt.payload
    h_end = Element(T.side_group(w[p + t - 1].side),
                    words.free_reduce(letters))
    if not T.in_H(h_end):
        return ChainResult(0, h0, False)
    return ChainResult(t, h0, False, h_end)


# ---------------------------------------------------------------------------
# the quotient gate


def build_quotient(R: RelatorSet) -> None:
    """Gate a relator set before its quotient is used: raise ValueError
    unless R was built for some chi <= 1/10 and passes C'(chi), which
    implies C'(1/10). Words in the quotient are then decided by
    ``dehn_decide`` on R.

    The gate checks nothing else: under C'(1/10), as under C'(1/6),
    each factor embeds in the quotient (Lyndon–Schupp, *Combinatorial
    Group Theory*, ch. V.11)."""
    if R.chi > Fraction(1, 10):
        raise ValueError(
            f"relator set is built for C'({R.chi}), weaker than C'(1/10)")
    res = check_cprime(R)
    if res.status != "pass":
        raise ValueError(
            f"relator set does not satisfy C'({R.chi}): {res.status}")


# ---------------------------------------------------------------------------
# serialization


def certificate_to_json(cert: Sequence[DehnStep]) -> list:
    return [step.to_json() for step in cert]


def certificate_from_json(data: Sequence[dict]) -> List[DehnStep]:
    return [DehnStep(item["kind"], item["from_len"], item["to_len"],
                     *map(item.get, ("uid", "rotation", "offset", "ell",
                                     "h_start", "h_start_side")))
            for item in data]


def relators_to_json(R: RelatorSet, registry: ElementRegistry) -> dict:
    return {
        "chi": [R.chi.numerator, R.chi.denominator],
        "rho_generated": R.rho_generated,
        "bases": [
            {"rid": b.uid, "word": word_to_json(b.word, registry),
             "origin": b.origin}
            for b in R.bases
        ],
    }


def relators_from_json(
    data: dict, T: AmalgamTriple, registry: ElementRegistry
) -> RelatorSet:
    bases = [
        ScanUnit(item["rid"], word_from_json(item["word"], registry),
                 origin=item.get("origin"))
        for item in data["bases"]
    ]
    chi = Fraction(data["chi"][0], data["chi"][1])
    return RelatorSet(T, bases, chi=chi,
                      rho_generated=data.get("rho_generated", False))
