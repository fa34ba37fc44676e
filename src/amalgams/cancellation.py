"""Symmetrized relator sets, the metric overlap condition, and the
Dehn-algorithm word problem for the resulting quotients.

Relator sets keep only weakly cyclically reduced base words; rotations
and inverses are handled implicitly through cyclic label arrays, which
is what makes 6640-syllable relators tractable. Overlap checking is
two-phase: a label-run prefilter (labels are constant on H-double
cosets, so a genuine cancellation chain forces a label run), then exact
H-membership chain verification of the candidates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from amalgams import kernels
from amalgams.groups import (
    Element,
    ElementRegistry,
    GroupHandle,
    InconclusiveError,
    Tri,
    ambient_sample,
    require,
)
from amalgams.canonical import (
    AmalgamTriple,
    CanonicalWord,
    Syllable,
    canonical_equal,
    canonical_inverse,
    canonicalize,
    is_wcr,
    rotate,
    syllable,
    wcr_conjugates,
    word_from_json,
    word_to_json,
)

RHO_EVEN_LENGTH = 6640


@dataclass(frozen=True)
class BaseRelator:
    rid: str
    word: CanonicalWord  # wcr with even length (or length <= 1)
    origin: Optional[dict] = None


@dataclass(frozen=True)
class ScanUnit:
    uid: str
    word: CanonicalWord
    rid: str
    inverted: bool


class RelatorSet:
    """A symmetrized relator set, represented by its base relators.

    The closure members are the cyclic rotations of the bases and their
    inverses plus the seam-splitting odd conjugates; they are enumerated
    only on demand (``materialize``) and consulted implicitly by the
    scanners.
    """

    def __init__(
        self,
        T: AmalgamTriple,
        bases: Sequence[BaseRelator],
        chi: Fraction = Fraction(1, 10),
        rho_generated: bool = False,
    ):
        self.T = T
        self.chi = Fraction(chi)
        self.bases = list(bases)
        self.rho_generated = rho_generated
        self.units: List[ScanUnit] = []
        for base in self.bases:
            if base.word.is_empty():
                raise ValueError(f"relator {base.rid} is trivial")
            if not require(is_wcr(base.word, T)):
                raise ValueError(f"relator {base.rid} is not wcr")
            self.units.append(ScanUnit(base.rid, base.word, base.rid, False))
            self.units.append(
                ScanUnit(base.rid + "^-1", canonical_inverse(base.word, T),
                         base.rid, True))
        if rho_generated:
            for base in self.bases:
                n = len(base.word)
                if n not in (RHO_EVEN_LENGTH, RHO_EVEN_LENGTH + 1):
                    raise ValueError(
                        f"relator {base.rid} has length {n}, expected "
                        f"{RHO_EVEN_LENGTH} or {RHO_EVEN_LENGTH + 1}")

    def materialize(self, budget: int = 100_000,
                    include_splittings: bool = True) -> List[CanonicalWord]:
        """Explicit closure for small relator sets (tests, fixtures)."""
        total = sum(len(u.word) for u in self.units)
        if total * max((len(u.word) for u in self.units), default=0) > budget:
            raise InconclusiveError("materialization budget exhausted")
        out: List[CanonicalWord] = []
        for unit in self.units:
            for w in wcr_conjugates(unit.word, self.T, budget=budget,
                                    include_splittings=include_splittings):
                if not any(canonical_equal(w, seen, self.T) is Tri.YES
                           for seen in out):
                    out.append(w)
        return out

    def contains(self, w: CanonicalWord, budget: int = 100_000) -> Tri:
        try:
            closure = self.materialize(budget)
        except InconclusiveError:
            return Tri.INCONCLUSIVE
        for r in closure:
            if canonical_equal(w, r, self.T) is Tri.YES:
                return Tri.YES
        return Tri.NO

    def min_base_length(self) -> int:
        return min(len(b.word) for b in self.bases)


def _wcr_normalize(w: CanonicalWord, T: AmalgamTriple) -> CanonicalWord:
    """Rotate to a wcr conjugate of even (or <= 1) length."""
    guard = 2 * len(w) + 4
    while guard:
        guard -= 1
        if len(w) <= 1:
            return w
        if len(w) % 2 == 0:
            return w
        # odd: either the seam merges (not wcr) or a single rotation
        # merges the same-side pair into an even-length conjugate
        w = rotate(w, T)
    raise InconclusiveError("wcr normalization did not stabilize")


def symmetrized_closure(
    R0: Sequence[CanonicalWord],
    T: AmalgamTriple,
    chi: Fraction = Fraction(1, 10),
    origins: Optional[Sequence[Optional[dict]]] = None,
    rho_generated: bool = False,
) -> RelatorSet:
    bases = []
    for idx, r in enumerate(R0):
        if r.is_empty():
            raise ValueError("trivial relator in input")
        core = _wcr_normalize(r, T)
        origin = origins[idx] if origins else None
        bases.append(BaseRelator(f"r{idx}", core, origin))
    return RelatorSet(T, bases, chi=chi, rho_generated=rho_generated)


# ---------------------------------------------------------------------------
# label arrays


class LabelPool:
    def __init__(self) -> None:
        self._codes: Dict[Hashable, int] = {}

    def code(self, label: Hashable) -> int:
        c = self._codes.get(label)
        if c is None:
            c = len(self._codes) + 1
            self._codes[label] = c
        return c


def forward_labels(w: CanonicalWord, T: AmalgamTriple, pool: LabelPool):
    return [pool.code(T.coset_label(s.elt)) for s in w.syllables]


def _reversed_inverse_labels(w: CanonicalWord, T: AmalgamTriple, pool: LabelPool):
    # entry s corresponds to syllable n-1-s, inverted
    return [pool.code(T.coset_label(s.elt.inv()))
            for s in reversed(w.syllables)]


# ---------------------------------------------------------------------------
# exact cancellation chains


@dataclass
class ChainResult:
    ell: int
    h0: Optional[Element]
    full_wrap_trivial: bool  # cancellation consumed both words to product 1
    trace: List[Element] = field(default_factory=list)


def cancellation_chain(
    T: AmalgamTriple,
    w1: CanonicalWord,
    w2: CanonicalWord,
    i1: int,
    j2: int,
    max_steps: int,
) -> ChainResult:
    """Exact cancellation length of (rotation of w1 ending at i1) times
    (h-conjugated rotation of w2 starting at j2).

    Step t multiplies a_t = w1[i1-t], the running H-product, and
    b_t = w2[j2+t]; cancellation continues while the product stays in H.
    """
    n, m = len(w1), len(w2)
    a0, b0 = w1[i1 % n], w2[j2 % m]
    best = ChainResult(0, None, False)
    if a0.side != b0.side:
        return best
    for h0 in T.junction_solutions(a0.elt, b0.elt):
        P = h0
        ell = 0
        trace: List[Element] = []
        while ell < max_steps:
            a = w1[(i1 - ell) % n]
            b = w2[(j2 + ell) % m]
            if a.side != b.side:
                break
            group = T.side_group(a.side)
            Q = group.mul(group.mul(a.elt, T.transfer(P, a.side)), b.elt)
            if T.in_H(Q) is not Tri.YES:
                break
            P = Q
            trace.append(Q)
            ell += 1
        if ell > best.ell or best.h0 is None:
            wrap = False
            if ell == max_steps == n == m:
                wrap = require(P.owner.is_identity(P))
            best = ChainResult(ell, h0, wrap, trace)
    return best


# ---------------------------------------------------------------------------
# the metric overlap checker


@dataclass
class CPrimeWitness:
    uid1: str
    uid2: str
    i1: int
    j2: int
    ell: int
    min_len: int
    threshold: int
    h0_json: object
    h0_side: str


@dataclass
class CPrimeResult:
    status: str  # pass | fail | inconclusive
    witness: Optional[CPrimeWitness] = None
    max_core: int = 0
    pairs_scanned: int = 0
    note: str = ""


def _violation_threshold(chi: Fraction, min_len: int) -> int:
    """Smallest integer ell with ell >= chi * min_len."""
    return math.ceil(chi * min_len)


def check_cprime(R: RelatorSet, chi: Optional[Fraction] = None) -> CPrimeResult:
    chi = Fraction(chi) if chi is not None else R.chi
    T = R.T
    pool = LabelPool()
    fwd = {u.uid: forward_labels(u.word, T, pool) for u in R.units}
    rev = {u.uid: _reversed_inverse_labels(u.word, T, pool) for u in R.units}
    max_core = 0
    pairs = 0
    gray = False
    for u1 in R.units:
        n = len(u1.word)
        U2 = rev[u1.uid] * 2
        for u2 in R.units:
            pairs += 1
            m = len(u2.word)
            k_min = _violation_threshold(chi, min(n, m))
            if k_min > min(n, m):
                continue
            scan_k = max(1, k_min - 2)
            runs = kernels.runs_at_least(U2, fwd[u2.uid] * 2, scan_k)
            seen_diag = set()
            for (s, j, length) in runs:
                diag = (s - j) % math.lcm(n, m)
                if diag in seen_diag:
                    continue
                seen_diag.add(diag)
                o = 0
                while o < length:
                    i1 = (n - 1 - (s + o)) % n
                    j2 = (j + o) % m
                    res = cancellation_chain(T, u1.word, u2.word, i1, j2,
                                             min(n, m))
                    if res.full_wrap_trivial:
                        break  # the excluded product-1 alignment
                    if res.ell >= k_min:
                        h_elt = res.h0
                        side = "K" if h_elt.owner is T.K else "L"
                        wit = CPrimeWitness(
                            u1.uid, u2.uid, i1, j2, res.ell, min(n, m),
                            k_min, h_elt.owner.payload_to_json(h_elt.payload),
                            side)
                        return CPrimeResult("fail", wit, res.ell, pairs)
                    max_core = max(max_core, res.ell)
                    if res.ell >= scan_k:
                        gray = True
                    o += res.ell + 1
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
    """Re-run the witnessed chain step by step and confirm the verdict."""
    T = R.T
    units = {u.uid: u for u in R.units}
    w1, w2 = units[wit.uid1].word, units[wit.uid2].word
    res = cancellation_chain(T, w1, w2, wit.i1, wit.j2, wit.min_len)
    if res.full_wrap_trivial:
        return False
    return res.ell >= wit.ell >= wit.threshold


# ---------------------------------------------------------------------------
# the Dehn algorithm


@dataclass
class DehnStep:
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


@dataclass
class DehnResult:
    status: str  # trivial | nontrivial | inconclusive
    certificate: List[DehnStep] = field(default_factory=list)
    note: str = ""


def _part_chain(
    T: AmalgamTriple,
    w: CanonicalWord,
    unit: ScanUnit,
    p: int,
    j: int,
    max_steps: int,
) -> Tuple[int, Optional[Element], Optional[Element]]:
    """Longest t with w[p..p+t) matching unit.word[j..j+t) (cyclic in the
    relator) through an interleaving H-chain with free endpoints.

    Returns (t, h_start, h_end) with w-segment = h_start^-1 * r-segment * h_end.
    """
    r = unit.word
    m = len(r)
    first_w, first_r = w[p], r[j % m]
    if first_w.side != first_r.side:
        return 0, None, None
    best = (0, None, None)
    for (u, v) in T.coset_factor(first_w.elt, first_r.elt):
        # w[p] = u * r[j] * v, so h_start = u^-1 and h_{p+1} = v
        h = v
        t = 1
        while t < max_steps and p + t < len(w):
            a = w[p + t]
            b = r[(j + t) % m]
            if a.side != b.side:
                break
            group = T.side_group(a.side)
            nxt = group.mul(
                group.mul(b.elt.inv(), T.transfer(h, a.side)), a.elt)
            if T.in_H(nxt) is not Tri.YES:
                break
            h = nxt
            t += 1
        if t > best[0]:
            best = (t, u.inv(), h)
    return best


def part_threshold(k: int, relator_len: int) -> int:
    """Smallest integer ell with ell * k > (k-3) * relator_len."""
    return (k - 3) * relator_len // k + 1


def find_replacement(
    w: CanonicalWord, R: RelatorSet, k: int
) -> Tuple[Optional[Tuple], bool]:
    """Best long-part replacement, or None.

    Returns ((new_word, step), gray) where gray means a label run near
    the bound resisted exact verification.
    """
    T = R.T
    pool = LabelPool()
    W = forward_labels(w, T, pool)
    gray = False
    candidates = []
    for unit in R.units:
        m = len(unit.word)
        t_min = part_threshold(k, m)
        if t_min > min(len(w), m):
            continue
        scan_k = max(1, t_min - 2)
        V2 = forward_labels(unit.word, T, pool) * 2
        runs = kernels.runs_at_least(W, V2, scan_k)
        for (p, j, length) in runs:
            o = 0
            while o < length:
                t, h_start, h_end = _part_chain(
                    T, w, unit, p + o, (j + o) % m, min(len(w) - (p + o), m))
                if t >= t_min:
                    new_word = _apply_replacement(
                        T, w, unit, p + o, (j + o) % m, t, h_start, h_end)
                    if len(new_word) < len(w):
                        candidates.append(
                            (len(new_word), p + o, unit.uid, (j + o) % m, t,
                             h_start, new_word))
                elif t >= scan_k:
                    gray = True
                o += max(t, 1)
    if not candidates:
        return None, gray
    candidates.sort(key=lambda c: (c[0], c[1], c[2], c[3]))
    new_len, p, uid, j, t, h_start, new_word = candidates[0]
    step = DehnStep("replace", len(w), new_len, uid=uid, rotation=j,
                    offset=p, ell=t,
                    h_start_json=h_start.owner.payload_to_json(
                        h_start.payload),
                    h_start_side="K" if h_start.owner is R.T.K else "L")
    return (new_word, step), gray


def _apply_replacement(
    T: AmalgamTriple,
    w: CanonicalWord,
    unit: ScanUnit,
    p: int,
    j: int,
    t: int,
    h_start: Element,
    h_end: Element,
) -> CanonicalWord:
    """Replace w[p..p+t) = h_start^-1 * r[j..j+t) * h_end by
    h_start^-1 * (r[j+t..j+m))^-1 * h_end, using that the rotation of the
    relator starting at j is trivial in the quotient."""
    r = unit.word
    m = len(r)
    sylls: List[Syllable] = list(w.syllables[:p])
    side_h = "K" if h_start.owner is T.K else "L"
    sylls.append(Syllable(side_h, h_start.inv()))
    for back in range(m - 1, t - 1, -1):
        s = r[(j + back) % m]
        sylls.append(Syllable(s.side, s.elt.inv()))
    side_e = "K" if h_end.owner is T.K else "L"
    sylls.append(Syllable(side_e, h_end))
    sylls.extend(w.syllables[p + t:])
    return canonicalize(sylls, T)


def _cyclic_reduce(w: CanonicalWord, T: AmalgamTriple) -> Tuple[CanonicalWord, List[DehnStep]]:
    steps = []
    guard = len(w) + 2
    while guard and len(w) > 1 and not require(is_wcr(w, T)):
        guard -= 1
        prev = len(w)
        w = rotate(w, T)
        steps.append(DehnStep("cyclic-reduce", prev, len(w)))
    return w, steps


def dehn_decide(
    w: CanonicalWord, R: RelatorSet, k: int = 10, budget: int = 10_000
) -> DehnResult:
    """Word problem in (K *_H L) / N(R) for R satisfying the metric
    overlap condition at 1/k, k >= 10.

    Replaces long relator parts by their shorter complements until the
    word is empty (trivial, with a replayable certificate) or no long
    part exists (nontrivial, provided the word is nontrivial in the
    plain amalgam).
    """
    if k < 10:
        raise ValueError("k must be at least 10")
    cert: List[DehnStep] = []
    try:
        rounds = 0
        while True:
            rounds += 1
            if rounds > budget:
                return DehnResult("inconclusive", cert, "round budget")
            if w.is_empty():
                return DehnResult("trivial", cert)
            w, red_steps = _cyclic_reduce(w, R.T)
            cert.extend(red_steps)
            if w.is_empty():
                return DehnResult("trivial", cert)
            found, gray = find_replacement(w, R, k)
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
    except InconclusiveError as exc:
        return DehnResult("inconclusive", cert, str(exc) or "membership budget")


def replay_certificate(
    w: CanonicalWord, cert: Sequence[DehnStep], R: RelatorSet
) -> bool:
    """Re-execute a 'trivial' certificate; True iff it reaches the empty
    word with every step strictly decreasing canonical length."""
    T = R.T
    units = {u.uid: u for u in R.units}
    for step in cert:
        if step.from_len != len(w):
            return False
        if step.kind == "cyclic-reduce":
            w = rotate(w, T)
        elif step.kind == "replace":
            unit = units[step.uid]
            t, h_start, h_end = _part_chain(
                T, w, unit, step.offset, step.rotation, step.ell)
            if t != step.ell or h_start is None:
                return False
            w = _apply_replacement(T, w, unit, step.offset, step.rotation,
                                   step.ell, h_start, h_end)
        else:
            return False
        if len(w) >= step.from_len:
            return False
        if len(w) != step.to_len:
            return False
    return w.is_empty()


# ---------------------------------------------------------------------------
# the quotient backend


class QuotientGroup(GroupHandle):
    """Group handle for (K *_H L) / N(R); equality via the Dehn solver."""

    kind = "amalgam-quotient"

    def __init__(self, T: AmalgamTriple, R: RelatorSet, k: int = 10,
                 name: Optional[str] = None):
        self.T = T
        self.R = R
        self.k = k
        self.name = name or f"{T.name}/N"

    def identity(self) -> Element:
        return Element(self, CanonicalWord(()))

    def from_syllables(self, sylls: Sequence[Syllable]) -> Element:
        return Element(self, canonicalize(sylls, self.T))

    def from_side_element(self, side: str, g: Element) -> Element:
        return self.from_syllables([syllable(side, g)])

    def _mul_payload(self, a: CanonicalWord, b: CanonicalWord) -> CanonicalWord:
        return canonicalize(a.syllables + b.syllables, self.T)

    def _inv_payload(self, a: CanonicalWord) -> CanonicalWord:
        return canonical_inverse(a, self.T)

    def _is_identity_payload(self, a: CanonicalWord) -> Tri:
        if a.is_empty():
            return Tri.YES
        res = dehn_decide(a, self.R, k=self.k)
        if res.status == "trivial":
            return Tri.YES
        if res.status == "nontrivial":
            return Tri.NO
        return Tri.INCONCLUSIVE

    def _normalize_payload(self, payload) -> CanonicalWord:
        if not isinstance(payload, CanonicalWord):
            raise ValueError("quotient payloads are canonical words")
        return payload

    def payload_to_json(self, payload):
        reg = ElementRegistry()
        return {"word": word_to_json(payload, reg),
                "elements": reg.dump_json()}


def build_quotient(
    T: AmalgamTriple, R: RelatorSet, k: int = 10, audit_samples: int = 6
) -> QuotientGroup:
    """Quotient backend; refuses construction unless the overlap check
    passes, then audits injectivity of both side embeddings on samples."""
    if R.bases:
        res = check_cprime(R, Fraction(1, k))
        if res.status != "pass":
            raise ValueError(
                f"relator set does not satisfy C'(1/{k}): {res.status}")
    Q = QuotientGroup(T, R, k=k)
    _audit_injectivity(Q, audit_samples)
    return Q


def _audit_injectivity(Q: QuotientGroup, samples: int) -> None:
    T = Q.T
    for side, group in (("K", T.K), ("L", T.L)):
        sample = list(ambient_sample(group, samples))
        for i, g in enumerate(sample):
            for h in sample[i + 1:]:
                diff = group.mul(g, h.inv())
                if require(group.is_identity(diff)):
                    continue
                img = Q.from_side_element(side, diff)
                if Q.is_identity(img) is Tri.YES:
                    raise ValueError(
                        f"quotient collapses distinct {side}-side elements")
    # distinct cosets across the sides: k * l^-1 never trivial for
    # sampled k in K minus H, l in L minus H
    ks = [g for g in ambient_sample(T.K, samples) if T.in_H(g) is Tri.NO]
    ls = [g for g in ambient_sample(T.L, samples) if T.in_H(g) is Tri.NO]
    for g in ks[:samples]:
        for h in ls[:samples]:
            word = canonicalize(
                [syllable("K", g), syllable("L", h.inv())], T)
            if Q.is_identity(Element(Q, word)) is Tri.YES:
                raise ValueError("quotient merges the K and L sides")


# ---------------------------------------------------------------------------
# serialization


def certificate_to_json(cert: Sequence[DehnStep]) -> list:
    return [step.to_json() for step in cert]


def certificate_from_json(data: Sequence[dict]) -> List[DehnStep]:
    steps = []
    for item in data:
        steps.append(DehnStep(
            kind=item["kind"], from_len=item["from_len"],
            to_len=item["to_len"], uid=item.get("uid"),
            rotation=item.get("rotation"), offset=item.get("offset"),
            ell=item.get("ell"), h_start_json=item.get("h_start"),
            h_start_side=item.get("h_start_side")))
    return steps


def relators_to_json(R: RelatorSet, registry: ElementRegistry) -> dict:
    return {
        "chi": [R.chi.numerator, R.chi.denominator],
        "rho_generated": R.rho_generated,
        "bases": [
            {"rid": b.rid, "word": word_to_json(b.word, registry),
             "origin": b.origin}
            for b in R.bases
        ],
    }


def relators_from_json(
    data: dict, T: AmalgamTriple, registry: ElementRegistry
) -> RelatorSet:
    bases = [
        BaseRelator(item["rid"], word_from_json(item["word"], registry),
                    item.get("origin"))
        for item in data["bases"]
    ]
    chi = Fraction(data["chi"][0], data["chi"][1])
    return RelatorSet(T, bases, chi=chi,
                      rho_generated=data.get("rho_generated", False))
