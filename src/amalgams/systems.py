"""Relator systems over an amalgam and their structural validation.

A system is a finite set of entries (h, a, b, b') with h in H, a in
K minus H and b, b' in L minus H. A valid system satisfies a per-entry
good-fellow condition and, for every pair of entries, one of four
separation cases; the induced relators h^-1 rho(b a, b' a) then satisfy
the metric overlap condition C'(1/10) and the quotient inherits a list
of verifiable structural conclusions (embedding, malnormality,
good-fellow transport, torsion-freeness).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from amalgams.groups import (
    Element,
    ElementRegistry,
    FiniteGeneratedSubgroup,
    FiniteTableGroup,
    FreeGroup,
    InconclusiveError,
    LetterSupportSubgroup,
    SubgroupDescriptor,
    Tri,
    ambient_sample,
    good_fellows,
    is_malnormal,
    require,
)
from amalgams import words
from amalgams.canonical import (
    AmalgamTriple,
    CanonicalWord,
    K_SIDE,
    L_SIDE,
    SharedFreeAmalgam,
    Syllable,
    TableAmalgam,
    canonical_inverse,
    canonicalize,
    syllable,
)
from amalgams.cancellation import (
    QuotientGroup,
    RelatorSet,
    check_cprime,
    dehn_decide,
    find_replacement,
    part_threshold,
    symmetrized_closure,
)


@dataclass(frozen=True)
class SystemEntry:
    """One generator tuple of a relator system.

    Fields are always accessed by name; h lives in H (given on the K
    side), a in K minus H, b and bprime in L minus H.
    """

    h: Element
    a: Element
    b: Element
    bprime: Element
    index: int


@dataclass
class SubgroupPairHint:
    """Witness subgroups for the fourth separation case of a pair.

    h_prime_k / h_prime_l describe the same subgroup H' <= H on the two
    sides; k_prime is the intermediate K' <= K with K' meet H = H'.
    """

    h_prime_k: SubgroupDescriptor
    h_prime_l: SubgroupDescriptor
    k_prime: SubgroupDescriptor


@dataclass
class PairCertificate:
    i: int
    j: int
    case: str  # "a" | "b" | "c" | "d"
    evidence: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"i": self.i, "j": self.j, "case": self.case,
                "evidence": self.evidence}


@dataclass
class ValidationReport:
    status: str  # valid | invalid | inconclusive
    certificates: List[PairCertificate] = field(default_factory=list)
    witness: Optional[dict] = None
    h_malnormal_in_l: str = "unchecked"  # yes | assumed | unchecked
    note: str = ""

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "certificates": [c.to_json() for c in self.certificates],
            "witness": self.witness,
            "h_malnormal_in_l": self.h_malnormal_in_l,
            "note": self.note,
        }


def _elt_json(g: Element):
    return [g.owner.name, g.owner.payload_to_json(g.payload)]


def _entry_check(entry: SystemEntry, T: AmalgamTriple) -> Optional[dict]:
    """None when the entry satisfies the typing and the per-entry
    good-fellow condition, else a witness dict."""
    if entry.h.owner is not T.K or T.in_H(entry.h) is not Tri.YES:
        return {"entry": entry.index, "clause": "h-in-H"}
    if entry.a.owner is not T.K or T.in_H(entry.a) is not Tri.NO:
        return {"entry": entry.index, "clause": "a-in-K-minus-H"}
    for name, g in (("b", entry.b), ("bprime", entry.bprime)):
        if g.owner is not T.L or T.in_H(g) is not Tri.NO:
            return {"entry": entry.index, "clause": f"{name}-in-L-minus-H"}
    gf = good_fellows(entry.b, entry.bprime, T.h_subgroup(L_SIDE))
    if gf is Tri.NO:
        return {"entry": entry.index, "clause": "b-bprime-good-fellows"}
    if gf is Tri.INCONCLUSIVE:
        raise InconclusiveError("good-fellow test for entry exhausted budget")
    return None


# ---------------------------------------------------------------------------
# the four pair cases


def _case_a(ei: SystemEntry, ej: SystemEntry, T: AmalgamTriple) -> Tri:
    return good_fellows(ei.a, ej.a, T.h_subgroup(K_SIDE))


def _case_b(ei: SystemEntry, ej: SystemEntry, T: AmalgamTriple) -> Tri:
    same_b = ei.b.payload == ej.b.payload
    same_bp = ei.bprime.payload == ej.bprime.payload
    diff_a = ei.a.payload != ej.a.payload
    return Tri.YES if (same_b and same_bp and diff_a) else Tri.NO


def _case_c(ei: SystemEntry, ej: SystemEntry, T: AmalgamTriple) -> Tri:
    return good_fellows(ei.b, ej.b, T.h_subgroup(L_SIDE))


def _subgroups_match(hint: SubgroupPairHint, T: AmalgamTriple) -> Tri:
    """The two H' descriptors name the same subgroup of H, and K' meets
    H exactly in H'."""
    hk, hl, kp = hint.h_prime_k, hint.h_prime_l, hint.k_prime
    H_K = T.h_subgroup(K_SIDE)
    if isinstance(hk, LetterSupportSubgroup) and \
            isinstance(hl, LetterSupportSubgroup) and \
            isinstance(kp, LetterSupportSubgroup) and \
            isinstance(T, SharedFreeAmalgam):
        if hk.symbols != hl.symbols:
            return Tri.NO
        if not hk.symbols <= T.h_symbols:
            return Tri.NO
        # letter-support subgroups intersect on the symbol intersection
        want = kp.symbols & T.h_symbols
        return Tri.YES if want == hk.symbols else Tri.NO
    if isinstance(hk, FiniteGeneratedSubgroup) and \
            isinstance(hl, FiniteGeneratedSubgroup) and \
            isinstance(kp, FiniteGeneratedSubgroup) and \
            isinstance(H_K, FiniteGeneratedSubgroup):
        k2l = {g.payload: T.transfer(g, L_SIDE).payload
               for g in H_K.sample(len(H_K._closure) + 1)}
        mapped = {k2l.get(p) for p in hk._closure}
        if None in mapped or mapped != hl._closure:
            return Tri.NO
        meet = kp._closure & H_K._closure
        return Tri.YES if meet == hk._closure else Tri.NO
    # sampled containments only
    for g in hk.sample(32):
        if kp.contains(g) is not Tri.YES or H_K.contains(g) is not Tri.YES:
            return Tri.NO
    return Tri.INCONCLUSIVE


def _kp_minus_h_sample(kp: SubgroupDescriptor, T: AmalgamTriple,
                       budget: int) -> List[Element]:
    base = [g for g in kp.sample(budget) if T.in_H(g) is Tri.NO]
    out = list(base)
    for x, y in itertools.product(base, repeat=2):
        z = x * y
        if T.in_H(z) is Tri.NO and kp.contains(z) is Tri.YES:
            out.append(z)
        if len(out) >= budget:
            break
    return out[:budget]


def _h_minus_kp_sample(kp: SubgroupDescriptor, T: AmalgamTriple,
                       budget: int) -> List[Element]:
    hs = T.h_sample(budget * 4)
    out = []
    for x in hs:
        if kp.contains(x) is Tri.NO:
            out.append(x)
    for x, y in itertools.product(hs, repeat=2):
        z = x * y
        if kp.contains(z) is Tri.NO:
            out.append(z)
        if len(out) >= budget:
            break
    return out[:budget]


def _clause_v(hint: SubgroupPairHint, T: AmalgamTriple,
              budget: int) -> Tuple[Tri, dict]:
    """(K' minus H) (H minus K') (K' minus H) stays inside K minus H.

    Exhaustive on finite backends, sampled triples otherwise.
    """
    kp = hint.k_prime
    if isinstance(kp, FiniteGeneratedSubgroup):
        H = T.h_subgroup(K_SIDE)
        kp_minus = [Element(T.K, p) for p in kp._closure
                    if T.in_H(Element(T.K, p)) is Tri.NO]
        h_minus = [Element(T.K, p) for p in H._closure  # type: ignore[attr-defined]
                   if kp.contains(Element(T.K, p)) is Tri.NO]
        exhaustive = True
    else:
        kp_minus = _kp_minus_h_sample(kp, T, budget)
        h_minus = _h_minus_kp_sample(kp, T, budget)
        exhaustive = False
    checked = 0
    for k1 in kp_minus:
        for h in h_minus:
            for k2 in kp_minus:
                prod = k1 * h * k2
                if T.in_H(prod) is not Tri.NO:
                    return Tri.NO, {"triple": [_elt_json(k1), _elt_json(h),
                                               _elt_json(k2)]}
                checked += 1
    if checked == 0:
        return Tri.INCONCLUSIVE, {"checked": 0}
    return Tri.YES, {"checked": checked, "exhaustive": exhaustive}


def _case_d(ei: SystemEntry, ej: SystemEntry, T: AmalgamTriple,
            hint: Optional[SubgroupPairHint],
            budget: int) -> Tuple[Tri, dict]:
    if hint is None:
        return Tri.NO, {"reason": "no subgroup hint supplied"}
    match = _subgroups_match(hint, T)
    if match is not Tri.YES:
        return match, {"clause": "i"}
    for name, g in (("a_i", ei.a), ("a_j", ej.a)):
        if hint.k_prime.contains(g) is not Tri.YES or \
                T.in_H(g) is not Tri.NO:
            return Tri.NO, {"clause": "ii", "element": name}
    gf3 = good_fellows(ei.b, ej.b, hint.h_prime_l)
    if gf3 is not Tri.YES:
        return gf3, {"clause": "iii"}
    gf4 = good_fellows(ei.b, ej.bprime, T.h_subgroup(L_SIDE))
    if gf4 is not Tri.YES:
        return gf4, {"clause": "iv"}
    v_status, v_evidence = _clause_v(hint, T, budget)
    if v_status is not Tri.YES:
        return v_status, {"clause": "v", **v_evidence}
    return Tri.YES, {"clause_v": v_evidence}


def validate_system(
    S: Sequence[SystemEntry],
    T: AmalgamTriple,
    hints: Optional[Dict[frozenset, SubgroupPairHint]] = None,
    assume_h_malnormal: bool = False,
    budget: int = 24,
) -> ValidationReport:
    """Check the per-entry condition and certify every ordered pair by
    one of the four separation cases.

    ``hints`` supplies the witness subgroups for pairs that need the
    fourth case, keyed by frozenset of the two entry indices.
    """
    hints = hints or {}
    report = ValidationReport("valid")
    # standing assumption: H is malnormal in L (verified when feasible)
    mal = is_malnormal(T.h_subgroup(L_SIDE), T.L, budget=budget * 8)
    if mal is Tri.YES:
        report.h_malnormal_in_l = "yes"
    elif assume_h_malnormal:
        report.h_malnormal_in_l = "assumed"
    elif mal is Tri.NO:
        return ValidationReport("invalid",
                                witness={"clause": "H-malnormal-in-L"})
    else:
        return ValidationReport(
            "inconclusive", note="H malnormality in L undecided; pass "
            "assume_h_malnormal when it is guaranteed externally")
    entries = sorted(S, key=lambda e: e.index)
    try:
        for entry in entries:
            wit = _entry_check(entry, T)
            if wit is not None:
                return ValidationReport(
                    "invalid", witness=wit,
                    h_malnormal_in_l=report.h_malnormal_in_l)
        for ei in entries:
            for ej in entries:
                if ei.index == ej.index:
                    continue
                hint = hints.get(frozenset((ei.index, ej.index)))
                cert = _certify_pair(ei, ej, T, hint, budget)
                if cert is None:
                    return ValidationReport(
                        "invalid",
                        witness={"pair": [ei.index, ej.index],
                                 "clause": "no-case-applies"},
                        h_malnormal_in_l=report.h_malnormal_in_l)
                report.certificates.append(cert)
    except InconclusiveError as exc:
        return ValidationReport("inconclusive", note=str(exc) or "budget",
                                h_malnormal_in_l=report.h_malnormal_in_l)
    return report


def _certify_pair(ei: SystemEntry, ej: SystemEntry, T: AmalgamTriple,
                  hint: Optional[SubgroupPairHint],
                  budget: int) -> Optional[PairCertificate]:
    undecided = False
    for tag, fn in (("a", _case_a), ("b", _case_b), ("c", _case_c)):
        res = fn(ei, ej, T)
        if res is Tri.YES:
            return PairCertificate(ei.index, ej.index, tag)
        if res is Tri.INCONCLUSIVE:
            undecided = True
    res_d, evidence = _case_d(ei, ej, T, hint, budget)
    if res_d is Tri.YES:
        return PairCertificate(ei.index, ej.index, "d", evidence)
    if res_d is Tri.INCONCLUSIVE or undecided:
        raise InconclusiveError(
            f"pair ({ei.index},{ej.index}) resisted every case within budget")
    return None


# ---------------------------------------------------------------------------
# relator generation


def entry_relator(entry: SystemEntry, T: AmalgamTriple) -> CanonicalWord:
    """Canonical form of h^-1 rho(b a, b' a) for one entry."""
    sylls: List[Syllable] = [syllable(K_SIDE, entry.h.inv())]
    x = (syllable(L_SIDE, entry.b), syllable(K_SIDE, entry.a))
    y = (syllable(L_SIDE, entry.bprime), syllable(K_SIDE, entry.a))
    for i in range(1, words.RHO_BLOCKS + 1):
        sylls.extend(x * i)
        sylls.extend(y)
    return canonicalize(sylls, T)


def generate_relators(
    S: Sequence[SystemEntry],
    T: AmalgamTriple,
    chi: Fraction = Fraction(1, 10),
    hints: Optional[Dict[frozenset, SubgroupPairHint]] = None,
    assume_h_malnormal: bool = False,
    skip_validation: bool = False,
    check: bool = True,
) -> RelatorSet:
    """Symmetrized relator set of a system; deterministic in the entry
    order. A metric overlap failure here means the system was not valid,
    so it is a hard error carrying the witness."""
    if not skip_validation:
        report = validate_system(S, T, hints=hints,
                                 assume_h_malnormal=assume_h_malnormal)
        if report.status == "invalid":
            raise ValueError(f"system is invalid: {report.witness}")
        if report.status == "inconclusive":
            raise InconclusiveError(report.note)
    entries = sorted(S, key=lambda e: e.index)
    relators = [entry_relator(e, T) for e in entries]
    origins = [{"entry": e.index} for e in entries]
    R = symmetrized_closure(relators, T, chi=chi, origins=origins,
                            rho_generated=True)
    if check:
        res = check_cprime(R)
        if res.status != "pass":
            raise ValueError(
                "validated system produced a relator set violating "
                f"C'({chi}): status={res.status} witness={res.witness}")
    return R


# ---------------------------------------------------------------------------
# membership and good fellows in the quotient


def in_side_image(Q: QuotientGroup, w: CanonicalWord, side: str,
                  rounds: int = 32) -> Tri:
    """Does the canonical word lie in the image of the given side group?

    Exact for words that Dehn-reduce below the small-cancellation length
    gap: a nontrivial element of the relator normal closure has a weakly
    cyclically reduced conjugate longer than the long-part threshold, so
    a short word w equals a side element k only if w k^-1 is trivial in
    the plain amalgam, which the canonical length rules out.
    """
    T = Q.T
    for _ in range(rounds):
        if len(w) < 2:
            break
        found, _gray = find_replacement(w, Q.R, Q.k)
        if found is None:
            break
        w = found[0]
    if w.is_empty():
        return Tri.YES
    if len(w) == 1:
        s = w[0]
        if s.side == side or T.in_H(s.elt) is Tri.YES:
            return Tri.YES
        return Tri.NO
    if not Q.R.bases:
        return Tri.NO
    gap = part_threshold(Q.k, Q.R.min_base_length())
    if len(w) + 1 < gap:
        return Tri.NO
    return Tri.INCONCLUSIVE


def _side_samples(T: AmalgamTriple, side: str, budget: int) -> List[Element]:
    group = T.side_group(side)
    return [g for g in ambient_sample(group, budget * 4)
            if T.in_H(g) is Tri.NO][:budget]


def _word_of(elts: Sequence[Tuple[str, Element]], T: AmalgamTriple) -> CanonicalWord:
    return canonicalize([syllable(s, g) for s, g in elts], T)


def quotient_good_fellows(
    Q: QuotientGroup,
    x: CanonicalWord,
    y: CanonicalWord,
    conjugator_samples: Sequence[CanonicalWord],
) -> Tuple[Tri, dict]:
    """Bounded good-fellow test for x, y over a sampled subgroup image.

    Searches for k1, k2 among the samples with x = k1 y k2 or
    x = k1 y^-1 k2 in the quotient; finding one refutes the claim
    exactly, exhausting the samples passes with recorded coverage.
    """
    T = Q.T
    targets = [("y", y), ("y^-1", canonical_inverse(y, T))]
    checked = 0
    for k1 in conjugator_samples:
        for k2 in conjugator_samples:
            for tag, t in targets:
                cand = canonicalize(
                    k1.syllables + t.syllables + k2.syllables, T)
                diff = canonicalize(
                    x.syllables
                    + canonical_inverse(cand, T).syllables, T)
                res = dehn_decide(diff, Q.R, k=Q.k)
                if res.status == "trivial":
                    return Tri.NO, {"target": tag, "checked": checked}
                if res.status == "inconclusive":
                    return Tri.INCONCLUSIVE, {"checked": checked}
                checked += 1
    return Tri.YES, {"checked": checked, "coverage": "sampled"}


# ---------------------------------------------------------------------------
# conclusion report


@dataclass
class ConclusionResult:
    conclusion: str
    status: str  # pass | fail | inconclusive | skipped
    exact: bool = False
    checked: int = 0
    note: str = ""
    instances: List[dict] = field(default_factory=list)

    def to_json(self) -> dict:
        return {"conclusion": self.conclusion, "status": self.status,
                "exact": self.exact, "checked": self.checked,
                "note": self.note, "instances": self.instances}


@dataclass
class VerifyBudget:
    samples: int = 3
    conjugators: int = 5
    len: int = 5
    pow: int = 3


def verify_conclusions(
    Q: QuotientGroup,
    S: Sequence[SystemEntry],
    T: AmalgamTriple,
    budget: Optional[VerifyBudget] = None,
) -> Dict[str, ConclusionResult]:
    budget = budget or VerifyBudget()
    entries = sorted(S, key=lambda e: e.index)
    out: Dict[str, ConclusionResult] = {}
    out["A"] = _conclusion_a(Q)
    out["B"] = _conclusion_b(Q, T, budget)
    out["C"] = _conclusion_c(Q, T, budget)
    out["D"] = _conclusion_d(Q, T, entries, budget)
    out["E"] = _conclusion_e(Q, T, budget)
    out["F"] = _conclusion_f(Q, T, entries, budget)
    out["G"] = _conclusion_g(Q, T, budget)
    return out


def report_to_json(report: Dict[str, ConclusionResult]) -> dict:
    return {key: res.to_json() for key, res in sorted(report.items())}


def _conclusion_a(Q: QuotientGroup) -> ConclusionResult:
    res = check_cprime(Q.R)
    status = "pass" if res.status == "pass" else \
        ("fail" if res.status == "fail" else "inconclusive")
    return ConclusionResult("A", status, exact=True,
                            checked=res.pairs_scanned,
                            note=f"max overlap core {res.max_core}")


def _h_conjugators(Q: QuotientGroup, side: str, budget: int) -> List[CanonicalWord]:
    T = Q.T
    out = [CanonicalWord(())]
    for h in T.h_sample(budget):
        if require(T.K.is_identity(T.transfer(h, K_SIDE))):
            continue
        out.append(_word_of([(K_SIDE, T.transfer(h, K_SIDE))], T))
    return out[:budget]


def _side_conjugators(Q: QuotientGroup, side: str, budget: int) -> List[CanonicalWord]:
    T = Q.T
    out = [CanonicalWord(())]
    for g in _side_samples(T, side, budget):
        out.append(_word_of([(side, g)], T))
    out.extend(_h_conjugators(Q, side, budget))
    return out[:budget + 2]


def _conclusion_b(Q: QuotientGroup, T: AmalgamTriple,
                  budget: VerifyBudget) -> ConclusionResult:
    """K embeds malnormally: sampled outside conjugators never drag a
    nontrivial K-element back into the K-image."""
    result = ConclusionResult("B", "pass")
    ks = _side_samples(T, K_SIDE, budget.samples)
    ls = _side_samples(T, L_SIDE, budget.samples)
    conjugators = []
    for l in ls:
        conjugators.append(_word_of([(L_SIDE, l)], T))
    for l, k in itertools.product(ls, ks):
        conjugators.append(_word_of([(L_SIDE, l), (K_SIDE, k)], T))
    for h in ks:
        for g in conjugators[:budget.conjugators]:
            conj = canonicalize(
                canonical_inverse(g, T).syllables
                + (syllable(K_SIDE, h),) + g.syllables, T)
            member = in_side_image(Q, conj, K_SIDE)
            inst = {"h": _elt_json(h), "conjugator_len": len(g),
                    "member": member.value}
            result.instances.append(inst)
            result.checked += 1
            if member is Tri.YES:
                result.status = "fail"
                return result
            if member is Tri.INCONCLUSIVE:
                result.status = "inconclusive"
    if is_malnormal(T.h_subgroup(K_SIDE), T.K, budget=64) is Tri.YES:
        result.note = "H malnormal in K, so the L-side audit applies too"
    return result


def _bad_fellow_pairs(T: AmalgamTriple, budget: int) -> List[Tuple[Element, Element]]:
    """Pairs in L minus H that are not good fellows over H."""
    out = []
    for b in _side_samples(T, L_SIDE, budget):
        out.append((b, b))  # an element is never its own good fellow
        out.append((b, b.inv()))
    return out[:budget]


def _conclusion_c(Q: QuotientGroup, T: AmalgamTriple,
                  budget: VerifyBudget) -> ConclusionResult:
    result = ConclusionResult("C", "pass")
    conj = _side_conjugators(Q, K_SIDE, budget.conjugators)
    ds = _side_samples(T, K_SIDE, budget.samples)
    for (b, bp), d in itertools.product(
            _bad_fellow_pairs(T, budget.samples), ds):
        x = _word_of([(K_SIDE, d), (L_SIDE, bp)], T)
        y = _word_of([(K_SIDE, d), (L_SIDE, b),
                      (K_SIDE, d), (L_SIDE, b)], T)
        status, evidence = quotient_good_fellows(Q, x, y, conj)
        result.instances.append({
            "b": _elt_json(b), "bprime": _elt_json(bp), "d": _elt_json(d),
            "status": status.value, **evidence})
        result.checked += 1
        if status is Tri.NO:
            result.status = "fail"
            return result
        if status is Tri.INCONCLUSIVE:
            result.status = "inconclusive"
    return result


def _conclusion_d(Q: QuotientGroup, T: AmalgamTriple,
                  entries: Sequence[SystemEntry],
                  budget: VerifyBudget) -> ConclusionResult:
    result = ConclusionResult("D", "pass", exact=True)
    bs = _side_samples(T, L_SIDE, budget.samples)
    as_ = _side_samples(T, K_SIDE, budget.samples)
    for e in entries[:budget.samples]:
        bs.extend([e.b, e.bprime])
        as_.append(e.a)
    probes: List[Tuple[CanonicalWord, str]] = []
    for b, a, bp in itertools.product(bs[:budget.samples],
                                      as_[:budget.samples],
                                      bs[:budget.samples]):
        probes.append((_word_of([(L_SIDE, b), (K_SIDE, a), (L_SIDE, bp)], T),
                       K_SIDE))
        probes.append((_word_of([(L_SIDE, b), (K_SIDE, a)], T), K_SIDE))
        probes.append((_word_of([(K_SIDE, a), (L_SIDE, b), (K_SIDE, a)], T),
                       L_SIDE))
        probes.append((_word_of([(K_SIDE, a), (L_SIDE, b)], T), L_SIDE))
    for w, side in probes:
        if w.is_empty():
            continue
        member = in_side_image(Q, w, side)
        result.instances.append({"len": len(w), "side": side,
                                 "member": member.value})
        result.checked += 1
        if member is Tri.YES:
            result.status = "fail"
            return result
        if member is Tri.INCONCLUSIVE:
            result.status = "inconclusive"
            result.exact = False
    return result


def _conclusion_e(Q: QuotientGroup, T: AmalgamTriple,
                  budget: VerifyBudget) -> ConclusionResult:
    # instance family with H' = H and L' = H, which always satisfies the
    # intersection side conditions
    result = ConclusionResult("E", "pass")
    H_K = T.h_subgroup(K_SIDE)
    ks = _side_samples(T, K_SIDE, budget.samples * 2)
    for g in list(ks):
        sq = g * g
        if T.in_H(sq) is Tri.NO and \
                not any(sq.payload == x.payload for x in ks):
            ks.append(sq)
    ks = ks[:budget.samples * 3]
    conj = _h_conjugators(Q, K_SIDE, budget.conjugators)
    for a, ap in itertools.combinations(ks, 2):
        if good_fellows(a, ap, H_K) is not Tri.YES:
            continue
        x = _word_of([(K_SIDE, a)], T)
        y = _word_of([(K_SIDE, ap)], T)
        status, evidence = quotient_good_fellows(Q, x, y, conj)
        result.instances.append({"a": _elt_json(a), "aprime": _elt_json(ap),
                                 "status": status.value, **evidence})
        result.checked += 1
        if status is Tri.NO:
            result.status = "fail"
            return result
        if status is Tri.INCONCLUSIVE:
            result.status = "inconclusive"
    if result.checked == 0:
        result.status = "skipped"
        result.note = "no sampled good-fellow pair in K"
    return result


def _conclusion_f(Q: QuotientGroup, T: AmalgamTriple,
                  entries: Sequence[SystemEntry],
                  budget: VerifyBudget) -> ConclusionResult:
    result = ConclusionResult("F", "pass")
    H_L = T.h_subgroup(L_SIDE)
    pairs = [(e.b, e.bprime) for e in entries]
    for b, bp in itertools.combinations(
            _side_samples(T, L_SIDE, budget.samples * 2), 2):
        pairs.append((b, bp))
    conj = _side_conjugators(Q, K_SIDE, budget.conjugators)
    for b, bp in pairs[:budget.samples * 2]:
        if good_fellows(b, bp, H_L) is not Tri.YES:
            continue
        x = _word_of([(L_SIDE, b)], T)
        y = _word_of([(L_SIDE, bp)], T)
        status, evidence = quotient_good_fellows(Q, x, y, conj)
        result.instances.append({"b": _elt_json(b), "bprime": _elt_json(bp),
                                 "status": status.value, **evidence})
        result.checked += 1
        if status is Tri.NO:
            result.status = "fail"
            return result
        if status is Tri.INCONCLUSIVE:
            result.status = "inconclusive"
    if result.checked == 0:
        result.status = "skipped"
        result.note = "no sampled good-fellow pair in L"
    return result


def _torsion_pool(T: AmalgamTriple, per_side: int) -> Dict[str, List[Element]]:
    return {side: _side_samples(T, side, per_side)
            for side in (K_SIDE, L_SIDE)}


def iter_short_words(T: AmalgamTriple, max_len: int,
                     per_side: int = 2) -> Iterable[CanonicalWord]:
    """Alternating-syllable words from a small per-side sample pool."""
    pool = _torsion_pool(T, per_side)
    for length in range(1, max_len + 1):
        for start in (K_SIDE, L_SIDE):
            sides = [start if i % 2 == 0 else
                     (L_SIDE if start == K_SIDE else K_SIDE)
                     for i in range(length)]
            for choice in itertools.product(
                    *[range(len(pool[s])) for s in sides]):
                yield _word_of(
                    [(s, pool[s][c]) for s, c in zip(sides, choice)], T)


def _conclusion_g(Q: QuotientGroup, T: AmalgamTriple,
                  budget: VerifyBudget) -> ConclusionResult:
    result = ConclusionResult("G", "pass")
    for w in iter_short_words(T, budget.len):
        if w.is_empty():
            continue
        for n in range(2, budget.pow + 1):
            p = canonicalize(w.syllables * n, T)
            res = dehn_decide(p, Q.R, k=Q.k)
            result.checked += 1
            if res.status == "trivial":
                base = dehn_decide(w, Q.R, k=Q.k)
                if base.status == "trivial":
                    continue
                result.status = "fail"
                result.instances.append({"len": len(w), "n": n})
                return result
            if res.status == "inconclusive":
                result.status = "inconclusive"
                result.instances.append({"len": len(w), "n": n,
                                         "note": res.note})
    result.note = f"scanned powers up to {budget.pow} of words up to " \
                  f"length {budget.len}"
    return result


# ---------------------------------------------------------------------------
# serialization


def system_to_json(S: Sequence[SystemEntry], registry: ElementRegistry) -> dict:
    return {"entries": [
        {"index": e.index,
         "h": registry.register(e.h), "a": registry.register(e.a),
         "b": registry.register(e.b), "bprime": registry.register(e.bprime)}
        for e in sorted(S, key=lambda e: e.index)]}


def system_from_json(data: dict, registry: ElementRegistry) -> List[SystemEntry]:
    return [
        SystemEntry(
            h=registry.decode(item["h"]), a=registry.decode(item["a"]),
            b=registry.decode(item["b"]), bprime=registry.decode(item["bprime"]),
            index=item.get("index", pos))
        for pos, item in enumerate(data["entries"])]


def load_system_fixture(path) -> Tuple[AmalgamTriple, List[SystemEntry],
                                       Dict[frozenset, SubgroupPairHint], dict]:
    """Self-contained fixture file: group alphabets (or tables), entries
    as letter lists, optional subgroup hints and flags."""
    with open(path) as fh:
        data = json.load(fh)
    kind = data.get("kind", "shared-free")
    if kind == "shared-free":
        K = FreeGroup(data["k_symbols"], name="K")
        L = FreeGroup(data["l_symbols"], name="L")
        T: AmalgamTriple = SharedFreeAmalgam(
            K, L, data["h_symbols"], name=data.get("name", "amalgam"))
    elif kind == "table":
        K = FiniteTableGroup(data["k_table"], name="K")
        L = FiniteTableGroup(data["l_table"], name="L")
        T = TableAmalgam(K, L, [tuple(p) for p in data["h_pairs"]],
                         name=data.get("name", "amalgam"))
    else:
        raise ValueError(f"unknown fixture kind {kind!r}")

    def side_elt(group, letters):
        if isinstance(group, FiniteTableGroup):
            return group.element(letters)
        return group.element([(sym, sign) for sym, sign in letters])

    entries = []
    for pos, item in enumerate(data["entries"]):
        entries.append(SystemEntry(
            h=side_elt(T.K, item["h"]), a=side_elt(T.K, item["a"]),
            b=side_elt(T.L, item["b"]), bprime=side_elt(T.L, item["bprime"]),
            index=item.get("index", pos)))
    hints: Dict[frozenset, SubgroupPairHint] = {}
    for item in data.get("dprime_hints", []):
        if not isinstance(T, SharedFreeAmalgam):
            raise ValueError("subgroup hints are letter-based fixtures only")
        hints[frozenset((item["i"], item["j"]))] = SubgroupPairHint(
            h_prime_k=LetterSupportSubgroup(T.K, item["h_prime"]),
            h_prime_l=LetterSupportSubgroup(T.L, item["h_prime"]),
            k_prime=LetterSupportSubgroup(T.K, item["k_prime"]))
    flags = {"assume_h_malnormal": data.get("assume_h_malnormal", False),
             "expected": data.get("expected", "valid")}
    return T, entries, hints, flags
