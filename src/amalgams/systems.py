"""Relator systems over an amalgam and their structural validation.

A system is a finite set of entries (h, a, b, b') with h in H, a in
K minus H and b, b' in L minus H. A valid system satisfies a per-entry
good-fellow condition and, for every pair of entries, one of four
separation cases; the induced relators h^-1 rho(b a, b' a) then satisfy
the metric overlap condition C'(1/10). ``validate_system`` decides
validity; ``generate_relators`` builds the relators and checks C'
exactly.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from amalgams.groups import (
    Element,
    FiniteTableGroup,
    FreeGroup,
    LetterSupportSubgroup,
    good_fellows,
)
from amalgams import words
from amalgams.canonical import (
    AmalgamTriple,
    CanonicalWord,
    K_SIDE,
    L_SIDE,
    SharedFreeAmalgam,
    TableAmalgam,
    canonicalize,
    syllable,
)
from amalgams.cancellation import (
    RelatorSet,
    check_cprime,
    symmetrized_closure,
)

# the syllables of every relator h^-1 rho(b a, b' a) of a typed entry:
# x = b a and y = b' a have two each
RHO_EVEN_LENGTH = 2 * words.RHO_LENGTH  # 6640


class SystemEntry(NamedTuple):
    """One generator tuple of a relator system.

    Fields are always accessed by name; h lives in H (given on the K
    side), a in K minus H, b and bprime in L minus H.
    """

    h: Element
    a: Element
    b: Element
    bprime: Element
    index: int


class SubgroupPairHint(NamedTuple):
    """Witness subgroups for the fourth separation case of a pair, as
    letter-support subgroups of a shared-free amalgam.

    h_prime is the subgroup H' <= H, held on the L side, where the good
    fellows of clause iii live; k_prime is the intermediate K' <= K
    with K' meet H = H'.
    """

    h_prime: LetterSupportSubgroup
    k_prime: LetterSupportSubgroup


class PairCertificate(NamedTuple):
    i: int
    j: int
    case: str  # "a" | "b" | "c" | "d"


class ValidationReport(NamedTuple):
    status: str  # valid | invalid
    certificates: Sequence[PairCertificate] = ()
    witness: Optional[dict] = None
    h_malnormal_in_l: str = "yes"  # yes | no: decided before any entry


def typing_clause(entry: SystemEntry, T: AmalgamTriple) -> Optional[str]:
    """The first typing clause the entry breaks, or None: h in H, a in
    K minus H, b and bprime in L minus H. Only a typed entry gives a ρ
    relator."""
    if entry.h.owner is not T.K or not T.in_H(entry.h):
        return "h-in-H"
    if entry.a.owner is not T.K or T.in_H(entry.a):
        return "a-in-K-minus-H"
    for name, g in (("b", entry.b), ("bprime", entry.bprime)):
        if g.owner is not T.L or T.in_H(g):
            return f"{name}-in-L-minus-H"
    return None


# ---------------------------------------------------------------------------
# the four pair cases


def _case_a(ei: SystemEntry, ej: SystemEntry, T: AmalgamTriple) -> bool:
    return good_fellows(ei.a, ej.a, T.h_subgroup(K_SIDE))


def _case_b(ei: SystemEntry, ej: SystemEntry, T: AmalgamTriple) -> bool:
    same_b = ei.b.payload == ej.b.payload
    same_bp = ei.bprime.payload == ej.bprime.payload
    diff_a = ei.a.payload != ej.a.payload
    return same_b and same_bp and diff_a


def _case_c(ei: SystemEntry, ej: SystemEntry, T: AmalgamTriple) -> bool:
    return good_fellows(ei.b, ej.b, T.h_subgroup(L_SIDE))


def _subgroups_match(hint: SubgroupPairHint, T: SharedFreeAmalgam) -> bool:
    """K' meets H exactly in H', which puts H' inside H: letter-support
    subgroups intersect on the symbol intersection."""
    return hint.k_prime.symbols & T.h_symbols == hint.h_prime.symbols


def _case_d(ei: SystemEntry, ej: SystemEntry, T: AmalgamTriple,
            hint: Optional[SubgroupPairHint]) -> bool:
    """The fourth case: the hint's subgroups match (clause i), K' holds
    a_i and a_j (clause ii) and b_i, b_j are good fellows over H'
    (clause iii).

    The other clauses hold whenever these do, once the entries pass the
    per-entry check of ``validate_system`` and case c has failed:

    - a_i, a_j not in H (the rest of clause ii): ``typing_clause``.
    - b_i and b'_j good fellows over H (clause iv): case c failed, so
      H b_i H is H b_j H or H b_j^-1 H. Were clause iv false, it would
      also be H b'_j H or H b'_j^-1 H, so b_j and b'_j would not be good
      fellows, which the per-entry check rejects.
    - (K' minus H)(H minus K')(K' minus H) misses H (clause v), for
      letter-support subgroups with alphabets S' and S_H: take k1, k2
      in K' minus H and h in H minus K'. Let y be the first letter of h
      outside S' and write h = h1 y h2. No letter of k1, h1 or k2 is y,
      so y survives reduction of k1 h k2, and the reduced product is
      (k1 h1) y (h2 k2) with nothing cancelled at y. If it lies in H,
      so does k1 h1, and since h1 is in H, so is k1: a contradiction.
    """
    return (hint is not None and _subgroups_match(hint, T)
            and hint.k_prime.contains(ei.a) and hint.k_prime.contains(ej.a)
            and good_fellows(ei.b, ej.b, hint.h_prime))


def validate_system(
    S: Sequence[SystemEntry],
    T: AmalgamTriple,
    hints: Optional[Dict[frozenset, SubgroupPairHint]] = None,
) -> ValidationReport:
    """Check the per-entry condition and certify every ordered pair by
    one of the four separation cases.

    ``hints`` supplies the witness subgroups for pairs that need the
    fourth case, keyed by frozenset of the two entry indices.
    """
    hints = hints or {}
    # the standing hypothesis: H is malnormal in L, decided exactly
    if not T.h_subgroup(L_SIDE).is_malnormal():
        return ValidationReport("invalid",
                                witness={"clause": "H-malnormal-in-L"},
                                h_malnormal_in_l="no")
    certificates = []
    entries = sorted(S, key=lambda e: e.index)
    for entry in entries:
        clause = typing_clause(entry, T)
        if clause is None and not good_fellows(entry.b, entry.bprime,
                                               T.h_subgroup(L_SIDE)):
            clause = "b-bprime-good-fellows"
        if clause is not None:
            return ValidationReport(
                "invalid", witness={"entry": entry.index, "clause": clause})
    for ei in entries:
        for ej in entries:
            if ei.index == ej.index:
                continue
            hint = hints.get(frozenset((ei.index, ej.index)))
            cert = _certify_pair(ei, ej, T, hint)
            if cert is None:
                return ValidationReport(
                    "invalid",
                    witness={"pair": [ei.index, ej.index],
                             "clause": "no-case-applies"})
            certificates.append(cert)
    return ValidationReport("valid", certificates)


def _certify_pair(ei: SystemEntry, ej: SystemEntry, T: AmalgamTriple,
                  hint: Optional[SubgroupPairHint]
                  ) -> Optional[PairCertificate]:
    """The certificate of the first case that separates the pair, or
    None when no case applies."""
    for tag, fn in (("a", _case_a), ("b", _case_b), ("c", _case_c)):
        if fn(ei, ej, T):
            return PairCertificate(ei.index, ej.index, tag)
    if _case_d(ei, ej, T, hint):
        return PairCertificate(ei.index, ej.index, "d")
    return None


# ---------------------------------------------------------------------------
# relator generation


def entry_relator(entry: SystemEntry, T: AmalgamTriple) -> CanonicalWord:
    """Canonical form of h^-1 rho(b a, b' a) for one entry."""
    h_inv = syllable(K_SIDE, entry.h.inv())
    a = syllable(K_SIDE, entry.a)  # one object, so checked once
    x = (syllable(L_SIDE, entry.b), a)
    y = (syllable(L_SIDE, entry.bprime), a)
    return canonicalize((h_inv,) + words.rho(x, y), T)


def generate_relators(
    S: Sequence[SystemEntry],
    T: AmalgamTriple,
    chi: Fraction = Fraction(1, 10),
    check: bool = True,
) -> RelatorSet:
    """Symmetrized relator set of a system of typed entries; deterministic
    in the entry order. It does not validate the system;
    ``validate_system`` does. With ``check``, a metric overlap failure
    is a hard error carrying the witness, since a valid system cannot
    produce one."""
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


class FixtureError(ValueError):
    """A fixture file that is not an entry system."""


# the keys each fixture kind needs, and the keys of every entry
FIXTURE_KEYS = {
    "shared-free": ("k_symbols", "l_symbols", "h_symbols", "entries"),
    "table": ("k_table", "l_table", "h_pairs", "entries"),
}
ENTRY_KEYS = ("h", "a", "b", "bprime")


def load_system_fixture(path) -> Tuple[AmalgamTriple, List[SystemEntry],
                                       Dict[frozenset, SubgroupPairHint]]:
    """Self-contained fixture file: group alphabets (or tables), entries
    as letter lists and optional subgroup hints. Raises
    FixtureError for a file that is not JSON, an unknown kind, a
    missing key, an amalgam, entry or hint that cannot be built, an
    entry index that is not an int or that another entry has (an entry
    without one has its position), or a hint whose i and j are not two
    different entry indices (the error names the entry and key, or the
    hint)."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except ValueError as exc:
        raise FixtureError(f"fixture {path} is not JSON: {exc}") from None
    if not isinstance(data, dict):
        raise FixtureError(f"fixture {path} is not a JSON object")
    kind = data.get("kind", "shared-free")
    if kind not in FIXTURE_KEYS:
        raise FixtureError(f"fixture {path} has unknown kind {kind!r}")
    missing = [k for k in FIXTURE_KEYS[kind] if k not in data]
    items = data.get("entries", [])
    if not isinstance(items, list) or not all(
            isinstance(item, dict) and all(k in item for k in ENTRY_KEYS)
            for item in items):
        missing.append("/".join(ENTRY_KEYS) + " in every entry")
    if missing:
        raise FixtureError(f"fixture {path} lacks key(s): "
                           f"{', '.join(missing)}")
    where = "/".join(FIXTURE_KEYS[kind][:3])
    try:
        if kind == "shared-free":
            K = FreeGroup(data["k_symbols"], name="K")
            L = FreeGroup(data["l_symbols"], name="L")
            T: AmalgamTriple = SharedFreeAmalgam(
                K, L, data["h_symbols"], name=data.get("name", "amalgam"))
        else:
            K = FiniteTableGroup(data["k_table"], name="K")
            L = FiniteTableGroup(data["l_table"], name="L")
            T = TableAmalgam(K, L, [tuple(p) for p in data["h_pairs"]],
                             name=data.get("name", "amalgam"))
        entries, indices = [], set()
        for pos, item in enumerate(data["entries"]):
            elts = {}
            for key, group in zip(ENTRY_KEYS, (K, K, L, L)):
                where = f"entry {pos} key {key!r}"
                elts[key] = group.element(item[key])
            where = f"entry {pos} key 'index'"
            index = item.get("index", pos)
            # validate_system certifies the pairs of distinct indices
            if type(index) is not int or index in indices:
                raise ValueError(f"index must be an int that no other "
                                 f"entry has, not {index!r}")
            indices.add(index)
            entries.append(SystemEntry(**elts, index=index))
        hints: Dict[frozenset, SubgroupPairHint] = {}
        for pos, item in enumerate(data.get("dprime_hints", [])):
            where = f"dprime_hints {pos}"
            if not isinstance(T, SharedFreeAmalgam):
                raise ValueError("subgroup hints are letter-based only")
            hint = SubgroupPairHint(
                h_prime=LetterSupportSubgroup(L, item["h_prime"]),
                k_prime=LetterSupportSubgroup(K, item["k_prime"]))
            pair = frozenset((item["i"], item["j"]))
            # a hint for an absent pair would never be read
            if len(pair) != 2 or not pair <= indices:
                raise ValueError(
                    f"i and j must be two different entry indices, not "
                    f"{item['i']!r} and {item['j']!r}")
            hints[pair] = hint
    except (LookupError, TypeError, ValueError) as exc:
        raise FixtureError(f"fixture {path}: {where}: {exc}") from None
    return T, entries, hints
