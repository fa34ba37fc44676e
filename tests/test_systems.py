"""System validation, relator generation, and fixture loading."""

from __future__ import annotations

import itertools
import json
import random

import pytest

from amalgams.groups import (
    ElementRegistry,
    FiniteTableGroup,
    FreeGroup,
    LetterSupportSubgroup,
    good_fellows,
)
from amalgams.canonical import (
    L_SIDE,
    SharedFreeAmalgam,
    TableAmalgam,
)
from amalgams.cancellation import check_cprime
from amalgams.systems import (
    SubgroupPairHint,
    SystemEntry,
    entry_relator,
    generate_relators,
    load_system_fixture,
    validate_system,
)

FIXTURES = "fixtures/systems"
ALL_FIXTURES = ("trivial_h", "with_h", "d_case", "corrupted")


def load(name):
    return load_system_fixture(f"{FIXTURES}/{name}.json")


def test_fixture_validation_matches_expectation():
    for name in ALL_FIXTURES:
        T, S, hints = load(name)
        with open(f"{FIXTURES}/{name}.json") as fh:
            expected = json.load(fh)["expected"]
        rep = validate_system(S, T, hints=hints)
        assert rep.status == expected, name


def test_empty_system_is_vacuously_valid():
    T, _, _ = load("with_h")
    rep = validate_system([], T)
    assert rep.status == "valid"
    assert rep.certificates == []


def test_entry_with_equal_b_bprime_is_invalid():
    # an element is never its own good fellow
    T, _, _ = load("with_h")
    b = T.L.generator("b")
    entry = SystemEntry(h=T.K.identity(), a=T.K.generator("a"),
                        b=b, bprime=b, index=0)
    rep = validate_system([entry], T)
    assert rep.status == "invalid"
    assert rep.witness["clause"] == "b-bprime-good-fellows"


def test_shared_b_pair_certified_by_case_b():
    T, S, hints = load("trivial_h")
    rep = validate_system(S, T, hints=hints)
    by_pair = {(c.i, c.j): c.case for c in rep.certificates}
    assert by_pair[(0, 1)] == "b"
    # all four cases except d appear in this system
    assert {"a", "b", "c"} <= set(by_pair.values())


def test_d_case_needs_its_hint():
    T, S, hints = load("d_case")
    rep = validate_system(S, T, hints=hints)
    assert rep.status == "valid"
    assert all(c.case == "d" for c in rep.certificates)
    bare = validate_system(S, T)
    assert bare.status == "invalid"


def test_d_case_hint_with_wrong_intersection_rejected():
    T, S, _ = load("d_case")
    bad = {frozenset((0, 1)): SubgroupPairHint(
        h_prime=LetterSupportSubgroup(T.L, ["h"]),
        k_prime=LetterSupportSubgroup(T.K, ["h2", "a"]))}
    rep = validate_system(S, T, hints=bad)
    assert rep.status == "invalid"
    # an H' with a letter of L outside H fails the same clause
    outside = {frozenset((0, 1)): SubgroupPairHint(
        h_prime=LetterSupportSubgroup(T.L, ["h2", "b"]),
        k_prime=LetterSupportSubgroup(T.K, ["h2", "a"]))}
    assert validate_system(S, T, hints=outside).status == "invalid"


def test_d_case_fails_at_each_remaining_clause():
    # clause i is driven to fail by the wrong-intersection test above
    T, S, hints = load("d_case")
    hint = hints[frozenset((0, 1))]
    no_a = {frozenset((0, 1)): SubgroupPairHint(
        h_prime=hint.h_prime,
        k_prime=LetterSupportSubgroup(T.K, ["h2"]))}
    # clause iii: b_1 = h2 b lies in H' b_0 H' with H' = <h2>
    e1 = S[1]
    h2_b = SystemEntry(h=e1.h, a=e1.a, b=T.L.element([("h2", 1), ("b", 1)]),
                       bprime=e1.bprime, index=e1.index)
    for system, pair_hints in ((S, no_a), ([S[0], h2_b], hints)):
        rep = validate_system(system, T, hints=pair_hints)
        assert rep.status == "invalid"
        assert rep.witness == {"pair": [0, 1], "clause": "no-case-applies"}


def _reduced_words(F, max_len):
    letters = [(sym, sign) for sym in F.symbols for sign in (1, -1)]
    out, frontier = [()], [()]
    for _ in range(max_len):
        frontier = [w + (x,) for w in frontier for x in letters
                    if not w or w[-1] != (x[0], -x[1])]
        out += frontier
    return [F.element(list(w)) for w in out]


def _supported(g, symbols):
    return all(sym in symbols for sym, _ in g.payload)


def test_case_d_clause_v_holds_for_letter_supports():
    # (K' minus H)(H minus K')(K' minus H) never meets H when K' and H
    # are letter-support subgroups of one free group: the first letter
    # of h outside K' survives every product
    F = FreeGroup(["x", "y", "z", "w"], name="F")
    short = _reduced_words(F, 3)
    rng = random.Random(5)

    def word(symbols, n):
        letters = [F.generator(sym, sign) for sym in sorted(symbols)
                   for sign in (1, -1)]
        g = F.identity()
        for _ in range(n):
            g = g * rng.choice(letters)
        return g

    # (H letters, K' letters, longest k1 and k2 enumerated)
    splits = [({"x", "y"}, {"x", "z"}, 3), ({"x"}, {"y", "z"}, 3),
              ({"x", "y", "z"}, {"w"}, 3),
              ({"x", "y", "z"}, {"x", "y", "w"}, 2)]
    for h_syms, kp_syms, k_len in splits:
        ks = [g for g in short if len(g.payload) <= k_len
              and _supported(g, kp_syms) and not _supported(g, h_syms)]
        hs = [g for g in short if _supported(g, h_syms)
              and not _supported(g, kp_syms)]
        for k1 in ks:
            for h in hs:
                k1h = k1 * h
                for k2 in ks:
                    assert not _supported(k1h * k2, h_syms), (k1, h, k2)
        # planted: k1 ends in the inverse of h's K'-prefix p and k2
        # starts with the inverse of its K'-suffix q, so all of p and q
        # cancel and k1 h k2 = k core k^-1
        shared = kp_syms & h_syms
        planted = 0
        while planted < 300:
            k = word(kp_syms, rng.randint(1, 6))
            p, q = (word(shared, rng.randint(0, 3) if shared else 0)
                    for _ in range(2))
            core = word(h_syms - kp_syms, rng.randint(1, 3))
            k1, h, k2 = k * p.inv(), p * core * q, q.inv() * k.inv()
            if not core.payload or _supported(k1, h_syms) or \
                    _supported(k2, h_syms):
                continue
            assert not _supported(k1 * h * k2, h_syms), (k1, h, k2)
            planted += 1


def test_case_d_clause_iv_follows_from_entry_check_and_case_c():
    # whenever both entries pass the entry check and case c fails, b_i
    # and b'_j are good fellows over H, as case d's clause iv demanded
    T, _, _ = load("d_case")
    H_L = T.h_subgroup(L_SIDE)
    rng = random.Random(16)

    def word(group, symbols, lo, hi):
        g = group.identity()
        for _ in range(rng.randint(lo, hi)):
            g = g * group.generator(rng.choice(symbols), rng.choice((1, -1)))
        return g

    def near(b):
        # an element of the double coset of b or b^-1 over H
        return word(T.L, ["h", "h2"], 0, 2) * rng.choice((b, b.inv())) * \
            word(T.L, ["h", "h2"], 0, 2)

    def entry(index, b, bprime):
        a = word(T.K, ["h", "h2"], 0, 1) * T.K.generator("a") * \
            word(T.K, ["h", "h2", "a"], 0, 2)
        return SystemEntry(h=T.K.identity(), a=a, b=b, bprime=bprime,
                           index=index)

    l_letters = ["h", "h2", "b", "c", "c2"]
    hits = 0
    for _ in range(2000):
        bi = word(T.L, l_letters, 1, 4)
        ei = entry(0, bi, word(T.L, l_letters, 1, 4))
        bj = near(bi) if rng.random() < 0.8 else word(T.L, l_letters, 1, 4)
        ej = entry(1, bj, near(rng.choice((bi, ei.bprime, bj)))
                   if rng.random() < 0.5 else word(T.L, l_letters, 1, 4))
        if any(validate_system([e], T).status != "valid" for e in (ei, ej)):
            continue
        if good_fellows(ei.b, ej.b, H_L):
            continue
        assert good_fellows(ei.b, ej.bprime, H_L), (ei, ej)
        assert good_fellows(ej.b, ei.bprime, H_L), (ei, ej)
        hits += 1
    assert hits > 200


def test_entry_typing_enforced():
    T, _, _ = load("with_h")
    entry = SystemEntry(h=T.K.identity(), a=T.K.generator("h"),
                        b=T.L.generator("b"), bprime=T.L.generator("c"),
                        index=0)
    rep = validate_system([entry], T)
    assert rep.status == "invalid"
    assert rep.witness["clause"] == "a-in-K-minus-H"


def test_non_malnormal_h_blocks_validation():
    # S3 *_{Z2} Z8: H = {0, 4} is normal in the abelian Z8, so it is not
    # malnormal there, and no entry is looked at
    S3, Z8 = FiniteTableGroup.symmetric(3), FiniteTableGroup.cyclic(8)
    perms = sorted(itertools.permutations(range(3)))
    T = TableAmalgam(S3, Z8, [(0, 0), (perms.index((1, 0, 2)), 4)])
    entry = SystemEntry(h=S3.identity(),
                        a=S3.element(perms.index((1, 2, 0))),
                        b=Z8.element(1), bprime=Z8.element(2), index=0)
    rep = validate_system([entry], T)
    assert rep.status == "invalid"
    assert rep.witness == {"clause": "H-malnormal-in-L"}
    assert rep.h_malnormal_in_l == "no"
    T, S, hints = load("with_h")
    assert validate_system(S, T, hints=hints).h_malnormal_in_l == "yes"


# ---------------------------------------------------------------------------
# relator generation


def test_entry_relator_shape():
    T, S, _ = load("with_h")
    entry = S[0]
    r = entry_relator(entry, T)
    assert len(r) == 6640
    # syllables come from {b, b', a, h^-1 b}; left H-absorption puts the
    # h factor on the first L-syllable
    hb = T.L.mul(T.transfer(entry.h.inv(), L_SIDE), entry.b)
    allowed = {("K", entry.a.payload), ("L", entry.b.payload),
               ("L", entry.bprime.payload), ("L", hb.payload)}
    seen = {(s.side, s.elt.payload) for s in r}
    assert seen <= allowed
    assert ("L", hb.payload) in seen


def test_generate_relators_deterministic():
    T, S, _ = load("trivial_h")
    out = []
    for _ in range(2):
        R = generate_relators(S, T, check=False)
        reg = ElementRegistry()
        from amalgams.cancellation import relators_to_json
        data = relators_to_json(R, reg)
        out.append(json.dumps({"relators": data, "elements": reg.dump_json()},
                              sort_keys=True))
    assert out[0] == out[1]


def test_generate_relators_requires_validity():
    # generation does not validate, but its exact C' check refuses the
    # relators of an invalid system
    T, S, _ = load("corrupted")
    with pytest.raises(ValueError, match="violating C'"):
        generate_relators(S, T)


def test_all_valid_fixtures_pass_cprime_exactly():
    for name in ("trivial_h", "with_h", "d_case"):
        T, S, _ = load(name)
        R = generate_relators(S, T, check=False)
        res = check_cprime(R)
        assert res.status == "pass", name


# ---------------------------------------------------------------------------
# fixture loading


def test_fixture_loader_rejects_unknown_kind(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"kind": "nope", "entries": []}))
    with pytest.raises(ValueError):
        load_system_fixture(p)
