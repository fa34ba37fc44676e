"""System validation, relator generation, and fixture loading."""

from __future__ import annotations

import itertools
import json

import pytest

from amalgams.groups import (
    ElementRegistry,
    FiniteTableGroup,
    FreeGroup,
    LetterSupportSubgroup,
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
        h_prime_k=LetterSupportSubgroup(T.K, ["h"]),
        h_prime_l=LetterSupportSubgroup(T.L, ["h"]),
        k_prime=LetterSupportSubgroup(T.K, ["h2", "a"]))}
    rep = validate_system(S, T, hints=bad)
    assert rep.status == "invalid"


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
    seen = {(s.side, s.elt.payload) for s in r.syllables}
    assert seen <= allowed
    assert ("L", hb.payload) in seen


def test_generate_relators_deterministic():
    T, S, hints = load("trivial_h")
    out = []
    for _ in range(2):
        R = generate_relators(S, T, hints=hints, check=False)
        reg = ElementRegistry()
        from amalgams.cancellation import relators_to_json
        data = relators_to_json(R, reg)
        out.append(json.dumps({"relators": data, "elements": reg.dump_json()},
                              sort_keys=True))
    assert out[0] == out[1]


def test_generate_relators_requires_validity():
    T, S, hints = load("corrupted")
    with pytest.raises(ValueError):
        generate_relators(S, T, hints=hints)


def test_all_valid_fixtures_pass_cprime_exactly():
    for name in ("trivial_h", "with_h", "d_case"):
        T, S, hints = load(name)
        R = generate_relators(S, T, hints=hints, check=False)
        res = check_cprime(R)
        assert res.status == "pass", name


# ---------------------------------------------------------------------------
# fixture loading


def test_fixture_loader_rejects_unknown_kind(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"kind": "nope", "entries": []}))
    with pytest.raises(ValueError):
        load_system_fixture(p)
