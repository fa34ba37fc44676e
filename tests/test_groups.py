"""Group backends, subgroup descriptors, double cosets, registry."""

from __future__ import annotations

import itertools
import random
import re

import pytest

from amalgams import words
from amalgams.groups import (
    Element,
    ElementRegistry,
    FiniteGeneratedSubgroup,
    FiniteTableGroup,
    FreeGroup,
    LetterSupportSubgroup,
    good_fellows,
    in_double_coset,
)

from oracles import double_coset


def s3_perms():
    return sorted(itertools.permutations(range(3)))


def test_symmetric_table_matches_direct_composition():
    S3 = FiniteTableGroup.symmetric(3)
    perms = s3_perms()
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            composed = tuple(p[q[x]] for x in range(3))
            assert perms[S3.table[i][j]] == composed


def test_table_group_rejects_broken_tables():
    with pytest.raises(ValueError):
        FiniteTableGroup([[0, 1], [1, 1]])  # 1 has no inverse through 0
    with pytest.raises(ValueError):
        FiniteTableGroup([[1, 0], [1, 0]])  # no identity


@pytest.mark.parametrize("cell", [1.0, True, "1", -1, 3])
def test_table_cells_must_be_element_indices(cell):
    # a float or bool cell would come back from products as a payload,
    # and -1 would index the last row
    with pytest.raises(ValueError, match=r"^table cell \(2,2\) must be an "
                       rf"element index, not {re.escape(repr(cell))}$"):
        FiniteTableGroup([[0, 1, 2], [1, 2, 0], [2, 0, cell]])


def test_associativity_check_matches_every_triple():
    # swapping two non-identity entries of a non-identity row keeps the
    # identity and a right inverse of every element; the table must be
    # rejected exactly when some triple is not associative
    rng = random.Random(0)
    rejected = 0
    for G in [FiniteTableGroup.cyclic(n) for n in range(3, 9)] + [
            FiniteTableGroup.symmetric(3)]:
        n = G.order
        for _ in range(30):
            table = [list(row) for row in G.table]
            for _ in range(rng.randint(0, 2)):
                row = table[rng.randrange(1, n)]
                i, j = rng.sample(range(1, n), 2)
                row[i], row[j] = row[j], row[i]
            broken = any(table[table[a][b]][c] != table[a][table[b][c]]
                         for a, b, c in itertools.product(range(n), repeat=3))
            if broken:
                rejected += 1
                with pytest.raises(ValueError, match="not associative"):
                    FiniteTableGroup(table)
            else:
                FiniteTableGroup(table)
    assert 0 < rejected < 7 * 30


def test_inverses_and_identity():
    for G in (FiniteTableGroup.symmetric(3), FiniteTableGroup.cyclic(8)):
        e = G.identity()
        for g in G.elements():
            assert G.is_identity(G.mul(g, g.inv())) is True
            assert G.mul(g, e).payload == g.payload


def test_free_group_ops():
    F = FreeGroup(["a", "b"])
    a = F.generator("a")
    b = F.generator("b")
    w = F.mul(F.mul(a, b), F.mul(b.inv(), a))
    assert w.payload == (("a", 1), ("a", 1))
    assert F.is_identity(F.mul(w, w.inv())) is True
    with pytest.raises(ValueError):
        F.generator("c")


def _reduced_word(rng, symbols, n):
    w = []
    while len(w) < n:
        letter = (rng.choice(symbols), rng.choice((1, -1)))
        if not w or w[-1] != (letter[0], -letter[1]):
            w.append(letter)
    return tuple(w)


@pytest.mark.parametrize("symbols", [
    ["h", "a", "b"],  # fixture-style names
    [f"x{i}" for i in range(12)],  # engine generator names
])
def test_seam_product_matches_free_reduction(symbols):
    # FreeGroup multiplies reduced payloads by cancelling at the seam
    # alone; free reduction of the concatenation is the reference
    F = FreeGroup(symbols)
    rng = random.Random(20261018)
    g, g_inv = (symbols[0], 1), (symbols[0], -1)
    cases = [((), ()), ((), (g,)), ((g,), ()), ((g,), (g,)), ((g,), (g_inv,))]
    for _ in range(300):
        a = _reduced_word(rng, symbols, rng.randrange(9))
        # b opens with the inverse of a's last `depth` letters, from none
        # to all of a, and goes on with a reduced rest, possibly empty
        depth = rng.randrange(len(a) + 1)
        rest = _reduced_word(rng, symbols, rng.choice((0, 0, 1, 4)))
        b = words.inverse(a[len(a) - depth:]) + rest
        if words.free_reduce(b) == b:
            cases += [(a, b), (b, a)]
        cases.append((a, words.inverse(a)))
        # slices of one reduced word, in order and out of it
        w = _reduced_word(rng, symbols, 12)
        i, j, k = sorted(rng.randrange(13) for _ in range(3))
        cases += [(w[i:j], w[j:k]), (w[j:k], w[i:j]),
                  (w[i:k], words.inverse(w[j:k]))]
    depths = set()
    for a, b in cases:
        want = words.free_reduce(a + b)
        assert F._mul_payload(a, b) == want, (a, b)
        depths.add((len(a) + len(b) - len(want)) // 2)
    assert {0, 1, 2, 3, 8} <= depths


def test_cross_group_elements_rejected():
    F = FreeGroup(["a"])
    G = FreeGroup(["a"], name="other")
    with pytest.raises(ValueError):
        F.mul(F.generator("a"), G.generator("a"))


def test_generated_subgroup_closure_matches_orbit():
    S3 = FiniteTableGroup.symmetric(3)
    perms = s3_perms()
    cycle = perms.index((1, 2, 0))
    H = FiniteGeneratedSubgroup(S3, [S3.element(cycle)])
    assert len(H._closure) == 3
    # orbit oracle: all products of generator powers
    expected = set()
    g = S3._identity
    for _ in range(3):
        expected.add(g)
        g = S3.table[g][cycle]
    assert H._closure == expected
    for e in S3.elements():
        want = e.payload in expected
        assert H.contains(e) is want


def test_letter_support_membership():
    F = FreeGroup(["h", "a"])
    H = LetterSupportSubgroup(F, ["h"])
    assert H.contains(F.element([("h", 1), ("h", 1)])) is True
    assert H.contains(F.element([("h", 1), ("a", 1)])) is False
    assert H.contains(F.identity()) is True


def test_double_coset_finite_matches_enumeration():
    S3 = FiniteTableGroup.symmetric(3)
    perms = s3_perms()
    cycle = perms.index((1, 2, 0))
    H = FiniteGeneratedSubgroup(S3, [S3.element(cycle)])
    h_set = sorted(H._closure)
    for g in S3.elements():
        for target in S3.elements():
            want = g.payload in double_coset(
                S3.table, h_set, target.payload)
            assert in_double_coset(g, H, target) is want


def test_double_coset_letter_support():
    F = FreeGroup(["h", "a", "b"])
    H = LetterSupportSubgroup(F, ["h"])
    a = F.generator("a")
    g = F.element([("h", 1), ("a", 1), ("h", -1), ("h", -1)])
    assert in_double_coset(g, H, a) is True
    assert in_double_coset(F.element([("a", 1), ("a", 1)]), H, a) is False
    # inner segments are invariants, outer segments are not
    u = F.element([("a", 1), ("h", 1), ("b", 1)])
    v = F.element([("h", -1), ("a", 1), ("h", 1), ("b", 1), ("h", 1)])
    assert in_double_coset(v, H, u) is True
    w = F.element([("a", 1), ("h", -1), ("b", 1)])
    assert in_double_coset(w, H, u) is False


def test_good_fellows():
    F = FreeGroup(["h", "a", "b", "c"])
    H = LetterSupportSubgroup(F, ["h"])
    b = F.generator("b")
    c = F.generator("c")
    assert good_fellows(b, c, H) is True
    assert good_fellows(b, b, H) is False  # never its own good fellow
    hb = F.element([("h", 1), ("b", 1)])
    assert good_fellows(hb, b, H) is False
    assert good_fellows(b.inv(), b, H) is False


def test_malnormal_finite_exhaustive():
    S3 = FiniteTableGroup.symmetric(3)
    perms = s3_perms()
    transposition = perms.index((1, 0, 2))
    cycle = perms.index((1, 2, 0))
    H2 = FiniteGeneratedSubgroup(S3, [S3.element(transposition)])
    H3 = FiniteGeneratedSubgroup(S3, [S3.element(cycle)])
    assert H2.is_malnormal() is True
    # the 3-cycle subgroup is normal, hence not malnormal in S3
    assert H3.is_malnormal() is False
    assert FiniteGeneratedSubgroup(S3, []).is_malnormal() is True


def test_malnormal_letter_support():
    F = FreeGroup(["h", "x"])
    assert LetterSupportSubgroup(F, ["h"]).is_malnormal() is True


def test_registry_roundtrip():
    S3 = FiniteTableGroup.symmetric(3)
    F = FreeGroup(["a"])
    reg = ElementRegistry()
    codes = [reg.register(g) for g in S3.elements()]
    assert codes == list(range(6))
    assert reg.register(S3.element(3)) == 3  # idempotent
    wcode = reg.register(F.element([("a", 1), ("a", 1)]))
    assert wcode == 6
    for code in range(len(reg)):
        assert reg.register(reg.decode(code)) == code
    dumped = reg.dump_json()
    assert dumped[6] == [6, "F(a)", [["a", 1], ["a", 1]]]
    with pytest.raises(KeyError):
        reg.decode(99)
