"""Canonical forms: normal form, wcr conjugates, rotation, labels."""

from __future__ import annotations

import random

import pytest

from amalgams.groups import Element, FiniteTableGroup, FreeGroup
from amalgams.canonical import (
    CanonicalWord,
    K_SIDE,
    L_SIDE,
    SharedFreeAmalgam,
    Syllable,
    TableAmalgam,
    canonical_inverse,
    canonicalize,
    is_wcr,
    rotate,
    syllable,
    word_from_json,
    word_to_json,
)
from amalgams.groups import ElementRegistry, segments
from amalgams.systems import load_system_fixture

from amalgam_instances import ALL_INSTANCES, h_elements, instance_s3_z4, \
    random_shared_free
from oracles import double_coset, flat_equal, flat_letters, flat_syllables, \
    wcr_conjugates


def random_syllables(T, rng, max_len=5):
    out = []
    for _ in range(rng.randrange(0, max_len + 1)):
        side = rng.choice([K_SIDE, L_SIDE])
        group = T.side_group(side)
        out.append(syllable(side, group.element(rng.randrange(group.order))))
    return out


def as_pairs(w: CanonicalWord):
    return [(s.side, s.elt.payload) for s in w]


def test_single_syllable_is_its_own_form():
    for make in ALL_INSTANCES:
        T, _ = make()
        for g in T.K.elements():
            w = canonicalize([syllable(K_SIDE, g)], T)
            if T.K.is_identity(g) is True:
                assert not w
            else:
                assert len(w) == 1


def test_h_can_move_across_the_seam():
    for make in ALL_INSTANCES:
        T, oracle = make()
        h_elts = h_elements(T, 100)
        k = next(g for g in T.K.elements() if T.in_H(g) is False)
        l = next(g for g in T.L.elements() if T.in_H(g) is False)
        for h in h_elts:
            left = canonicalize(
                [syllable(K_SIDE, T.K.mul(k, h)), syllable(L_SIDE, l)], T)
            right = canonicalize(
                [syllable(K_SIDE, k),
                 syllable(L_SIDE, T.L.mul(T.transfer(h, L_SIDE), l))], T)
            assert oracle.forms_equal(oracle.normal_form(as_pairs(left)),
                                      oracle.normal_form(as_pairs(right)))


def test_canonical_length_matches_transversal_oracle():
    rng = random.Random(20260824)
    for make in ALL_INSTANCES:
        T, oracle = make()
        for _ in range(60):
            sylls = random_syllables(T, rng)
            w = canonicalize(sylls, T)
            form = oracle.normal_form(
                [(s.side, s.elt.payload) for s in sylls])
            # oracle length counts transversal syllables; an H-only word
            # has length 0 there and length <= 1 here
            if oracle.length(form) == 0:
                assert len(w) <= 1
                if len(w) == 1:
                    assert T.in_H(w[0].elt) is True
            else:
                assert len(w) == oracle.length(form)


def test_mul_inverse_gives_identity():
    rng = random.Random(5)
    for make in ALL_INSTANCES:
        T, _ = make()
        for _ in range(20):
            w = canonicalize(random_syllables(T, rng), T)
            prod = canonicalize(
                w + canonical_inverse(w, T), T)
            assert not prod


# ---------------------------------------------------------------------------
# wcr and parts (on the shared-free backend where everything is exact)


def free_fixture():
    K = FreeGroup(["h", "a"])
    L = FreeGroup(["h", "b", "c"])
    T = SharedFreeAmalgam(K, L, ["h"])
    return T, K, L


def test_wcr_length_one_and_even():
    T, K, L = free_fixture()
    a = K.generator("a")
    b = L.generator("b")
    w1 = (syllable(K_SIDE, a),)
    assert is_wcr(w1, T) is True
    assert wcr_conjugates(w1, T) == [w1]
    w2 = (syllable(K_SIDE, a), syllable(L_SIDE, b))
    assert is_wcr(w2, T) is True
    rots = wcr_conjugates(w2, T, include_splittings=False)
    assert len(rots) == 2


def test_odd_word_with_h_seam_reduces():
    T, K, L = free_fixture()
    a = K.generator("a")
    b = L.generator("b")
    tail = K.element([("h", 1), ("a", -1)])
    w = (syllable(K_SIDE, a), syllable(L_SIDE, b), syllable(K_SIDE, tail))
    assert is_wcr(w, T) is False
    conjs = wcr_conjugates(w, T, include_splittings=False)
    assert all(len(c) < 3 for c in conjs)
    assert any(len(c) == 1 for c in conjs)


def test_even_rotations_are_wcr_and_counted():
    T, K, L = free_fixture()
    sylls = (syllable(K_SIDE, K.generator("a")),
             syllable(L_SIDE, L.generator("b")),
             syllable(K_SIDE, K.generator("a").inv()),
             syllable(L_SIDE, L.generator("c")))
    w = sylls
    rots = wcr_conjugates(w, T, include_splittings=False)
    assert len(rots) == 4
    for r in rots:
        assert is_wcr(r, T) is True


def test_splittings_produce_odd_wcr_conjugates():
    T, K, L = free_fixture()
    aha = K.element([("a", 1), ("h", 1), ("a", 1)])
    w = (syllable(K_SIDE, aha), syllable(L_SIDE, L.generator("b")))
    conjs = wcr_conjugates(w, T, include_splittings=True)
    lens = {len(c) for c in conjs}
    assert 3 in lens  # a split of the length-3 syllable across the seam
    for c in conjs:
        assert is_wcr(c, T) is True


def test_rotation_is_conjugation():
    # g0^-1 w g0 multiplied out equals the rotation, exactly, in the
    # ambient free group of the shared-symbol amalgam
    T, K, L = free_fixture()
    sylls = (syllable(K_SIDE, K.element([("a", 1), ("h", 1)])),
             syllable(L_SIDE, L.generator("b")),
             syllable(K_SIDE, K.generator("a")),
             syllable(L_SIDE, L.generator("c")))
    w = sylls
    r = rotate(w, T)
    g0 = sylls[0]
    conjugated = (Syllable(g0.side, g0.elt.inv()),) + w + (g0,)
    assert flat_equal(conjugated, r)


def _random_flat_word(T, rng, n):
    """n random letters over T's union alphabet, each as a one-letter
    syllable: H-letters (about 40%) on a random side."""
    own = [s for s in T.K.symbols + T.L.symbols if s not in T.h_symbols]
    h = sorted(T.h_symbols, key=str)
    sylls = []
    for _ in range(n):
        letter = (rng.choice(h if h and rng.random() < 0.4 else own),
                  rng.choice((1, -1)))
        side = rng.choice((K_SIDE, L_SIDE)) if letter[0] in h else \
            K_SIDE if letter[0] in T.K.symbols else L_SIDE
        sylls.append(syllable(side, T.side_group(side).element([letter])))
    return sylls


def _merge_runs(sylls, rng):
    """The same letters in longer syllables: runs of one side's
    syllables multiplied together, so some reduce or land in H."""
    out = []
    for syl in sylls:
        if out and out[-1].side == syl.side and rng.random() < 0.6:
            out[-1] = syllable(syl.side, out[-1].elt * syl.elt)
        else:
            out.append(syl)
    return out


def test_canonicalize_and_rotate_match_the_flat_split():
    # a shared-free amalgam is the free group on its union alphabet, so
    # a word's canonical length is that of the flat split of its reduced
    # letters; from one-letter syllables canonicalize gives the split
    # itself, every H-letter in the syllable on its left
    rng = random.Random(28)
    amalgams = [load_system_fixture(f"fixtures/systems/{name}.json")[0]
                for name in ("trivial_h", "with_h", "d_case", "corrupted")]
    amalgams += [random_shared_free(rng) for _ in range(40)]
    for T in amalgams:
        for _ in range(30):
            letters = _random_flat_word(T, rng, rng.randrange(14))
            split = flat_syllables(flat_letters(letters), T)
            w = canonicalize(letters, T)
            assert [s.elt.payload for s in w] == split
            merged = _merge_runs(letters, rng)
            u = canonicalize(merged, T)
            assert len(u) == len(split)
            assert flat_equal(u, merged)
            # conjugation by the first syllable
            r = rotate(u, T)
            moved = u[1:] + u[:1]
            assert flat_equal(r, moved)
            assert len(r) == len(flat_syllables(flat_letters(moved), T))


def test_canonical_word_json_roundtrip():
    T, K, L = free_fixture()
    reg = ElementRegistry()
    w = (syllable(K_SIDE, K.generator("a")),
         syllable(L_SIDE, L.generator("b")))
    data = word_to_json(w, reg)
    back = word_from_json(data, reg)
    assert back == w


def test_table_junction_solutions_are_every_seed():
    # Z130 *_{Z65} Z130 with H the even residues: a·h·b lies in H for
    # every h in H when a + b is even, so all 65 elements of H are
    # seeds, h = 128 among them
    T = TableAmalgam(FiniteTableGroup.cyclic(130),
                     FiniteTableGroup.cyclic(130),
                     [(h, h) for h in range(0, 130, 2)])
    for side in (K_SIDE, L_SIDE):
        group = T.side_group(side)
        seeds = T.junction_solutions(Element(group, 1), Element(group, 3))
        assert sorted(h.payload for h in seeds) == list(range(0, 130, 2))
        assert all(h.owner is group for h in seeds)
        assert T.junction_solutions(Element(group, 1),
                                    Element(group, 2)) == []


@pytest.mark.parametrize("make", ALL_INSTANCES + (instance_s3_z4,))
def test_table_coset_label_is_the_double_coset(make):
    # two labels agree exactly when the oracle puts g in H·h·H; in
    # S3*Z4/Z2, H is not normal in S3, so H·h·H is not the coset H·h
    T, oracle = make()
    for side in (K_SIDE, L_SIDE):
        table, h_set = oracle.tables[side], oracle.h_sets[side]
        elts = T.side_group(side).elements()
        for h in elts:
            coset = double_coset(table, h_set, h.payload)
            for g in elts:
                same = T.coset_label(g) == T.coset_label(h)
                assert same is (g.payload in coset), (side, g, h)


def test_shared_free_coset_label_is_the_double_coset():
    # u·g·v keeps g's label for H-words u and v; two equal labels give
    # H-words u, v with u·g·v = g' (the outer H-segments); and the
    # labels of the two sides differ
    rng = random.Random(26)
    for _ in range(20):
        T = random_shared_free(rng)
        hs = sorted(T.h_symbols)
        labels = {}
        for side in (K_SIDE, L_SIDE):
            G = T.side_group(side)
            syms = sorted(G.symbols)

            def word(pool, n):
                return G.element([(rng.choice(pool), rng.choice((1, -1)))
                                  for _ in range(rng.randrange(n + 1))])

            for _ in range(60):
                g, g2 = word(syms, 5), word(syms, 5)
                u, v = word(hs, 4), word(hs, 4)
                assert T.coset_label(G.mul(G.mul(u, g), v)) \
                    == T.coset_label(g)
                labels.setdefault(side, set()).add(T.coset_label(g))
                if T.coset_label(g2) != T.coset_label(g):
                    continue
                if T.in_H(g):
                    u, v = G.mul(g2, g.inv()), G.identity()
                else:
                    (_, s), (_, s2) = (segments(x.payload, T.h_symbols)
                                       for x in (g, g2))
                    u = G.mul(Element(G, s2[0]), Element(G, s[0]).inv())
                    v = G.mul(Element(G, s[-1]).inv(), Element(G, s2[-1]))
                assert T.in_H(u) and T.in_H(v)
                assert G.mul(G.mul(u, g), v) == g2
        assert labels[K_SIDE].isdisjoint(labels[L_SIDE])


def test_shared_free_coset_label_separates_double_cosets():
    # the pairs that lie in different double cosets in
    # test_double_coset_letter_support
    K, L = FreeGroup(["h", "a", "b"]), FreeGroup(["h", "c"])
    T = SharedFreeAmalgam(K, L, ["h"])
    a = K.generator("a")
    u = K.element([("a", 1), ("h", 1), ("b", 1)])
    for g, h in ((K.element([("a", 1), ("a", 1)]), a),
                 (K.element([("a", 1), ("h", -1), ("b", 1)]), u)):
        assert T.coset_label(g) != T.coset_label(h)
