"""Seam renormalization: ``rotate`` and Dehn's long-part replacement
against a full ``canonicalize`` of the same syllables.

Both push slices of canonical words in bulk and renormalize only where
the slices meet. The cases plant the seams that can go wrong: merges
that land in H, cascades several syllables deep (down to consuming the
whole prefix), words of 1-3 syllables and odd-length wcr units whose
slice crosses the cyclic wrap.
"""

from __future__ import annotations

import random

from amalgams.canonical import (
    K_SIDE,
    L_SIDE,
    Syllable,
    canonical_inverse,
    canonical_product,
    canonicalize,
    is_wcr,
    rotate,
)
from amalgams.cancellation import ChainResult, _apply_replacement
from amalgams.groups import FiniteTableGroup
from amalgams.systems import load_system_fixture

from amalgam_instances import ALL_INSTANCES, h_elements, instance_s3_z4

FIXTURES = "fixtures/systems"
SHARED_FREE_FIXTURES = ("with_h", "trivial_h", "d_case", "corrupted")
CASES_PER_AMALGAM = 150


def amalgams():
    out = [make()[0] for make in ALL_INSTANCES + (instance_s3_z4,)]
    out += [load_system_fixture(f"{FIXTURES}/{name}.json")[0]
            for name in SHARED_FREE_FIXTURES]
    return out


def other(side):
    return L_SIDE if side == K_SIDE else K_SIDE


def outside_h(T, side, rng):
    group = T.side_group(side)
    while True:
        if isinstance(group, FiniteTableGroup):
            g = group.element(rng.randrange(group.order))
        else:
            g = group.element([(rng.choice(group.symbols), rng.choice((1, -1)))
                               for _ in range(rng.randint(1, 3))])
        if T.in_H(g) is False:
            return g


def h_element(T, side, rng):
    return T.transfer(rng.choice(h_elements(T, 16)), side)


def random_canonical(T, rng, n, side=None):
    """A canonical word of n syllables, all outside H, first on side."""
    side = side or rng.choice((K_SIDE, L_SIDE))
    sylls = []
    for _ in range(n):
        sylls.append(Syllable(side, outside_h(T, side, rng)))
        side = other(side)
    return tuple(sylls)


def as_pairs(w):
    return [(s.side, s.elt.payload) for s in w]


def assert_canonical(w, T):
    if len(w) >= 2:
        assert all(T.in_H(s.elt) is False for s in w)
        assert all(a.side != b.side for a, b in zip(w, w[1:]))


def check_rotate(T, w):
    got = rotate(w, T)
    ref = canonicalize(w[1:] + w[:1], T)
    assert as_pairs(got) == as_pairs(ref), w
    assert_canonical(got, T)
    return got


def check_replacement(T, w, inv, p, j, t, h_start, h_end):
    m = len(inv)
    chain = ChainResult(t, h_start, False, h_end)
    got = _apply_replacement(T, w, inv, p, j, chain)
    ref = canonicalize(
        w[:p]
        + (Syllable(T.side_of_group(h_start.owner), h_start.inv()),)
        + (inv * 2)[m - j:2 * m - j - t]
        + (Syllable(T.side_of_group(h_end.owner), h_end),)
        + w[p + t:], T)
    assert as_pairs(got) == as_pairs(ref), (w, inv, p, j, t)
    assert_canonical(got, T)
    return got


def random_h_pair(T, rng):
    return (h_element(T, rng.choice((K_SIDE, L_SIDE)), rng),
            h_element(T, rng.choice((K_SIDE, L_SIDE)), rng))


def planted_cascade(T, rng, prefix_len, depth):
    """(w, inv, p, j, t, h_start, h_end) whose relator slice starts with
    h_start · w[p-depth:p]^-1, so the left seam cascades through depth
    syllables of w[:p] (all of them when depth == prefix_len)."""
    t = rng.randint(1, 3)
    w = random_canonical(T, rng, prefix_len + t + rng.randint(0, 3))
    u = w[:prefix_len]
    h_start, h_end = random_h_pair(T, rng)
    undo = canonical_inverse(u[prefix_len - depth:], T)
    rest = random_canonical(T, rng, rng.randint(0, 3),
                            other(u[prefix_len - depth].side))
    planted = canonicalize(
        (Syllable(T.side_of_group(h_start.owner), h_start),)
        + undo + rest, T)
    # a tail long enough that the slice, of length m - t, holds the plant
    tail_len = max(0, t + depth - len(planted)) + rng.randint(0, 2)
    tail = random_canonical(T, rng, tail_len, other(planted[-1].side))
    r = planted + tail
    m = len(r)
    # an even unit is canonical in every rotation: start the plant at a
    # random point so that the slice may cross the wrap
    k = rng.randrange(m) if m % 2 == 0 else 0
    inv = r[k:] + r[:k]
    return w, inv, prefix_len, k, t, h_start, h_end


def odd_wcr_unit(T, rng):
    """An odd-length wcr word, or None when 200 draws find none: with H
    of index 2 in both sides no odd canonical word is wcr."""
    for _ in range(200):
        n = 2 * rng.randint(1, 4) + 1
        inv = random_canonical(T, rng, n)
        if is_wcr(inv, T) is True:
            return inv
    return None


def test_rotate_matches_full_canonicalize():
    for n_amalgam, T in enumerate(amalgams()):
        rng = random.Random(f"rotate/{n_amalgam}")
        for case in range(CASES_PER_AMALGAM):
            n = rng.choice((0, 1, 2, 3, rng.randint(4, 9)))
            w = random_canonical(T, rng, n)
            if case % 3 == 0 and n >= 3 and n % 2 == 1:
                # plant w[-1] · w[0] in H: the carry folds into w[-2]
                first = Syllable(w[0].side, T.side_group(w[0].side).mul(
                    w[-1].elt.inv(), h_element(T, w[0].side, rng)))
                w = (first,) + w[1:]
            check_rotate(T, w)
        # single-syllable words in H are returned as they are
        h = h_element(T, K_SIDE, rng)
        w = canonicalize([Syllable(K_SIDE, h)], T)
        assert check_rotate(T, w) == w


def test_replacement_matches_full_canonicalize():
    for n_amalgam, T in enumerate(amalgams()):
        rng = random.Random(f"replace/{n_amalgam}")
        for _ in range(CASES_PER_AMALGAM):
            n = rng.choice((1, 2, 3, rng.randint(4, 10)))
            w = random_canonical(T, rng, n)
            inv = random_canonical(T, rng, rng.randint(1, 8))
            m = len(inv)
            t = rng.randint(1, min(n, m))
            p = rng.randint(0, n - t)
            check_replacement(T, w, inv, p, rng.randrange(m), t,
                              *random_h_pair(T, rng))


def test_replacement_cascades_through_the_prefix():
    deep = whole = 0
    for n_amalgam, T in enumerate(amalgams()):
        rng = random.Random(f"cascade/{n_amalgam}")
        for _ in range(CASES_PER_AMALGAM):
            prefix_len = rng.randint(1, 5)
            depth = rng.randint(1, prefix_len)
            case = planted_cascade(T, rng, prefix_len, depth)
            got = check_replacement(T, *case)
            n, m, t = len(case[0]), len(case[1]), case[4]
            # the plant cancels depth syllables on each side of the seam;
            # what is left may be one H-element
            assert len(got) <= max((n - t) + (m - t) - 2 * depth, 1)
            deep += depth >= 3
            whole += depth == prefix_len
    assert deep and whole


def test_replacement_across_the_wrap_of_an_odd_unit():
    tried = 0
    for n_amalgam, T in enumerate(amalgams()):
        rng = random.Random(f"wrap/{n_amalgam}")
        for _ in range(CASES_PER_AMALGAM // 3):
            inv = odd_wcr_unit(T, rng)
            if inv is None:
                break
            m = len(inv)
            # 0 < m - j and m - j - t > 0: the slice crosses the wrap
            j = rng.randint(1, m - 2)
            t = rng.randint(1, m - j - 1)
            w = random_canonical(T, rng, t + rng.randint(0, 4))
            p = rng.randint(0, len(w) - t)
            check_replacement(T, w, inv, p, j, t, *random_h_pair(T, rng))
            tried += 1
    assert tried


def test_trusted_pieces_match_untrusted():
    # canonical_product on slices of canonical words, some of them words
    # of one syllable in H, mixed with arbitrary syllables
    for n_amalgam, T in enumerate(amalgams()):
        rng = random.Random(f"pieces/{n_amalgam}")
        for _ in range(CASES_PER_AMALGAM):
            pieces = []
            for _ in range(rng.randint(1, 5)):
                kind = rng.randrange(3)
                if kind == 0:
                    side = rng.choice((K_SIDE, L_SIDE))
                    pieces.append(((Syllable(side, h_element(T, side, rng)),),
                                   rng.random() < 0.5))
                elif kind == 1:
                    w = random_canonical(T, rng, rng.randint(1, 6))
                    a = rng.randint(0, len(w))
                    pieces.append((w[a:rng.randint(a, len(w))],
                                   True))
                else:
                    pieces.append((random_canonical(
                        T, rng, rng.randint(1, 3)), False))
            got = canonical_product(pieces, T)
            ref = canonicalize([s for piece, _ in pieces for s in piece], T)
            assert as_pairs(got) == as_pairs(ref)
