"""Relator closures, the overlap checker, and the Dehn word-problem solver."""

from __future__ import annotations

import collections
import hashlib
import json
import math
import random
from fractions import Fraction

import pytest
import sympy

from amalgams.groups import Element, FreeGroup
from amalgams.canonical import (
    K_SIDE,
    L_SIDE,
    SharedFreeAmalgam,
    Syllable,
    canonical_inverse,
    canonicalize,
    rotate,
    syllable,
)
from amalgams import kernels, words
from amalgams.cancellation import (
    Diagonal,
    RelatorSet,
    ScanUnit,
    build_quotient,
    cancellation_chain,
    certificate_from_json,
    certificate_to_json,
    check_cprime,
    dehn_decide,
    distinct_cyclic_runs,
    find_replacement,
    part_threshold,
    relators_from_json,
    relators_to_json,
    replay_certificate,
    replay_cprime_witness,
    symmetrized_closure,
)
from amalgams.groups import ElementRegistry
from amalgams.systems import generate_relators, load_system_fixture

from amalgam_instances import (
    ALL_INSTANCES,
    instance_s3_z4,
    random_shared_free,
)
from oracles import (
    closure_contains,
    element_replay_certificate,
    flat_equal,
    flat_letters,
    materialize,
    naive_part_length,
    reference_dehn_decide,
    reference_scan_cprime,
    wcr_conjugates,
)

FIXTURES = "fixtures/systems"

# sha256 of the sorted-key JSON of the certificate that kills the first
# with_h base relator
BASE_CERT_SHA256 = \
    "8a60ff23973d096abd36adc5549f4b17ec2cfe110802d8b089945c0437f38e63"


def small_triple():
    K = FreeGroup(["h", "a"])
    L = FreeGroup(["h", "b", "c"])
    return SharedFreeAmalgam(K, L, ["h"])


def cw(T, *pairs):
    return canonicalize(
        [syllable(side, T.side_group(side).element(payload))
         for side, payload in pairs], T)


def abcd_relator(T):
    # a b a c: four distinct rotations, none equal to an inverse rotation
    return cw(T, (K_SIDE, [("a", 1)]), (L_SIDE, [("b", 1)]),
              (K_SIDE, [("a", 1)]), (L_SIDE, [("c", 1)]))


# ---------------------------------------------------------------------------
# symmetrized closure


def test_closure_counts_rotations_and_inverses():
    T = small_triple()
    R = symmetrized_closure([abcd_relator(T)], T)
    closure = materialize(R, include_splittings=False)
    # 2 units (relator and inverse) x 4 rotations, all distinct
    assert len(closure) == 8


def test_closure_is_idempotent():
    T = small_triple()
    R = symmetrized_closure([abcd_relator(T)], T)
    closure = materialize(R, include_splittings=False)
    again = []
    for w in closure:
        for c in wcr_conjugates(w, T, include_splittings=False):
            if not any(flat_equal(c, s) for s in again):
                again.append(c)
    assert len(again) == len(closure)
    for w in again:
        assert closure_contains(R, w) is True


def test_closure_normalizes_odd_seam_words():
    T = small_triple()
    K = T.K
    # a*h . b . a^-1 has seam product a^-1 * a*h = h in H: not wcr
    w = cw(T, (K_SIDE, [("a", 1), ("h", 1)]), (L_SIDE, [("b", 1)]),
           (K_SIDE, [("a", -1)]))
    R = symmetrized_closure([w], T)
    assert all(len(b.word) % 2 == 0 or len(b.word) <= 1 for b in R.bases)


def _cyclic_letters(payload):
    letters = list(payload)
    while len(letters) >= 2 and letters[0] == (letters[-1][0], -letters[-1][1]):
        letters = letters[1:-1]
    return letters


def test_closure_members_are_conjugates():
    # every closure member, flattened into the ambient free group, is a
    # cyclic rotation of the flattened base or its inverse
    T = small_triple()
    base = cw(T, (K_SIDE, [("a", 1), ("h", 1), ("a", 1)]),
              (L_SIDE, [("b", 1)]))
    R = symmetrized_closure([base], T)
    targets = []
    for w in (base, canonical_inverse(base, T)):
        letters = _cyclic_letters(flat_letters(w))
        for i in range(len(letters)):
            targets.append(tuple(letters[i:] + letters[:i]))
    for member in materialize(R):
        letters = tuple(_cyclic_letters(flat_letters(member)))
        assert letters in targets


def test_trivial_relator_rejected():
    T = small_triple()
    with pytest.raises(ValueError):
        symmetrized_closure([()], T)


def test_relator_json_roundtrip():
    T = small_triple()
    R = symmetrized_closure([abcd_relator(T)], T)
    reg = ElementRegistry()
    data = relators_to_json(R, reg)
    back = relators_from_json(data, T, reg)
    assert len(back.bases) == 1
    assert back.bases[0].word == R.bases[0].word


# ---------------------------------------------------------------------------
# cancellation chains and the overlap checker


def test_chain_detects_direct_cancellation():
    T = small_triple()
    w1 = abcd_relator(T)
    w2 = canonical_inverse(w1, T)
    # w1 ends ... a c at indices 2,3; w2 starts c^-1 a^-1: full cancel
    res = cancellation_chain(T, w1, w2, 3, 0, 4)
    assert res.ell == 4
    assert res.full_wrap_trivial


def test_chain_tracks_h_transport():
    T = small_triple()
    # a*h . b versus b^-1 . a^-1: cancellation crosses the seam through h
    w1 = cw(T, (K_SIDE, [("a", 1), ("h", 1)]), (L_SIDE, [("b", 1)]))
    w2 = cw(T, (L_SIDE, [("b", -1)]), (K_SIDE, [("h", -1), ("a", -1)]))
    res = cancellation_chain(T, w1, w2, 1, 0, 2)
    assert res.ell == 2


OTHER_SIDE = {K_SIDE: L_SIDE, L_SIDE: K_SIDE}


def _random_table_word(rng, oracle, side, n):
    """n alternating syllables outside H, starting on the given side."""
    out = []
    for _ in range(n):
        outside = [g for g in range(len(oracle.tables[side]))
                   if g not in oracle.h_sets[side]]
        out.append((side, rng.choice(outside)))
        side = OTHER_SIDE[side]
    return out


def test_part_walker_matches_naive_oracle():
    # Dehn's part search: w[p..p+t) = h_start^-1 * r[j..j+t) * h_end is
    # the cancellation of r^-1, read backwards from m-1-j, against w read
    # forwards from p. Each w plants an H-conjugated run of r, sometimes
    # with one syllable changed, between random syllables. In the first
    # three amalgams H is normal in both sides, so every seed runs equally
    # far; the last one makes the choice of seed matter.
    rng = random.Random(20261018)
    long_parts = 0
    for make in ALL_INSTANCES + (instance_s3_z4,):
        T, oracle = make()

        def canonical(pairs):
            return tuple(
                Syllable(side, Element(T.side_group(side), g))
                for side, g in pairs)

        for _ in range(80):
            m = 2 * rng.randrange(1, 6)
            r = _random_table_word(rng, oracle, rng.choice("KL"), m)
            j0, t0 = rng.randrange(m), rng.randrange(m + 1)
            hs = [rng.choice(oracle.h_sets["K"]) for _ in range(t0 + 1)]
            planted = []
            for i in range(t0):
                side, g = r[(j0 + i) % m]
                table = oracle.tables[side]
                h_inv = oracle.inverse(
                    side, oracle.transfer(hs[i], "K", side))
                h_next = oracle.transfer(hs[i + 1], "K", side)
                planted.append((side, table[table[h_inv][g]][h_next]))
            if planted and rng.random() < 0.3:
                i = rng.randrange(t0)
                planted[i] = _random_table_word(
                    rng, oracle, planted[i][0], 1)[0]
            first = planted[0][0] if planted else rng.choice("KL")
            n_head = rng.randrange(3)
            w = _random_table_word(
                rng, oracle, first if n_head % 2 == 0 else OTHER_SIDE[first],
                n_head) + planted
            if w:
                w += _random_table_word(rng, oracle, OTHER_SIDE[w[-1][0]],
                                        rng.randrange(3))
            if not w:
                continue
            if planted and rng.random() < 0.5:
                p, j = n_head, j0
            else:
                p, j = rng.randrange(len(w)), rng.randrange(m)
            inv = canonical_inverse(canonical(r), T)
            chain = cancellation_chain(T, inv, canonical(w), m - 1 - j, p,
                                       min(len(w) - p, m))
            t = chain.ell
            assert t == naive_part_length(oracle, w, r, p, j)
            if t == 0:
                continue
            long_parts += t >= 3
            s_side = T.side_of_group(chain.h0.owner)
            e_side = T.side_of_group(chain.h_end.owner)
            lhs = oracle.normal_form(w[p:p + t])
            rhs = oracle.normal_form(
                [(s_side, oracle.inverse(s_side, chain.h0.payload))]
                + [r[(j + i) % m] for i in range(t)]
                + [(e_side, chain.h_end.payload)])
            assert oracle.forms_equal(lhs, rhs)
    assert long_parts >= 30


def _naive_pair_overlaps(R):
    """Brute-force maximum verified chain of each ordered pair of units,
    over all alignment choices."""
    best = {}
    for u1 in R.units:
        n = len(u1.word)
        for u2 in R.units:
            m = len(u2.word)
            top = 0
            for i1 in range(n):
                for j2 in range(m):
                    res = cancellation_chain(R.T, u1.word, u2.word, i1, j2,
                                             min(n, m),
                                             skip_trivial_wrap=True)
                    top = max(top, res.ell)
            best[u1.uid, u2.uid] = top
    return best


def _naive_max_overlap(R, chi):
    """Brute-force maximum verified chain over all alignment choices."""
    return max(_naive_pair_overlaps(R).values(), default=0)


def test_checker_agrees_with_bruteforce_on_small_sets():
    T = small_triple()
    r1 = cw(T, (K_SIDE, [("a", 1)]), (L_SIDE, [("b", 1)]),
            (K_SIDE, [("a", 1)]), (L_SIDE, [("c", 1)]),
            (K_SIDE, [("a", -1)]), (L_SIDE, [("c", 1)]))
    r2 = cw(T, (K_SIDE, [("a", 1)]), (L_SIDE, [("b", 1)]),
            (K_SIDE, [("a", 1)]), (L_SIDE, [("c", -1)]),
            (K_SIDE, [("a", 1)]), (L_SIDE, [("b", -1)]))
    for chi in (Fraction(1, 2), Fraction(2, 3), Fraction(5, 6)):
        R = symmetrized_closure([r1, r2], T, chi=chi)
        naive = _naive_max_overlap(R, chi)
        res = check_cprime(R)
        k_min = math.ceil(chi * 6)
        if naive >= k_min:
            assert res.status == "fail"
            assert replay_cprime_witness(R, res.witness)
        elif res.status == "pass":
            assert naive < k_min
        # inconclusive is allowed only in the two-syllable gray zone
        if res.status == "inconclusive":
            assert naive >= k_min - 2


def test_checker_fails_on_shared_long_prefix():
    T = small_triple()
    r1 = cw(T, (K_SIDE, [("a", 1)]), (L_SIDE, [("b", 1)]),
            (K_SIDE, [("a", 1)]), (L_SIDE, [("c", 1)]))
    r2 = cw(T, (K_SIDE, [("a", 1)]), (L_SIDE, [("b", 1)]),
            (K_SIDE, [("a", 1)]), (L_SIDE, [("c", -1)]))
    R = symmetrized_closure([r1, r2], T, chi=Fraction(1, 2))
    res = check_cprime(R)
    assert res.status == "fail"
    assert res.witness.ell >= 2
    assert replay_cprime_witness(R, res.witness)


def test_cyclic_run_skip_keeps_distinct_arcs():
    # doubled arrays of periods n = m = 6: (6, 0) and (0, 6) are copies of
    # the run at (0, 0), but (2, 2) is a different arc on the same
    # diagonal residue, which a skip keyed on (s - j) mod lcm(n, m) drops
    runs = [(0, 0, 4), (0, 6, 4), (2, 2, 3), (6, 0, 4), (7, 1, 3)]
    kept = distinct_cyclic_runs(runs, 6, 6)
    assert kept == [(0, 0, 4), (2, 2, 3), (7, 1, 3)]
    by_residue = {}
    for s, j, length in runs:
        by_residue.setdefault((s - j) % math.lcm(6, 6), (s, j, length))
    assert (2, 2, 3) not in by_residue.values()


# random relator sets for the differential test of the C' scan: a short
# relator over syllables no other relator uses, and two longer ones, the
# second sometimes carrying a window of the first (or of its inverse)
FREE_POOL = {
    K_SIDE: [[("a", 1)], [("a", -1)], [("a", 1), ("h", 1)],
             [("h", 1), ("a", 1)], [("a", 1), ("a", 1)]],
    L_SIDE: [[("b", 1)], [("c", 1)], [("b", -1)], [("b", 1), ("h", 1)],
             [("c", -1)]],
}


def _random_relator_set(rng, T, pool, short):
    def word(n):
        out, side = [], K_SIDE
        for _ in range(n):
            out.append((side, rng.choice(pool[side])))
            side = OTHER_SIDE[side]
        return out

    long1 = word(2 * rng.randrange(3, 5))
    long2 = word(2 * rng.randrange(3, 5))
    if rng.random() < 0.5:
        src = long1 if rng.random() < 0.5 else \
            [(side, g.inv()) for side, g in reversed(long1)]
        t = rng.randrange(2, len(long2) + 1)
        a, b = rng.randrange(len(src)), rng.randrange(len(long2))
        if src[a][0] != long2[b][0]:
            b = (b + 1) % len(long2)
        for o in range(t):
            long2[(b + o) % len(long2)] = src[(a + o) % len(src)]
    relators = [long1, long2] + ([short] if short else [])
    rng.shuffle(relators)
    return [canonicalize([syllable(side, g) for side, g in r], T)
            for r in relators]


def test_checker_matches_bruteforce_on_random_sets():
    # relators of different lengths make check_cprime and Dehn scan with
    # several window lengths in one set, so a hash table or hash array
    # reused across window lengths misses runs: a violation passes, or a
    # relator is not reduced
    rng = random.Random(20261018)
    seen = collections.Counter()
    T_free = small_triple()
    T_table = instance_s3_z4()[0]
    for T in (T_free, T_table):
        if T is T_free:
            pool = {side: [T.side_group(side).element(p)
                           for p in FREE_POOL[side]]
                    for side in (K_SIDE, L_SIDE)}
            short = [(K_SIDE, T.K.element([("a", 1)] * 3)),
                     (L_SIDE, T.L.element([("c", 1)] * 3))]
        else:
            # every syllable outside H; a short relator here would
            # violate C' on every set
            pool = {side: [g for g in T.side_group(side).elements()
                           if T.in_H(g) is False]
                    for side in (K_SIDE, L_SIDE)}
            short = None
        for _ in range(150):
            relators = _random_relator_set(rng, T, pool, short)
            chi = rng.choice((Fraction(1, 2), Fraction(2, 3),
                              Fraction(5, 6), Fraction(5, 6)))
            R = symmetrized_closure(relators, T, chi=chi)
            best = _naive_pair_overlaps(R)
            length = {u.uid: len(u.word) for u in R.units}
            k_min = {pair: math.ceil(chi * min(length[pair[0]],
                                               length[pair[1]]))
                     for pair in best}
            violated = any(best[p] >= k_min[p] for p in best)
            near = any(best[p] >= k_min[p] - 2 for p in best)
            res = check_cprime(R)
            assert res == reference_scan_cprime(R)
            seen[res.status] += 1
            # the pairs whose label runs the scan walks as chains
            walked = [best[p] for p in best
                      if best[p] >= max(1, k_min[p] - 2)
                      and k_min[p] <= min(length[p[0]], length[p[1]])]
            if walked and res.status != "fail":
                assert max(walked) <= res.max_core <= max(best.values())
                seen["walked"] += 1
            if res.status == "pass":
                assert not violated, [str(r) for r in relators]
                # C' holds, so Dehn's algorithm kills every relator
                for base in R.bases:
                    dehn = dehn_decide(base.word, R)
                    assert dehn.status == "trivial", str(base.word)
                    assert replay_certificate(base.word, dehn.certificate, R)
            elif res.status == "fail":
                assert replay_cprime_witness(R, res.witness)
            else:
                assert near, [str(r) for r in relators]
    assert sum(seen[s] for s in ("pass", "fail", "inconclusive")) == 300
    assert min(seen[s] for s in ("pass", "fail", "inconclusive")) >= 10
    assert seen["walked"] >= 10


def test_cprime_scans_each_unit_pair_once(monkeypatch):
    # trivial_h: 8 units, so one runs_at_least scan per ordered pair of
    # units, and a second check reuses the verdict
    from amalgams import _pykernels, kernels

    T, S, _ = load_system_fixture(f"{FIXTURES}/trivial_h.json")
    R = generate_relators(S, T, check=False)
    calls = []

    def counted(*args):
        calls.append(args)
        return _pykernels.runs_at_least(*args)

    monkeypatch.setattr(kernels, "runs_at_least", counted)
    res = check_cprime(R)
    assert res.status == "pass" and res.pairs_scanned == 64
    assert len(R.units) == 8
    assert len(calls) == 64
    assert {(a, b) for a, b, _ in calls} == {
        (R.cyclic_labels[u1.partner], R.cyclic_labels[u2.uid])
        for u1 in R.units for u2 in R.units}
    calls.clear()
    assert check_cprime(R) is res
    assert R.cprime is res
    assert not calls


# ---------------------------------------------------------------------------
# coded chains: the (label, junction) walker against element arithmetic


def coded_triple():
    K = FreeGroup(["h", "g", "a", "d"])
    L = FreeGroup(["h", "g", "b", "c"])
    return SharedFreeAmalgam(K, L, ["h", "g"])


H_LETTERS = [("h", 1), ("h", -1), ("g", 1), ("g", -1)]
SKELETON = {K_SIDE: [("a", 1), ("a", -1), ("d", 1)],
            L_SIDE: [("b", 1), ("c", 1), ("c", -1)]}


def _h_word(rng, top):
    return [rng.choice(H_LETTERS) for _ in range(rng.randrange(top + 1))]


def _random_syllable(rng, T, side):
    """A syllable outside H with H-letters in its head, its tail and
    between its skeleton letters."""
    group = T.side_group(side)
    while True:
        letters = _h_word(rng, 2)
        for i in range(rng.randrange(1, 4)):
            if i:
                letters += _h_word(rng, 1)
            letters.append(rng.choice(SKELETON[side]))
        g = group.element(letters + _h_word(rng, 2))
        if T.in_H(g) is False:
            return Syllable(side, g)


def _conjugated_inverses(rng, run, close):
    """b_t = p_t^-1 · a_t^-1 · p_{t+1} for random H-words p, so a_t's
    chain runs through every b_t and leaves p_{t+1}; with ``close`` the
    last p is empty, so a full cycle has product 1."""
    ps = [_h_word(rng, 2) for _ in run] + [[] if close else _h_word(rng, 2)]
    out = []
    for t, a in enumerate(run):
        group = a.elt.owner
        b = group.element(words.inverse(ps[t]) + words.inverse(a.elt.payload)
                          + tuple(ps[t + 1]))
        out.append(Syllable(a.side, b))
    return out


def _off_by_one_h_letter(rng, syl):
    letter = [rng.choice(H_LETTERS)]
    group = syl.elt.owner
    payload = list(syl.elt.payload)
    payload = letter + payload if rng.random() < 0.5 else payload + letter
    return Syllable(syl.side, group.element(payload))


def test_coded_chains_match_element_chains():
    # w2 carries an H-conjugated copy of w1^-1 read backwards from i1,
    # sometimes across the seams of both words and sometimes with one
    # junction off by one H-letter, between random syllables. The coded
    # walker must give the element walker's ell, seed, end product and
    # wrap flag, for codes from one relator set (the C' scan) and for a
    # query word coded against a set (Dehn).
    rng = random.Random(20261018)
    T = coded_triple()
    seen = collections.Counter()
    for case in range(600):
        n = 2 * rng.randrange(1, 6)
        w1 = [_random_syllable(rng, T, K_SIDE if i % 2 == 0 else L_SIDE)
              for i in range(n)]
        m = n if rng.random() < 0.4 else 2 * rng.randrange(1, 6)
        i1, j2 = rng.randrange(n), rng.randrange(m)
        t0 = n if m == n and rng.random() < 0.5 else \
            rng.randrange(min(n, m) + 1)
        close = t0 == n == m and rng.random() < 0.7
        planted = _conjugated_inverses(
            rng, [w1[(i1 - t) % n] for t in range(t0)], close)
        if planted and rng.random() < 0.4:
            t = rng.randrange(t0)
            planted[t] = _off_by_one_h_letter(rng, planted[t])
            seen["off by one"] += 1
        side0 = w1[i1].side
        w2 = [None] * m
        for t, b in enumerate(planted):
            w2[(j2 + t) % m] = b
        for k in range(m):
            if w2[k] is None:
                same = (k - j2) % 2 == 0
                w2[k] = _random_syllable(
                    rng, T, side0 if same else OTHER_SIDE[side0])
        w1, w2 = tuple(w1), tuple(w2)
        R = RelatorSet(T, [ScanUnit("r0", w1), ScanUnit("r1", w2)])
        query = RelatorSet(T, [ScanUnit("r0", w1)])
        cap = min(n, m)
        max_steps = cap if rng.random() < 0.7 else rng.randrange(cap + 1)
        skip = rng.random() < 0.5
        ref = cancellation_chain(T, w1, w2, i1, j2, max_steps, skip)
        for codes in ((R.codes["r0^-1"], R.codes["r1"]),
                      (query.codes["r0^-1"], query.code_word(w2)[1])):
            res = cancellation_chain(T, w1, w2, i1, j2, max_steps, skip,
                                     codes=codes)
            assert (res.ell, res.h0, res.h_end, res.full_wrap_trivial) == \
                (ref.ell, ref.h0, ref.h_end, ref.full_wrap_trivial), case
        seen["long"] += ref.ell >= 3
        seen["seam"] += ref.ell > min(i1 + 1, m - j2)
        seen["capped"] += 0 < ref.ell == max_steps < cap
        seen["stopped early"] += 0 < ref.ell < min(t0, max_steps)
        seen["wrap"] += ref.full_wrap_trivial
        seen["wrap skipped"] += skip and close and ref.h0 is None
    # chains of up to 240 steps, which the coded walker compares 64
    # codes at a time: one junction of w2, near a block's end or
    # anywhere, is off by one H-letter
    for case in range(12):
        n = 2 * rng.randrange(70, 120)
        w1 = [_random_syllable(rng, T, K_SIDE if i % 2 == 0 else L_SIDE)
              for i in range(n)]
        i1, j2 = rng.randrange(n), rng.randrange(n)
        planted = _conjugated_inverses(
            rng, [w1[(i1 - t) % n] for t in range(n)], False)
        w1 = tuple(w1)
        query = RelatorSet(T, [ScanUnit("r0", w1)])
        for bad in (None, 0, 1, 2, 63, 64, 65, 66, 128, rng.randrange(n)):
            run = list(planted)
            if bad is not None:
                run[bad] = _off_by_one_h_letter(rng, run[bad])
            w2 = tuple(run[(k - j2) % n] for k in range(n))
            R = RelatorSet(T, [ScanUnit("r0", w1), ScanUnit("r1", w2)])
            max_steps = n if rng.random() < 0.7 else rng.randrange(n + 1)
            ref = cancellation_chain(T, w1, w2, i1, j2, max_steps)
            for codes in ((R.codes["r0^-1"], R.codes["r1"]),
                          (query.codes["r0^-1"], query.code_word(w2)[1])):
                res = cancellation_chain(T, w1, w2, i1, j2, max_steps,
                                         codes=codes)
                assert (res.ell, res.h0, res.h_end) == \
                    (ref.ell, ref.h0, ref.h_end), (case, bad)
            seen["long, ends at step 1 or 2"] += ref.ell in (1, 2)
            seen["long, ends past a block"] += ref.ell > 64
    assert min(seen.values()) >= 10, seen


def test_cprime_walks_codes_and_replay_walks_elements(monkeypatch):
    # trivial_h: the C' scan walks only the 8 excluded product-1
    # alignments, 6640 steps each; on codes that costs a few multiplications
    # per chain, not three per step. The witness replay on corrupted
    # stays on element arithmetic: one H-membership test per step at
    # least.
    from amalgams import cancellation
    from amalgams.groups import GroupHandle

    calls = collections.Counter()

    def counting(name, fn):
        def counted(*args, **kwargs):
            res = fn(*args, **kwargs)
            calls[name] += 1
            if name == "chain":
                calls["ell"] += res.ell
            return res
        return counted

    monkeypatch.setattr(cancellation, "cancellation_chain",
                        counting("chain", cancellation.cancellation_chain))
    monkeypatch.setattr(GroupHandle, "mul", counting("mul", GroupHandle.mul))
    monkeypatch.setattr(SharedFreeAmalgam, "in_H",
                        counting("in_H", SharedFreeAmalgam.in_H))

    T, S, hints = load_system_fixture(f"{FIXTURES}/trivial_h.json")
    R = generate_relators(S, T, check=False)
    calls.clear()
    assert check_cprime(R).status == "pass"
    assert (calls["chain"], calls["ell"]) == (8, 53_120)
    assert calls["mul"] <= 100

    T, S, _ = load_system_fixture(f"{FIXTURES}/corrupted.json")
    R = generate_relators(S, T, check=False)
    wit = check_cprime(R).witness
    calls.clear()
    assert replay_cprime_witness(R, wit)
    assert calls["in_H"] >= wit.ell


# ---------------------------------------------------------------------------
# the diagonal pass that the C' scan and Dehn's long-part search share


def _seed_chain(T, w1, w2, i1, j2, h, cap):
    """Length and end of the chain from (i1, j2) seeded h, walked by
    element arithmetic."""
    n, m = len(w1), len(w2)
    P, t = h, 0
    while t < cap:
        a, b = w1[(i1 - t) % n], w2[(j2 + t) % m]
        if a.side != b.side:
            break
        group = T.side_group(a.side)
        Q = group.mul(group.mul(a.elt, T.transfer(P, a.side)), b.elt)
        if not T.in_H(Q):
            break
        P, t = Q, t + 1
    return t, P


def _planted_pair(rng, T):
    """w1 and a w2 holding H-conjugated runs of w1^-1, each carried by
    its own random H-elements, between random syllables outside H."""
    outside, h_elts = {}, {}
    for side in (K_SIDE, L_SIDE):
        group = T.side_group(side)
        outside[side] = [g for g in group.elements() if not T.in_H(g)]
        h_elts[side] = [g for g in group.elements() if T.in_H(g)]
    n = 2 * rng.randrange(1, 6)
    m = n if rng.random() < 0.5 else 2 * rng.randrange(1, 6)
    first = rng.choice((K_SIDE, L_SIDE))
    w1 = [Syllable(side, rng.choice(outside[side])) for side in
          (first if i % 2 == 0 else OTHER_SIDE[first] for i in range(n))]
    sides = [first if k % 2 == 0 else OTHER_SIDE[first] for k in range(m)]
    w2 = [None] * m
    for _ in range(rng.randrange(1, 4)):
        i = rng.randrange(n)
        j = rng.choice([k for k in range(m) if sides[k] == w1[i].side])
        p = rng.choice(h_elts[w1[i].side])
        for t in range(rng.randrange(1, min(n, m) + 1)):
            a = w1[(i - t) % n]
            group = T.side_group(a.side)
            p_next = rng.choice(h_elts[a.side])
            w2[(j + t) % m] = Syllable(a.side, group.mul(group.mul(
                T.transfer(p, a.side).inv(), a.elt.inv()), p_next))
            p = p_next
    w2 = [syl or Syllable(sides[k], rng.choice(outside[sides[k]]))
          for k, syl in enumerate(w2)]
    return tuple(w1), tuple(w2)


def _check_element_diagonal(T, w1, w2, i1, j2, length, max_steps, room,
                            skip, seen):
    # every offset is walked; each gives cancellation_chain's result, and
    # each seed's state gives the length and end of its own chain
    n, m = len(w1), len(w2)
    diagonal = Diagonal(T, w1, w2, i1, j2, length, max_steps, room)
    got = dict(diagonal.chains(skip))
    assert sorted(got) == list(range(length))
    for o in range(length):
        cap = min(max_steps, room - o)
        ref = cancellation_chain(T, w1, w2, (i1 - o) % n, (j2 + o) % m,
                                 cap, skip)
        res = got[o]
        assert (res.ell, res.h0, res.h_end, res.full_wrap_trivial) == \
            (ref.ell, ref.h0, ref.h_end, ref.full_wrap_trivial), o
        a, b = w1[(i1 - o) % n], w2[(j2 + o) % m]
        if a.side != b.side:
            continue
        lengths = set()
        for h in T.junction_solutions(a.elt, b.elt):
            R, r = diagonal.states[j2 + o, h.payload]
            t, P = _seed_chain(T, w1, w2, i1 - o, j2 + o, h, cap)
            assert min(r, cap) == t
            assert T.transfer(R[r - t], K_SIDE) == T.transfer(P, K_SIDE)
            lengths.add(t)
        seen["seeds differ"] += len(lengths) > 1
        inner = [k for k in range(1, res.ell) if o + k < length
                 and got[o + k].ell > res.ell - k]
        seen["longer chain inside"] += bool(inner)
        seen["wrap"] += res.full_wrap_trivial
        seen["long"] += res.ell >= 3


def _check_coded_diagonal(R, u1, u2, s, j, length, seen):
    # offsets the pass steps past lie inside the chain before them: the
    # coded chain from there continues it, so it runs at least to its end
    # (exactly there when that chain stopped short of the cap)
    T = R.T
    n, m = len(u1.word), len(u2.word)
    cap, codes = min(n, m), (R.codes[u1.partner], R.codes[u2.uid])
    diagonal = Diagonal(T, u1.word, u2.word, n - 1 - s, j, length, cap,
                        codes=codes)
    got = list(diagonal.chains(skip_trivial_wrap=True))
    for k, (o, res) in enumerate(got):
        ref = cancellation_chain(T, u1.word, u2.word, (n - 1 - s - o) % n,
                                 (j + o) % m, cap, codes=codes)
        assert (res.ell, res.h0, res.h_end, res.full_wrap_trivial) == \
            (ref.ell, ref.h0, ref.h_end, ref.full_wrap_trivial)
        end = got[k + 1][0] if k + 1 < len(got) else length
        assert end == o + max(res.ell, 1) or res.full_wrap_trivial
        for inside in range(o + 1, end, max(1, (end - o) // 7)):
            chain = cancellation_chain(
                T, u1.word, u2.word, (n - 1 - s - inside) % n,
                (j + inside) % m, cap, codes=codes)
            suffix = res.ell - (inside - o)
            assert chain.ell == suffix or res.ell == cap <= chain.ell + (
                inside - o)
            seen["stepped past"] += 1


def test_diagonal_pass_matches_chains_from_every_offset():
    rng = random.Random(20261019)
    seen = collections.Counter()
    for make in ALL_INSTANCES + (instance_s3_z4,):
        T, _ = make()
        for _ in range(40):
            w1, w2 = _planted_pair(rng, T)
            n, m = len(w1), len(w2)
            for _ in range(3):
                length = rng.randrange(1, 2 * max(n, m) + 1)
                max_steps = min(n, m) if rng.random() < 0.7 \
                    else rng.randrange(min(n, m) + 1)
                room = math.inf if rng.random() < 0.5 \
                    else length + rng.randrange(max_steps + 1)
                _check_element_diagonal(
                    T, w1, w2, rng.randrange(n), rng.randrange(m), length,
                    max_steps, room, rng.random() < 0.5, seen)
    for name in ("with_h", "trivial_h", "d_case", "corrupted"):
        T, S, _ = load_system_fixture(f"{FIXTURES}/{name}.json")
        R = generate_relators(S, T, check=False)
        for u1 in R.units:
            n = len(u1.word)
            for u2 in R.units:
                m = len(u2.word)
                k = max(1, math.ceil(R.chi * min(n, m)) - 2)
                runs = kernels.runs_at_least(
                    R.cyclic_labels[u1.partner], R.cyclic_labels[u2.uid], k)
                for s, j, length in distinct_cyclic_runs(runs, n, m):
                    _check_coded_diagonal(R, u1, u2, s, j,
                                          min(length, math.lcm(n, m)), seen)
    assert min(seen[key] for key in (
        "seeds differ", "longer chain inside", "wrap", "long",
        "stepped past")) >= 10, seen


def test_dehn_finds_long_part_inside_shorter_chain():
    # In S3 *_{Z2} Z4, H = <(1 2)> is central in Z4 but not normal in S3,
    # so a chain that carries the wrong H-element passes an L-syllable and
    # stops at the next K-syllable. Each w plants two syllables of r and
    # then a long part of r, H-conjugated syllable by syllable, but the
    # carry into the long part is off by (1 2): the chain from 0 runs 3
    # steps, past the start of the long part at 2. Dehn's search must
    # find a replacement at least as short as that part's. Short chains
    # are common in this small amalgam, so another part may tie with it.
    rng = random.Random(20261019)
    T, _ = instance_s3_z4()
    outside = {side: [g for g in T.side_group(side).elements()
                      if not T.in_H(g)] for side in (K_SIDE, L_SIDE)}
    h_k = [g for g in T.K.elements() if T.in_H(g)]
    x = next(h for h in h_k if not T.K.is_identity(h))
    m, part = 20, 15
    assert part == part_threshold(m)

    def conjugated(syl, h, h_next):
        group = T.side_group(syl.side)
        return Syllable(syl.side, group.mul(group.mul(
            T.transfer(h, syl.side).inv(), syl.elt),
            T.transfer(h_next, syl.side)))

    exact = 0
    for _ in range(20):
        r = [Syllable(side, rng.choice(outside[side]))
             for side in (K_SIDE, L_SIDE) * (m // 2)]
        j0 = rng.randrange(1, m, 2)  # r[j0] is an L-syllable
        g = [rng.choice(h_k) for _ in range(part + 1)]
        carries = [rng.choice(h_k), rng.choice(h_k), T.K.mul(x, g[0])]
        w = tuple(
            [conjugated(r[(j0 - 2 + i) % m], carries[i], carries[i + 1])
             for i in range(2)]
            + [conjugated(r[(j0 + i) % m], g[i], g[i + 1])
               for i in range(part)])
        R = symmetrized_closure([tuple(r)], T)
        inv = R.by_uid["r0^-1"].word
        assert cancellation_chain(T, inv, w, m + 1 - j0, 0, len(w)).ell == 3
        chain = cancellation_chain(T, inv, w, m - 1 - j0, 2, part)
        assert chain.ell == part
        # w[2..17) = h0^-1 r[j0..j0+15) h_end becomes
        # h0^-1 (r[j0+15..j0+20))^-1 h_end
        h0, h_end = chain.h0, chain.h_end
        rest = [Syllable(r[(j0 - 1 - i) % m].side,
                         r[(j0 - 1 - i) % m].elt.inv())
                for i in range(m - part)]
        planted = canonicalize(
            list(w[:2]) + [syllable(T.side_of_group(h0.owner), h0.inv())]
            + rest + [syllable(T.side_of_group(h_end.owner), h_end)], T)
        found, gray = find_replacement(w, R)
        assert found is not None and len(found[0]) <= len(planted)
        step = found[1]
        exact += (step.uid, step.offset, step.rotation, step.ell) == \
            ("r0", 2, j0, part)
    assert exact >= 10


# ---------------------------------------------------------------------------
# full-scale relator systems


@pytest.fixture(scope="module")
def rho_system():
    T, S, _ = load_system_fixture(f"{FIXTURES}/with_h.json")
    R = generate_relators(S, T)
    return T, S, R


def test_rho_system_passes_exactly(rho_system):
    T, S, R = rho_system
    res = check_cprime(R)
    assert res.status == "pass"
    assert res.max_core < 664


def test_corrupted_system_fails_with_replayable_witness():
    T, S, _ = load_system_fixture(f"{FIXTURES}/corrupted.json")
    R = generate_relators(S, T, check=False)
    res = check_cprime(R)
    assert res.status == "fail"
    assert res.witness.ell >= res.witness.threshold == 664
    assert replay_cprime_witness(R, res.witness)
    for change in ({"uid1": "r99"}, {"uid2": "r99"}):
        bad = res.witness._replace(**change)
        assert replay_cprime_witness(R, bad) is False, change


def test_corrupted_h_translate_diagonal_is_a_piece():
    # corrupted's r1 is h^-1·r0: on the (r0^-1, r1) diagonal a chain
    # starts on h, runs all 6,640 syllables and ends on 1. Only a chain
    # that also starts on 1 is the excluded self-alignment; this one is a
    # piece between two relators
    T, S, _ = load_system_fixture(f"{FIXTURES}/corrupted.json")
    R = generate_relators(S, T, check=False)
    u1, u2 = R.by_uid["r0^-1"], R.by_uid["r1"]
    n, m = len(u1.word), len(u2.word)
    k = math.ceil(R.chi * min(n, m)) - 2
    runs = kernels.runs_at_least(
        R.cyclic_labels[u1.partner], R.cyclic_labels[u2.uid], k)
    longest = 0
    for s, j, length in distinct_cyclic_runs(runs, n, m):
        diagonal = Diagonal(
            T, u1.word, u2.word, n - 1 - s, j, min(length, math.lcm(n, m)),
            min(n, m), codes=(R.codes[u1.partner], R.codes[u2.uid]))
        for _, res in diagonal.chains(skip_trivial_wrap=True):
            if not res.full_wrap_trivial:
                longest = max(longest, res.ell)
    assert longest >= 664


def test_h_translates_of_a_relator_fail_cprime():
    # r and h^-1·r, h != 1 in H, share their whole length. Two of the
    # four unit pairs that align them start on h and end on 1; the other
    # two start on 1 and end on h. Each orientation is a piece, for the
    # scan and for the brute-force oracle alike
    rng = random.Random(20261021)
    for _ in range(12):
        T = random_shared_free(rng)
        r = canonicalize(_random_free_word(
            rng, T, 2 * rng.randrange(2, 5), K_SIDE), T)
        h_letters = [(x, e) for x in sorted(T.h_symbols) for e in (1, -1)]
        h = T.K.element([rng.choice(h_letters)
                         for _ in range(rng.randrange(1, 4))])
        if T.K.is_identity(h):
            continue
        hr = canonicalize((syllable(K_SIDE, h.inv()),) + r, T)
        for pair in ([r, hr], [hr, r]):
            R = symmetrized_closure(pair, T, chi=Fraction(1, 10))
            best = _naive_pair_overlaps(R)
            for uids in (("r0^-1", "r1"), ("r1^-1", "r0"),
                         ("r0", "r1^-1"), ("r1", "r0^-1")):
                assert best[uids] == len(r), uids
            res = check_cprime(R)
            assert res.status == "fail"
            assert replay_cprime_witness(R, res.witness)
            assert _naive_max_overlap(R, R.chi) >= res.witness.threshold


def test_dehn_kills_relator_with_replayable_certificate(rho_system):
    T, S, R = rho_system
    w = R.bases[0].word
    res = dehn_decide(w, R)
    assert res.status == "trivial"
    assert replay_certificate(w, res.certificate, R)
    # serialization keeps the replay data
    data = certificate_to_json(res.certificate)
    back = certificate_from_json(data)
    assert replay_certificate(w, back, R)
    text = json.dumps(data, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == BASE_CERT_SHA256


def _tamperings(cert, R):
    """(change, certificate) for each of a set of changes to each replace
    step of cert: a unit that does not exist or is the partner, a part
    moved by one on the relator or on the word, one syllable more, and
    a wrong h_start (junk JSON, an unknown side, or the payload on the
    other side)."""
    for n, step in enumerate(cert):
        if step.kind != "replace":
            continue
        for change in ({"uid": "r99"},
                       {"uid": R.by_uid[step.uid].partner},
                       {"rotation": step.rotation + 1},
                       {"rotation": step.rotation - 1},
                       {"offset": step.offset + 1},
                       {"offset": step.offset - 1},
                       {"offset": step.from_len - step.ell + 1},
                       {"ell": step.ell + 1},
                       {"h_start_json": {"junk": 1}},
                       {"h_start_side": "Q"},
                       {"h_start_side": OTHER_SIDE[step.h_start_side]}):
            bad = list(cert)
            bad[n] = step._replace(**change)
            yield change, bad


def test_tampered_certificate_is_rejected(rho_system):
    T, S, R = rho_system
    w = R.bases[0].word
    cert = dehn_decide(w, R).certificate
    for change, bad in _tamperings(cert, R):
        assert replay_certificate(w, bad, R) is False, change


def _random_free_word(rng, T, n, side):
    """n alternating syllables from ``side``, each outside H with
    H-letters in its head, its tail and between its other letters."""
    out = []
    h_letters = [(x, e) for x in sorted(T.h_symbols) for e in (1, -1)]
    for _ in range(n):
        group = T.side_group(side)
        own = [(x, e) for x in group.symbols if x not in T.h_symbols
               for e in (1, -1)]
        while True:
            letters = []
            for _ in range(rng.randrange(1, 3)):
                letters += [rng.choice(h_letters)
                            for _ in range(rng.randrange(3))]
                letters.append(rng.choice(own))
            letters += [rng.choice(h_letters) for _ in range(rng.randrange(3))]
            g = group.element(letters)
            if not T.in_H(g):
                break
        out.append(syllable(side, g))
        side = OTHER_SIDE[side]
    return out


def _conjugate(u, r, T):
    """The canonical form of u · r · u^-1, for canonical u and r."""
    return canonicalize(
        u + r + canonical_inverse(u, T), T)


def _replays_agree(w, cert, R, seen):
    assert replay_certificate(w, cert, R) is True
    assert element_replay_certificate(w, cert, R) is True
    for change, bad in _tamperings(cert, R):
        got = replay_certificate(w, bad, R)
        assert got is element_replay_certificate(w, bad, R), change
        seen["tampered accepted" if got else "tampered rejected"] += 1


def test_free_replay_matches_element_replay(rho_system):
    # replay_certificate replays each part of a shared-free amalgam by
    # one free reduction; the element replay of tests/oracles.py walks it.
    # They must agree on every certificate and every tampered copy: the
    # certificates of rho_system, and of random products of relator
    # conjugates over random shared-free amalgams
    rng = random.Random(20261019)
    seen = collections.Counter()
    T, S, R = rho_system
    r = R.bases[0].word
    rot = r
    for _ in range(3):
        rot = rotate(rot, T)
    u = canonicalize(_random_free_word(rng, T, 3, K_SIDE), T)
    for w in [unit.word for unit in R.units] + [
            canonicalize(r + rot, T),
            _conjugate(u, r, T)]:
        res = dehn_decide(w, R)
        assert res.status == "trivial"
        _replays_agree(w, res.certificate, R, seen)
    for _ in range(25):
        T = random_shared_free(rng)
        relators = [canonicalize(_random_free_word(
            rng, T, 2 * rng.randrange(6, 10), K_SIDE), T)
            for _ in range(rng.randint(1, 2))]
        R = symmetrized_closure(relators, T)
        for _ in range(3):
            sylls = []
            for _ in range(rng.randint(1, 3)):
                unit = rng.choice(R.units).word
                for _ in range(rng.randrange(len(unit))):
                    unit = rotate(unit, T)
                u = canonicalize(_random_free_word(
                    rng, T, rng.randrange(4), rng.choice("KL")), T)
                sylls += _conjugate(u, unit, T)
            w = canonicalize(sylls, T)
            res = dehn_decide(w, R)
            seen[res.status] += 1
            if res.status == "trivial":
                _replays_agree(w, res.certificate, R, seen)
    assert seen["trivial"] >= 60, seen
    assert seen["tampered rejected"] >= 1000, seen


def test_dehn_kills_product_of_relator_conjugates(rho_system):
    from amalgams.cancellation import _cyclic_reduce
    from amalgams.canonical import rotate

    T, S, R = rho_system
    r = R.bases[0].word
    rot = r
    for _ in range(3):
        rot = rotate(rot, T)
    prod = canonicalize(r + rot, T)
    res = dehn_decide(prod, R)
    assert res.status == "trivial"
    assert replay_certificate(prod, res.certificate, R)


def _h_payload(rng, T):
    """A random H-word of 0-3 letters, freely reduced."""
    letters = [(x, e) for x in sorted(T.h_symbols) for e in (1, -1)]
    return words.free_reduce(
        [rng.choice(letters) for _ in range(rng.randrange(4))])


def _twisted_conjugate(rng, T, core, length):
    """u · core · u^-1 for u of ``length`` random alternating syllables,
    with the syllables of u^-1 twisted by random H-elements c_k: the
    k-th from the end is c_{k+1} · u_k^-1 · c_k^-1 (c_0 = c_length = 1),
    so the k-th cyclic-reduce step meets the seam product c_{k+1} in H,
    and most of these are not 1. Canonicalized, so the ends of u merge
    with the core where their sides meet."""
    u = _random_free_word(rng, T, length, rng.choice("KL"))
    carries = [()] + [_h_payload(rng, T) for _ in range(length - 1)] + [()]
    tail = []
    for k, s in enumerate(u):
        group = s.elt.owner
        tail.append(syllable(s.side, group.element(
            carries[k + 1] + words.inverse(s.elt.payload)
            + words.inverse(carries[k]))))
    return canonicalize(u + list(core) + tail[::-1], T)


def _same_dehn(w, R, seen):
    """dehn_decide against the reference of tests/oracles.py: the same
    DehnResult, certificate JSON and all."""
    got, ref = dehn_decide(w, R), reference_dehn_decide(w, R)
    assert got == ref
    assert certificate_to_json(got.certificate) == \
        certificate_to_json(ref.certificate)
    seen[got.status] += 1
    reduce = [step for step in got.certificate
              if step.kind == "cyclic-reduce"]
    seen["cyclic-reduce steps"] += len(reduce)
    return got


def test_dehn_decide_matches_reference(rho_system):
    # the one-pass cyclic reduction and the block-compared coded walk
    # against the rotate loop and the per-step walk: random shared-free
    # amalgams, products of rotated conjugates of with_h's relator, and
    # words whose cyclic reduction takes thousands of steps through
    # seams that land in H off 1
    rng = random.Random(20261020)
    seen = collections.Counter()
    for _ in range(20):
        T = random_shared_free(rng)
        relators = [canonicalize(_random_free_word(
            rng, T, 2 * rng.randrange(6, 10), K_SIDE), T)
            for _ in range(rng.randint(1, 2))]
        R = symmetrized_closure(relators, T)
        for _ in range(4):
            sylls = []
            for _ in range(rng.randint(1, 3)):
                unit = rng.choice(R.units).word
                k = rng.randrange(len(unit))
                unit = unit[k:] + unit[:k]
                u = canonicalize(_random_free_word(
                    rng, T, rng.randrange(4), rng.choice("KL")), T)
                sylls += _conjugate(u, unit, T)
            if rng.random() < 0.3:
                sylls += _random_free_word(rng, T, 3, rng.choice("KL"))
            w = canonicalize(sylls, T)
            if w:
                _same_dehn(w, R, seen)
            _same_dehn(_twisted_conjugate(rng, T, w, rng.randrange(
                1, 60)), R, seen)
    T, S, R = rho_system
    r = R.bases[0].word
    n = len(r)
    for count in (1, 2, 4, 7, 12, 16):
        sylls = []
        for _ in range(count):
            unit = rng.choice(R.units).word
            k = rng.randrange(n)
            unit = unit[k:] + unit[:k]
            u = canonicalize(_random_free_word(
                rng, T, rng.randrange(1, 6), rng.choice("KL")), T)
            sylls += _conjugate(u, unit, T)
        _same_dehn(canonicalize(sylls, T), R, seen)
    for length in (1000, 2000, 3000):
        core = canonicalize(_random_free_word(rng, T, 3, "K"), T) \
            if length != 2000 else R.units[1].word
        w = _twisted_conjugate(rng, T, core, length)
        res = _same_dehn(w, R, seen)
        assert sum(step.kind == "cyclic-reduce"
                   for step in res.certificate) >= length - 1
    assert seen["trivial"] >= 40 and seen["nontrivial"] >= 20, seen
    assert seen["cyclic-reduce steps"] >= 6000, seen


def test_cprime_scan_matches_reference_on_fixtures():
    for name in ("with_h", "trivial_h", "d_case", "corrupted"):
        T, S, _ = load_system_fixture(f"{FIXTURES}/{name}.json")
        R = generate_relators(S, T, check=False)
        assert check_cprime(R) == reference_scan_cprime(R), name


def _abelianized(w, symbols):
    vec = {s: 0 for s in symbols}
    for s in w:
        for sym, sign in s.elt.payload:
            vec[sym] += sign
    return sympy.Matrix([vec[s] for s in symbols])


def test_random_short_words_nontrivial_vs_abelianization(rho_system):
    T, S, R = rho_system
    symbols = sorted(set(T.K.symbols) | set(T.L.symbols), key=str)
    rel_cols = sympy.Matrix.hstack(*[
        _abelianized(b.word, symbols) for b in R.bases])
    rng = random.Random(20260824)
    pool = {
        K_SIDE: [T.K.generator("a"), T.K.generator("a", -1),
                 T.K.element([("a", 1), ("h", 1)])],
        L_SIDE: [T.L.generator("b"), T.L.generator("c"),
                 T.L.generator("b", -1), T.L.generator("c", -1)],
    }
    checked = 0
    for _ in range(100):
        sylls = []
        side = rng.choice([K_SIDE, L_SIDE])
        for _ in range(rng.randrange(1, 7)):
            sylls.append(syllable(side, rng.choice(pool[side])))
            side = L_SIDE if side == K_SIDE else K_SIDE
        w = canonicalize(sylls, T)
        if not w:
            continue
        res = dehn_decide(w, R)
        assert res.status in ("trivial", "nontrivial")
        vec = _abelianized(w, symbols)
        sol = rel_cols.solve_least_squares(vec)
        in_lattice = (rel_cols * sol - vec).is_zero_matrix and \
            all(x.is_integer for x in sol)
        if res.status == "trivial":
            assert in_lattice
        if not in_lattice:
            assert res.status == "nontrivial"
        checked += 1
    assert checked >= 90


def test_quotient_group_without_relators_is_the_amalgam():
    T = small_triple()
    R = RelatorSet(T, [])
    build_quotient(R)
    w = cw(T, (K_SIDE, [("a", 1)]), (L_SIDE, [("b", 1)]))
    assert dehn_decide(w, R).status == "nontrivial"
    assert dehn_decide((), R).status == "trivial"


def test_build_quotient_refuses_violating_relators():
    T = small_triple()
    r1 = cw(T, (K_SIDE, [("a", 1)]), (L_SIDE, [("b", 1)]),
            (K_SIDE, [("a", 1)]), (L_SIDE, [("c", 1)]))
    R = symmetrized_closure([r1], T, chi=Fraction(1, 10))
    with pytest.raises(ValueError):
        build_quotient(R)


def test_build_quotient_gates_at_one_tenth_only():
    # a set is checked at the chi it was built for, so one built for
    # C'(1/2) is refused although it passes there, and at 1/10 too
    T, S, _ = load_system_fixture(f"{FIXTURES}/with_h.json")
    R = generate_relators(S, T, chi=Fraction(1, 2))
    assert check_cprime(R).status == "pass"
    with pytest.raises(ValueError, match=r"built for C'\(1/2\)"):
        build_quotient(R)


def test_cprime_scans_a_set_once(monkeypatch):
    # solve-word's path: generating the set checks C', and the gate and
    # any later check read the verdict kept on the set
    from amalgams import cancellation

    scans = collections.Counter()
    scan = cancellation._scan_cprime

    def counted(R):
        scans[id(R)] += 1
        return scan(R)

    monkeypatch.setattr(cancellation, "_scan_cprime", counted)
    T, S, _ = load_system_fixture(f"{FIXTURES}/with_h.json")
    R = generate_relators(S, T)
    build_quotient(R)
    assert check_cprime(R).status == "pass"
    assert scans == {id(R): 1}


def test_quotient_mul_and_inverse(rho_system):
    T, S, R = rho_system
    build_quotient(R)
    g = canonicalize([syllable(K_SIDE, T.K.generator("a")),
                      syllable(L_SIDE, T.L.generator("b"))], T)
    g_inv = canonical_inverse(g, T)
    assert dehn_decide(canonicalize(g + g_inv, T),
                       R).status == "trivial"
    assert dehn_decide(g, R).status == "nontrivial"
