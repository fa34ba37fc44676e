"""Ordinal CNF arithmetic, walks, and the subadditive coloring contract."""

from __future__ import annotations

import itertools
import random

import pytest

from amalgams.colorings import (
    ColoringTable,
    LadderSystem,
    OMEGA,
    ONE,
    WalkColoring,
    ZERO,
    cantor_pair,
    cantor_unpair,
    from_int,
    fundamental_seq,
    hitting_scan,
    omega_power,
    omega_sq_scope,
    ord_add,
    ord_cmp,
    ord_from_str,
    ord_sort_key,
    ord_to_str,
    predecessor,
    successor,
    walk,
)


def random_ordinal(rng, max_coeff=50):
    # below omega^3: w^2*a + w*b + c
    a, b, c = (rng.randrange(0, max_coeff) for _ in range(3))
    out = ZERO
    if a:
        out = ord_add(out, omega_power(from_int(2), a))
    if b:
        out = ord_add(out, omega_power(ONE, b))
    return ord_add(out, from_int(c))


def as_int(o, base=10**6):
    # order-preserving embedding of ordinals below omega^3 with small
    # coefficients: evaluate the CNF at a huge base
    total = 0
    for exp, coeff in o.terms:
        level = exp.natural_part() if exp.terms else 0
        total += coeff * base**level
    return total


# ---------------------------------------------------------------------------
# arithmetic


def test_sum_is_not_commutative():
    assert ord_to_str(ord_add(OMEGA, ONE)) == "w+1"
    assert ord_cmp(ord_add(ONE, OMEGA), OMEGA) == 0


def test_cmp_agrees_with_base_evaluation_oracle():
    rng = random.Random(20260824)
    for _ in range(10_000):
        x, y = random_ordinal(rng), random_ordinal(rng)
        want = (as_int(x) > as_int(y)) - (as_int(x) < as_int(y))
        assert ord_cmp(x, y) == want


def test_add_agrees_with_base_evaluation_on_absorbing_cases():
    rng = random.Random(7)
    for _ in range(500):
        x, y = random_ordinal(rng), random_ordinal(rng)
        s = ord_add(x, y)
        # ordinal sum dominates both the right summand and, weakly, x
        assert ord_cmp(s, y) >= 0
        assert ord_cmp(s, x) >= 0
        assert ord_cmp(ord_add(s, ONE), s) > 0


def test_successor_predecessor_invert():
    rng = random.Random(3)
    for _ in range(200):
        x = random_ordinal(rng)
        assert ord_cmp(predecessor(successor(x)), x) == 0


def test_fundamental_seq_examples():
    w2 = omega_power(from_int(2))
    for n in range(5):
        assert ord_to_str(fundamental_seq(w2, n)) == \
            ("w" if n == 0 else f"w*{n + 1}")
    ww = omega_power(OMEGA)
    assert ord_to_str(fundamental_seq(ww, 2)) == "w^(3)"


def test_fundamental_seq_increasing_and_below():
    rng = random.Random(11)
    count = 0
    for _ in range(200):
        a, b = rng.randrange(0, 20), rng.randrange(0, 20)
        if a + b == 0:
            continue
        d = ZERO
        if a:
            d = ord_add(d, omega_power(from_int(2), a))
        if b:
            d = ord_add(d, omega_power(ONE, b))
        pts = [fundamental_seq(d, n) for n in range(6)]
        for p, q in zip(pts, pts[1:]):
            assert ord_cmp(p, q) < 0
        assert all(ord_cmp(p, d) < 0 for p in pts)
        count += 1
    assert count > 20


def test_fundamental_seq_rejects_non_limits():
    with pytest.raises(ValueError):
        fundamental_seq(ZERO, 0)
    with pytest.raises(ValueError):
        fundamental_seq(from_int(5), 0)


def test_string_roundtrip():
    rng = random.Random(5)
    for _ in range(500):
        x = random_ordinal(rng)
        assert ord_cmp(ord_from_str(ord_to_str(x)), x) == 0
    nested = omega_power(ord_add(omega_power(ONE, 2), from_int(1)), 3)
    assert ord_cmp(ord_from_str(ord_to_str(nested)), nested) == 0


def test_malformed_cnf_rejected():
    from amalgams.colorings import OrdinalCNF

    with pytest.raises(ValueError):
        OrdinalCNF(((ZERO, 0),))
    with pytest.raises(ValueError):
        OrdinalCNF(((ZERO, 1), (ONE, 1)))
    with pytest.raises(ValueError):
        ord_from_str("w^")


# ---------------------------------------------------------------------------
# walks


def test_walk_one_step_when_alpha_on_ladder():
    C = LadderSystem()
    w2 = omega_power(from_int(2))
    alpha = omega_power(ONE, 3)  # w*3 = fundamental_seq(w^2, 2)
    trace = walk(alpha, w2, C)
    assert [ord_to_str(t) for t in trace] == ["w^(2)", "w*3"]


def test_walk_with_stipulated_zero_based_ladder():
    C = LadderSystem(custom={"w": lambda n: from_int(n)})
    trace = walk(ZERO, OMEGA, C)
    assert [ord_to_str(t) for t in trace] == ["w", "0"]


def test_walks_descend_and_terminate():
    C = LadderSystem()
    rng = random.Random(20260824)
    done = 0
    while done < 10_000:
        x, y = random_ordinal(rng, 20), random_ordinal(rng, 20)
        if ord_cmp(x, y) == 0:
            continue
        if ord_cmp(x, y) > 0:
            x, y = y, x
        trace = walk(x, y, C)
        assert len(trace) >= 2
        for a, b in zip(trace, trace[1:]):
            assert ord_cmp(b, a) < 0
        assert ord_cmp(trace[-1], x) == 0
        done += 1


def test_non_cofinal_custom_ladder_is_an_error():
    C = LadderSystem(custom={"w": [from_int(0), from_int(1)]})
    with pytest.raises(ValueError):
        walk(from_int(5), OMEGA, C)


# ---------------------------------------------------------------------------
# the coloring e


def test_e_dominates_ladder_position():
    C = LadderSystem()
    col = WalkColoring(C)
    rng = random.Random(9)
    for _ in range(300):
        x, y = random_ordinal(rng, 15), random_ordinal(rng, 15)
        if ord_cmp(x, y) >= 0:
            continue
        _, otp = C.step(y, x)
        assert col.e(x, y) >= otp


def test_subadditivity_exhaustive_on_scope(walks_table):
    scope, table = walks_table
    report = table.check_contract()
    n = len(scope)
    assert report["triples"] == n * (n - 1) * (n - 2) // 6
    assert report["max_weak_d_size"] < n  # locally small at desk scale


def test_corrupted_table_fails_contract(walks_table):
    scope, table = walks_table
    n = len(scope)
    bad = ColoringTable({**table.e_map, (0, n - 1): 10_000},
                        table.c0_map, table.c1_map, table.scope)
    report = bad.check_contract()
    # e(0, w*15+14) now exceeds max(e(0, 1), e(1, w*15+14))
    assert report["violation"] == {"inequality": 1,
                                   "triple": ["0", "1", "w*15+14"]}
    assert report["triples"] == 0
    assert "max_weak_d_size" not in report


def test_from_walks_ranks_unsorted_scopes():
    # differential check of the rank mapping: entry (i, j) of a table
    # built on a shuffled scope below omega^3 is the walk coloring of
    # the i-th and j-th ordinals in increasing order
    rng = random.Random(20261018)
    C, col = LadderSystem(), WalkColoring()
    for _ in range(8):
        scope = list({as_int(x): x for x in (random_ordinal(rng, 6)
                                             for _ in range(16))}.values())
        rng.shuffle(scope)
        table = ColoringTable.from_walks(scope)
        ranked = table.scope
        assert sorted(map(as_int, scope)) == [as_int(x) for x in ranked]
        n = len(ranked)
        assert len(table.e_map) == len(table.c0_map) == n * (n - 1) // 2
        for i, j in itertools.combinations(range(n), 2):
            a, b = ranked[i], ranked[j]
            assert table.e(i, j) == col.e(a, b)
            assert table.c0(i, j) == len(walk(a, b, C)) - 1
            assert table.c1(i, j) == C.step(b, a)[1]


def test_e_requires_ordered_arguments():
    col = WalkColoring()
    assert col.e(OMEGA, OMEGA) == 0
    with pytest.raises(ValueError):
        col.e(OMEGA, ZERO)


# ---------------------------------------------------------------------------
# D-sets


def test_d_set_at_zero_is_empty(walks_table):
    scope, table = walks_table
    for gamma in range(50):
        assert table.d_set(gamma, 0, "strict") == ()


def test_d_set_monotone_and_coherent(walks_table):
    scope, table = walks_table
    for gamma in range(10, 240, 23):
        for i in range(0, 6):
            lt = table.d_set(gamma, i, "strict")
            le = table.d_set(gamma, i, "weak")
            lt_next = table.d_set(gamma, i + 1, "strict")
            assert set(lt) <= set(le)
            assert lt_next == le
            assert list(le) == sorted(le)
            assert all(table.e(b, gamma) <= i for b in le)


def test_d_set_saturates(walks_table):
    scope, table = walks_table
    gamma = 120
    below = [b for b in scope if ord_cmp(b, scope[gamma]) < 0]
    top = max(table.e(b, gamma) for b in range(gamma))
    assert len(table.d_set(gamma, top, "weak")) == len(below)


def test_d_set_rejects_unknown_mode(walks_table):
    scope, table = walks_table
    with pytest.raises(ValueError):
        table.d_set(5, 1, "sometimes")


# ---------------------------------------------------------------------------
# the composed coloring and scans


def test_pairing_base_case_and_bijectivity():
    assert cantor_unpair(0) == (0, 0)
    for n in range(10_000):
        x, y = cantor_unpair(n)
        assert cantor_pair(x, y) == n


def test_hitting_scan_engineered_table_hits_everything():
    scope = [from_int(i) for i in range(12)]

    def c0(a, b):
        return 1

    def c1(a, b):
        return 2

    def e(a, b):
        return 5

    rep = hitting_scan(scope, [(1, 2, 3)], c0, c1, e)
    assert rep["targets_hit"] == 1
    # every beta above the first sees all earlier alphas as witnesses
    counts = rep["witnesses"]["1,2,>3"]
    assert counts["11"] == 11


def test_hitting_scan_empty_sample():
    rep = hitting_scan([], [(0, 0, 0)], lambda a, b: 0, lambda a, b: 0,
                       lambda a, b: 0)
    assert rep["witnesses"]["0,0,>0"] == {}


def test_hitting_scan_default_colorings_smoke(walks_table):
    # demonstrative only: record that some realized targets are hit
    scope, table = walks_table
    sample = scope[:60]
    realized = []
    for b in range(1, 60):
        for a in range(min(b, 10)):
            realized.append((table.c0(a, b), table.c1(a, b),
                             max(table.e(a, b) - 1, 0)))
    targets = sorted(set(realized))[:10]
    rep = hitting_scan(sample, targets, table.c0, table.c1, table.e)
    assert rep["targets"] == len(targets)
    assert rep["targets_hit"] >= 1


# ---------------------------------------------------------------------------
# table plumbing


def test_scope_enumeration_is_sorted_and_sized():
    scope = omega_sq_scope(300)
    assert len(scope) == 300
    keys = [ord_sort_key(x) for x in scope]
    assert keys == sorted(keys)
    w2 = omega_power(from_int(2))
    assert all(ord_cmp(x, w2) < 0 for x in scope)
