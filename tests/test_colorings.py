"""Ordinal CNF arithmetic, walks, and the subadditive coloring contract."""

from __future__ import annotations

import itertools
import math
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
    is_limit,
    is_successor,
    omega_power,
    omega_sq_scope,
    ord_add,
    ord_cmp,
    ord_from_str,
    ord_to_str,
    predecessor,
    successor,
    walk,
)
from oracles import (
    ScanWalks,
    cnf_less,
    naive_subadditivity,
    reference_from_walks,
    scan_ladder_step,
    scan_members_below,
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
    for exp, coeff in o:
        level = exp[-1][1] if is_successor(exp) else 0
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


def in_normal_form(a) -> bool:
    """a is a tuple of (exponent, coefficient) pairs with exponents in
    normal form and strictly decreasing by ``cnf_less``, and positive
    int coefficients."""
    return type(a) is tuple and all(
        type(t) is tuple and len(t) == 2 and in_normal_form(t[0]) and
        type(t[1]) is int and t[1] > 0 for t in a) and \
        all(cnf_less(b[0], x[0]) for x, b in zip(a, a[1:]))


def test_tuple_order_is_ordinal_order():
    # the package compares ordinals as tuples; the oracle recurses on
    # the terms. Pairs of one CNF and a copy of it with one coefficient
    # moved by one, or with its last term dropped, are among them
    rng = random.Random(20261021)
    exps = FINITE_EXPS + TRANSFINITE_EXPS
    seen = set()
    for _ in range(3000):
        a = random_cnf(rng, exps)
        k = rng.randrange(len(a))
        exp, coeff = a[k]
        near = a[:k] + ((exp, max(1, coeff + rng.choice((-1, 1)))),) + \
            a[k + 1:]
        for b in (random_cnf(rng, exps), near, a[:-1], a):
            assert in_normal_form(b)
            less, more = cnf_less(a, b), cnf_less(b, a)
            assert ((a < b), (b < a), (a == b)) == \
                (less, more, not (less or more)), (a, b)
            seen.add((less, more))
    assert seen == {(True, False), (False, True), (False, False)}


def test_ladder_arithmetic_builds_checked_ordinals():
    # predecessor and fundamental_seq build their results by slicing
    # tuples: each is in normal form, below its ordinal, and equal to
    # its string read back
    rng = random.Random(20261020)
    exps = FINITE_EXPS + TRANSFINITE_EXPS
    made = 0
    for _ in range(400):
        d = random_cnf(rng, exps)
        outs = ([predecessor(d)] if is_successor(d) else
                [fundamental_seq(d, n) for n in range(4)])
        for p in outs:
            assert in_normal_form(p), p
            assert ord_from_str(ord_to_str(p)) == p
            assert cnf_less(p, d)
            made += 1
    assert made > 1000


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
    for bad in (lambda: ord_from_str("w*0"), lambda: ord_from_str("w^"),
                lambda: omega_power(OMEGA, 0), lambda: from_int(-1)):
        with pytest.raises(ValueError):
            bad()


# ---------------------------------------------------------------------------
# walks


def test_walk_one_step_when_alpha_on_ladder():
    C = LadderSystem()
    w2 = omega_power(from_int(2))
    alpha = omega_power(ONE, 3)  # w*3 = fundamental_seq(w^2, 2)
    trace = walk(alpha, w2, C)
    assert [ord_to_str(t) for t in trace] == ["w^(2)", "w*3"]


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


# exponents for random ordinals, in increasing order: finite ones keep
# an ordinal below w^w; the others are successors (w+1, w*2+1) and
# limits, down to limits of limits (w^(w))
FINITE_EXPS = [from_int(k) for k in range(5)]
TRANSFINITE_EXPS = [ord_from_str(s) for s in (
    "w", "w+1", "w*2", "w*2+1", "w^(2)", "w^(2)+w", "w^(w)")]


def random_cnf(rng, exps):
    """1 to 3 terms with exponents from exps and coefficients 1 to 3."""
    picks = sorted(rng.sample(range(len(exps)),
                              rng.randint(1, min(3, len(exps)))),
                   reverse=True)
    return tuple((exps[k], rng.randint(1, 3)) for k in picks)


def ladder_pairs(rng, exps, count):
    """count pairs (delta, alpha), alpha < delta, each tagged with how
    alpha was made. For a limit delta = head + w^e: a ladder point, a
    point plus a tail, head itself, head + 1, head + w^g*c with g < e
    (with and without a tail) and a random ordinal, mostly below head."""
    out = []
    while len(out) < count:
        delta = random_cnf(rng, exps)
        low = random_cnf(rng, exps)
        if not is_limit(delta):
            if low < delta:
                out.append((delta, low, "successor"))
            continue
        exp, coeff = delta[-1]
        head = delta[:-1] + (((exp, coeff - 1),) if coeff > 1 else ())
        point = fundamental_seq(delta, rng.randrange(4))
        tail = random_cnf(rng, exps[:rng.randint(1, 3)])
        g = rng.choice([x for x in exps if x < exp])
        power = ord_add(head, omega_power(g, rng.randint(1, 3)))
        for alpha, kind in ((point, "point"),
                            (ord_add(point, tail), "point+tail"),
                            (head, "head"), (ord_add(head, ONE), "head+1"),
                            (power, "power"),
                            (ord_add(power, tail), "power+tail"),
                            (low, "random")):
            if alpha < delta:
                out.append((delta, alpha, kind))
    return out[:count]


def test_canonical_ladder_matches_point_scan():
    # step and members_below find the index by CNF arithmetic; the
    # oracle scans the points until one is not below alpha
    rng = random.Random(20261018)
    pairs = (ladder_pairs(rng, FINITE_EXPS, 2400) +
             ladder_pairs(rng, FINITE_EXPS + TRANSFINITE_EXPS, 1600))
    C = LadderSystem()
    kinds, limit_exps = {}, set()
    for delta, alpha, kind in pairs:
        p, n = C.step(delta, alpha)
        q, m = scan_ladder_step(delta, alpha)
        assert (ord_to_str(p), n) == (ord_to_str(q), m), \
            (ord_to_str(delta), ord_to_str(alpha))
        assert [ord_to_str(x) for x in C.members_below(delta, alpha)] == \
            [ord_to_str(x) for x in scan_members_below(delta, alpha)]
        kinds[kind] = kinds.get(kind, 0) + 1
        if is_limit(delta):
            limit_exps.add(ord_to_str(delta[-1][0]))
    below_ww = sum(1 for delta, _, _ in pairs if delta < omega_power(OMEGA))
    assert below_ww >= 2000
    assert min(kinds.values()) >= 100 and len(kinds) == 8
    assert {"w", "w*2+1", "w^(2)", "w^(w)"} <= limit_exps


def test_members_below_a_limit_needs_alpha_below_it():
    w2 = omega_power(from_int(2))
    with pytest.raises(ValueError):
        LadderSystem().members_below(w2, w2)
    assert LadderSystem().members_below(from_int(3), from_int(7)) == \
        [from_int(2)]


def test_walks_and_colorings_match_scanned_walks():
    # one LadderSystem and one WalkColoring serve every call, in an
    # order that changes alpha from call to call, so a kept row of steps
    # that outlives its alpha would give wrong walks
    rng = random.Random(20261019)
    exps = FINITE_EXPS[:4] + TRANSFINITE_EXPS[:5]
    scope = list({ord_to_str(x): x for x in (
        random_cnf(rng, exps[:4] if k % 3 else exps)
        for k in range(60))}.values())
    pairs = [(a, b) if a < b else (b, a)
             for a, b in itertools.combinations(scope, 2)]
    rng.shuffle(pairs)
    C = LadderSystem()
    col, oracle = WalkColoring(C), ScanWalks()
    changes = 0
    for k, (a, b) in enumerate(pairs):
        changes += k > 0 and pairs[k - 1][0] != a
        assert [ord_to_str(x) for x in walk(a, b, C)] == \
            [ord_to_str(x) for x in oracle.walk(a, b)]
        assert col.e(a, b) == oracle.e(a, b)
        assert C.step(b, a)[1] == oracle.c1(a, b)
    assert changes > len(pairs) // 2
    table = ColoringTable.from_walks(scope, C)
    for i, j in itertools.combinations(range(len(scope)), 2):
        a, b = table.scope[i], table.scope[j]
        assert (table.e(i, j), table.c0(i, j), table.c1(i, j)) == \
            (oracle.e(a, b), oracle.c0(a, b), oracle.c1(a, b))


def random_below_omega_power(rng, top, count):
    """count distinct ordinals w^(top-1)*c + ... + w*c1 + c0, each
    coefficient 0 to 3 and about half of them 0."""
    out = {}
    while len(out) < count:
        x = tuple((from_int(k), c) for k in reversed(range(top))
                  for c in (max(0, rng.randint(-3, 3)),) if c)
        out[ord_to_str(x)] = x
    return list(out.values())


def tailed_points(delta, n):
    """A ladder other than the canonical one: the canonical point plus 5
    when delta's last exponent is at least 2, the canonical point
    otherwise. On the canonical ladder the e(xi, alpha) terms of the
    recursion never raise e on these scopes; on this one they do."""
    p = fundamental_seq(delta, n)
    return ord_add(p, from_int(5)) if ONE < delta[-1][0] else p


class TailedLadder(LadderSystem):
    """The ladder system of ``tailed_points``, by a scan of its points."""

    def step(self, delta, alpha):
        if is_successor(delta):
            return super().step(delta, alpha)
        n = 0
        while tailed_points(delta, n) < alpha:
            n += 1
        return tailed_points(delta, n), n

    def members_below(self, delta, alpha):
        if is_successor(delta):
            return super().members_below(delta, alpha)
        return [tailed_points(delta, k)
                for k in range(self.step(delta, alpha)[1])]


@pytest.mark.parametrize("top", [3, 4])
@pytest.mark.parametrize("ladder", ["canonical", "tailed"])
def test_from_walks_matches_scanned_walks_below_omega_powers(top, ladder):
    # from_walks reads c0, c1 and e off one walk tree per alpha; the
    # oracle scans every step of every pair and runs the e recursion on
    # its own memo. Every pair is then walked on the ladder from_walks
    # used, alpha-major, so a row kept across alphas would show
    rng = random.Random(20261019 + top)
    tailed = ladder == "tailed"
    for count in (24, 36):
        scope = random_below_omega_power(rng, top, count)
        if tailed:
            # e(w*2, w^2) is 4 here, and 1 without the e(xi, alpha)
            # terms: w+5 is w^2's only ladder point below w*2, and w*2's
            # ladder has 4 points below w+5
            scope += [x for x in map(ord_from_str, ("w*2", "w^(2)"))
                      if ord_to_str(x) not in map(ord_to_str, scope)]
        C = TailedLadder() if tailed else LadderSystem()
        table = ColoringTable.from_walks(scope, C)
        oracle = ScanWalks(tailed_points if tailed else fundamental_seq)
        ranked = table.scope
        n = len(ranked)
        for i, j in itertools.combinations(range(n), 2):
            a, b = ranked[i], ranked[j]
            expected = [ord_to_str(x) for x in oracle.walk(a, b)]
            assert [ord_to_str(x) for x in walk(a, b, C)] == expected
            assert (table.e(i, j), table.c0(i, j), table.c1(i, j)) == \
                (oracle.e(a, b), len(expected) - 1, oracle.c1(a, b)), \
                (ord_to_str(a), ord_to_str(b))
        if tailed:
            names = [ord_to_str(x) for x in ranked]
            assert table.e(names.index("w*2"), names.index("w^(2)")) == 4


def assert_matches_reference(scope, make_ladder):
    table = ColoringTable.from_walks(scope, make_ladder())
    ranked, e, c0, c1 = reference_from_walks(scope, make_ladder())
    assert [ord_to_str(x) for x in table.scope] == \
        [ord_to_str(x) for x in ranked]
    n = len(ranked)
    for i, j in itertools.combinations(range(n), 2):
        assert (table.e(i, j), table.c0(i, j), table.c1(i, j)) == \
            (e[i, j], c0[i, j], c1[i, j]), \
            (ord_to_str(ranked[i]), ord_to_str(ranked[j]))
    # entries past the table read as absent
    assert (table.c0(0, n), table.c1(n - 1, n + 3)) == (None, None)


@pytest.mark.parametrize("count", [40, 110, 170, 300])
def test_from_walks_matches_reference_on_omega_squared_scopes(count):
    # from_walks walks only to the limits w*a and crosses each run
    # w*a + k in one step; the reference walks every pair
    assert_matches_reference(omega_sq_scope(count), LadderSystem)


def test_from_walks_matches_reference_on_random_scopes():
    # seeded scopes below w^3 and w^4 with gaps in their runs, so that
    # some heads lie outside the scope, on both ladders
    rng = random.Random(20261020)
    outside = 0
    for top in (3, 4):
        for ladder in (LadderSystem, TailedLadder):
            for count in (2, 9, 24, 40):
                scope = random_below_omega_power(rng, top, count)
                outside += sum(1 for x in scope if is_successor(x)
                               and x[:-1] not in scope)
                assert_matches_reference(scope, ladder)
    assert outside >= 20


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


def weak_d_sizes(table, n):
    """The largest weak D-set at each level, from the table's D-sets."""
    top = max(table.e(b, c) for c in range(n) for b in range(c))
    return [max(len(table.d_set(c, i, "weak")) for c in range(n))
            for i in range(top + 1)]


def test_subadditivity_exhaustive_on_scope(walks_table):
    scope, table = walks_table
    report = table.check_contract()
    n = len(scope)
    assert report["triples"] == n * (n - 1) * (n - 2) // 6
    # at the largest value the weak D-set of the last column is all of it
    assert report["weak_d_size_by_level"] == weak_d_sizes(table, n)
    assert report["weak_d_size_by_level"][-1] == n - 1


def test_subadditivity_exhaustive_on_omega_cubed_scope():
    # walks down from w^2*a pass limits of limits, which no pair of the
    # w^2 scope does: the first 300 of w^2*a + w*b + c with a, b, c < 7
    scope = sorted(tuple((from_int(k), x) for k, x in
                         ((2, a), (1, b), (0, c)) if x)
                   for a, b, c in itertools.product(range(7), repeat=3))[:300]
    table = ColoringTable.from_walks(scope)
    n = len(scope)
    assert table.check_contract() == {
        "triples": math.comb(n, 3),
        "weak_d_size_by_level": weak_d_sizes(table, n)}
    for entry, violation in (((0, n - 1), {
            "inequality": 1, "triple": ["0", "1", "w^(2)*6+5"]}),
            ((0, 1), {"inequality": 2, "triple": ["0", "1", "2"]})):
        bad = ColoringTable({**table.e_map, entry: 10_000}, table.c0_map,
                            table.c1_map, table.scope)
        assert bad.check_contract()["violation"] == violation


def test_subadditivity_exhaustive_on_omega_fourth_scope():
    # walks down from w^3*a pass limits of limits of limits: the first
    # 300 of w^3*a + w^2*b + w*c + d with a, b, c, d < 5
    scope = sorted(tuple((from_int(k), x) for k, x in
                         ((3, a), (2, b), (1, c), (0, d)) if x)
                   for a, b, c, d in itertools.product(range(5),
                                                       repeat=4))[:300]
    assert ord_to_str(scope[-1]) == "w^(3)*2+w^(2)+w*4+4"
    table = ColoringTable.from_walks(scope)
    n = len(scope)
    assert table.check_contract() == {
        "triples": math.comb(n, 3),
        "weak_d_size_by_level": weak_d_sizes(table, n)}


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
    assert "weak_d_size_by_level" not in report


def _corrupt(rng, e_map, n):
    # one to three entries set to 0, to another entry's value (a tie),
    # to 10_000, or dropped (a missing entry reads 0)
    pairs = list(itertools.combinations(range(n), 2))
    out = dict(e_map)
    for _ in range(rng.randrange(1, 4)):
        pair, kind = rng.choice(pairs), rng.randrange(4)
        if kind == 0:
            out[pair] = 0
        elif kind == 1:
            a, c = pair
            other = rng.choice([p for p in pairs if a in p or c in p])
            out[pair] = out.get(other, 0)
        elif kind == 2:
            out[pair] = 10_000
        else:
            out.pop(pair, None)
    return out


def test_check_contract_matches_triple_loop_oracle():
    # whole reports, violations and their order included, on walk
    # tables over random scopes below omega^3, on corrupted copies, and
    # on random tables of small values, which break subadditivity often
    rng = random.Random(18)
    tables = []
    for n in [0, 1, 2, 3] + [rng.randrange(4, 41) for _ in range(60)]:
        scope = set()
        while len(scope) < n:
            scope.add(random_ordinal(rng, 4))
        table = ColoringTable.from_walks(list(scope))
        tables.append((table.e_map, table.scope))
        if n >= 2:
            tables += [(_corrupt(rng, table.e_map, n), table.scope)
                       for _ in range(3)]
            tables.append(({p: rng.randrange(4) for p in
                            itertools.combinations(range(n), 2)
                            if rng.random() < 0.9}, table.scope))
    verdicts = set()
    for e_map, scope in tables:
        report = ColoringTable(e_map, scope=scope).check_contract()
        assert report == naive_subadditivity(e_map, scope)
        verdicts.add(report.get("violation", {}).get("inequality"))
    assert verdicts == {None, 1, 2}


def test_check_contract_rejects_entries_outside_the_scope():
    scope = omega_sq_scope(5)
    table = ColoringTable({(0, 1): 1, (2, 5): 3}, scope=scope)
    with pytest.raises(ValueError, match=r"\(2,5\)"):
        table.check_contract()


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


def test_from_walks_rejects_repeated_ordinals():
    # a repeated limit would leave its column one entry short
    for scope in (["w", "w", "w+1"], ["1", "w+2", "w+2"]):
        with pytest.raises(ValueError, match="distinct"):
            ColoringTable.from_walks([ord_from_str(s) for s in scope])


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
    assert all(cnf_less(x, y) for x, y in zip(scope, scope[1:]))
    w2 = omega_power(from_int(2))
    assert all(ord_cmp(x, w2) < 0 for x in scope)
