"""Acceptance gate: one check per shipped guarantee, one verdict line each."""

from __future__ import annotations

import json
import random

import sympy

from amalgams import words
from amalgams import engine as E
from amalgams.canonical import (
    K_SIDE,
    L_SIDE,
    canonicalize,
    rotate,
    syllable,
)
from amalgams.cancellation import (
    check_cprime,
    dehn_decide,
    replay_certificate,
    replay_cprime_witness,
)
from amalgams.systems import (
    generate_relators,
    load_system_fixture,
)
from amalgams.colorings import ColoringTable

from amalgam_instances import ALL_INSTANCES

FIXTURES = "fixtures/systems"


def verdict(n, title, ok):
    print(f"ACCEPTANCE {n} ({title}): {'pass' if ok else 'fail'}")
    assert ok, f"acceptance criterion {n} ({title}) failed"


def load(name):
    return load_system_fixture(f"{FIXTURES}/{name}.json")


def build_tower():
    e = {(b, 5): v for b, v in {0: 0, 1: 0, 2: 1, 3: 2, 4: 2}.items()}
    col = ColoringTable(
        e=e, c0={(3, 5): 0}, c1={(3, 5): E.q_code(3, 3, 2, 1)})
    state = E.init_base(3, col)
    while state.stage < 6:
        state = E.advance_stage(state)
    return state


def test_ac1_pumping_word_lengths():
    ok = len(words.rho([("x", 1)], [("y", 1)])) == 3320
    T, S, _ = load("trivial_h")
    entry = S[0]
    sylls = []
    for i in range(1, 81):
        sylls.extend([syllable(L_SIDE, entry.b),
                      syllable(K_SIDE, entry.a)] * i)
        sylls.extend([syllable(L_SIDE, entry.bprime),
                      syllable(K_SIDE, entry.a)])
    w = canonicalize(sylls, T)
    ok = ok and len(w) == 6640
    ok = ok and all(w[i].side != w[i + 1].side for i in range(6639))
    witness = words.rho([("zb", 1), ("h", 1), ("za", 1)],
                        [("zb", 1), ("h", 1), ("zb", 1), ("h", 1),
                         ("za", 1)])
    ok = ok and len(witness) == 10120 == 9720 + 400
    verdict(1, "pumping word lengths", ok)


def test_ac2_canonical_forms_match_finite_oracle():
    rng = random.Random(20260824)
    ok = True
    for make in ALL_INSTANCES:
        T, oracle = make()
        nontrivial = {
            "K": [g for g in range(T.K.order)
                  if g != oracle.identity["K"]],
            "L": [g for g in range(T.L.order)
                  if g != oracle.identity["L"]],
        }
        for _ in range(50):
            raw = [(side, rng.choice(nontrivial[side]))
                   for side in (rng.choice(("K", "L"))
                                for _ in range(rng.randrange(1, 6)))]
            sylls = [syllable(side, T.side_group(side).element(g))
                     for side, g in raw]
            w = canonicalize(sylls, T)
            # the canonical word names the element of its input
            mine = oracle.normal_form([(s.side, s.elt.payload)
                                       for s in w])
            ok = ok and oracle.forms_equal(mine, oracle.normal_form(raw))
    verdict(2, "canonical forms vs finite oracle", ok)


def test_ac3_metric_condition_exact():
    ok = True
    for name in ("trivial_h", "with_h", "d_case"):
        T, S, hints = load(name)
        R = generate_relators(S, T, check=False)
        res = check_cprime(R)
        ok = ok and res.status == "pass"
    T, S, _ = load("corrupted")
    R = generate_relators(S, T, check=False)
    res = check_cprime(R)
    ok = ok and res.status == "fail"
    ok = ok and replay_cprime_witness(R, res.witness)
    verdict(3, "metric condition exact with replayable failure", ok)


def test_ac4_word_solver_sound():
    T, S, _ = load("with_h")
    R = generate_relators(S, T)
    rng = random.Random(7)
    ok = True
    # products of up to three relator conjugates all come back trivial
    r = R.bases[0].word
    variants = [r]
    rot = r
    for _ in range(4):
        rot = rotate(rot, T)
        variants.append(rot)
    for count in (1, 2, 3):
        for _ in range(4):
            picks = [rng.choice(variants) for _ in range(count)]
            sylls = []
            for p in picks:
                sylls.extend(p)
            prod = canonicalize(sylls, T)
            res = dehn_decide(prod, R)
            good = res.status == "trivial" and \
                replay_certificate(prod, res.certificate, R)
            ok = ok and good
    # random short words: no trivial verdict against the abelianization
    symbols = sorted(set(T.K.symbols) | set(T.L.symbols), key=str)

    def abelianized(w):
        vec = {s: 0 for s in symbols}
        for s in w:
            for sym, sign in s.elt.payload:
                vec[sym] += sign
        return sympy.Matrix([vec[s] for s in symbols])

    rel_cols = sympy.Matrix.hstack(*[abelianized(b.word)
                                     for b in R.bases])
    pool = {K_SIDE: [T.K.generator("a"), T.K.generator("a", -1)],
            L_SIDE: [T.L.generator("b"), T.L.generator("c"),
                     T.L.generator("b", -1)]}
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
        vec = abelianized(w)
        sol = rel_cols.solve_least_squares(vec)
        in_lattice = (rel_cols * sol - vec).is_zero_matrix and \
            all(x.is_integer for x in sol)
        if res.status == "trivial" and not in_lattice:
            ok = False
        if not in_lattice and res.status not in ("nontrivial",):
            ok = False
    verdict(4, "word solver vs abelianization", ok)


def test_ac5_subadditivity_exhaustive(walks_table):
    scope, table = walks_table
    report = table.check_contract()
    ok = report["triples"] == 300 * 299 * 298 // 6
    for gamma in range(0, 300, 37):
        for i in range(4):
            ok = ok and len(table.d_set(gamma, i, "weak")) < 300
    verdict(5, "subadditive coloring on the sample scope", ok)


def test_ac6_promise_audits_and_determinism():
    s1 = build_tower()
    s2 = build_tower()
    ok = all(rec["status"] == "pass" for rec in s1.audit)
    ok = ok and len(s1.audit) > 0
    ok = ok and E.summary_json(s1) == E.summary_json(s2)
    verdict(6, "stage audits and byte-identical replay", ok)


def test_ac7_end_to_end_witness():
    # x0 = rho(x5 x2 x3, x5 x2 x5 x2 x3): the emitted letter relator is
    # x0^-1 times that pumping word, freely reduced, and the layer's Dehn
    # solver kills it with a certificate that replays
    state = build_tower()
    quotients = [layer for layer in E.presentation(state)["layers"]
                 if layer["kind"] == "quotient"]
    emitted = [rel for layer in quotients for rel in layer["letter_relators"]]
    u = [("x5", 1), ("x2", 1), ("x3", 1)]
    v = [("x5", 1), ("x2", 1), ("x5", 1), ("x2", 1), ("x3", 1)]
    want = words.free_reduce((("x0", -1),) + words.rho(u, v))
    ok = len(want) == 10121
    ok = ok and emitted == [[[s, sign] for s, sign in want]]
    layer = state.layers[(5, 2)]
    base = layer.relators.bases[0].word
    res = dehn_decide(base, layer.relators)
    ok = ok and res.status == "trivial"
    ok = ok and replay_certificate(base, res.certificate, layer.relators)
    verdict(7, "end-to-end witness identity", ok)


def test_ac9_relator_chain():
    state = build_tower()
    chain = E.topology_chain(5, 2, 2, state)
    entries = chain["chain"]
    ok = entries[1]["subset_of_previous"] is True
    ok = ok and entries[2]["subset_of_previous"] is True
    ok = ok and chain["fragment_cprime"]["status"] == "pass"
    ok = ok and chain["pumped_avoid_n0"]["status"] == "pass"
    verdict(9, "nested relator chain", ok)
