"""Stage simulator: levels, transversals, J-sets, audits, the relator chain."""

from __future__ import annotations

import collections
import hashlib
import json
import random

import pytest
from sympy import Matrix
from sympy.matrices.normalforms import smith_normal_form

from amalgams import cancellation, words
from amalgams import engine as E
from amalgams.colorings import ColoringTable
from amalgams.groups import ElementRegistry, GroupHandle
from amalgams.systems import ValidationReport, validate_system
from op_digests import workloads_module
from oracles import reference_decompose_star, reference_transversal_rep, \
    tower_support


def fixture_colorings():
    # one stage (gamma = 5) with levels 0, 1, 2; the bookkeeping entry
    # at (3, 5) decodes to (identity, identity, x2, +1) and c0 names x0
    e = {(b, 5): v for b, v in {0: 0, 1: 0, 2: 1, 3: 2, 4: 2}.items()}
    return ColoringTable(
        e=e, c0={(3, 5): 0}, c1={(3, 5): E.q_code(3, 3, 2, 1)})


def build_tower(stages=6):
    state = E.init_base(3, fixture_colorings())
    while state.stage < stages:
        state = E.advance_stage(state)
    return state


@pytest.fixture(scope="module")
def tower():
    return build_tower()


# ---------------------------------------------------------------------------
# base and levels


def test_init_base_registers_generators_in_order():
    state = E.init_base(3)
    for i in range(3):
        g = state.registry.decode(i)
        assert g.payload == ((E.sym(i), 1),)
    assert state.registry.decode(3).payload == ()
    with pytest.raises(ValueError):
        E.init_base(0)


def test_base_is_free():
    state = E.init_base(1)
    assert state.ambient.symbols == ("x0",)
    state3 = E.init_base(3)
    rng = random.Random(17)
    seen = {}
    for _ in range(200):
        letters = [(E.sym(rng.randrange(3)), rng.choice((1, -1)))
                   for _ in range(rng.randrange(1, 7))]
        g = state3.ambient.element(letters)
        # independent reduction oracle: cancel adjacent inverse pairs
        stack = []
        for let in letters:
            if stack and stack[-1] == (let[0], -let[1]):
                stack.pop()
            else:
                stack.append(let)
        assert g.payload == tuple(stack)
        seen.setdefault(g.payload, tuple(stack))
    assert len(seen) > 50


def test_i_at_matches_brute_force(tower):
    cols = tower.colorings
    for code in range(6):
        g = tower.generator(code)
        if code >= 5:
            with pytest.raises(ValueError):
                E.i_at(g, 5, tower)
            continue
        want = min(i for i in range(10)
                   if {code} <= {b for b in range(5) if cols.e(b, 5) <= i})
        assert E.i_at(g, 5, tower) == want


# ---------------------------------------------------------------------------
# transversals


def test_transversal_rep_fixed_point(tower):
    x5 = tower.generator(5)
    assert E.transversal_rep(x5, 5, 2, 3, tower).payload == x5.payload


def test_transversal_same_double_coset(tower):
    amb = tower.ambient
    x5, x0, x1 = (tower.generator(i) for i in (5, 0, 1))
    g = amb.mul(amb.mul(x0, x5), x1)
    rep_g = E.transversal_rep(g, 5, 2, 3, tower)
    rep_t = E.transversal_rep(x5, 5, 2, 3, tower)
    assert rep_g.payload == rep_t.payload
    # the inverse lands in the same class as well
    assert E.transversal_rep(g.inv(), 5, 2, 3, tower).payload == \
        rep_t.payload


def test_star_decomposition_multiplies_out(tower):
    amb = tower.ambient
    rng = random.Random(11)
    allowed = [0, 1, 2, 5]
    for _ in range(100):
        letters = [(E.sym(rng.choice(allowed)), rng.choice((1, -1)))
                   for _ in range(rng.randrange(1, 6))]
        g = amb.element(letters)
        y0, t, eps, y1 = E.decompose_star(g, 5, 2, 3, tower)
        back = amb.mul(amb.mul(y0, t if eps == 1 else t.inv()), y1)
        assert back.payload == g.payload
        for y in (y0, y1):
            assert {int(str(s)[1:]) for s, _ in y.payload} <= {0, 1, 2}
        assert t.payload == E.transversal_rep(g, 5, 2, 3, tower).payload


def test_transversal_monotone_in_level_and_cut(tower):
    amb = tower.ambient
    x5, x2 = tower.generator(5), tower.generator(2)
    g = amb.mul(x2, x5)  # x2 enters at level 1 over stage 5
    rep1 = E.transversal_rep(g, 5, 2, 5, tower)
    # at level 2 with a full cut, the x2 strip applies
    assert rep1.payload == x5.payload
    # a representative stays a representative when the level grows or
    # the cut shrinks
    for beta in (0, 3, 5):
        assert E.transversal_rep(rep1, 5, 2, beta, tower).payload == \
            rep1.payload
    out = E.transversal_rep(g, 5, 2, 2, tower)
    # with the cut below x2 the strip misses it, so the class is finer
    assert out.payload == g.payload or out.payload == g.inv().payload


def test_layer_membership_enforced(tower):
    x4 = tower.generator(4)  # e(4, 5) = 2, outside the strict level-2 set
    with pytest.raises(ValueError):
        E.transversal_rep(x4, 5, 2, 5, tower)
    # e(2, 5) = 1: x2 lies in the (5, 2) layer but not in the (5, 1)
    # one, whose call must raise although x2's row is already kept
    x2 = tower.generator(2)
    assert E.transversal_rep(x2, 5, 2, 1, tower).payload == x2.payload
    with pytest.raises(ValueError):
        E.transversal_rep(x2, 5, 1, 1, tower)


def _outcome(fn, *args):
    """(payloads and sign) of a decomposition, or "raises"."""
    try:
        out = fn(*args)
    except ValueError:
        return "raises"
    if type(out) is tuple:  # an Element is a NamedTuple, so not isinstance
        y0, t, eps, y1 = out
        return (y0.payload, t.payload, eps, y1.payload)
    return out.payload


def test_memoised_decomposition_matches_reference():
    # random multi-letter elements of each stage's widest layer, queried
    # at every (level, cut) in shuffled order, so the same payload meets
    # several memo keys and some queries must raise; after each query the
    # losing core is registered, which can flip the order on the cores,
    # and the query is repeated
    state = build_tower()
    amb = state.ambient
    rng = random.Random(29)
    flips = raises = 0
    for gamma in sorted({g for g, _ in state.layers}):
        levels = sorted(i for g, i in state.layers if g == gamma)
        letters = state.colorings.d_set(gamma, levels[-1], "strict") + \
            (gamma,)
        queries = [(i, beta) for i in levels for beta in range(gamma + 2)]
        for _ in range(40):
            g = amb.element([(E.sym(rng.choice(letters)), rng.choice((1, -1)))
                             for _ in range(rng.randrange(2, 8))])
            rng.shuffle(queries)
            for i, beta in queries:
                args = (g, gamma, i, beta, state)
                want = _outcome(reference_decompose_star, *args)
                assert _outcome(E.decompose_star, *args) == want, args
                assert _outcome(E.transversal_rep, *args) == \
                    _outcome(reference_transversal_rep, *args)
                if want == "raises":
                    raises += 1
                    continue
                y0, t, eps, y1 = E.decompose_star(*args)
                back = amb.mul(amb.mul(y0, t if eps == 1 else t.inv()), y1)
                assert back.payload == g.payload
                cut = {b for b in state.colorings.d_set(gamma, i, "strict")
                       if b < beta}
                assert tower_support(y0.payload) | \
                    tower_support(y1.payload) <= cut
                state.registry.register(t.inv())
                again = _outcome(E.decompose_star, *args)
                assert again == _outcome(reference_decompose_star, *args)
                flips += again[1] != t.payload
    assert flips > 0 and raises > 0


def tall_style_tower(stages=12):
    # like the benchmark's tall towers: three seed generators, no c0 or
    # c1, so every layer is free, and a seeded e-coloring in three levels
    rng = random.Random(5)
    e = {}
    for gamma in range(1, stages):
        for beta in range(gamma):
            v = rng.randrange(3)
            if v:
                e[beta, gamma] = v
    state = E.init_base(3, ColoringTable(e=e))
    while state.stage < stages:
        state = E.advance_stage(state)
    return state


def test_tower_strips_each_query_once(monkeypatch):
    builds = collections.Counter()
    counts = {"element": 0}
    build_row, element = E._decomposition_row, GroupHandle.element

    def counting_row(g, gamma, state):
        builds[g.payload, gamma, len(state.registry)] += 1
        return build_row(g, gamma, state)

    def counting_element(self, payload):
        counts["element"] += 1
        return element(self, payload)

    monkeypatch.setattr(E, "_decomposition_row", counting_row)
    monkeypatch.setattr(GroupHandle, "element", counting_element)
    state = tall_style_tower()
    # one row per (payload, gamma, registry size), whatever the level,
    # every cut read off it (65 rows on this tower), and normalised
    # elements only where the registry is copied
    assert set(builds.values()) == {1}
    assert sum(builds.values()) == 65
    assert counts["element"] <= 100
    # and every audit still counts the instances it counted then
    totals = {}
    for rec in state.audit:
        totals[rec["check"]] = totals.get(rec["check"], 0) + rec["instances"]
    assert totals == {
        "intersection-promises": 440, "lattice-intersection": 8800,
        "layer-malnormality": 15, "transversal-laws": 3687,
        "fresh-arrival-separation": 87, "sandwich-escape": 55}
    records = json.dumps([[rec["check"], rec["gamma"], rec["instances"]]
                          for rec in state.audit])
    assert hashlib.sha256(records.encode()).hexdigest() == \
        "6d0b05a32df84d3b18a9f062a82ed093cfbd0730b50ce99c17041e33b524e5a0"


@pytest.mark.parametrize("variant", range(8))
def test_tall_tower_summaries_match_golden(variant):
    # the benchmark's tall free towers against the summaries recorded in
    # perfbench/golden.json, which this test only reads
    workloads = workloads_module()
    state = E.run_construction(workloads.tall_tower(variant))
    digest = hashlib.sha256(E.summary_json(state).encode()).hexdigest()
    assert digest == workloads.load_golden()["tall_sha256"][str(variant)]


# ---------------------------------------------------------------------------
# bookkeeping codes


def test_q_code_roundtrip():
    rng = random.Random(3)
    for _ in range(500):
        tup = (rng.randrange(50), rng.randrange(50), rng.randrange(50),
               rng.choice((1, -1)))
        assert E.q_of(E.q_code(*tup)) == tup
    with pytest.raises(ValueError):
        E.q_code(0, 0, 0, 2)
    with pytest.raises(ValueError):
        E.q_of(-1)


def test_colorings_json_roundtrip():
    col = fixture_colorings()
    back = ColoringTable.from_json(col.to_json(), 6)
    assert back.e_map == col.e_map
    assert back.c0_map == col.c0_map
    assert back.c1_map == col.c1_map
    # missing entries read 0 (e) and None (c0, c1)
    assert col.e(1, 4) == 0 and col.c0(1, 4) is None
    for bad in ({"e": {(5, 3): 1}}, {"c0": {(3, 3): 0}},
                {"c1": {(3, 5): -4}}):
        with pytest.raises(ValueError):
            ColoringTable(**bad)
    with pytest.raises(ValueError):
        col.e(5, 3)


# ---------------------------------------------------------------------------
# the J-set


def test_undecodable_tables_give_empty_J():
    # missing c1 entries, and c1 entries that decode to codes never
    # materialized, both keep J empty
    e = {(b, 5): v for b, v in {0: 0, 1: 0, 2: 1, 3: 2, 4: 2}.items()}
    col = ColoringTable(e=e, c0={(3, 5): 0},
                        c1={(3, 5): E.q_code(900, 0, 0, 1)})
    state = E.init_base(3, col)
    while state.stage < 6:
        state = E.advance_stage(state)
    layer = state.layers[(5, 2)]
    assert layer.kind == "free"
    reasons = {s["reason"] for s in layer.skipped}
    assert "bookkeeping-code-not-materialized" in reasons


def test_engineered_singleton_J(tower):
    layer = tower.layers[(5, 2)]
    assert layer.kind == "quotient"
    assert len(layer.entries) == 1
    en = layer.entries[0]
    amb = tower.ambient
    assert en.alpha == 3
    # b = y0 l^eps y1 d and b' = b b, replayed by multiplication
    part = en.l if en.eps == 1 else en.l.inv()
    b = amb.mul(amb.mul(en.y0, part), amb.mul(en.y1, en.d))
    assert b.payload == en.b.payload
    assert amb.mul(b, b).payload == en.bprime.payload
    assert en.h.payload == ((E.sym(0), 1),)


def test_emitted_system_validates(tower):
    layer = tower.layers[(5, 2)]
    rep = validate_system(layer.system, layer.amalgam)
    assert rep.status == "valid"


def test_invalid_layer_system_is_a_hard_error(monkeypatch):
    # relator generation does not validate, so the engine does it first
    def invalid(system, T):
        return ValidationReport("invalid", witness={"clause": "test"})

    monkeypatch.setattr(E, "validate_system", invalid)
    with pytest.raises(ValueError, match="system is invalid: "):
        build_tower()


def test_each_layer_relator_set_is_scanned_once(monkeypatch):
    # generate_relators checks C'; build_quotient and topology_chain read
    # the verdict kept on the set
    scans = collections.Counter()
    scan = cancellation._scan_cprime

    def counted(R):
        scans[id(R)] += 1
        return scan(R)

    monkeypatch.setattr(cancellation, "_scan_cprime", counted)
    state = build_tower()
    quotients = [layer for layer in state.layers.values()
                 if layer.kind == "quotient"]
    for layer in quotients:
        E.topology_chain(layer.gamma, layer.level, 1, state)
    assert quotients
    assert scans == {id(layer.relators): 1 for layer in quotients}


def _j_entry_json(entry, registry):
    reg = registry.register
    return {
        "gamma": entry.gamma, "level": entry.level,
        "l": reg(entry.l), "k": reg(entry.k), "alpha": entry.alpha,
        "d": reg(entry.d), "y0": reg(entry.y0), "y1": reg(entry.y1),
        "eps": entry.eps, "h": reg(entry.h), "b": reg(entry.b),
        "bprime": reg(entry.bprime),
    }


def test_J_entry_serialization(tower):
    # serialise into a fresh registry: registering into the shared tower's
    # would add codes, and codes order the transversal cores
    layer = tower.layers[(5, 2)]
    size = len(tower.registry)
    reg = ElementRegistry()
    entry = layer.entries[0]
    data = _j_entry_json(entry, reg)
    assert data["gamma"] == 5 and data["level"] == 2
    assert data["eps"] in (1, -1)
    assert reg.decode(data["b"]) == entry.b
    assert reg.decode(data["bprime"]) == entry.bprime
    json.dumps(data)
    assert len(tower.registry) == size


# ---------------------------------------------------------------------------
# stage advancement and audits


def test_free_advancement_when_no_colorings():
    state = E.init_base(2)
    for _ in range(3):
        state = E.advance_stage(state)
    assert state.stage == 5
    assert all(layer.kind == "free" for layer in state.layers.values())
    # all-zero colorings realize a single level per stage
    assert {k[1] for k in state.layers} == {0}
    assert state.colorings.d_set(4, 0, "weak") == (0, 1, 2, 3)


def test_all_audits_pass(tower):
    assert len(tower.audit) > 0
    assert all(rec["status"] == "pass" for rec in tower.audit)
    names = {rec["check"] for rec in tower.audit}
    assert {"intersection-promises", "lattice-intersection",
            "transversal-laws", "fresh-arrival-separation",
            "sandwich-escape", "layer-malnormality"} <= names


def test_audit_failure_is_hard():
    state = E.init_base(1)
    with pytest.raises(RuntimeError):
        E._audit(state, "demo", 0, "fail", 1)


def test_construction_is_deterministic(tower):
    again = build_tower()
    assert E.summary_json(again) == E.summary_json(tower)


def test_run_construction_config(tower):
    config = {"generators": 3, "stages": 6,
              "colorings": fixture_colorings().to_json()}
    state = E.run_construction(config)
    assert E.summary_json(state) == E.summary_json(tower)


# ---------------------------------------------------------------------------
# abelianization oracle


def test_abelianization_matches_exponent_arithmetic(tower):
    rels = [rel for layer in E.presentation(tower)["layers"]
            if layer["kind"] == "quotient" for rel in layer["letter_relators"]]
    assert len(rels) == 1
    vec = [0] * 6
    for s, sign in rels[0]:
        vec[int(str(s)[1:])] += sign
    # independent derivation from the relator recipe: h^-1 rho(ba, b'a)
    # with u = x5 x2 x3 and v = x5 x2 x5 x2 x3
    want = [0] * 6
    want[0] = -1
    for idx in (5, 2, 3):
        want[idx] += words.RHO_X_TOTAL
    for idx, mult in ((5, 2), (2, 2), (3, 1)):
        want[idx] += words.RHO_BLOCKS * mult
    assert vec == want
    snf = smith_normal_form(Matrix([vec]))
    divisors = [snf[0, j] for j in range(6) if snf[0, j] != 0]
    # one relator of content one: the abelianization is Z^5
    assert divisors == [1]


# ---------------------------------------------------------------------------
# the relator chain


def test_topology_chain_nesting(tower):
    chain = E.topology_chain(5, 2, 2, tower)
    entries = chain["chain"]
    assert [c["k"] for c in entries] == [0, 1, 2]
    assert entries[1]["subset_of_previous"] is True
    assert entries[2]["subset_of_previous"] is True
    # level 1 keeps every base relator and the pumped powers from ell 1
    # on; the first pumped relator is the square-length word
    assert entries[1]["base_count"] == len(tower.layers[(5, 2)].entries)
    assert entries[1]["pumped_ell"] == [1, 2]
    ell = entries[1]["pumped_ell"][0]
    assert chain["base_length"] ** (ell + 1) == 6640 * 6640
    assert chain["fragment_cprime"]["status"] == "pass"
    assert chain["pumped_avoid_n0"]["status"] == "pass"
    worst = chain["pumped_avoid_n0"]["entries"][0]
    assert worst["max_overlap"] < chain["pumped_avoid_n0"]["threshold"]


def test_topology_chain_k_zero(tower):
    chain = E.topology_chain(5, 2, 0, tower)
    assert len(chain["chain"]) == 1
    assert "normal_closure_note" in chain["chain"][0]


def test_topology_chain_free_layer(tower):
    chain = E.topology_chain(5, 0, 1, tower)
    assert chain["chain"] == []
    assert "note" in chain
