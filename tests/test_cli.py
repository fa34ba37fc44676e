"""End-to-end CLI runs against the shipped fixtures."""

from __future__ import annotations

import gc
import hashlib
import itertools
import json
import math
import os
import random
import resource
import subprocess
import sys

import pytest

import amalgams
from amalgams.cancellation import certificate_from_json, replay_certificate
from amalgams.canonical import syllable
from amalgams.cli import MAX_COUNT, MAX_K_MAX, _parse_word, main
from amalgams.report import (
    CheckResult,
    emit_report,
    exit_status,
    parse_report,
    write_report,
)
from amalgams import cli
from amalgams import engine as E
from amalgams.colorings import ColoringTable
from amalgams.groups import FiniteTableGroup, GroupHandle
from amalgams.systems import generate_relators, load_system_fixture


def run_cli(tmp_path, command, config, extra=()):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "report.json"
    code = main([command, "--config", str(cfg), "--out", str(out), *extra])
    return code, json.loads(out.read_text())


def tower_config():
    e = {(b, 5): v for b, v in {0: 0, 1: 0, 2: 1, 3: 2, 4: 2}.items()}
    col = ColoringTable(
        e=e, c0={(3, 5): 0}, c1={(3, 5): E.q_code(3, 3, 2, 1)})
    return {"generators": 3, "stages": 6, "colorings": col.to_json()}


def with_h_relator_spec():
    # h^-1 rho(ba, b'a) spelled out as syllables: the with_h system's one
    # relator
    spec = [{"side": "K", "letters": [["h", -1]]}]
    for i in range(1, 81):
        spec.extend([{"side": "L", "letters": [["b", 1]]},
                     {"side": "K", "letters": [["a", 1]]}] * i)
        spec.extend([{"side": "L", "letters": [["c", 1]]},
                     {"side": "K", "letters": [["a", 1]]}])
    return spec


def inverse_spec(spec):
    """The solve-word spec of the inverse of the word `spec` spells."""
    return [{"side": s["side"],
             "letters": [[sym, -sign] for sym, sign in reversed(s["letters"])]}
            for s in reversed(spec)]


def s3_z8_fixture(tmp_path, **extra):
    """S3 *_{Z2} Z8 as a table fixture with one entry. H = {0, 4} is
    normal in the abelian Z8, so it is not malnormal in L."""
    S3, Z8 = FiniteTableGroup.symmetric(3), FiniteTableGroup.cyclic(8)
    perms = sorted(itertools.permutations(range(3)))
    data = {"name": "s3-z8", "kind": "table",
            "k_table": S3.table, "l_table": Z8.table,
            "h_pairs": [[0, 0], [perms.index((1, 0, 2)), 4]],
            "entries": [{"h": 0, "a": perms.index((1, 2, 0)),
                         "b": 1, "bprime": 2}],
            **extra}
    path = tmp_path / "s3_z8.json"
    path.write_text(json.dumps(data))
    return str(path)


def s3_d5_fixture(tmp_path):
    """S3 *_{Z2} D5 as a valid table fixture with one entry. H = <(1 2)>
    in S3 is paired with a reflection of D5, and a subgroup of order 2
    is malnormal in both. In S3 every element outside H lies in one
    double coset, so no b, b' there are good fellows; D5 has two."""
    S3 = FiniteTableGroup.symmetric(3)
    perms = sorted(itertools.permutations(range(3)))
    rotations = [tuple((i + k) % 5 for i in range(5)) for k in range(5)]
    reflections = [tuple((k - i) % 5 for i in range(5)) for k in range(5)]
    D5 = FiniteTableGroup.from_permutations(rotations + reflections)
    data = {"name": "s3-d5", "kind": "table",
            "k_table": S3.table, "l_table": D5.table,
            "h_pairs": [[0, 0], [perms.index((1, 0, 2)), 5]],
            "entries": [{"h": 0, "a": perms.index((1, 2, 0)),
                         "b": 1, "bprime": 2}]}
    path = tmp_path / "s3_d5.json"
    path.write_text(json.dumps(data))
    return str(path)


def cpu_seconds():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


TOWER_SHA256 = \
    "9bcef04b9c7948026e654da4c53c281d1bdec7bc021eb290f810bfe8f1ee22cc"


# ---------------------------------------------------------------------------
# report plumbing


def test_report_roundtrip_and_counts():
    checks = [CheckResult("a", "pass", {}),
              CheckResult("b", "inconclusive", {"budget": 3})]
    doc = emit_report("demo", 7, checks, {"budget_len": 10})
    back = parse_report(doc)
    assert [c.name for c in back] == ["a", "b"]
    assert doc["counts"] == {"pass": 1, "fail": 0, "inconclusive": 1}
    assert exit_status(doc) == 0
    assert exit_status(doc, escalate_inconclusive=True) == 2
    doc2 = emit_report("demo", 7, [CheckResult("x", "fail", {})])
    assert exit_status(doc2) == 1


def test_report_rejects_unknown_schema_and_status():
    # a record holds any status; a report holds only the three
    with pytest.raises(ValueError, match="unknown status 'maybe'"):
        emit_report("demo", 0, [CheckResult("x", "maybe", {})])
    doc = emit_report("demo", 0, [CheckResult("x", "pass", {})])
    doc["checks"][0]["status"] = "maybe"
    with pytest.raises(ValueError, match="unknown status 'maybe'"):
        parse_report(doc)
    with pytest.raises(ValueError):
        parse_report({"schema": "other/9", "checks": []})


def test_empty_report_is_valid():
    doc = emit_report("demo", 0, [])
    assert parse_report(doc) == []
    assert exit_status(doc) == 0


def test_write_report_streams_the_same_bytes(tmp_path, capsys):
    doc = emit_report("démo", 3, [
        CheckResult("ω²", "pass", {"nested": [[1, [2.5, None]], {"z": "ä"}],
                                   "empty": [], "b": True})])
    expected = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    out = tmp_path / "report.json"
    write_report(doc, str(out))
    assert out.read_text() == expected
    write_report(doc)
    assert capsys.readouterr().out == expected


TEXTS = ["", "a", "ä", "ω²", "\"q\" \\ /", "tab\tnl\n", "\x00\x1f",
         "\u2028", "𝔄 astral", "日本"]
FLOATS = [0.0, -0.0, 2.5, -1e-7, 1e300, 5e-324, 0.1 + 0.2, math.nan,
          math.inf, -math.inf]


def _random_json(rng, depth):
    """A random JSON value: scalars of every kind, and lists, tuples and
    dicts (empty ones too) nested up to ``depth`` levels."""
    kind = rng.randrange(8 if depth else 5)
    if kind == 0:
        return rng.choice(TEXTS) + rng.choice(TEXTS)
    if kind == 1:
        return rng.choice([0, -1, 7, 2 ** 70, -(3 ** 50)])
    if kind == 2:
        return rng.choice(FLOATS)
    if kind == 3:
        return rng.choice([True, False, None])
    if kind == 4:
        return rng.choice(TEXTS)
    size = rng.choice([0, 1, 2, 3, 5])
    values = [_random_json(rng, depth - 1) for _ in range(size)]
    if kind == 5:
        return values
    if kind == 6:
        return tuple(values)
    # keys of one kind per dict, so that they sort
    keys = rng.choice([TEXTS, [k + "é" for k in TEXTS], [-2, 0, 9, 10],
                       [0.5, -3.0, math.inf], [False, True]])
    return dict(zip(rng.sample(keys, min(size, len(keys))), values))


def test_write_report_matches_stdlib_on_random_documents(tmp_path):
    # the writer against json.dumps on seeded random documents, plus a
    # deep one and one long enough to be written in several batches
    rng = random.Random(20261019)
    docs = [{"doc": _random_json(rng, 5)} for _ in range(400)]
    deep = "bottom"
    for level in range(150):
        deep = [deep] if level % 2 else {"ω": deep, "x": []}
    docs.append(deep)
    docs.append({"rows": [{"code": n, "side": "KL"[n % 2], "ok": n % 3 == 0}
                          for n in range(3000)]})
    out = tmp_path / "report.json"
    for doc in docs:
        write_report(doc, str(out))
        assert out.read_text() == \
            json.dumps(doc, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# fixture-driven commands


def test_check_amalgam(tmp_path):
    code, doc = run_cli(tmp_path, "check-amalgam",
                        {"fixture": "fixtures/systems/with_h.json"})
    assert code == 0
    assert [(c["name"], c["status"], c["data"]) for c in doc["checks"]] == [
        ("canonicalize-idempotent", "pass", {"samples": 24})]


def test_check_amalgam_fails_when_h_moves_across_a_seam(tmp_path,
                                                         monkeypatch):
    # a second pass that moves an H-letter across the first seam of a
    # canonical word names the same element, but the word changed: a
    # normal form must be a fixed point, syllable for syllable
    from amalgams import cli
    normalize = cli.canonicalize

    def moving_h(sylls, T):
        w = normalize(sylls, T)
        if not isinstance(sylls, tuple) or len(w) < 2:
            return w  # a first pass reads a list of syllables
        (h_sym,) = T.h_symbols
        first, second = w[0], w[1]
        h = T.side_group(first.side).generator(h_sym)
        moved = (syllable(first.side, first.elt * h),
                 syllable(second.side, T.transfer(h, second.side).inv()
                          * second.elt))
        return moved + w[2:]

    monkeypatch.setattr(cli, "canonicalize", moving_h)
    code, doc = run_cli(tmp_path, "check-amalgam",
                        {"fixture": "fixtures/systems/with_h.json"})
    assert code == 1
    (check,) = doc["checks"]
    assert (check["name"], check["status"]) == \
        ("canonicalize-idempotent", "fail")
    assert len(check["data"]["word"]) >= 2


def test_check_smallcancel_pass_and_fail(tmp_path):
    code, doc = run_cli(tmp_path, "check-smallcancel",
                        {"fixture": "fixtures/systems/with_h.json"})
    assert code == 0
    assert doc["checks"][0]["status"] == "pass"

    code, doc = run_cli(tmp_path, "check-smallcancel",
                        {"fixture": "fixtures/systems/corrupted.json"})
    assert code == 1
    check = doc["checks"][0]
    assert check["status"] == "fail"
    assert check["data"]["witness_replayed"] is True
    assert check["data"]["witness"]["ell"] >= check["data"]["witness"][
        "threshold"]


def test_validate_system_command(tmp_path):
    code, doc = run_cli(tmp_path, "validate-system",
                        {"fixture": "fixtures/systems/d_case.json"})
    assert code == 0
    assert doc["checks"][0]["data"]["certificates"]

    code, doc = run_cli(tmp_path, "validate-system",
                        {"fixture": "fixtures/systems/corrupted.json"})
    assert code == 1
    assert "witness" in doc["checks"][0]["data"]


def test_validate_system_rejects_non_malnormal_h_in_table_fixture(tmp_path):
    # a fixture cannot declare H malnormal: an assume_h_malnormal key is
    # ignored like any other unknown key
    for extra in ({}, {"assume_h_malnormal": True}):
        code, doc = run_cli(tmp_path, "validate-system",
                            {"fixture": s3_z8_fixture(tmp_path, **extra)})
        assert code == 1, extra
        check = doc["checks"][0]
        assert check["status"] == "fail"
        assert check["data"]["verdict"] == "invalid"
        assert check["data"]["h_malnormal_in_l"] == "no"
        assert check["data"]["witness"] == {"clause": "H-malnormal-in-L"}


def wide_h_fixture(tmp_path):
    """A shared-free system shaped like d_case whose one pair needs the
    fourth case, over a wide H = h00..h49 with H' = h00..h47. Every
    element of H minus K' uses h48 or h49, which come last in
    length-lex order, so a clause v checked on sampled short H-words
    would find no triple to test."""
    h = [f"h{n:02d}" for n in range(50)]
    data = {"name": "wide-h", "kind": "shared-free",
            "k_symbols": h + ["a"], "l_symbols": h + ["b", "c", "c2"],
            "h_symbols": h,
            "entries": [
                {"h": [], "a": [["a", 1]], "b": [["b", 1]],
                 "bprime": [["c", 1]]},
                {"h": [], "a": [["a", 1], ["h00", 1]],
                 "b": [["h48", 1], ["b", 1]], "bprime": [["c2", 1]]}],
            "dprime_hints": [{"i": 0, "j": 1, "h_prime": h[:48],
                              "k_prime": h[:48] + ["a"]}]}
    path = tmp_path / "wide_h.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_validate_system_decides_wide_h_by_case_d(tmp_path):
    # case d is decided by its clauses i-iii alone, so a pair that
    # passes them is certified whatever the width of H
    fixture = wide_h_fixture(tmp_path)
    system = {"check": "system", "status": "pass", "data": {
        "verdict": "valid", "h_malnormal_in_l": "yes", "note": "",
        "certificates": [{"i": 0, "j": 1, "case": "d"},
                         {"i": 1, "j": 0, "case": "d"}]}}

    def checks(doc):
        return [{"check": c["name"], "status": c["status"],
                 "data": c["data"]} for c in doc["checks"]]

    for extra in ((), ("--escalate-inconclusive",)):
        code, doc = run_cli(tmp_path, "validate-system",
                            {"fixture": fixture}, extra)
        assert (code, checks(doc)) == (0, [system])
    code, doc = run_cli(tmp_path, "solve-word", {
        "fixture": fixture,
        "words": [[{"side": "K", "letters": [["a", 1]]}]]})
    assert code == 0
    assert [(c["name"], c["status"], c["data"]["verdict"])
            for c in doc["checks"]] == [("word-0", "pass", "nontrivial")]
    T, S, _ = load_system_fixture(fixture)
    R = generate_relators(S, T)
    assert len(R.bases) == 2


def test_check_amalgam_on_table_fixture(tmp_path):
    # finite-table sides draw random syllables from their own elements
    code, doc = run_cli(tmp_path, "check-amalgam",
                        {"fixture": s3_z8_fixture(tmp_path)},
                        ("--seed", "11"))
    assert code == 0
    assert [(c["name"], c["status"], c["data"]) for c in doc["checks"]] == [
        ("canonicalize-idempotent", "pass", {"samples": 24})]


@pytest.mark.parametrize("command, z8_exit, z8_status", [
    ("validate-system", 1, "fail"),  # H is not malnormal in Z8
    ("check-smallcancel", 0, "pass")])
def test_table_fixtures_finish(tmp_path, command, z8_exit, z8_status):
    # the C' scan walks each diagonal's chain states once, so every offset
    # and seed of the 6640-syllable units costs about one lookup
    for fixture, expected in ((s3_z8_fixture(tmp_path), (z8_exit, z8_status)),
                              (s3_d5_fixture(tmp_path), (0, "pass"))):
        start = cpu_seconds()
        code, doc = run_cli(tmp_path, command, {"fixture": fixture})
        assert cpu_seconds() - start < 10
        assert (code, doc["checks"][0]["status"]) == expected, fixture


def test_solve_word_relator_is_trivial(tmp_path):
    # a one-entry system's own relator must come back trivial with a
    # certificate
    config = {"fixture": "fixtures/systems/with_h.json",
              "words": [with_h_relator_spec()]}
    code, doc = run_cli(tmp_path, "solve-word", config)
    assert code == 0
    check = doc["checks"][0]
    assert check["data"]["verdict"] == "trivial"
    assert check["data"]["replayed"] is True


def test_solve_word_nontrivial(tmp_path):
    config = {"fixture": "fixtures/systems/with_h.json",
              "words": [[{"side": "L", "letters": [["b", 1]]}]]}
    code, doc = run_cli(tmp_path, "solve-word", config)
    assert code == 0
    assert doc["checks"][0]["data"]["verdict"] == "nontrivial"


def test_solve_word_builds_each_distinct_syllable_once(tmp_path,
                                                      monkeypatch):
    # the relator spells 6,641 syllables from 4 distinct ones, and the
    # second word repeats one of them; a solve-word without words counts
    # the elements that loading and validating the fixture build
    built = []
    element = GroupHandle.element

    def counting(self, payload):
        built.append(payload)
        return element(self, payload)

    monkeypatch.setattr(GroupHandle, "element", counting)
    run_cli(tmp_path, "solve-word", {"fixture": WITH_H, "words": []})
    fixture_builds = len(built)
    built.clear()
    spec = with_h_relator_spec()
    code, doc = run_cli(tmp_path, "solve-word", {
        "fixture": WITH_H,
        "words": [spec, [{"side": "L", "letters": [["b", 1]]}] * 3]})
    assert code == 0
    assert [c["data"]["verdict"] for c in doc["checks"]] == [
        "trivial", "nontrivial"]
    distinct = {(s["side"], str(s["letters"])) for s in spec}
    assert len(distinct) == 4
    assert len(built) <= fixture_builds + len(distinct)


def test_solve_word_reports_the_decision_not_the_word(tmp_path):
    # a trivial word's check gives its syllable count and the sha256 of
    # the config file, not the word; that is enough to find word n in the
    # config again and replay its certificate, and the report of a word
    # twice as long is no larger for it
    u = [{"side": "L", "letters": [["b", 1], ["c", -1]]},
         {"side": "K", "letters": [["a", 1]]}]
    v = [{"side": "K", "letters": [["a", -1]]},
         {"side": "L", "letters": [["c", 1]]}]
    rho = with_h_relator_spec()
    conjugate = u + rho + inverse_spec(u)
    product = conjugate + v + inverse_spec(rho) + inverse_spec(v)
    T, S, _ = load_system_fixture(WITH_H)
    R = generate_relators(S, T)
    sizes = []
    for word in (conjugate, product):
        config = {"fixture": WITH_H, "words": [word]}
        code, doc = run_cli(tmp_path, "solve-word", config)
        assert code == 0
        [check] = doc["checks"]
        data = check["data"]
        assert (check["name"], data["verdict"], data["replayed"]) == \
            ("word-0", "trivial", True)
        assert "word" not in data and "elements" not in data
        assert data["syllables"] == data["certificate"][0]["from_len"]
        raw = (tmp_path / "config.json").read_bytes()
        assert data["config_sha256"] == hashlib.sha256(raw).hexdigest()
        spec = json.loads(raw)["words"][int(check["name"][len("word-"):])]
        w = _parse_word(T, spec, {}, 0)
        assert len(w) == data["syllables"]
        cert = certificate_from_json(data["certificate"])
        assert replay_certificate(w, cert, R) is True
        sizes.append(len((tmp_path / "report.json").read_bytes()))
    assert abs(sizes[1] - sizes[0]) < 1024, sizes


def test_solve_word_on_invalid_system_reports_the_clause(tmp_path):
    # no quotient is built from an invalid system: the report's one check
    # is the failed system check, naming the clause, and the exit is 1
    word = [[{"side": "L", "letters": [["b", 1]]}]]
    code, doc = run_cli(tmp_path, "solve-word",
                        {"fixture": "fixtures/systems/corrupted.json",
                         "words": word})
    assert code == 1
    [check] = doc["checks"]
    assert (check["name"], check["status"]) == ("system", "fail")
    assert check["data"]["verdict"] == "invalid"
    assert check["data"]["witness"]["clause"] == "no-case-applies"

    code, doc = run_cli(tmp_path, "solve-word",
                        {"fixture": s3_z8_fixture(tmp_path), "words": []})
    assert code == 1
    assert doc["checks"][0]["data"]["witness"] == {
        "clause": "H-malnormal-in-L"}


# ---------------------------------------------------------------------------
# construction commands


def test_run_construction_deterministic(tmp_path):
    code, doc = run_cli(tmp_path, "run-construction", tower_config())
    assert code == 0
    check = doc["checks"][0]
    assert check["status"] == "pass"
    digest = check["data"]["summary_sha256"]
    # the recorded summary of this tower; a change to the transversal
    # order or to any layer shows up here
    assert digest == TOWER_SHA256
    code2, doc2 = run_cli(tmp_path, "run-construction", tower_config())
    assert doc2["checks"][0]["data"]["summary_sha256"] == digest
    summary = tmp_path / "report.json.summary.json"
    assert summary.exists()


def test_build_stage(tmp_path):
    code, doc = run_cli(tmp_path, "build-stage", tower_config())
    assert code == 0
    names = {c["name"]: c["status"] for c in doc["checks"]}
    assert names == {"audits": "pass", "presentation": "pass"}
    text = (tmp_path / "report.json.presentation.json").read_text()
    pres = json.loads(text)
    kinds = {(l["gamma"], l["level"]): l["kind"] for l in pres["layers"]}
    assert kinds[(5, 2)] == "quotient"
    # the file holds exactly the compact sorted-key JSON of the
    # presentation of a fresh run
    config = tower_config()
    state = E.run_construction(
        {**config, "colorings": ColoringTable.from_json(config["colorings"],
                                                        config["stages"])})
    assert text == json.dumps(E.presentation(state), sort_keys=True)


def _plant_flipped_rows(monkeypatch):
    # plant decompositions that do not multiply back: every sign is
    # flipped, so y0 t^-eps y1 differs from g once t is not the identity
    build_row = E._decomposition_row

    def flipped_row(g, gamma, state):
        return [(y0, t, -eps, y1)
                for y0, t, eps, y1 in build_row(g, gamma, state)]

    monkeypatch.setattr(E, "_decomposition_row", flipped_row)


@pytest.mark.parametrize("command", ["build-stage", "run-construction",
                                     "topology-chain"])
def test_failed_audit_writes_a_failing_report(tmp_path, monkeypatch,
                                              command):
    _plant_flipped_rows(monkeypatch)
    code, doc = run_cli(tmp_path, command,
                        {**tower_config(), "gamma": 5, "level": 2})
    assert code == 1
    assert [(c["name"], c["status"]) for c in doc["checks"]] == \
        [("audits", "fail")]
    failed = doc["checks"][0]["data"]["failed"]
    # the first stage's first non-identity member, x3, at cut 0
    assert failed == {"check": "transversal-decomposition", "gamma": 3,
                      "status": "fail", "instances": 4, "level": 0,
                      "beta": 0}


def _plant_identity_rep(monkeypatch, payload, level, beta):
    # the row of the element `payload` in the (5, level) layer reads the
    # identity as its representative at cut beta, with y0 the element
    # itself: the entry still multiplies back, so only a law that
    # compares representatives across levels or cuts can fail
    row_of = E._row

    def planted(g, gamma, i, state):
        row = row_of(g, gamma, i, state)
        if (g.payload, gamma, i) == (payload, 5, level):
            one = state.ambient.identity()
            row = row[:beta] + [(g, one, 1, one)] + row[beta + 1:]
        return row

    monkeypatch.setattr(E, "_row", planted)


# at gamma 5 the tower's rows in the layers (5, 0..2) hold x5 as its own
# representative at every cut, one run; x1's runs are the cuts 0-1 and
# 2-5, and x1 is a representative at the cuts 0 and 1 of level 1. The
# instances count the 66 decompositions (11 rows of 6 cuts), then the
# law checks of the (level, cut) slots up to the failing one
@pytest.mark.parametrize("payload, level, beta, failed", [
    ((("x5", 1),), 1, 3, {"level": 0, "beta": 3, "instances": 89}),
    ((("x1", 1),), 2, 1, {"level": 1, "beta": 1, "instances": 126}),
], ids=["inside-a-run", "run-boundary"])
def test_failed_level_monotone_law_is_reported(tmp_path, monkeypatch,
                                               payload, level, beta, failed):
    _plant_identity_rep(monkeypatch, payload, level, beta)
    code, doc = run_cli(tmp_path, "build-stage", tower_config())
    assert code == 1
    assert doc["checks"][0]["data"]["failed"] == {
        "check": "transversal-level-monotone", "gamma": 5, "status": "fail",
        **failed}


@pytest.mark.parametrize("payload, level, beta, failed", [
    ((("x5", 1),), 0, 2, {"level": 0, "beta": 3, "instances": 89}),
    ((("x1", 1),), 1, 0, {"level": 1, "beta": 1, "instances": 126}),
], ids=["inside-a-run", "run-boundary"])
def test_failed_cut_monotone_law_is_reported(tmp_path, monkeypatch,
                                             payload, level, beta, failed):
    _plant_identity_rep(monkeypatch, payload, level, beta)
    code, doc = run_cli(tmp_path, "build-stage", tower_config())
    assert code == 1
    assert doc["checks"][0]["data"]["failed"] == {
        "check": "transversal-cut-monotone", "gamma": 5, "status": "fail",
        **failed}


@pytest.mark.parametrize("collecting", [True, False],
                         ids=["enabled", "disabled"])
@pytest.mark.parametrize("case", ["exit-0", "exit-2", "audit-failure"])
def test_main_leaves_the_collector_as_it_found_it(tmp_path, monkeypatch,
                                                  collecting, case):
    # the command itself runs with the collector paused
    paused, load = [], cli._load_config
    monkeypatch.setattr(cli, "_load_config", lambda *a: paused.append(
        not gc.isenabled()) or load(*a))
    if case == "audit-failure":
        _plant_flipped_rows(monkeypatch)
    was = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        if case == "exit-2":
            with pytest.raises(SystemExit) as exc:
                main(["build-stage", "--config", str(tmp_path / "none")])
            assert exc.value.code == 2
        else:
            code, _ = run_cli(tmp_path, "build-stage", tower_config())
            assert code == (1 if case == "audit-failure" else 0)
        assert gc.isenabled() == collecting
    finally:
        (gc.enable if was else gc.disable)()
    assert paused == [True]


# run in a fresh process: main, then what the collector finds after it
GC_PROBE = """
import gc, sys
from amalgams.cli import main
gc.collect()
code = main(sys.argv[1:])
print(code, gc.isenabled(), gc.collect())
"""


def test_what_solve_word_leaves_to_the_collector_does_not_grow(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(os.path.dirname(amalgams.__file__))]
        + [p for p in [env.get("PYTHONPATH")] if p])
    short = [{"side": "K", "letters": [["a", 1]]}]
    seen = []
    for words in ([short], [with_h_relator_spec()] * 8):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"fixture": WITH_H, "words": words}))
        out = subprocess.run(
            [sys.executable, "-c", GC_PROBE, "solve-word", "--config",
             str(cfg), "--out", str(tmp_path / "report.json")],
            env=env, capture_output=True, text=True, check=True)
        seen.append(out.stdout.split())
    assert seen[0] == seen[1] and seen[0][:2] == ["0", "True"]


def test_scan_colorings(tmp_path):
    code, doc = run_cli(tmp_path, "scan-colorings", {"count": 40})
    assert code == 0
    data = doc["checks"][0]["data"]
    assert data["triples"] == 40 * 39 * 38 // 6


# 48 seeded hitting-scan targets [xi0, xi1, i] over the 110-ordinal
# scope, about half of them realized pairs
SCAN_TARGETS = [
    [4, 3, 0], [14, 0, 7], [11, 0, 1], [7, 0, 0], [17, 0, 0], [2, 0, 1],
    [6, 9, 2], [9, 0, 0], [8, 0, 2], [19, 0, 1], [11, 0, 1], [8, 1, 0],
    [8, 6, 2], [10, 0, 2], [1, 5, 1], [10, 6, 1], [4, 11, 1], [6, 0, 2],
    [6, 8, 0], [6, 10, 2], [9, 5, 2], [11, 4, 0], [11, 0, 0], [12, 0, 3],
    [1, 6, 2], [0, 7, 0], [1, 7, 2], [10, 0, 2], [11, 6, 1], [15, 0, 2],
    [10, 3, 1], [4, 0, 1], [4, 0, 1], [14, 0, 1], [11, 3, 0], [10, 5, 0],
    [9, 6, 0], [23, 0, 0], [14, 0, 2], [5, 2, 0], [11, 5, 2], [1, 3, 2],
    [19, 0, 1], [17, 0, 4], [10, 6, 2], [16, 0, 0], [21, 0, 3], [5, 3, 1]]


@pytest.mark.parametrize("config, digest", [
    ({"count": 170},
     "a6d97c9c4c4f9921989027c42c594b46fc56547600e6fc4bb63d892228f91e4f"),
    ({"count": 300},
     "338ad7b253ca773ea53930122c2b776b19dba4b767085aee731552522330d263"),
    ({"count": 110, "targets": SCAN_TARGETS},
     "b729d09a36e4228314f3e4b7f70cf27909fe41856e7ef63546c9aed846a934de"),
], ids=["count-170", "count-300", "count-110-targets"])
def test_scan_colorings_report_bytes_are_pinned(tmp_path, config, digest):
    code, _ = run_cli(tmp_path, "scan-colorings", config)
    assert code == 0
    report = (tmp_path / "report.json").read_bytes()
    assert hashlib.sha256(report).hexdigest() == digest


def test_scan_colorings_count_bound(tmp_path, monkeypatch, capsys):
    # the largest count is accepted and reaches the table build, which
    # is stubbed to its first 40 ordinals here; one more is a usage
    # error
    walks, seen = ColoringTable.from_walks, []

    def first_40(scope):
        seen.append(len(scope))
        return walks(scope[:40])

    monkeypatch.setattr(ColoringTable, "from_walks", first_40)
    code, _ = run_cli(tmp_path, "scan-colorings", {"count": MAX_COUNT})
    assert (code, seen) == (0, [MAX_COUNT])
    with pytest.raises(SystemExit) as exc:
        run_cli(tmp_path, "scan-colorings", {"count": MAX_COUNT + 1})
    assert exc.value.code == 2
    assert capsys.readouterr().err == (
        f"amalgams: error: config 'count' must be at most {MAX_COUNT}, "
        f"not {MAX_COUNT + 1}\n")


def test_scan_colorings_reports_subadditivity_violation(tmp_path,
                                                        monkeypatch):
    walks = ColoringTable.from_walks

    def corrupted(scope):
        table = walks(scope)
        e = {**table.e_map, (0, len(table.scope) - 1): 10_000}
        return ColoringTable(e, table.c0_map, table.c1_map, table.scope)

    monkeypatch.setattr(ColoringTable, "from_walks", corrupted)
    code, doc = run_cli(tmp_path, "scan-colorings", {"count": 40})
    assert code == 1
    check = doc["checks"][0]
    assert check["name"] == "subadditivity"
    assert check["status"] == "fail"
    # the 40-ordinal scope is the first 40 of an 8 x 8 grid: it ends at
    # w*4+7
    assert check["data"]["violation"] == {"inequality": 1,
                                          "triple": ["0", "1", "w*4+7"]}


def test_topology_chain_command(tmp_path):
    config = {**tower_config(), "gamma": 5, "level": 2, "k_max": 2}
    code, doc = run_cli(tmp_path, "topology-chain", config)
    assert code == 0
    names = {c["name"]: c["status"] for c in doc["checks"]}
    assert names["chain-nesting"] == "pass"
    assert names["fragment-cprime"] == "pass"
    assert names["pumped-avoid-n0"] == "pass"
    pumped = next(c["data"] for c in doc["checks"]
                  if c["name"] == "pumped-avoid-n0")
    assert pumped["threshold"] == 4649
    assert [(e["max_overlap"], e["window"]) for e in pumped["entries"]] \
        == [(321, 13282)]


def test_escalate_inconclusive_changes_exit(tmp_path):
    # one Dehn round cannot finish the relator, so the verdict is
    # inconclusive: exit 0, or 2 when escalated
    config = {"fixture": "fixtures/systems/with_h.json",
              "words": [with_h_relator_spec()]}
    code, doc = run_cli(tmp_path, "solve-word", config,
                        ["--budget-len", "1"])
    assert code == 0
    check = doc["checks"][0]
    assert check["status"] == "inconclusive"
    assert check["data"]["note"] == "round budget"
    assert check["data"]["budget"] == {"budget_len": 1}
    code, _ = run_cli(tmp_path, "solve-word", config,
                      ["--budget-len", "1", "--escalate-inconclusive"])
    assert code == 2


def test_unwritable_out_is_a_usage_error(tmp_path, capsys, monkeypatch):
    # a report path in a missing directory is refused before any work
    # runs, and a path that cannot be opened when the report is written
    # (here a directory) exits 2 as well, with one line each
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"fixture": "fixtures/systems/with_h.json"}))
    ran = []
    monkeypatch.setattr("amalgams.cli.HANDLERS", {
        "check-smallcancel": lambda config, args: ran.append(1) or []})
    missing = tmp_path / "no" / "r.json"
    with pytest.raises(SystemExit) as exc:
        main(["check-smallcancel", "--config", str(cfg),
              "--out", str(missing)])
    assert (exc.value.code, ran) == (2, [])
    assert capsys.readouterr().err == (
        f"amalgams: error: cannot write report {missing}: "
        f"{missing.parent} is not a writable directory\n")
    (tmp_path / "d").mkdir()
    with pytest.raises(SystemExit) as exc:
        main(["check-smallcancel", "--config", str(cfg),
              "--out", str(tmp_path / "d")])
    assert (exc.value.code, ran) == (2, [1])
    assert capsys.readouterr().err == (
        f"amalgams: error: cannot write report {tmp_path / 'd'}: "
        f"Is a directory\n")


@pytest.mark.parametrize("command, suffix", [
    ("build-stage", ".presentation.json"),
    ("run-construction", ".summary.json")])
def test_unwritable_side_file_is_a_usage_error(tmp_path, capsys, command,
                                               suffix):
    # a side file whose path cannot be opened (here a directory) exits 2
    # with one line naming it, as the report does
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"generators": 2, "stages": 2}))
    out = tmp_path / "r.json"
    side = tmp_path / ("r.json" + suffix)
    side.mkdir()
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(cfg), "--out", str(out)])
    assert exc.value.code == 2
    assert capsys.readouterr().err == (
        f"amalgams: error: cannot write side file {side}: Is a directory\n")


def test_bad_budget_rejected(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text("{}")
    with pytest.raises(SystemExit) as exc:
        main(["scan-colorings", "--config", str(cfg), "--budget-len", "0"])
    assert exc.value.code == 2
    assert capsys.readouterr().err == \
        "amalgams: error: --budget-len must be positive\n"


def test_topology_chain_k_max_bound(tmp_path, monkeypatch, capsys):
    # the largest k_max is accepted and reaches the chain, which is
    # stubbed to k_max 2 here; one more is a usage error
    chain, seen = E.topology_chain, []

    def short_chain(gamma, level, k_max, state):
        seen.append(k_max)
        return chain(gamma, level, 2, state)

    monkeypatch.setattr(E, "topology_chain", short_chain)
    config = {**tower_config(), "gamma": 5, "level": 2}
    code, _ = run_cli(tmp_path, "topology-chain",
                      {**config, "k_max": MAX_K_MAX})
    assert (code, seen) == (0, [MAX_K_MAX])
    with pytest.raises(SystemExit) as exc:
        run_cli(tmp_path, "topology-chain",
                {**config, "k_max": MAX_K_MAX + 1})
    assert exc.value.code == 2
    assert seen == [MAX_K_MAX]
    assert capsys.readouterr().err == (
        f"amalgams: error: config 'k_max' must be at most {MAX_K_MAX}, "
        f"not {MAX_K_MAX + 1}\n")


def test_unknown_colorings_key_is_usage_error(tmp_path, capsys):
    # "c_1" for "c1" would leave every layer free, and the tower's audits
    # would all pass on a coloring nobody meant
    config = tower_config()
    config["colorings"]["c_1"] = config["colorings"].pop("c1")
    with pytest.raises(SystemExit) as exc:
        run_cli(tmp_path, "run-construction", config)
    assert exc.value.code == 2
    assert capsys.readouterr().err == (
        "amalgams: error: config 'colorings': unknown colorings key(s): "
        "'c_1'; expected 'e', 'c0' or 'c1'\n")


WITH_H = "fixtures/systems/with_h.json"
CORRUPTED = "fixtures/systems/corrupted.json"


def _entry_without_a(tmp_path):
    """A copy of with_h whose first entry lacks its `a` key."""
    with open(WITH_H) as fh:
        fixture = json.load(fh)
    del fixture["entries"][0]["a"]
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps(fixture))
    return {"fixture": str(path)}


@pytest.mark.parametrize("command, config", [
    ("check-smallcancel", None),  # the config file does not exist
    ("build-stage", {**tower_config(), "generators": 0}),
    ("solve-word", WITH_H),  # a fixture file passed as the config
    ("solve-word", {"fixture": WITH_H}),  # no words to decide
    ("check-amalgam", {"fixture": "fixtures/systems/absent.json"}),
    # the config names itself as the fixture: JSON, but no entry system
    ("check-amalgam", lambda tmp: {"fixture": str(tmp / "config.json")}),
    ("validate-system", _entry_without_a),
    ("scan-colorings", {"count": -3}),
    ("build-stage", {**tower_config(), "stages": "x"}),
    ("build-stage", {**tower_config(), "stages": True}),
    # a layer the tower never builds, and a free layer
    ("topology-chain", {"generators": 3, "stages": 2, "gamma": 9,
                        "level": 2}),
    ("topology-chain", {"generators": 3, "stages": 5, "gamma": 4,
                        "level": 0}),
    # malformed colorings blocks: a key that is not "i,j", an entry
    # with i >= j, a negative value, an entry past the last stage
    ("run-construction", {"generators": 3, "stages": 6,
                          "colorings": {"e": {"5": 1}}}),
    ("build-stage", {"generators": 3, "stages": 6,
                     "colorings": {"e": {"5,3": 1}}}),
    ("run-construction", {"generators": 3, "stages": 6,
                          "colorings": {"c1": {"3,5": -4}}}),
    ("build-stage", {"generators": 3, "stages": 6,
                     "colorings": {"e": {"2,6": 1}}}),
    ("scan-colorings", {"count": 10, "targets": [[1, 2]]}),
    ("scan-colorings", {"count": 10, "targets": [[1, 2, -3]]}),
    # malformed solve-word words: a side other than K or L, an L letter
    # on the K side, a sign other than +-1, a syllable without letters,
    # and a word given without its enclosing list
    ("solve-word", {"fixture": WITH_H, "words": [
        [{"side": "Q", "letters": [["b", 1]]}]]}),
    ("solve-word", {"fixture": WITH_H, "words": [
        [{"side": "K", "letters": [["a", 1]]},
         {"side": "K", "letters": [["b", 1]]}]]}),
    ("solve-word", {"fixture": WITH_H, "words": [
        [{"side": "K", "letters": [["a", 2]]}]]}),
    ("solve-word", {"fixture": WITH_H, "words": [[{"side": "L"}]]}),
    ("solve-word", {"fixture": WITH_H, "words": [
        {"side": "K", "letters": [["a", 1]]}]}),
    # word letters are free-factor letters; a table side has none
    ("solve-word", lambda tmp: {"fixture": s3_z8_fixture(tmp), "words": [
        [{"side": "K", "letters": [[1, 1]]}]]}),
], ids=["missing-config", "zero-generators", "fixture-as-config",
        "no-words", "missing-fixture", "not-a-system", "entry-lacks-key",
        "negative-count", "string-stages", "bool-stages", "unbuilt-layer",
        "free-layer", "colorings-key-not-pair", "colorings-unordered-pair",
        "colorings-negative", "colorings-past-stages", "target-short",
        "target-negative", "word-side", "word-symbol", "word-sign",
        "word-no-letters", "words-not-nested", "word-table-side"])
def test_malformed_config_is_usage_error(tmp_path, capsys, command, config):
    if callable(config):
        config = config(tmp_path)
    if isinstance(config, str):
        path = config
    else:
        path = tmp_path / "config.json"
        if config is not None:
            path.write_text(json.dumps(config))
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("amalgams: error: ")


@pytest.mark.parametrize("sign", ["1", 1.0, True])
def test_solve_word_sign_must_be_an_int(tmp_path, capsys, sign):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"fixture": WITH_H, "words": [
        [{"side": "K", "letters": [["a", 1]]},
         {"side": "L", "letters": [["b", sign]]}]]}))
    with pytest.raises(SystemExit) as exc:
        main(["solve-word", "--config", str(cfg)])
    assert exc.value.code == 2
    assert capsys.readouterr().err == (
        f"amalgams: error: word 0 syllable 1: letter sign must be +-1, "
        f"got {sign!r}\n")


@pytest.mark.parametrize("valid, letters", [
    ([["a", 1]], [["a", 1, 7]]),
    ([["a", 1]], [["a"]]),
    ([["a", 1]], [[["a", 1]]]),
    ([["a", 1]], [["a", True]]),
    ([["a", 1]], [["a", 1.0]]),
    ([["a", 1], ["h", 1]], [["a", 1], ["h", True]]),
], ids=["three-items", "one-item", "nested", "bool-sign", "float-sign",
        "two-letters-bool-sign"])
def test_malformed_syllable_after_a_valid_one(tmp_path, capsys, valid,
                                              letters):
    # built syllables are looked up by a key of their spec; a malformed
    # spec must not find the key of a valid one built before it (True
    # and 1.0 equal 1)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"fixture": WITH_H, "words": [
        [{"side": "K", "letters": valid}],
        [{"side": "L", "letters": [["b", 1]]},
         {"side": "K", "letters": letters}]]}))
    with pytest.raises(SystemExit) as exc:
        main(["solve-word", "--config", str(cfg)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("amalgams: error: word 1 syllable 1")


@pytest.mark.parametrize("chi", [
    [1, 0], "x", [1, 10, 3], [1.5, 10], True, [True, 10],
    # p > q skips every pair, so the scan could not fail; p < 0 fails
    # every set
    [2, 1], [-1, 10], [0, 10]])
def test_check_smallcancel_rejects_bad_chi(tmp_path, capsys, chi):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"fixture": WITH_H, "chi": chi}))
    with pytest.raises(SystemExit) as exc:
        main(["check-smallcancel", "--config", str(cfg)])
    assert exc.value.code == 2
    assert capsys.readouterr().err == (
        f"amalgams: error: config 'chi' must be [p, q], integers with "
        f"0 < p <= q, not {chi!r}\n")


def test_check_smallcancel_accepts_chi(tmp_path):
    # an equal fraction in other terms reads the same; chi = 1 admits
    # every overlap shorter than a whole relator
    for chi, reported in (([2, 20], [1, 10]), ([1, 1], [1, 1])):
        code, doc = run_cli(tmp_path, "check-smallcancel",
                            {"fixture": WITH_H, "chi": chi})
        assert (code, doc["checks"][0]["status"]) == (0, "pass")
        assert doc["checks"][0]["data"]["chi"] == reported


def _with_h_entry(key, value):
    def edit(data):
        data["entries"][0][key] = value
    return edit


def _table(key, value):
    def edit(data):
        data[key] = value
    return edit


def _entry_indices(*indices):
    def edit(data):
        for item, index in zip(data["entries"], indices):
            item["index"] = index
    return edit


@pytest.mark.parametrize("command", ["validate-system", "check-smallcancel"])
@pytest.mark.parametrize("kind, edit, names", [
    ("shared-free", _with_h_entry("a", [["zz", 1]]),
     "entry 0 key 'a': 'zz' is not a generator of K"),
    ("shared-free", _with_h_entry("bprime", [["c", 2]]),
     "entry 0 key 'bprime': letter sign must be +-1, got 2"),
    # a sign is the int 1 or -1, not a value that equals or casts to it
    ("shared-free", _with_h_entry("bprime", [["c", "1"]]),
     "entry 0 key 'bprime': letter sign must be +-1, got '1'"),
    ("shared-free", _with_h_entry("bprime", [["c", 1.0]]),
     "entry 0 key 'bprime': letter sign must be +-1, got 1.0"),
    ("shared-free", _with_h_entry("bprime", [["c", True]]),
     "entry 0 key 'bprime': letter sign must be +-1, got True"),
    ("shared-free", _table("h_symbols", ["h", "b"]),
     "k_symbols/l_symbols/h_symbols: side alphabets must overlap "
     "exactly in H"),
    ("table", _table("l_table", [[0, 1], [1]]),
     "k_table/l_table/h_pairs: multiplication table must be square"),
    ("table", _table("l_table", [[1, 0], [0, 0]]),
     "k_table/l_table/h_pairs: table has no identity element"),
    # a cell is an element index, as an entry's element is
    ("table", _table("l_table", [[0, 1, 2], [1, 2, 0], [2, 0, 1.0]]),
     "k_table/l_table/h_pairs: table cell (2,2) must be an element "
     "index, not 1.0"),
    ("table", _table("l_table", [[0, 1, 2], [1, 2, 0], [2, 0, True]]),
     "k_table/l_table/h_pairs: table cell (2,2) must be an element "
     "index, not True"),
    ("table", _table("h_pairs", [[0, 0], [1, 0]]),
     "k_table/l_table/h_pairs: H-pairing must be a bijection"),
    # a transposition of S3 paired with 1 of Z8, of order 8; a 3-cycle,
    # whose square is not paired
    ("table", _table("h_pairs", [[0, 0], [1, 1]]),
     "k_table/l_table/h_pairs: H-pairing is not a homomorphism"),
    ("table", _table("h_pairs", [[0, 0], [3, 2]]),
     "k_table/l_table/h_pairs: H-pairing is not a homomorphism"),
    ("table", _with_h_entry("b", 8),
     "entry 0 key 'b': element index 8 out of range"),
    # an element index is an int, not a value that casts to one
    ("table", _with_h_entry("a", 2.7),
     "entry 0 key 'a': element index must be an int, not 2.7"),
    ("table", _with_h_entry("a", "3"),
     "entry 0 key 'a': element index must be an int, not '3'"),
    ("table", _with_h_entry("a", True),
     "entry 0 key 'a': element index must be an int, not True"),
    # a loop with identity and inverses: a sample of its triples misses
    # every one that is not associative
    ("table", _table("k_table", [
        [0, 1, 2, 3, 4, 5], [1, 2, 0, 4, 5, 3], [2, 3, 4, 5, 0, 1],
        [3, 4, 5, 0, 1, 2], [4, 5, 3, 1, 2, 0], [5, 0, 1, 2, 3, 4]]),
     "k_table/l_table/h_pairs: table not associative at (1,1,1)"),
    ("shared-free", _table("dprime_hints", [
        {"i": 0, "j": 1, "h_prime": ["zz"], "k_prime": ["a"]}]),
     "dprime_hints 0: subgroup symbols must be group generators"),
    ("table", _table("dprime_hints", [
        {"i": 0, "j": 1, "h_prime": [], "k_prime": []}]),
     "dprime_hints 0: subgroup hints are letter-based only"),
    # with_h has the one entry 0: a hint must name two of its entries
    ("shared-free", _table("dprime_hints", [
        {"i": 7, "j": 9, "h_prime": ["h"], "k_prime": ["h", "a"]}]),
     "dprime_hints 0: i and j must be two different entry indices, "
     "not 7 and 9"),
    ("shared-free", _table("dprime_hints", [
        {"i": 0, "j": 0, "h_prime": ["h"], "k_prime": ["h", "a"]}]),
     "dprime_hints 0: i and j must be two different entry indices, "
     "not 0 and 0"),
    # validate_system certifies only pairs of different indices, so a
    # shared index would leave the pair of corrupted's entries unchecked
    ("two-entry", _entry_indices(0, 0),
     "entry 1 key 'index': index must be an int that no other entry "
     "has, not 0"),
    ("two-entry", _entry_indices(0, "a"),
     "entry 1 key 'index': index must be an int that no other entry "
     "has, not 'a'"),
    ("two-entry", _entry_indices(0, True),
     "entry 1 key 'index': index must be an int that no other entry "
     "has, not True"),
], ids=["letter-outside-alphabet", "sign-2", "sign-string", "sign-float",
        "sign-bool", "h-not-the-overlap",
        "table-not-square", "table-no-identity", "table-cell-float",
        "table-cell-bool", "pairing-not-bijective",
        "pairing-not-homomorphic", "pairing-not-closed",
        "entry-out-of-range", "entry-float", "entry-string", "entry-bool",
        "table-not-associative", "hint-letter", "hint-on-table",
        "hint-absent-entries", "hint-same-entry", "index-shared",
        "index-string", "index-bool"])
def test_bad_fixture_contents_are_usage_errors(tmp_path, capsys, command,
                                               kind, edit, names):
    if kind == "table":
        with open(s3_z8_fixture(tmp_path)) as fh:
            data = json.load(fh)
    else:
        with open(CORRUPTED if kind == "two-entry" else WITH_H) as fh:
            data = json.load(fh)
    edit(data)
    fixture = tmp_path / "fixture.json"
    fixture.write_text(json.dumps(data))
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"fixture": str(fixture)}))
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(cfg)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith(f"amalgams: error: fixture {fixture}: {names}")


@pytest.mark.parametrize("key, letters, clause", [
    ("h", [["a", 1]], "h-in-H"),
    ("a", [["h", 1]], "a-in-K-minus-H"),
    ("b", [["h", 1]], "b-in-L-minus-H"),
    ("bprime", [["h", 1]], "bprime-in-L-minus-H")])
def test_mistyped_entry_is_a_usage_error_for_the_scan(tmp_path, capsys, key,
                                                       letters, clause):
    # check-smallcancel scans invalid systems too, but a mistyped entry
    # spells no relator; the commands that validate report the clause
    with open(WITH_H) as fh:
        data = json.load(fh)
    _with_h_entry(key, letters)(data)
    fixture = tmp_path / "fixture.json"
    fixture.write_text(json.dumps(data))
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"fixture": str(fixture)}))
    with pytest.raises(SystemExit) as exc:
        main(["check-smallcancel", "--config", str(cfg)])
    assert exc.value.code == 2
    assert capsys.readouterr().err == (
        f"amalgams: error: fixture {fixture}: entry 0 breaks {clause}\n")
    for command, extra in (("validate-system", {}),
                           ("solve-word", {"words": []})):
        code, doc = run_cli(tmp_path, command,
                            {"fixture": str(fixture), **extra})
        (check,) = doc["checks"]
        assert (code, check["name"], check["data"]["verdict"]) == \
            (1, "system", "invalid")
        assert check["data"]["witness"] == {"entry": 0, "clause": clause}
