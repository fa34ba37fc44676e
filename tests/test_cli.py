"""End-to-end CLI runs against the shipped fixtures."""

from __future__ import annotations

import json

import pytest

from amalgams.cli import main
from amalgams.report import (
    CheckResult,
    emit_report,
    exit_status,
    parse_report,
)
from amalgams import engine as E


def run_cli(tmp_path, command, config, extra=()):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "report.json"
    code = main([command, "--config", str(cfg), "--out", str(out), *extra])
    return code, json.loads(out.read_text())


def tower_config():
    e = {(b, 5): v for b, v in {0: 0, 1: 0, 2: 1, 3: 2, 4: 2}.items()}
    col = E.StageColorings(
        e=e, c0={(3, 5): 0}, c1={(3, 5): E.q_code(3, 3, 2, 1)})
    return {"generators": 3, "stages": 6, "colorings": col.to_json()}


TOWER_SHA256 = \
    "9bcef04b9c7948026e654da4c53c281d1bdec7bc021eb290f810bfe8f1ee22cc"


# ---------------------------------------------------------------------------
# report plumbing


def test_report_roundtrip_and_counts():
    checks = [CheckResult("a", "pass"), CheckResult("b", "inconclusive",
                                                    {"budget": 3})]
    doc = emit_report("demo", 7, checks, {"budget_len": 10})
    back = parse_report(doc)
    assert [c.name for c in back] == ["a", "b"]
    assert doc["counts"] == {"pass": 1, "fail": 0, "inconclusive": 1}
    assert exit_status(doc) == 0
    assert exit_status(doc, escalate_inconclusive=True) == 2
    doc2 = emit_report("demo", 7, [CheckResult("x", "fail")])
    assert exit_status(doc2) == 1


def test_report_rejects_unknown_schema_and_status():
    with pytest.raises(ValueError):
        CheckResult("x", "maybe")
    with pytest.raises(ValueError):
        parse_report({"schema": "other/9", "checks": []})


def test_empty_report_is_valid():
    doc = emit_report("demo", 0, [])
    assert parse_report(doc) == []
    assert exit_status(doc) == 0


# ---------------------------------------------------------------------------
# fixture-driven commands


def test_check_amalgam(tmp_path):
    code, doc = run_cli(tmp_path, "check-amalgam",
                        {"fixture": "fixtures/systems/with_h.json"})
    assert code == 0
    assert all(c["status"] == "pass" for c in doc["checks"])


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


def test_solve_word_relator_is_trivial(tmp_path):
    # h^-1 rho(ba, b'a) spelled out as syllables: a one-entry system's
    # own relator must come back trivial with a certificate
    spec = [{"side": "K", "letters": [["h", -1]]}]
    for i in range(1, 81):
        spec.extend([{"side": "L", "letters": [["b", 1]]},
                     {"side": "K", "letters": [["a", 1]]}] * i)
        spec.extend([{"side": "L", "letters": [["c", 1]]},
                     {"side": "K", "letters": [["a", 1]]}])
    config = {"fixture": "fixtures/systems/with_h.json", "words": [spec]}
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
    pres = json.loads((tmp_path / "report.json.presentation.json")
                      .read_text())
    kinds = {(l["gamma"], l["level"]): l["kind"] for l in pres["layers"]}
    assert kinds[(5, 2)] == "quotient"


def test_scan_colorings(tmp_path):
    code, doc = run_cli(tmp_path, "scan-colorings", {"count": 40})
    assert code == 0
    data = doc["checks"][0]["data"]
    assert data["triples"] == 40 * 39 * 38 // 6


def test_topology_chain_command(tmp_path):
    config = {**tower_config(), "gamma": 5, "level": 2, "k_max": 2}
    code, doc = run_cli(tmp_path, "topology-chain", config)
    assert code == 0
    names = {c["name"]: c["status"] for c in doc["checks"]}
    assert names["chain-nesting"] == "pass"
    assert names["fragment-cprime"] == "pass"
    assert names["pumped-avoid-n0"] == "pass"


def test_escalate_inconclusive_changes_exit(tmp_path):
    config = {**tower_config(), "gamma": 5, "level": 2, "k_max": 1}
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "r.json"
    # a tiny budget makes the window check inconclusive
    code = main(["topology-chain", "--config", str(cfg), "--out", str(out),
                 "--budget-len", "10"])
    assert code == 0
    code = main(["topology-chain", "--config", str(cfg), "--out", str(out),
                 "--budget-len", "10", "--escalate-inconclusive"])
    assert code == 2


def test_bad_budget_rejected(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text("{}")
    assert main(["scan-colorings", "--config", str(cfg),
                 "--budget-len", "0"]) == 2


WITH_H = "fixtures/systems/with_h.json"


@pytest.mark.parametrize("command, config", [
    ("check-smallcancel", None),  # the config file does not exist
    ("build-stage", {**tower_config(), "generators": 0}),
    ("solve-word", WITH_H),  # a fixture file passed as the config
    ("solve-word", {"fixture": WITH_H}),  # no words to decide
    ("check-amalgam", {"fixture": "fixtures/systems/absent.json"}),
], ids=["missing-config", "zero-generators", "fixture-as-config",
        "no-words", "missing-fixture"])
def test_malformed_config_is_usage_error(tmp_path, capsys, command, config):
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
