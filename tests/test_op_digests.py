"""Same behaviour: the benchmark ops against their recorded digests.

``tests/op_digests.json`` holds, for each op of the four benchmark
workloads at seeds 11-13, the exit code and the sha256 of each file the
op wrote, each op run in a fresh process (``tests/op_digests.py``).
Here the ops run one after another in this process, so equal digests
also show that no memo or other state left by one op changes the bytes
of a later one.
"""

from __future__ import annotations

import json

from amalgams.cancellation import certificate_from_json
from amalgams.cli import _parse_word, main
from amalgams.systems import generate_relators, load_system_fixture

from op_digests import RECORD, ROOT, benchmark_ops, run_op
from oracles import element_replay_certificate


def run_in_process(argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def replay_words_report(config: dict, report: dict) -> int:
    """Replay every certificate of a solve-word report with the element
    replay of tests/oracles.py, against the word its config names;
    returns how many were replayed."""
    T, S, _ = load_system_fixture(config["fixture"])
    R = generate_relators(S, T)
    replayed = 0
    for check in report["checks"]:
        if "certificate" not in check["data"]:
            continue
        n = int(check["name"][len("word-"):])
        w = _parse_word(T, config["words"][n], {}, n)
        cert = certificate_from_json(check["data"]["certificate"])
        assert element_replay_certificate(w, cert, R), check["name"]
        replayed += 1
    return replayed


def test_benchmark_ops_match_their_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    with open(RECORD) as fh:
        record = json.load(fh)
    ops = benchmark_ops()
    assert sorted(key for key, _ in ops) == sorted(record)
    replayed = 0
    for n, (key, op) in enumerate(ops):
        workdir = tmp_path / str(n)
        workdir.mkdir()
        assert run_op(op, str(workdir), run_in_process) == record[key], key
        if op.command == "solve-word":
            report = json.loads((workdir / "report.json").read_text())
            replayed += replay_words_report(op.config, report)
    # per seed, the four words built as products of relator conjugates
    assert replayed == 12
