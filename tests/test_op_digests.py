"""Same behaviour: the benchmark ops against their recorded digests.

``tests/op_digests.json`` holds, for each op of the four benchmark
workloads at seeds 11-13, the exit code and the sha256 of each file the
op wrote, each op run in a fresh process (``tests/op_digests.py``).
Here the ops run one after another in this process, so equal digests
also show that no memo or other state left by one op changes the bytes
of a later one. The certificates of the words reports are replayed by
element arithmetic, and corrupted's C' witness by the flat oracle, both
from tests/oracles.py.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from amalgams.cancellation import certificate_from_json
from amalgams.canonical import Syllable
from amalgams.cli import _parse_word, main
from amalgams.systems import generate_relators, load_system_fixture

from op_digests import RECORD, ROOT, benchmark_ops, run_op
from oracles import element_replay_certificate, flat_letters


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


def replay_smallcancel_report(config: dict, report: dict) -> int:
    """Replay the C' witness of a check-smallcancel report, if any, with
    the flat oracle of tests/oracles.py and none of cancellation.py:
    w1[i1-ell+1..i1] · h0 · w2[j2..j2+ell), both units read cyclically,
    reduces to an H-word, which is not the excluded self-alignment of
    a whole unit from seed 1 to end 1, and ell reaches the threshold
    of the report's chi; returns how many were replayed."""
    data = {c["name"]: c["data"] for c in report["checks"]}["cprime"]
    wit = data.get("witness")
    if wit is None:
        return 0
    T, S, _ = load_system_fixture(config["fixture"])
    R = generate_relators(S, T, check=False)
    w1, w2 = R.by_uid[wit["uid1"]].word, R.by_uid[wit["uid2"]].word
    n, m, i1, j2, ell = len(w1), len(w2), wit["i1"], wit["j2"], wit["ell"]
    # units of even length alternate cyclically, so the flat identity is
    # the chain's (the normal-form theorem)
    assert n % 2 == m % 2 == 0
    assert wit["min_len"] == min(n, m) >= ell
    assert ell >= wit["threshold"] == math.ceil(
        Fraction(*data["chi"]) * min(n, m))
    h0 = T.side_group(wit["h0_side"]).element(map(tuple, wit["h0_json"]))
    end = flat_letters([w1[s % n] for s in range(i1 + 1 - ell, i1 + 1)]
                       + [Syllable(wit["h0_side"], h0)]
                       + [w2[s % m] for s in range(j2, j2 + ell)])
    assert all(sym in T.h_symbols for sym, _ in end)
    assert not (ell == n == m and not h0.payload and not end)
    return 1


def test_benchmark_ops_match_their_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    with open(RECORD) as fh:
        record = json.load(fh)
    ops = benchmark_ops()
    assert sorted(key for key, _ in ops) == sorted(record)
    replayed = witnesses = 0
    for n, (key, op) in enumerate(ops):
        workdir = tmp_path / str(n)
        workdir.mkdir()
        assert run_op(op, str(workdir), run_in_process) == record[key], key
        if op.command in ("solve-word", "check-smallcancel"):
            report = json.loads((workdir / "report.json").read_text())
        if op.command == "solve-word":
            replayed += replay_words_report(op.config, report)
        if op.command == "check-smallcancel":
            witnesses += replay_smallcancel_report(op.config, report)
    # per seed, the four words built as products of relator conjugates,
    # and corrupted's C' witness
    assert (replayed, witnesses) == (12, 3)
