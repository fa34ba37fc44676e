"""Command-line surface: batch checkers, solvers, and construction runs.

Every subcommand reads a JSON config, runs the relevant module
contracts, and writes a schema-versioned JSON report.  Exit status is 0
iff no check failed; inconclusive results are non-fatal unless
escalated, because most of the underlying questions are only
semi-decidable and the tool refuses to pretend otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import sys
from dataclasses import asdict
from fractions import Fraction

from amalgams import engine
from amalgams.report import CheckResult, emit_report, exit_status, \
    write_report
from amalgams.groups import ElementRegistry, Tri
from amalgams.canonical import (
    K_SIDE,
    L_SIDE,
    canonical_equal,
    canonicalize,
    syllable,
    word_to_json,
)
from amalgams.cancellation import (
    build_quotient,
    certificate_to_json,
    check_cprime,
    dehn_decide,
    replay_certificate,
    replay_cprime_witness,
)
from amalgams.systems import (
    generate_relators,
    load_system_fixture,
    validate_system,
)


class ConfigError(ValueError):
    """A config that cannot be read or lacks what its command needs."""


# config keys each command reads unconditionally; checked before dispatch
# so that a bad config is a usage error (exit 2), not a traceback
REQUIRED_KEYS = {
    "check-amalgam": ("fixture",),
    "check-smallcancel": ("fixture",),
    "solve-word": ("fixture", "words"),
    "validate-system": ("fixture",),
    "build-stage": ("generators", "stages"),
    "run-construction": ("generators", "stages"),
    "scan-colorings": (),
    "topology-chain": ("generators", "stages", "gamma", "level"),
}


def _load_config(path, command: str) -> dict:
    """The parsed config, with the keys `command` needs; raises
    ConfigError when it cannot be used."""
    try:
        with open(path) as fh:
            config = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    if not isinstance(config, dict):
        raise ConfigError(f"config {path} is not a JSON object")
    missing = [k for k in REQUIRED_KEYS[command] if k not in config]
    if missing:
        raise ConfigError(f"{command} config lacks key(s): "
                          f"{', '.join(missing)}")
    fixture = config.get("fixture")
    if "fixture" in REQUIRED_KEYS[command] and not (
            isinstance(fixture, str) and os.path.isfile(fixture)):
        raise ConfigError(f"fixture {fixture!r} is not a file")
    gens = config.get("generators")
    if gens is not None and not (isinstance(gens, int) and gens >= 1):
        raise ConfigError(f"config 'generators' must be an integer >= 1, "
                          f"not {gens!r}")
    return config


def _sample_words(T, rng, count, max_len):
    ks = [T.K.generator(s) for s in sorted(T.K.symbols, key=str)]
    ls = [T.L.generator(s) for s in sorted(T.L.symbols, key=str)]
    out = []
    for _ in range(count):
        sylls = []
        side = rng.choice((K_SIDE, L_SIDE))
        for _ in range(rng.randrange(1, max_len + 1)):
            pool = ks if side == K_SIDE else ls
            g = rng.choice(pool)
            if rng.random() < 0.5:
                g = g.inv()
            sylls.append(syllable(side, g))
            side = L_SIDE if side == K_SIDE else K_SIDE
        out.append(sylls)
    return out


def cmd_check_amalgam(config, args):
    T, S, hints, flags = load_system_fixture(config["fixture"])
    rng = random.Random(args.seed)
    checks = []
    # shared-subgroup sanity: H reads the same from both sides
    hs = T.h_sample(8)
    ok = all(T.in_H(h) is Tri.YES for h in hs)
    ok = ok and all(
        T.transfer(T.transfer(h, L_SIDE), K_SIDE).payload == h.payload
        for h in hs)
    checks.append(CheckResult(
        "h-transfer-roundtrip", "pass" if ok else "fail",
        {"samples": len(hs)}))
    # normalization is idempotent and equality is reflexive on samples
    words_sample = _sample_words(T, rng, 24, 4)
    stable = 0
    for sylls in words_sample:
        w = canonicalize(sylls, T)
        w2 = canonicalize(w.syllables, T)
        if canonical_equal(w, w2, T) is not Tri.YES:
            checks.append(CheckResult(
                "canonicalize-idempotent", "fail",
                {"word": [str(s) for s in sylls]}))
            break
        stable += 1
    else:
        checks.append(CheckResult("canonicalize-idempotent", "pass",
                                  {"samples": stable}))
    return checks


def cmd_check_smallcancel(config, args):
    T, S, hints, flags = load_system_fixture(config["fixture"])
    chi = Fraction(*config.get("chi", (1, 10)))
    R = generate_relators(S, T, chi=chi, hints=hints,
                          assume_h_malnormal=flags["assume_h_malnormal"],
                          skip_validation=True, check=False)
    res = check_cprime(R)
    data = {"chi": [chi.numerator, chi.denominator],
            "max_core": res.max_core, "pairs_scanned": res.pairs_scanned,
            "note": res.note}
    if res.status == "fail":
        data["witness"] = asdict(res.witness)
        data["witness_replayed"] = replay_cprime_witness(R, res.witness)
    if res.status == "inconclusive":
        data["budget"] = {"pairs_scanned": res.pairs_scanned}
    return [CheckResult("cprime", res.status, data)]


def _parse_word(T, spec):
    sylls = []
    for item in spec:
        grp = T.K if item["side"] == K_SIDE else T.L
        elt = grp.word_element([(s, sign) for s, sign in item["letters"]])
        sylls.append(syllable(item["side"], elt))
    return canonicalize(sylls, T)


def cmd_solve_word(config, args):
    T, S, hints, flags = load_system_fixture(config["fixture"])
    R = generate_relators(S, T, hints=hints,
                          assume_h_malnormal=flags["assume_h_malnormal"])
    Q = build_quotient(T, R)
    checks = []
    for n, spec in enumerate(config["words"]):
        w = _parse_word(T, spec)
        res = dehn_decide(w, R, k=Q.k, budget=args.budget_len)
        data = {"verdict": res.status, "note": res.note}
        if res.status == "trivial":
            data["certificate"] = certificate_to_json(res.certificate)
            data["replayed"] = replay_certificate(w, res.certificate, R)
            reg = ElementRegistry()
            data["word"] = word_to_json(w, reg)
            data["elements"] = reg.dump_json()
        status = "inconclusive" if res.status == "inconclusive" else "pass"
        if status == "inconclusive":
            data["budget"] = {"budget_len": args.budget_len}
        checks.append(CheckResult(f"word-{n}", status, data))
    return checks


def cmd_validate_system(config, args):
    T, S, hints, flags = load_system_fixture(config["fixture"])
    rep = validate_system(S, T, hints=hints,
                          assume_h_malnormal=flags["assume_h_malnormal"])
    status = {"valid": "pass", "invalid": "fail"}.get(
        rep.status, "inconclusive")
    data = {"verdict": rep.status, "note": rep.note,
            "h_malnormal_in_l": rep.h_malnormal_in_l,
            "certificates": [
                {"i": c.i, "j": c.j, "case": c.case} for c in
                (rep.certificates or [])]}
    if rep.witness:
        data["witness"] = rep.witness
    if status == "inconclusive":
        data["budget"] = {"budget_len": args.budget_len}
    return [CheckResult("system", status, data)]


def _run_tower(config):
    return engine.run_construction(config)


def cmd_build_stage(config, args):
    state = _run_tower(config)
    checks = [CheckResult(
        "audits", "pass" if all(a["status"] == "pass" for a in state.audit)
        else "fail", {"records": len(state.audit)})]
    doc = engine.presentation(state)
    checks.append(CheckResult("presentation", "pass",
                              {"stage": doc["stage"],
                               "layers": len(doc["layers"])}))
    if args.out:
        with open(args.out + ".presentation.json", "w") as fh:
            json.dump(doc, fh, sort_keys=True)
    return checks


def cmd_run_construction(config, args):
    first = engine.summary_json(_run_tower(config))
    second = engine.summary_json(_run_tower(config))
    digest = hashlib.sha256(first.encode()).hexdigest()
    checks = [CheckResult(
        "deterministic-replay", "pass" if first == second else "fail",
        {"summary_sha256": digest, "bytes": len(first)})]
    if args.out:
        with open(args.out + ".summary.json", "w") as fh:
            fh.write(first)
    return checks


def cmd_scan_colorings(config, args):
    from amalgams.colorings import (
        ColoringTable, hitting_scan, omega_sq_scope)
    scope = omega_sq_scope(int(config.get("count", 300)))
    table = ColoringTable.from_walks(scope)
    contract = table.check_contract()
    checks = [CheckResult("subadditivity", "pass", contract)]
    targets = config.get("targets")
    if targets:
        rep = hitting_scan(scope, [tuple(t) for t in targets],
                           table.c0, table.c1, table.e)
        checks.append(CheckResult(
            "hitting-scan",
            "pass" if rep["targets_hit"] == rep["targets"] else
            "inconclusive",
            rep if rep["targets_hit"] == rep["targets"] else
            {**rep, "budget": {"count": len(scope)}}))
    return checks


def cmd_topology_chain(config, args):
    state = _run_tower(config)
    rep = engine.topology_chain(
        int(config["gamma"]), int(config["level"]),
        int(config.get("k_max", 1)), args.budget_len, state)
    checks = []
    nested = all(c.get("subset_of_previous", True) for c in rep["chain"])
    checks.append(CheckResult("chain-nesting",
                              "pass" if nested else "fail",
                              {"levels": len(rep["chain"])}))
    if "fragment_cprime" in rep:
        checks.append(CheckResult("fragment-cprime",
                                  rep["fragment_cprime"]["status"],
                                  rep["fragment_cprime"]))
        avoid = rep["pumped_avoid_n0"]
        data = dict(avoid)
        if avoid["status"] == "inconclusive":
            data["budget"] = {"budget_len": args.budget_len}
        checks.append(CheckResult("pumped-avoid-n0", avoid["status"], data))
    return checks


HANDLERS = {
    "check-amalgam": cmd_check_amalgam,
    "check-smallcancel": cmd_check_smallcancel,
    "solve-word": cmd_solve_word,
    "validate-system": cmd_validate_system,
    "build-stage": cmd_build_stage,
    "run-construction": cmd_run_construction,
    "scan-colorings": cmd_scan_colorings,
    "topology-chain": cmd_topology_chain,
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="amalgams",
        description="checkers and construction runs for amalgam quotients")
    p.add_argument("command", choices=HANDLERS)
    p.add_argument("--config", required=True, help="JSON config path")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget-len", type=int, default=100_000)
    p.add_argument("--escalate-inconclusive", action="store_true")
    p.add_argument("--out", default=None, help="report output path")
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.budget_len <= 0:
        print("budgets must be positive", file=sys.stderr)
        return 2
    try:
        config = _load_config(args.config, args.command)
    except ConfigError as exc:
        parser.exit(2, f"{parser.prog}: error: {exc}\n")
    checks = HANDLERS[args.command](config, args)
    doc = emit_report(args.command, args.seed, checks,
                      {"budget_len": args.budget_len})
    write_report(doc, args.out)
    return exit_status(doc, args.escalate_inconclusive)


if __name__ == "__main__":
    sys.exit(main())
