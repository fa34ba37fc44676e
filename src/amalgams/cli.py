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
from fractions import Fraction

from amalgams import engine
from amalgams.report import CheckResult, emit_report, exit_status, \
    write_report
from amalgams.groups import FiniteTableGroup
from amalgams.canonical import (
    K_SIDE,
    L_SIDE,
    canonicalize,
    syllable,
)
from amalgams.cancellation import (
    build_quotient,
    certificate_to_json,
    check_cprime,
    dehn_decide,
    replay_certificate,
    replay_cprime_witness,
)
from amalgams.colorings import ColoringTable, hitting_scan, omega_sq_scope
from amalgams.systems import (
    FixtureError,
    generate_relators,
    load_system_fixture,
    typing_clause,
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

# integer config keys and their least values, checked where present
INT_KEYS = {"generators": 1, "stages": 1, "count": 1, "gamma": 0,
            "level": 0, "k_max": 0}
# the largest scan-colorings count: its tables grow with count squared;
# count 3000 takes 4-6 s and 243 MB, count 3300 5-8 s and 291 MB (peak
# RSS, x86-64), so memory, not time, sets this bound
MAX_COUNT = 3300
# the largest topology-chain k_max: the chain lists k_max + 1 levels,
# and k_max 300 takes about 0.6 s and 29 MB (single core, x86-64)
MAX_K_MAX = 300


def _load_config(path, command: str) -> tuple[dict, str]:
    """The parsed config, with the keys `command` needs, and the sha256
    of the file's bytes; raises ConfigError when it cannot be used."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        digest = hashlib.sha256(raw).hexdigest()
        # a words config is megabytes: let the bytes go before the parse
        text = raw.decode("utf-8")
        del raw
        config = json.loads(text)
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
    for key, least in INT_KEYS.items():
        value = config.get(key, least)
        if type(value) is not int or value < least:
            raise ConfigError(f"config {key!r} must be an integer >= "
                              f"{least}, not {value!r}")
    if config.get("count", 0) > MAX_COUNT:
        raise ConfigError(f"config 'count' must be at most {MAX_COUNT}, "
                          f"not {config['count']}")
    if config.get("k_max", 0) > MAX_K_MAX:
        raise ConfigError(f"config 'k_max' must be at most {MAX_K_MAX}, "
                          f"not {config['k_max']}")
    return config, digest


def _side_pool(group):
    """What a random syllable is drawn from: the elements of a finite
    table, the generators of a free group."""
    if isinstance(group, FiniteTableGroup):
        return group.elements()
    return [group.generator(s) for s in sorted(group.symbols, key=str)]


# check-amalgam's random words: how many, and the most syllables in one
SAMPLE_WORDS = 24
SAMPLE_WORD_LEN = 4


def _sample_words(T, rng):
    ks, ls = _side_pool(T.K), _side_pool(T.L)
    out = []
    for _ in range(SAMPLE_WORDS):
        sylls = []
        side = rng.choice((K_SIDE, L_SIDE))
        for _ in range(rng.randrange(1, SAMPLE_WORD_LEN + 1)):
            pool = ks if side == K_SIDE else ls
            g = rng.choice(pool)
            if rng.random() < 0.5:
                g = g.inv()
            sylls.append(syllable(side, g))
            side = L_SIDE if side == K_SIDE else K_SIDE
        out.append(sylls)
    return out


def cmd_check_amalgam(config, args):
    T, _, _ = load_system_fixture(config["fixture"])
    sample = _sample_words(T, random.Random(args.seed))
    # a normal form is a fixed point of normalization, syllable for
    # syllable: moving an H-factor across a seam changes the word
    for sylls in sample:
        w = canonicalize(sylls, T)
        if canonicalize(w.syllables, T).syllables != w.syllables:
            return [CheckResult("canonicalize-idempotent", "fail",
                                {"word": [str(s) for s in sylls]})]
    return [CheckResult("canonicalize-idempotent", "pass",
                        {"samples": len(sample)})]


def cmd_check_smallcancel(config, args):
    T, S, _ = load_system_fixture(config["fixture"])
    # C' is scanned on any system, but only typed entries spell relators
    for entry in S:
        clause = typing_clause(entry, T)
        if clause is not None:
            raise ConfigError(f"fixture {config['fixture']}: entry "
                              f"{entry.index} breaks {clause}")
    chi = config.get("chi", [1, 10])
    if not (type(chi) is list and len(chi) == 2 and all(
            type(x) is int for x in chi) and 0 < chi[0] <= chi[1]):
        raise ConfigError(f"config 'chi' must be [p, q], integers with "
                          f"0 < p <= q, not {chi!r}")
    chi = Fraction(*chi)
    R = generate_relators(S, T, chi=chi, check=False)
    res = check_cprime(R)
    data = {"chi": [chi.numerator, chi.denominator],
            "max_core": res.max_core, "pairs_scanned": res.pairs_scanned,
            "note": res.note}
    if res.status == "fail":
        data["witness"] = res.witness._asdict()
        data["witness_replayed"] = replay_cprime_witness(R, res.witness)
    if res.status == "inconclusive":
        data["budget"] = {"pairs_scanned": res.pairs_scanned}
    return [CheckResult("cprime", res.status, data)]


def _parse_word(T, spec, built, n):
    """Word `n` of a solve-word config as a canonical word.

    `built`, shared by all words of one command, maps a key of each
    syllable spec to its syllable, checked and built once: (side,
    symbol, sign) for one letter with an int sign, else (side, repr of
    the letters), whose repr tells True and 1.0 from 1. Raises
    ConfigError naming the word and syllable."""
    if not isinstance(spec, list):
        raise ConfigError(f"word {n} is not a list of syllables")
    sylls = []
    for i, item in enumerate(spec):
        try:
            side, letters = item["side"], item["letters"]
            try:
                (sym, sign), = letters
            except ValueError:
                sign = None
            key = (side, sym, sign) if type(sign) is int \
                else (side, repr(letters))
            syl = built.get(key)
        except (KeyError, TypeError):
            raise ConfigError(
                f"word {n} syllable {i} is not {{\"side\": ..., "
                f"\"letters\": [[symbol, sign], ...]}}") from None
        if syl is None:
            syl = built[key] = _build_syllable(
                T, item, f"word {n} syllable {i}")
        sylls.append(syl)
    return canonicalize(sylls, T)


def _build_syllable(T, item, where):
    """The syllable a solve-word syllable spec names; its letters are
    checked where every free-group element is built."""
    side, letters = item["side"], item["letters"]
    if side not in (K_SIDE, L_SIDE):
        raise ConfigError(f"{where}: side must be 'K' or 'L', not {side!r}")
    group = T.side_group(side)
    if isinstance(group, FiniteTableGroup):
        raise ConfigError(f"{where}: side {side} is a finite table; "
                          f"solve-word reads letters of free factors")
    try:
        return syllable(side, group.element(letters))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from None


def cmd_solve_word(config, args):
    T, S, hints = load_system_fixture(config["fixture"])
    if not isinstance(config["words"], list):
        raise ConfigError("config 'words' must be a list of words")
    # the words leave the config once built: their JSON objects take
    # about 25 MB for 61,018 syllables, which the quotient can then
    # reuse
    built = {}
    words = [_parse_word(T, spec, built, n)
             for n, spec in enumerate(config.pop("words"))]
    # words are only decided in the quotient of a valid system; an
    # invalid one is reported as the system check and nothing is solved
    rep = validate_system(S, T, hints=hints)
    if rep.status != "valid":
        return [_system_check(rep)]
    R = generate_relators(S, T)
    build_quotient(R)
    checks = []
    for n, w in enumerate(words):
        res = dehn_decide(w, R, budget=args.budget_len)
        data = {"verdict": res.status, "note": res.note}
        if res.status == "trivial":
            data["certificate"] = certificate_to_json(res.certificate)
            data["replayed"] = replay_certificate(w, res.certificate, R)
            # the report names the word, not its letters: check word-<n>
            # of the config file with this hash
            data["syllables"] = len(w)
            data["config_sha256"] = args.config_sha256
        status = "inconclusive" if res.status == "inconclusive" else "pass"
        if status == "inconclusive":
            data["budget"] = {"budget_len": args.budget_len}
        checks.append(CheckResult(f"word-{n}", status, data))
    return checks


def cmd_validate_system(config, args):
    T, S, hints = load_system_fixture(config["fixture"])
    return [_system_check(validate_system(S, T, hints=hints))]


def _system_check(rep):
    status = {"valid": "pass", "invalid": "fail"}[rep.status]
    # an exact verdict needs no note; the key keeps the layout that
    # verdict checks share
    data = {"verdict": rep.status, "note": "",
            "h_malnormal_in_l": rep.h_malnormal_in_l,
            "certificates": [{"i": c.i, "j": c.j, "case": c.case}
                             for c in rep.certificates]}
    if rep.witness:
        data["witness"] = rep.witness
    return CheckResult("system", status, data)


def _run_tower(config):
    try:
        colorings = ColoringTable.from_json(config.get("colorings") or {},
                                            config["stages"])
    except ValueError as exc:
        raise ConfigError(f"config 'colorings': {exc}") from None
    return engine.run_construction({**config, "colorings": colorings})


def cmd_build_stage(config, args):
    state = _run_tower(config)
    # a failed audit raises, and main reports it
    checks = [CheckResult("audits", "pass", {"records": len(state.audit)})]
    doc = engine.presentation(state)
    checks.append(CheckResult("presentation", "pass",
                              {"stage": doc["stage"],
                               "layers": len(doc["layers"])}))
    if args.out:
        # json.dumps runs the C encoder, json.dump the Python one
        args.side_files[args.out + ".presentation.json"] = json.dumps(
            doc, sort_keys=True)
    return checks


def cmd_run_construction(config, args):
    first = engine.summary_json(_run_tower(config))
    second = engine.summary_json(_run_tower(config))
    digest = hashlib.sha256(first.encode()).hexdigest()
    checks = [CheckResult(
        "deterministic-replay", "pass" if first == second else "fail",
        {"summary_sha256": digest, "bytes": len(first)})]
    if args.out:
        args.side_files[args.out + ".summary.json"] = first
    return checks


def cmd_scan_colorings(config, args):
    targets = config.get("targets") or []
    if not isinstance(targets, list) or not all(
            isinstance(t, list) and len(t) == 3 and
            all(type(x) is int and x >= 0 for x in t) for t in targets):
        raise ConfigError("config 'targets' must be a list of "
                          "[xi0, xi1, i] lists of integers >= 0")
    table = ColoringTable.from_walks(omega_sq_scope(config.get("count", 300)))
    contract = table.check_contract()
    checks = [CheckResult("subadditivity",
                          "fail" if "violation" in contract else "pass",
                          contract)]
    if targets:
        rep = hitting_scan(table.scope, [tuple(t) for t in targets],
                           table.c0, table.c1, table.e)
        full = rep["targets_hit"] == rep["targets"]
        checks.append(CheckResult(
            "hitting-scan", "pass" if full else "inconclusive",
            rep if full else {**rep, "budget": {"count": len(table.scope)}}))
    return checks


def cmd_topology_chain(config, args):
    state = _run_tower(config)
    gamma, level = config["gamma"], config["level"]
    layer = state.layers.get((gamma, level))
    if layer is None or layer.kind != "quotient":
        what = "was never built" if layer is None else f"is {layer.kind}"
        raise ConfigError(f"layer ({gamma}, {level}) {what}; topology-chain "
                          f"needs a quotient layer")
    rep = engine.topology_chain(gamma, level, config.get("k_max", 1), state)
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
        checks.append(CheckResult("pumped-avoid-n0", avoid["status"], avoid))
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
    p.add_argument("--budget-len", type=int, default=100_000,
                   help="Dehn rounds per word in solve-word")
    p.add_argument("--escalate-inconclusive", action="store_true")
    p.add_argument("--out", default=None, help="report output path")
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.budget_len <= 0:
        parser.exit(2, f"{parser.prog}: error: --budget-len must be "
                       "positive\n")
    out_dir = os.path.dirname(args.out or "") or "."
    if args.out and not (os.path.isdir(out_dir)
                         and os.access(out_dir, os.W_OK)):
        # checked before the work: the report and its side files go there
        parser.exit(2, f"{parser.prog}: error: cannot write report "
                       f"{args.out}: {out_dir} is not a writable directory\n")
    # a handler may leave side files, path -> text, written with the report
    args.side_files = {}
    try:
        config, args.config_sha256 = _load_config(args.config, args.command)
        checks = HANDLERS[args.command](config, args)
    except (ConfigError, FixtureError) as exc:
        parser.exit(2, f"{parser.prog}: error: {exc}\n")
    except engine.AuditFailure as exc:
        # the tower subcommands stop at the first failed promise audit
        checks = [CheckResult("audits", "fail", {"failed": exc.record})]
    doc = emit_report(args.command, args.seed, checks,
                      {"budget_len": args.budget_len})
    try:
        for path, text in args.side_files.items():
            what = f"side file {path}"
            with open(path, "w") as fh:
                fh.write(text)
        what = f"report {args.out}"
        write_report(doc, args.out)
    except OSError as exc:
        parser.exit(2, f"{parser.prog}: error: cannot write {what}: "
                       f"{exc.strerror}\n")
    return exit_status(doc, args.escalate_inconclusive)


if __name__ == "__main__":
    sys.exit(main())
