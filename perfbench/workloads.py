"""Seeded inputs and independent expectations for the benchmark workloads.

Each workload is a list of ops.  An op is one ``amalgams`` subcommand with
its config and an expectation.  No expectation is computed by the package
under test: verdicts come from the source paper and the fixture files,
word verdicts from how each word was built plus an abelianization oracle,
coloring scans from an integer re-implementation of walks on omega^2, and
tower hashes from ``golden.json`` (recorded once at the seed commit).
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))

FIXTURES = ("with_h", "trivial_h", "d_case", "corrupted")
# C' verdicts per fixture: corrupted violates C' by construction, and its
# witness must replay.
CPRIME = {"with_h": "pass", "trivial_h": "pass", "d_case": "pass",
          "corrupted": "fail"}

# The quotient tower of tests/test_cli.py::tower_config; c1 = 454 is
# q_code(3, 3, 2, 1), so a quotient layer forms at (5, 2).
TOWER = {"generators": 3, "stages": 6, "colorings": {
    "e": {"0,5": 0, "1,5": 0, "2,5": 1, "3,5": 2, "4,5": 2},
    "c0": {"3,5": 0}, "c1": {"3,5": 454}}}

# Tall free tower: no c0/c1, so every layer is free and the engine's
# audits and transversals dominate.  The e-coloring is one of
# TALL_VARIANTS, picked by the seed, so its summary hash is on record.
TALL_GENERATORS = 3
TALL_STAGES = 26
TALL_LEVELS = 3
TALL_VARIANTS = 8

# scan-colorings: a build-heavy op (large scope, no targets) and a
# lookup-heavy op (smaller scope, many targets).
BUILD_COUNT = 170
LOOKUP_COUNT = 110
LOOKUP_TARGETS = 48

RHO_BLOCKS = 80
MUTANT_SPAN = 120
LONG_CONJUGATOR = 300


@dataclass
class Op:
    label: str
    command: str
    config: dict
    expect: Dict[str, object] = field(default_factory=dict)


def load_golden() -> dict:
    with open(os.path.join(HERE, "golden.json")) as fh:
        return json.load(fh)


def build(workload: str, seed: int, root: str) -> List[Op]:
    """The ops of one workload, generated from the seed."""
    return BUILDERS[workload](random.Random(f"{workload}/{seed}"), seed, root)


# ---------------------------------------------------------------------------
# fixtures


def _fixture(root: str, name: str) -> str:
    return os.path.join(root, "fixtures", "systems", name + ".json")


def fixtures_ops(rng, seed, root) -> List[Op]:
    ops = []
    for name in FIXTURES:
        expect = {"exit": 0 if CPRIME[name] == "pass" else 1,
                  "checks": {"cprime": CPRIME[name]}}
        if CPRIME[name] == "fail":
            expect["witness_replayed"] = True
        ops.append(Op(f"check-smallcancel:{name}", "check-smallcancel",
                      {"fixture": _fixture(root, name)}, expect))
    ops.append(Op("check-amalgam:with_h", "check-amalgam",
                  {"fixture": _fixture(root, "with_h")},
                  {"exit": 0, "all_pass": True}))
    for name in ("d_case", "corrupted"):
        with open(_fixture(root, name)) as fh:
            verdict = json.load(fh)["expected"]
        ops.append(Op(f"validate-system:{name}", "validate-system",
                      {"fixture": _fixture(root, name)},
                      {"exit": 0 if verdict == "valid" else 1,
                       "system_verdict": verdict}))
    return ops


# ---------------------------------------------------------------------------
# words: free-group words over the with_h alphabet, judged without Dehn

Letter = Tuple[str, int]


def free_reduce(word: Sequence[Letter]) -> List[Letter]:
    out: List[Letter] = []
    for s, e in word:
        if out and out[-1] == (s, -e):
            out.pop()
        else:
            out.append((s, e))
    return out


def inverse(word: Sequence[Letter]) -> List[Letter]:
    return [(s, -e) for s, e in reversed(word)]


def relator(entry: dict) -> List[Letter]:
    """h^-1 rho(b a, b' a) with rho(x, y) = x y x^2 y ... x^80 y."""
    h, a, b, bp = (list(map(tuple, entry[k]))
                   for k in ("h", "a", "b", "bprime"))
    x, y = b + a, bp + a
    word = inverse(h)
    for i in range(1, RHO_BLOCKS + 1):
        word += x * i + y
    return free_reduce(word)


def abelianize(word: Sequence[Letter], symbols: Sequence[str]) -> List[int]:
    vec = dict.fromkeys(symbols, 0)
    for s, e in word:
        vec[s] += e
    return [vec[s] for s in symbols]


def in_relator_lattice(v: Sequence[int], r: Sequence[int]) -> bool:
    """Is v an integer multiple of r?  For a one-relator quotient a word
    outside this lattice is nontrivial: its image in the abelianization
    Z^n / <r> is nonzero."""
    i = next(i for i, x in enumerate(r) if x)
    if v[i] % r[i]:
        return False
    m = v[i] // r[i]
    return all(a == m * b for a, b in zip(v, r))


def random_word(rng, pool: Sequence[Letter], length: int) -> List[Letter]:
    out: List[Letter] = []
    while len(out) < length:
        s, e = rng.choice(pool)
        if out and out[-1] == (s, -e):
            continue
        out.append((s, e))
    return out


def alternating_word(rng, k_pool, l_pool, syllables: int,
                     first: str = "K") -> List[Letter]:
    """One letter per syllable, sides alternating from ``first``:
    reduced by design."""
    pools = (k_pool, l_pool) if first == "K" else (l_pool, k_pool)
    return [rng.choice(pools[n % 2]) for n in range(syllables)]


def to_syllables(word: Sequence[Letter], k_only, l_only) -> List[dict]:
    """Split a reduced word into same-side runs; shared (H) letters join
    the run they sit in."""
    out: List[dict] = []
    side = None
    for s, e in word:
        here = "K" if s in k_only else "L" if s in l_only else (side or "K")
        if here != side:
            out.append({"side": here, "letters": []})
            side = here
        out[-1]["letters"].append([s, e])
    return out


def words_ops(rng, seed, root) -> List[Op]:
    path = _fixture(root, "with_h")
    with open(path) as fh:
        fx = json.load(fh)
    (entry,) = fx["entries"]
    k_only = set(fx["k_symbols"]) - set(fx["h_symbols"])
    l_only = set(fx["l_symbols"]) - set(fx["h_symbols"])
    symbols = sorted(set(fx["k_symbols"]) | set(fx["l_symbols"]))
    pool = [(s, e) for s in symbols for e in (1, -1)]
    k_pool = [(s, e) for s in sorted(k_only) for e in (1, -1)]
    l_pool = [(s, e) for s in sorted(l_only) for e in (1, -1)]
    r = relator(entry)
    ab_r = abelianize(r, symbols)

    def conjugate(u, w):
        return free_reduce(u + w + inverse(u))

    def relator_conjugate(first, syllables):
        # conjugators end on the L side, so nothing cancels against the
        # relator's ends (K letters) and the Dehn work per word is steady
        u = alternating_word(rng, k_pool, l_pool, syllables, first)
        return conjugate(u, r if rng.random() < 0.5 else inverse(r))

    def off_lattice(length):
        while True:
            w = free_reduce(random_word(rng, pool, length))
            if w and not in_relator_lattice(abelianize(w, symbols), ab_r):
                return w

    batch: List[Tuple[str, List[Letter]]] = []
    batch += [("conj1", relator_conjugate("K", 4)) for _ in range(2)]
    # u1 starts on K and u2 on L, so u1^-1 u2 neither cancels nor merges
    batch += [("conj2", relator_conjugate("K", 4)
               + relator_conjugate("L", 5)) for _ in range(2)]
    # a mutation within the first or last MUTANT_SPAN L-letters leaves a
    # long part of the relator to replace; deeper in, the cyclic-reduce
    # tail after the replacement grows quadratically
    l_positions = [i for i, (s, _) in enumerate(r) if s in l_only]
    ends = l_positions[:MUTANT_SPAN] + l_positions[-MUTANT_SPAN:]
    for _ in range(3):
        w = list(r)
        i = rng.choice(ends)
        s, e = w[i]
        w[i] = (rng.choice(sorted(l_only - {s})), e)
        batch.append(("mutant", w))
    batch += [("short", off_lattice(5)) for _ in range(4)]
    batch += [("longconj", conjugate(
        alternating_word(rng, k_pool, l_pool, LONG_CONJUGATOR),
        off_lattice(4))) for _ in range(2)]

    verdicts = []
    for kind, w in batch:
        if kind.startswith("conj"):
            verdicts.append("trivial")
        else:
            # every other kind is built off the relator lattice
            if in_relator_lattice(abelianize(w, symbols), ab_r):
                raise AssertionError(f"{kind} word fell on the lattice")
            verdicts.append("nontrivial")
    config = {"fixture": path,
              "words": [to_syllables(w, k_only, l_only) for _, w in batch]}
    return [Op("solve-word:with_h", "solve-word", config,
               {"exit": 0, "word_verdicts": verdicts})]


# ---------------------------------------------------------------------------
# tower


def tall_tower(variant: int) -> dict:
    rng = random.Random(f"tall/{variant}")
    e = {}
    for gamma in range(1, TALL_STAGES):
        for beta in range(gamma):
            v = rng.randrange(TALL_LEVELS)
            if v:
                e[f"{beta},{gamma}"] = v
    return {"generators": TALL_GENERATORS, "stages": TALL_STAGES,
            "colorings": {"e": e}}


def tower_ops(rng, seed, root) -> List[Op]:
    golden = load_golden()
    variant = seed % TALL_VARIANTS
    topo = {**TOWER, "gamma": 5, "level": 2, "k_max": 2}
    return [
        Op("build-stage:quotient", "build-stage", TOWER,
           {"exit": 0, "checks": {"audits": "pass", "presentation": "pass"},
            "layer_kinds": {"5,2": "quotient"}}),
        Op("run-construction:quotient", "run-construction", TOWER,
           {"exit": 0, "checks": {"deterministic-replay": "pass"},
            "sha256": golden["tower_sha256"]}),
        Op("topology-chain:quotient", "topology-chain", topo,
           {"exit": 0, "all_pass": True,
            "checks": {"chain-nesting": "pass", "fragment-cprime": "pass",
                       "pumped-avoid-n0": "pass"}}),
        Op(f"run-construction:tall{variant}", "run-construction",
           tall_tower(variant),
           {"exit": 0, "checks": {"deterministic-replay": "pass"},
            "sha256": golden["tall_sha256"][str(variant)]}),
    ]


# ---------------------------------------------------------------------------
# colorings: an integer model of walks on omega^2, independent of the
# package's Cantor-normal-form code.  (a, b) stands for omega*a + b; the
# ladder of a successor is its predecessor, the ladder of omega*a is
# omega*(a-1) + n + 1 for n = 0, 1, ...


def scope(count: int) -> List[Tuple[int, int]]:
    side = math.isqrt(count) + 2
    return sorted(itertools.product(range(side), repeat=2))[:count]


def ord_str(o: Tuple[int, int]) -> str:
    a, b = o
    if not a:
        return str(b)
    head = "w" if a == 1 else f"w*{a}"
    return head + (f"+{b}" if b else "")


def _step(delta, alpha):
    """(least ladder point of delta not below alpha, its index)."""
    a, b = delta
    if b:
        return (a, b - 1), 0
    if alpha[0] < a - 1:
        return (a - 1, 1), 0
    n = max(0, alpha[1] - 1)
    return (a - 1, n + 1), n


def _below(delta, alpha):
    """Ladder points of delta below alpha."""
    a, b = delta
    if b or alpha[0] < a - 1:
        return []
    return [(a - 1, j) for j in range(1, alpha[1])]


class WalkModel:
    def __init__(self):
        self.memo = {}

    def e(self, alpha, beta) -> int:
        if alpha == beta:
            return 0
        key = (alpha, beta)
        if key not in self.memo:
            nxt, otp = _step(beta, alpha)
            value = max(otp, self.e(alpha, nxt))
            for xi in _below(beta, alpha):
                value = max(value, self.e(xi, alpha))
            self.memo[key] = value
        return self.memo[key]

    @staticmethod
    def c(alpha, beta) -> Tuple[int, int]:
        """(walk steps from beta down to alpha, otp of beta's first
        ladder below alpha)."""
        steps, cur = 0, beta
        while cur != alpha:
            cur, _ = _step(cur, alpha)
            steps += 1
        return steps, _step(beta, alpha)[1]


def coloring_table(count: int) -> Dict[tuple, Tuple[int, int, int]]:
    """(c0, c1, e) for every pair alpha < beta of the scope.  The package
    composes c from cantor_unpair(cantor_pair(walk steps, first otp)),
    which is the pair itself."""
    model = WalkModel()
    return {(alpha, beta): (*model.c(alpha, beta), model.e(alpha, beta))
            for alpha, beta in itertools.combinations(scope(count), 2)}


def hitting_report(table, targets) -> dict:
    by_pair: Dict[Tuple[int, int], list] = {}
    for (alpha, beta), (c0, c1, e) in table.items():
        by_pair.setdefault((c0, c1), []).append((beta, e))
    witnesses, hit = {}, 0
    for xi0, xi1, i in targets:
        counts: Dict[tuple, int] = {}
        for beta, e in by_pair.get((xi0, xi1), ()):
            if e > i:
                counts[beta] = counts.get(beta, 0) + 1
        witnesses[f"{xi0},{xi1},>{i}"] = {
            ord_str(beta): n for beta, n in sorted(counts.items())}
        hit += bool(counts)
    return {"targets": len(targets), "targets_hit": hit,
            "witnesses": witnesses}


def colorings_ops(rng, seed, root) -> List[Op]:
    table = coloring_table(LOOKUP_COUNT)
    pairs = sorted(k for k, v in table.items() if v[2] >= 1)
    targets = []
    for _ in range(LOOKUP_TARGETS // 2):
        c0, c1, e = table[rng.choice(pairs)]
        targets.append([c0, c1, rng.randrange(e)])
    for _ in range(LOOKUP_TARGETS - len(targets)):
        targets.append([rng.randrange(12), rng.randrange(12),
                        rng.randrange(3)])
    rng.shuffle(targets)
    rep = hitting_report(table, targets)
    full = rep["targets_hit"] == rep["targets"]

    def triples(n):
        return n * (n - 1) * (n - 2) // 6

    return [
        Op(f"scan-colorings:{BUILD_COUNT}", "scan-colorings",
           {"count": BUILD_COUNT},
           {"exit": 0, "checks": {"subadditivity": "pass"},
            "triples": triples(BUILD_COUNT)}),
        Op(f"scan-colorings:{LOOKUP_COUNT}x{LOOKUP_TARGETS}",
           "scan-colorings", {"count": LOOKUP_COUNT, "targets": targets},
           {"exit": 0,
            "checks": {"subadditivity": "pass",
                       "hitting-scan": "pass" if full else "inconclusive"},
            "triples": triples(LOOKUP_COUNT), "hitting": rep}),
    ]


BUILDERS = {"fixtures": fixtures_ops, "words": words_ops,
            "tower": tower_ops, "colorings": colorings_ops}
