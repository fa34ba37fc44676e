"""Time ``solve-word`` on long Dehn words, one process per word.

    python tests/dehn_scale.py [--src DIR]

The words of ROADMAP item 12's Dehn table, over the ``with_h`` fixture:

* for N = 16 and N = 32 and seeds 3-5, the product of N relator
  conjugates u_n · r^±1 · u_n^-1, with r the fixture's ρ relator, the
  sign and u_n drawn from ``random.Random(seed)``: u_n alternates 4
  syllables from K for even n and 5 from L for odd n, one letter each;
* one conjugate u · r · u^-1 with u of 3,001 alternating syllables from
  K, whose certificate needs at least 3,000 ``cyclic-reduce`` steps.

Every word is trivial. Each runs as ``python -m amalgams.cli
solve-word`` with ``DIR`` (default: this checkout's ``src``) alone on
PYTHONPATH, from the repository root, and the script prints one row per
word: N, seed, letters, the certificate's ``replace`` and
``cyclic-reduce`` steps, whether it replayed, and the wall time of the
process. It exits 1 if a word is not decided trivial with a replayed
certificate, or if the long word has fewer than 3,000 ``cyclic-reduce``
steps. The words are rebuilt by the same functions as the benchmark's
words workload (``perfbench/workloads.py``), which it only reads.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
import tempfile
import time

from op_digests import ROOT, workloads_module

FIXTURE = "fixtures/systems/with_h.json"
LONG_CONJUGATOR = 3001


def scale_words():
    """(N, seed, letters) for every word of the table, then the long
    conjugate as (1, None, letters)."""
    wl = workloads_module()
    with open(os.path.join(ROOT, FIXTURE)) as fh:
        fx = json.load(fh)
    (entry,) = fx["entries"]
    h = set(fx["h_symbols"])
    k_pool = [(s, e) for s in sorted(set(fx["k_symbols"]) - h)
              for e in (1, -1)]
    l_pool = [(s, e) for s in sorted(set(fx["l_symbols"]) - h)
              for e in (1, -1)]
    r = wl.relator(entry)
    out = []
    for count in (16, 32):
        for seed in (3, 4, 5):
            rng = random.Random(seed)
            word = []
            for n in range(count):
                first, size = ("K", 4) if n % 2 == 0 else ("L", 5)
                u = wl.alternating_word(rng, k_pool, l_pool, size, first)
                part = r if rng.random() < 0.5 else wl.inverse(r)
                word += u + part + wl.inverse(u)
            out.append((count, seed, wl.free_reduce(word)))
    u = wl.alternating_word(random.Random(0), k_pool, l_pool,
                            LONG_CONJUGATOR, "K")
    out.append((1, None, wl.free_reduce(u + r + wl.inverse(u))))
    return out, set(fx["k_symbols"]) - h, set(fx["l_symbols"]) - h


def run_word(src: str, letters, k_only, l_only, tmp: str) -> tuple:
    """(seconds, check data) of one solve-word process on one word."""
    wl = workloads_module()
    cfg, out = os.path.join(tmp, "config.json"), os.path.join(tmp, "out")
    with open(cfg, "w") as fh:
        json.dump({"fixture": FIXTURE,
                   "words": [wl.to_syllables(letters, k_only, l_only)]}, fh)
    env = {**os.environ, "PYTHONPATH": src}
    start = time.perf_counter()
    subprocess.run([sys.executable, "-m", "amalgams.cli", "solve-word",
                    "--config", cfg, "--out", out], cwd=ROOT, env=env,
                   check=True)
    seconds = time.perf_counter() - start
    with open(out) as fh:
        (check,) = json.load(fh)["checks"]
    return seconds, check["data"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--src", default=os.path.join(ROOT, "src"))
    args = ap.parse_args(argv)
    words, k_only, l_only = scale_words()
    bad = 0
    print("N\tseed\tletters\treplace\tcyclic-reduce\treplayed\tseconds")
    with tempfile.TemporaryDirectory() as tmp:
        for count, seed, letters in words:
            seconds, data = run_word(os.path.abspath(args.src), letters,
                                     k_only, l_only, tmp)
            kinds = [step["kind"] for step in data.get("certificate", [])]
            reduce = kinds.count("cyclic-reduce")
            print(f"{count}\t{seed}\t{len(letters)}\t{kinds.count('replace')}"
                  f"\t{reduce}\t{data.get('replayed')}\t{seconds:.2f}",
                  flush=True)
            bad += data["verdict"] != "trivial" or not data["replayed"] \
                or (seed is None and reduce < LONG_CONJUGATOR - 1)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
