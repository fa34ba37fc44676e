"""Checks on the benchmark itself.

    python3 perfbench/selftest.py [--seed N] [WORKLOAD ...]

1. A tampered expectation must be caught: one op of the ``fixtures``
   workload is given a wrong expected verdict, and its pass must report a
   failed ratio above zero.
2. Counters must repeat exactly: for each workload (default: all), two
   traced passes with the same seed must give identical counts.  Times
   (``busy_s``, ``self_s``) are excluded; every other number is compared.

Exits 1 if either check fails.
"""

from __future__ import annotations

import argparse
import copy
import shutil
import sys
import tempfile

from run import ROOT, child_env, layer_metrics, run_pass, setup, \
    write_configs
import workloads


def tamper_check(env, workdir) -> bool:
    ops, _ = setup("fixtures", 0, workdir, env)
    (op,) = [o for o in ops if o.label == "validate-system:d_case"]
    bad = copy.deepcopy(op)
    bad.expect["system_verdict"] = "invalid"
    batch = [op, bad]
    write_configs(batch, workdir)
    p = run_pass(batch, workdir, env, traced=False)
    ratio = len(p.failures) / len(batch)
    print(f"tampered expectation: failed_ratio {ratio:.2f} "
          f"({sorted(p.failures.items())})")
    return ratio > 0 and 1 in p.failures and 0 not in p.failures


def repeat_check(workload, seed, env, workdir) -> bool:
    ops, _ = setup(workload, seed, workdir, env)
    runs = [layer_metrics(run_pass(ops, workdir, env, traced=True).traces)
            for _ in range(2)]
    counters = sorted(k for k in runs[0]
                      if not k.endswith(("busy_s", "self_s")))
    differ = [k for k in counters if runs[0][k] != runs[1].get(k)]
    print(f"{workload}: {len(counters)} counters, "
          f"{len(differ)} differ between two traced passes")
    for k in differ:
        print(f"  {k}: {runs[0][k]} vs {runs[1].get(k)}")
    return not differ


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("workloads", nargs="*",
                    default=sorted(workloads.BUILDERS))
    args = ap.parse_args()
    env = child_env()
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        ok = tamper_check(env, workdir)
        for w in args.workloads:
            ok = repeat_check(w, args.seed, env, workdir) and ok
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("selftest", "ok" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
