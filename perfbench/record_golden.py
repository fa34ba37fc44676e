"""Record the tower summary hashes that the ``tower`` workload expects.

    python3 perfbench/record_golden.py

Runs ``amalgams run-construction`` on the quotient tower and on every
tall-tower variant and writes their ``summary_sha256`` to ``golden.json``.
The stored values were recorded at the commit that introduced this
benchmark; re-record only when a change is meant to alter the summary.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

from run import HERE, ROOT, child_env, spawn
import workloads


def summary_hash(config: dict, workdir: str) -> str:
    cfg = os.path.join(workdir, "config.json")
    report = os.path.join(workdir, "report.json")
    with open(cfg, "w") as fh:
        json.dump(config, fh)
    code, _ = spawn([sys.executable, "-m", "amalgams.cli",
                     "run-construction", "--config", cfg, "--out", report],
                    child_env(), os.path.join(workdir, "log"))
    if code != 0:
        raise SystemExit(f"run-construction exited {code}")
    with open(report) as fh:
        (check,) = json.load(fh)["checks"]
    return check["data"]["summary_sha256"]


def main() -> None:
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as wd:
        golden = {"tower_sha256": summary_hash(workloads.TOWER, wd),
                  "tall_sha256": {
                      str(v): summary_hash(workloads.tall_tower(v), wd)
                      for v in range(workloads.TALL_VARIANTS)}}
    with open(os.path.join(HERE, "golden.json"), "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(json.dumps(golden, indent=1))


if __name__ == "__main__":
    main()
