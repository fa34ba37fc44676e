"""The benchmark ops and the digests of what they write.

    python tests/op_digests.py

records ``tests/op_digests.json``: for every op that
``perfbench/workloads.build`` gives for the four workloads at seeds
11-13, its exit code and the sha256 of each file it writes (its report
and any side file). Each op runs in a fresh process, as the benchmark
runs it, from the repository root. Configs name their fixtures by paths
relative to that root, so a words report, which hashes its config, has
the same bytes in any checkout.

``tests/test_op_digests.py`` reruns the ops in one process and compares
them with the record.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RECORD = os.path.join(ROOT, "tests", "op_digests.json")
WORKLOADS = ("fixtures", "words", "tower", "colorings")
SEEDS = (11, 12, 13)


def workloads_module():
    """perfbench/workloads.py, loaded once under its own module name
    (its dataclasses look their module up by name)."""
    name = "perfbench_workloads"
    if name not in sys.modules:
        path = os.path.join(ROOT, "perfbench", "workloads.py")
        spec = importlib.util.spec_from_file_location(name, path)
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


def benchmark_ops():
    """(key, op) for every op, keyed "<workload>/<seed>/<n>:<label>".
    Reads the fixtures by relative path: run from the repository root."""
    build = workloads_module().build
    return [(f"{workload}/{seed}/{n}:{op.label}", op)
            for workload in WORKLOADS for seed in SEEDS
            for n, op in enumerate(build(workload, seed, "."))]


def run_op(op, workdir: str, run) -> dict:
    """{"exit": code, "files": {name: sha256}} for one op. The op's
    config is written as the benchmark writes it, and ``run(argv)``
    gives the exit code of the CLI on ``argv``; the files are those the
    op wrote into the otherwise empty ``workdir``."""
    cfg = os.path.join(workdir, "config.json")
    with open(cfg, "w") as fh:
        fh.write(json.dumps(op.config))
    report = os.path.join(workdir, "report.json")
    code = run([op.command, "--config", cfg, "--out", report])
    files = {}
    for name in sorted(os.listdir(workdir)):
        path = os.path.join(workdir, name)
        if name != "config.json":
            with open(path, "rb") as fh:
                files[name] = hashlib.sha256(fh.read()).hexdigest()
    return {"exit": code, "files": files}


def run_in_fresh_process(argv) -> int:
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    return subprocess.run([sys.executable, "-m", "amalgams.cli", *argv],
                          cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                          check=False).returncode


def main() -> int:
    os.chdir(ROOT)
    record = {}
    for key, op in benchmark_ops():
        with tempfile.TemporaryDirectory() as tmp:
            record[key] = run_op(op, tmp, run_in_fresh_process)
        print(key, record[key]["exit"])
    with open(RECORD, "w") as fh:
        fh.write(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
