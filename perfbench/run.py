"""End-to-end benchmark: time to verdict of ``amalgams`` CLI runs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it uses ``src/`` and
``fixtures/`` there and writes only to a temporary directory inside the
checkout, removed at exit.  Workloads (see ``workloads.py`` and
``BENCHMARK.json``): ``fixtures``, ``words``, ``tower``, ``colorings``.

Each op is one ``python3 -m amalgams.cli`` subcommand in a fresh child
process, as a user runs it.  Ops run one at a time (a closed loop with one
client), with BLAS/OpenMP pools pinned to one thread.  A pass runs every op
of the workload once; passes repeat until ``--seconds`` would be exceeded
(at least one).  Every op's exit code and report are checked against an
expectation that does not come from the package (``workloads.py``).

The benchmark and its ops are pinned to one CPU, where a yardstick
process samples the CPU's speed throughout (``yardstick.py``): the host's
vCPUs switch between two speeds every few seconds, so raw times spread by
about 30% between runs.  Every reported time is the measured time scaled
to reference speed by the yardstick's samples taken while it ran; wall
times leave out the yardstick's own bursts.  Raw times are printed too, on
earlier lines.

``--trace 0`` prints the end-to-end metrics, each a median over passes:
``run_s`` (wall time of a pass's ops, timed from the parent),
``run_cpu_s`` (user + system CPU of the pass's op processes, from
``wait4``), ``peak_rss_mb`` (largest ``ru_maxrss`` of an op process) and
``setup_s`` (median of several input generations, each followed by a bare
``import amalgams.cli`` in a fresh process).  ``--trace 1`` runs one
untraced and one traced pass and prints the per-layer metrics of the
traced pass (``tracer.py``) plus the tracing overhead.  The last stdout
line is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from yardstick import Yardstick, pin  # noqa: E402

SETUP_REPEATS = 9
# a run must end within 180 s: main() sets this mark, and an op still
# running at it is killed and counted as failed
deadline = None
# counters that must read nonzero on the workload they are meant to
# move; a zero means a wrapper missed its function.
ASSIGNED: Dict[str, tuple] = {
    "kernels.runs_at_least": ("fixtures", "tower", "words"),
    "kernels.longest_common_run": ("tower",),
    "kernels.free_reduce_ints": ("fixtures", "words", "tower"),
    "groups.mul": ("fixtures", "words", "tower"),
    "groups.element": ("fixtures", "words", "tower"),
    "words.free_reduce": ("fixtures", "words", "tower"),
    "canonical.in_H": ("fixtures", "words", "tower"),
    "canonical.transfer": ("fixtures", "words", "tower"),
    "canonical.coset_label": ("fixtures", "words", "tower"),
    "canonical.canonicalize": ("fixtures", "words", "tower"),
    "canonical.rotate": ("words",),
    "systems.entry_relator": ("fixtures", "words", "tower"),
    "cancellation.check_cprime": ("fixtures", "words", "tower"),
    "cancellation.check_cprime.repeat_ratio": ("words", "tower"),
    "cancellation.cancellation_chain": ("fixtures", "words", "tower"),
    "cancellation.replay_cprime_witness": ("fixtures",),
    "cancellation.build_quotient": ("words", "tower"),
    "cancellation.dehn_decide": ("words",),
    "cancellation.replay_certificate": ("words",),
    "systems.generate_relators": ("fixtures", "words", "tower"),
    "systems.validate_system": ("fixtures", "words"),
    "systems.load_system_fixture": ("fixtures", "words"),
    "colorings.from_walks": ("colorings",),
    "colorings.check_contract": ("colorings",),
    "colorings.hitting_scan": ("colorings",),
    "colorings.ord_cmp": ("colorings",),
    "colorings.ord_to_str": ("colorings",),
    "colorings.walk": ("colorings",),
    "engine.advance_stage": ("tower",),
    "engine.audit_stage": ("tower",),
    "engine.topology_chain": ("tower",),
    "engine.enumerate_J": ("tower",),
    "engine.transversal_rep": ("tower",),
    "engine.summary_json": ("tower",),
    "cli.main": ("fixtures", "words", "tower", "colorings"),
}
# metrics allowed to read zero where assigned: they count trouble
MAY_BE_ZERO = {"cancellation.dehn_decide.inconclusive"}


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(argv: List[str], env: dict, log_path: str):
    """Run one child to completion; returns (exit code, rusage)."""
    with open(log_path, "wb") as log:
        proc = subprocess.Popen(argv, cwd=ROOT, env=env,
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=log)
    timer = None
    if deadline is not None:
        timer = threading.Timer(max(deadline - time.monotonic(), 1.0),
                                proc.kill)
        timer.start()
    try:
        _, status, ru = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        if timer:
            timer.cancel()
    return proc.returncode, ru


# ---------------------------------------------------------------------------
# expectations


def outcome(op, code: int, report_path: str) -> dict:
    """What the op produced that an expectation may name."""
    out = {"exit": code}
    try:
        with open(report_path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError):
        return out
    out["checks"] = {c["name"]: c["status"] for c in doc["checks"]}
    data = {c["name"]: c["data"] for c in doc["checks"]}
    if "cprime" in data:
        out["witness_replayed"] = data["cprime"].get("witness_replayed")
    if "system" in data:
        out["system_verdict"] = data["system"]["verdict"]
    if "deterministic-replay" in data:
        out["sha256"] = data["deterministic-replay"]["summary_sha256"]
    if "subadditivity" in data:
        out["triples"] = data["subadditivity"]["triples"]
    if "hitting-scan" in data:
        rep = data["hitting-scan"]
        out["hitting"] = {k: rep[k] for k in
                          ("targets", "targets_hit", "witnesses")}
    words = sorted((int(n[5:]), d) for n, d in data.items()
                   if n.startswith("word-"))
    if words:
        out["word_verdicts"] = [d["verdict"] for _, d in words]
        out["word_replayed"] = [d.get("replayed") for _, d in words]
    if op.command == "build-stage":
        try:
            with open(report_path + ".presentation.json") as fh:
                pres = json.load(fh)
            out["layer_kinds"] = {f"{l['gamma']},{l['level']}": l["kind"]
                                  for l in pres["layers"]}
        except (OSError, ValueError, KeyError):
            pass
    return out


def mismatches(op, got: dict) -> List[str]:
    bad = []
    for key, want in op.expect.items():
        if key == "all_pass":
            statuses = got.get("checks", {})
            if not statuses or any(s != "pass" for s in statuses.values()):
                bad.append(f"checks not all pass: {statuses}")
        elif key == "checks":
            have = got.get("checks", {})
            for name, status in want.items():
                if have.get(name) != status:
                    bad.append(f"check {name}: {have.get(name)} != {status}")
        elif key == "layer_kinds":
            have = got.get("layer_kinds", {})
            for layer, kind in want.items():
                if have.get(layer) != kind:
                    bad.append(f"layer {layer}: {have.get(layer)} != {kind}")
        elif key == "word_verdicts":
            if got.get("word_verdicts") != want:
                bad.append(f"word verdicts {got.get('word_verdicts')}")
            replayed = [r for v, r in zip(want, got.get("word_replayed", []))
                        if v == "trivial"]
            if replayed.count(True) != want.count("trivial"):
                bad.append(f"trivial words replayed: {replayed}")
        elif got.get(key) != want:
            bad.append(f"{key}: {str(got.get(key))[:80]} != {str(want)[:80]}")
    return bad


# ---------------------------------------------------------------------------
# passes


def at_ref(ys: Yardstick, t0: float, t1: float) -> float:
    """Wall time of [t0, t1] without the yardstick's bursts, at reference
    speed."""
    return (t1 - t0 - ys.busy(t0, t1)) * ys.factor(t0, t1)


class Pass:
    def __init__(self):
        self.wall = 0.0
        self.cpu = 0.0
        self.rss_mb = 0.0
        self.failures: Dict[int, List[str]] = {}
        self.outcomes: List[dict] = []
        self.traces: List[dict] = []
        self.op_span: List[tuple] = []
        self.op_cpu: List[float] = []

    def scale(self, ys: Yardstick) -> None:
        """Scale the pass's times to reference speed."""
        self.ref_wall = sum(at_ref(ys, t0, t1) for t0, t1 in self.op_span)
        self.ref_cpu = sum(c * ys.factor(*span)
                           for c, span in zip(self.op_cpu, self.op_span))


def run_pass(ops, workdir: str, env: dict, traced: bool) -> Pass:
    p = Pass()
    runs = []
    for name in os.listdir(workdir):
        if name.endswith((".report.json", ".trace.json")) or \
                ".report.json." in name:
            os.remove(os.path.join(workdir, name))
    start = time.perf_counter()
    for n, op in enumerate(ops):
        cfg = os.path.join(workdir, f"op{n}.config.json")
        report = os.path.join(workdir, f"op{n}.report.json")
        trace = os.path.join(workdir, f"op{n}.trace.json")
        args = [op.command, "--config", cfg, "--out", report]
        if traced:
            argv = [sys.executable, os.path.join(HERE, "tracer.py"), trace,
                    *args]
        else:
            argv = [sys.executable, "-m", "amalgams.cli", *args]
        t0 = time.perf_counter()
        code, ru = spawn(argv, env, os.path.join(workdir, f"op{n}.log"))
        p.op_span.append((t0, time.perf_counter()))
        p.op_cpu.append(ru.ru_utime + ru.ru_stime)
        runs.append((code, ru))
    p.wall = time.perf_counter() - start
    p.cpu = sum(p.op_cpu)
    for n, (op, (code, ru)) in enumerate(zip(ops, runs)):
        p.rss_mb = max(p.rss_mb, ru.ru_maxrss / 1024)
        got = outcome(op, code, os.path.join(workdir, f"op{n}.report.json"))
        p.outcomes.append(got)
        bad = mismatches(op, got)
        if bad:
            p.failures.setdefault(n, []).extend(bad)
        if traced:
            try:
                with open(os.path.join(workdir, f"op{n}.trace.json")) as fh:
                    p.traces.append(json.load(fh))
            except (OSError, ValueError):
                p.traces.append(None)
                p.failures.setdefault(n, []).append("no trace written")
    return p


def write_configs(ops, workdir: str) -> None:
    for n, op in enumerate(ops):
        with open(os.path.join(workdir, f"op{n}.config.json"), "w") as fh:
            fh.write(json.dumps(op.config))


def setup(workload: str, seed: int, workdir: str, env: dict):
    """Input generation plus a bare CLI import; returns (ops, spans),
    one (start, end) per repeat."""
    spans = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        ops = workloads.build(workload, seed, ROOT)
        write_configs(ops, workdir)
        code, _ = spawn([sys.executable, "-c", "import amalgams.cli"], env,
                        os.path.join(workdir, "import.log"))
        spans.append((t0, time.perf_counter()))
        if code != 0:
            fail("cannot import amalgams.cli; see " + workdir)
    return ops, spans


# ---------------------------------------------------------------------------
# reporting


def spread_note(values: List[float]) -> str:
    """Median, the highest percentile with at least ten samples beyond
    it, and the sample count."""
    n = len(values)
    med = statistics.median(values)
    pct = [p for p in (50, 90, 95, 99, 99.9) if n * (100 - p) / 100 >= 10]
    if not pct:
        return f"median {med:.4f} over n={n} (no percentile has ten samples beyond it)"
    p = pct[-1]
    q = sorted(values)[min(n - 1, int(n * p / 100))]
    return f"median {med:.4f}, p{p} {q:.4f}, n={n}"


def provenance(env: dict) -> dict:
    probe = ("import json, numpy, amalgams.kernels as k; "
             "print(json.dumps([k.BACKEND, numpy.__version__]))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=60)
    backend, np_version = json.loads(out.stdout)
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np_version,
            "kernels_backend": backend}


def layer_metrics(traces: List[dict]) -> Dict[str, float]:
    """Sum each traced function's numbers over the ops of a pass."""
    total: Dict[str, Dict[str, float]] = {}
    for tr in filter(None, traces):
        for prefix, vals in tr["metrics"].items():
            acc = total.setdefault(prefix, {})
            for k, v in vals.items():
                acc[k] = acc.get(k, 0) + v
    flat = {}
    for prefix, vals in total.items():
        for k, v in vals.items():
            flat[f"{prefix}.{k}"] = v
    cp = total.get("cancellation.check_cprime", {})
    calls = cp.get("calls", 0)
    flat["cancellation.check_cprime.repeat_ratio"] = (
        cp.get("repeats", 0) / calls if calls else 0.0)
    return flat


def zero_assigned(workload: str, flat: Dict[str, float],
                  names: List[str]) -> List[str]:
    zeros = []
    for name in names:
        owner = max((p for p in ASSIGNED if name == p or
                     name.startswith(p + ".")), key=len, default=None)
        if owner is None or workload not in ASSIGNED[owner]:
            continue
        if name in MAY_BE_ZERO:
            continue
        if not flat.get(name):
            zeros.append(name)
    return zeros


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    global deadline
    deadline = time.monotonic() + 170

    for need in ("src/amalgams/cli.py", "fixtures/systems/with_h.json",
                 "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail(f"{need} not found under {ROOT}: run from a source checkout")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    # on SIGTERM, unwind so the running op is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    pin()
    env = child_env()
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        return measure(args, spec, env, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, spec, env, workdir) -> int:
    prov = provenance(env)
    with Yardstick() as ys:
        ops, setup_spans, passes = timed_runs(args, env, workdir)
    setup_raw = [t1 - t0 for t0, t1 in setup_spans]
    setup_times = [at_ref(ys, t0, t1) for t0, t1 in setup_spans]
    for p in passes:
        p.scale(ys)
    prov["cpu_speed_min_median_max"] = [round(v, 3) for v in ys.speeds()]
    return report(args, spec, ops, setup_times, setup_raw, passes, prov)


def timed_runs(args, env, workdir):
    ops, setup_spans = setup(args.workload, args.seed, workdir, env)
    passes: List[Pass] = []
    if args.trace:
        plain = run_pass(ops, workdir, env, traced=False)
        traced = run_pass(ops, workdir, env, traced=True)
        passes = [plain, traced]
        for n, (a, b) in enumerate(zip(plain.outcomes, traced.outcomes)):
            if a != b:
                traced.failures.setdefault(n, []).append(
                    "traced output differs from untraced")
    else:
        start = time.perf_counter()
        while True:
            passes.append(run_pass(ops, workdir, env, traced=False))
            elapsed = time.perf_counter() - start
            typical = statistics.median(p.wall for p in passes)
            if elapsed + typical > args.seconds:
                break
    return ops, setup_spans, passes


def report(args, spec, ops, setup_times, setup_raw, passes, prov) -> int:
    attempted = len(ops) * len(passes)
    failures = [f"{ops[n].label}: " + "; ".join(msgs)
                for p in passes for n, msgs in sorted(p.failures.items())]
    failed_ops = len(failures)
    print(json.dumps({"provenance": prov, "workload": args.workload,
                      "seed": args.seed, "passes": len(passes),
                      "ops_per_pass": len(ops)}))
    for f in failures:
        print(f"FAILED {f}")
    correct = not failures

    if args.trace:
        plain, traced = passes
        flat = layer_metrics(traced.traces)
        flat["trace.overhead_s"] = traced.ref_wall - plain.ref_wall
        names = [m["name"] for m in spec["per_layer"]]
        missing = [n for n in names if n not in flat]
        for n in missing:
            flat[n] = 0
        zeros = zero_assigned(args.workload, flat, names)
        for z in zeros:
            print(f"FAILED traced metric {z} reads zero on {args.workload}")
        correct = correct and not zeros
        print(f"at reference speed: traced pass {traced.ref_wall:.3f} s, "
              f"untraced pass {plain.ref_wall:.3f} s, "
              f"overhead {flat['trace.overhead_s']:.3f} s")
        spans_path = os.path.join(
            ROOT, f".perfbench-trace-{args.workload}-{args.seed}.json")
        with open(spans_path, "w") as fh:
            json.dump({op.label: tr for op, tr in zip(ops, traced.traces)},
                      fh)
        print(f"spans and per-op metrics written to {spans_path}")
        metrics = {m["name"]: {"value": flat[m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
        for name, m in metrics.items():
            print(f"  {name:48s} {m['value']:>14.6g} {m['unit']}")
    else:
        values = {
            "setup_s": setup_times,
            "run_s": [p.ref_wall for p in passes],
            "run_cpu_s": [p.ref_cpu for p in passes],
            "peak_rss_mb": [p.rss_mb for p in passes],
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        metrics = {name: {"value": statistics.median(values[name]),
                          "unit": units[name]}
                   for name in units}
        raw = {"setup_s": setup_raw, "run_s": [p.wall for p in passes],
               "run_cpu_s": [p.cpu for p in passes]}
        for name, vals in values.items():
            print(f"  {name:12s} {units.get(name, '?'):3s} "
                  f"{spread_note(vals)}")
            if name in raw:
                print(f"    raw, not scaled: {spread_note(raw[name])}")
        for n, op in enumerate(ops):
            walls = " ".join(f"{p.op_span[n][1] - p.op_span[n][0]:.3f}"
                             for p in passes)
            print(f"    {op.label:36s} {walls} s raw")
    print(f"  failed_ratio {failed_ops / attempted:.4f} "
          f"({failed_ops} of {attempted} ops)")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed_ops, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
