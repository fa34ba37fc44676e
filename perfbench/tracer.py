"""Boundary tracing for one ``amalgams`` CLI process.

Run as ``python3 perfbench/tracer.py TRACE_OUT <amalgams cli args...>``.
It wraps each traced function of the package at every module or class
that binds it (several are imported by name, e.g. ``check_cprime`` into
``systems``, ``engine`` and ``cli``, and ``_pykernels.longest_common_run``
into ``engine``), runs ``amalgams.cli.main`` and writes the trace to
TRACE_OUT as JSON.  The program's code is not changed.

Every wrapped call is timed on a frame stack, so a function's self time
is its duration minus the time of wrapped calls beneath it.  Functions
marked hot (element arithmetic, ordinal comparisons, ...) are only
aggregated; the others also keep one span each in memory,
``[name, span_id, parent_span_id, start, end]``, written out at the end.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple


def _elems(args, kwargs, res):
    return {"elems": len(args[0]) + len(args[1])}


def _runs_at_least(args, kwargs, res):
    return {"elems": len(args[0]) + len(args[1]), "runs": len(res)}


def _letters(args, kwargs, res):
    return {"letters": len(args[0])}


def _syllables(args, kwargs, res):
    return {"syllables": len(args[0])}


def _ell(args, kwargs, res):
    return {"ell_sum": res.ell}


def _dehn(args, kwargs, res):
    return {"cert_steps": len(res.certificate),
            "inconclusive": int(res.status == "inconclusive")}


def _pairs(args, kwargs, res):
    n = len(args[0])
    return {"pairs": n * (n - 1) // 2}


def _triples(args, kwargs, res):
    return {"triples": res["triples"]}


class _CPrimeCounter:
    """pairs_scanned, plus repeats: calls on a RelatorSet that was already
    checked in this process.  The sets are kept alive so ids stay unique."""

    def __init__(self):
        self.seen: Dict[int, object] = {}

    def __call__(self, args, kwargs, res):
        R = args[0] if args else kwargs["R"]
        repeat = id(R) in self.seen
        self.seen[id(R)] = R
        return {"pairs_scanned": res.pairs_scanned, "repeats": int(repeat)}


# (metric prefix, module, qualified names, hot, counter).  A prefix may
# cover several definitions, e.g. in_H on each amalgam class.
TARGETS: List[Tuple[str, str, Tuple[str, ...], bool, Optional[Callable]]] = [
    ("kernels.runs_at_least", "amalgams.kernels", ("runs_at_least",),
     False, _runs_at_least),
    ("kernels.longest_common_run", "amalgams._pykernels",
     ("longest_common_run",), False, _elems),
    ("kernels.free_reduce_ints", "amalgams._pykernels",
     ("free_reduce_ints",), True, None),
    ("groups.mul", "amalgams.groups", ("GroupHandle.mul",), True, None),
    ("groups.element", "amalgams.groups", ("GroupHandle.element",),
     True, None),
    ("words.free_reduce", "amalgams.words", ("free_reduce",), True,
     _letters),
    ("canonical.in_H", "amalgams.canonical",
     ("TableAmalgam.in_H", "SharedFreeAmalgam.in_H"), True, None),
    ("canonical.transfer", "amalgams.canonical",
     ("TableAmalgam.transfer", "SharedFreeAmalgam.transfer"), True, None),
    ("canonical.coset_label", "amalgams.canonical",
     ("TableAmalgam.coset_label", "SharedFreeAmalgam.coset_label"),
     True, None),
    ("canonical.canonicalize", "amalgams.canonical", ("canonicalize",),
     True, _syllables),
    ("canonical.rotate", "amalgams.canonical", ("rotate",), True, None),
    ("systems.entry_relator", "amalgams.systems", ("entry_relator",),
     False, None),
    ("systems.generate_relators", "amalgams.systems",
     ("generate_relators",), False, None),
    ("systems.validate_system", "amalgams.systems", ("validate_system",),
     False, None),
    ("systems.load_system_fixture", "amalgams.systems",
     ("load_system_fixture",), False, None),
    ("cancellation.check_cprime", "amalgams.cancellation",
     ("check_cprime",), False, "cprime"),
    ("cancellation.cancellation_chain", "amalgams.cancellation",
     ("cancellation_chain",), True, _ell),
    ("cancellation.replay_cprime_witness", "amalgams.cancellation",
     ("replay_cprime_witness",), False, None),
    ("cancellation.build_quotient", "amalgams.cancellation",
     ("build_quotient",), False, None),
    ("cancellation.dehn_decide", "amalgams.cancellation",
     ("dehn_decide",), False, _dehn),
    ("cancellation.replay_certificate", "amalgams.cancellation",
     ("replay_certificate",), False, None),
    ("colorings.from_walks", "amalgams.colorings",
     ("ColoringTable.from_walks",), False, _pairs),
    ("colorings.check_contract", "amalgams.colorings",
     ("ColoringTable.check_contract",), False, _triples),
    ("colorings.hitting_scan", "amalgams.colorings", ("hitting_scan",),
     False, "lookups"),
    ("colorings.ord_cmp", "amalgams.colorings", ("ord_cmp",), True, None),
    ("colorings.ord_to_str", "amalgams.colorings", ("ord_to_str",),
     True, None),
    ("colorings.walk", "amalgams.colorings", ("walk",), True, None),
    ("engine.advance_stage", "amalgams.engine", ("advance_stage",),
     False, None),
    ("engine.audit_stage", "amalgams.engine", ("audit_stage",), False,
     None),
    ("engine.topology_chain", "amalgams.engine", ("topology_chain",),
     False, None),
    ("engine.enumerate_J", "amalgams.engine", ("enumerate_J",), False,
     None),
    ("engine.transversal_rep", "amalgams.engine", ("transversal_rep",),
     True, None),
    ("engine.summary_json", "amalgams.engine", ("summary_json",), False,
     None),
    ("cli.main", "amalgams.cli", ("main",), False, None),
]


class Tracer:
    def __init__(self):
        # frame: [time covered by wrapped callees, id of nearest span]
        self.stack: List[list] = [[0.0, -1]]
        self.spans: List[list] = []
        # prefix -> [calls, busy_s, self_s, depth, {counter: total}]
        self.agg: Dict[str, list] = {}

    def wrap(self, prefix: str, fn: Callable, hot: bool,
             counter: Optional[Callable]) -> Callable:
        agg = self.agg.setdefault(prefix, [0, 0.0, 0.0, 0, {}])
        counts = agg[4]
        stack, spans = self.stack, self.spans
        now = time.perf_counter

        def traced(*args, **kwargs):
            span_id = stack[-1][1] if hot else len(spans)
            if not hot:
                spans.append(None)
            frame = [0.0, span_id]
            stack.append(frame)
            agg[3] += 1
            t0 = now()
            try:
                res = fn(*args, **kwargs)
            finally:
                t1 = now()
                stack.pop()
                dur = t1 - t0
                stack[-1][0] += dur
                agg[0] += 1
                agg[2] += dur - frame[0]
                agg[3] -= 1
                if not agg[3]:
                    agg[1] += dur  # inclusive time, outermost calls only
                if not hot:
                    spans[span_id] = [prefix, span_id, stack[-1][1], t0, t1]
            if counter is not None:
                for k, v in counter(args, kwargs, res).items():
                    counts[k] = counts.get(k, 0) + v
            return res

        return traced

    def install(self) -> None:
        import amalgams.cli  # noqa: F401  (loads every module below)
        import amalgams.colorings  # noqa: F401

        modules = [m for name, m in list(sys.modules.items())
                   if name == "amalgams" or name.startswith("amalgams.")]
        for prefix, modname, qualnames, hot, counter in TARGETS:
            if counter == "cprime":
                counter = _CPrimeCounter()
            mod = importlib.import_module(modname)
            for qual in qualnames:
                if "." in qual:
                    self._install_method(prefix, mod, qual, hot, counter)
                    continue
                orig = fn = getattr(mod, qual)
                if counter == "lookups":
                    fn, counter = self._count_lookups(prefix, orig), None
                wrapped = self.wrap(prefix, fn, hot, counter)
                bound = 0
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, attr, wrapped)
                            bound += 1
                if not bound:
                    raise RuntimeError(f"{modname}.{qual} is bound nowhere")

    def _count_lookups(self, prefix: str, scan: Callable) -> Callable:
        """hitting_scan with its c0/c1/e table arguments counted."""
        counts = self.agg.setdefault(prefix, [0, 0.0, 0.0, 0, {}])[4]
        counts["lookups"] = 0

        def counted(f):
            def lookup(a, b):
                counts["lookups"] += 1
                return f(a, b)
            return lookup

        def counted_scan(A, targets, c0, c1, e):
            return scan(A, targets, counted(c0), counted(c1), counted(e))
        return counted_scan

    def _install_method(self, prefix, mod, qual, hot, counter):
        cls_name, attr = qual.split(".")
        cls = getattr(mod, cls_name)
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            setattr(cls, attr,
                    classmethod(self.wrap(prefix, raw.__func__, hot,
                                          _drop_first(counter))))
        else:
            setattr(cls, attr, self.wrap(prefix, raw, hot,
                                         _drop_first(counter)))

    def dump(self) -> dict:
        metrics = {}
        for prefix, (calls, busy, self_s, _, counts) in self.agg.items():
            metrics[prefix] = {"calls": calls, "busy_s": busy,
                               "self_s": self_s, **counts}
        return {"metrics": metrics, "spans": self.spans}


def _drop_first(counter):
    """Method counters see the arguments after self/cls."""
    if counter is None:
        return None
    return lambda args, kwargs, res: counter(args[1:], kwargs, res)


def main(argv: List[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    import amalgams.cli
    try:
        return amalgams.cli.main(cli_args)
    finally:
        with open(out_path, "w") as fh:
            json.dump(tracer.dump(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
