"""The hot integer-sequence kernels, as the rest of the package sees them.

Callers import the kernels from here.  The code lives in
``amalgams._pykernels`` and is re-exported unchanged, so each name below
is the very function object defined there.  Two outside readers pin that
layout: the benchmark's boundary tracer wraps the kernels by their
``amalgams._pykernels`` names (and at every module that binds them, this
one and ``engine`` included), and the benchmark records ``BACKEND`` at
the start of every run.  Folding ``_pykernels`` into this module or
dropping ``BACKEND`` would break both.

``longest_common_run(a, b)`` is exact, by a linear-time suffix automaton;
its witness is the leftmost longest run of a, at its first occurrence in b.

``runs_at_least(a, b, k)`` hashes both sequences itself (Karp-Rabin).
A caller that scans the same sequences many times hashes each once with
``window_hashes(seq, k)`` (one rolling pass, kept as a compact
``array('q')``), builds ``window_table`` of the side it looks up in, and
passes both to ``runs_at_least``.  ``cancellation.RelatorSet`` keeps
the window hashes of each unit's labels, one array per window length.
"""

from __future__ import annotations

from amalgams._pykernels import (
    free_reduce_ints,
    longest_common_run,
    runs_at_least,
    window_hashes,
    window_table,
)

BACKEND = "python"

__all__ = ["BACKEND", "free_reduce_ints", "longest_common_run",
           "runs_at_least", "window_hashes", "window_table"]
