"""The hot sequence kernels, as the rest of the package sees them.

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

``runs_at_least(a, b, k)`` is exact and hashes nothing.  It takes label
strings, one code point per label code (``chr(code)``), and searches b
for every window of a that a run of length >= k must hold, with
``str.find``.  ``cancellation.RelatorSet`` writes each unit's doubled
labels as such a string once, and ``code_word`` writes a query word's
labels the same way.  ``chr`` raises past code 1,114,111, so a set with
more labels fails loudly instead of aliasing two of them.
"""

from __future__ import annotations

from amalgams._pykernels import (
    free_reduce_ints,
    longest_common_run,
    runs_at_least,
)

BACKEND = "python"

__all__ = ["BACKEND", "free_reduce_ints", "longest_common_run",
           "runs_at_least"]
