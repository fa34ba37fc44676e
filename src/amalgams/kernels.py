"""The hot integer-sequence kernels, as the rest of the package sees them.

Callers import the kernels from here.  The code lives in
``amalgams._pykernels`` and is re-exported unchanged, so each name below
is the very function object defined there.  Two outside readers pin that
layout: the benchmark's boundary tracer wraps the kernels by their
``amalgams._pykernels`` names (and at every module that binds them, this
one and ``engine`` included), and the benchmark records ``BACKEND`` at
the start of every run.  Folding ``_pykernels`` into this module or
dropping ``BACKEND`` would break both.

``longest_common_run`` and ``runs_at_least`` report *some* witness
position for each run; callers must not rely on a particular tie-break
between equally long runs.
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
