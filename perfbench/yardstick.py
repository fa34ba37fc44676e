"""A CPU-speed yardstick sampled on the CPU the ops run on.

On a shared host a vCPU's speed is not constant: a fixed pure-Python loop
runs at one of two speeds about 1.5x apart, switching every few seconds,
and the two vCPUs switch independently.  A run of a few tens of seconds
therefore sees a different mix of the two speeds each time, and raw op
times spread by about 30% between runs of the same code.

The benchmark pins itself and its op processes to one CPU (``pin``) and
runs a ``Yardstick`` process there (this file run as a script): every
``INTERVAL_S`` it wakes, which preempts the running op, and times a fixed
burst of interpreter work by its own CPU time.  It is a process of its
own, not a thread of the benchmark, so that its table does not swell the
benchmark process that every op is forked from.  ``factor(t0, t1)`` is the mean, over the bursts
in that window, of ``REF_BURST_S / burst time``: the share of reference
speed the CPU ran at while an op ran.  A time multiplied by it is the time
at reference speed.  The bursts take about 7% of the CPU; ``busy(t0, t1)``
is their share of a window, which a wall time should leave out.

The burst mixes random lookups in a table of tens of megabytes with
push/pop on a short list, the two kinds of work the ops do.  Each alone
tracked the ops' slowdown badly: on passes of the ``fixtures`` and
``colorings`` ops over four and a half minutes, scaled pass times kept an
elasticity to raw ones of 0.39 for a small-dict loop, 0.04 for the lookups
alone, -0.15 for the list alone and -0.01 for the mix.
"""

from __future__ import annotations

import bisect
import json
import os
import select
import subprocess
import sys
import time
from typing import List, Tuple

INTERVAL_S = 0.05
TABLE_SIZE = 300000
LOOKUPS = 6000
PUSHES = 6000
# CPU time of one burst at reference speed (between the two speeds of the
# 2-vCPU Xeon host this was tuned on); it only scales the reported times
REF_BURST_S = 0.0025


def pin() -> int:
    """Pin the calling process, and so every thread and child it starts
    later, to one CPU; returns it."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _burst(table: dict) -> int:
    k = s = 1
    for _ in range(LOOKUPS):
        k = (k * 1103515245 + 12345) % TABLE_SIZE
        s += table[k][0]
    stack = []
    for x in range(PUSHES):
        v = (x * 7919) % 13 - 6
        if stack and stack[-1] == -v:
            stack.pop()
        else:
            stack.append(v)
    return s + len(stack)


def sample() -> None:
    """The yardstick process: print ``ready``, take a burst every
    ``INTERVAL_S`` until stdin closes, then print the samples as JSON."""
    table = {i: (i, str(i)) for i in range(TABLE_SIZE)}
    starts, burst_s = [], []
    print("ready", flush=True)
    while not select.select([sys.stdin], [], [], INTERVAL_S)[0]:
        start = time.perf_counter()
        t0 = time.thread_time()
        _burst(table)
        burst_s.append(time.thread_time() - t0)
        starts.append(start)
    json.dump({"starts": starts, "burst_s": burst_s}, sys.stdout)


class Yardstick:
    """Use as a context manager; read ``factor`` after it has exited.
    Times are ``time.perf_counter`` readings, which are system-wide."""

    def __init__(self):
        self.starts: List[float] = []
        self.burst_s: List[float] = []
        self._proc = None

    def __enter__(self) -> "Yardstick":
        self._proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        if self._proc.stdout.readline().strip() != "ready":
            self._proc.kill()
            self._proc.wait()
            raise RuntimeError("the yardstick process did not start")
        return self

    def __exit__(self, *exc) -> None:
        try:
            out, _ = self._proc.communicate(timeout=30)
        except BaseException:
            self._proc.kill()
            self._proc.wait()
            raise
        if exc[0] is None:
            if self._proc.returncode != 0:
                raise RuntimeError("the yardstick process failed")
            doc = json.loads(out)
            self.starts, self.burst_s = doc["starts"], doc["burst_s"]

    def _window(self, t0: float, t1: float) -> Tuple[int, int]:
        return (bisect.bisect_left(self.starts, t0),
                bisect.bisect_right(self.starts, t1))

    def factor(self, t0: float, t1: float) -> float:
        """Mean relative speed over the bursts that started in [t0, t1],
        widened to the nearest burst on each side when there are fewer
        than two."""
        if not self.starts:
            raise RuntimeError("the yardstick took no samples")
        lo, hi = self._window(t0, t1)
        if hi - lo < 2:
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.starts))
        picked = self.burst_s[lo:hi]
        return sum(REF_BURST_S / b for b in picked) / len(picked)

    def busy(self, t0: float, t1: float) -> float:
        """CPU time of the bursts that started in [t0, t1]."""
        lo, hi = self._window(t0, t1)
        return sum(self.burst_s[lo:hi])

    def speeds(self) -> Tuple[float, float, float]:
        """Lowest, median and highest relative speed of single bursts."""
        s = sorted(REF_BURST_S / b for b in self.burst_s)
        return s[0], s[len(s) // 2], s[-1]


if __name__ == "__main__":
    sample()
