"""The hot sequence kernels: the package's one implementation.

Import them through ``amalgams.kernels``.  Contracts:

* words are sequences of nonzero signed ints (letter = signed symbol id),
* ``runs_at_least`` takes label strings, one code point per label code
  (``chr`` raises past 1,114,111 codes, so no two labels alias);
  ``longest_common_run`` takes any sequences of hashable labels,
* all functions are pure.

Neither run finder hashes windows.  ``runs_at_least`` rests on a sampling
lemma: with w = ceil(k/2) and d = k - w + 1, a common run of length
>= k contains the window a[p:p+w] for some p that is a multiple of d,
since it contains the windows of d consecutive starts.  So it searches
b for those windows of a alone, with ``str.find`` (CPython's C
two-way search), and extends each hit to its maximal run.
``longest_common_run`` is a suffix automaton, O(|a| + |b|) expected
time and O(|b|) memory.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Sequence, Tuple


def free_reduce_ints(word: Sequence[int]) -> List[int]:
    """Freely reduce a signed-int word (cancel adjacent x, -x pairs)."""
    out: List[int] = []
    for letter in word:
        if letter == 0:
            raise ValueError("zero letter in word")
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return out


def longest_common_run(a: Sequence[int], b: Sequence[int]) -> Tuple[int, int, int]:
    """Longest common contiguous run of two int sequences, exactly.

    Returns (length, start_in_a, start_in_b): the leftmost longest run in
    a, at its first occurrence in b; (0, 0, 0) if none. One pass of a
    through the suffix automaton of b (Blumer et al. 1985), its
    transitions in one dict keyed state·σ + rank over b's σ labels: time
    O(|a| + |b|) expected, memory O(|b|) whatever σ.
    """
    rank = {v: r for r, v in enumerate(dict.fromkeys(b))}
    if rank.keys().isdisjoint(a):
        return (0, 0, 0)
    sigma = len(rank)
    # state s: longest string length[s], suffix link link[s], first end in b
    # first[s]; out[s] heads its prepend-only (rank, next) chain in edges
    length, link, first, out = (array("i", [v]) for v in (0, -1, -1, -1))
    edges, go = array("i"), {}
    last = 0
    for i, v in enumerate(b):
        c = rank[v]
        cur = len(length)
        length.append(length[last] + 1)
        link.append(0)
        first.append(i)
        out.append(-1)
        p, last = last, cur
        while p >= 0 and p * sigma + c not in go:
            go[p * sigma + c] = cur
            edges.extend((c, out[p]))
            out[p] = len(edges) - 2
            p = link[p]
        q = go[p * sigma + c] if p >= 0 else 0  # p < 0: link to the root
        if p < 0 or length[p] + 1 == length[q]:
            link[cur] = q
            continue
        clone = len(length)
        length.append(length[p] + 1)
        link.append(link[q])
        first.append(first[q])
        out.append(out[q])
        e = out[q]
        while e >= 0:
            go[clone * sigma + edges[e]] = go[q * sigma + edges[e]]
            e = edges[e + 1]
        while p >= 0 and go.get(p * sigma + c) == q:
            go[p * sigma + c] = clone
            p = link[p]
        link[q] = link[cur] = clone
    best = (0, 0, 0)
    s = n = 0  # state and length of the longest suffix of a[:i+1] in b
    for i, v in enumerate(a):
        c = rank.get(v)
        if c is None:
            s = n = 0
            continue
        while s * sigma + c not in go:  # stops at the root: it has every rank
            s = link[s]
            n = length[s]
        s, n = go[s * sigma + c], n + 1
        if n > best[0]:
            best = (n, i - n + 1, first[s] - n + 1)
    return best


def runs_at_least(a: str, b: str, k: int) -> List[Tuple[int, int, int]]:
    """All maximal common runs of length >= k, as (start_a, start_b, length).

    A run is maximal if it cannot be extended in either direction.
    With w = ceil(k/2) and d = k - w + 1, a run of length >= k holds the
    windows a[p:p+w] of d consecutive p, so it holds one with p a
    multiple of d. Each such window is searched for in b by
    ``str.find``, and each hit is extended both ways to its maximal run.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    na, nb = len(a), len(b)
    if na < k or nb < k:
        return []
    w = (k + 1) // 2
    d = k - w + 1
    # covered[diag] is the end (in a) of the last run found on that
    # diagonal. The scan visits a in increasing p, so the runs of one
    # diagonal are found in order and are disjoint, and a hit lies inside
    # a known run exactly when it starts before that end. A run's first
    # hit is its first sampled window, which starts less than d after
    # the run does, and a run of length >= k starts by na - k.
    covered: Dict[int, int] = {}
    out: List[Tuple[int, int, int]] = []
    for p in range(0, na - k + d, d):
        needle = a[p:p + w]
        j = b.find(needle)
        while j >= 0:
            if p >= covered.get(p - j, 0):
                s, t = p, j
                while s >= 64 and t >= 64 and a[s - 64:s] == b[t - 64:t]:
                    s -= 64
                    t -= 64
                while s and t and a[s - 1] == b[t - 1]:
                    s -= 1
                    t -= 1
                e, f = p + w, j + w
                while e + 64 <= na and a[e:e + 64] == b[f:f + 64]:
                    e += 64
                    f += 64
                while e < na and f < nb and a[e] == b[f]:
                    e += 1
                    f += 1
                covered[p - j] = e
                if e - s >= k:
                    out.append((s, t, e - s))
            j = b.find(needle, j + 1)
    out.sort()
    return out
