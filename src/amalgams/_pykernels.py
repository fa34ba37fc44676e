"""The hot integer-sequence kernels: the package's one implementation.

Import them through ``amalgams.kernels``.  Contracts:

* words are sequences of nonzero signed ints (letter = signed symbol id),
* label sequences are arbitrary int sequences,
* all functions are pure.

``runs_at_least`` finds common runs with a rolling polynomial hash over
fixed-length windows (Karp-Rabin); a hash hit is confirmed by comparing
the elements before a run is reported.  ``window_hashes`` and
``window_table`` expose the two halves of that scan, so a caller that
scans one sequence many times hashes it once and passes the result to
``runs_at_least``.  ``longest_common_run`` is exact and hashes nothing: a
suffix automaton, O(|a| + |b|) expected time and O(|b|) memory.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional, Sequence, Tuple

_MOD = (1 << 61) - 1
_BASE = 1_000_003


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


def window_hashes(seq: Sequence[int], k: int) -> array:
    """Hash of every length-k window of seq, in one rolling pass: entry i
    hashes seq[i:i+k]. Empty when seq is shorter than k."""
    if k <= 0:
        raise ValueError("k must be positive")
    out = array("q")
    vals = [(v & 0xFFFFFFFFFFFF) + 7 for v in seq]
    if len(vals) < k:
        return out
    h = 0
    for v in vals[:k]:
        h = (h * _BASE + v) % _MOD
    out.append(h)
    top = pow(_BASE, k, _MOD)  # weight of the value leaving the window
    for new, old in zip(vals[k:], vals):
        h = (h * _BASE + new - old * top) % _MOD
        out.append(h)
    return out


def window_table(hashes: Sequence[int]) -> Dict[int, List[int]]:
    """Map each window hash to the positions that have it, in order."""
    table: Dict[int, List[int]] = {}
    for i, h in enumerate(hashes):
        table.setdefault(h, []).append(i)
    return table


def runs_at_least(
    a: Sequence[int],
    b: Sequence[int],
    k: int,
    a_table: Optional[Dict[int, List[int]]] = None,
    b_hashes: Optional[Sequence[int]] = None,
) -> List[Tuple[int, int, int]]:
    """All maximal common runs of length >= k, as (start_a, start_b, length).

    A run is maximal if it cannot be extended in either direction.
    ``a_table`` (``window_table(window_hashes(a, k))``) and ``b_hashes``
    (``window_hashes(b, k)``) may be passed in when the caller already
    has them; they must be built with this same k.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    if len(a) < k or len(b) < k:
        return []
    if a_table is None:
        a_table = window_table(window_hashes(a, k))
    if b_hashes is None:
        b_hashes = window_hashes(b, k)
    if a_table.keys().isdisjoint(b_hashes):
        return []
    a = list(a)
    b = list(b)
    # covered[diag] is the end (in a) of the last run found on that
    # diagonal. The scan visits b in increasing j, so the runs of one
    # diagonal are found in order and are disjoint, and a hit lies inside
    # a known run exactly when it lies before that end. Repeated k-gram
    # hits inside one long run so cost O(1) each (periodic inputs
    # otherwise make the back-walk quadratic).
    covered: Dict[int, int] = {}
    out: List[Tuple[int, int, int]] = []
    for j, h in enumerate(b_hashes):
        for i in a_table.get(h, ()):
            diag = i - j
            if i < covered.get(diag, -1):
                continue
            if a[i:i + k] != b[j:j + k]:
                continue
            si, sj = i, j
            while si > 0 and sj > 0 and a[si - 1] == b[sj - 1]:
                si -= 1
                sj -= 1
            length = k + (i - si)
            while si + length < len(a) and sj + length < len(b) and \
                    a[si + length] == b[sj + length]:
                length += 1
            covered[diag] = si + length
            if length >= k:
                out.append((si, sj, length))
    out.sort()
    return out
