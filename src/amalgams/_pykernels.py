"""The hot integer-sequence kernels: the package's one implementation.

Import them through ``amalgams.kernels``.  Contracts:

* words are sequences of nonzero signed ints (letter = signed symbol id),
* label sequences are arbitrary int sequences,
* all functions are pure.

``longest_common_run`` and ``runs_at_least`` find common runs with a
rolling polynomial hash over fixed-length windows; a hash hit is
confirmed by comparing the elements before a run is reported.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

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


def _prefix_hashes(seq: Sequence[int]) -> Tuple[List[int], List[int]]:
    n = len(seq)
    pref = [0] * (n + 1)
    pw = [1] * (n + 1)
    for i, v in enumerate(seq):
        pref[i + 1] = (pref[i] * _BASE + (v & 0xFFFFFFFFFFFF) + 7) % _MOD
        pw[i + 1] = (pw[i] * _BASE) % _MOD
    return pref, pw


def _window(pref: List[int], pw: List[int], i: int, length: int) -> int:
    return (pref[i + length] - pref[i] * pw[length]) % _MOD


def longest_common_run(a: Sequence[int], b: Sequence[int]) -> Tuple[int, int, int]:
    """Longest common contiguous subsequence of two int sequences.

    Returns (length, start_in_a, start_in_b); (0, 0, 0) when disjoint.
    """
    a = list(a)
    b = list(b)
    if not a or not b:
        return (0, 0, 0)
    pa, wa = _prefix_hashes(a)
    pb, wb = _prefix_hashes(b)

    def hit(length: int) -> Tuple[int, int] | None:
        if length == 0:
            return (0, 0)
        table = {}
        for i in range(len(a) - length + 1):
            table.setdefault(_window(pa, wa, i, length), i)
        for j in range(len(b) - length + 1):
            i = table.get(_window(pb, wb, j, length))
            if i is not None and a[i:i + length] == b[j:j + length]:
                return (i, j)
        return None

    lo, hi = 0, min(len(a), len(b))
    best = (0, 0, 0)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        found = hit(mid)
        if found is None:
            hi = mid - 1
        else:
            best = (mid, found[0], found[1])
            lo = mid
    return best


def runs_at_least(a: Sequence[int], b: Sequence[int], k: int) -> List[Tuple[int, int, int]]:
    """All maximal common runs of length >= k, as (start_a, start_b, length).

    A run is maximal if it cannot be extended in either direction.
    """
    a = list(a)
    b = list(b)
    if k <= 0:
        raise ValueError("k must be positive")
    if len(a) < k or len(b) < k:
        return []
    pa, wa = _prefix_hashes(a)
    pb, wb = _prefix_hashes(b)
    table: dict = {}
    for i in range(len(a) - k + 1):
        table.setdefault(_window(pa, wa, i, k), []).append(i)
    # covered[diag] holds the already-extended runs on that diagonal, so
    # repeated k-gram hits inside one long run cost O(1) each (periodic
    # inputs otherwise make the back-walk quadratic)
    covered: dict = {}
    out: List[Tuple[int, int, int]] = []
    for j in range(len(b) - k + 1):
        for i in table.get(_window(pb, wb, j, k), ()):
            diag = i - j
            spans = covered.get(diag)
            if spans and any(s <= i < e for s, e in spans):
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
            covered.setdefault(diag, []).append((si, si + length))
            if length >= k:
                out.append((si, sj, length))
    out.sort()
    return out
