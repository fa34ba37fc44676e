"""Formal word layer: reduction, the pumping word, serialization."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from amalgams import kernels, words

from oracles import naive_free_reduce, naive_longest_common_run, \
    naive_runs_at_least, rho_letter_sequence

letters = st.lists(st.sampled_from([-3, -2, -1, 1, 2, 3]), max_size=60)


@given(letters)
def test_free_reduce_matches_naive(w):
    assert kernels.free_reduce_ints(w) == naive_free_reduce(w)


@given(letters)
def test_free_reduce_idempotent(w):
    once = kernels.free_reduce_ints(w)
    assert kernels.free_reduce_ints(once) == once


@given(letters)
def test_word_times_inverse_cancels(w):
    inv = [-x for x in reversed(w)]
    assert kernels.free_reduce_ints(w + inv) == []


def test_free_reduce_rejects_zero():
    with pytest.raises(ValueError):
        kernels.free_reduce_ints([1, 0, -1])


@given(letters, letters)
def test_longest_common_run_matches_naive(a, b):
    length, i, j = kernels.longest_common_run(a, b)
    assert (length, i, j) == naive_longest_common_run(a, b)
    assert a[i:i + length] == b[j:j + length]


def _common_run_cases():
    rng = random.Random(20261019)
    # the pumped-window shape: a long periodic window with one foreign
    # label in the middle, against a doubled, mutated periodic relator
    for period in range(1, 7):
        pattern = [rng.randrange(1, 4) for _ in range(period)]
        a = pattern * (600 // period)
        a[len(a) // 2] = 4
        v = pattern * rng.randrange(20, 300 // period + 1)
        v[rng.randrange(len(v))] = rng.randrange(1, 5)
        yield a, v * 2
        yield v * 2, a
    yield [1, 2, 3] * 50, [4, 5, 6] * 50  # disjoint alphabets
    yield [-1, -2], [1, 2]
    wide = rng.sample(range(-3000, 3000), 900)  # all distinct
    a, b = wide[:450], wide[450:]
    b[100:100] = a[200:260]
    yield a, b
    yield ([rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(300)],
           [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(300)])
    yield [], []
    yield [], [1, 2]
    yield [1, 2], []
    # labels equal below bit 48: the same low bits must not match
    hi = 5 + 2 ** 48
    yield [5, 7, hi, 7], [hi, 7]
    yield [5] * 40 + [hi] * 30, [hi] * 20 + [5] * 20


def test_longest_common_run_on_periodic_wide_and_edge_inputs():
    for a, b in _common_run_cases():
        length, i, j = kernels.longest_common_run(a, b)
        assert (length, i, j) == naive_longest_common_run(a, b)
        assert a[i:i + length] == b[j:j + length]


@given(letters, letters, st.integers(min_value=1, max_value=4))
def test_runs_at_least_matches_naive(a, b, k):
    assert kernels.runs_at_least(a, b, k) == naive_runs_at_least(a, b, k)


@pytest.mark.parametrize("k", [16, 32])
def test_runs_at_least_on_doubled_periodic_labels(k):
    # the shape check_cprime scans: a few hundred labels against a doubled
    # short-period array, so one run repeats its k-gram hits many times
    # along a diagonal
    rng = random.Random(k)
    for _ in range(12):
        period = [rng.randrange(1, 5) for _ in range(rng.randrange(2, 7))]
        v = period * rng.randrange(15, 40)
        a = []
        while len(a) < 300:
            start = rng.randrange(len(v))
            a.extend(v[start:start + rng.randrange(k // 2, 3 * k)])
            a.append(rng.choice((0, rng.randrange(1, 5))))
        b = v * 2
        runs = kernels.runs_at_least(a, b, k)
        assert runs == naive_runs_at_least(a, b, k)
        assert runs


def _indexed_runs(a, b, k):
    return kernels.runs_at_least(
        a, b, k, kernels.window_table(kernels.window_hashes(a, k)),
        kernels.window_hashes(b, k))


def test_window_hashes_match_direct_hashing():
    rng = random.Random(5)
    seq = [rng.randrange(-3, 4) for _ in range(60)]
    for k in (1, 2, 7, 60):
        hashes = kernels.window_hashes(seq, k)
        assert len(hashes) == len(seq) - k + 1
        for i in range(len(hashes)):
            again = kernels.window_hashes(seq[i:i + k], k)
            assert list(again) == [hashes[i]]
    assert len(kernels.window_hashes(seq, 61)) == 0
    with pytest.raises(ValueError):
        kernels.window_hashes(seq, 0)


def test_indexed_runs_match_naive():
    # random arrays over a small alphabet and doubled short-period arrays,
    # scanned with precomputed window hashes and table, for several k
    rng = random.Random(20261018)
    for trial in range(120):
        if trial % 2:
            a = [rng.randrange(1, 4) for _ in range(rng.randrange(1, 80))]
            b = [rng.randrange(1, 4) for _ in range(rng.randrange(1, 80))]
        else:
            period = [rng.randrange(1, 4) for _ in range(rng.randrange(1, 6))]
            v = period * rng.randrange(3, 12)
            start = rng.randrange(len(v))
            a = (v[start:] + v[:start]) * 2
            b = v * 2
            if rng.random() < 0.5:
                b[rng.randrange(len(b))] = 0
        for k in (1, 2, 3, 5, 8, 13):
            assert _indexed_runs(a, b, k) == naive_runs_at_least(a, b, k)


def test_rho_single_letters_length():
    x = words.word([("x", 1)])
    y = words.word([("y", 1)])
    r = words.rho(x, y)
    assert len(r) == 3320
    # cross-check the whole letter sequence against a string construction
    expected = rho_letter_sequence("x", "y")
    assert "".join(sym for sym, _ in r) == expected
    assert all(sign == 1 for _, sign in r)


def test_rho_length_formula():
    # 3240 copies of x and 80 copies of y regardless of x, y shape
    x = words.word([("a", 1), ("b", -1), ("a", 1)])
    y = words.word([("c", 1), ("c", 1)])
    r = words.rho(x, y)
    assert len(r) == 3240 * 3 + 80 * 2


def test_rho_two_letter_arguments_length():
    # the relator shape: x and y both products of two generators
    x = words.word([("b", 1), ("a", 1)])
    y = words.word([("c", 1), ("a", 1)])
    assert len(words.rho(x, y)) == 6640


def test_rho_rejects_empty():
    with pytest.raises(ValueError):
        words.rho((), words.word([("y", 1)]))


@given(letters)
def test_json_roundtrip(ints):
    w = words.word((f"g{abs(v)}", 1 if v > 0 else -1) for v in ints)
    assert words.from_json(words.to_json(w)) == w
