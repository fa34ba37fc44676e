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
    assert length == naive_longest_common_run(a, b)
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
    assert words.rho_ell_length(3, 2, 0) == len(r)


def test_rho_two_letter_arguments_length():
    # the relator shape: x and y both products of two generators
    x = words.word([("b", 1), ("a", 1)])
    y = words.word([("c", 1), ("a", 1)])
    assert len(words.rho(x, y)) == 6640


def test_rho_ell_scaling():
    x = words.word([("x", 1)])
    y = words.word([("y", 1)])
    assert words.rho_ell_length(1, 1, 1) == 3320 * 6640
    with pytest.raises(words.WordBudgetError):
        words.rho_ell(x, y, 2)
    level1 = words.rho_ell(x, y, 1)
    assert len(level1) == 3320 * 6640


def test_rho_rejects_empty():
    with pytest.raises(ValueError):
        words.rho((), words.word([("y", 1)]))


@given(letters)
def test_json_roundtrip(ints):
    w = words.word((f"g{abs(v)}", 1 if v > 0 else -1) for v in ints)
    assert words.from_json(words.to_json(w)) == w
