"""Formal words over an abstract alphabet.

A word is a tuple of letters; a letter is a pair (symbol, sign) with
sign in {+1, -1}. Symbols are arbitrary hashable identifiers (the
engine uses ints, fixtures use strings).
"""

from __future__ import annotations

from typing import Hashable, Iterable, Sequence, Tuple

from amalgams import kernels

Letter = Tuple[Hashable, int]
FormalWord = Tuple[Letter, ...]

# 80 blocks x^1 y ... x^80 y; the block exponents sum to 3240.
RHO_BLOCKS = 80
RHO_X_TOTAL = sum(range(1, RHO_BLOCKS + 1))  # 3240
RHO_SINGLE_LETTER_LENGTH = RHO_X_TOTAL + RHO_BLOCKS  # 3320


class WordBudgetError(ValueError):
    """A constructed word would exceed the configured memory budget."""


def word(letters: Iterable[Tuple[Hashable, int]]) -> FormalWord:
    w = tuple((sym, int(sign)) for sym, sign in letters)
    for sym, sign in w:
        if sign not in (1, -1):
            raise ValueError(f"letter sign must be +-1, got {sign!r}")
    return w


def free_reduce(w: Sequence[Letter]) -> FormalWord:
    """Freely reduce: cancel adjacent (s, +1)(s, -1) pairs until stable."""
    syms = []
    index = {}
    encoded = []
    for sym, sign in w:
        code = index.get(sym)
        if code is None:
            code = len(syms) + 1
            index[sym] = code
            syms.append(sym)
        encoded.append(code * sign)
    reduced = kernels.free_reduce_ints(encoded)
    return tuple((syms[abs(v) - 1], 1 if v > 0 else -1) for v in reduced)


def inverse(w: Sequence[Letter]) -> FormalWord:
    return tuple((sym, -sign) for sym, sign in reversed(tuple(w)))


def power(w: Sequence[Letter], n: int) -> FormalWord:
    if n < 0:
        return power(inverse(w), -n)
    return tuple(w) * n


def length(w: Sequence[Letter]) -> int:
    return len(w)


def rho(x: Sequence[Letter], y: Sequence[Letter]) -> FormalWord:
    """The pumping word x y x^2 y x^3 y ... x^80 y, emitted unreduced.

    Length bookkeeping: len = 3240*len(x) + 80*len(y); for single-letter
    inputs this is 3320.
    """
    x = tuple(x)
    y = tuple(y)
    if not x or not y:
        raise ValueError("rho requires nonempty x and y")
    out: list = []
    for i in range(1, RHO_BLOCKS + 1):
        out.extend(x * i)
        out.extend(y)
    return tuple(out)


def rho_ell(
    x: Sequence[Letter],
    y: Sequence[Letter],
    level: int,
    max_letters: int = 50_000_000,
) -> FormalWord:
    """rho applied to x^(6640^level), y^(6640^level); level 0 is plain rho."""
    if level < 0:
        raise ValueError("level must be >= 0")
    n_level = 6640 ** level
    x = tuple(x)
    y = tuple(y)
    if not x or not y:
        raise ValueError("rho_ell requires nonempty x and y")
    total = n_level * (RHO_X_TOTAL * len(x) + RHO_BLOCKS * len(y))
    if total > max_letters:
        raise WordBudgetError(
            f"rho_ell(level={level}) would produce {total} letters "
            f"(budget {max_letters})"
        )
    return rho(power(x, n_level), power(y, n_level))


def rho_ell_length(x_len: int, y_len: int, level: int) -> int:
    """Letter count of rho_ell without materializing it."""
    n_level = 6640 ** level
    return n_level * (RHO_X_TOTAL * x_len + RHO_BLOCKS * y_len)


def to_json(w: Sequence[Letter]) -> list:
    return [[sym, sign] for sym, sign in w]


def from_json(data: Sequence) -> FormalWord:
    return word((sym, sign) for sym, sign in data)
