"""Formal words over an abstract alphabet.

A word is a tuple of letters; a letter is a pair (symbol, sign) with
sign in {+1, -1}. Symbols are arbitrary hashable identifiers (the
engine's are the strings "x0", "x1", ...; fixtures name their own).
"""

from __future__ import annotations

from typing import Hashable, Iterable, Sequence, Tuple

from amalgams import kernels

Letter = Tuple[Hashable, int]
FormalWord = Tuple[Letter, ...]

# 80 blocks x^1 y ... x^80 y; the block exponents sum to 3240.
RHO_BLOCKS = 80
RHO_X_TOTAL = sum(range(1, RHO_BLOCKS + 1))  # 3240
# len(rho(x, y)) for one-item x and y
RHO_LENGTH = RHO_X_TOTAL + RHO_BLOCKS  # 3320


def word(letters: Iterable[Letter]) -> FormalWord:
    """The letters as a word: ValueError unless each is a [symbol, sign]
    list or tuple whose sign is the int 1 or -1 (not a bool or float)."""
    w = []
    for letter in letters:
        if type(letter) not in (list, tuple) or len(letter) != 2:
            raise ValueError(f"letter {letter!r} is not a [symbol, sign] "
                             f"pair")
        sym, sign = letter
        if type(sign) is not int or sign not in (1, -1):
            raise ValueError(f"letter sign must be +-1, got {sign!r}")
        w.append((sym, sign))
    return tuple(w)


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


def rho(x: Sequence[Letter], y: Sequence[Letter]) -> FormalWord:
    """The pumping word x y x^2 y x^3 y ... x^80 y, emitted unreduced.

    x and y may hold any items; ``systems.entry_relator`` passes
    syllables.

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


def to_json(w: Sequence[Letter]) -> list:
    return [[sym, sign] for sym, sign in w]


def from_json(data: Sequence) -> FormalWord:
    return word((sym, sign) for sym, sign in data)
