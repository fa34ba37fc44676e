"""Shared amalgam instances for the test suite: finite table amalgams
and random shared-free amalgams."""

from __future__ import annotations

import itertools

from amalgams.groups import FiniteTableGroup, FreeGroup
from amalgams.canonical import SharedFreeAmalgam, TableAmalgam

from oracles import FiniteAmalgamOracle


def _perm_index(perms, p):
    return list(perms).index(tuple(p))


def dihedral_4() -> FiniteTableGroup:
    """Symmetries of the square as vertex permutations, rotations first."""
    r = (1, 2, 3, 0)
    s = (3, 2, 1, 0)  # reflection

    def compose(p, q):
        return tuple(p[q[i]] for i in range(4))

    rots = [(0, 1, 2, 3)]
    for _ in range(3):
        rots.append(compose(r, rots[-1]))
    refls = [compose(rot, s) for rot in rots]
    return FiniteTableGroup.from_permutations(rots + refls, name="D4")


def instance_s3_z6():
    """S3 amalgamated with Z6 over the order-3 subgroup."""
    K = FiniteTableGroup.symmetric(3)
    L = FiniteTableGroup.cyclic(6)
    perms = sorted(itertools.permutations(range(3)))
    c = _perm_index(perms, (1, 2, 0))
    c2 = _perm_index(perms, (2, 0, 1))
    pairs = [(0, 0), (c, 2), (c2, 4)]
    T = TableAmalgam(K, L, pairs, name="S3*Z6/Z3")
    oracle = FiniteAmalgamOracle(K.table, L.table, pairs)
    return T, oracle


def instance_z4_z6():
    """Z4 amalgamated with Z6 over the order-2 subgroup."""
    K = FiniteTableGroup.cyclic(4)
    L = FiniteTableGroup.cyclic(6)
    pairs = [(0, 0), (2, 3)]
    T = TableAmalgam(K, L, pairs, name="Z4*Z6/Z2")
    oracle = FiniteAmalgamOracle(K.table, L.table, pairs)
    return T, oracle


def instance_d4_z8():
    """D4 amalgamated with Z8 over the rotation subgroup Z4."""
    K = dihedral_4()
    L = FiniteTableGroup.cyclic(8)
    pairs = [(0, 0), (1, 2), (2, 4), (3, 6)]
    T = TableAmalgam(K, L, pairs, name="D4*Z8/Z4")
    oracle = FiniteAmalgamOracle(K.table, L.table, pairs)
    return T, oracle


def instance_s3_z4():
    """S3 amalgamated with Z4 over a transposition: H is not normal in S3,
    so the seed of an H-chain can change how far it runs."""
    K = FiniteTableGroup.symmetric(3)
    L = FiniteTableGroup.cyclic(4)
    perms = sorted(itertools.permutations(range(3)))
    pairs = [(0, 0), (_perm_index(perms, (1, 0, 2)), 2)]
    T = TableAmalgam(K, L, pairs, name="S3*Z4/Z2")
    oracle = FiniteAmalgamOracle(K.table, L.table, pairs)
    return T, oracle


ALL_INSTANCES = (instance_s3_z6, instance_z4_z6, instance_d4_z8)


def random_shared_free(rng):
    """A shared-free amalgam on 1-2 H-letters and 1-2 letters of each
    side's own."""
    h = [f"h{i}" for i in range(rng.randint(1, 2))]
    K = FreeGroup(h + [f"a{i}" for i in range(rng.randint(1, 2))])
    L = FreeGroup(h + [f"b{i}" for i in range(rng.randint(1, 2))])
    return SharedFreeAmalgam(K, L, h)


def h_elements(T, n: int) -> list:
    """Up to n H-elements on the K side, identity first: on a finite
    table the rest of H by index, on a free side the reduced H-words of
    one and two letters in length-lex order."""
    K = T.K
    if isinstance(K, FiniteTableGroup):
        return sorted((g for g in K.elements() if T.in_H(g)),
                      key=lambda g: (not K.is_identity(g), g.payload))[:n]
    letters = [(s, sign) for s in sorted(T.h_symbols, key=str)
               for sign in (1, -1)]
    out = [K.identity()]
    for length in (1, 2):
        for w in itertools.product(letters, repeat=length):
            g = K.element(w)
            if len(g.payload) == length:
                out.append(g)
    return out[:n]
