"""The per-syllable-object memos against their memo-free references.

``canonical_product``, ``canonical_inverse`` and ``RelatorSet._code`` do
their per-syllable work once per distinct syllable object, keyed on
``id``. The seeded words here reuse a small pool of syllable objects,
mix in equal but distinct copies, plant H-syllables and merges that
cascade into H, and feed one piece as a generator of fresh syllables
that die after use, so that their ids are recycled during the call.
Results are compared with the references in ``oracles`` on the finite
table amalgams and on random shared-free amalgams.
"""

from __future__ import annotations

import copy
import random
import sys

from amalgams.cancellation import symmetrized_closure
from amalgams.canonical import (
    K_SIDE,
    L_SIDE,
    Syllable,
    canonical_inverse,
    canonical_product,
)
from amalgams.groups import Element, FiniteTableGroup
from amalgams.systems import generate_relators, load_system_fixture

from amalgam_instances import (
    ALL_INSTANCES,
    h_elements,
    instance_s3_z4,
    random_shared_free,
)
from oracles import (
    reference_canonical_inverse,
    reference_canonical_product,
    reference_code,
)

CASES_PER_AMALGAM = 120
FIXTURES = "fixtures/systems"


def _string(labels):
    """Label codes as the string the relator set keeps: one code point
    per code."""
    return "".join(map(chr, labels))


def other(side):
    return L_SIDE if side == K_SIDE else K_SIDE


def amalgams(rng):
    tables = [make()[0] for make in ALL_INSTANCES + (instance_s3_z4,)]
    return tables + [random_shared_free(rng) for _ in range(4)]


def syllable_pool(T, rng):
    """Per side, a few syllable objects inside and outside H, and a map
    from each one's id to one shared inverse object."""
    pool = {}
    for side in (K_SIDE, L_SIDE):
        group = T.side_group(side)
        elts = [T.transfer(h, side) for h in h_elements(T, 3)]
        for _ in range(4):
            if isinstance(group, FiniteTableGroup):
                elts.append(group.element(rng.randrange(group.order)))
            else:
                elts.append(group.element(
                    [(rng.choice(group.symbols), rng.choice((1, -1)))
                     for _ in range(rng.randint(1, 3))]))
        pool[side] = [Syllable(side, g) for g in elts]
    inverses = {id(s): Syllable(s.side, s.elt.inv())
                for syls in pool.values() for s in syls}
    return pool, inverses


def random_syllables(rng, pool, inverses, n):
    """n or more syllables: mostly pool objects, some equal but distinct
    copies, and planted undos of the last few syllables, whose merges
    cascade into H."""
    out = []
    while len(out) < n:
        r = rng.random()
        s = rng.choice(pool[rng.choice((K_SIDE, L_SIDE))])
        if r < 0.6 or not out:
            out.append(s)
        elif r < 0.8:
            out.append(Syllable(s.side, Element(s.elt.owner, s.elt.payload)))
        else:
            k = rng.randint(1, min(4, len(out)))
            undo = [inverses.get(id(t)) or Syllable(t.side, t.elt.inv())
                    for t in reversed(out[-k:])]
            if rng.random() < 0.5:
                # an H-syllable between the halves
                undo.insert(0, pool[out[-1].side][0])
            out.extend(undo)
    return out


def fresh(specs, ids):
    """A generator piece: a new syllable object per item, dropped after
    use unless the result keeps it."""
    for side, elt in specs:
        syl = Syllable(side, elt)
        ids.append(id(syl))
        yield syl


def random_pieces(T, rng, pool, inverses):
    """A piece spec: ("list", syllables), ("trusted", a slice of a
    canonical word) or ("gen", (side, element) pairs)."""
    spec = []
    for _ in range(rng.randint(1, 4)):
        syls = random_syllables(rng, pool, inverses, rng.randint(1, 10))
        kind = rng.choice(("list", "trusted", "gen"))
        if kind == "trusted":
            w = reference_canonical_product(((syls, False),), T)
            i = rng.randrange(len(w) + 1)
            spec.append(("trusted", w[i:rng.randint(i, len(w))]))
        elif kind == "gen":
            spec.append(("gen", [(s.side, s.elt) for s in syls]))
        else:
            spec.append(("list", tuple(syls)))
    if rng.random() < 0.15:
        # a syllable on the wrong side, sharing its element object with
        # a pool syllable: both versions must reject it
        n, (kind, data) = rng.choice(list(enumerate(spec)))
        s = rng.choice(pool[rng.choice((K_SIDE, L_SIDE))])
        bad = (other(s.side), s.elt)
        if kind == "gen":
            data = data + [bad]
        else:
            kind, data = "list", tuple(data) + (s, Syllable(*bad))
        spec[n] = (kind, data)
    return spec


def pieces(spec, ids):
    for kind, data in spec:
        if kind == "gen":
            yield fresh(data, ids), False
        else:
            yield data, kind == "trusted"


def outcome(fn):
    try:
        return fn()
    except ValueError as exc:
        return f"ValueError: {exc}"


def test_canonical_product_and_inverse_match_memo_free_references():
    rng = random.Random(19)
    ids, rejected, cascades = [], 0, 0
    for T in amalgams(rng):
        pool, inverses = syllable_pool(T, rng)
        for _ in range(CASES_PER_AMALGAM):
            spec = random_pieces(T, rng, pool, inverses)
            got = outcome(lambda: canonical_product(pieces(spec, ids), T))
            ref = outcome(
                lambda: reference_canonical_product(pieces(spec, []), T))
            assert got == ref, spec
            if isinstance(got, str):
                rejected += 1
                continue
            w = got
            cascades += sum(len(d) for _, d in spec) - len(w) >= 4
            inv = canonical_inverse(w, T)
            assert inv == reference_canonical_inverse(w), w
            # one inverse object per distinct syllable object
            assert len({id(s) for s in inv}) == len({id(s) for s in w})
    assert rejected >= 20 and cascades >= 100
    if sys.implementation.name == "cpython":
        # the generator pieces did recycle ids of dropped syllables
        assert len(set(ids)) < len(ids)


def test_relator_codes_match_memo_free_reference():
    rng = random.Random(23)
    for T in amalgams(rng):
        pool, inverses = syllable_pool(T, rng)
        for _ in range(CASES_PER_AMALGAM // 4):
            bases = []
            for _ in range(rng.randint(1, 3)):
                w = canonical_product(((random_syllables(
                    rng, pool, inverses, rng.randint(2, 16)), False),), T)
                if w:
                    bases.append(w)
            if not bases:
                continue
            R = symmetrized_closure(bases, T)
            # the build, recomputed on empty code tables
            ref = copy.copy(R)
            ref._label_codes, ref._chain_codes, ref._junctions = {}, {}, {}
            for unit in R.units:
                labels, codes = reference_code(ref, unit.word, grow=True)
                assert R.cyclic_labels[unit.uid] == _string(labels) * 2
                # a unit's chain codes are written twice, as its labels
                assert (codes and codes * 2) == \
                    (R.codes and R.codes[unit.uid])
            assert (R.codes is None) == (T.label_and_ends(
                pool[K_SIDE][-1].elt) is None)
            # query words, canonical or not, with shared and copied
            # syllables; codes of pairs no unit has read 0
            for _ in range(4):
                syls = random_syllables(rng, pool, inverses,
                                        rng.randint(0, 24))
                for w in (tuple(syls),
                          canonical_product(((syls, False),), T)):
                    labels, codes = reference_code(R, w, False)
                    assert R.code_word(w) == (_string(labels), codes)


def test_identity_carry_keeps_the_first_syllable_object(monkeypatch):
    # trivial_h's entries have h = 1: the identity H-carry in front of a
    # unit's first syllable passes that syllable object through, so each
    # of the 8 units holds 3 syllable objects and is labelled 3 times
    T, S, _ = load_system_fixture(f"{FIXTURES}/trivial_h.json")
    label_and_ends = type(T).label_and_ends
    calls = []

    def counted(self, g):
        calls.append(g)
        return label_and_ends(self, g)

    monkeypatch.setattr(type(T), "label_and_ends", counted)
    R = generate_relators(S, T, check=False)
    assert len(R.units) == 8
    assert [len({id(s) for s in u.word}) for u in R.units] == \
        [3] * 8
    assert len(calls) == 24


def planted_piece(rng, T, pool, inverses, n):
    """n or more syllables: clean runs of pool syllables outside H that
    alternate sides, broken by an H-syllable (often the identity, an
    identity carry), a same-side neighbour or an undo of the syllable
    before, whose merge lands in H; the first and the last syllable are
    often breaks. None when a side has no pool syllable outside H."""
    outside = {side: [s for s in syls if not T.in_H(s.elt)]
               for side, syls in pool.items()}
    if not all(outside.values()):
        return None
    side = rng.choice((K_SIDE, L_SIDE))
    out = [rng.choice(pool[side][:2])] if rng.random() < 0.5 else []
    while len(out) < n:
        r = rng.random()
        if r < 0.9 or not out:
            out.append(rng.choice(outside[side]))
            side = other(side)
        elif r < 0.94:
            out.append(rng.choice(pool[rng.choice((K_SIDE, L_SIDE))][:2]))
        elif r < 0.97:
            out.append(rng.choice(outside[out[-1].side]))
        else:
            t = out[-1]
            out.append(inverses.get(id(t)) or Syllable(t.side, t.elt.inv()))
    if rng.random() < 0.5:
        out.append(rng.choice(pool[out[-1].side][:2] + outside[out[-1].side]))
    return out


def test_clean_runs_match_the_reference():
    # long untrusted pieces are mostly clean runs, pushed in bulk; their
    # breaks are planted, and mixed with trusted slices and generators
    rng = random.Random(32)
    cases, rejected = 0, 0
    for T in amalgams(rng):
        pool, inverses = syllable_pool(T, rng)
        if planted_piece(rng, T, pool, inverses, 1) is None:
            continue
        for _ in range(CASES_PER_AMALGAM // 2):
            spec = []
            for _ in range(rng.randint(1, 3)):
                syls = planted_piece(rng, T, pool, inverses,
                                     rng.randint(40, 160))
                kind = rng.choice(("list", "list", "trusted", "gen"))
                if kind == "trusted":
                    w = reference_canonical_product(((syls, False),), T)
                    i = rng.randrange(len(w) + 1)
                    spec.append(("trusted", w[i:rng.randint(i, len(w))]))
                elif kind == "gen":
                    spec.append(("gen", [(s.side, s.elt) for s in syls]))
                else:
                    spec.append(("list", tuple(syls)))
            if rng.random() < 0.1:
                # a wrong-side syllable after a clean run
                s = rng.choice(pool[rng.choice((K_SIDE, L_SIDE))])
                syls = planted_piece(rng, T, pool, inverses, 30)
                spec.insert(rng.randrange(len(spec) + 1), (
                    "list", tuple(syls) + (Syllable(other(s.side), s.elt),)
                    + tuple(syls)))
            made = []  # the ids of the generated syllables
            got = outcome(lambda: canonical_product(pieces(spec, made), T))
            ref = outcome(
                lambda: reference_canonical_product(pieces(spec, []), T))
            assert got == ref, spec
            cases += 1
            if isinstance(got, str):
                rejected += 1
                continue
            # a result syllable that holds an input element is an input
            # syllable object, unless it is a lone H-carry
            inputs = {id(s) for k, d in spec if k != "gen" for s in d}
            inputs.update(made)
            elts = {id(s.elt) for k, d in spec if k != "gen" for s in d}
            elts.update(id(g) for k, d in spec if k == "gen" for _, g in d)
            assert len(got) == 1 or all(
                id(s) in inputs for s in got if id(s.elt) in elts)
    assert cases >= 300 and rejected >= 10


def test_a_clean_run_runs_in_H_once_per_syllable_object(monkeypatch):
    T = instance_s3_z4()[0]
    pool, inverses = syllable_pool(T, random.Random(5))
    outside = {side: [s for s in syls if not T.in_H(s.elt)]
               for side, syls in pool.items()}
    run = [outside[side][k % 2] for k in range(300)
           for side in (K_SIDE, L_SIDE)]
    calls = []
    in_H = type(T).in_H
    monkeypatch.setattr(type(T), "in_H",
                        lambda self, g: calls.append(g) or in_H(self, g))
    w = canonical_product(((run, False),), T)
    assert w == tuple(run) and all(a is b for a, b in zip(w, run))
    assert len(calls) == len({id(s) for s in run}) == 4
