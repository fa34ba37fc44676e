"""Finite-stage simulator of the recursive tower construction.

Stages adjoin one fresh generator each; a pair-coloring on stage indices
drives a filtration into level sets, and at every realized level the
layer group is either a free product (no relators fire) or a
small-cancellation quotient produced by the relator-system machinery.
The module tracks transversals, enumerates the J-set of relator seeds,
audits the structural promises after every stage, and reports the
descending chain of pumped relator families over a quotient layer.

Stage indices play the role of ordinals; the group generated by the
generators with indices in A is written G_A and is modelled as the
letter-support subgroup of the ambient free group, which keeps every
membership, intersection, and double-coset question exact.  Layers that
acquire relators are recorded with their own amalgam and relator set;
``validate_system`` certifies the system first, and ``build_quotient``
gates the set. Materialized words stay far below the small-cancellation
length gap, so the free model remains faithful for all level and
transversal queries.
"""

from __future__ import annotations

import json
from itertools import accumulate
from typing import TYPE_CHECKING, Dict, FrozenSet, List, NamedTuple, \
    Optional, Sequence, Tuple

from amalgams import words
from amalgams.groups import (
    Element,
    ElementRegistry,
    FreeGroup,
    LetterSupportSubgroup,
    good_fellows,
)
from amalgams.canonical import (
    CanonicalWord,
    K_SIDE,
    L_SIDE,
    SharedFreeAmalgam,
    canonicalize,
    syllable,
)
from amalgams.cancellation import (
    RelatorSet,
    build_quotient,
    check_cprime,
    part_threshold,
    relators_to_json,
)
from amalgams.systems import RHO_EVEN_LENGTH, SystemEntry, \
    generate_relators, validate_system
from amalgams.kernels import longest_common_run

if TYPE_CHECKING:
    # the ordinal layer is imported where it is used, so the commands
    # that read no coloring (the CLI loads this module for all) skip it
    from amalgams.colorings import ColoringTable


def sym(index: int) -> str:
    return f"x{index}"


def sym_index(s) -> int:
    return int(str(s)[1:])


def _support(payload) -> FrozenSet[int]:
    return frozenset(sym_index(s) for s, _ in payload)


# ---------------------------------------------------------------------------
# bookkeeping codes: a surjection from integers onto quadruples
# (code, code, code, sign), used to decode relator-seed data out of the
# pair-coloring c1


def q_of(xi: int) -> Tuple[int, int, int, int]:
    """Decode a bookkeeping integer into (q0, q1, q2, epsilon)."""
    from amalgams.colorings import cantor_unpair

    if xi < 0:
        raise ValueError("bookkeeping codes are nonnegative")
    eps = 1 if xi % 2 == 0 else -1
    q0, rest = cantor_unpair(xi // 2)
    q1, q2 = cantor_unpair(rest)
    return q0, q1, q2, eps


def q_code(q0: int, q1: int, q2: int, eps: int) -> int:
    """Inverse of q_of; handy when engineering coloring tables."""
    from amalgams.colorings import cantor_pair

    if eps not in (1, -1):
        raise ValueError("sign must be +-1")
    return 2 * cantor_pair(q0, cantor_pair(q1, q2)) + (0 if eps == 1 else 1)


# ---------------------------------------------------------------------------
# stage state


class StageLayer(NamedTuple):
    gamma: int
    level: int
    kind: str  # "free" | "quotient"
    skipped: List[dict]
    entries: Sequence["JEntry"] = ()
    system: Sequence[SystemEntry] = ()
    amalgam: Optional[SharedFreeAmalgam] = None
    relators: Optional[RelatorSet] = None


class StageState:
    """A snapshot of the construction after `stage` generators.

    ``_rows`` holds this stage's decomposition rows: an element's
    ``decompose_star`` at every cut, one row per (payload, gamma,
    registry size), which every level of the element's layers reads."""

    def __init__(self, colorings: ColoringTable, stage: int = 0):
        self.colorings = colorings
        self.stage = stage
        self.ambient = FreeGroup([sym(i) for i in range(stage)], name="G")
        self.registry = ElementRegistry()
        self.groups: Dict[FrozenSet[int], LetterSupportSubgroup] = {}
        self.layers: Dict[Tuple[int, int], StageLayer] = {}
        self.audit: List[dict] = []
        # a support depends on the payload alone, so `advance_stage`
        # hands this cache on to the next stage
        self._supports: Dict[tuple, FrozenSet[int]] = {}
        self._layer_sets: Dict[Tuple[int, int], FrozenSet[int]] = {}
        # the order on cores reads registry codes, and the registry only
        # grows, so its size is in the row key
        self._rows: Dict[tuple, list] = {}

    # -- group lattice ------------------------------------------------------

    def subgroup(self, indices) -> LetterSupportSubgroup:
        key = frozenset(indices)
        if not all(0 <= i < self.stage for i in key):
            raise ValueError("subgroup indices outside the built stages")
        sub = self.groups.get(key)
        if sub is None:
            sub = LetterSupportSubgroup(self.ambient,
                                        [sym(i) for i in sorted(key)])
            self.groups[key] = sub
        return sub

    def layer_set(self, gamma: int, i: int) -> FrozenSet[int]:
        """The indices a (gamma, i) layer element may use: the strict
        level set and gamma."""
        key = (gamma, i)
        out = self._layer_sets.get(key)
        if out is None:
            out = self._layer_sets[key] = frozenset(
                self.colorings.d_set(gamma, i, "strict")) | {gamma}
        return out

    # -- elements -----------------------------------------------------------

    def element(self, payload) -> Element:
        return self.ambient.element(tuple(payload))

    def generator(self, index: int) -> Element:
        return self.ambient.generator(sym(index))

    def support(self, g: Element) -> FrozenSet[int]:
        supp = self._supports.get(g.payload)
        if supp is None:
            supp = self._supports[g.payload] = _support(g.payload)
        return supp

    def registered(self) -> List[Element]:
        return [self.registry.decode(c)
                for c in range(len(self.registry))]


def init_base(count: int, colorings: Optional[ColoringTable] = None
              ) -> StageState:
    """Base of the tower: a free group on `count` seed generators.

    The registry assigns codes 0..count-1 to the generators in order and
    the next code to the identity, so that the earliest bookkeeping
    codes always decode.
    """
    if count < 1:
        raise ValueError("need at least one seed generator")
    if colorings is None:
        from amalgams.colorings import ColoringTable

        colorings = ColoringTable()
    state = StageState(colorings, stage=count)
    for i in range(count):
        state.registry.register(state.generator(i))
    state.registry.register(state.ambient.identity())
    return state


# ---------------------------------------------------------------------------
# levels


def i_at(g: Element, gamma: int, state: StageState) -> int:
    """The least level i with g in G over the weak level set at gamma."""
    supp = state.support(g)
    if any(b >= gamma for b in supp):
        raise ValueError(f"element not in G_{gamma}")
    return max((state.colorings.e(b, gamma) for b in supp), default=0)


# ---------------------------------------------------------------------------
# transversals


def _reduced_slice(state: StageState, part) -> Element:
    """An element on a slice of a reduced payload, which is itself
    reduced, so it skips the normalisation of `StageState.element`."""
    return Element(state.ambient, part)


def _order_key(state: StageState, g: Element):
    """The stratified well-order on layer elements is: the appearance
    level over gamma, then registry code, then length-lex. It only ever
    compares a core with its inverse, which share support and length,
    so the code and the payload decide."""
    code = state.registry.code_of(g)
    return (1 << 60 if code is None else code, g.payload)


def _check_layer(g: Element, gamma: int, i: int, state: StageState):
    allowed = state.layer_set(gamma, i)
    if not state.support(g) <= allowed:
        raise ValueError(
            f"element outside the ({gamma},{i}) layer: support "
            f"{sorted(state.support(g))} vs {sorted(allowed)}")


def _decomposition_row(g: Element, gamma: int, state: StageState) -> list:
    """g's (y0, t, eps, y1) at every cut beta = 0..gamma, for g in a
    (gamma, i) layer.

    Every letter of g but x_gamma is in the strict level set, so the
    first k letters lie in the cut subgroup exactly when beta exceeds
    their largest index: the prefix length p and the suffix length q are
    step functions of beta. The prefix wins a letter both could strip,
    so q is capped at n - p. Each distinct (p, q) yields one tuple,
    shared by every cut in its range."""
    payload = g.payload
    n = len(payload)
    # pre[k] (suf[k]): the least cut that holds the first (last) k + 1
    # letters; x_gamma's is gamma + 1, past every cut
    least = [sym_index(s) + 1 for s, _ in payload]
    pre = list(accumulate(least, max))
    suf = list(accumulate(reversed(least), max))
    row, p, q_free, last, dec = [], 0, 0, None, None
    for beta in range(gamma + 1):
        while p < n and pre[p] <= beta:
            p += 1
        while q_free < n and suf[q_free] <= beta:
            q_free += 1
        # the core is payload[head:tail], where tail = n - q
        cut = p, max(n - q_free, p)
        if cut != last:
            last = head, tail = cut
            c1 = _reduced_slice(state, payload[head:tail])
            c2 = c1.inv()
            if _order_key(state, c1) <= _order_key(state, c2):
                t, eps = c1, 1
            else:
                t, eps = c2, -1
            dec = (_reduced_slice(state, payload[:head]), t, eps,
                   _reduced_slice(state, payload[tail:]))
        row.append(dec)
    return row


def _row(g: Element, gamma: int, i: int, state: StageState) -> list:
    """The decomposition row of g in the (gamma, i) layer. The row does
    not depend on the level, so it is built once per (payload, gamma,
    registry size); the layer is checked on every call, so an element
    outside the (gamma, i) layer raises although its row is kept."""
    _check_layer(g, gamma, i, state)
    key = (g.payload, gamma, len(state.registry))
    row = state._rows.get(key)
    if row is None:
        row = state._rows[key] = _decomposition_row(g, gamma, state)
    return row


def decompose_star(g: Element, gamma: int, i: int, beta: int,
                   state: StageState) -> Tuple[Element, Element, int, Element]:
    """Write g = y0 * t^eps * y1 with t its transversal representative
    and y0, y1 in the level subgroup cut at beta; replayable by
    multiplying out.

    y0 and y1 are the longest prefix and suffix of g on the cut
    subgroup's letters, the prefix first, and t is the smaller of the
    core left between them and its inverse. Reads g's row at beta
    clamped to [0, gamma]: the strict level set lies below gamma, so
    the cuts outside that range equal its ends."""
    return _row(g, gamma, i, state)[min(max(beta, 0), gamma)]


def transversal_rep(g: Element, gamma: int, i: int, beta: int,
                    state: StageState) -> Element:
    """Class representative of g under conjugation-free double-coset
    equivalence (with inversion) modulo the level subgroup cut at beta.

    In the free model the representative is the two-sided subgroup-letter
    strip of g or of its inverse, whichever is smaller in the stratified
    order; stripping commutes with enlarging the level or shrinking the
    cut, which is exactly the monotonicity the tower needs. It is the t
    of ``decompose_star``, read off the same row.
    """
    return decompose_star(g, gamma, i, beta, state)[1]


# ---------------------------------------------------------------------------
# the J-set


class JEntry(NamedTuple):
    gamma: int
    level: int
    l: Element
    k: Element  # also the entry's a
    alpha: int
    d: Element
    y0: Element
    y1: Element
    eps: int
    h: Element
    b: Element
    bprime: Element


def _k_candidates(gamma: int, i: int, state: StageState) -> List[Element]:
    d_le = set(state.colorings.d_set(gamma, i, "weak"))
    out = []
    for g in state.registered():
        supp = state.support(g)
        if not supp or not supp <= d_le:
            continue
        if state.colorings.e(max(supp), gamma) == i:
            out.append(g)
    return out


def _l_candidates(gamma: int, i: int, beta: int,
                  state: StageState) -> List[Element]:
    allowed = state.layer_set(gamma, i)
    seen, out = set(), []
    for g in state.registered():
        supp = state.support(g)
        if gamma not in supp or not supp <= allowed:
            continue
        rep = transversal_rep(g, gamma, i, beta, state)
        if rep.payload not in seen:
            seen.add(rep.payload)
            out.append(rep)
    return out


def enumerate_J(gamma: int, i: int, state: StageState
                ) -> Tuple[List[JEntry], List[dict]]:
    """All relator seeds (l, k) whose bookkeeping data decodes and whose
    side conditions hold; skipped candidates are logged, never silently
    dropped."""
    entries: List[JEntry] = []
    skipped: List[dict] = []
    n_codes = len(state.registry)

    def skip(k, reason, **extra):
        skipped.append({"k": list(k.payload), "reason": reason, **extra})

    for k in _k_candidates(gamma, i, state):
        alpha = max(state.support(k))
        xi = state.colorings.c1(alpha, gamma)
        if xi is None:
            skip(k, "c1-undecodable", alpha=alpha)
            continue
        q0, q1, q2, eps = q_of(xi)
        if any(c >= n_codes for c in (q0, q1, q2)):
            skip(k, "bookkeeping-code-not-materialized", xi=xi)
            continue
        y0 = state.registry.decode(q0)
        y1 = state.registry.decode(q1)
        d = state.registry.decode(q2)
        if any(max(state.support(g), default=-1) >= gamma
               for g in (y0, y1, d)):
            skip(k, "decoded-element-outside-stage", xi=xi)
            continue
        h_code = state.colorings.c0(alpha, gamma)
        if h_code is None or h_code >= n_codes:
            skip(k, "c0-undecodable", alpha=alpha)
            continue
        h = state.registry.decode(h_code)
        if max(state.support(h), default=-1) >= gamma:
            skip(k, "c0-element-outside-stage")
            continue
        # ordering condition: the decoded data lives strictly below alpha
        if any(max(state.support(g), default=-1) >= alpha
               for g in (y0, y1, d)):
            skip(k, "data-not-below-alpha", alpha=alpha)
            continue
        # the anchor element must enter strictly later than the rest,
        # and still below the current level, so the product lands in L
        i_d = i_at(d, gamma, state)
        i_y = max(i_at(y0, gamma, state), i_at(y1, gamma, state))
        if not i_d < i:
            skip(k, "anchor-level-too-high", i_d=i_d)
            continue
        if i_at(h, gamma, state) >= i:
            skip(k, "h-outside-strict-level-set")
            continue
        for l in _l_candidates(gamma, i, alpha, state):
            supp_l = state.support(l) - {gamma}
            i_l = max((state.colorings.e(b, gamma) for b in supp_l),
                      default=0)
            if not max(i_l, i_y) < i_d:
                skip(k, "level-separation-failed", i_l=i_l, i_y=i_y,
                     i_d=i_d)
                continue
            amb = state.ambient
            l_part = l if eps == 1 else l.inv()
            b = amb.mul(amb.mul(y0, l_part), amb.mul(y1, d))
            if gamma not in state.support(b):
                skip(k, "seed-product-degenerate")
                continue
            entries.append(JEntry(
                gamma=gamma, level=i, l=l, k=k, alpha=alpha, d=d,
                y0=y0, y1=y1, eps=eps, h=h, b=b, bprime=amb.mul(b, b)))
    entries.sort(key=lambda en: (en.k.payload, en.l.payload))
    return entries, skipped


# ---------------------------------------------------------------------------
# stage advancement


def _build_layer(gamma: int, i: int, state: StageState) -> StageLayer:
    entries, skipped = enumerate_J(gamma, i, state)
    if not entries:
        return StageLayer(gamma=gamma, level=i, kind="free",
                          skipped=skipped)
    d_lt = state.colorings.d_set(gamma, i, "strict")
    d_le = state.colorings.d_set(gamma, i, "weak")
    K_grp = FreeGroup([sym(b) for b in d_le], name=f"K{gamma}.{i}")
    L_grp = FreeGroup([sym(b) for b in d_lt] + [sym(gamma)],
                      name=f"L{gamma}.{i}")
    T = SharedFreeAmalgam(K_grp, L_grp, [sym(b) for b in d_lt],
                          name=f"stage{gamma}.{i}")
    system = []
    for n, en in enumerate(entries):
        system.append(SystemEntry(
            h=Element(K_grp, en.h.payload),
            a=Element(K_grp, en.k.payload),
            b=Element(L_grp, en.b.payload),
            bprime=Element(L_grp, en.bprime.payload),
            index=n))
    report = validate_system(system, T)
    if report.status == "invalid":
        raise ValueError(f"system is invalid: {report.witness}")
    R = generate_relators(system, T)
    build_quotient(R)
    return StageLayer(gamma=gamma, level=i, kind="quotient",
                      entries=entries, system=system, amalgam=T,
                      relators=R, skipped=skipped)


def advance_stage(state: StageState) -> StageState:
    """Adjoin the next generator and build all realized layers, then run
    the promise audits; the first audit that fails raises
    ``AuditFailure``."""
    gamma = state.stage
    new = StageState(state.colorings, stage=gamma + 1)
    new._supports = state._supports
    for code in range(len(state.registry)):
        old = state.registry.decode(code)
        new.registry.register(new.element(old.payload))
    new.layers = dict(state.layers)
    new.audit = list(state.audit)
    new.registry.register(new.generator(gamma))
    levels = sorted({new.colorings.e(b, gamma) for b in range(gamma)})
    if not levels:
        levels = [0]
    for i in levels:
        new.layers[(gamma, i)] = _build_layer(gamma, i, new)
    audit_stage(new, gamma, levels)
    return new


def run_construction(config: dict) -> StageState:
    """Drive the tower from a config {generators, stages, colorings}."""
    colorings = config.get("colorings")
    if isinstance(colorings, dict):
        from amalgams.colorings import ColoringTable

        colorings = ColoringTable.from_json(colorings, int(config["stages"]))
    state = init_base(int(config["generators"]), colorings)
    while state.stage < int(config["stages"]):
        state = advance_stage(state)
    return state


# ---------------------------------------------------------------------------
# audits


class AuditFailure(RuntimeError):
    """A promise audit failed; ``record`` is its audit record."""

    def __init__(self, record: dict):
        super().__init__(f"promise audit failed: {record}")
        self.record = record


def _audit(state, name, gamma, status, instances, **extra):
    rec = {"check": name, "gamma": gamma, "status": status,
           "instances": instances, **extra}
    state.audit.append(rec)
    if status != "pass":
        raise AuditFailure(rec)


def audit_stage(state: StageState, gamma: int, levels: Sequence[int]):
    colorings = state.colorings
    members = state.registered()
    supports = [state.support(g) for g in members]

    # intersection promises on the level sets, element by element
    checked = 0
    for i in levels:
        lt = frozenset(state.colorings.d_set(gamma, i, "strict"))
        le = frozenset(state.colorings.d_set(gamma, i, "weak"))
        below = frozenset(range(gamma))
        if (lt | {gamma}) & below != lt or (lt | {gamma}) & le != lt:
            _audit(state, "level-set-intersection", gamma, "fail", checked,
                   level=i)
        for supp in supports:
            in_layer = supp <= lt | {gamma}
            in_stage = supp <= below
            in_weak = supp <= le
            if (in_layer and in_stage) != (supp <= lt):
                _audit(state, "intersection-with-stage", gamma, "fail",
                       checked, level=i)
            if (in_layer and in_weak) != (supp <= lt):
                _audit(state, "intersection-with-weak-level", gamma,
                       "fail", checked, level=i)
            checked += 2
    _audit(state, "intersection-promises", gamma, "pass", checked)

    # closed-set lattice: G_F meet G_F' is G_{F meet F'}
    fams = [frozenset(colorings.d_set(gamma, i, mode))
            for mode in ("strict", "weak") for i in levels]
    fams += [frozenset(range(b)) for b in range(gamma + 1)]
    fams = sorted(set(fams), key=sorted)
    checked = 0
    for a in fams:
        for b in fams:
            meet = a & b
            for supp in supports:
                if (supp <= a and supp <= b) != (supp <= meet):
                    _audit(state, "lattice-intersection", gamma, "fail",
                           checked)
                checked += 1
    _audit(state, "lattice-intersection", gamma, "pass", checked)

    # malnormality of the strict level set in its layer extension
    for i in levels:
        lt = state.colorings.d_set(gamma, i, "strict")
        layer = state.layers[(gamma, i)]
        if not lt:
            _audit(state, "layer-malnormality", gamma, "pass", 0, level=i,
                   method="trivial-subgroup")
        elif layer.kind == "free":
            L_grp = FreeGroup([sym(b) for b in lt] + [sym(gamma)])
            verdict = LetterSupportSubgroup(
                L_grp, [sym(b) for b in lt]).is_malnormal()
            _audit(state, "layer-malnormality", gamma,
                   "pass" if verdict else "fail", 1, level=i,
                   method="free-factor")
        else:
            _audit(state, "layer-malnormality", gamma, "pass", 1, level=i,
                   method="small-cancellation-quotient")

    # transversal decompositions and their monotonicity in the level and
    # the cut, read off one row per (element, level)
    amb = state.ambient
    # (level, cut) -> the representatives met there, by payload, in
    # order of arrival
    slots: Dict[Tuple[int, int], Dict[tuple, Element]] = {}
    checked = 0
    for i in levels:
        allowed = state.layer_set(gamma, i)
        for g in members:
            if not state.support(g) <= allowed:
                continue
            dec = None
            for beta, row_dec in enumerate(_row(g, gamma, i, state)):
                t = row_dec[1]
                slots.setdefault((i, beta), {}).setdefault(t.payload, t)
                if row_dec is not dec:
                    # a row holds each distinct decomposition once, over
                    # a run of cuts, so one multiply-back covers the run
                    dec = row_dec
                    y0, _, eps, y1 = dec
                    prod = amb.mul(amb.mul(y0, t if eps == 1 else t.inv()),
                                   y1)
                    if prod.payload != g.payload:
                        _audit(state, "transversal-decomposition", gamma,
                               "fail", checked, level=i, beta=beta)
                checked += 1
    # the identity is in every layer, so slots arrive in (level, cut)
    # order
    for (i1, b1), reps in slots.items():
        for t in reps.values():
            for j in levels:
                if j <= i1:
                    continue
                if _row(t, gamma, j, state)[b1][1].payload != t.payload:
                    _audit(state, "transversal-level-monotone", gamma,
                           "fail", checked, level=i1, beta=b1)
                checked += 1
            row = _row(t, gamma, i1, state)
            for b2 in range(b1):
                if row[b2][1].payload != t.payload:
                    _audit(state, "transversal-cut-monotone", gamma,
                           "fail", checked, level=i1, beta=b1)
                checked += 1
    _audit(state, "transversal-laws", gamma, "pass", checked)

    # fresh arrivals at a common level sit in distinct double cosets
    checked = 0
    for i in levels:
        lt = state.colorings.d_set(gamma, i, "strict")
        sub = state.subgroup(lt) if lt else None
        ks = _k_candidates(gamma, i, state)
        for a_idx in range(len(ks)):
            for b_idx in range(a_idx + 1, len(ks)):
                k1, k2 = ks[a_idx], ks[b_idx]
                if max(state.support(k1)) == max(state.support(k2)):
                    continue
                if sub is None:
                    ok = k1.payload != k2.payload and \
                        k1.payload != k2.inv().payload
                else:
                    ok = good_fellows(k1, k2, sub)
                if not ok:
                    _audit(state, "fresh-arrival-separation", gamma,
                           "fail", checked, level=i)
                checked += 1
    _audit(state, "fresh-arrival-separation", gamma, "pass", checked)

    # sandwich products escape the strict level set
    checked = 0
    for i in levels:
        lt = set(state.colorings.d_set(gamma, i, "strict"))
        fresh = [a for a in range(gamma)
                 if colorings.e(a, gamma) == i]
        for alpha in fresh:
            gs = [g for g, supp in zip(members, supports)
                  if supp and supp <= lt and max(supp) >= alpha]
            kset = [k for k, supp in zip(members, supports)
                    if alpha in supp and
                    supp <= {x for x in state.colorings.d_set(gamma, i, "weak")
                             if x <= alpha}]
            for g in gs:
                for k1 in kset:
                    for k2 in kset:
                        prod = state.ambient.mul(
                            state.ambient.mul(k1, g), k2)
                        if state.support(prod) <= lt:
                            _audit(state, "sandwich-escape", gamma,
                                   "fail", checked, level=i, alpha=alpha)
                        checked += 1
    _audit(state, "sandwich-escape", gamma, "pass", checked)


# ---------------------------------------------------------------------------
# emitted presentations


def presentation(state: StageState) -> dict:
    """The current group as a presentation document: generators plus the
    flattened relators of every quotient layer."""
    layers = []
    for (gamma, i) in sorted(state.layers):
        layer = state.layers[(gamma, i)]
        entry = {"gamma": gamma, "level": i, "kind": layer.kind,
                 "skipped": len(layer.skipped)}
        if layer.kind == "quotient":
            reg = ElementRegistry()
            entry["relators"] = relators_to_json(layer.relators, reg)
            entry["elements"] = reg.dump_json()
            entry["letter_relators"] = [
                words.to_json(_flatten(b.word))
                for b in layer.relators.bases]
        layers.append(entry)
    return {"schema": "amalgams-construction/1",
            "stage": state.stage,
            "generators": [sym(i) for i in range(state.stage)],
            "colorings": state.colorings.to_json(),
            "layers": layers}


def _flatten(w: CanonicalWord):
    out = []
    for s in w:
        out.extend(s.elt.payload)
    return words.free_reduce(out)


def summary_json(state: StageState) -> str:
    doc = presentation(state)
    doc["audit"] = state.audit
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# the descending relator chain


def topology_chain(gamma: int, i: int, k_max: int,
                   state: StageState) -> dict:
    """The nested relator families over one quotient layer.

    Level k keeps the stage relators and the pumped powers from k on:
    ``base_count`` base members of length ``base_length`` and, for each
    ell in the range ``pumped_ell`` = [k, k_max], as many pumped members
    of length base_length ** (ell + 1). Levels are described by this
    arithmetic and their members are never listed or materialized.
    """
    layer = state.layers.get((gamma, i))
    report = {"schema": "amalgams-topology-chain/1", "gamma": gamma,
              "level": i, "k_max": k_max, "chain": []}
    if layer is None or layer.kind != "quotient":
        report["note"] = "no relators at this layer"
        return report
    report["base_length"] = RHO_EVEN_LENGTH
    n_entries = len(layer.entries)
    prev = None
    for k in range(k_max + 1):
        entry = {"k": k, "base_count": n_entries, "pumped_ell": [k, k_max]}
        if k == 0:
            entry["normal_closure_note"] = \
                "the stage normal closure uses only the base members"
        if prev is not None:
            # the base members are shared, so nesting is containment of
            # the pumped ell ranges
            entry["subset_of_previous"] = prev[0] <= k and k_max <= prev[1]
        prev = entry["pumped_ell"]
        report["chain"].append(entry)

    # the base members are the stage relator set itself; re-check the
    # overlap condition on it
    frag = check_cprime(layer.relators)
    report["fragment_cprime"] = {"status": frag.status,
                                 "max_core": frag.max_core}

    # pumped members avoid the stage normal closure: every factor of the
    # pumped word short enough to matter occurs in a bounded window, and
    # the window shares less than a long part with any stage relator
    report["pumped_avoid_n0"] = _pumped_window_check(layer)
    return report


def _pumped_window_check(layer: StageLayer) -> dict:
    """Longest common run of each entry's window (b a)^3320 b' a (b a)^3320,
    13,282 syllables, with any stage relator unit."""
    T, R = layer.amalgam, layer.relators
    threshold = part_threshold(RHO_EVEN_LENGTH)
    out = {"threshold": threshold, "entries": []}
    half = words.RHO_LENGTH
    for n, sysent in enumerate(layer.system):
        window_sylls = []
        pair = (syllable(L_SIDE, sysent.b), syllable(K_SIDE, sysent.a))
        for _ in range(half):
            window_sylls.extend(pair)
        window_sylls.extend((syllable(L_SIDE, sysent.bprime),
                             syllable(K_SIDE, sysent.a)))
        for _ in range(half):
            window_sylls.extend(pair)
        wl, _ = R.code_word(canonicalize(window_sylls, T))
        worst = 0
        for unit in R.units:
            run, _, _ = longest_common_run(wl, R.cyclic_labels[unit.uid])
            worst = max(worst, run)
        out["entries"].append({"sigma": n, "status":
                               "pass" if worst < threshold else "fail",
                               "max_overlap": worst,
                               "window": len(wl)})
    out["status"] = ("pass" if all(e["status"] == "pass"
                                   for e in out["entries"]) else "fail")
    return out
