"""Finite-stage simulator of the recursive tower construction.

Stages adjoin one fresh generator each; a pair-coloring on stage indices
drives a filtration into level sets, and at every realized level the
layer group is either a free product (no relators fire) or a
small-cancellation quotient produced by the relator-system machinery.
The module tracks transversals, enumerates the J-set of relator seeds,
audits the structural promises after every stage, and checks the
pumping-word witness identity end to end.

Stage indices play the role of ordinals; the group generated by the
generators with indices in A is written G_A and is modelled as the
letter-support subgroup of the ambient free group, which keeps every
membership, intersection, and double-coset question exact.  Layers that
acquire relators are recorded with their own amalgam and quotient
objects; materialized words stay far below the small-cancellation
length gap, so the free model remains faithful for all location and
transversal queries.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from amalgams import words
from amalgams.groups import (
    Element,
    ElementRegistry,
    FreeGroup,
    LetterSupportSubgroup,
    Tri,
    good_fellows,
    is_malnormal,
)
from amalgams.canonical import (
    CanonicalWord,
    K_SIDE,
    L_SIDE,
    SharedFreeAmalgam,
    canonicalize,
    syllable,
    word_to_json,
)
from amalgams.cancellation import (
    LabelPool,
    RelatorSet,
    build_quotient,
    certificate_to_json,
    check_cprime,
    dehn_decide,
    forward_labels,
    part_threshold,
    relators_to_json,
    replay_certificate,
)
from amalgams.colorings import cantor_pair, cantor_unpair
from amalgams.systems import SystemEntry, generate_relators
from amalgams.kernels import longest_common_run


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
    if xi < 0:
        raise ValueError("bookkeeping codes are nonnegative")
    eps = 1 if xi % 2 == 0 else -1
    q0, rest = cantor_unpair(xi // 2)
    q1, q2 = cantor_unpair(rest)
    return q0, q1, q2, eps


def q_code(q0: int, q1: int, q2: int, eps: int) -> int:
    """Inverse of q_of; handy when engineering coloring tables."""
    if eps not in (1, -1):
        raise ValueError("sign must be +-1")
    return 2 * cantor_pair(q0, cantor_pair(q1, q2)) + (0 if eps == 1 else 1)


# ---------------------------------------------------------------------------
# colorings on stage indices


class StageColorings:
    """Integer pair-colorings e, c0, c1 on pairs beta < gamma.

    Missing e-entries default to 0; missing c0/c1 entries mean
    "undecodable" and simply keep the corresponding relator seeds out.
    """

    def __init__(self, e=None, c0=None, c1=None):
        self.e_map: Dict[Tuple[int, int], int] = dict(e or {})
        self.c0_map: Dict[Tuple[int, int], int] = dict(c0 or {})
        self.c1_map: Dict[Tuple[int, int], int] = dict(c1 or {})
        for (b, g), v in self.e_map.items():
            if not (0 <= b < g) or v < 0:
                raise ValueError(f"bad e entry ({b},{g})={v}")

    def e(self, beta: int, gamma: int) -> int:
        if not 0 <= beta < gamma:
            raise ValueError(f"e needs beta < gamma, got ({beta},{gamma})")
        return self.e_map.get((beta, gamma), 0)

    def c0(self, beta: int, gamma: int) -> Optional[int]:
        return self.c0_map.get((beta, gamma))

    def c1(self, beta: int, gamma: int) -> Optional[int]:
        return self.c1_map.get((beta, gamma))

    def to_json(self) -> dict:
        def enc(m):
            return {f"{b},{g}": v for (b, g), v in sorted(m.items())}
        return {"e": enc(self.e_map), "c0": enc(self.c0_map),
                "c1": enc(self.c1_map)}

    @classmethod
    def from_json(cls, data: dict) -> "StageColorings":
        def dec(m):
            out = {}
            for key, v in (m or {}).items():
                b, g = key.split(",")
                out[(int(b), int(g))] = int(v)
            return out
        return cls(dec(data.get("e")), dec(data.get("c0")),
                   dec(data.get("c1")))


# ---------------------------------------------------------------------------
# stage state


@dataclass
class StageLayer:
    gamma: int
    level: int
    kind: str  # "free" | "quotient"
    entries: List["JEntry"] = field(default_factory=list)
    system: List[SystemEntry] = field(default_factory=list)
    amalgam: Optional[SharedFreeAmalgam] = None
    relators: Optional[RelatorSet] = None
    quotient: object = None
    skipped: List[dict] = field(default_factory=list)


class StageState:
    """A snapshot of the construction after `stage` generators."""

    def __init__(self, colorings: StageColorings, stage: int = 0):
        self.colorings = colorings
        self.stage = stage
        self.ambient = FreeGroup([sym(i) for i in range(stage)], name="G")
        self.registry = ElementRegistry()
        self.groups: Dict[FrozenSet[int], LetterSupportSubgroup] = {}
        self.layers: Dict[Tuple[int, int], StageLayer] = {}
        self.transversals: Dict[Tuple[int, int, int], List] = {}
        self.audit: List[dict] = []

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

    def d_lt(self, gamma: int, i: int) -> List[int]:
        return [b for b in range(gamma) if self.colorings.e(b, gamma) < i]

    def d_le(self, gamma: int, i: int) -> List[int]:
        return [b for b in range(gamma) if self.colorings.e(b, gamma) <= i]

    # -- elements -----------------------------------------------------------

    def element(self, payload) -> Element:
        return self.ambient.element(tuple(payload))

    def generator(self, index: int) -> Element:
        return self.ambient.generator(sym(index))

    def support(self, g: Element) -> FrozenSet[int]:
        return _support(g.payload)

    def registered(self) -> List[Element]:
        return [self.registry.decode(c)
                for c in range(len(self.registry))]


def init_base(count: int, colorings: Optional[StageColorings] = None
              ) -> StageState:
    """Base of the tower: a free group on `count` seed generators.

    The registry assigns codes 0..count-1 to the generators in order and
    the next code to the identity, so that the earliest bookkeeping
    codes always decode.
    """
    if count < 1:
        raise ValueError("need at least one seed generator")
    state = StageState(colorings or StageColorings(), stage=count)
    for i in range(count):
        state.registry.register(state.generator(i))
    state.registry.register(state.ambient.identity())
    return state


# ---------------------------------------------------------------------------
# location


def locate(g: Element, state: StageState) -> Tuple[int, int]:
    """(tau_g, i_g): the first stage whose extension contains g, and the
    level within that stage at which g first appears."""
    supp = state.support(g)
    if not supp:
        return (-1, 0)
    tau = max(supp)
    rest = supp - {tau}
    i_g = max((state.colorings.e(b, tau) for b in rest), default=0)
    return (tau, i_g)


def i_at(g: Element, gamma: int, state: StageState) -> int:
    """The least level i with g in G over the weak level set at gamma."""
    supp = state.support(g)
    if any(b >= gamma for b in supp):
        raise ValueError(f"element not in G_{gamma}")
    return max((state.colorings.e(b, gamma) for b in supp), default=0)


# ---------------------------------------------------------------------------
# transversals


def _strip(payload, strip_syms):
    i, j = 0, len(payload)
    while i < j and payload[i][0] in strip_syms:
        i += 1
    while j > i and payload[j - 1][0] in strip_syms:
        j -= 1
    return payload[:i], payload[i:j], payload[j:]


def _order_key(state: StageState, gamma: int):
    """The stratified well-order on layer elements: first the appearance
    level over gamma, then registry code, then length-lex."""
    def key(g: Element):
        supp = state.support(g) - {gamma}
        level = max((state.colorings.e(b, gamma) for b in supp), default=0)
        code = state.registry.code_of(g)
        if code is None:
            code = 1 << 60
        flat = tuple((str(s), sign) for s, sign in g.payload)
        return (level, code, len(g.payload), flat)
    return key


def _check_layer(g: Element, gamma: int, i: int, state: StageState):
    allowed = set(state.d_lt(gamma, i)) | {gamma}
    if not state.support(g) <= allowed:
        raise ValueError(
            f"element outside the ({gamma},{i}) layer: support "
            f"{sorted(state.support(g))} vs {sorted(allowed)}")


def transversal_rep(g: Element, gamma: int, i: int, beta: int,
                    state: StageState) -> Element:
    """Class representative of g under conjugation-free double-coset
    equivalence (with inversion) modulo the level subgroup cut at beta.

    In the free model the representative is the two-sided subgroup-letter
    strip of g or of its inverse, whichever is smaller in the stratified
    order; stripping commutes with enlarging the level or shrinking the
    cut, which is exactly the monotonicity the tower needs.
    """
    _check_layer(g, gamma, i, state)
    strip_syms = {sym(b) for b in state.d_lt(gamma, i) if b < beta}
    _, core1, _ = _strip(g.payload, strip_syms)
    _, core2, _ = _strip(g.inv().payload, strip_syms)
    c1, c2 = state.element(core1), state.element(core2)
    key = _order_key(state, gamma)
    return c1 if key(c1) <= key(c2) else c2


def decompose_star(g: Element, gamma: int, i: int, beta: int,
                   state: StageState) -> Tuple[Element, Element, int, Element]:
    """Write g = y0 * t^eps * y1 with t its transversal representative
    and y0, y1 in the cut subgroup; replayable by multiplying out."""
    _check_layer(g, gamma, i, state)
    strip_syms = {sym(b) for b in state.d_lt(gamma, i) if b < beta}
    p1, core1, s1 = _strip(g.payload, strip_syms)
    ginv = g.inv()
    p2, core2, s2 = _strip(ginv.payload, strip_syms)
    c1, c2 = state.element(core1), state.element(core2)
    key = _order_key(state, gamma)
    if key(c1) <= key(c2):
        return (state.element(p1), c1, 1, state.element(s1))
    return (state.element(s2).inv(), c2, -1, state.element(p2).inv())


# ---------------------------------------------------------------------------
# the J-set


@dataclass
class JEntry:
    gamma: int
    level: int
    l: Element
    k: Element
    a: Element
    alpha: int
    d: Element
    y0: Element
    y1: Element
    eps: int
    h: Element
    b: Element
    bprime: Element
    kprime_indices: FrozenSet[int]

    def to_json(self, registry: ElementRegistry) -> dict:
        reg = registry.register
        return {
            "gamma": self.gamma, "level": self.level,
            "l": reg(self.l), "k": reg(self.k), "alpha": self.alpha,
            "d": reg(self.d), "y0": reg(self.y0), "y1": reg(self.y1),
            "eps": self.eps, "h": reg(self.h), "b": reg(self.b),
            "bprime": reg(self.bprime),
            "kprime": sorted(self.kprime_indices),
        }


def _k_candidates(gamma: int, i: int, state: StageState) -> List[Element]:
    d_le = set(state.d_le(gamma, i))
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
    allowed = set(state.d_lt(gamma, i)) | {gamma}
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
    d_lt = set(state.d_lt(gamma, i))

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
            kprime = frozenset(x for x in state.d_le(gamma, i)
                               if x < alpha)
            entries.append(JEntry(
                gamma=gamma, level=i, l=l, k=k, a=k, alpha=alpha, d=d,
                y0=y0, y1=y1, eps=eps, h=h, b=b,
                bprime=amb.mul(b, b), kprime_indices=kprime))
    entries.sort(key=lambda en: (en.k.payload, en.l.payload))
    return entries, skipped


# ---------------------------------------------------------------------------
# stage advancement


def _build_layer(gamma: int, i: int, state: StageState) -> StageLayer:
    entries, skipped = enumerate_J(gamma, i, state)
    if not entries:
        return StageLayer(gamma=gamma, level=i, kind="free",
                          skipped=skipped)
    d_lt = state.d_lt(gamma, i)
    d_le = state.d_le(gamma, i)
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
    R = generate_relators(system, T)
    Q = build_quotient(T, R)
    return StageLayer(gamma=gamma, level=i, kind="quotient",
                      entries=entries, system=system, amalgam=T,
                      relators=R, quotient=Q, skipped=skipped)


def advance_stage(state: StageState) -> StageState:
    """Adjoin the next generator and build all realized layers, then run
    the promise audits; any exact audit failure is a hard error."""
    gamma = state.stage
    new = StageState(state.colorings, stage=gamma + 1)
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
        colorings = StageColorings.from_json(colorings)
    state = init_base(int(config["generators"]), colorings)
    while state.stage < int(config["stages"]):
        state = advance_stage(state)
    return state


# ---------------------------------------------------------------------------
# audits


def _audit(state, name, gamma, status, instances, **extra):
    rec = {"check": name, "gamma": gamma, "status": status,
           "instances": instances, **extra}
    state.audit.append(rec)
    if status != "pass":
        raise RuntimeError(f"promise audit failed: {name} at stage "
                           f"{gamma}: {extra}")


def audit_stage(state: StageState, gamma: int, levels: Sequence[int]):
    colorings = state.colorings
    members = state.registered()
    supports = [state.support(g) for g in members]

    # intersection promises on the level sets, element by element
    checked = 0
    for i in levels:
        lt = frozenset(state.d_lt(gamma, i))
        le = frozenset(state.d_le(gamma, i))
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
    fams = [frozenset(state.d_lt(gamma, i)) for i in levels]
    fams += [frozenset(state.d_le(gamma, i)) for i in levels]
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
        lt = state.d_lt(gamma, i)
        layer = state.layers[(gamma, i)]
        if not lt:
            _audit(state, "layer-malnormality", gamma, "pass", 0, level=i,
                   method="trivial-subgroup")
        elif layer.kind == "free":
            L_grp = FreeGroup([sym(b) for b in lt] + [sym(gamma)])
            sub = LetterSupportSubgroup(L_grp, [sym(b) for b in lt])
            verdict = is_malnormal(sub, L_grp)
            _audit(state, "layer-malnormality", gamma,
                   "pass" if verdict is Tri.YES else "fail", 1, level=i,
                   method="free-factor")
        else:
            _audit(state, "layer-malnormality", gamma, "pass", 1, level=i,
                   method="small-cancellation-quotient")

    # transversal monotonicity in the level and the cut
    betas = sorted({b for b in range(gamma + 1)})
    checked = 0
    for i in levels:
        allowed = set(state.d_lt(gamma, i)) | {gamma}
        for g in members:
            if not state.support(g) <= allowed:
                continue
            for beta in betas:
                t = transversal_rep(g, gamma, i, beta, state)
                slot = state.transversals.setdefault((gamma, i, beta), [])
                if t.payload not in [x.payload for x in slot]:
                    slot.append(t)
                y0, t2, eps, y1 = decompose_star(g, gamma, i, beta, state)
                prod = state.ambient.mul(
                    state.ambient.mul(y0, t2 if eps == 1 else t2.inv()), y1)
                if prod.payload != g.payload:
                    _audit(state, "transversal-decomposition", gamma,
                           "fail", checked, level=i, beta=beta)
                checked += 1
    for (g1, i1, b1), reps in sorted(state.transversals.items(),
                                     key=lambda kv: kv[0]):
        if g1 != gamma:
            continue
        for t in reps:
            for j in levels:
                if j <= i1:
                    continue
                if transversal_rep(t, gamma, j, b1, state).payload != \
                        t.payload:
                    _audit(state, "transversal-level-monotone", gamma,
                           "fail", checked, level=i1, beta=b1)
                checked += 1
            for b2 in betas:
                if b2 >= b1:
                    continue
                if transversal_rep(t, gamma, i1, b2, state).payload != \
                        t.payload:
                    _audit(state, "transversal-cut-monotone", gamma,
                           "fail", checked, level=i1, beta=b1)
                checked += 1
    _audit(state, "transversal-laws", gamma, "pass", checked)

    # fresh arrivals at a common level sit in distinct double cosets
    checked = 0
    for i in levels:
        lt = state.d_lt(gamma, i)
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
                    ok = good_fellows(k1, k2, sub) is Tri.YES
                if not ok:
                    _audit(state, "fresh-arrival-separation", gamma,
                           "fail", checked, level=i)
                checked += 1
    _audit(state, "fresh-arrival-separation", gamma, "pass", checked)

    # sandwich products escape the strict level set
    checked = 0
    for i in levels:
        lt = set(state.d_lt(gamma, i))
        fresh = [a for a in range(gamma)
                 if colorings.e(a, gamma) == i]
        for alpha in fresh:
            gs = [g for g, supp in zip(members, supports)
                  if supp and supp <= lt and max(supp) >= alpha]
            kset = [k for k, supp in zip(members, supports)
                    if alpha in supp and
                    supp <= {x for x in state.d_le(gamma, i)
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
                [[str(s), sign] for s, sign in _flatten(b.word)]
                for b in layer.relators.bases]
        layers.append(entry)
    return {"schema": "amalgams-construction/1",
            "stage": state.stage,
            "generators": [sym(i) for i in range(state.stage)],
            "colorings": state.colorings.to_json(),
            "layers": layers}


def _flatten(w: CanonicalWord):
    out = []
    for s in w.syllables:
        out.extend(s.elt.payload)
    return words.free_reduce(out)


def summary_json(state: StageState) -> str:
    doc = presentation(state)
    doc["audit"] = state.audit
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def letter_relators(state: StageState) -> List[List[Tuple[str, int]]]:
    out = []
    for (gamma, i) in sorted(state.layers):
        layer = state.layers[(gamma, i)]
        if layer.kind == "quotient":
            for b in layer.relators.bases:
                out.append(list(_flatten(b.word)))
    return out


# ---------------------------------------------------------------------------
# the witness identity


def _free_to_canonical(g: Element, T: SharedFreeAmalgam
                       ) -> Optional[CanonicalWord]:
    """Express an ambient free word in the amalgam, one syllable per
    letter; normalization merges runs and absorbs shared letters."""
    k_syms = set(T.K.symbols)
    l_syms = set(T.L.symbols)
    sylls = []
    for s, sign in g.payload:
        if s in k_syms:
            sylls.append(syllable(K_SIDE, Element(T.K, ((s, sign),))))
        elif s in l_syms:
            sylls.append(syllable(L_SIDE, Element(T.L, ((s, sign),))))
        else:
            return None
    return canonicalize(sylls, T)


def witness_check(g: Element, z_alpha: Element, z_beta: Element,
                         h: Element, state: StageState,
                         budget: int = 100_000) -> dict:
    """Decide g = rho(z_beta h z_alpha, z_beta h z_beta h z_alpha) in the
    layer quotient that hosts the matching relator.

    Returns a report with status verified / refuted / inconclusive and,
    when verified, a replayable reduction certificate.
    """
    # letter accounting over the three-symbol alphabet: the first
    # argument has three letters, the second five
    assert words.RHO_X_TOTAL * 3 + words.RHO_BLOCKS * 5 == 10120
    amb = state.ambient
    u = amb.mul(amb.mul(z_beta, h), z_alpha)
    v = amb.mul(amb.mul(amb.mul(z_beta, h), z_beta), amb.mul(h, z_alpha))
    probe = words.rho([("zb", 1), ("h", 1), ("za", 1)],
                      [("zb", 1), ("h", 1), ("zb", 1), ("h", 1), ("za", 1)])
    letters = len(probe)
    target = amb.element(
        words.free_reduce(g.inv().payload +
                          tuple(words.rho(u.payload, v.payload))))
    report = {"letters": letters, "status": "inconclusive", "layers": []}
    if letters != 10120:
        report["status"] = "refuted"
        report["note"] = "letter accounting failed"
        return report
    for key in sorted(state.layers):
        layer = state.layers[key]
        if layer.kind != "quotient":
            continue
        w = _free_to_canonical(target, layer.amalgam)
        if w is None:
            report["layers"].append({"layer": list(key),
                                     "note": "word not in layer"})
            continue
        res = dehn_decide(w, layer.relators, k=layer.quotient.k,
                          budget=budget)
        entry = {"layer": list(key), "verdict": res.status}
        if res.status == "trivial":
            ok = replay_certificate(w, res.certificate, layer.relators)
            entry["certificate"] = certificate_to_json(res.certificate)
            entry["replayed"] = ok
            reg = ElementRegistry()
            entry["word"] = word_to_json(w, reg)
            entry["elements"] = reg.dump_json()
            report["layers"].append(entry)
            report["status"] = "verified" if ok else "inconclusive"
            return report
        report["layers"].append(entry)
        if res.status == "nontrivial":
            report["status"] = "refuted"
    return report


# ---------------------------------------------------------------------------
# the descending relator chain


def topology_chain(gamma: int, i: int, k_max: int, budget: int,
                   state: StageState) -> dict:
    """The nested relator families over one quotient layer.

    Level k keeps the stage relators and the pumped powers from k on;
    lengths grow geometrically, so higher members are reported by length
    arithmetic and only budget-sized members are materialized.
    """
    layer = state.layers.get((gamma, i))
    report = {"schema": "amalgams-topology-chain/1", "gamma": gamma,
              "level": i, "k_max": k_max, "budget": budget, "chain": []}
    if layer is None or layer.kind != "quotient":
        report["note"] = "no relators at this layer"
        return report
    base_len = 6640
    n_entries = len(layer.entries)

    def members_at(k):
        out = [{"kind": "base", "sigma": n, "length": base_len}
               for n in range(n_entries)]
        for ell in range(k, k_max + 1):
            out.extend({"kind": "pumped", "sigma": n, "ell": ell,
                        "length": base_len ** (ell + 1),
                        "materialized": base_len ** (ell + 1) <= budget}
                       for n in range(n_entries))
        return out

    prev = None
    for k in range(k_max + 1):
        members = members_at(k)
        entry = {"k": k, "members": members}
        if k == 0:
            entry["normal_closure_note"] = \
                "the stage normal closure uses only the base members"
        if prev is not None:
            ids = {json.dumps(m, sort_keys=True) for m in members}
            prev_ids = {json.dumps(m, sort_keys=True) for m in prev}
            entry["subset_of_previous"] = ids <= prev_ids
        prev = members
        report["chain"].append(entry)

    # the materialized fragment of the first pumped family is the stage
    # relator set itself; re-check the overlap condition on it
    frag = check_cprime(layer.relators)
    report["fragment_cprime"] = {"status": frag.status,
                                 "max_core": frag.max_core}

    # pumped members avoid the stage normal closure: every factor of the
    # pumped word short enough to matter occurs in a bounded window, and
    # the window shares less than a long part with any stage relator
    report["pumped_avoid_n0"] = _pumped_window_check(layer, budget)
    return report


def _pumped_window_check(layer: StageLayer, budget: int) -> dict:
    T = layer.amalgam
    threshold = part_threshold(10, 6640)
    out = {"threshold": threshold, "entries": []}
    for n, sysent in enumerate(layer.system):
        half = 3320
        window_sylls = []
        pair = (syllable(L_SIDE, sysent.b), syllable(K_SIDE, sysent.a))
        for _ in range(half):
            window_sylls.extend(pair)
        window_sylls.extend((syllable(L_SIDE, sysent.bprime),
                             syllable(K_SIDE, sysent.a)))
        for _ in range(half):
            window_sylls.extend(pair)
        if len(window_sylls) > budget:
            out["entries"].append({"sigma": n, "status": "inconclusive",
                                   "note": "window exceeds budget",
                                   "window": len(window_sylls)})
            continue
        window = canonicalize(window_sylls, T)
        pool = LabelPool()
        wl = forward_labels(window, T, pool)
        worst = 0
        for unit in layer.relators.units:
            ul = forward_labels(unit.word, T, pool) * 2
            run, _, _ = longest_common_run(wl, ul)
            worst = max(worst, run)
        out["entries"].append({"sigma": n, "status":
                               "pass" if worst < threshold else "fail",
                               "max_overlap": worst,
                               "window": len(window)})
    out["status"] = ("pass" if all(e["status"] == "pass"
                                   for e in out["entries"])
                     else "inconclusive"
                     if any(e["status"] == "inconclusive"
                            for e in out["entries"]) else "fail")
    return out
