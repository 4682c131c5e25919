"""Finite group-groupoids, their actions on groups, and covering checks.

A groupoid is stored flat: morphism index arrays for source and target, a
partial composition table (-1 marks undefined entries), per-object
identities and a total inversion table. A group-groupoid adds compatible
group structures on objects and morphisms; structural maps must be
homomorphisms and the interchange law must hold wherever defined. Both
are proven from generating sets; a failure is reported at the first
witness of the exhaustive scan.

Composition follows h o g defined exactly when d0(h) = d1(g). For pairs
coming from an action groupoid this reads (g', s') o (g, s) = (g' o g, s)
whenever s' = g.s, the only convention under which the projection is a
functor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import GGActionViolation, GroupoidViolation, NotAMorphism
from .groups import (
    FiniteGroup,
    GroupHom,
    Table,
    _first_failure,
    _greedy_generators,
    _hom_failure,
    make_group,
    pullback_group,
)

UNDEFINED = -1


@dataclass(frozen=True)
class FiniteGroupoid:
    n_objects: int
    src: tuple[int, ...]
    tgt: tuple[int, ...]
    compose: Table  # compose[h][g] = h o g, UNDEFINED when src[h] != tgt[g]
    identities: tuple[int, ...]
    inverse: tuple[int, ...]

    @property
    def n_morphisms(self) -> int:
        return len(self.src)

    def star(self, x: int) -> tuple[int, ...]:
        """All morphisms with source x."""
        return tuple(i for i in range(len(self.src)) if self.src[i] == x)

    def __repr__(self) -> str:
        return f"FiniteGroupoid(objects={self.n_objects}, morphisms={self.n_morphisms})"


def make_groupoid(
    n_objects: int, src, tgt, compose, identities, inverse
) -> FiniteGroupoid:
    """Validate the category and inverse axioms by scanning every cell.

    Composition here is partial and there is no group law yet, so no
    generating set applies; the group-level axioms of a group-groupoid are
    proven from generators in ``make_group_groupoid``.
    """
    src = tuple(int(v) for v in src)
    tgt = tuple(int(v) for v in tgt)
    compose = tuple(tuple(int(v) for v in row) for row in compose)
    identities = tuple(int(v) for v in identities)
    inverse = tuple(int(v) for v in inverse)
    n = len(src)
    if len(tgt) != n or len(inverse) != n or len(identities) != n_objects:
        raise GroupoidViolation("structure arrays have inconsistent lengths")
    if len(compose) != n or any(len(row) != n for row in compose):
        raise GroupoidViolation("composition table is not square over the morphisms")
    for arrays, bound in ((src, n_objects), (tgt, n_objects), (inverse, n)):
        for v in arrays:
            if not 0 <= v < bound:
                raise GroupoidViolation("structure entry out of range")
    for x, e in enumerate(identities):
        if not 0 <= e < n or src[e] != x or tgt[e] != x:
            raise GroupoidViolation(f"identity of object {x} is not an endomorphism at {x}", witness=x)
    for h in range(n):
        for g in range(n):
            defined = compose[h][g] != UNDEFINED
            if defined != (src[h] == tgt[g]):
                raise GroupoidViolation(
                    f"composability pattern wrong at (h,g) = ({h},{g})", witness=(h, g)
                )
            if defined:
                c = compose[h][g]
                if not 0 <= c < n or src[c] != src[g] or tgt[c] != tgt[h]:
                    raise GroupoidViolation(
                        f"composite endpoints wrong at (h,g) = ({h},{g})", witness=(h, g)
                    )
    for g in range(n):
        if compose[g][identities[src[g]]] != g or compose[identities[tgt[g]]][g] != g:
            raise GroupoidViolation(f"identity laws fail at morphism {g}", witness=g)
    for k in range(n):
        for h in range(n):
            if compose[k][h] == UNDEFINED:
                continue
            for g in range(n):
                if compose[h][g] == UNDEFINED:
                    continue
                if compose[compose[k][h]][g] != compose[k][compose[h][g]]:
                    raise GroupoidViolation(
                        f"associativity fails at (k,h,g) = ({k},{h},{g})",
                        witness=(k, h, g),
                    )
    for g in range(n):
        gi = inverse[g]
        if src[gi] != tgt[g] or tgt[gi] != src[g]:
            raise GroupoidViolation(f"inverse endpoints wrong at {g}", witness=g)
        if compose[gi][g] != identities[src[g]] or compose[g][gi] != identities[tgt[g]]:
            raise GroupoidViolation(f"inverse laws fail at {g}", witness=g)
    return FiniteGroupoid(
        n_objects=n_objects,
        src=src,
        tgt=tgt,
        compose=compose,
        identities=identities,
        inverse=inverse,
    )


@dataclass(frozen=True)
class GroupoidMorphism:
    source: FiniteGroupoid
    target: FiniteGroupoid
    object_map: tuple[int, ...]
    morphism_map: tuple[int, ...]


def make_groupoid_morphism(
    source: FiniteGroupoid, target: FiniteGroupoid, object_map, morphism_map
) -> GroupoidMorphism:
    om = tuple(int(v) for v in object_map)
    mm = tuple(int(v) for v in morphism_map)
    if len(om) != source.n_objects or len(mm) != source.n_morphisms:
        raise NotAMorphism("map arrays have wrong lengths")
    if any(not 0 <= v < target.n_objects for v in om):
        raise NotAMorphism("object image out of range")
    if any(not 0 <= v < target.n_morphisms for v in mm):
        raise NotAMorphism("morphism image out of range")
    for g in range(source.n_morphisms):
        if target.src[mm[g]] != om[source.src[g]] or target.tgt[mm[g]] != om[source.tgt[g]]:
            raise NotAMorphism(f"endpoints not preserved at morphism {g}", witness=g)
    for x in range(source.n_objects):
        if mm[source.identities[x]] != target.identities[om[x]]:
            raise NotAMorphism(f"identity not preserved at object {x}", witness=x)
    for h in range(source.n_morphisms):
        for g in range(source.n_morphisms):
            c = source.compose[h][g]
            if c == UNDEFINED:
                continue
            if mm[c] != target.compose[mm[h]][mm[g]]:
                raise NotAMorphism(
                    f"composition not preserved at (h,g) = ({h},{g})", witness=(h, g)
                )
    return GroupoidMorphism(source=source, target=target, object_map=om, morphism_map=mm)


@dataclass(frozen=True)
class GroupGroupoid:
    """A groupoid with compatible group structures on objects and morphisms."""

    groupoid: FiniteGroupoid
    object_group: FiniteGroup
    morphism_group: FiniteGroup

    def __repr__(self) -> str:
        return (
            f"GroupGroupoid(objects={self.object_group.order},"
            f" morphisms={self.morphism_group.order})"
        )


def _pair_sum_failure(left: FiniteGroup, right: FiniteGroup, value: Table, plus: Table):
    """First (u, v, u2, v2), in order, at which value[u + u2][v + v2] is
    UNDEFINED or differs from value[u][v] + value[u2][v2], or None.

    The pairs (u, v) of left x right with value[u][v] defined are listed in
    lexicographic order, and the law is checked for every pair p and every
    q of a generating set picked greedily from them, or (0, 0) when that is
    empty; ``plus`` is the group law on the values. Induction step: if s
    and t pass, p + s is a pair, so p + s + t is one and value(p+s+t) =
    value(p+s) + value(t) = value(p) + value(s) + value(t) =
    value(p) + value(s+t); the passing elements are closed under the sum,
    and every pair is a sum of generators.
    """
    lop, rop = left.op, right.op
    pairs = [(u, v) for u in left.elements() for v in right.elements() if value[u][v] != UNDEFINED]
    gens = _greedy_generators(
        pairs, ((0, 0),), lambda p, q: (lop[p[0]][q[0]], rop[p[1]][q[1]])
    ) or [(0, 0)]

    def fails(u, v, u2, v2):
        w = value[lop[u][u2]][rop[v][v2]]
        return w == UNDEFINED or w != plus[value[u][v]][value[u2][v2]]

    return _first_failure(
        fails,
        ((u, v, *s) for s in gens for u, v in pairs),
        ((*p, *q) for p in pairs for q in pairs),
    )


def make_group_groupoid(
    groupoid: FiniteGroupoid,
    object_group: FiniteGroup,
    morphism_group: FiniteGroup,
) -> GroupGroupoid:
    """Check hom compatibility of the structural maps plus interchange.

    d0, d1, the identity assignment and groupoid inversion are checked to
    be homomorphisms from generators (see ``groups._hom_failure``).
    Interchange says that (h, g) |-> h o g is a homomorphism on the
    composable pairs, a subgroup of Mor x Mor; it is checked from a
    generating set of them (see ``_pair_sum_failure``).
    """
    if object_group.order != groupoid.n_objects:
        raise GroupoidViolation("object group order does not match the object count")
    if morphism_group.order != groupoid.n_morphisms:
        raise GroupoidViolation("morphism group order does not match the morphism count")
    mor, ob = morphism_group, object_group
    for label, images, source, target in (
        ("d0", groupoid.src, mor, ob),
        ("d1", groupoid.tgt, mor, ob),
        ("identity assignment", groupoid.identities, ob, mor),
        ("groupoid inversion", groupoid.inverse, mor, mor),
    ):
        failing = _hom_failure(images, source, target)
        if failing is not None:
            x, y = failing
            raise GroupoidViolation(
                f"{label} is not a homomorphism at ({x},{y})", witness=failing
            )
    failing = _pair_sum_failure(mor, mor, groupoid.compose, mor.op)
    if failing is not None:
        h, g, h2, g2 = failing
        if groupoid.compose[mor.op[h][h2]][mor.op[g][g2]] == UNDEFINED:
            raise GroupoidViolation(
                "sum of composable pairs is not composable", witness=failing
            )
        raise GroupoidViolation(
            f"interchange fails at ((h,g),(h2,g2)) = (({h},{g}),({h2},{g2}))",
            witness=failing,
        )
    return GroupGroupoid(
        groupoid=groupoid, object_group=object_group, morphism_group=morphism_group
    )


def group_groupoid_from_structure(
    object_group: FiniteGroup,
    morphism_group: FiniteGroup,
    d0: GroupHom,
    d1: GroupHom,
    ident: GroupHom,
) -> GroupGroupoid:
    """Build a group-groupoid from its structural homomorphisms.

    Composition and groupoid inversion are forced by the group structure:
    h o g = h - 1_{d1(g)} + g and inv(m) = 1_{d0(m)} - m + 1_{d1(m)}.
    All axioms are then validated from scratch, so incompatible structure
    data is rejected rather than repaired.
    """
    mor, ob = morphism_group, object_group
    if d0.source != mor or d0.target != ob:
        raise ValueError("d0 is not wired as morphisms -> objects")
    if d1.source != mor or d1.target != ob:
        raise ValueError("d1 is not wired as morphisms -> objects")
    if ident.source != ob or ident.target != mor:
        raise ValueError("ident is not wired as objects -> morphisms")
    for x in ob.elements():
        if d0.images[ident.images[x]] != x or d1.images[ident.images[x]] != x:
            raise GroupoidViolation(
                f"identity assignment endpoints wrong at object {x}", witness=x
            )
    src = d0.images
    tgt = d1.images
    identities = ident.images
    compose_rows = []
    for h in mor.elements():
        row = []
        for g in mor.elements():
            if src[h] != tgt[g]:
                row.append(UNDEFINED)
            else:
                row.append(mor.op[mor.op[h][mor.inverse[identities[tgt[g]]]]][g])
        compose_rows.append(tuple(row))
    inverse = tuple(
        mor.op[mor.op[identities[src[m]]][mor.inverse[m]]][identities[tgt[m]]]
        for m in mor.elements()
    )
    groupoid = make_groupoid(
        ob.order, src, tgt, tuple(compose_rows), identities, inverse
    )
    return make_group_groupoid(groupoid, ob, mor)


def one_object_group_groupoid(group: FiniteGroup) -> GroupGroupoid:
    """A single object whose endomorphisms are ``group``; needs an abelian group."""
    from .groups import zero_hom

    trivial = make_group([[0]], names=["0"])
    d = zero_hom(group, trivial)
    ident = zero_hom(trivial, group)
    return group_groupoid_from_structure(trivial, group, d, d, ident)


def pair_group_groupoid(object_group: FiniteGroup) -> GroupGroupoid:
    """The indiscrete group-groupoid: exactly one morphism (x, y) per object pair."""
    from .groups import make_hom

    n = object_group.order
    pairs = [(x, y) for x in range(n) for y in range(n)]
    pos = {p: i for i, p in enumerate(pairs)}
    table = [
        [
            pos[(object_group.op[x1][x2], object_group.op[y1][y2])]
            for (x2, y2) in pairs
        ]
        for (x1, y1) in pairs
    ]
    names = tuple(
        f"({object_group.name(x)},{object_group.name(y)})" for x, y in pairs
    )
    mor = make_group(table, names=names)
    d0 = make_hom(mor, object_group, tuple(x for x, _ in pairs))
    d1 = make_hom(mor, object_group, tuple(y for _, y in pairs))
    ident = make_hom(object_group, mor, tuple(pos[(x, x)] for x in range(n)))
    return group_groupoid_from_structure(object_group, mor, d0, d1, ident)


@dataclass(frozen=True)
class GroupGroupoidMorphism:
    """Group-groupoid morphism (f1 on morphisms, f0 on objects)."""

    source: GroupGroupoid
    target: GroupGroupoid
    f1: GroupHom
    f0: GroupHom
    functor: GroupoidMorphism = field(compare=False)


def make_gg_morphism(
    source: GroupGroupoid, target: GroupGroupoid, f1: GroupHom, f0: GroupHom
) -> GroupGroupoidMorphism:
    if f1.source != source.morphism_group or f1.target != target.morphism_group:
        raise ValueError("f1 is not wired between the morphism groups")
    if f0.source != source.object_group or f0.target != target.object_group:
        raise ValueError("f0 is not wired between the object groups")
    functor = make_groupoid_morphism(
        source.groupoid, target.groupoid, f0.images, f1.images
    )
    return GroupGroupoidMorphism(
        source=source, target=target, f1=f1, f0=f0, functor=functor
    )


def is_covering_morphism(p) -> tuple[bool, int | None]:
    """True when every star restriction is bijective.

    Accepts a GroupoidMorphism or anything carrying one as ``functor``.
    Returns the first failing source object as a witness, or None.
    """
    functor = getattr(p, "functor", p)
    if not isinstance(functor, GroupoidMorphism):
        raise NotAMorphism("covering check needs a groupoid morphism")
    src_gpd, tgt_gpd = functor.source, functor.target
    for x in range(src_gpd.n_objects):
        star = src_gpd.star(x)
        images = [functor.morphism_map[g] for g in star]
        target_star = tgt_gpd.star(functor.object_map[x])
        if len(set(images)) != len(images) or sorted(images) != sorted(target_star):
            return False, x
    return True, None


@dataclass(frozen=True)
class GGAction:
    """An action of a group-groupoid on a group X via omega: X -> Ob.

    ``act[g][x]`` is g.x when d0(g) = omega(x) and UNDEFINED otherwise.
    """

    gg: GroupGroupoid
    X: FiniteGroup
    omega: GroupHom
    act: Table

    def apply(self, g: int, x: int) -> int:
        return self.act[g][x]


def make_gg_action(
    gg: GroupGroupoid, X: FiniteGroup, omega: GroupHom, act
) -> GGAction:
    """Validate an action of a group-groupoid on X over omega.

    The definedness pattern, the endpoints, the identity action and
    (h o g).x = h.(g.x) are checked cell by cell. Interchange says that
    (g, x) |-> g.x is a homomorphism on the defined pairs, a subgroup of
    Mor x X; it is checked from a generating set of them (see
    ``_pair_sum_failure``).
    """
    rows = tuple(tuple(int(v) for v in row) for row in act)
    if omega.source != X or omega.target != gg.object_group:
        raise ValueError("omega is not wired as X -> Ob(G)")
    gpd = gg.groupoid
    if len(rows) != gpd.n_morphisms or any(len(r) != X.order for r in rows):
        raise GGActionViolation("action table shape does not match morphisms x X")
    for g in range(gpd.n_morphisms):
        for x in X.elements():
            defined = rows[g][x] != UNDEFINED
            if defined != (gpd.src[g] == omega.images[x]):
                raise GGActionViolation(
                    f"definedness pattern wrong at (g,x) = ({g},{x})", witness=(g, x)
                )
            if defined:
                y = rows[g][x]
                if not 0 <= y < X.order:
                    raise GGActionViolation("action value out of range")
                if omega.images[y] != gpd.tgt[g]:
                    raise GGActionViolation(
                        f"omega(g.x) != d1(g) at (g,x) = ({g},{x})", witness=(g, x)
                    )
    for x in X.elements():
        e = gpd.identities[omega.images[x]]
        if rows[e][x] != x:
            raise GGActionViolation(f"identity action fails at x = {x}", witness=x)
    for h in range(gpd.n_morphisms):
        for g in range(gpd.n_morphisms):
            if gpd.compose[h][g] == UNDEFINED:
                continue
            for x in X.elements():
                if rows[g][x] == UNDEFINED:
                    continue
                if rows[gpd.compose[h][g]][x] != rows[h][rows[g][x]]:
                    raise GGActionViolation(
                        f"(h o g).x != h.(g.x) at (h,g,x) = ({h},{g},{x})",
                        witness=(h, g, x),
                    )
    mor = gg.morphism_group
    failing = _pair_sum_failure(mor, X, rows, X.op)
    if failing is not None:
        g, x, g2, x2 = failing
        if rows[mor.op[g][g2]][X.op[x][x2]] == UNDEFINED:
            raise GGActionViolation("sum of defined pairs is undefined", witness=failing)
        raise GGActionViolation(
            f"interchange fails at ((g,x),(g2,x2)) = (({g},{x}),({g2},{x2}))",
            witness=failing,
        )
    return GGAction(gg=gg, X=X, omega=omega, act=rows)


def action_groupoid(action: GGAction) -> tuple[GroupGroupoid, GroupGroupoidMorphism]:
    """The action groupoid G |x X with its covering projection onto G.

    Objects are the elements of X; morphisms are the pairs (g, x) with
    d0(g) = omega(x), added componentwise and composed by
    (g', s') o (g, s) = (g' o g, s) whenever s' = g.s.
    """
    from .groups import make_hom

    gg, X = action.gg, action.X
    gpd = gg.groupoid
    mor = gg.morphism_group
    pairs = [
        (g, x)
        for g in range(gpd.n_morphisms)
        for x in X.elements()
        if action.act[g][x] != UNDEFINED
    ]
    pos = {p: i for i, p in enumerate(pairs)}
    group_table = [
        [pos[(mor.op[g1][g2], X.op[x1][x2])] for (g2, x2) in pairs]
        for (g1, x1) in pairs
    ]
    names = tuple(f"({mor.name(g)},{X.name(x)})" for g, x in pairs)
    pair_group = make_group(group_table, names=names)
    src = tuple(x for _, x in pairs)
    tgt = tuple(action.act[g][x] for g, x in pairs)
    identities = tuple(
        pos[(gpd.identities[action.omega.images[x]], x)] for x in X.elements()
    )
    compose_rows = []
    for g2, s2 in pairs:
        row = []
        for g1, s1 in pairs:
            if s2 != action.act[g1][s1]:
                row.append(UNDEFINED)
            else:
                row.append(pos[(gpd.compose[g2][g1], s1)])
        compose_rows.append(tuple(row))
    inverse = tuple(
        pos[(gpd.inverse[g], action.act[g][x])] for g, x in pairs
    )
    new_gpd = make_groupoid(
        X.order, src, tgt, tuple(compose_rows), identities, inverse
    )
    new_gg = make_group_groupoid(new_gpd, X, pair_group)
    proj_f1 = make_hom(pair_group, mor, tuple(g for g, _ in pairs))
    projection = make_gg_morphism(new_gg, gg, proj_f1, action.omega)
    return new_gg, projection


def _pullback_action(f: GroupGroupoidMorphism, action: GGAction) -> tuple[GGAction, GroupHom]:
    """The pulled-back action together with the projection of its space onto X."""
    if action.gg != f.target:
        raise ValueError("action does not belong to the morphism target")
    src_gg = f.source
    gpd = src_gg.groupoid
    pulled, p1, p2 = pullback_group(action.omega, f.f0)
    pos = {
        (p1.images[i], p2.images[i]): i for i in pulled.elements()
    }
    rows = []
    for g in range(gpd.n_morphisms):
        row = []
        for y in pulled.elements():
            if gpd.src[g] != p2.images[y]:
                row.append(UNDEFINED)
            else:
                moved = action.act[f.f1.images[g]][p1.images[y]]
                row.append(pos[(moved, gpd.tgt[g])])
        rows.append(tuple(row))
    return make_gg_action(src_gg, pulled, p2, rows), p1


def pullback_action(f: GroupGroupoidMorphism, action: GGAction) -> GGAction:
    """Pull an action of the target back along f, acting on X x_Ob Ob(G~)."""
    return _pullback_action(f, action)[0]


@dataclass(frozen=True)
class GGActionMorphism:
    """An equivariant group homomorphism between actions of the same group-groupoid."""

    source: GGAction
    target: GGAction
    f: GroupHom


def make_gg_action_morphism(
    source: GGAction, target: GGAction, f: GroupHom
) -> GGActionMorphism:
    if source.gg != target.gg:
        raise NotAMorphism("actions belong to different group-groupoids")
    if f.source != source.X or f.target != target.X:
        raise ValueError("f is not wired as X -> X'")
    for x in source.X.elements():
        if target.omega.images[f.images[x]] != source.omega.images[x]:
            raise NotAMorphism(f"omega' . f != omega at x = {x}", witness=x)
    gpd = source.gg.groupoid
    for g in range(gpd.n_morphisms):
        for x in source.X.elements():
            if source.act[g][x] == UNDEFINED:
                continue
            if f.images[source.act[g][x]] != target.act[g][f.images[x]]:
                raise NotAMorphism(
                    f"f(g.x) != g.f(x) at (g,x) = ({g},{x})", witness=(g, x)
                )
    return GGActionMorphism(source=source, target=target, f=f)


def pullback_action_morphism(
    f: GroupGroupoidMorphism, h: GGActionMorphism
) -> GGActionMorphism:
    """The pullback functor on action morphisms, h |-> h x 1."""
    from .groups import make_hom

    # the omega of each pulled action is the second projection of its space
    pulled_src, sp1 = _pullback_action(f, h.source)
    pulled_tgt, tp1 = _pullback_action(f, h.target)
    tgt_pos = {
        (tp1.images[i], pulled_tgt.omega.images[i]): i for i in pulled_tgt.X.elements()
    }
    images = [
        tgt_pos[(h.f.images[sp1.images[i]], pulled_src.omega.images[i])]
        for i in pulled_src.X.elements()
    ]
    fmap = make_hom(pulled_src.X, pulled_tgt.X, images)
    return make_gg_action_morphism(pulled_src, pulled_tgt, fmap)
