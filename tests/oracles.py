"""Exhaustive reference validators.

Each function here is the all-cells scan that the library's validator
replaced by a proof from generating sets: it checks every pair or triple
in lexicographic order, raises the same error with the same witness and
message at the first violation, and otherwise builds the same object.
The differential tests in ``test_oracles.py`` hold the library to them.
"""

from __future__ import annotations

import itertools

from xmlift.derivations import Derivation
from xmlift.errors import (
    ActionAxiomViolation,
    CM1Violation,
    CM2Violation,
    GGActionViolation,
    GroupoidViolation,
    H1Violation,
    H2Violation,
    H3Violation,
    InternalDefect,
    MalformedTable,
    NoIdentity,
    NoInverse,
    NotADerivation,
    NotAssociative,
    NotASubgroup,
    NotEquivariant,
    NotHomomorphism,
    SquareNotCommuting,
)
from xmlift.groupoid import UNDEFINED, GGAction, GroupGroupoid
from xmlift.groups import (
    FiniteGroup,
    GroupAction,
    GroupHom,
    Subgroup,
    _evaluation_schedule,
    make_subgroup,
)
from xmlift.homotopy import Homotopy
from xmlift.xmod import CrossedModule, XModMorphism


def make_group(table, names=None) -> FiniteGroup:
    rows = [tuple(int(v) for v in row) for row in table]
    n = len(rows)
    if n == 0:
        raise MalformedTable("empty Cayley table")
    for i, row in enumerate(rows):
        if len(row) != n:
            raise MalformedTable(f"row {i} has length {len(row)}, expected {n}", witness=i)
        for j, v in enumerate(row):
            if not 0 <= v < n:
                raise MalformedTable(f"entry op({i},{j}) = {v} out of range 0..{n - 1}", witness=(i, j))
    if names is not None:
        names = tuple(str(x) for x in names)
        if len(names) != n:
            raise MalformedTable(f"{len(names)} element names for {n} elements")
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if rows[rows[a][b]][c] != rows[a][rows[b][c]]:
                    raise NotAssociative(
                        f"op(op({a},{b}),{c}) != op({a},op({b},{c}))", witness=(a, b, c)
                    )
    e = None
    for x in range(n):
        if all(rows[x][y] == y and rows[y][x] == y for y in range(n)):
            e = x
            break
    if e is None:
        raise NoIdentity("table has no two-sided identity")
    inverse = []
    for a in range(n):
        b = next((b for b in range(n) if rows[a][b] == e and rows[b][a] == e), None)
        if b is None:
            raise NoInverse(f"element {a} has no two-sided inverse", witness=a)
        inverse.append(b)
    if e != 0:
        s = list(range(n))
        s[0], s[e] = e, 0
        rows = [[s[rows[s[i]][s[j]]] for j in range(n)] for i in range(n)]
        inverse = [s[inverse[s[i]]] for i in range(n)]
        if names is not None:
            names = tuple(names[s[i]] for i in range(n))
    return FiniteGroup(
        op=tuple(tuple(row) for row in rows), inverse=tuple(inverse), element_names=names
    )


def make_hom(source: FiniteGroup, target: FiniteGroup, images) -> GroupHom:
    images = tuple(int(v) for v in images)
    if len(images) != source.order:
        raise MalformedTable(f"{len(images)} images for a source of order {source.order}")
    for a, v in enumerate(images):
        if not 0 <= v < target.order:
            raise MalformedTable(f"image of {a} is {v}, out of range", witness=a)
    for x in source.elements():
        for y in source.elements():
            if images[source.op[x][y]] != target.op[images[x]][images[y]]:
                raise NotHomomorphism(f"map({x}+{y}) != map({x})+map({y})", witness=(x, y))
    return GroupHom(source=source, target=target, images=images)


def center(group: FiniteGroup) -> Subgroup:
    elems = [
        a
        for a in group.elements()
        if all(group.op[a][b] == group.op[b][a] for b in group.elements())
    ]
    return make_subgroup(group, elems)


def is_normal(sub: Subgroup, group: FiniteGroup) -> bool:
    if sub.parent != group:
        raise NotASubgroup("subgroup belongs to a different parent group")
    member = set(sub.elements)
    return all(
        group.conj(g, a) in member for g in group.elements() for a in sub.elements
    )


def make_action(actor: FiniteGroup, space: FiniteGroup, table) -> GroupAction:
    rows = tuple(tuple(int(v) for v in row) for row in table)
    if len(rows) != actor.order or any(len(r) != space.order for r in rows):
        raise MalformedTable("action table shape does not match actor x space")
    for row in rows:
        for v in row:
            if not 0 <= v < space.order:
                raise MalformedTable("action table entry out of range")
    for b in actor.elements():
        for a in space.elements():
            for a2 in space.elements():
                if rows[b][space.op[a][a2]] != space.op[rows[b][a]][rows[b][a2]]:
                    raise ActionAxiomViolation(
                        f"b*(a+a') fails at (b,a,a') = ({b},{a},{a2})", witness=(b, a, a2)
                    )
    for b in actor.elements():
        for b2 in actor.elements():
            for a in space.elements():
                if rows[actor.op[b][b2]][a] != rows[b][rows[b2][a]]:
                    raise ActionAxiomViolation(
                        f"(b+b')*a fails at (b,b',a) = ({b},{b2},{a})", witness=(b, b2, a)
                    )
    for a in space.elements():
        if rows[0][a] != a:
            raise ActionAxiomViolation(f"0*a fails at a = {a}", witness=a)
    return GroupAction(actor=actor, space=space, table=rows)


def make_crossed_module(A, B, boundary: GroupHom, action: GroupAction) -> CrossedModule:
    for b in B.elements():
        for a in A.elements():
            if boundary.images[action.table[b][a]] != B.conj(b, boundary.images[a]):
                raise CM1Violation(
                    f"alpha(b.a) != b + alpha(a) - b at (b,a) = ({b},{a})", witness=(b, a)
                )
    for a in A.elements():
        ba = boundary.images[a]
        for a1 in A.elements():
            if action.table[ba][a1] != A.conj(a, a1):
                raise CM2Violation(
                    f"alpha(a).a1 != a + a1 - a at (a,a1) = ({a},{a1})", witness=(a, a1)
                )
    return CrossedModule(A=A, B=B, boundary=boundary, action=action)


def make_morphism(source, target, f1: GroupHom, f2: GroupHom) -> XModMorphism:
    for a in source.A.elements():
        if f2.images[source.boundary.images[a]] != target.boundary.images[f1.images[a]]:
            raise SquareNotCommuting(f"f2(alpha(a)) != alpha'(f1(a)) at a = {a}", witness=a)
    for b in source.B.elements():
        for a in source.A.elements():
            if f1.images[source.act(b, a)] != target.act(f2.images[b], f1.images[a]):
                raise NotEquivariant(
                    f"f1(b.a) != f2(b).f1(a) at (b,a) = ({b},{a})", witness=(b, a)
                )
    return XModMorphism(source=source, target=target, f1=f1, f2=f2)


def make_homotopy(values, source: XModMorphism, target: XModMorphism) -> Homotopy:
    up, down = source.source, source.target
    vals = tuple(int(v) for v in values)
    A, B = down.A, down.B
    for b1 in up.B.elements():
        for b2 in up.B.elements():
            lhs = vals[up.B.op[b1][b2]]
            rhs = A.op[vals[b1]][down.act(target.f2.images[b1], vals[b2])]
            if lhs != rhs:
                raise H1Violation(f"H1 fails at (b1,b2) = ({b1},{b2})", witness=(b1, b2))
    for a in up.A.elements():
        if vals[up.boundary.images[a]] != A.op[source.f1.images[a]][A.inverse[target.f1.images[a]]]:
            raise H2Violation(f"H2 fails at a = {a}", witness=a)
    for b in up.B.elements():
        if down.boundary.images[vals[b]] != B.op[source.f2.images[b]][B.inverse[target.f2.images[b]]]:
            raise H3Violation(f"H3 fails at b = {b}", witness=b)
    return Homotopy(values=vals, source=source, target=target)


def make_derivation(xm: CrossedModule, values) -> Derivation:
    vals = tuple(int(v) for v in values)
    A, B = xm.A, xm.B
    if len(vals) != B.order:
        raise NotADerivation(f"{len(vals)} values for a domain of order {B.order}")
    for v in vals:
        if not 0 <= v < A.order:
            raise NotADerivation(f"derivation value {v} out of range")
    for b in B.elements():
        for b1 in B.elements():
            if vals[B.op[b][b1]] != A.op[vals[b]][xm.act(b, vals[b1])]:
                raise NotADerivation(
                    f"derivation identity fails at (b,b1) = ({b},{b1})", witness=(b, b1)
                )
    theta = tuple(A.op[vals[xm.boundary.images[a]]][a] for a in A.elements())
    sigma = tuple(B.op[xm.boundary.images[vals[b]]][b] for b in B.elements())
    for x in A.elements():
        for y in A.elements():
            if theta[A.op[x][y]] != A.op[theta[x]][theta[y]]:
                raise InternalDefect("theta is not an endomorphism")
    for x in B.elements():
        for y in B.elements():
            if sigma[B.op[x][y]] != B.op[sigma[x]][sigma[y]]:
                raise InternalDefect("sigma is not an endomorphism")
    for b in B.elements():
        if theta[vals[b]] != vals[sigma[b]]:
            raise InternalDefect("theta(d(b)) != d(sigma(b))")
    return Derivation(xm=xm, values=vals, theta=theta, sigma=sigma)


def crossed_hom_search(source, target, act, gens, candidates) -> list[tuple[int, ...]]:
    """The generator-schedule search with its candidates checked on all pairs."""
    schedule = _evaluation_schedule(source, gens)
    n = source.order
    found = []
    for cand in itertools.product(*candidates):
        f = [0] * n
        for p, e, k in schedule:
            f[p] = target.op[f[e]][act[e][cand[k]]]
        if all(
            f[source.op[x][y]] == target.op[f[x]][act[x][f[y]]]
            for x in range(n)
            for y in range(n)
        ):
            found.append(tuple(f))
    return sorted(found)


def make_group_groupoid(groupoid, object_group, morphism_group) -> GroupGroupoid:
    if object_group.order != groupoid.n_objects:
        raise GroupoidViolation("object group order does not match the object count")
    if morphism_group.order != groupoid.n_morphisms:
        raise GroupoidViolation("morphism group order does not match the morphism count")
    mor, ob = morphism_group, object_group
    for label, table in (("d0", groupoid.src), ("d1", groupoid.tgt)):
        for m1 in mor.elements():
            for m2 in mor.elements():
                if table[mor.op[m1][m2]] != ob.op[table[m1]][table[m2]]:
                    raise GroupoidViolation(
                        f"{label} is not a homomorphism at ({m1},{m2})", witness=(m1, m2)
                    )
    for x in ob.elements():
        for y in ob.elements():
            if groupoid.identities[ob.op[x][y]] != mor.op[groupoid.identities[x]][groupoid.identities[y]]:
                raise GroupoidViolation(
                    f"identity assignment is not a homomorphism at ({x},{y})", witness=(x, y)
                )
    for m1 in mor.elements():
        for m2 in mor.elements():
            if groupoid.inverse[mor.op[m1][m2]] != mor.op[groupoid.inverse[m1]][groupoid.inverse[m2]]:
                raise GroupoidViolation(
                    f"groupoid inversion is not a homomorphism at ({m1},{m2})", witness=(m1, m2)
                )
    for h in mor.elements():
        for g in mor.elements():
            if groupoid.compose[h][g] == UNDEFINED:
                continue
            for h2 in mor.elements():
                for g2 in mor.elements():
                    if groupoid.compose[h2][g2] == UNDEFINED:
                        continue
                    lhs = groupoid.compose[mor.op[h][h2]][mor.op[g][g2]]
                    if lhs == UNDEFINED:
                        raise GroupoidViolation(
                            "sum of composable pairs is not composable", witness=(h, g, h2, g2)
                        )
                    if lhs != mor.op[groupoid.compose[h][g]][groupoid.compose[h2][g2]]:
                        raise GroupoidViolation(
                            f"interchange fails at ((h,g),(h2,g2)) = (({h},{g}),({h2},{g2}))",
                            witness=(h, g, h2, g2),
                        )
    return GroupGroupoid(groupoid=groupoid, object_group=object_group, morphism_group=morphism_group)


def make_gg_action(gg: GroupGroupoid, X: FiniteGroup, omega: GroupHom, act) -> GGAction:
    rows = tuple(tuple(int(v) for v in row) for row in act)
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
        if rows[gpd.identities[omega.images[x]]][x] != x:
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
                        f"(h o g).x != h.(g.x) at (h,g,x) = ({h},{g},{x})", witness=(h, g, x)
                    )
    mor = gg.morphism_group
    for g in range(gpd.n_morphisms):
        for x in X.elements():
            if rows[g][x] == UNDEFINED:
                continue
            for g2 in range(gpd.n_morphisms):
                for x2 in X.elements():
                    if rows[g2][x2] == UNDEFINED:
                        continue
                    combined = rows[mor.op[g][g2]][X.op[x][x2]]
                    if combined == UNDEFINED:
                        raise GGActionViolation(
                            "sum of defined pairs is undefined", witness=(g, x, g2, x2)
                        )
                    if combined != X.op[rows[g][x]][rows[g2][x2]]:
                        raise GGActionViolation(
                            f"interchange fails at ((g,x),(g2,x2)) = (({g},{x}),({g2},{x2}))",
                            witness=(g, x, g2, x2),
                        )
    return GGAction(gg=gg, X=X, omega=omega, act=rows)
