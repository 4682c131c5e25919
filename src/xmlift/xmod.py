"""Crossed modules of finite groups.

A crossed module (A, B, alpha) couples a boundary homomorphism
alpha: A -> B with an action of B on A subject to two axioms:

* CM1: alpha(b.a) = b + alpha(a) - b for all b in B, a in A,
* CM2: alpha(a).a1 = a + a1 - a  for all a, a1 in A.

Both are proven from generating sets, b in the generators of B for CM1
and a in the generators of A for CM2; a failure is reported at the first
witness of the exhaustive scan.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass

from .errors import (
    CM1Violation,
    CM2Violation,
    InternalDefect,
    NotEquivariant,
    NotNormal,
    SquareNotCommuting,
)
from .groups import (
    DEFAULT_SIZE_BOUND,
    FiniteGroup,
    GroupAction,
    GroupHom,
    Subgroup,
    _first_failure,
    automorphism_group,
    center,
    identity_hom,
    image,
    is_bijective,
    is_injective,
    is_normal,
    is_surjective,
    kernel,
    make_action,
    make_hom,
    subgroup_as_group,
)


@dataclass(frozen=True)
class CrossedModule:
    """(A, B, boundary, action) with validated axioms."""

    A: FiniteGroup
    B: FiniteGroup
    boundary: GroupHom
    action: GroupAction

    def act(self, b: int, a: int) -> int:
        return self.action.table[b][a]

    def __repr__(self) -> str:
        return f"CrossedModule(|A|={self.A.order}, |B|={self.B.order})"


def make_crossed_module(
    A: FiniteGroup, B: FiniteGroup, boundary: GroupHom, action: GroupAction
) -> CrossedModule:
    """Validate CM1 and CM2 for a candidate crossed module.

    CM1 is checked for b in ``B.generators`` and CM2 for a in
    ``A.generators``. Induction steps: if s and t pass CM1,
    alpha((s+t).a) = alpha(s.(t.a)) = s + t + alpha(a) - t - s; if they pass
    CM2, alpha(s+t).a1 = alpha(s).(alpha(t).a1) = s + t + a1 - t - s. Either
    way s+t passes, and the passing elements form a subgroup containing
    the generators.
    """
    if boundary.source != A or boundary.target != B:
        raise ValueError("boundary homomorphism is not wired as A -> B")
    if action.actor != B or action.space != A:
        raise ValueError("action is not an action of B on A")
    alpha, act = boundary.images, action.table
    failing = _first_failure(
        lambda b, a: alpha[act[b][a]] != B.conj(b, alpha[a]),
        ((s, a) for s in B.generators for a in A.elements()),
        itertools.product(B.elements(), A.elements()),
    )
    if failing is not None:
        b, a = failing
        raise CM1Violation(
            f"alpha(b.a) != b + alpha(a) - b at (b,a) = ({b},{a})", witness=failing
        )
    failing = _first_failure(
        lambda a, a1: act[alpha[a]][a1] != A.conj(a, a1),
        ((s, a1) for s in A.generators for a1 in A.elements()),
        itertools.product(A.elements(), repeat=2),
    )
    if failing is not None:
        a, a1 = failing
        raise CM2Violation(
            f"alpha(a).a1 != a + a1 - a at (a,a1) = ({a},{a1})", witness=failing
        )
    return CrossedModule(A=A, B=B, boundary=boundary, action=action)


@dataclass(frozen=True)
class StructureReport:
    """Structural facts that hold in every valid crossed module."""

    image_normal: bool
    kernel_central: bool
    image_fixes_center: bool

    @property
    def all_true(self) -> bool:
        return self.image_normal and self.kernel_central and self.image_fixes_center


def verify_structure(xm: CrossedModule) -> StructureReport:
    """Check that alpha(A) is normal in B, ker alpha is central in A, and
    alpha(A) fixes the center of A pointwise.

    A false entry can only come from an invalid input, which construction
    rules out, so any violation is raised as an internal defect.
    """
    img = image(xm.boundary)
    ker = kernel(xm.boundary)
    zentrum = center(xm.A)
    report = StructureReport(
        image_normal=is_normal(img, xm.B),
        kernel_central=set(ker.elements) <= set(zentrum.elements),
        image_fixes_center=all(
            xm.act(b, z) == z for b in img.elements for z in zentrum.elements
        ),
    )
    if not report.all_true:
        raise InternalDefect(f"structure defect in a validated crossed module: {report}")
    return report


class TransitivityClass(enum.Enum):
    ONE_TRANSITIVE = "1-transitive"
    SIMPLY_TRANSITIVE = "simply-transitive"
    TRANSITIVE = "transitive"
    TOTALLY_INTRANSITIVE = "totally-intransitive"
    NONE = "none"


def classify(xm: CrossedModule) -> TransitivityClass:
    """Most specific transitivity tag of the boundary morphism.

    Precedence: 1-transitive, then simply transitive, then transitive,
    then totally intransitive (zero boundary with abelian A), else none.
    """
    if is_bijective(xm.boundary):
        return TransitivityClass.ONE_TRANSITIVE
    if is_injective(xm.boundary):
        return TransitivityClass.SIMPLY_TRANSITIVE
    if is_surjective(xm.boundary):
        return TransitivityClass.TRANSITIVE
    if all(v == 0 for v in xm.boundary.images) and xm.A.is_abelian():
        return TransitivityClass.TOTALLY_INTRANSITIVE
    return TransitivityClass.NONE


@dataclass(frozen=True)
class XModMorphism:
    """A pair of homs (f1, f2) commuting with boundaries and actions."""

    source: CrossedModule
    target: CrossedModule
    f1: GroupHom
    f2: GroupHom


def make_morphism(
    source: CrossedModule, target: CrossedModule, f1: GroupHom, f2: GroupHom
) -> XModMorphism:
    """Validate the boundary square and equivariance f1(b.a) = f2(b).f1(a).

    Equivariance is checked for b in ``source.B.generators``. Induction
    step: if s and t pass, f1((s+t).a) = f1(s.(t.a)) = f2(s).(f2(t).f1(a))
    = f2(s+t).f1(a), so s+t passes, and the passing elements form a
    subgroup containing the generators.
    """
    if f1.source != source.A or f1.target != target.A:
        raise ValueError("f1 is not wired as source.A -> target.A")
    if f2.source != source.B or f2.target != target.B:
        raise ValueError("f2 is not wired as source.B -> target.B")
    for a in source.A.elements():
        if f2.images[source.boundary.images[a]] != target.boundary.images[f1.images[a]]:
            raise SquareNotCommuting(
                f"f2(alpha(a)) != alpha'(f1(a)) at a = {a}", witness=a
            )
    g1, g2 = f1.images, f2.images
    src_act, tgt_act = source.action.table, target.action.table
    failing = _first_failure(
        lambda b, a: g1[src_act[b][a]] != tgt_act[g2[b]][g1[a]],
        ((s, a) for s in source.B.generators for a in source.A.elements()),
        itertools.product(source.B.elements(), source.A.elements()),
    )
    if failing is not None:
        b, a = failing
        raise NotEquivariant(
            f"f1(b.a) != f2(b).f1(a) at (b,a) = ({b},{a})", witness=failing
        )
    return XModMorphism(source=source, target=target, f1=f1, f2=f2)


def identity_morphism(xm: CrossedModule) -> XModMorphism:
    return make_morphism(xm, xm, identity_hom(xm.A), identity_hom(xm.B))


def compose_morphisms(outer: XModMorphism, inner: XModMorphism) -> XModMorphism:
    if inner.target != outer.source:
        raise ValueError("morphisms are not composable")
    from .groups import compose as compose_homs

    return make_morphism(
        inner.source,
        outer.target,
        compose_homs(outer.f1, inner.f1),
        compose_homs(outer.f2, inner.f2),
    )


def inclusion_xmod(normal: Subgroup) -> CrossedModule:
    """(N, G, inc) with the conjugation action, for N normal in G."""
    parent = normal.parent
    if not is_normal(normal, parent):
        raise NotNormal("inclusion crossed module needs a normal subgroup")
    sub_group, embed = subgroup_as_group(normal)
    pos = {v: i for i, v in enumerate(embed)}
    boundary = make_hom(sub_group, parent, embed)
    table = [
        [pos[parent.conj(g, v)] for v in embed]
        for g in parent.elements()
    ]
    action = make_action(parent, sub_group, table)
    return make_crossed_module(sub_group, parent, boundary, action)


def automorphism_xmod(
    group: FiniteGroup, *, size_bound: int = DEFAULT_SIZE_BOUND
) -> CrossedModule:
    """(G, Aut(G), iota) where iota sends g to conjugation by g."""
    aut, natural = automorphism_group(group, size_bound=size_bound)
    pos = {row: i for i, row in enumerate(natural.table)}
    images = []
    for g in group.elements():
        perm = tuple(group.conj(g, x) for x in group.elements())
        images.append(pos[perm])
    iota = make_hom(group, aut, images)
    return make_crossed_module(group, aut, iota, natural)


def action_to_theta(xm: CrossedModule) -> GroupHom:
    """The homomorphism B -> Aut(A) induced by the action, b |-> (a |-> b.a)."""
    aut, natural = automorphism_group(xm.A)
    pos = {row: i for i, row in enumerate(natural.table)}
    images = [pos[xm.action.table[b]] for b in xm.B.elements()]
    return make_hom(xm.B, aut, images)
