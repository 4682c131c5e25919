"""Liftings of crossed modules.

A lifting (phi, X, omega) of a crossed module (A, B, alpha) factors the
boundary as alpha = omega . phi so that (A, X, phi) is again a crossed
module, where X acts on A through omega. The induced action is always
derived from the base action, never stored independently, so a lifting
cannot hold an inconsistent action.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import (
    ActionAxiomViolation,
    BaseMismatch,
    CM1Violation,
    CM2Violation,
    InducedCMViolation,
    InternalDefect,
    KernelConditionFails,
    KernelViolation,
    NotEquivariant,
    NotSubgroupOfKernel,
    NotTransitive,
    OmegaViolation,
    PhiViolation,
    SizeBound,
    SquareNotCommuting,
    TriangleViolation,
    WellDefinednessDefect,
)
from .groups import (
    DEFAULT_SIZE_BOUND,
    FiniteGroup,
    GroupAction,
    GroupHom,
    Subgroup,
    compose,
    enumerate_homs,
    generating_sequence,
    identity_hom,
    is_surjective,
    kernel,
    make_hom,
    pullback_group,
    quotient,
    subgroup_as_group,
    subgroups,
)
from .xmod import CrossedModule, XModMorphism, make_crossed_module, make_morphism


@dataclass(frozen=True)
class Lifting:
    """A validated lifting; ``induced`` is the crossed module (A, X, phi)."""

    base: CrossedModule
    X: FiniteGroup
    phi: GroupHom
    omega: GroupHom
    induced: CrossedModule = field(compare=False)

    def __repr__(self) -> str:
        return f"Lifting(|A|={self.base.A.order}, |X|={self.X.order}, |B|={self.base.B.order})"


def induced_action(base: CrossedModule, X: FiniteGroup, omega: GroupHom) -> GroupAction:
    """The action of X on A obtained by composing the base action with omega."""
    table = tuple(base.action.table[omega.images[x]] for x in X.elements())
    return GroupAction(actor=X, space=base.A, table=table)


def make_lifting(
    base: CrossedModule, X: FiniteGroup, phi: GroupHom, omega: GroupHom
) -> Lifting:
    """Validate the lifting triangle and the induced crossed module."""
    if phi.source != base.A or phi.target != X:
        raise ValueError("phi is not wired as A -> X")
    if omega.source != X or omega.target != base.B:
        raise ValueError("omega is not wired as X -> B")
    for a in base.A.elements():
        if omega.images[phi.images[a]] != base.boundary.images[a]:
            raise TriangleViolation(
                f"omega(phi(a)) != alpha(a) at a = {a}", witness=a
            )
    action = induced_action(base, X, omega)
    try:
        induced = make_crossed_module(base.A, X, phi, action)
    except (CM1Violation, CM2Violation, ActionAxiomViolation) as err:
        raise InducedCMViolation(
            f"(A, X, phi) is not a crossed module: {err}", witness=err.witness
        ) from err
    ker_phi = set(kernel(phi).elements)
    ker_alpha = set(kernel(base.boundary).elements)
    if not ker_phi <= ker_alpha:
        # unreachable when the triangle commutes; kept as a consistency guard
        raise KernelViolation("ker phi is not contained in ker alpha")
    return Lifting(base=base, X=X, phi=phi, omega=omega, induced=induced)


def identity_lifting(base: CrossedModule) -> Lifting:
    """Every crossed module lifts to itself over the identity on B."""
    return make_lifting(base, base.B, base.boundary, identity_hom(base.B))


def lifting_from_subgroup(base: CrossedModule, sub: Subgroup) -> Lifting:
    """The canonical lifting with kernel C: X = A/C and omega(a + C) = alpha(a)."""
    if sub.parent != base.A:
        raise NotSubgroupOfKernel("subgroup does not live in A")
    ker_alpha = set(kernel(base.boundary).elements)
    if not set(sub.elements) <= ker_alpha:
        raise NotSubgroupOfKernel(
            "subgroup is not contained in ker alpha",
            witness=min(set(sub.elements) - ker_alpha),
        )
    X, proj = quotient(base.A, sub)
    # omega is well defined on cosets because C lies in ker alpha
    rep_of = []
    for k in X.elements():
        rep = next(a for a in base.A.elements() if proj.images[a] == k)
        rep_of.append(rep)
    omega = make_hom(X, base.B, tuple(base.boundary.images[r] for r in rep_of))
    lift = make_lifting(base, X, proj, omega)
    if tuple(kernel(proj).elements) != sub.elements:
        raise InternalDefect("quotient lifting kernel does not equal C")
    if kernel(omega).order * sub.order != len(ker_alpha):
        raise InternalDefect("|ker omega| * |C| != |ker alpha|")
    return lift


def enumerate_liftings(
    base: CrossedModule, *, size_bound: int = DEFAULT_SIZE_BOUND
) -> list[Lifting]:
    """One canonical quotient lifting per subgroup C of ker alpha.

    Liftings whose middle group is not of the form A/C are accepted by
    make_lifting but are not produced here.
    """
    ker = kernel(base.boundary)
    if ker.order > size_bound:
        raise SizeBound(
            f"kernel of order {ker.order} exceeds the bound {size_bound}"
        )
    ker_group, embed = subgroup_as_group(ker)
    out = []
    for sub in subgroups(ker_group, size_bound=size_bound):
        elems = tuple(sorted(embed[i] for i in sub.elements))
        out.append(lifting_from_subgroup(base, Subgroup(parent=base.A, elements=elems)))
    return out


@dataclass(frozen=True)
class LiftingMorphism:
    """A hom f: X -> X' with f.phi = phi' and omega'.f = omega."""

    source: Lifting
    target: Lifting
    f: GroupHom


def make_lifting_morphism(
    source: Lifting, target: Lifting, f: GroupHom
) -> LiftingMorphism:
    if source.base != target.base:
        raise BaseMismatch("lifting morphisms need a common base crossed module")
    if f.source != source.X or f.target != target.X:
        raise ValueError("f is not wired as X -> X'")
    for a in source.base.A.elements():
        if f.images[source.phi.images[a]] != target.phi.images[a]:
            raise PhiViolation(f"f(phi(a)) != phi'(a) at a = {a}", witness=a)
    for x in source.X.elements():
        if target.omega.images[f.images[x]] != source.omega.images[x]:
            raise OmegaViolation(f"omega'(f(x)) != omega(x) at x = {x}", witness=x)
    return LiftingMorphism(source=source, target=target, f=f)


def identity_lifting_morphism(lift: Lifting) -> LiftingMorphism:
    return make_lifting_morphism(lift, lift, identity_hom(lift.X))


def compose_lifting_morphisms(
    outer: LiftingMorphism, inner: LiftingMorphism
) -> LiftingMorphism:
    if inner.target != outer.source:
        raise ValueError("lifting morphisms are not composable")
    return make_lifting_morphism(inner.source, outer.target, compose(outer.f, inner.f))


def uniqueness_checked_by_default(m: XModMorphism, lift: Lifting) -> bool:
    """True when lift_morphism runs its uniqueness search unasked, that is
    while the hom search space |X| ** |gens B~| is at most 5000."""
    gens = generating_sequence(m.source.B)
    return lift.X.order ** max(len(gens), 1) <= 5000


def lift_morphism(
    m: XModMorphism, lift: Lifting, *, check_uniqueness: bool | None = None
) -> XModMorphism:
    """Lift a morphism (f, g) into the base through (phi, X, omega).

    Requires a transitive source and f(ker alpha~) inside ker phi. The
    lifted map sends b to phi(f(a)) for any preimage a of b; all
    preimages are checked to agree before the minimal one is used. The
    result (f, g~) is the unique crossed module morphism into (A, X, phi)
    with omega . g~ = g; uniqueness is confirmed by exhaustive search over
    homs when the search space is small (or when explicitly requested).
    """
    if m.target != lift.base:
        raise ValueError("morphism does not land in the base of the lifting")
    src = m.source
    if not is_surjective(src.boundary):
        raise NotTransitive("the source crossed module must have surjective boundary")
    ker_phi = set(kernel(lift.phi).elements)
    for k in kernel(src.boundary).elements:
        if m.f1.images[k] not in ker_phi:
            raise KernelConditionFails(
                f"f(ker alpha~) is not inside ker phi, witness {k}", witness=k
            )
    images = []
    for b in src.B.elements():
        vals = {
            lift.phi.images[m.f1.images[a]]
            for a in src.A.elements()
            if src.boundary.images[a] == b
        }
        if len(vals) != 1:
            raise WellDefinednessDefect(
                f"preimages of {b} disagree under phi(f(.))", witness=b
            )
        images.append(vals.pop())
    g_tilde = make_hom(src.B, lift.X, images)
    lifted = make_morphism(src, lift.induced, m.f1, g_tilde)
    if compose(lift.omega, g_tilde).images != m.f2.images:
        raise InternalDefect("omega . g~ != g for a lifted morphism")
    if check_uniqueness is None:
        check_uniqueness = uniqueness_checked_by_default(m, lift)
    if check_uniqueness:
        count = 0
        for h in enumerate_homs(src.B, lift.X):
            if compose(lift.omega, h).images != m.f2.images:
                continue
            try:
                make_morphism(src, lift.induced, m.f1, h)
            except (SquareNotCommuting, NotEquivariant):
                continue
            count += 1
        if count != 1:
            raise InternalDefect(
                f"expected exactly one lifted morphism, found {count}"
            )
    return lifted


def pullback_lifting(
    m: XModMorphism, lift: Lifting
) -> tuple[Lifting, XModMorphism]:
    """Pull a lifting of the base back along a morphism (f, g) into the base.

    Returns the lifting (psi, X x_B B~, pi2) of the morphism's source,
    together with the crossed module morphism (f, pi1) into (A, X, phi).
    """
    if m.target != lift.base:
        raise ValueError("morphism does not land in the base of the lifting")
    src = m.source
    pb, pi1, pi2 = pullback_group(lift.omega, m.f2)
    pos = {
        (pi1.images[i], pi2.images[i]): i for i in pb.elements()
    }
    psi_images = [
        pos[(lift.phi.images[m.f1.images[a]], src.boundary.images[a])]
        for a in src.A.elements()
    ]
    psi = make_hom(src.A, pb, psi_images)
    pulled = make_lifting(src, pb, psi, pi2)
    onto_lift = make_morphism(pulled.induced, lift.induced, m.f1, pi1)
    return pulled, onto_lift


def pullback_functor(m: XModMorphism, h: LiftingMorphism) -> LiftingMorphism:
    """Apply the pullback construction to a morphism of liftings, h |-> h x 1."""
    if h.source.base != m.target:
        raise BaseMismatch("lifting morphism does not live over the morphism target")
    # pi2 of each fiber product is the pulled omega, pi1 the morphism's f2
    pulled_src, onto_src = pullback_lifting(m, h.source)
    pulled_tgt, onto_tgt = pullback_lifting(m, h.target)
    tgt_pos = {
        (onto_tgt.f2.images[i], pulled_tgt.omega.images[i]): i
        for i in pulled_tgt.X.elements()
    }
    images = []
    for i in pulled_src.X.elements():
        x = onto_src.f2.images[i]
        b = pulled_src.omega.images[i]
        images.append(tgt_pos[(h.f.images[x], b)])
    f_map = make_hom(pulled_src.X, pulled_tgt.X, images)
    return make_lifting_morphism(pulled_src, pulled_tgt, f_map)
