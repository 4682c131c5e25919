"""Derivations of a crossed module and the Whitehead semigroup.

A derivation of (A, B, alpha) is a map d: B -> A with

    d(b + b1) = d(b) + b.d(b1)   for all b, b1 in B.

Each derivation induces endomorphisms theta(a) = d(alpha(a)) + a of A and
sigma(b) = alpha(d(b)) + b of B. Under the circle product

    (d1 o d2)(b) = d1(sigma_{d2}(b)) + d2(b)

the set Der(B, A) becomes a monoid whose identity is the zero map; its
units are the regular derivations and form the Whitehead group.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import (
    FormulaMismatch,
    InternalDefect,
    NotADerivation,
    NotASection,
    RequiresEnumeration,
    SizeBound,
)
from .groups import (
    GroupHom,
    _closing_images,
    _crossed_hom_search,
    _first_failure,
    _hom_failure,
    compose,
    enumerate_homs,
    generating_sequence,
    make_hom,
)
from .homotopy import Homotopy, make_homotopy
from .lifting import Lifting
from .xmod import CrossedModule, XModMorphism, identity_morphism, make_morphism


@dataclass(frozen=True)
class Derivation:
    """A validated derivation with its cached theta and sigma tables."""

    xm: CrossedModule
    values: tuple[int, ...]
    theta: tuple[int, ...] = field(compare=False)
    sigma: tuple[int, ...] = field(compare=False)

    def __call__(self, b: int) -> int:
        return self.values[b]

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.values)


def make_derivation(xm: CrossedModule, values) -> Derivation:
    """Validate the derivation identity and derive theta and sigma.

    The identity d(b+s) = d(b) + b.d(s) is checked for s in
    ``B.generators``. Induction step: if s and t pass, d(b+s+t) =
    d(b+s) + (b+s).d(t) = d(b) + b.d(s) + b.(s.d(t)) = d(b) + b.d(s+t), so
    s+t passes, and the passing elements form a subgroup containing the
    generators. The cached maps are additionally checked to be
    endomorphisms, from generators as in ``groups._hom_failure``, and to
    satisfy theta(d(b)) = d(sigma(b)); these facts follow from the axioms,
    so a failure there is reported as an internal defect.
    """
    vals = tuple(int(v) for v in values)
    A, B = xm.A, xm.B
    if len(vals) != B.order:
        raise NotADerivation(f"{len(vals)} values for a domain of order {B.order}")
    for v in vals:
        if not 0 <= v < A.order:
            raise NotADerivation(f"derivation value {v} out of range")
    act = xm.action.table
    failing = _first_failure(
        lambda b, b1: vals[B.op[b][b1]] != A.op[vals[b]][act[b][vals[b1]]],
        ((b, s) for s in B.generators for b in B.elements()),
        itertools.product(B.elements(), repeat=2),
    )
    if failing is not None:
        b, b1 = failing
        raise NotADerivation(
            f"derivation identity fails at (b,b1) = ({b},{b1})", witness=failing
        )
    theta = tuple(A.op[vals[xm.boundary.images[a]]][a] for a in A.elements())
    sigma = tuple(B.op[xm.boundary.images[vals[b]]][b] for b in B.elements())
    if _hom_failure(theta, A, A) is not None:
        raise InternalDefect("theta is not an endomorphism")
    if _hom_failure(sigma, B, B) is not None:
        raise InternalDefect("sigma is not an endomorphism")
    for b in B.elements():
        if theta[vals[b]] != vals[sigma[b]]:
            raise InternalDefect("theta(d(b)) != d(sigma(b))")
    return Derivation(xm=xm, values=vals, theta=theta, sigma=sigma)


def zero_derivation(xm: CrossedModule) -> Derivation:
    return make_derivation(xm, (0,) * xm.B.order)


def _circle_product(d1: Derivation, d2: Derivation, resolve) -> Derivation:
    """Circle product d1 o d2, with ``resolve`` turning its values into a derivation.

    Both printed forms of the product are evaluated; they agree for every
    valid crossed module, and a disagreement is raised loudly instead of
    being silently resolved. The result must have theta = theta1 theta2
    and sigma = sigma1 sigma2.
    """
    A, B = d1.xm.A, d1.xm.B
    primary = tuple(A.op[d1.values[d2.sigma[b]]][d2.values[b]] for b in B.elements())
    variant = tuple(A.op[d1.theta[d2.values[b]]][d1.values[b]] for b in B.elements())
    if primary != variant:
        b = next(i for i, (p, v) in enumerate(zip(primary, variant)) if p != v)
        raise FormulaMismatch(
            f"circle product formulas disagree at b = {b}", witness=b
        )
    out = resolve(primary)
    if out.theta != tuple(d1.theta[t] for t in d2.theta) or out.sigma != tuple(
        d1.sigma[s] for s in d2.sigma
    ):
        raise InternalDefect("theta/sigma are not multiplicative over the product")
    return out


def whitehead_compose(d1: Derivation, d2: Derivation) -> Derivation:
    """Circle product d1 o d2, validated as a derivation."""
    if d1.xm != d2.xm:
        raise ValueError("derivations live over different crossed modules")
    return _circle_product(d1, d2, lambda values: make_derivation(d1.xm, values))


def brute_force_derivations(
    xm: CrossedModule, *, size_bound: int = 10**6
) -> list[Derivation]:
    """Reference enumeration scanning all |A| ** |B| candidate maps."""
    A, B = xm.A, xm.B
    if A.order**B.order > size_bound:
        raise SizeBound("brute force space |A|**|B| exceeds the configured bound")
    out = []
    for vals in itertools.product(A.elements(), repeat=B.order):
        ok = all(
            vals[B.op[b][b1]] == A.op[vals[b]][xm.act(b, vals[b1])]
            for b in B.elements()
            for b1 in B.elements()
        )
        if ok:
            out.append(make_derivation(xm, vals))
    out.sort(key=lambda d: d.values)
    return out


@dataclass(frozen=True)
class DerivationSemigroup:
    """Der(B, A) with its full circle product table and unit set."""

    xm: CrossedModule
    elements: tuple[Derivation, ...]
    product_table: tuple[tuple[int, ...], ...]
    unit_indices: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def identity_index(self) -> int:
        return 0

    def index_of(self, d: Derivation) -> int:
        for i, e in enumerate(self.elements):
            if e.values == d.values:
                return i
        raise ValueError("derivation is not an element of this semigroup")


def enumerate_derivations(
    xm: CrossedModule, *, size_bound: int = 10**6
) -> DerivationSemigroup:
    """Enumerate Der(B, A) and build the Whitehead semigroup structure.

    A derivation is a crossed homomorphism B -> A, determined by its values
    on the generators of B; the generator-schedule search tries, for each
    generator g, every element of A with which d returns to 0 along the
    powers of g (``groups._closing_images``), and keeps the maps satisfying
    the derivation identity. Each element is then validated once.

    The product table is built by evaluating each circle product from the
    values and looking it up among the elements, which proves closure; the
    looked-up element is checked to have theta = theta1 theta2 and
    sigma = sigma1 sigma2. Associativity follows without a triple scan:

        ((d1 o d2) o d3)(b) = d1(sigma2 sigma3 b) + d2(sigma3 b) + d3(b)
        (d1 o (d2 o d3))(b) = d1(sigma_{d2 o d3} b) + d2(sigma3 b) + d3(b)

    and sigma_{d2 o d3} = sigma2 sigma3 is checked for every pair.
    """
    A, B = xm.A, xm.B
    gens = generating_sequence(B)
    if A.order ** max(len(gens), 1) > size_bound:
        raise SizeBound("pruned search space exceeds the configured bound")
    act = xm.action.table
    candidates = [_closing_images(B, A, act, g, A.elements()) for g in gens]
    found = _crossed_hom_search(B, A, act, gens, candidates)
    elems = [make_derivation(xm, values) for values in found]
    pos = {d.values: i for i, d in enumerate(elems)}

    def lookup(values):
        if values not in pos:
            raise InternalDefect("Der(B, A) is not closed under the product")
        return elems[pos[values]]

    table = tuple(
        tuple(pos[_circle_product(d1, d2, lookup).values] for d2 in elems)
        for d1 in elems
    )
    if pos.get((0,) * B.order) != 0:
        raise InternalDefect("zero derivation is not the first canonical element")
    size = len(elems)
    for i in range(size):
        if table[0][i] != i or table[i][0] != i:
            raise InternalDefect("zero derivation is not a two-sided identity")
    units = tuple(
        i
        for i in range(size)
        if any(table[i][j] == 0 and table[j][i] == 0 for j in range(size))
    )
    return DerivationSemigroup(
        xm=xm,
        elements=tuple(elems),
        product_table=table,
        unit_indices=units,
    )


@dataclass(frozen=True)
class RegularityCertificate:
    theta_bijective: bool
    sigma_bijective: bool
    circle_inverse_index: int | None
    searched: bool = False

    @property
    def consistent(self) -> bool:
        answers = {self.theta_bijective, self.sigma_bijective}
        if self.searched:
            answers.add(self.circle_inverse_index is not None)
        return len(answers) == 1


def is_regular(
    d: Derivation,
    semigroup: DerivationSemigroup | None = None,
    *,
    search_inverse: bool = False,
) -> tuple[bool, RegularityCertificate]:
    """Regularity of a derivation, certified three ways when possible.

    The answer is bijectivity of theta; the certificate also records
    bijectivity of sigma and, when a semigroup is supplied, existence of a
    circle inverse. The three answers must agree.
    """
    if search_inverse and semigroup is None:
        raise RequiresEnumeration(
            "inverse search needs the enumerated derivation semigroup"
        )
    theta_bij = len(set(d.theta)) == d.xm.A.order
    sigma_bij = len(set(d.sigma)) == d.xm.B.order
    inverse_index = None
    searched = False
    if semigroup is not None:
        searched = True
        idx = semigroup.index_of(d)
        for j in range(semigroup.order):
            if (
                semigroup.product_table[idx][j] == 0
                and semigroup.product_table[j][idx] == 0
            ):
                inverse_index = j
                break
    cert = RegularityCertificate(
        theta_bijective=theta_bij,
        sigma_bijective=sigma_bij,
        circle_inverse_index=inverse_index,
        searched=searched,
    )
    if not cert.consistent:
        raise InternalDefect(f"regularity criteria disagree: {cert}")
    return theta_bij, cert


def lift_derivation(d: Derivation, lift: Lifting) -> Derivation:
    """Lift d along omega: the composite d . omega is a derivation upstairs.

    theta is preserved on the nose and sigma intertwines with omega; a
    regular derivation lifts to a regular one since theta is unchanged.
    """
    if d.xm != lift.base:
        raise ValueError("derivation does not live over the base of the lifting")
    values = tuple(d.values[lift.omega.images[x]] for x in lift.X.elements())
    lifted = make_derivation(lift.induced, values)
    if lifted.theta != d.theta:
        raise InternalDefect("theta changed under derivation lifting")
    for x in lift.X.elements():
        if d.sigma[lift.omega.images[x]] != lift.omega.images[lifted.sigma[x]]:
            raise InternalDefect("sigma does not intertwine with omega")
    return lifted


def find_sections(omega: GroupHom, *, size_bound: int = 10**6) -> list[GroupHom]:
    """All homomorphism sections s of omega, with omega . s the identity."""
    identity = tuple(omega.target.elements())
    return [
        s
        for s in enumerate_homs(omega.target, omega.source, size_bound=size_bound)
        if compose(omega, s).images == identity
    ]


def descend_derivation(
    d_tilde: Derivation, lift: Lifting, section: GroupHom
) -> Derivation:
    """Push a derivation of (A, X, phi) down to the base along a section of omega."""
    if d_tilde.xm != lift.induced:
        raise ValueError("derivation does not live over (A, X, phi)")
    if section.source != lift.base.B or section.target != lift.X:
        raise ValueError("section is not wired as B -> X")
    for b in lift.base.B.elements():
        if lift.omega.images[section.images[b]] != b:
            raise NotASection(f"omega(s(b)) != b at b = {b}", witness=b)
    values = tuple(d_tilde.values[section.images[b]] for b in lift.base.B.elements())
    return make_derivation(lift.base, values)


def derivation_to_endomorphism_morphism(
    d: Derivation,
) -> tuple[XModMorphism, Homotopy]:
    """The endomorphism pair (theta, sigma) and the homotopy it bounds.

    Every derivation yields a crossed module endomorphism (theta, sigma)
    together with a homotopy d: (theta, sigma) => (1, 1); failures here
    would be internal defects, so errors are allowed to propagate.
    """
    xm = d.xm
    theta_hom = make_hom(xm.A, xm.A, d.theta)
    sigma_hom = make_hom(xm.B, xm.B, d.sigma)
    endo = make_morphism(xm, xm, theta_hom, sigma_hom)
    ident = identity_morphism(xm)
    homotopy = make_homotopy(d.values, endo, ident)
    return endo, homotopy
