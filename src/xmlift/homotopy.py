"""Homotopies between crossed module morphisms and their lifting property.

A homotopy from (f1, g1) to (f2, g2), both mapping (A~, B~, alpha~) into
(A, B, alpha), is a map d: B~ -> A subject to three conditions:

* H1: d(b1 + b2) = d(b1) + g2(b1).d(b2),
* H2: d(alpha~(a)) = f1(a) - f2(a),
* H3: alpha(d(b)) = g1(b) - g2(b).

H1 twists by the second morphism's group map. Twisting by the first one
instead breaks the expected equivalence with derivations whenever A is
nonabelian: for the automorphism crossed module of S3 the inversion
derivation d(b) = -b satisfies the derivation identity but fails the
first-map variant of H1, while every derivation passes the form above.

H1 is proven from the generators of B~, H2 and H3 element by element; a
failure is reported at the first witness of the exhaustive scan.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import H1Violation, H2Violation, H3Violation
from .groups import _first_failure
from .lifting import Lifting
from .xmod import XModMorphism


@dataclass(frozen=True)
class Homotopy:
    """A validated homotopy between two parallel crossed module morphisms."""

    values: tuple[int, ...]
    source: XModMorphism
    target: XModMorphism


def make_homotopy(values, source: XModMorphism, target: XModMorphism) -> Homotopy:
    """Validate H1, H2 and H3 for the value table of a homotopy.

    H1 is checked for b2 in the generators of B~. Induction step: if s and
    t pass, d(b1+s+t) = d(b1+s) + g2(b1+s).d(t) = d(b1) + g2(b1).d(s) +
    g2(b1).(g2(s).d(t)) = d(b1) + g2(b1).d(s+t), so s+t passes, and the
    passing elements form a subgroup containing the generators.
    """
    if source.source != target.source or source.target != target.target:
        raise ValueError("homotopy endpoints must be parallel morphisms")
    up = source.source
    down = source.target
    vals = tuple(int(v) for v in values)
    if len(vals) != up.B.order:
        raise ValueError(f"{len(vals)} values for a domain of order {up.B.order}")
    for v in vals:
        if not 0 <= v < down.A.order:
            raise ValueError(f"homotopy value {v} out of range")
    A, B = down.A, down.B
    uop, act, g2 = up.B.op, down.action.table, target.f2.images
    failing = _first_failure(
        lambda b1, b2: vals[uop[b1][b2]] != A.op[vals[b1]][act[g2[b1]][vals[b2]]],
        ((b1, s) for s in up.B.generators for b1 in up.B.elements()),
        itertools.product(up.B.elements(), repeat=2),
    )
    if failing is not None:
        b1, b2 = failing
        raise H1Violation(f"H1 fails at (b1,b2) = ({b1},{b2})", witness=failing)
    for a in up.A.elements():
        lhs = vals[up.boundary.images[a]]
        rhs = A.op[source.f1.images[a]][A.inverse[target.f1.images[a]]]
        if lhs != rhs:
            raise H2Violation(f"H2 fails at a = {a}", witness=a)
    for b in up.B.elements():
        lhs = down.boundary.images[vals[b]]
        rhs = B.op[source.f2.images[b]][B.inverse[target.f2.images[b]]]
        if lhs != rhs:
            raise H3Violation(f"H3 fails at b = {b}", witness=b)
    return Homotopy(values=vals, source=source, target=target)


def homotopy_lift(
    homotopy: Homotopy,
    lift: Lifting,
    lifted_source: XModMorphism,
    lifted_target: XModMorphism,
) -> Homotopy:
    """Revalidate a base homotopy as a homotopy between lifted morphisms.

    The same value table is used upstairs: H1 and H2 are untouched because
    the induced action factors through omega, and H3 is rechecked with phi
    in place of alpha. Any violation signals broken preconditions, so the
    H errors are allowed to propagate.
    """
    if homotopy.source.target != lift.base:
        raise ValueError("homotopy does not live over the base of the lifting")
    for lifted, downstairs in (
        (lifted_source, homotopy.source),
        (lifted_target, homotopy.target),
    ):
        if lifted.target != lift.induced:
            raise ValueError("lifted morphism does not land in (A, X, phi)")
        if lifted.source != downstairs.source:
            raise ValueError("lifted morphism has the wrong source")
        if lifted.f1.images != downstairs.f1.images:
            raise ValueError("lifted morphism changes the A component")
        composed = tuple(
            lift.omega.images[v] for v in lifted.f2.images
        )
        if composed != downstairs.f2.images:
            raise ValueError("omega . g~ != g for a lifted morphism")
    return make_homotopy(homotopy.values, lifted_source, lifted_target)
