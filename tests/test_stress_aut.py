"""Derivation search beyond brute force reach: D4 and Q8.

The automorphism crossed module of Q8 has |A| ** |B| = 8 ** 24 candidate
maps, so only the generator-schedule search (|A| ** |gens B| candidates)
is feasible; the semigroup construction then proves closure,
associativity and the unit structure on the result.
"""

from __future__ import annotations

import pytest

import xmlift.errors as errors
from xmlift import (
    automorphism_xmod,
    brute_force_derivations,
    catalog_group,
    derivation_to_endomorphism_morphism,
    enumerate_derivations,
    enumerate_liftings,
    is_regular,
    lift_derivation,
)


@pytest.mark.parametrize(
    "keyword,aut_order,der_count",
    [("D4", 8, 16), ("Q8", 24, 8)],
)
def test_automorphism_xmod_derivations(keyword, aut_order, der_count):
    xm = automorphism_xmod(catalog_group(keyword))
    assert xm.B.order == aut_order
    assert xm.A.order ** xm.B.order > 10**6  # brute force is out of reach
    with pytest.raises(errors.SizeBound):
        brute_force_derivations(xm)
    semi = enumerate_derivations(xm)
    assert semi.order == der_count
    # every derivation is regular here and the three criteria agree
    for d in semi.elements:
        regular, cert = is_regular(d, semi)
        assert regular and cert.consistent
        derivation_to_endomorphism_morphism(d)


@pytest.mark.parametrize("keyword", ["D4", "Q8"])
def test_automorphism_xmod_lifting_pipeline(keyword):
    xm = automorphism_xmod(catalog_group(keyword))
    lifts = enumerate_liftings(xm)
    # the kernel of iota is the center, of order two in both groups
    assert len(lifts) == 2
    semi = enumerate_derivations(xm)
    for lift in lifts:
        for d in semi.elements:
            lifted = lift_derivation(d, lift)
            assert lifted.theta == d.theta
