"""Core finite group machinery, checked against independent brute oracles."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings, strategies as st

import xmlift.errors as errors
from xmlift import (
    automorphism_group,
    catalog_group,
    center,
    compose,
    enumerate_homs,
    image,
    is_normal,
    kernel,
    make_group,
    make_hom,
    make_subgroup,
    pullback_group,
    quotient,
    subgroups,
)
from xmlift.groups import generating_sequence, identity_hom, make_action, zero_hom


def z_table(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


# -- make_group -----------------------------------------------------------------


def test_trivial_group():
    g = make_group([[0]])
    assert g.order == 1
    assert g.identity == 0


def test_trivial_group_validators_still_check_the_identity():
    # generating_sequence of the trivial group is empty, so the validators
    # check over (0,) instead, or f(0) = 0 and 0.a = a would go unchecked
    trivial, z2, z3 = make_group([[0]]), catalog_group("Z2"), catalog_group("Z3")
    assert generating_sequence(trivial) == []
    assert trivial.generators == (0,)
    with pytest.raises(errors.NotHomomorphism) as exc:
        make_hom(trivial, z2, (1,))
    assert exc.value.witness == (0, 0)
    with pytest.raises(errors.ActionAxiomViolation) as exc:
        make_action(trivial, z2, [[1, 0]])
    assert exc.value.witness == (0, 0, 0)
    # negation is an automorphism of Z3, but 0 must act as the identity
    with pytest.raises(errors.ActionAxiomViolation) as exc:
        make_action(trivial, z3, [[0, 2, 1]])
    assert exc.value.witness == (0, 0, 1)
    assert "(b+b')" in str(exc.value)


def test_identity_off_index_zero_is_relabeled():
    g = make_group([[1, 0], [0, 1]])
    assert g.op == ((0, 1), (1, 0))
    assert g.inverse == (0, 1)


def test_z4_valid():
    g = make_group(z_table(4))
    assert g.order == 4
    assert g.inverse == (0, 3, 2, 1)


def test_broken_z4_not_associative():
    table = z_table(4)
    table[1][2] = 0  # clobber one entry
    # oracle: first violating triple by direct scan
    witness = None
    for a, b, c in itertools.product(range(4), repeat=3):
        if table[table[a][b]][c] != table[a][table[b][c]]:
            witness = (a, b, c)
            break
    assert witness is not None
    with pytest.raises(errors.NotAssociative) as exc:
        make_group(table)
    assert exc.value.witness == witness


def test_malformed_tables():
    with pytest.raises(errors.MalformedTable):
        make_group([[0, 1], [1]])
    with pytest.raises(errors.MalformedTable):
        make_group([[0, 7], [1, 0]])
    with pytest.raises(errors.MalformedTable):
        make_group([])


def test_no_identity():
    # left-zero semigroup: associative, no identity
    with pytest.raises(errors.NoIdentity):
        make_group([[0, 0], [1, 1]])


def test_identity_relabeled_to_zero():
    # Z2 written with the identity at index 1
    g = make_group([[1, 0], [0, 1]])
    assert g.op[0][0] == 0
    assert g.op[1][1] == 0


def test_element_names_relabel():
    g = make_group([[1, 0], [0, 1]], names=["x", "e"])
    assert g.element_names == ("e", "x")


# -- make_hom ---------------------------------------------------------------------


def test_mod2_hom_valid():
    z4, z2 = catalog_group("Z4"), catalog_group("Z2")
    h = make_hom(z4, z2, (0, 1, 0, 1))
    assert h(3) == 1


def test_zero_hom_valid():
    g, h = catalog_group("S3"), catalog_group("Z4")
    assert make_hom(g, h, (0,) * 6).images == (0,) * 6


def test_not_homomorphism_witness():
    z4, z2 = catalog_group("Z4"), catalog_group("Z2")
    with pytest.raises(errors.NotHomomorphism) as exc:
        make_hom(z4, z2, (0, 1, 1, 1))
    assert exc.value.witness == (1, 1)


# -- kernel / image / center / normality ----------------------------------------------


def test_kernel_of_mod2():
    z4, z2 = catalog_group("Z4"), catalog_group("Z2")
    h = make_hom(z4, z2, (0, 1, 0, 1))
    # oracle: scan preimages of 0
    expected = tuple(a for a in range(4) if h.images[a] == 0)
    assert kernel(h).elements == expected == (0, 2)


def test_kernel_of_identity_and_image_of_zero():
    g = catalog_group("S3")
    assert kernel(identity_hom(g)).elements == (0,)
    assert image(zero_hom(g, catalog_group("Z4"))).elements == (0,)


def test_center_abelian_is_everything():
    z4 = catalog_group("Z4")
    assert center(z4).elements == (0, 1, 2, 3)


def test_center_s3_trivial():
    s3 = catalog_group("S3")
    # oracle: conjugation scan
    expected = tuple(
        a
        for a in range(6)
        if all(s3.op[a][b] == s3.op[b][a] for b in range(6))
    )
    assert center(s3).elements == expected == (0,)


def test_a3_normal_in_s3():
    s3 = catalog_group("S3")
    a3 = make_subgroup(s3, (0, 3, 4))
    assert is_normal(a3, s3)
    order2 = make_subgroup(s3, (0, 1))
    assert not is_normal(order2, s3)


def test_every_kernel_is_normal():
    z4, z2, s3 = catalog_group("Z4"), catalog_group("Z2"), catalog_group("S3")
    for h in enumerate_homs(s3, z2) + enumerate_homs(z4, z2):
        assert is_normal(kernel(h), h.source)
        img = image(h)
        # image is a subgroup: construction validates, just recheck closure
        for a in img.elements:
            for b in img.elements:
                assert h.target.op[a][b] in img.elements


# -- quotient --------------------------------------------------------------------------


def test_quotient_z4_by_02():
    z4 = catalog_group("Z4")
    sub = make_subgroup(z4, (0, 2))
    q, proj = quotient(z4, sub)
    assert q.order == 2
    assert proj.images == (0, 1, 0, 1)
    assert kernel(proj).elements == (0, 2)


def test_quotient_by_trivial_is_identity_copy():
    s3 = catalog_group("S3")
    q, proj = quotient(s3, make_subgroup(s3, (0,)))
    assert q.op == s3.op
    assert proj.images == tuple(range(6))


def test_quotient_s3_by_a3():
    s3 = catalog_group("S3")
    q, proj = quotient(s3, make_subgroup(s3, (0, 3, 4)))
    assert q.order == 2
    # coset enumeration oracle: transpositions map to the nonzero coset
    assert proj.images == (0, 1, 1, 0, 0, 1)


def test_quotient_not_normal_rejected():
    s3 = catalog_group("S3")
    with pytest.raises(errors.NotNormal):
        quotient(s3, make_subgroup(s3, (0, 1)))


# -- pullbacks --------------------------------------------------------------------------


def test_pullback_diagonal():
    z2 = catalog_group("Z2")
    p, pi1, pi2 = pullback_group(identity_hom(z2), identity_hom(z2))
    assert p.order == 2
    assert pi1.images == pi2.images == (0, 1)


def test_pullback_mod2_with_identity():
    z4, z2 = catalog_group("Z4"), catalog_group("Z2")
    mod2 = make_hom(z4, z2, (0, 1, 0, 1))
    p, pi1, pi2 = pullback_group(mod2, identity_hom(z2))
    # oracle: |{(x, b): x mod 2 = b}| = 4
    expected = [(x, b) for x in range(4) for b in range(2) if x % 2 == b]
    assert p.order == len(expected) == 4
    assert [(pi1.images[i], pi2.images[i]) for i in p.elements()] == expected


def test_pullback_of_zero_maps_is_product():
    g, k, h = catalog_group("S3"), catalog_group("Z4"), catalog_group("Z2")
    p, _, _ = pullback_group(zero_hom(g, h), zero_hom(k, h))
    assert p.order == g.order * k.order


def test_pullback_codomain_mismatch():
    z4, z2 = catalog_group("Z4"), catalog_group("Z2")
    with pytest.raises(errors.CodomainMismatch):
        pullback_group(identity_hom(z4), identity_hom(z2))


def test_pullback_projection_compatibility():
    z4, z2 = catalog_group("Z4"), catalog_group("Z2")
    mod2 = make_hom(z4, z2, (0, 1, 0, 1))
    other = make_hom(catalog_group("Z2xZ2"), z2, (0, 0, 1, 1))
    p, pi1, pi2 = pullback_group(mod2, other)
    assert compose(mod2, pi1).images == compose(other, pi2).images


# -- subgroups ---------------------------------------------------------------------------


def brute_force_subgroups(group):
    """Oracle: scan all element subsets for the subgroup axioms."""
    found = []
    for r in range(1, group.order + 1):
        for combo in itertools.combinations(range(group.order), r):
            s = set(combo)
            if 0 not in s:
                continue
            if any(group.inverse[a] not in s for a in s):
                continue
            if any(group.op[a][b] not in s for a in s for b in s):
                continue
            found.append(tuple(sorted(s)))
    return sorted(found, key=lambda t: (len(t), t))


@pytest.mark.parametrize("keyword,count", [("Z4", 3), ("Z1", 1), ("S3", 6), ("Z2xZ2", 5)])
def test_subgroup_enumeration_matches_brute_force(keyword, count):
    g = catalog_group(keyword)
    enumerated = [s.elements for s in subgroups(g)]
    assert enumerated == brute_force_subgroups(g)
    assert len(enumerated) == count


def test_subgroups_lagrange():
    g = catalog_group("D4")
    for s in subgroups(g):
        assert g.order % s.order == 0


def test_subgroups_size_bound():
    with pytest.raises(errors.SizeBound):
        subgroups(catalog_group("Z4"), size_bound=2)


# -- automorphisms ------------------------------------------------------------------------


def brute_force_automorphisms(group):
    """Oracle: scan all permutations fixing 0 for the hom property."""
    n = group.order
    out = []
    for perm in itertools.permutations(range(n)):
        if perm[0] != 0:
            continue
        if all(
            perm[group.op[a][b]] == group.op[perm[a]][perm[b]]
            for a in range(n)
            for b in range(n)
        ):
            out.append(perm)
    return sorted(out)


@pytest.mark.parametrize(
    "keyword,order", [("Z4", 2), ("Z1", 1), ("Z3", 2), ("Z2xZ2", 6), ("S3", 6)]
)
def test_automorphism_group_matches_brute_force(keyword, order):
    g = catalog_group(keyword)
    aut, action = automorphism_group(g)
    assert aut.order == order
    assert list(action.table) == brute_force_automorphisms(g)


def test_automorphism_action_is_valid_action():
    g = catalog_group("S3")
    aut, action = automorphism_group(g)
    # composing two automorphism permutations matches the group table
    for f in aut.elements():
        for h in aut.elements():
            composed = tuple(action.table[f][action.table[h][x]] for x in g.elements())
            assert composed == action.table[aut.op[f][h]]


def test_automorphism_size_bound():
    with pytest.raises(errors.SizeBound):
        automorphism_group(catalog_group("Z8"), size_bound=4)


# -- hom enumeration ------------------------------------------------------------------------


def brute_force_homs(source, target):
    out = []
    for images in itertools.product(range(target.order), repeat=source.order):
        if all(
            images[source.op[a][b]] == target.op[images[a]][images[b]]
            for a in range(source.order)
            for b in range(source.order)
        ):
            out.append(images)
    return sorted(out)


@pytest.mark.parametrize(
    "src,tgt",
    [("Z4", "Z2"), ("Z2", "Z4"), ("S3", "Z2"), ("Z2xZ2", "Z2xZ2"), ("S3", "S3")],
)
def test_enumerate_homs_matches_brute_force(src, tgt):
    s, t = catalog_group(src), catalog_group(tgt)
    assert [h.images for h in enumerate_homs(s, t)] == brute_force_homs(s, t)


# -- actions -----------------------------------------------------------------------------------


def test_action_axiom_violation():
    z2, z4 = catalog_group("Z2"), catalog_group("Z4")
    # 1 acting as a non-automorphism shift breaks distributivity
    with pytest.raises(errors.ActionAxiomViolation):
        make_action(z2, z4, [(0, 1, 2, 3), (1, 2, 3, 0)])


def test_action_compat_violation():
    z4row = (0, 3, 2, 1)
    z4 = catalog_group("Z4")
    # negation twice is the identity, so Z3 acting by negation on index 1 fails
    z3 = catalog_group("Z3")
    with pytest.raises(errors.ActionAxiomViolation) as exc:
        make_action(z3, z4, [(0, 1, 2, 3), z4row, (0, 1, 2, 3)])
    assert "(b+b')" in str(exc.value)


# -- property tests ---------------------------------------------------------------------------


@given(st.sampled_from(["Z1", "Z2", "Z3", "Z4", "Z6", "Z2xZ2", "S3", "D4", "Q8"]))
@settings(deadline=None, max_examples=20)
def test_group_axioms_roundtrip(keyword):
    g = catalog_group(keyword)
    rebuilt = make_group(g.op, names=g.element_names)
    assert rebuilt == g
    for a in g.elements():
        assert g.op[a][g.inverse[a]] == 0
        assert g.op[g.inverse[a]][a] == 0


@given(
    st.sampled_from(["Z2", "Z4", "Z2xZ2", "S3"]),
    st.sampled_from(["Z2", "Z4", "Z2xZ2", "S3"]),
)
@settings(deadline=None, max_examples=16)
def test_hom_kernel_image_properties(src, tgt):
    s, t = catalog_group(src), catalog_group(tgt)
    for h in enumerate_homs(s, t):
        ker, img = kernel(h), image(h)
        assert is_normal(ker, s)
        assert ker.order * img.order == s.order
