"""Differential tests: each validator against its exhaustive oracle.

The library proves every axiom from a generating set and scans all cells
only to find the witness of a failure; ``oracles.py`` scans all cells.
On random and corrupted inputs both must accept the same objects and
reject the rest with the same error category, message and witness.
"""

from __future__ import annotations

import dataclasses
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

import oracles
import xmlift.errors as errors
from conftest import catalog_xmods
from test_groupoid import pair_action, translation_action
from test_homotopy import all_morphisms
from xmlift import (
    automorphism_group,
    catalog_group,
    enumerate_derivations,
    enumerate_homs,
    make_crossed_module,
    make_derivation,
    make_gg_action,
    make_group,
    make_homotopy,
    make_morphism,
    one_object_group_groupoid,
    pair_group_groupoid,
)
from xmlift.derivations import (
    Derivation,
    brute_force_derivations,
    derivation_to_endomorphism_morphism,
)
from xmlift.groupoid import UNDEFINED, make_group_groupoid
from xmlift.groups import (
    FiniteGroup,
    _crossed_hom_search,
    center,
    generating_sequence,
    is_normal,
    make_action,
    make_hom,
    subgroups,
)

SMALL = ["Z1", "Z2", "Z3", "Z4", "Z2xZ2", "S3"]


def outcome(build, *args):
    """What a validator did: the error it raised, or what it built."""
    try:
        built = build(*args)
    except errors.XmliftError as err:
        return type(err).__name__, str(err), err.witness
    if isinstance(built, FiniteGroup):
        return built.op, built.inverse, built.element_names
    if isinstance(built, Derivation):
        return built.values, built.theta, built.sigma
    return built


def agree(library, oracle, *args):
    expected = outcome(oracle, *args)
    assert outcome(library, *args) == expected
    return expected


@st.composite
def corruptions(draw, table, values):
    """``table`` (a list of rows) with up to three cells redrawn from ``values``."""
    rows = [list(row) for row in table]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(rows) - 1))
        j = draw(st.integers(0, len(rows[i]) - 1))
        rows[i][j] = draw(values)
    return rows


# -- make_group -------------------------------------------------------------------------


@st.composite
def random_tables(draw):
    n = draw(st.integers(1, 5))
    cell = st.integers(0, n - 1)
    return draw(st.lists(st.lists(cell, min_size=n, max_size=n), min_size=n, max_size=n))


def relabel(g, perm):
    """The Cayley table of ``g`` with each element x renamed perm[x]."""
    back = {p: i for i, p in enumerate(perm)}
    return [[perm[g.op[back[i]][back[j]]] for j in g.elements()] for i in g.elements()]


@st.composite
def relabeled_groups(draw):
    """A catalog group relabeled at random, with up to three cells redrawn."""
    g = catalog_group(draw(st.sampled_from(SMALL + ["D4", "Q8"])))
    table = relabel(g, draw(st.permutations(range(g.order))))
    return draw(corruptions(table, st.integers(0, g.order - 1)))


@st.composite
def adjoined_zero_tables(draw):
    """A group on indices 1..m with an extra element 0 that is no product of
    other elements: a generating set seeded with 0 would never test it."""
    g = catalog_group(draw(st.sampled_from(SMALL)))
    m = g.order
    table = [[0] * (m + 1)] + [[0] + [1 + v for v in g.op[i]] for i in range(m)]
    cell = st.integers(0, m)
    for x in range(m + 1):
        table[0][x] = draw(cell)
        table[x][0] = draw(cell)
    return table


@given(st.one_of(random_tables(), relabeled_groups(), adjoined_zero_tables()))
@settings(max_examples=150)
def test_make_group_matches_oracle(table):
    agree(make_group, oracles.make_group, table)


@pytest.mark.parametrize(
    "table",
    [[[0, 1], [1]], [[0, 1], [1, 2]], [[0, -1], [1, 0]], [[1, 0], [0, 1]], [[0]]],
)
def test_make_group_shape_errors_match_oracle(table):
    agree(make_group, oracles.make_group, table)


def test_light_test_tries_index_zero():
    # 0 acts from the left as the swap of 1 and 2 and from the right as the
    # identity; every failing triple has 0 in the middle, so a check whose
    # generators skipped 0 would accept associativity and report NoIdentity
    table = [[0, 2, 1], [1, 1, 2], [2, 2, 1]]
    name, _, witness = agree(make_group, oracles.make_group, table)
    assert (name, witness) == ("NotAssociative", (0, 0, 1))


# -- normal subgroups and the center ------------------------------------------------------


@st.composite
def relabeled(draw, names):
    """(name, the catalog group ``name`` under a random relabeling)."""
    name = draw(st.sampled_from(names))
    g = catalog_group(name)
    return name, make_group(relabel(g, draw(st.permutations(range(g.order)))))


@given(relabeled(SMALL + ["Z6", "D4", "Q8"]))
@settings(max_examples=100)
def test_is_normal_and_center_match_oracle(case):
    name, group = case
    assert center(group) == oracles.center(group)
    subs = subgroups(group)
    verdicts = [is_normal(sub, group) for sub in subs]
    assert verdicts == [oracles.is_normal(sub, group) for sub in subs]
    # S3 and D4 have subgroups of both kinds; every subgroup of Q8 is normal
    assert set(verdicts) == ({True, False} if name in ("S3", "D4") else {True})


# -- homomorphisms and actions ------------------------------------------------------------


@lru_cache(maxsize=None)
def homs(source, target):
    return [h.images for h in enumerate_homs(catalog_group(source), catalog_group(target))]


@st.composite
def hom_cases(draw):
    s, t = draw(st.sampled_from(SMALL)), draw(st.sampled_from(SMALL))
    source, target = catalog_group(s), catalog_group(t)
    images = draw(st.sampled_from(homs(s, t)))
    (images,) = draw(corruptions([images], st.integers(0, target.order - 1)))
    return source, target, images


@given(hom_cases())
@settings(max_examples=150)
def test_make_hom_matches_oracle(case):
    agree(make_hom, oracles.make_hom, *case)


@lru_cache(maxsize=None)
def actions(actor, space):
    """Every action of ``actor`` on ``space``, through homs into Aut(space)."""
    aut, natural = automorphism_group(catalog_group(space))
    return [
        tuple(natural.table[v] for v in h.images)
        for h in enumerate_homs(catalog_group(actor), aut)
    ]


@st.composite
def action_cases(draw):
    """An action with up to three cells redrawn, or with some rows swapped
    for other automorphisms, which keeps b.(a+a') = b.a + b.a'."""
    b, a = draw(st.sampled_from(SMALL)), draw(st.sampled_from(SMALL))
    actor, space = catalog_group(b), catalog_group(a)
    table = draw(st.sampled_from(actions(b, a)))
    if draw(st.booleans()):
        return actor, space, draw(corruptions(table, st.integers(0, space.order - 1)))
    automorphisms = automorphism_group(space)[1].table
    rows = list(table)
    for _ in range(draw(st.integers(1, 2))):
        rows[draw(st.integers(0, actor.order - 1))] = draw(st.sampled_from(automorphisms))
    return actor, space, rows


@given(action_cases())
@settings(max_examples=150)
def test_make_action_matches_oracle(case):
    agree(make_action, oracles.make_action, *case)


def test_crossed_hom_search_matches_oracle():
    for s in SMALL + ["D4"]:
        for t in SMALL:
            source, target = catalog_group(s), catalog_group(t)
            gens = generating_sequence(source)
            rows = (tuple(target.elements()),) * source.order
            for act in [rows, *actions(s, t)]:
                args = (source, target, act, gens, [list(target.elements())] * len(gens))
                assert _crossed_hom_search(*args) == oracles.crossed_hom_search(*args)


# -- crossed modules, their morphisms, homotopies and derivations ---------------------------


@st.composite
def crossed_module_cases(draw):
    a, b = draw(st.sampled_from(SMALL)), draw(st.sampled_from(SMALL))
    A, B = catalog_group(a), catalog_group(b)
    boundary = make_hom(A, B, draw(st.sampled_from(homs(a, b))))
    action = make_action(B, A, draw(st.sampled_from(actions(b, a))))
    return A, B, boundary, action


@given(crossed_module_cases())
@settings(max_examples=150)
def test_make_crossed_module_matches_oracle(case):
    agree(make_crossed_module, oracles.make_crossed_module, *case)


@lru_cache(maxsize=None)
def hom_pairs(src, dst):
    xms = catalog_xmods()
    s, d = xms[src], xms[dst]
    return [
        (f1, f2) for f1 in enumerate_homs(s.A, d.A) for f2 in enumerate_homs(s.B, d.B)
    ]


@given(st.sampled_from(sorted(catalog_xmods())), st.sampled_from(sorted(catalog_xmods())), st.data())
@settings(max_examples=100)
def test_make_morphism_matches_oracle(src, dst, data):
    pairs = hom_pairs(src, dst)
    f1, f2 = data.draw(st.sampled_from(pairs))
    xms = catalog_xmods()
    agree(make_morphism, oracles.make_morphism, xms[src], xms[dst], f1, f2)


@lru_cache(maxsize=None)
def morphisms_between(src, dst):
    xms = catalog_xmods()
    return all_morphisms(xms[src], xms[dst])


@given(st.sampled_from(sorted(catalog_xmods())), st.sampled_from(sorted(catalog_xmods())), st.data())
@settings(max_examples=100)
def test_make_homotopy_matches_oracle(src, dst, data):
    morphisms = morphisms_between(src, dst)
    m1 = data.draw(st.sampled_from(morphisms))
    m2 = data.draw(st.sampled_from(morphisms))
    # the zero map with up to three values redrawn
    (values,) = data.draw(
        corruptions([[0] * m1.source.B.order], st.integers(0, m1.target.A.order - 1))
    )
    agree(make_homotopy, oracles.make_homotopy, values, m1, m2)


def test_make_homotopy_accepts_like_oracle(xmods):
    # accepted homotopies: each derivation d bounds (theta, sigma) => (1, 1)
    for xm in xmods.values():
        for d in enumerate_derivations(xm).elements:
            endo, homotopy = derivation_to_endomorphism_morphism(d)
            kept = agree(make_homotopy, oracles.make_homotopy, d.values, endo, homotopy.target)
            assert kept == homotopy


@given(st.sampled_from(sorted(catalog_xmods())), st.data())
@settings(max_examples=150)
def test_make_derivation_matches_oracle(name, data):
    xm = catalog_xmods()[name]
    start = data.draw(st.sampled_from(enumerate_derivations(xm).elements)).values
    (values,) = data.draw(corruptions([start], st.integers(0, xm.A.order - 1)))
    agree(make_derivation, oracles.make_derivation, xm, values)


@lru_cache(maxsize=None)
def small_crossed_modules():
    """Every crossed module (A, B, boundary, action) over groups in SMALL with
    |A| ** |B| small enough for the brute-force scan."""
    out = []
    for a in SMALL:
        for b in SMALL:
            A, B = catalog_group(a), catalog_group(b)
            if A.order**B.order > 50_000:
                continue
            for images in homs(a, b):
                for rows in actions(b, a):
                    boundary, action = make_hom(A, B, images), make_action(B, A, rows)
                    try:
                        out.append(make_crossed_module(A, B, boundary, action))
                    except errors.XmliftError:
                        pass
    return out


@st.composite
def relabeled_crossed_modules(draw):
    """A crossed module with B relabeled at random, which moves the
    generators of B the derivation search forces along."""
    xm = draw(st.sampled_from(small_crossed_modules()))
    B = xm.B
    perm = [0, *draw(st.permutations(range(1, B.order)))]
    B2 = make_group(relabel(B, perm))
    boundary = make_hom(xm.A, B2, [perm[v] for v in xm.boundary.images])
    action = make_action(B2, xm.A, [xm.action.table[perm.index(b)] for b in B.elements()])
    return make_crossed_module(xm.A, B2, boundary, action)


@given(relabeled_crossed_modules())
@settings(max_examples=80)
def test_enumerate_derivations_matches_brute_force(xm):
    # the search drops generator images whose powers do not return to 0;
    # the scan over all |A| ** |B| maps must find the same derivations
    found = [d.values for d in enumerate_derivations(xm).elements]
    assert found == [d.values for d in brute_force_derivations(xm)]


# -- group-groupoids and their actions ----------------------------------------------------


def valid_group_groupoids():
    out = [pair_group_groupoid(catalog_group(k)) for k in ("Z1", "Z2", "Z3")]
    out += [one_object_group_groupoid(catalog_group(k)) for k in ("Z1", "Z2", "Z4", "Z2xZ2")]
    return out


@given(st.sampled_from(valid_group_groupoids()), st.data())
@settings(max_examples=150)
def test_make_group_groupoid_matches_oracle(gg, data):
    gpd = gg.groupoid
    n = gpd.n_morphisms
    morphism = st.integers(0, n - 1)
    compose = data.draw(corruptions(gpd.compose, st.one_of(morphism, st.just(UNDEFINED))))
    (inverse,) = data.draw(corruptions([gpd.inverse], morphism))
    broken = dataclasses.replace(
        gpd, compose=tuple(map(tuple, compose)), inverse=tuple(inverse)
    )
    agree(make_group_groupoid, oracles.make_group_groupoid, broken, gg.object_group, gg.morphism_group)


def test_one_object_interchange_matches_oracle():
    # composition by a group law on Mor other than its sum breaks interchange
    z4, v4 = catalog_group("Z4"), catalog_group("Z2xZ2")
    gg = one_object_group_groupoid(z4)
    broken = dataclasses.replace(gg.groupoid, compose=v4.op, inverse=v4.inverse)
    name, message, _ = agree(
        make_group_groupoid, oracles.make_group_groupoid, broken, gg.object_group, z4
    )
    assert name == "GroupoidViolation"
    assert "interchange" in message


def test_interchange_failure_seen_from_one_generator():
    # on the one-object groupoid of Z4 let h o g = h + g + (h mod 2): a
    # groupoid law with the same inversion, additive along (0, 1), so only
    # the generator (1, 0) of the composable pairs sees interchange fail
    z4 = catalog_group("Z4")
    gg = one_object_group_groupoid(z4)
    compose = tuple(tuple((h + g + h % 2) % 4 for g in range(4)) for h in range(4))
    broken = dataclasses.replace(gg.groupoid, compose=compose)
    name, message, witness = agree(
        make_group_groupoid, oracles.make_group_groupoid, broken, gg.object_group, z4
    )
    assert (name, witness) == ("GroupoidViolation", (1, 0, 1, 0))
    assert "interchange" in message


def test_interchange_checked_when_only_the_zero_pair_composes():
    # a generating set of the single pair (0, 0) is empty; the check must
    # still compare 0 o 0 with (0 o 0) + (0 o 0)
    z2 = catalog_group("Z2")
    gg = one_object_group_groupoid(z2)
    broken = dataclasses.replace(gg.groupoid, compose=((1, UNDEFINED), (UNDEFINED, UNDEFINED)))
    name, _, witness = agree(
        make_group_groupoid, oracles.make_group_groupoid, broken, gg.object_group, z2
    )
    assert (name, witness) == ("GroupoidViolation", (0, 0, 0, 0))


def valid_gg_actions():
    return [translation_action(3)[1], translation_action(4)[1], pair_action()[1]]


@st.composite
def gg_action_cases(draw):
    """A valid action with defined cells redrawn, or a one-object
    group-groupoid acting through automorphisms, which breaks interchange
    unless the action is trivial."""
    if draw(st.booleans()):
        action = draw(st.sampled_from(valid_gg_actions()))
        rows = [list(row) for row in action.act]
        defined = [(g, x) for g, row in enumerate(rows) for x, v in enumerate(row) if v != UNDEFINED]
        value = st.one_of(st.integers(0, action.X.order - 1), st.just(UNDEFINED))
        for _ in range(draw(st.integers(0, 2))):
            g, x = draw(st.sampled_from(defined))
            rows[g][x] = draw(value)
        return action.gg, action.X, action.omega, rows
    m, x = draw(st.sampled_from(["Z2", "Z4", "Z2xZ2"])), draw(st.sampled_from(SMALL))
    gg = one_object_group_groupoid(catalog_group(m))
    X = catalog_group(x)
    omega = make_hom(X, gg.object_group, (0,) * X.order)
    return gg, X, omega, draw(st.sampled_from(actions(m, x)))


@given(gg_action_cases())
@settings(max_examples=150)
def test_make_gg_action_matches_oracle(case):
    agree(make_gg_action, oracles.make_gg_action, *case)


def test_gg_action_twisted_interchange_matches_oracle():
    # Z2 acting on Z3 by negation through the one-object group-groupoid:
    # an action of the groupoid, but not compatible with the sums
    z2, z3 = catalog_group("Z2"), catalog_group("Z3")
    gg = one_object_group_groupoid(z2)
    rows = [list(z3.elements()), [z3.inverse[x] for x in z3.elements()]]
    omega = make_hom(z3, gg.object_group, (0, 0, 0))
    name, message, witness = agree(make_gg_action, oracles.make_gg_action, gg, z3, omega, rows)
    assert (name, witness) == ("GGActionViolation", (0, 1, 1, 0))
    assert "interchange" in message
