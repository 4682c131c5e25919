"""Finite groups as Cayley tables over element indices 0..n-1.

Conventions used throughout the package:

* the identity always sits at index 0 (construction relabels if needed),
* all tables are immutable tuples, safe to share between threads,
* enumerations return canonically ordered, deterministic results,
* validators prove each axiom from a generating set and, only when it
  fails, scan every cell in lexicographic element order to report the
  first violating witness.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from functools import cached_property
from math import prod

from .errors import (
    ActionAxiomViolation,
    CodomainMismatch,
    MalformedTable,
    NoIdentity,
    NoInverse,
    NotAssociative,
    NotASubgroup,
    NotHomomorphism,
    NotNormal,
    SizeBound,
)

Table = tuple[tuple[int, ...], ...]

DEFAULT_SIZE_BOUND = 64


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group given by its Cayley table; ``op[a][b]`` multiplies a by b.

    Equality and hashing look at the table alone, so two groups compare
    equal exactly when they have identical element indexing.
    """

    op: Table
    inverse: tuple[int, ...] = field(compare=False)
    element_names: tuple[str, ...] | None = field(default=None, compare=False)

    @property
    def order(self) -> int:
        return len(self.op)

    @property
    def identity(self) -> int:
        return 0

    def elements(self) -> range:
        return range(len(self.op))

    def mul(self, a: int, b: int) -> int:
        return self.op[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def conj(self, g: int, a: int) -> int:
        """g + a - g."""
        return self.op[self.op[g][a]][self.inverse[g]]

    def name(self, a: int) -> str:
        if self.element_names is None:
            return str(a)
        return self.element_names[a]

    def is_abelian(self) -> bool:
        return all(
            self.op[a][b] == self.op[b][a]
            for a in self.elements()
            for b in self.elements()
        )

    @cached_property
    def generators(self) -> tuple[int, ...]:
        """A generating set grown greedily by index, computed once.

        The validators check over it, so it is never empty: the trivial
        group gets (0,), and a check over it still tests the identity.
        """
        op = self.op
        return tuple(_greedy_generators(self.elements(), (0,), lambda a, s: op[a][s])) or (0,)

    def element_order(self, a: int) -> int:
        x, k = a, 1
        while x != 0:
            x = self.op[x][a]
            k += 1
        return k

    def __repr__(self) -> str:
        return f"FiniteGroup(order={self.order})"


def _first_failure(fails, proof_cells, cells):
    """The first of ``cells``, in order, at which ``fails`` holds, or None.

    ``proof_cells`` lie among ``cells``, and their passing proves the axiom
    on all of ``cells``: each caller's docstring gives the induction step.
    So ``cells`` are scanned only after a proof cell fails, and a rejected
    table reports the same first witness as an exhaustive scan.
    """
    if not any(itertools.starmap(fails, proof_cells)):
        return None
    return next(cell for cell in cells if fails(*cell))


def _first_row_failure(sides, proof_cells, cells):
    """``_first_failure`` for a law compared a row at a time.

    ``sides(*cell)`` gives both sides of the law as sequences over its last
    variable; the failing cell is returned with the first index at which
    they differ appended.
    """
    failing = _first_failure(lambda *cell: operator.ne(*sides(*cell)), proof_cells, cells)
    if failing is None:
        return None
    left, right = sides(*failing)
    return (*failing, next(i for i, (u, v) in enumerate(zip(left, right)) if u != v))


def make_group(table, names=None) -> FiniteGroup:
    """Validate a raw Cayley table and return the canonical group.

    The table must be square with entries in range. Associativity is
    proven by Light's test: (x.s).y = x.(s.y) for all x, y and every s of
    a set S that generates the table as a magma, picked greedily without
    assuming any axiom: every element is a product ((s1.s2).s3)... of
    elements of S. Induction step: if s and t pass, (x.(s.t)).y =
    ((x.s).t).y = (x.s).(t.y) = x.(s.(t.y)) = x.((s.t).y), so s.t passes,
    and the passing elements contain every product of elements of S.
    Then a two-sided identity and two-sided inverses are checked.
    If the identity is not at index 0 the elements are relabeled by the
    transposition swapping it with 0.
    """
    rows = [tuple(map(int, row)) for row in table]
    n = len(rows)
    if n == 0:
        raise MalformedTable("empty Cayley table")
    for i, row in enumerate(rows):
        if len(row) != n:
            raise MalformedTable(f"row {i} has length {len(row)}, expected {n}", witness=i)
        if min(row) < 0 or max(row) >= n:
            j, v = next((j, v) for j, v in enumerate(row) if not 0 <= v < n)
            raise MalformedTable(f"entry op({i},{j}) = {v} out of range 0..{n - 1}", witness=(i, j))
    if names is not None:
        names = tuple(str(x) for x in names)
        if len(names) != n:
            raise MalformedTable(f"{len(names)} element names for {n} elements")

    # the magma generators: 0 comes last, as it is usually a product
    magma_gens = _greedy_generators((*range(1, n), 0), (), lambda a, s: rows[a][s])

    def sides(a, b):
        """Both sides of the associative law over c: (a.b).c and a.(b.c)."""
        return rows[rows[a][b]], tuple(map(rows[a].__getitem__, rows[b]))

    failing = _first_row_failure(
        sides,
        ((x, s) for s in magma_gens for x in range(n)),
        itertools.product(range(n), repeat=2),
    )
    if failing is not None:
        a, b, c = failing
        raise NotAssociative(f"op(op({a},{b}),{c}) != op({a},op({b},{c}))", witness=failing)

    columns = tuple(zip(*rows))
    plain = tuple(range(n))
    e = next((x for x in range(n) if rows[x] == plain and columns[x] == plain), None)
    if e is None:
        raise NoIdentity("table has no two-sided identity")

    # in a finite monoid a one-sided inverse is two-sided and unique, so
    # the first b with a.b = e is the only candidate
    inverse = []
    for a in range(n):
        b = rows[a].index(e) if e in rows[a] else None
        if b is None or rows[b][a] != e:
            raise NoInverse(f"element {a} has no two-sided inverse", witness=a)
        inverse.append(b)

    if e != 0:
        # canonical relabeling: swap labels 0 and e
        s = list(range(n))
        s[0], s[e] = e, 0
        rows = [tuple(map(s.__getitem__, map(rows[s[i]].__getitem__, s))) for i in range(n)]
        inverse = [s[inverse[s[i]]] for i in range(n)]
        if names is not None:
            names = tuple(names[s[i]] for i in range(n))

    return FiniteGroup(op=tuple(rows), inverse=tuple(inverse), element_names=names)


@dataclass(frozen=True)
class GroupHom:
    """A group homomorphism stored as the table of element images."""

    source: FiniteGroup
    target: FiniteGroup
    images: tuple[int, ...]

    def __call__(self, a: int) -> int:
        return self.images[a]

    def __repr__(self) -> str:
        return f"GroupHom({self.source.order}->{self.target.order}, {list(self.images)})"


def _hom_failure(images, source: FiniteGroup, target: FiniteGroup):
    """First (x, y), in order, with f(x+y) != f(x) + f(y), or None.

    The identity is checked for every x and every y in
    ``source.generators``. Induction step: if s and t pass, f(x+s+t) =
    f(x+s) + f(t) = f(x) + f(s) + f(t) = f(x) + f(s+t), so s+t passes, and
    the passing elements form a subgroup containing the generators.
    """
    sop, top = source.op, target.op
    return _first_failure(
        lambda x, y: images[sop[x][y]] != top[images[x]][images[y]],
        ((x, s) for s in source.generators for x in source.elements()),
        itertools.product(source.elements(), repeat=2),
    )


def make_hom(source: FiniteGroup, target: FiniteGroup, images) -> GroupHom:
    """Validate that ``images`` defines a homomorphism from source to target,
    from the generators of source (see ``_hom_failure``)."""
    images = tuple(map(int, images))
    if len(images) != source.order:
        raise MalformedTable(
            f"{len(images)} images for a source of order {source.order}"
        )
    for a, v in enumerate(images):
        if not 0 <= v < target.order:
            raise MalformedTable(f"image of {a} is {v}, out of range", witness=a)
    failing = _hom_failure(images, source, target)
    if failing is not None:
        x, y = failing
        raise NotHomomorphism(f"map({x}+{y}) != map({x})+map({y})", witness=failing)
    return GroupHom(source=source, target=target, images=images)


def identity_hom(group: FiniteGroup) -> GroupHom:
    return GroupHom(group, group, tuple(group.elements()))


def zero_hom(source: FiniteGroup, target: FiniteGroup) -> GroupHom:
    return GroupHom(source, target, (0,) * source.order)


def compose(outer: GroupHom, inner: GroupHom) -> GroupHom:
    """outer after inner."""
    if inner.target != outer.source:
        raise CodomainMismatch("inner codomain does not match outer domain")
    return GroupHom(
        inner.source, outer.target, tuple(outer.images[v] for v in inner.images)
    )


def is_injective(h: GroupHom) -> bool:
    return len(set(h.images)) == h.source.order


def is_surjective(h: GroupHom) -> bool:
    return len(set(h.images)) == h.target.order


def is_bijective(h: GroupHom) -> bool:
    return is_injective(h) and is_surjective(h)


@dataclass(frozen=True)
class Subgroup:
    """A subgroup of ``parent`` given by its sorted element index set."""

    parent: FiniteGroup
    elements: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, a: int) -> bool:
        return a in self.elements


def make_subgroup(parent: FiniteGroup, elements) -> Subgroup:
    """Validate closure, identity and inverses for a candidate element set."""
    elems = tuple(sorted(set(int(v) for v in elements)))
    if not elems:
        raise NotASubgroup("a subgroup cannot be empty")
    for v in elems:
        if not 0 <= v < parent.order:
            raise NotASubgroup(f"element {v} out of range", witness=v)
    if 0 not in elems:
        raise NotASubgroup("candidate does not contain the identity")
    member = set(elems)
    for a in elems:
        if parent.inverse[a] not in member:
            raise NotASubgroup(f"inverse of {a} missing", witness=a)
        for b in elems:
            if parent.op[a][b] not in member:
                raise NotASubgroup(f"not closed at ({a},{b})", witness=(a, b))
    return Subgroup(parent=parent, elements=elems)


def kernel(h: GroupHom) -> Subgroup:
    return make_subgroup(h.source, (a for a in h.source.elements() if h.images[a] == 0))


def image(h: GroupHom) -> Subgroup:
    return make_subgroup(h.target, set(h.images))


def center(group: FiniteGroup) -> Subgroup:
    """The elements commuting with every element, found from ``group.generators``.

    Induction step: if a commutes with s and t, a.(s.t) = s.a.t = (s.t).a,
    so a commutes with every product of generators, that is with all of G.
    """
    op = group.op
    elems = [
        a for a in group.elements() if all(op[a][s] == op[s][a] for s in group.generators)
    ]
    return make_subgroup(group, elems)


def is_normal(sub: Subgroup, group: FiniteGroup) -> bool:
    """Whether s.N.s^-1 lies in N for each s in ``group.generators``, which
    proves N normal; ``sub`` must be a subgroup of ``group``.

    Induction step: if s.N.s^-1 and t.N.t^-1 lie in N, then
    (s.t).N.(s.t)^-1 = s.(t.N.t^-1).s^-1 lies in s.N.s^-1, so in N, and
    every element of G is a product of generators.
    """
    if sub.parent != group:
        raise NotASubgroup("subgroup belongs to a different parent group")
    member = set(sub.elements)
    return all(
        group.conj(s, a) in member for s in group.generators for a in sub.elements
    )


def quotient(group: FiniteGroup, normal: Subgroup) -> tuple[FiniteGroup, GroupHom]:
    """Coset group of ``group`` by ``normal`` plus the canonical projection.

    Coset representatives are the minimal element index in each coset, so
    reconstructed quotients are reproducible across runs.
    """
    if not is_normal(normal, group):
        raise NotNormal("subgroup is not normal in the parent group")
    coset_rep: dict[int, int] = {}
    for g in group.elements():
        if g in coset_rep:
            continue
        members = sorted(group.op[g][n] for n in normal.elements)
        rep = members[0]
        for m in members:
            coset_rep[m] = rep
    reps = sorted(set(coset_rep.values()))
    pos = {rep: i for i, rep in enumerate(reps)}
    table = [
        [pos[coset_rep[group.op[a][b]]] for b in reps]
        for a in reps
    ]
    names = tuple(f"[{group.name(rep)}]" for rep in reps)
    quot = make_group(table, names=names)
    proj = make_hom(group, quot, tuple(pos[coset_rep[g]] for g in group.elements()))
    return quot, proj


def pullback_group(
    p: GroupHom, q: GroupHom
) -> tuple[FiniteGroup, GroupHom, GroupHom]:
    """Fiber product {(x, y) : p(x) = q(y)} with its two projections."""
    if p.target != q.target:
        raise CodomainMismatch("pullback requires a common codomain")
    pairs = [
        (x, y)
        for x in p.source.elements()
        for y in q.source.elements()
        if p.images[x] == q.images[y]
    ]
    pos = {pair: i for i, pair in enumerate(pairs)}
    table = [
        [
            pos[(p.source.op[x1][x2], q.source.op[y1][y2])]
            for (x2, y2) in pairs
        ]
        for (x1, y1) in pairs
    ]
    names = tuple(f"({p.source.name(x)},{q.source.name(y)})" for x, y in pairs)
    grp = make_group(table, names=names)
    pi1 = make_hom(grp, p.source, tuple(x for x, _ in pairs))
    pi2 = make_hom(grp, q.source, tuple(y for _, y in pairs))
    return grp, pi1, pi2


def _span(known: set, frontier, gens, add) -> set:
    """Grow ``known`` by everything reached from ``frontier`` by adding
    elements of ``gens`` on the right, and return it. From {0} in a finite
    group this is the subgroup ``gens`` generate; nothing else about
    ``add`` is assumed."""
    while frontier:
        fresh = []
        for a in frontier:
            for s in gens:
                c = add(a, s)
                if c not in known:
                    known.add(c)
                    fresh.append(c)
        frontier = fresh
    return known


def _greedy_generators(elements, seed, add) -> list:
    """Elements picked in the order of ``elements``: each one not yet
    reached from ``seed`` and the earlier picks, adding picks on the right,
    is picked."""
    gens: list = []
    known = set(seed)
    for x in elements:
        if x not in known:
            gens.append(x)
            # a path leaving the old span first steps along x
            fresh = ({x} | {add(a, x) for a in known}) - known
            known |= fresh
            _span(known, fresh, gens, add)
    return gens


def closure(group: FiniteGroup, seed) -> frozenset[int]:
    """Smallest subgroup of ``group`` containing ``seed``."""
    op = group.op
    return frozenset(_span({0}, [0], sorted(set(seed)), lambda a, s: op[a][s]))


def subgroups(group: FiniteGroup, *, size_bound: int = DEFAULT_SIZE_BOUND) -> list[Subgroup]:
    """All subgroups, sorted by order and then by element set.

    Works by growing closures: every subgroup is reachable from the
    trivial one by repeatedly adjoining a missing element and closing.
    """
    if group.order > size_bound:
        raise SizeBound(
            f"subgroup enumeration bounded at order {size_bound}, group has {group.order}"
        )
    trivial = frozenset({0})
    found = {trivial}
    queue = [trivial]
    while queue:
        current = queue.pop()
        for g in range(1, group.order):
            if g in current:
                continue
            grown = closure(group, current | {g})
            if grown not in found:
                found.add(grown)
                queue.append(grown)
    ordered = sorted((tuple(sorted(s)) for s in found), key=lambda t: (len(t), t))
    return [Subgroup(parent=group, elements=elems) for elems in ordered]


def subgroup_as_group(sub: Subgroup) -> tuple[FiniteGroup, tuple[int, ...]]:
    """Materialize a subgroup as its own group plus the embedding index map."""
    embed = tuple(sub.elements)
    pos = {v: i for i, v in enumerate(embed)}
    parent = sub.parent
    table = [[pos[parent.op[a][b]] for b in embed] for a in embed]
    names = tuple(parent.name(v) for v in embed)
    return make_group(table, names=names), embed


def generating_sequence(group: FiniteGroup) -> list[int]:
    """A small deterministic generating set, grown greedily by index; it is
    ``group.generators`` without the 0 that stands in for the trivial group."""
    return [g for g in group.generators if g != 0]


def _evaluation_schedule(
    group: FiniteGroup, gens: list[int]
) -> list[tuple[int, int, int]]:
    """Triples (product, element, gen index) covering the group from ``gens``."""
    schedule: list[tuple[int, int, int]] = []
    seen = {0}
    frontier = [0]
    while frontier:
        fresh = []
        for e in frontier:
            for k, g in enumerate(gens):
                p = group.op[e][g]
                if p not in seen:
                    seen.add(p)
                    schedule.append((p, e, k))
                    fresh.append(p)
        frontier = fresh
    return schedule


def _closing_images(
    source: FiniteGroup, target: FiniteGroup, act: Table, g: int, candidates
) -> list[int]:
    """The candidates c for f(g) with which f returns to 0 along the powers of g.

    Forcing f(g^(i+1)) = f(g^i) + g^i.c from f(0) = 0 must give f(g^m) = 0
    at the order m of g, since g^m = 0; every f with f(x+y) = f(x) + x.f(y)
    does, so the others need not be searched. With identity rows this is
    c^m = 0, the order test ``enumerate_homs`` makes.
    """
    sop, top = source.op, target.op

    def closes(c):
        x, v = 0, 0
        while True:
            v = top[v][act[x][c]]
            x = sop[x][g]
            if x == 0:
                return v == 0

    return [c for c in candidates if closes(c)]


def _crossed_hom_search(
    source: FiniteGroup,
    target: FiniteGroup,
    act: Table,
    gens: list[int],
    candidates: list[list[int]],
) -> list[tuple[int, ...]]:
    """Every f: source -> target with f(x+y) = f(x) + x.f(y), sorted.

    ``act[x]`` is the row of x acting on target: identity rows give
    homomorphisms, the rows of an action give derivations (crossed
    homomorphisms). Each choice of images for ``gens`` (the generating
    sequence of source) from ``candidates`` forces f along the evaluation
    schedule, f(e+g) = f(e) + e.f(g), and is kept when the identity holds
    for every x and every y in ``source.generators``. Induction step: if s
    and t pass, f(x+s+t) = f(x+s) + (x+s).f(t) = f(x) + x.f(s) + x.(s.f(t))
    = f(x) + x.f(s+t), so s+t passes, and the passing elements form a
    subgroup containing the generators.
    """
    schedule = _evaluation_schedule(source, gens)
    sop, top = source.op, target.op
    n = source.order
    found = []
    for cand in itertools.product(*candidates):
        f = [0] * n
        for p, e, k in schedule:
            f[p] = top[f[e]][act[e][cand[k]]]
        if all(
            f[sop[x][s]] == top[f[x]][act[x][f[s]]]
            for s in source.generators
            for x in range(n)
        ):
            found.append(tuple(f))
    found.sort()
    return found


def enumerate_homs(
    source: FiniteGroup,
    target: FiniteGroup,
    *,
    size_bound: int = 10**6,
) -> list[GroupHom]:
    """All homomorphisms source -> target, sorted by image table.

    A generator of order m may only map to an element whose order divides
    m; the generator-schedule search runs over those images with the
    trivial action.
    """
    gens = generating_sequence(source)
    allowed = []
    for g in gens:
        g_order = source.element_order(g)
        allowed.append(
            [t for t in target.elements() if g_order % target.element_order(t) == 0]
        )
    if prod(len(a) for a in allowed) > size_bound:
        raise SizeBound("hom enumeration search space exceeds the configured bound")
    identity_rows = (tuple(target.elements()),) * source.order
    return [
        GroupHom(source, target, images)
        for images in _crossed_hom_search(source, target, identity_rows, gens, allowed)
    ]


@dataclass(frozen=True)
class GroupAction:
    """An action of ``actor`` on ``space`` by automorphisms; rows index the actor."""

    actor: FiniteGroup
    space: FiniteGroup
    table: Table

    def act(self, b: int, a: int) -> int:
        return self.table[b][a]


def make_action(actor: FiniteGroup, space: FiniteGroup, table) -> GroupAction:
    """Validate the automorphism action axioms from generating sets.

    b.(s+a) = b.s + b.a is checked for s in ``space.generators`` and
    (b+s).a = b.(s.a) for s in ``actor.generators``, for all b and a.
    Induction steps: if s and t pass the first, b.(s+t+a) = b.s + b.(t+a)
    = b.s + b.t + b.a = b.(s+t) + b.a; if they pass the second,
    (b+s+t).a = (b+s).(t.a) = b.(s.(t.a)) = b.((s+t).a). Either way s+t
    passes, and the passing elements form a subgroup containing the
    generators.
    """
    rows = tuple(tuple(map(int, row)) for row in table)
    if len(rows) != actor.order or any(len(r) != space.order for r in rows):
        raise MalformedTable("action table shape does not match actor x space")
    if any(min(row) < 0 or max(row) >= space.order for row in rows):
        raise MalformedTable("action table entry out of range")
    aop, sop = actor.op, space.op

    def additive(b, a):
        """Both sides of b.(a+a') = b.a + b.a' over a'."""
        row = rows[b]
        return tuple(map(row.__getitem__, sop[a])), tuple(map(sop[row[a]].__getitem__, row))

    failing = _first_row_failure(
        additive,
        ((b, s) for s in space.generators for b in actor.elements()),
        itertools.product(actor.elements(), space.elements()),
    )
    if failing is not None:
        b, a, a2 = failing
        raise ActionAxiomViolation(
            f"b*(a+a') fails at (b,a,a') = ({b},{a},{a2})", witness=failing
        )

    def composite(b, b2):
        """Both sides of (b+b').a = b.(b'.a) over a."""
        return rows[aop[b][b2]], tuple(map(rows[b].__getitem__, rows[b2]))

    failing = _first_row_failure(
        composite,
        ((b, s) for s in actor.generators for b in actor.elements()),
        itertools.product(actor.elements(), repeat=2),
    )
    if failing is not None:
        b, b2, a = failing
        raise ActionAxiomViolation(
            f"(b+b')*a fails at (b,b',a) = ({b},{b2},{a})", witness=failing
        )
    for a in space.elements():
        if rows[0][a] != a:
            raise ActionAxiomViolation(f"0*a fails at a = {a}", witness=a)
    return GroupAction(actor=actor, space=space, table=rows)


def trivial_action(actor: FiniteGroup, space: FiniteGroup) -> GroupAction:
    row = tuple(space.elements())
    return GroupAction(actor=actor, space=space, table=(row,) * actor.order)


def conjugation_action(group: FiniteGroup) -> GroupAction:
    table = tuple(
        tuple(group.conj(g, a) for a in group.elements()) for g in group.elements()
    )
    return GroupAction(actor=group, space=group, table=table)


def automorphism_group(
    group: FiniteGroup, *, size_bound: int = DEFAULT_SIZE_BOUND
) -> tuple[FiniteGroup, GroupAction]:
    """Aut(G) as a group of permutation tables, with its natural action on G.

    Automorphisms are ordered lexicographically by image table, which puts
    the identity automorphism at index 0. The group operation composes
    with the right factor applied first, so the natural action satisfies
    the usual left action axioms.
    """
    if group.order > size_bound:
        raise SizeBound(
            f"automorphism enumeration bounded at order {size_bound}, group has {group.order}"
        )
    gens = generating_sequence(group)
    n = group.order
    by_order: dict[int, list[int]] = {}
    for x in group.elements():
        by_order.setdefault(group.element_order(x), []).append(x)
    allowed = [by_order[group.element_order(g)] for g in gens]
    identity_rows = (tuple(group.elements()),) * n
    perms = [
        images
        for images in _crossed_hom_search(group, group, identity_rows, gens, allowed)
        if len(set(images)) == n
    ]
    pos = {perm: i for i, perm in enumerate(perms)}
    table = [
        [pos[tuple(f[g[x]] for x in range(n))] for g in perms]
        for f in perms
    ]
    aut = make_group(table, names=tuple(f"a{i}" for i in range(len(perms))))
    action = make_action(aut, group, perms)
    return aut, action
