"""Finite groups as Cayley tables over element indices 0..n-1.

Conventions used throughout the package:

* the identity always sits at index 0 (construction relabels if needed),
* all tables are immutable tuples, safe to share between threads,
* enumerations return canonically ordered, deterministic results,
* validation scans run in lexicographic element order and report the
  first violating witness.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
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

    def element_order(self, a: int) -> int:
        x, k = a, 1
        while x != 0:
            x = self.op[x][a]
            k += 1
        return k

    def __repr__(self) -> str:
        return f"FiniteGroup(order={self.order})"


def make_group(table, names=None) -> FiniteGroup:
    """Validate a raw Cayley table and return the canonical group.

    The table must be square with entries in range; associativity, a
    two-sided identity and two-sided inverses are checked exhaustively.
    If the identity is not at index 0 the elements are relabeled by the
    transposition swapping it with 0.
    """
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
        row_a = rows[a]
        for b in range(n):
            ab = row_a[b]
            row_b = rows[b]
            for c in range(n):
                if rows[ab][c] != row_a[row_b[c]]:
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
        # canonical relabeling: swap labels 0 and e
        s = list(range(n))
        s[0], s[e] = e, 0
        rows = [[s[rows[s[i]][s[j]]] for j in range(n)] for i in range(n)]
        inverse = [s[inverse[s[i]]] for i in range(n)]
        if names is not None:
            names = tuple(names[s[i]] for i in range(n))

    return FiniteGroup(
        op=tuple(tuple(row) for row in rows),
        inverse=tuple(inverse),
        element_names=names,
    )


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


def make_hom(source: FiniteGroup, target: FiniteGroup, images) -> GroupHom:
    """Validate that ``images`` defines a homomorphism from source to target."""
    images = tuple(int(v) for v in images)
    if len(images) != source.order:
        raise MalformedTable(
            f"{len(images)} images for a source of order {source.order}"
        )
    for a, v in enumerate(images):
        if not 0 <= v < target.order:
            raise MalformedTable(f"image of {a} is {v}, out of range", witness=a)
    for x in source.elements():
        for y in source.elements():
            if images[source.op[x][y]] != target.op[images[x]][images[y]]:
                raise NotHomomorphism(
                    f"map({x}+{y}) != map({x})+map({y})", witness=(x, y)
                )
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
    elems = [
        a
        for a in group.elements()
        if all(group.op[a][b] == group.op[b][a] for b in group.elements())
    ]
    return make_subgroup(group, elems)


def is_normal(sub: Subgroup, group: FiniteGroup) -> bool:
    """Exhaustive conjugation scan; ``sub`` must be a subgroup of ``group``."""
    if sub.parent != group:
        raise NotASubgroup("subgroup belongs to a different parent group")
    member = set(sub.elements)
    return all(
        group.conj(g, a) in member for g in group.elements() for a in sub.elements
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


def closure(group: FiniteGroup, seed) -> frozenset[int]:
    """Smallest subgroup of ``group`` containing ``seed``."""
    known = {0} | set(seed)
    frontier = list(known)
    while frontier:
        fresh = []
        for a in frontier:
            for b in list(known):
                for c in (group.op[a][b], group.op[b][a]):
                    if c not in known:
                        known.add(c)
                        fresh.append(c)
        frontier = fresh
    return frozenset(known)


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
    """A small deterministic generating set, grown greedily by index."""
    gens: list[int] = []
    known: frozenset[int] = frozenset({0})
    for g in range(1, group.order):
        if g not in known:
            gens.append(g)
            known = closure(group, gens)
    return gens


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
    on all pairs.
    """
    schedule = _evaluation_schedule(source, gens)
    sop, top = source.op, target.op
    n = source.order
    found = []
    for cand in itertools.product(*candidates):
        f = [0] * n
        for p, e, k in schedule:
            f[p] = top[f[e]][act[e][cand[k]]]
        for x in range(n):
            row, ax, tx = sop[x], act[x], top[f[x]]
            if any(f[row[y]] != tx[ax[f[y]]] for y in range(n)):
                break
        else:
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
    """Validate the automorphism action axioms exhaustively."""
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
                        f"b*(a+a') fails at (b,a,a') = ({b},{a},{a2})",
                        witness=(b, a, a2),
                    )
    for b in actor.elements():
        for b2 in actor.elements():
            for a in space.elements():
                if rows[actor.op[b][b2]][a] != rows[b][rows[b2][a]]:
                    raise ActionAxiomViolation(
                        f"(b+b')*a fails at (b,b',a) = ({b},{b2},{a})",
                        witness=(b, b2, a),
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
