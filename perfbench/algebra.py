"""Finite group tables and brute-force oracles, written independently of xmlift.

Everything here works on plain Cayley tables (lists of rows over element
indices 0..n-1, identity at index 0).  The benchmark builds its inputs from
these tables and computes every expected answer with the scans below, so a
defect in xmlift cannot hide by agreeing with itself.
"""

from __future__ import annotations

import itertools
from math import gcd

Table = list[list[int]]


# -- group constructions ------------------------------------------------------


def cyclic(n: int) -> Table:
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def product(t1: Table, t2: Table) -> Table:
    """Direct product; the pair (i, j) has index i * |t2| + j."""
    n2 = len(t2)
    n = len(t1) * n2
    return [
        [t1[x // n2][y // n2] * n2 + t2[x % n2][y % n2] for y in range(n)]
        for x in range(n)
    ]


def perm_group(perms: list[tuple[int, ...]]) -> Table:
    """Table of a permutation group, composing with the right factor first."""
    pos = {p: i for i, p in enumerate(perms)}
    return [[pos[tuple(p[q[x]] for x in range(len(p)))] for q in perms] for p in perms]


def symmetric(k: int) -> Table:
    return perm_group(sorted(itertools.permutations(range(k))))


def dihedral(n: int) -> Table:
    """Symmetries of the n-gon; r^i s^j has index i + n * j."""

    def mul(x: int, y: int) -> int:
        i, j, k, l = x % n, x // n, y % n, y // n
        if j == 0:
            return (i + k) % n + n * l
        return (i - k) % n + n * (1 - l)

    return [[mul(x, y) for y in range(2 * n)] for x in range(2 * n)]


def quaternion() -> Table:
    """Q8 as unit quaternions (sign, axis) with axis 0..3 = 1, i, j, k."""
    # axis products: (sign, axis) of e_p * e_q
    rule = {
        (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
        (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
        (2, 0): (1, 2), (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
        (3, 0): (1, 3), (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0),
    }
    elems = [(s, a) for a in range(4) for s in (1, -1)]
    pos = {e: i for i, e in enumerate(elems)}

    def mul(x, y):
        s, a = rule[(x[1], y[1])]
        return pos[(x[0] * y[0] * s, a)]

    return [[mul(x, y) for y in elems] for x in elems]


def relabel(table: Table, perm: list[int]) -> Table:
    """The same group with element i renamed perm[i]; perm must fix 0."""
    n = len(table)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[perm[i]][perm[j]] = perm[table[i][j]]
    return out


def random_relabeling(n: int, rng) -> list[int]:
    rest = list(range(1, n))
    rng.shuffle(rest)
    return [0] + rest


# -- elementary facts ---------------------------------------------------------


def inverses(t: Table) -> list[int]:
    return [row.index(0) for row in t]


def element_order(t: Table, a: int) -> int:
    x, k = a, 1
    while x != 0:
        x = t[x][a]
        k += 1
    return k


def is_abelian(t: Table) -> bool:
    n = len(t)
    return all(t[a][b] == t[b][a] for a in range(n) for b in range(a + 1, n))


def conj(t: Table, inv: list[int], g: int, a: int) -> int:
    """g + a - g."""
    return t[t[g][a]][inv[g]]


def closure(t: Table, seed) -> frozenset[int]:
    known = {0, *seed}
    todo = list(known)
    while todo:
        a = todo.pop()
        for b in list(known):
            for c in (t[a][b], t[b][a]):
                if c not in known:
                    known.add(c)
                    todo.append(c)
    return frozenset(known)


def generators(t: Table) -> list[int]:
    gens: list[int] = []
    known: frozenset[int] = frozenset({0})
    for g in range(1, len(t)):
        if g not in known:
            gens.append(g)
            known = closure(t, gens)
    return gens


def subgroups(t: Table, within=None) -> list[tuple[int, ...]]:
    """All subgroups (of the subgroup ``within``), sorted by order then elements."""
    pool = sorted(within) if within is not None else list(range(len(t)))
    found = {frozenset({0})}
    todo = [frozenset({0})]
    while todo:
        cur = todo.pop()
        for g in pool:
            if g not in cur:
                grown = closure(t, cur | {g})
                if grown not in found:
                    found.add(grown)
                    todo.append(grown)
    return sorted((tuple(sorted(s)) for s in found), key=lambda s: (len(s), s))


def totient(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


# -- violation finders: None when the axiom holds, else a witness ---------------


def group_violation(t: Table):
    """A reason ``t`` is not a group table with identity 0, or None."""
    n = len(t)
    for i, row in enumerate(t):
        if len(row) != n or sorted(row) != list(range(n)):
            return ("row", i)
    for j in range(n):
        if sorted(t[i][j] for i in range(n)) != list(range(n)):
            return ("column", j)
    if any(t[0][y] != y for y in range(n)):
        return ("identity", 0)
    for a in range(n):
        for b in range(n):
            ab = t[a][b]
            for c in range(n):
                if t[ab][c] != t[a][t[b][c]]:
                    return ("assoc", a, b, c)
    return None


def hom_violation(src: Table, tgt: Table, images) -> tuple[int, int] | None:
    n = len(src)
    for x in range(n):
        for y in range(n):
            if images[src[x][y]] != tgt[images[x]][images[y]]:
                return (x, y)
    return None


def action_violation(actor: Table, space: Table, rows) -> tuple | None:
    """Check that b |-> rows[b] is a homomorphism actor -> Aut(space)."""
    for b, row in enumerate(rows):
        if hom_violation(space, space, row) is not None or sorted(row) != list(range(len(space))):
            return ("automorphism", b)
    for b in range(len(actor)):
        for b2 in range(len(actor)):
            for a in range(len(space)):
                if rows[actor[b][b2]][a] != rows[b][rows[b2][a]]:
                    return ("compat", b, b2, a)
    if any(rows[0][a] != a for a in range(len(space))):
        return ("unit", 0)
    return None


def crossed_module_violation(A: Table, B: Table, bd, rows) -> tuple | None:
    """CM1 and CM2 for boundary ``bd`` and action ``rows`` of B on A."""
    invA, invB = inverses(A), inverses(B)
    for b in range(len(B)):
        for a in range(len(A)):
            if bd[rows[b][a]] != conj(B, invB, b, bd[a]):
                return ("CM1", b, a)
    for a in range(len(A)):
        for a1 in range(len(A)):
            if rows[bd[a]][a1] != conj(A, invA, a, a1):
                return ("CM2", a, a1)
    return None


# -- enumerations ------------------------------------------------------------------


def _schedule(t: Table, gens: list[int]) -> list[tuple[int, int, int]]:
    """(product, element, generator index) triples reaching every element once."""
    out, seen, frontier = [], {0}, [0]
    while frontier:
        fresh = []
        for e in frontier:
            for k, g in enumerate(gens):
                p = t[e][g]
                if p not in seen:
                    seen.add(p)
                    out.append((p, e, k))
                    fresh.append(p)
        frontier = fresh
    return out


def homs(src: Table, tgt: Table) -> list[tuple[int, ...]]:
    """All homomorphisms src -> tgt as image tuples, sorted."""
    gens = generators(src)
    sched = _schedule(src, gens)
    choices = [
        [y for y in range(len(tgt)) if element_order(src, g) % element_order(tgt, y) == 0]
        for g in gens
    ]
    out = []
    for cand in itertools.product(*choices):
        images = [0] * len(src)
        for p, e, k in sched:
            images[p] = tgt[images[e]][cand[k]]
        if hom_violation(src, tgt, images) is None:
            out.append(tuple(images))
    return sorted(out)


def automorphisms(t: Table) -> list[tuple[int, ...]]:
    n = len(t)
    return [h for h in homs(t, t) if len(set(h)) == n]


def aut_group(t: Table) -> tuple[Table, list[tuple[int, ...]]]:
    """Aut(G) as a table over its sorted automorphisms, plus the automorphisms.

    Index 0 is the identity (the smallest image tuple); f * g applies g
    first, so row f of the natural action is the tuple f itself.
    """
    auts = automorphisms(t)
    pos = {f: i for i, f in enumerate(auts)}
    n = len(t)
    table = [[pos[tuple(f[g[x]] for x in range(n))] for g in auts] for f in auts]
    return table, auts


def derivations(A: Table, B: Table, rows) -> list[tuple[int, ...]]:
    """All maps d: B -> A with d(b + b1) = d(b) + b.d(b1), sorted.

    A derivation is fixed by its values on generators of B; each candidate
    is extended along a spanning schedule and then checked on all pairs.
    """
    gens = generators(B)
    sched = _schedule(B, gens)
    nB = len(B)
    out = []
    for cand in itertools.product(range(len(A)), repeat=len(gens)):
        d = [0] * nB
        for p, e, k in sched:
            d[p] = A[d[e]][rows[e][cand[k]]]
        if all(
            d[B[b][b1]] == A[d[b]][rows[b][d[b1]]] for b in range(nB) for b1 in range(nB)
        ):
            out.append(tuple(d))
    return sorted(out)
