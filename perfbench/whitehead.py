"""The ``whitehead`` workload: derivation and Whitehead-monoid queries.

Every round queries the same multiset of crossed-module shapes, each under
a fresh random relabeling of its groups, so no two queries share an input
while the cost mix stays the same from seed to seed.  Expected answers come
from ``algebra.derivations`` on the relabeled tables, cross-checked against
closed forms: |Der(Z_n, Z_n, id, triv)| = n with phi(n) units, and
|Der(G, G, id, conj)| = |End G| with |Aut G| units.
"""

from __future__ import annotations

from functools import lru_cache

from . import algebra as alg
from .docs import flag, ints, parse_report, table
from .model import Model
from .query import Query

# (shape, group) pairs of one round.  Shapes: "triv" is (Z_n, Z_n, id,
# trivial), "id" is (G, G, id, conj), "aut" is (G, Aut G, iota, natural).
# Repeated shapes form plateaus of near-equal cost where the median and the
# 90th percentile fall (Z16 and Z28), so neither sits on a gap between two
# shapes of very different cost.
ROUND = (
    [("id", "S4"), ("triv", "Z28"), ("triv", "Z28"), ("id", "D6"), ("id", "Z2xZ6")]
    + [("triv", f"Z{n}") for n in (24, 22, 20, 18, 16, 16, 16)]
    + [("id", g) for g in ("D4", "Q8", "Z2xZ4", "D5", "S3")]
    + [("aut", g) for g in ("D5", "Q8", "Z12", "D4", "Z2xZ4", "Z15", "S3")]
)

# Small shapes for warm-up and smoke runs; disjoint from ROUND by order.
SMALL = [("triv", "Z6"), ("id", "Z2xZ2"), ("aut", "Z2xZ2"), ("triv", "Z9")]


@lru_cache(maxsize=None)
def named_group(name: str) -> tuple[tuple[int, ...], ...]:
    if name.startswith("Z") and "x" in name:
        a, b = name[1:].split("xZ")
        t = alg.product(alg.cyclic(int(a)), alg.cyclic(int(b)))
    elif name.startswith("Z"):
        t = alg.cyclic(int(name[1:]))
    elif name.startswith("D"):
        t = alg.dihedral(int(name[1:]))
    elif name.startswith("S"):
        t = alg.symmetric(int(name[1:]))
    elif name == "Q8":
        t = alg.quaternion()
    else:
        raise ValueError(f"unknown group {name!r}")
    return tuple(tuple(r) for r in t)


@lru_cache(maxsize=None)
def closed_form(shape: str, name: str) -> tuple[int, int] | None:
    """(|Der|, |units|) where a closed form exists."""
    g = [list(r) for r in named_group(name)]
    if shape == "triv":
        return len(g), alg.totient(len(g))
    if shape == "id":
        return len(alg.homs(g, g)), len(alg.automorphisms(g))
    return None


def _model(shape: str, name: str) -> Model:
    """The crossed module ``xm`` of a shape, in canonical labels."""
    g = [list(r) for r in named_group(name)]
    n = len(g)
    md = Model()
    md.add("A", "group", data=g)
    if shape == "triv":
        md.add("bd", "hom", ("A", "A"), list(range(n)))
        md.add("ac", "action", ("A", "A"))
        md.add("xm", "xmod", ("A", "A", "bd", "ac"))
        return md
    inv = alg.inverses(g)
    if shape == "id":
        md.add("bd", "hom", ("A", "A"), list(range(n)))
        md.add("ac", "action", ("A", "A"), [[alg.conj(g, inv, x, a) for a in range(n)] for x in range(n)])
        md.add("xm", "xmod", ("A", "A", "bd", "ac"))
        return md
    aut, auts = alg.aut_group(g)
    pos = {f: i for i, f in enumerate(auts)}
    md.add("B", "group", data=aut)
    md.add("bd", "hom", ("A", "B"), [pos[tuple(alg.conj(g, inv, x, a) for a in range(n))] for x in range(n)])
    md.add("ac", "action", ("B", "A"), [list(f) for f in auts])
    md.add("xm", "xmod", ("A", "B", "bd", "ac"))
    return md


def make_query(shape: str, name: str, command: str, rng, doc_id: str) -> tuple[str, Query]:
    md = _model(shape, name).relabeled(rng)
    A, B, bd, rows = md.xmod("xm")
    expected = alg.derivations(A, B, rows)
    units = _units(A, bd, expected)
    form = closed_form(shape, name)
    if form is not None and form != (len(expected), len(units)):
        raise AssertionError(f"oracle disagrees with closed form on {shape} {name}")
    check = _Check(command, A, B, bd, expected, units)
    return md.text(), Query(doc_id, [command, "xm"], check, label=f"{command} {shape} {name}")


def _theta(A, bd, d):
    return [A[d[bd[a]]][a] for a in range(len(A))]


def _sigma(B, bd, d):
    return [B[bd[d[b]]][b] for b in range(len(B))]


def _units(A, bd, ders):
    return [i for i, d in enumerate(ders) if len(set(_theta(A, bd, d))) == len(A)]


class _Check:
    """Compares a derivations/whitehead report with the benchmark's own answer."""

    def __init__(self, command, A, B, bd, ders, units):
        self.command, self.A, self.B, self.bd = command, A, B, bd
        self.ders, self.units = ders, units

    def __call__(self, code: int, text: str) -> str | None:
        if code != 0:
            return f"exit code {code}"
        rep = parse_report(text)
        A, B, bd, ders = self.A, self.B, self.bd, self.ders
        if rep.get("command") != self.command or rep.get("count") != str(len(ders)):
            return "wrong command or derivation count"
        for i, d in enumerate(ders):
            if ints(rep.get(f"derivation.{i}.values")) != list(d):
                return f"derivation {i} differs"
            if self.command == "derivations":
                if rep.get(f"derivation.{i}.regular") != flag(i in self.units):
                    return f"regularity of derivation {i} differs"
            elif (
                ints(rep.get(f"derivation.{i}.theta")) != _theta(A, bd, d)
                or ints(rep.get(f"derivation.{i}.sigma")) != _sigma(B, bd, d)
            ):
                return f"theta or sigma of derivation {i} differs"
        if ints(rep.get("units")) != self.units:
            return "unit set differs"
        pos = {d: i for i, d in enumerate(ders)}
        sigmas = [_sigma(B, bd, d) for d in ders]
        expect = [
            [pos[tuple(A[d1[s2[b]]][d2[b]] for b in range(len(B)))] for d2, s2 in zip(ders, sigmas)]
            for d1 in ders
        ]
        if table(rep.get("product", [])) != expect:
            return "product table differs"
        if self.command == "whitehead":
            if rep.get("whitehead_group.order") != str(len(self.units)):
                return "Whitehead group order differs"
            if any(rep.get(k) != "true" for k in ("zero_is_identity", "associative", "formulas_agree")):
                return "a monoid law is not reported true"
        return None


def make_round(rng, prefix: str, small: bool = False, index: int = 0) -> tuple[dict[str, str], list[Query]]:
    shapes = list(SMALL if small else ROUND)
    rng.shuffle(shapes)
    docs, queries = {}, []
    for i, (shape, name) in enumerate(shapes):
        doc_id = f"{prefix}-{i}"
        command = "derivations" if i % 2 == 0 else "whitehead"
        text, q = make_query(shape, name, command, rng, doc_id)
        docs[doc_id] = text
        queries.append(q)
    return docs, queries
