"""The ``construct`` workload: building and validating large inline tables.

A round holds one document per entry of ``ROUND`` plus one corrupted copy
of a rotating family.  Every document gets all queries of its family, so
most queries re-parse a document an earlier query already read.  Expected
answers come from the benchmark's own scans over the relabeled tables.
"""

from __future__ import annotations

from . import algebra as alg
from .docs import flag, parse_report
from .model import Model
from .query import Query

# -- document families (built in canonical labels, relabeled per instance) ------


def cyclic_doc(n: int, m: int, k: int, sa: int, sb: int) -> Model:
    """(Z_n, Z_m, mod m, trivial) with a lifting through Z_k, two morphisms
    from (Z_n, Z_n, id, trivial), a homotopy between them, and a split
    projection Z_sa x Z_sb -> Z_sb."""
    u1, u2 = 1, 3
    md = Model()
    md.add("A", "group", data=alg.cyclic(n))
    md.add("B", "group", data=alg.cyclic(m))
    md.add("al", "hom", ("A", "B"), [a % m for a in range(n)])
    md.add("tr", "action", ("B", "A"))
    md.add("xm", "xmod", ("A", "B", "al", "tr"))
    md.add("X", "group", data=alg.cyclic(k))
    md.add("phi", "hom", ("A", "X"), [a % k for a in range(n)])
    md.add("om", "hom", ("X", "B"), [x % m for x in range(k)])
    md.add("L", "lifting", ("xm", "X", "phi", "om"))
    md.add("idA", "hom", ("A", "A"), list(range(n)))
    md.add("trA", "action", ("A", "A"))
    md.add("sx", "xmod", ("A", "A", "idA", "trA"))
    for i, u in ((1, u1), (2, u2)):
        md.add(f"f{i}", "hom", ("A", "A"), [u * a % n for a in range(n)])
        md.add(f"g{i}", "hom", ("A", "B"), [u * a % m for a in range(n)])
        md.add(f"m{i}", "morphism", ("sx", "xm", f"f{i}", f"g{i}"))
    md.add("h", "homotopy", ("m1", "m2"), [(u1 - u2) * b % n for b in range(n)])
    md.add("idB", "hom", ("B", "B"), list(range(m)))
    md.add("idm", "morphism", ("xm", "xm", "idA", "idB"))
    md.add("V", "group", data=alg.product(alg.cyclic(sa), alg.cyclic(sb)))
    md.add("C", "group", data=alg.cyclic(sb))
    md.add("pr", "hom", ("V", "C"), [v % sb for v in range(sa * sb)])
    return md


CYCLIC_QUERIES = (
    ["check"], ["classify", "xm"], ["liftings", "xm"], ["lift-morphism", "m1", "L"],
    ["pullback", "idm", "L"], ["homotopy-lift", "h", "L"], ["sections", "pr"],
)


def perm_doc(g: alg.Table, sign: list[int]) -> Model:
    """The kernel N of ``sign``: G -> Z2 as (N, G, inc, conj), plus (G, G, id, conj)."""
    n = len(g)
    inv = alg.inverses(g)
    embed = [x for x in range(n) if sign[x] == 0]
    pos = {v: i for i, v in enumerate(embed)}
    md = Model()
    md.add("G", "group", data=g)
    md.add("N", "group", data=[[pos[g[a][b]] for b in embed] for a in embed])
    md.add("inc", "hom", ("N", "G"), embed)
    md.add("cj", "action", ("G", "N"), [[pos[alg.conj(g, inv, x, a)] for a in embed] for x in range(n)])
    md.add("xm", "xmod", ("N", "G", "inc", "cj"))
    md.add("idG", "hom", ("G", "G"), list(range(n)))
    md.add("cg", "action", ("G", "G"), [[alg.conj(g, inv, x, a) for a in range(n)] for x in range(n)])
    md.add("ig", "xmod", ("G", "G", "idG", "cg"))
    md.add("Z2", "group", data=alg.cyclic(2))
    md.add("sg", "hom", ("G", "Z2"), sign)
    return md


PERM_QUERIES = (
    ["check"], ["classify", "xm"], ["liftings", "xm"], ["classify", "ig"],
    ["liftings", "ig"], ["sections", "sg"],
)


def gg_doc(k: int, j: int) -> Model:
    """The pair group-groupoid of Z_k acting on Z_k, the one-object
    group-groupoid of Z_k acting by translation, the covering (x, y) |-> y - x
    between them, and the inclusion of the one-object group-groupoid of Z_j."""
    md = Model()
    md.add("O", "group", data=alg.cyclic(k))
    md.add("M", "group", data=alg.product(alg.cyclic(k), alg.cyclic(k)))
    md.add("d0", "hom", ("M", "O"), [i // k for i in range(k * k)])
    md.add("d1", "hom", ("M", "O"), [i % k for i in range(k * k)])
    md.add("di", "hom", ("O", "M"), [x * k + x for x in range(k)])
    md.add("PG", "ggd", ("O", "M", "d0", "d1", "di"))
    md.add("idO", "hom", ("O", "O"), list(range(k)))
    md.add("pa", "ggaction", ("PG", "O", "idO"),
           [[g % k if g // k == x else None for x in range(k)] for g in range(k * k)])
    md.add("T", "group", data=[[0]])
    for name, order in (("C", k), ("D", j)):
        md.add(name, "group", data=alg.cyclic(order))
        md.add(f"{name}T", "hom", (name, "T"), [0] * order)
        md.add(f"T{name}", "hom", ("T", name), [0])
        md.add(f"G{name}", "ggd", ("T", name, f"{name}T", f"{name}T", f"T{name}"))
    md.add("tra", "ggaction", ("GC", "C", "CT"), [[(g + x) % k for x in range(k)] for g in range(k)])
    md.add("df", "hom", ("M", "C"), [(i % k - i // k) % k for i in range(k * k)])
    md.add("OT", "hom", ("O", "T"), [0] * k)
    md.add("pm", "ggmor", ("PG", "GC", "df", "OT"))
    md.add("inc", "hom", ("D", "C"), [(k // j) * x % k for x in range(j)])
    md.add("iT", "hom", ("T", "T"), [0])
    md.add("incl", "ggmor", ("GD", "GC", "inc", "iT"))
    return md


GG_QUERIES = (
    ["check"], ["action-groupoid", "pa"], ["action-groupoid", "tra"],
    ["covering-check", "pm"], ["covering-check", "incl"],
    ["pullback-action", "pm", "tra"], ["pullback-action", "incl", "tra"],
)


def _sign_s4_x_z2() -> tuple[alg.Table, list[int]]:
    s4 = alg.symmetric(4)
    sign = [h for h in alg.homs(s4, alg.cyclic(2)) if any(h)][0]
    return alg.product(s4, alg.cyclic(2)), [sign[i // 2] for i in range(48)]


def _family(spec):
    kind, *args = spec
    if kind == "cyclic":
        return cyclic_doc(*args), CYCLIC_QUERIES
    if kind == "perm":
        if args[0] == "S4xZ2":
            return perm_doc(*_sign_s4_x_z2()), PERM_QUERIES
        n = args[0]  # dihedral D_n, sign = reflection count
        return perm_doc(alg.dihedral(n), [x // n for x in range(2 * n)]), PERM_QUERIES
    return gg_doc(*args), GG_QUERIES


# One round: the accepted documents.  Sizes are chosen so that the
# crossed-module and group-groupoid sides take comparable wall time.
ROUND = (
    ("cyclic", 128, 4, 32, 8, 4),
    ("cyclic", 64, 8, 16, 6, 6),
    ("cyclic", 48, 6, 12, 4, 2),
    ("perm", "S4xZ2"),
    ("perm", 12),
    ("gg", 7, 1),
    ("gg", 7, 7),
    ("gg", 6, 3),
)
# Every round also holds one corrupted document per family, built from these
# specs; the corrupted kind rotates with the round index.
REJECT = (("cyclic", 64, 8, 16, 6, 6), ("perm", 12), ("gg", 6, 2))
KINDS = {"cyclic": ("table", "hom", "xmod"), "perm": ("action", "xmod", "hom", "table"),
         "gg": ("ggaction", "table", "hom")}
SMALL = (("cyclic", 8, 2, 4, 2, 2), ("perm", 4), ("gg", 3, 1))


def make_round(rng, prefix: str, small: bool = False, index: int = 0):
    docs: dict[str, str] = {}
    queries: list[Query] = []
    for i, spec in enumerate(SMALL if small else ROUND):
        md, qargs = _family(spec)
        md = md.relabeled(rng)
        doc_id = f"{prefix}-{i}"
        docs[doc_id] = md.text()
        for args in qargs:
            queries.append(Query(doc_id, list(args), _AcceptCheck(md, args), label=f"{args[0]} {spec[0]}"))
    for spec in SMALL if small else REJECT:
        kinds = KINDS[spec[0]]
        kind = kinds[index % len(kinds)]
        md, qargs = _family(spec)
        md = md.relabeled(rng)
        name, code = corrupt(md, kind, rng)
        doc_id = f"{prefix}-bad-{spec[0]}"
        docs[doc_id] = md.text()
        check = _RejectCheck(code, md.line(name), name)
        for args in qargs:
            queries.append(Query(doc_id, list(args), check, label=f"reject {spec[0]} {kind}", reject=True))
    rng.shuffle(queries)
    return docs, queries


# -- corruption ----------------------------------------------------------------------


def corrupt(md: Model, kind: str, rng) -> tuple[str, int]:
    """Break one entry of ``kind``; returns the failing declaration and exit code.

    The entry is the last eligible declaration of its kind, so a reject
    costs about a full parse; the broken cell is random.  Each corruption
    is confirmed invalid by the benchmark's own scans.
    """
    if kind == "table":
        name = [d.name for d in md.decls if d.kind == "group" and len(d.data) > 2][-1]
        t = md[name].data
        while True:
            i, j = rng.randrange(len(t)), rng.randrange(len(t))
            new = [list(r) for r in t]
            new[i][j] = (t[i][j] + 1 + rng.randrange(len(t) - 1)) % len(t)
            if alg.group_violation(new) is not None:
                md[name].data = new
                return name, 10
    if kind == "hom":
        d = [d for d in md.decls if d.kind == "hom" and md.order(d.refs[1]) > 1][-1]
        while True:
            src, tgt = md.table(d.refs[0]), md.table(d.refs[1])
            new = list(d.data)
            a = rng.randrange(len(new))
            new[a] = (new[a] + 1 + rng.randrange(len(tgt) - 1)) % len(tgt)
            if alg.hom_violation(src, tgt, new) is not None:
                d.data = new
                return d.name, 11
    if kind == "action":
        d = [d for d in md.decls if d.kind == "action" and d.data is not None][-1]
        actor, space = md.table(d.refs[0]), md.table(d.refs[1])
        while True:
            new = [list(r) for r in d.data]
            b, a = rng.randrange(len(actor)), rng.randrange(len(space))
            new[b][a] = (new[b][a] + 1 + rng.randrange(len(space) - 1)) % len(space)
            if alg.action_violation(actor, space, new) is not None:
                d.data = new
                return d.name, 13
    if kind == "xmod":
        # swap in an action that is valid on its own but breaks CM1 or CM2
        xm = md["xm"]
        ac = md[xm.refs[3]]
        A, B = md.table(xm.refs[0]), md.table(xm.refs[1])
        if ac.data is None:  # trivial: B = Z_m (m even) acts on Z_n by (-1)^b
            invA = alg.inverses(A)
            parity = alg.homs(B, alg.cyclic(2))[-1]
            ac.data = [[invA[a] if parity[b] else a for a in range(len(A))] for b in range(len(B))]
        else:
            ac.data = None
        rows = md.rows(ac.name)
        if alg.action_violation(B, A, rows) is not None:
            raise AssertionError("replacement action is not an action")
        if alg.crossed_module_violation(A, B, md.images(xm.refs[2]), rows) is None:
            raise AssertionError("replacement action does not break the crossed module")
        return "xm", 14
    if kind == "ggaction":
        d = [d for d in md.decls if d.kind == "ggaction"][-1]
        mor, X = md.table(md[d.refs[0]].refs[1]), md.table(d.refs[1])
        cells = [(g, x) for g, row in enumerate(d.data) for x, v in enumerate(row) if v is not None]
        while True:
            g, x = rng.choice(cells)
            new = [list(r) for r in d.data]
            new[g][x] = (new[g][x] + 1 + rng.randrange(len(X) - 1)) % len(X)
            if gg_interchange_violation(mor, X, new) is not None:
                d.data = new
                return d.name, 20
    raise ValueError(kind)


def gg_interchange_violation(mor, X, rows):
    """(g + g2).(x + x2) = g.x + g2.x2 over all defined cells, or a witness."""
    cells = [(g, x, v) for g, row in enumerate(rows) for x, v in enumerate(row) if v is not None]
    for g, x, v in cells:
        for g2, x2, v2 in cells:
            if rows[mor[g][g2]][X[x][x2]] != X[v][v2]:
                return (g, x, g2, x2)
    return None


class _RejectCheck:
    def __init__(self, code: int, line: int, name: str):
        self.code, self.prefix = code, f"line {line}: declaration '{name}' is invalid"

    def __call__(self, code: int, text: str) -> str | None:
        if code != self.code:
            return f"exit code {code}, expected {self.code}"
        rep = parse_report(text)
        if rep.get("status") != "error" or rep.get("error.category") != "ValidationError":
            return "not reported as a validation error"
        if not str(rep.get("error.message", "")).startswith(self.prefix):
            return f"error does not name the corrupted line: {rep.get('error.message')!r}"
        return None


# -- expected answers ----------------------------------------------------------------


class _AcceptCheck:
    def __init__(self, md: Model, args):
        self.md, self.args = md, args

    def __call__(self, code: int, text: str) -> str | None:
        if code != 0:
            return f"exit code {code}"
        rep = parse_report(text)
        want = expected(self.md, self.args)
        for key, value in want.items():
            if rep.get(key) != value:
                return f"{key}: got {rep.get(key)!r}, expected {value!r}"
        # A lifted morphism is unique, but xmlift skips the search on large
        # inputs; a report may say so, never that the lift is not unique.
        if self.args[0] == "lift-morphism" and rep.get("unique") == "false":
            return "lifted morphism reported not unique"
        return None


def expected(md: Model, args) -> dict[str, object]:
    """Report items the command must print, computed from the model alone."""
    command, names = args[0], args[1:]
    out: dict[str, object] = {"command": command}
    if command == "check":
        out["declarations"] = str(len(md.decls))
        for i, d in enumerate(md.decls):
            out[f"decl.{i}.name"] = d.name
            out[f"decl.{i}.kind"] = d.kind
            out[f"decl.{i}.summary"] = _summary(md, d)
            if d.kind == "xmod":
                out[f"decl.{i}.structure"] = "all-true"
                out[f"decl.{i}.class"] = _class(*md.xmod(d.name)[:3])
            out[f"decl.{i}.status"] = "ok"
        out["status"] = "ok"
    elif command == "classify":
        A, B, bd, _ = md.xmod(names[0])
        out.update({
            "class": _class(A, B, bd),
            "boundary.surjective": flag(len(set(bd)) == len(B)),
            "boundary.injective": flag(len(set(bd)) == len(A)),
            "boundary.zero": flag(not any(bd)),
            "A.abelian": flag(alg.is_abelian(A)),
        })
    elif command == "liftings":
        out.update(_liftings(md, names[0]))
    elif command in ("lift-morphism", "homotopy-lift"):
        phi = md.images(md[names[1]].refs[2])
        # the morphisms start at (Z_n, Z_n, id, trivial), so g~(b) = phi(f1(b))
        if command == "lift-morphism":
            f1 = md.images(md[names[0]].refs[2])
            out["gtilde"] = _arr(phi[a] for a in f1)
        else:
            h = md[names[0]]
            for i, m in enumerate(h.refs, 1):
                out[f"gtilde{i}"] = _arr(phi[a] for a in md.images(md[m].refs[2]))
            out["values"] = _arr(h.data)
            out.update({f"upstairs.h{i}": "ok" for i in (1, 2, 3)})
    elif command == "pullback":
        out.update(_pullback(md, *names))
    elif command == "sections":
        src, tgt = md[names[0]].refs
        pr = md.images(names[0])
        secs = [s for s in alg.homs(md.table(tgt), md.table(src)) if all(pr[s[c]] == c for c in range(len(s)))]
        out["count"] = str(len(secs))
        out.update({f"section.{i}": _arr(s) for i, s in enumerate(secs)})
    elif command == "action-groupoid":
        d = md[names[0]]
        cells = [(g, x) for g, row in enumerate(d.data) for x, v in enumerate(row) if v is not None]
        out.update({
            "objects": str(md.order(d.refs[1])),
            "morphisms": str(len(cells)),
            "pairs": [f"({g},{x})" for g, x in cells],
            "projection.covering": "true",
        })
    elif command == "covering-check":
        out.update(_covering(md, names[0]))
    elif command == "pullback-action":
        out.update(_pullback_action(md, *names))
    return out


def _arr(values) -> str:
    return ",".join(str(v) for v in values)


def _class(A, B, bd) -> str:
    img = len(set(bd))
    if img == len(A) == len(B):
        return "1-transitive"
    if img == len(A):
        return "simply-transitive"
    if img == len(B):
        return "transitive"
    if not any(bd) and alg.is_abelian(A):
        return "totally-intransitive"
    return "none"


def _summary(md: Model, d) -> str:
    o = md.order
    if d.kind == "group":
        return f"order {len(d.data)}"
    if d.kind == "hom":
        return f"{o(d.refs[0])} -> {o(d.refs[1])}"
    if d.kind == "action":
        return f"{o(d.refs[0])} on {o(d.refs[1])}"
    if d.kind == "xmod":
        return f"|A|={o(d.refs[0])} |B|={o(d.refs[1])}"
    if d.kind == "lifting":
        a, b = md[d.refs[0]].refs[:2]
        return f"|A|={o(a)} |X|={o(d.refs[1])} |B|={o(b)}"
    if d.kind == "morphism":
        (sa, sb), (ta, tb) = md[d.refs[0]].refs[:2], md[d.refs[1]].refs[:2]
        return f"(|A|={o(sa)},|B|={o(sb)}) -> (|A|={o(ta)},|B|={o(tb)})"
    if d.kind == "homotopy":
        return f"values over |B~|={len(d.data)}"
    if d.kind == "ggd":
        return f"objects {o(d.refs[0])}, morphisms {o(d.refs[1])}"
    if d.kind == "ggmor":
        return f"morphisms {o(md[d.refs[0]].refs[1])} -> {o(md[d.refs[1]].refs[1])}"
    if d.kind == "ggaction":
        return f"on group of order {o(d.refs[1])}"
    raise ValueError(d.kind)


def _liftings(md: Model, xm: str) -> dict[str, object]:
    """One quotient lifting per subgroup C of ker alpha, labelled as xmlift
    documents: each coset is represented by its minimal element."""
    A, B, bd, _ = md.xmod(xm)
    ker = [a for a in range(len(A)) if bd[a] == 0]
    subs = alg.subgroups(A, within=ker)
    out: dict[str, object] = {
        "kernel.order": str(len(ker)),
        "kernel.elements": _arr(ker),
        "count": str(len(subs)),
    }
    for i, sub in enumerate(subs):
        rep = [min(A[a][c] for c in sub) for a in range(len(A))]
        reps = sorted(set(rep))
        pos = {r: j for j, r in enumerate(reps)}
        out.update({
            f"lifting.{i}.kernel": _arr(sub),
            f"lifting.{i}.X.order": str(len(reps)),
            f"lifting.{i}.ker_omega.order": str(len(ker) // len(sub)),
            f"lifting.{i}.phi": _arr(pos[r] for r in rep),
            f"lifting.{i}.omega": _arr(bd[r] for r in reps),
            f"lifting.{i}.triangle": f"A[{len(A)}] -phi-> X[{len(reps)}] -omega-> B[{len(B)}]",
            f"lifting.{i}.triangle.commutes": "true",
        })
    return out


def _pullback(md: Model, morphism: str, lifting: str) -> dict[str, object]:
    src, _, f1, f2 = md[morphism].refs
    _, X, phi, om = md[lifting].refs
    bd_src = md.images(md[src].refs[2])
    omega, g = md.images(om), md.images(f2)
    pairs = [(x, y) for x in range(md.order(X)) for y in range(len(g)) if omega[x] == g[y]]
    pos = {p: i for i, p in enumerate(pairs)}
    phi_i, f1_i = md.images(phi), md.images(f1)
    return {
        "pullback.order": str(len(pairs)),
        "pullback.pairs": [f"({x},{y})" for x, y in pairs],
        "psi": _arr(pos[(phi_i[f1_i[a]], bd_src[a])] for a in range(len(f1_i))),
        "pi2": _arr(y for _, y in pairs),
        "pi1": _arr(x for x, _ in pairs),
        "lifting.valid": "true",
        "morphism_f_pi1.valid": "true",
    }


def _groupoid(md: Model, ggd: str):
    """(source map, target map, object count) of a group-groupoid."""
    ob, _, d0, d1, _ = md[ggd].refs
    return md.images(d0), md.images(d1), md.order(ob)


def _covering(md: Model, ggmor: str) -> dict[str, object]:
    s, t, f1, f0 = md[ggmor].refs
    src_d0, _, n_obj = _groupoid(md, s)
    tgt_d0, _, _ = _groupoid(md, t)
    f1_i, f0_i = md.images(f1), md.images(f0)
    out: dict[str, object] = {}
    witness = None
    for x in range(n_obj):
        up = [g for g in range(len(src_d0)) if src_d0[g] == x]
        down = [g for g in range(len(tgt_d0)) if tgt_d0[g] == f0_i[x]]
        images = [f1_i[g] for g in up]
        if witness is None and (len(set(images)) != len(images) or sorted(images) != down):
            witness = x
        out[f"star.{x}"] = f"{len(up)} -> {len(down)}"
    out["covering"] = flag(witness is None)
    if witness is not None:
        out["witness"] = str(witness)
    return out


def _pullback_action(md: Model, ggmor: str, action: str) -> dict[str, object]:
    s, _, f1, f0 = md[ggmor].refs
    _, X, om = md[action].refs
    act = md[action].data
    d0, d1, n_obj = _groupoid(md, s)
    omega, f0_i, f1_i = md.images(om), md.images(f0), md.images(f1)
    pairs = [(x, y) for x in range(md.order(X)) for y in range(n_obj) if omega[x] == f0_i[y]]
    pos = {p: i for i, p in enumerate(pairs)}
    rows = [
        ",".join("-" if d0[g] != y else str(pos[(act[f1_i[g]][x], d1[g])]) for x, y in pairs)
        for g in range(len(d0))
    ]
    return {
        "pullback.order": str(len(pairs)),
        "pullback.pairs": [f"({x},{y})" for x, y in pairs],
        "omega": _arr(y for _, y in pairs),
        "act": rows,
        "valid": "true",
    }
