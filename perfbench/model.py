"""A fixture document as data: declarations the benchmark can relabel,
corrupt, render as text, and compute expected answers from.

Groups are Cayley tables; homs are image lists; actions are row tables
(None for the ``trivial`` keyword); ggactions are row tables with None for
undefined cells; homotopies are value lists.  Everything else refers to
earlier declarations by name.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import algebra as alg
from .docs import rows_text


@dataclass
class Decl:
    name: str
    kind: str
    refs: tuple[str, ...] = ()
    data: object = None


@dataclass
class Model:
    decls: list[Decl] = field(default_factory=list)

    def add(self, name: str, kind: str, refs=(), data=None) -> None:
        self.decls.append(Decl(name, kind, tuple(refs), data))

    def __getitem__(self, name: str) -> Decl:
        for d in self.decls:
            if d.name == name:
                return d
        raise KeyError(name)

    def line(self, name: str) -> int:
        return 1 + [d.name for d in self.decls].index(name)

    # -- resolved views ------------------------------------------------------

    def table(self, group: str):
        return self[group].data

    def order(self, group: str) -> int:
        return len(self[group].data)

    def images(self, hom: str):
        return self[hom].data

    def rows(self, action: str):
        """Action rows, expanding the trivial keyword."""
        d = self[action]
        if d.data is not None:
            return d.data
        n = self.order(d.refs[1])
        return [list(range(n))] * self.order(d.refs[0])

    def xmod(self, name: str):
        """(A, B, boundary images, action rows) of a crossed module."""
        a, b, bd, ac = self[name].refs
        return self.table(a), self.table(b), self.images(bd), self.rows(ac)

    # -- text ----------------------------------------------------------------

    def text(self) -> str:
        return "".join(f"{d.name} : {d.kind} = {_payload(d)}\n" for d in self.decls)

    def relabeled(self, rng) -> "Model":
        """The same document with every group's elements randomly renamed."""
        perms = {
            d.name: alg.random_relabeling(len(d.data), rng)
            for d in self.decls
            if d.kind == "group"
        }
        out = Model()
        for d in self.decls:
            out.add(d.name, d.kind, d.refs, _relabel(self, d, perms))
        return out


def _payload(d: Decl) -> str:
    if d.kind == "group":
        return "table " + rows_text(d.data)
    if d.kind == "hom":
        return f"{d.refs[0]} -> {d.refs[1]} : " + " ".join(map(str, d.data))
    if d.kind == "action":
        body = "trivial" if d.data is None else "rows " + rows_text(d.data)
        return f"{d.refs[0]} on {d.refs[1]} : {body}"
    if d.kind in ("xmod", "ggd"):
        return " ".join(d.refs)
    if d.kind == "lifting":
        return f"{d.refs[0]} : " + " ".join(d.refs[1:])
    if d.kind in ("morphism", "ggmor"):
        return f"{d.refs[0]} -> {d.refs[1]} : {d.refs[2]} {d.refs[3]}"
    if d.kind == "homotopy":
        return f"{d.refs[0]} => {d.refs[1]} : " + " ".join(map(str, d.data))
    if d.kind == "ggaction":
        return f"{d.refs[0]} on {d.refs[1]} via {d.refs[2]} : " + rows_text(d.data)
    raise ValueError(d.kind)


def _relabel(model: Model, d: Decl, perms):
    if d.kind == "group":
        return alg.relabel(d.data, perms[d.name])
    if d.kind == "hom":
        ps, pt = perms[d.refs[0]], perms[d.refs[1]]
        out = [0] * len(d.data)
        for a, v in enumerate(d.data):
            out[ps[a]] = pt[v]
        return out
    if d.kind == "action":
        return None if d.data is None else _relabel_rows(d.data, perms[d.refs[0]], perms[d.refs[1]])
    if d.kind == "homotopy":
        # values run over B of the source crossed module into A of the target
        src_xm, tgt_xm = model[d.refs[0]].refs[:2]
        pb, pa = perms[model[src_xm].refs[1]], perms[model[tgt_xm].refs[0]]
        out = [0] * len(d.data)
        for b, v in enumerate(d.data):
            out[pb[b]] = pa[v]
        return out
    if d.kind == "ggaction":
        mor = model[d.refs[0]].refs[1]
        return _relabel_rows(d.data, perms[mor], perms[d.refs[1]])
    return d.data


def _relabel_rows(rows, p_row, p_col):
    out = [[None] * len(rows[0]) for _ in rows]
    for r, row in enumerate(rows):
        for c, v in enumerate(row):
            out[p_row[r]][p_col[c]] = None if v is None else p_col[v]
    return out
