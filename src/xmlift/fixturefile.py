"""Line oriented fixture files declaring named algebraic objects.

Grammar (one declaration per line, '#' starts a comment):

    name : kind = payload

with the payload depending on the kind:

    group       catalog <keyword> | table <row> ; <row> ... [names <n> ...]
    hom         <group> -> <group> : <image> ...
    action      <group> on <group> : trivial | rows <row> ; <row> ...
    xmod        <group> <group> <hom> <action>
    lifting     <xmod> : <group> <hom> <hom>
    morphism    <xmod> -> <xmod> : <hom> <hom>
    derivation  <xmod> : <value> ... | lifting <lifting> : <value> ...
    homotopy    <morphism> => <morphism> : <value> ...
    ggd         <group> <group> <hom> <hom> <hom>
    ggmor       <ggd> -> <ggd> : <hom> <hom>
    ggaction    <ggd> on <group> via <hom> : <row> ; <row> ...

Rows are whitespace separated integer cells; ggaction rows accept '-' for
undefined entries. References resolve against earlier declarations only,
which keeps every document acyclic. Derivations may be declared over a
named crossed module or over the induced crossed module of a named
lifting.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .catalog import catalog_group
from .derivations import Derivation, make_derivation
from .errors import (
    FixtureSyntaxError,
    UnresolvedReference,
    ValidationError,
    XmliftError,
)
from .groupoid import (
    GGAction,
    GroupGroupoid,
    GroupGroupoidMorphism,
    group_groupoid_from_structure,
    make_gg_action,
    make_gg_morphism,
)
from .groups import (
    FiniteGroup,
    GroupAction,
    GroupHom,
    make_action,
    make_group,
    make_hom,
    trivial_action,
)
from .homotopy import Homotopy, make_homotopy
from .lifting import Lifting, make_lifting
from .xmod import CrossedModule, XModMorphism, make_crossed_module, make_morphism

KINDS = (
    "group",
    "hom",
    "action",
    "xmod",
    "lifting",
    "morphism",
    "derivation",
    "homotopy",
    "ggd",
    "ggmor",
    "ggaction",
)

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_\-]*")


@dataclass(frozen=True)
class Declaration:
    name: str
    kind: str
    line: int
    obj: object


@dataclass(frozen=True)
class FixtureDocument:
    declarations: tuple[Declaration, ...]

    def get(self, kind: str, name: str, *, line: int | None = None):
        for decl in self.declarations:
            if decl.name == name:
                if decl.kind != kind:
                    raise UnresolvedReference(
                        f"'{name}' is a {decl.kind}, expected a {kind}", line=line
                    )
                return decl.obj
        raise UnresolvedReference(f"undeclared {kind} '{name}'", line=line)

    def names(self, kind: str) -> list[str]:
        return [d.name for d in self.declarations if d.kind == kind]


def _is_int(token: str) -> bool:
    try:
        int(token)
    except ValueError:
        return False
    return True


class _Parser:
    def __init__(self):
        self.declarations: list[Declaration] = []
        self.by_name: dict[str, Declaration] = {}

    # -- reference resolution -------------------------------------------------

    def resolve(self, kind: str, name: str, line: int):
        decl = self.by_name.get(name)
        if decl is None:
            raise UnresolvedReference(f"undeclared reference '{name}'", line=line)
        if decl.kind != kind:
            raise UnresolvedReference(
                f"'{name}' is a {decl.kind}, expected a {kind}", line=line
            )
        return decl.obj

    # -- small payload helpers -------------------------------------------------

    @staticmethod
    def ints(tokens: list[str], line: int) -> list[int]:
        try:
            return list(map(int, tokens))
        except ValueError:
            bad = next(tok for tok in tokens if not _is_int(tok))
            raise FixtureSyntaxError(f"expected an integer, got '{bad}'", line=line)

    @staticmethod
    def rows(text: str, line: int, *, allow_dash: bool = False) -> list[list[int]]:
        """Integer rows split at ';'; with ``allow_dash`` a '-' cell reads as -1.

        Each row is converted in one pass; only a row that fails it is
        walked cell by cell, for the dashes or the first bad cell.
        """
        rows = []
        for chunk in text.split(";"):
            cells = chunk.split()
            if not cells:
                raise FixtureSyntaxError("empty table row", line=line)
            try:
                row = list(map(int, cells))
            except ValueError:
                row = []
                for tok in cells:
                    if allow_dash and tok == "-":
                        row.append(-1)
                    elif _is_int(tok):
                        row.append(int(tok))
                    else:
                        raise FixtureSyntaxError(
                            f"expected an integer cell, got '{tok}'", line=line
                        )
            rows.append(row)
        return rows

    # -- payload parsers, one per declaration kind -------------------------------

    def parse_group(self, payload: str, line: int) -> FiniteGroup:
        tokens = payload.split()
        if not tokens:
            raise FixtureSyntaxError("empty group payload", line=line)
        if tokens[0] == "catalog":
            if len(tokens) != 2:
                raise FixtureSyntaxError("catalog payload needs one keyword", line=line)
            return catalog_group(tokens[1])
        if tokens[0] == "table":
            rest = payload[len("table"):].strip()
            names = None
            if " names " in f" {rest} ":
                table_part, _, names_part = rest.partition("names")
                names = names_part.split()
                rest = table_part.strip()
            return make_group(self.rows(rest, line), names=names)
        raise FixtureSyntaxError(
            f"group payload must start with 'catalog' or 'table', got '{tokens[0]}'",
            line=line,
        )

    def parse_hom(self, payload: str, line: int) -> GroupHom:
        m = re.fullmatch(r"(\S+)\s*->\s*(\S+)\s*:\s*(.*)", payload.strip())
        if not m:
            raise FixtureSyntaxError("hom payload must be 'SRC -> TGT : images'", line=line)
        source = self.resolve("group", m.group(1), line)
        target = self.resolve("group", m.group(2), line)
        images = self.ints(m.group(3).split(), line)
        return make_hom(source, target, images)

    def parse_action(self, payload: str, line: int) -> GroupAction:
        m = re.fullmatch(r"(\S+)\s+on\s+(\S+)\s*:\s*(.*)", payload.strip())
        if not m:
            raise FixtureSyntaxError(
                "action payload must be 'ACTOR on SPACE : trivial|rows ...'", line=line
            )
        actor = self.resolve("group", m.group(1), line)
        space = self.resolve("group", m.group(2), line)
        body = m.group(3).strip()
        if body == "trivial":
            return trivial_action(actor, space)
        if body.startswith("rows"):
            return make_action(actor, space, self.rows(body[len("rows"):].strip(), line))
        raise FixtureSyntaxError("action body must be 'trivial' or 'rows ...'", line=line)

    def parse_xmod(self, payload: str, line: int) -> CrossedModule:
        tokens = payload.split()
        if len(tokens) != 4:
            raise FixtureSyntaxError("xmod payload must be 'A B BOUNDARY ACTION'", line=line)
        A = self.resolve("group", tokens[0], line)
        B = self.resolve("group", tokens[1], line)
        boundary = self.resolve("hom", tokens[2], line)
        action = self.resolve("action", tokens[3], line)
        return make_crossed_module(A, B, boundary, action)

    def parse_lifting(self, payload: str, line: int) -> Lifting:
        m = re.fullmatch(r"(\S+)\s*:\s*(\S+)\s+(\S+)\s+(\S+)", payload.strip())
        if not m:
            raise FixtureSyntaxError("lifting payload must be 'XMOD : X PHI OMEGA'", line=line)
        base = self.resolve("xmod", m.group(1), line)
        X = self.resolve("group", m.group(2), line)
        phi = self.resolve("hom", m.group(3), line)
        omega = self.resolve("hom", m.group(4), line)
        return make_lifting(base, X, phi, omega)

    def parse_morphism(self, payload: str, line: int) -> XModMorphism:
        m = re.fullmatch(r"(\S+)\s*->\s*(\S+)\s*:\s*(\S+)\s+(\S+)", payload.strip())
        if not m:
            raise FixtureSyntaxError(
                "morphism payload must be 'SRC -> TGT : F1 F2'", line=line
            )
        source = self.resolve("xmod", m.group(1), line)
        target = self.resolve("xmod", m.group(2), line)
        f1 = self.resolve("hom", m.group(3), line)
        f2 = self.resolve("hom", m.group(4), line)
        return make_morphism(source, target, f1, f2)

    def parse_derivation(self, payload: str, line: int) -> Derivation:
        m = re.fullmatch(r"(lifting\s+)?(\S+)\s*:\s*(.*)", payload.strip())
        if not m:
            raise FixtureSyntaxError(
                "derivation payload must be '[lifting] NAME : values'", line=line
            )
        values = self.ints(m.group(3).split(), line)
        if m.group(1):
            lift: Lifting = self.resolve("lifting", m.group(2), line)
            return make_derivation(lift.induced, values)
        xm = self.resolve("xmod", m.group(2), line)
        return make_derivation(xm, values)

    def parse_homotopy(self, payload: str, line: int) -> Homotopy:
        m = re.fullmatch(r"(\S+)\s*=>\s*(\S+)\s*:\s*(.*)", payload.strip())
        if not m:
            raise FixtureSyntaxError(
                "homotopy payload must be 'FROM => TO : values'", line=line
            )
        source = self.resolve("morphism", m.group(1), line)
        target = self.resolve("morphism", m.group(2), line)
        values = self.ints(m.group(3).split(), line)
        return make_homotopy(values, source, target)

    def parse_ggd(self, payload: str, line: int) -> GroupGroupoid:
        tokens = payload.split()
        if len(tokens) != 5:
            raise FixtureSyntaxError(
                "ggd payload must be 'OBGROUP MORGROUP D0 D1 IDENT'", line=line
            )
        ob = self.resolve("group", tokens[0], line)
        mor = self.resolve("group", tokens[1], line)
        d0 = self.resolve("hom", tokens[2], line)
        d1 = self.resolve("hom", tokens[3], line)
        ident = self.resolve("hom", tokens[4], line)
        return group_groupoid_from_structure(ob, mor, d0, d1, ident)

    def parse_ggmor(self, payload: str, line: int) -> GroupGroupoidMorphism:
        m = re.fullmatch(r"(\S+)\s*->\s*(\S+)\s*:\s*(\S+)\s+(\S+)", payload.strip())
        if not m:
            raise FixtureSyntaxError("ggmor payload must be 'SRC -> TGT : F1 F0'", line=line)
        source = self.resolve("ggd", m.group(1), line)
        target = self.resolve("ggd", m.group(2), line)
        f1 = self.resolve("hom", m.group(3), line)
        f0 = self.resolve("hom", m.group(4), line)
        return make_gg_morphism(source, target, f1, f0)

    def parse_ggaction(self, payload: str, line: int) -> GGAction:
        m = re.fullmatch(
            r"(\S+)\s+on\s+(\S+)\s+via\s+(\S+)\s*:\s*(.*)", payload.strip()
        )
        if not m:
            raise FixtureSyntaxError(
                "ggaction payload must be 'GGD on X via OMEGA : rows'", line=line
            )
        gg = self.resolve("ggd", m.group(1), line)
        X = self.resolve("group", m.group(2), line)
        omega = self.resolve("hom", m.group(3), line)
        rows = self.rows(m.group(4), line, allow_dash=True)
        return make_gg_action(gg, X, omega, rows)

    # -- driver --------------------------------------------------------------

    def feed(self, name: str, kind: str, payload: str, line: int) -> None:
        if name in self.by_name:
            raise FixtureSyntaxError(f"duplicate declaration name '{name}'", line=line)
        parser = getattr(self, f"parse_{kind}")
        try:
            obj = parser(payload, line)
        except (FixtureSyntaxError, UnresolvedReference):
            raise
        except XmliftError as err:
            raise ValidationError(
                f"declaration '{name}' is invalid: {err}", line=line, inner=err
            ) from err
        except ValueError as err:
            raise ValidationError(
                f"declaration '{name}' is invalid: {err}", line=line, inner=err
            ) from err
        decl = Declaration(name=name, kind=kind, line=line, obj=obj)
        self.declarations.append(decl)
        self.by_name[name] = decl


def parse_fixture(text: str) -> FixtureDocument:
    """Parse and validate a fixture document; the first error wins."""
    parser = _Parser()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = re.fullmatch(r"(\S+)\s*:\s*([a-z]+)\s*=\s*(.*)", line)
        if not m:
            raise FixtureSyntaxError(
                "declaration must look like 'name : kind = payload'", line=lineno
            )
        name, kind, payload = m.group(1), m.group(2), m.group(3)
        if not _NAME_RE.fullmatch(name):
            raise FixtureSyntaxError(f"invalid declaration name '{name}'", line=lineno)
        if kind not in KINDS:
            raise FixtureSyntaxError(f"unknown declaration kind '{kind}'", line=lineno)
        parser.feed(name, kind, payload, lineno)
    return FixtureDocument(declarations=tuple(parser.declarations))
