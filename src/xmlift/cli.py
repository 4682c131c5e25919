"""Command line front end: load a fixture document, run one computation,
emit a deterministic report in human or machine form.

Exit status is 0 on success; every error category has its own nonzero
code (see errors.py). Reports for identical inputs are byte identical
across runs.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import __version__
from .catalog import CATALOG_SUMMARY
from .derivations import (
    enumerate_derivations,
    descend_derivation,
    find_sections,
    is_regular,
    lift_derivation,
)
from .errors import UnknownCommand, UsageError, ValidationError, XmliftError
from .fixturefile import FixtureDocument, parse_fixture
from .groupoid import action_groupoid, is_covering_morphism, pullback_action
from .groups import is_injective, is_surjective, kernel
from .homotopy import homotopy_lift
from .lifting import (
    enumerate_liftings,
    lift_morphism,
    pullback_lifting,
    uniqueness_checked_by_default,
)
from .report import Report, ReportBuilder, render_human, render_machine
from .xmod import classify, verify_structure

COMMANDS = (
    "check",
    "classify",
    "liftings",
    "lift-morphism",
    "pullback",
    "homotopy-check",
    "homotopy-lift",
    "derivations",
    "whitehead",
    "lift-derivation",
    "sections",
    "descend",
    "action-groupoid",
    "covering-check",
    "pullback-action",
)

_ARG_COUNTS = {
    "check": 0,
    "classify": 1,
    "liftings": 1,
    "lift-morphism": 2,
    "pullback": 2,
    "homotopy-check": 1,
    "homotopy-lift": 2,
    "derivations": 1,
    "whitehead": 1,
    "lift-derivation": 2,
    "sections": 1,
    "descend": 3,
    "action-groupoid": 1,
    "covering-check": 1,
    "pullback-action": 2,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A003 - argparse API
        raise UsageError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it as it was."""
    parser = _Parser(prog="xmlift", add_help=True)
    parser.add_argument("--fixture", help="path to a fixture document")
    parser.add_argument(
        "--format", choices=("human", "machine"), default="human", dest="format_"
    )
    parser.add_argument("--size-bound", type=int, default=64)
    parser.add_argument(
        "--seed-catalog", action="store_true", help="list the built-in group catalog"
    )
    parser.add_argument("--version", action="version", version=f"xmlift {__version__}")
    parser.add_argument("command", nargs="?", choices=None)
    parser.add_argument("args", nargs="*")
    return parser


# -- per command report builders ------------------------------------------------


def _summary(kind: str, obj) -> str:
    if kind == "group":
        return f"order {obj.order}"
    if kind == "hom":
        return f"{obj.source.order} -> {obj.target.order}"
    if kind == "action":
        return f"{obj.actor.order} on {obj.space.order}"
    if kind == "xmod":
        return f"|A|={obj.A.order} |B|={obj.B.order}"
    if kind == "lifting":
        return f"|A|={obj.base.A.order} |X|={obj.X.order} |B|={obj.base.B.order}"
    if kind == "morphism":
        return (
            f"(|A|={obj.source.A.order},|B|={obj.source.B.order}) -> "
            f"(|A|={obj.target.A.order},|B|={obj.target.B.order})"
        )
    if kind == "derivation":
        return f"|B|={len(obj.values)} over |A|={obj.xm.A.order}"
    if kind == "homotopy":
        return f"values over |B~|={len(obj.values)}"
    if kind == "ggd":
        return (
            f"objects {obj.object_group.order}, morphisms {obj.morphism_group.order}"
        )
    if kind == "ggmor":
        return (
            f"morphisms {obj.source.morphism_group.order} -> "
            f"{obj.target.morphism_group.order}"
        )
    if kind == "ggaction":
        return f"on group of order {obj.X.order}"
    return ""


def cmd_check(doc: FixtureDocument, args: list[str], size_bound: int) -> Report:
    rb = ReportBuilder("check")
    rb.add("declarations", len(doc.declarations))
    for i, decl in enumerate(doc.declarations):
        rb.add(f"decl.{i}.name", decl.name)
        rb.add(f"decl.{i}.kind", decl.kind)
        rb.add(f"decl.{i}.summary", _summary(decl.kind, decl.obj))
        if decl.kind == "xmod":
            verify_structure(decl.obj)
            rb.add(f"decl.{i}.structure", "all-true")
            rb.add(f"decl.{i}.class", classify(decl.obj).value)
        rb.add(f"decl.{i}.status", "ok")
    rb.add("status", "ok")
    return rb.build()


def cmd_classify(doc: FixtureDocument, args: list[str], size_bound: int) -> Report:
    xm = doc.get("xmod", args[0])
    rb = ReportBuilder("classify")
    rb.add("xmod", args[0])
    rb.add("class", classify(xm).value)
    rb.add("boundary.surjective", is_surjective(xm.boundary))
    rb.add("boundary.injective", is_injective(xm.boundary))
    rb.add("boundary.zero", all(v == 0 for v in xm.boundary.images))
    rb.add("A.abelian", xm.A.is_abelian())
    return rb.build()


def cmd_liftings(doc: FixtureDocument, args: list[str], size_bound: int) -> Report:
    xm = doc.get("xmod", args[0])
    lifts = enumerate_liftings(xm, size_bound=size_bound)
    ker = kernel(xm.boundary)
    rb = ReportBuilder("liftings")
    rb.add("xmod", args[0])
    rb.add("kernel.order", ker.order)
    rb.add_array("kernel.elements", ker.elements)
    rb.add("count", len(lifts))
    for i, lift in enumerate(lifts):
        rb.add_array(f"lifting.{i}.kernel", kernel(lift.phi).elements)
        rb.add(f"lifting.{i}.X.order", lift.X.order)
        rb.add(f"lifting.{i}.ker_omega.order", kernel(lift.omega).order)
        rb.add_array(f"lifting.{i}.phi", lift.phi.images)
        rb.add_array(f"lifting.{i}.omega", lift.omega.images)
        rb.add(
            f"lifting.{i}.triangle",
            f"A[{lift.base.A.order}] -phi-> X[{lift.X.order}] -omega-> B[{lift.base.B.order}]",
        )
        rb.add(f"lifting.{i}.triangle.commutes", True)
    return rb.build()


def cmd_lift_morphism(doc: FixtureDocument, args: list[str], size_bound: int) -> Report:
    m = doc.get("morphism", args[0])
    lift = doc.get("lifting", args[1])
    searched = uniqueness_checked_by_default(m, lift)
    lifted = lift_morphism(m, lift, check_uniqueness=searched)
    rb = ReportBuilder("lift-morphism")
    rb.add("morphism", args[0])
    rb.add("lifting", args[1])
    rb.add("kernel_condition", "holds")
    rb.add_array("gtilde", lifted.f2.images)
    rb.add("omega_gtilde_equals_g", True)
    rb.add("unique", True if searched else "unchecked")
    return rb.build()


def cmd_pullback(doc: FixtureDocument, args: list[str], size_bound: int) -> Report:
    m = doc.get("morphism", args[0])
    lift = doc.get("lifting", args[1])
    pulled, onto = pullback_lifting(m, lift)
    rb = ReportBuilder("pullback")
    rb.add("morphism", args[0])
    rb.add("lifting", args[1])
    rb.add("pullback.order", pulled.X.order)
    rb.add_table(
        "pullback.pairs",
        [pulled.X.name(i) for i in pulled.X.elements()],
    )
    rb.add_array("psi", pulled.phi.images)
    rb.add_array("pi2", pulled.omega.images)
    rb.add_array("pi1", onto.f2.images)
    rb.add("lifting.valid", True)
    rb.add("morphism_f_pi1.valid", True)
    return rb.build()


def _morphism_name(doc: FixtureDocument, morphism) -> str:
    for decl in doc.declarations:
        if decl.kind == "morphism" and decl.obj is morphism:
            return decl.name
    return "?"


def cmd_homotopy_check(doc: FixtureDocument, args: list[str], size_bound: int) -> Report:
    h = doc.get("homotopy", args[0])
    rb = ReportBuilder("homotopy-check")
    rb.add("homotopy", args[0])
    rb.add("from", _morphism_name(doc, h.source))
    rb.add("to", _morphism_name(doc, h.target))
    rb.add_array("values", h.values)
    rb.add("h1", "ok")
    rb.add("h2", "ok")
    rb.add("h3", "ok")
    return rb.build()


def cmd_homotopy_lift(doc: FixtureDocument, args: list[str], size_bound: int) -> Report:
    h = doc.get("homotopy", args[0])
    lift = doc.get("lifting", args[1])
    lifted1 = lift_morphism(h.source, lift)
    lifted2 = lift_morphism(h.target, lift)
    upstairs = homotopy_lift(h, lift, lifted1, lifted2)
    rb = ReportBuilder("homotopy-lift")
    rb.add("homotopy", args[0])
    rb.add("lifting", args[1])
    rb.add_array("gtilde1", lifted1.f2.images)
    rb.add_array("gtilde2", lifted2.f2.images)
    rb.add_array("values", upstairs.values)
    rb.add("upstairs.h1", "ok")
    rb.add("upstairs.h2", "ok")
    rb.add("upstairs.h3", "ok")
    return rb.build()


def cmd_derivations(doc: FixtureDocument, args: list[str], size_bound: int) -> Report:
    xm = doc.get("xmod", args[0])
    semi = enumerate_derivations(xm)
    rb = ReportBuilder("derivations")
    rb.add("xmod", args[0])
    rb.add("count", semi.order)
    for i, d in enumerate(semi.elements):
        rb.add_array(f"derivation.{i}.values", d.values)
        regular, _ = is_regular(d, semi)
        rb.add(f"derivation.{i}.regular", regular)
    rb.add_array("units", semi.unit_indices)
    rb.add_table("product", semi.product_table)
    return rb.build()


def cmd_whitehead(doc: FixtureDocument, args: list[str], size_bound: int) -> Report:
    xm = doc.get("xmod", args[0])
    semi = enumerate_derivations(xm)
    rb = ReportBuilder("whitehead")
    rb.add("xmod", args[0])
    rb.add("count", semi.order)
    for i, d in enumerate(semi.elements):
        rb.add_array(f"derivation.{i}.values", d.values)
        rb.add_array(f"derivation.{i}.theta", d.theta)
        rb.add_array(f"derivation.{i}.sigma", d.sigma)
    rb.add_array("units", semi.unit_indices)
    rb.add("whitehead_group.order", len(semi.unit_indices))
    rb.add_table("product", semi.product_table)
    rb.add("zero_is_identity", True)
    rb.add("associative", True)
    rb.add("formulas_agree", True)
    return rb.build()


def cmd_lift_derivation(doc: FixtureDocument, args: list[str], size_bound: int) -> Report:
    d = doc.get("derivation", args[0])
    lift = doc.get("lifting", args[1])
    lifted = lift_derivation(d, lift)
    rb = ReportBuilder("lift-derivation")
    rb.add("derivation", args[0])
    rb.add("lifting", args[1])
    rb.add_array("dtilde", lifted.values)
    rb.add("theta_preserved", lifted.theta == d.theta)
    rb.add("sigma_intertwines", True)
    rb.add("regular.base", is_regular(d)[0])
    rb.add("regular.lift", is_regular(lifted)[0])
    return rb.build()


def cmd_sections(doc: FixtureDocument, args: list[str], size_bound: int) -> Report:
    hom = doc.get("hom", args[0])
    sections = find_sections(hom)
    rb = ReportBuilder("sections")
    rb.add("hom", args[0])
    rb.add("count", len(sections))
    for i, s in enumerate(sections):
        rb.add_array(f"section.{i}", s.images)
    return rb.build()


def cmd_descend(doc: FixtureDocument, args: list[str], size_bound: int) -> Report:
    d_tilde = doc.get("derivation", args[0])
    lift = doc.get("lifting", args[1])
    section = doc.get("hom", args[2])
    descended = descend_derivation(d_tilde, lift, section)
    rb = ReportBuilder("descend")
    rb.add("derivation", args[0])
    rb.add("lifting", args[1])
    rb.add("section", args[2])
    rb.add_array("descended", descended.values)
    rb.add("valid", True)
    return rb.build()


def cmd_action_groupoid(doc: FixtureDocument, args: list[str], size_bound: int) -> Report:
    act = doc.get("ggaction", args[0])
    gg, projection = action_groupoid(act)
    covering, witness = is_covering_morphism(projection)
    rb = ReportBuilder("action-groupoid")
    rb.add("action", args[0])
    rb.add("objects", gg.object_group.order)
    rb.add("morphisms", gg.morphism_group.order)
    rb.add_table(
        "pairs", [gg.morphism_group.name(i) for i in gg.morphism_group.elements()]
    )
    rb.add("projection.covering", covering)
    return rb.build()


def cmd_covering_check(doc: FixtureDocument, args: list[str], size_bound: int) -> Report:
    ggmor = doc.get("ggmor", args[0])
    covering, witness = is_covering_morphism(ggmor)
    rb = ReportBuilder("covering-check")
    rb.add("ggmor", args[0])
    rb.add("covering", covering)
    if witness is not None:
        rb.add("witness", witness)
    functor = ggmor.functor
    for x in range(functor.source.n_objects):
        up = len(functor.source.star(x))
        down = len(functor.target.star(functor.object_map[x]))
        rb.add(f"star.{x}", f"{up} -> {down}")
    return rb.build()


def cmd_pullback_action(doc: FixtureDocument, args: list[str], size_bound: int) -> Report:
    ggmor = doc.get("ggmor", args[0])
    act = doc.get("ggaction", args[1])
    pulled = pullback_action(ggmor, act)
    rb = ReportBuilder("pullback-action")
    rb.add("ggmor", args[0])
    rb.add("action", args[1])
    rb.add("pullback.order", pulled.X.order)
    rb.add_table("pullback.pairs", [pulled.X.name(i) for i in pulled.X.elements()])
    rb.add_array("omega", pulled.omega.images)
    rb.add_table(
        "act",
        [
            ",".join("-" if v == -1 else str(v) for v in row)
            for row in pulled.act
        ],
    )
    rb.add("valid", True)
    return rb.build()


_DISPATCH = {
    "check": cmd_check,
    "classify": cmd_classify,
    "liftings": cmd_liftings,
    "lift-morphism": cmd_lift_morphism,
    "pullback": cmd_pullback,
    "homotopy-check": cmd_homotopy_check,
    "homotopy-lift": cmd_homotopy_lift,
    "derivations": cmd_derivations,
    "whitehead": cmd_whitehead,
    "lift-derivation": cmd_lift_derivation,
    "sections": cmd_sections,
    "descend": cmd_descend,
    "action-groupoid": cmd_action_groupoid,
    "covering-check": cmd_covering_check,
    "pullback-action": cmd_pullback_action,
}


def run_command(
    command: str, document: FixtureDocument, args: list[str] | None = None, *,
    size_bound: int = 64,
) -> Report:
    """Dispatch one command against a parsed fixture document."""
    if command not in _DISPATCH:
        raise UnknownCommand(f"unknown command '{command}'")
    args = list(args or [])
    expected = _ARG_COUNTS[command]
    if len(args) != expected:
        raise UsageError(
            f"command '{command}' takes {expected} argument(s), got {len(args)}"
        )
    try:
        return _DISPATCH[command](document, args, size_bound)
    except ValueError as err:
        # wiring mismatches between named objects surface as validation errors
        raise ValidationError(str(err), inner=err) from err


def _catalog_report() -> Report:
    rb = ReportBuilder("seed-catalog")
    rb.add("entries", len(CATALOG_SUMMARY))
    for i, (key, text) in enumerate(CATALOG_SUMMARY):
        rb.add(f"entry.{i}.keyword", key)
        rb.add(f"entry.{i}.description", text)
    return rb.build()


def _error_report(command: str | None, err: Exception) -> Report:
    rb = ReportBuilder(command or "error")
    rb.add("error.category", type(err).__name__)
    rb.add("error.message", str(err))
    rb.add("status", "error")
    return rb.build()


@functools.lru_cache(maxsize=16)
def _document(text: str) -> FixtureDocument:
    """The validated document of ``text``, kept for the 16 texts used last.

    The key is the whole text, so a hit needs the same text, not the same
    path. Every object of a document is a frozen dataclass of tuples, so
    one parse serves every later call; each command still computes its
    report from the objects. A rejected text raises and is not kept, so it
    is parsed, and reported alike, on every call.
    """
    return parse_fixture(text)


def run(argv: list[str]) -> tuple[int, str]:
    """Run the CLI and return (exit code, rendered output)."""
    command = None
    fmt = "human"
    try:
        ns = build_parser().parse_args(argv)
        fmt = ns.format_
        if ns.seed_catalog:
            report = _catalog_report()
        else:
            command = ns.command
            if command is None:
                raise UsageError("no command given (or use --seed-catalog)")
            if ns.size_bound < 0:
                raise UsageError(f"--size-bound must be nonnegative, got {ns.size_bound}")
            if command not in COMMANDS:
                raise UnknownCommand(f"unknown command '{command}'")
            if ns.fixture is None:
                raise UsageError("a fixture document is required, pass --fixture")
            try:
                with open(ns.fixture, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as err:
                raise UsageError(f"cannot read fixture: {err}")
            document = _document(text)
            report = run_command(
                command, document, ns.args, size_bound=ns.size_bound
            )
    except XmliftError as err:
        report = _error_report(command, err)
        rendered = render_machine(report) if fmt == "machine" else render_human(report)
        return err.exit_code, rendered
    rendered = render_machine(report) if fmt == "machine" else render_human(report)
    return 0, rendered


def main() -> None:
    code, text = run(sys.argv[1:])
    sys.stdout.write(text)
    sys.exit(code)


if __name__ == "__main__":
    main()
