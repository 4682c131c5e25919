"""CLI behavior: golden outputs, determinism, round trips, exit codes."""

from __future__ import annotations

import random
import subprocess
import sys

import pytest

import xmlift.cli as cli
from xmlift.cli import run
from xmlift.report import parse_machine, render_machine

from regen_goldens import GOLDEN_CASES


@pytest.mark.parametrize("name,argv", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
@pytest.mark.parametrize("fmt", ["machine", "human"])
def test_golden_outputs(name, argv, fmt, golden_dir):
    expected = (golden_dir / f"{name}.{fmt}.txt").read_text(encoding="utf-8")
    code1, out1 = run(argv + ["--format", fmt])
    code2, out2 = run(argv + ["--format", fmt])
    assert out1 == out2, "reports must be byte stable across runs"
    assert out1 == expected
    if name.endswith("_fail"):
        assert code1 != 0
    else:
        assert code1 == 0
    assert code1 == code2


@pytest.mark.parametrize("name,argv", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_machine_roundtrip(name, argv):
    code, out = run(argv + ["--format", "machine"])
    report = parse_machine(out)
    assert render_machine(report) == out


def test_unknown_command_exit_code():
    code, out = run(["--fixture", "fixtures/z4.xmf", "frobnicate"])
    assert code == 22
    assert "UnknownCommand" in out


def test_usage_error_missing_fixture():
    code, out = run(["liftings", "xm"])
    assert code == 2


def test_usage_error_wrong_arg_count():
    code, out = run(["--fixture", "fixtures/z4.xmf", "liftings"])
    assert code == 2


def test_missing_file():
    code, out = run(["--fixture", "no/such/file.xmf", "check"])
    assert code == 2


def test_unresolved_reference_exit_code():
    code, out = run(["--fixture", "fixtures/z4.xmf", "classify", "nope"])
    assert code == 4
    assert "UnresolvedReference" in out


def test_error_paths_have_distinct_categories(tmp_path):
    cases = {}
    # syntax error
    bad_syntax = tmp_path / "syntax.xmf"
    bad_syntax.write_text("what even is this\n", encoding="utf-8")
    cases["syntax"] = run(["--fixture", str(bad_syntax), "check"])[0]
    # group validation error
    bad_group = tmp_path / "group.xmf"
    bad_group.write_text("A : group = table 0 0 ; 1 1\n", encoding="utf-8")
    cases["group"] = run(["--fixture", str(bad_group), "check"])[0]
    # unknown command and unresolved reference
    cases["unknown"] = run(["--fixture", "fixtures/z4.xmf", "nope"])[0]
    cases["unresolved"] = run(["--fixture", "fixtures/z4.xmf", "classify", "zz"])[0]
    # kernel condition failure
    cases["morphlift"] = run(
        ["--fixture", "fixtures/z4.xmf", "lift-morphism", "idm", "L0"]
    )[0]
    # wiring mismatch between named objects
    cases["wiring"] = run(
        ["--fixture", "fixtures/v4.xmf", "lift-derivation", "dt", "L"]
    )[0]
    assert all(code != 0 for code in cases.values())
    assert len(set(cases.values())) == len(cases)


def test_size_bound_flag():
    code, out = run(
        ["--fixture", "fixtures/z4.xmf", "--size-bound", "1", "liftings", "xm"]
    )
    assert code == 21
    assert "SizeBound" in out


def test_negative_size_bound_is_usage_error():
    code, out = run(
        ["--fixture", "fixtures/z4.xmf", "--size-bound", "-5", "liftings", "xm"]
    )
    assert code == 2
    assert "UsageError" in out


def test_internal_defect_is_reported(monkeypatch):
    import xmlift.xmod as xmod
    from xmlift.groups import make_subgroup

    # a trivial center makes the kernel of (Z4, Z2, mod two) look non-central
    monkeypatch.setattr(xmod, "center", lambda group: make_subgroup(group, (0,)))
    code, out = run(["--fixture", "fixtures/z4.xmf", "--format", "machine", "check"])
    assert code == 23
    report = parse_machine(out)
    assert report.value("error.category") == "InternalDefect"
    assert report.value("status") == "error"


_LARGE_LIFT = """\
V   : group = catalog Z2xZ2
A   : group = catalog Z72
B   : group = catalog Z2
idV : hom = V -> V : 0 1 2 3
trV : action = V on V : trivial
sx  : xmod = V V idV trV
al  : hom = A -> B : {mod2}
tr  : action = B on A : trivial
xm  : xmod = A B al tr
idA : hom = A -> A : {ident}
f   : hom = V -> A : 0 36 0 36
g   : hom = V -> B : 0 0 0 0
m   : morphism = sx -> xm : f g
L   : lifting = xm : A idA al
""".format(
    mod2=" ".join(str(k % 2) for k in range(72)),
    ident=" ".join(str(k) for k in range(72)),
)


def test_lift_morphism_reports_skipped_uniqueness_search(tmp_path):
    from xmlift import lift_morphism, parse_fixture
    from xmlift.lifting import uniqueness_checked_by_default

    # |X| ** |gens V| = 72 ** 2 exceeds the uniqueness search bound of 5000
    doc = parse_fixture(_LARGE_LIFT)
    m, lift = doc.get("morphism", "m"), doc.get("lifting", "L")
    assert not uniqueness_checked_by_default(m, lift)
    lifted = lift_morphism(m, lift, check_uniqueness=True)
    assert lifted.f2.images == (0, 36, 0, 36)

    path = tmp_path / "large.xmf"
    path.write_text(_LARGE_LIFT, encoding="utf-8")
    code, out = run(
        ["--fixture", str(path), "--format", "machine", "lift-morphism", "m", "L"]
    )
    assert code == 0
    report = parse_machine(out)
    assert report.value("unique") == "unchecked"
    assert report.value("gtilde") == "0,36,0,36"


def test_console_entry_point(golden_dir):
    proc = subprocess.run(
        [sys.executable, "-m", "xmlift.cli", "--seed-catalog", "--format", "machine"],
        capture_output=True,
        text=True,
        cwd=str(golden_dir.parent.parent),
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("command = seed-catalog")


def test_check_reports_every_declaration(golden_dir):
    code, out = run(["--fixture", "fixtures/z4.xmf", "--format", "machine", "check"])
    report = parse_machine(out)
    assert report.value("declarations") == "18"
    assert report.value("status") == "ok"
    assert report.value("decl.4.kind") == "xmod"
    assert report.value("decl.4.class") == "transitive"


# -- one process, many calls: the parsed-document cache and the shared parser --------


def test_golden_cases_interleaved_in_one_process(golden_dir):
    # every case twice, in both formats, in a shuffled order: a document
    # parsed for one call serves later calls without changing any report
    calls = [(name, argv, fmt) for name, argv in GOLDEN_CASES for fmt in ("machine", "human")] * 2
    random.Random(4).shuffle(calls)
    for name, argv, fmt in calls:
        expected = (golden_dir / f"{name}.{fmt}.txt").read_text(encoding="utf-8")
        code, out = run(argv + ["--format", fmt])
        assert out == expected, (name, fmt)
        assert (code != 0) == name.endswith("_fail")


@pytest.fixture
def parse_counter(monkeypatch):
    """Counts the calls of ``parse_fixture`` made by the CLI, from an empty cache."""
    calls = []
    real = cli.parse_fixture

    def counted(text):
        calls.append(text)
        return real(text)

    cli._document.cache_clear()
    monkeypatch.setattr(cli, "parse_fixture", counted)
    yield calls
    cli._document.cache_clear()


def test_repeated_text_parses_once(parse_counter):
    argv = ["--fixture", "fixtures/z4.xmf", "--format", "machine"]
    outputs = [run(argv + args) for args in (["check"], ["classify", "xm"], ["check"])]
    assert len(parse_counter) == 1
    assert outputs[0] == outputs[2]


def test_rewritten_fixture_is_parsed_again(tmp_path, parse_counter):
    path = tmp_path / "doc.xmf"
    argv = ["--fixture", str(path), "--format", "machine", "classify", "xm"]
    path.write_text("A : group = catalog Z4\nB : group = catalog Z2\n"
                    "al : hom = A -> B : 0 1 0 1\ntr : action = B on A : trivial\n"
                    "xm : xmod = A B al tr\n", encoding="utf-8")
    code, first = run(argv)
    assert code == 0 and parse_machine(first).value("class") == "transitive"
    # same path, new text: (Z4, Z4, id, trivial) has an injective boundary
    path.write_text("A : group = catalog Z4\nidA : hom = A -> A : 0 1 2 3\n"
                    "tr : action = A on A : trivial\nxm : xmod = A A idA tr\n", encoding="utf-8")
    code, second = run(argv)
    assert code == 0 and parse_machine(second).value("boundary.injective") == "true"
    assert len(parse_counter) == 2


def test_rejected_text_is_parsed_on_every_call(tmp_path, parse_counter):
    path = tmp_path / "bad.xmf"
    path.write_text("A : group = catalog Z4\nK : group = table 0 1 ; 1 1\n", encoding="utf-8")
    argv = ["--fixture", str(path), "--format", "machine", "check"]
    results = [run(argv) for _ in range(3)]
    assert len(parse_counter) == 3
    assert results[0] == results[1] == results[2]
    code, out = results[0]
    report = parse_machine(out)
    assert report.value("error.category") == "ValidationError"
    assert report.value("error.message").startswith("line 2: declaration 'K' is invalid")
    assert code != 0


def _human_usage_error(message):
    return (
        "xmlift report: error\n====================\n"
        f"error.category: UsageError\nerror.message: {message}\nstatus: error\n"
    )


def test_shared_parser_between_usage_errors(golden_dir):
    # the parser is built once per process; an argv it rejects leaves it
    # as it was (a rejected argv is reported in the human format)
    bad_int = _human_usage_error("argument --size-bound: invalid int value: 'many'")
    assert run(["--size-bound", "many", "--format", "machine", "check"]) == (2, bad_int)
    for fmt in ("machine", "human"):
        expected = (golden_dir / f"classify_z4.{fmt}.txt").read_text(encoding="utf-8")
        assert run(["--fixture", "fixtures/z4.xmf", "classify", "xm", "--format", fmt]) == (0, expected)
    assert run(["--fixture", "fixtures/z4.xmf", "--frobnicate", "check"]) == (
        2, _human_usage_error("unrecognized arguments: --frobnicate"),
    )
    assert run(["--size-bound", "many", "--format", "machine", "check"]) == (2, bad_int)
