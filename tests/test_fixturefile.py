"""Fixture document parsing, reference resolution, and error reporting."""

from __future__ import annotations

import pytest

import xmlift.errors as errors
from xmlift import parse_fixture

MINIMAL = """\
# the cyclic base fixture
A  : group  = catalog Z4
B  : group  = catalog Z2
al : hom    = A -> B : 0 1 0 1
tr : action = B on A : trivial
xm : xmod   = A B al tr
"""


def test_minimal_document_parses():
    doc = parse_fixture(MINIMAL)
    assert [d.name for d in doc.declarations] == ["A", "B", "al", "tr", "xm"]
    xm = doc.get("xmod", "xm")
    assert xm.A.order == 4 and xm.B.order == 2


def test_inline_table_group():
    doc = parse_fixture("K : group = table 0 1 ; 1 0 names e x\n")
    g = doc.get("group", "K")
    assert g.order == 2
    assert g.element_names == ("e", "x")


def test_unresolved_reference_has_line():
    text = MINIMAL + "bad : hom = A -> H : 0 0 0 0\n"
    with pytest.raises(errors.UnresolvedReference) as exc:
        parse_fixture(text)
    assert exc.value.line == 7


def test_kind_mismatch_reported():
    text = MINIMAL + "bad : xmod = A B al al\n"
    with pytest.raises(errors.UnresolvedReference) as exc:
        parse_fixture(text)
    assert "expected a action" in str(exc.value)


def test_syntax_error_has_line():
    with pytest.raises(errors.FixtureSyntaxError) as exc:
        parse_fixture("A : group = catalog Z4\nnot a declaration\n")
    assert exc.value.line == 2


def test_unknown_kind():
    with pytest.raises(errors.FixtureSyntaxError):
        parse_fixture("A : widget = catalog Z4\n")


def test_duplicate_name():
    with pytest.raises(errors.FixtureSyntaxError):
        parse_fixture("A : group = catalog Z4\nA : group = catalog Z2\n")


def test_validation_error_wraps_not_associative():
    # subtraction mod 3 is not associative
    with pytest.raises(errors.ValidationError) as exc:
        parse_fixture("A : group = table 0 2 1 ; 1 0 2 ; 2 1 0\n")
    assert isinstance(exc.value.inner, errors.NotAssociative)
    assert exc.value.line == 1
    assert exc.value.exit_code == exc.value.inner.exit_code


def test_validation_error_wraps_no_inverse():
    with pytest.raises(errors.ValidationError) as exc:
        parse_fixture("A : group = table 0 1 ; 1 1\n")
    assert isinstance(exc.value.inner, errors.NoInverse)


def test_validation_error_wraps_cm_violation():
    text = """\
A  : group  = catalog Z4
B  : group  = catalog Z2
al : hom    = A -> B : 0 1 0 1
ng : action = B on A : rows 0 1 2 3 ; 0 3 2 1
xm : xmod   = A B al ng
"""
    with pytest.raises(errors.ValidationError) as exc:
        parse_fixture(text)
    assert isinstance(exc.value.inner, errors.CM2Violation)
    assert exc.value.line == 5


def test_derivation_over_lifting():
    text = MINIMAL + """\
idA : hom = A -> A : 0 1 2 3
L   : lifting = xm : A idA al
dt  : derivation = lifting L : 0 2 0 2
"""
    doc = parse_fixture(text)
    d = doc.get("derivation", "dt")
    assert d.xm.B.order == 4


def test_repo_fixture_files_parse(fixtures_dir):
    for path in sorted(fixtures_dir.glob("*.xmf")):
        doc = parse_fixture(path.read_text(encoding="utf-8"))
        assert doc.declarations, path.name


def test_bad_cell_in_the_middle_of_a_long_row():
    # a row is converted in one pass; the first bad cell is still named
    cells = [str(k) for k in range(40)]
    cells[17], cells[30] = "x7", "y"
    text = "A : group = catalog Z4\n\nbad : group = table " + " ".join(cells) + "\n"
    with pytest.raises(errors.FixtureSyntaxError) as exc:
        parse_fixture(text)
    assert str(exc.value) == "line 3: expected an integer cell, got 'x7'"
    assert exc.value.line == 3


def test_dash_outside_a_ggaction_row_is_a_bad_cell():
    with pytest.raises(errors.FixtureSyntaxError) as exc:
        parse_fixture("K : group = table 0 1 ; 1 -\n")
    assert str(exc.value) == "line 1: expected an integer cell, got '-'"
    assert exc.value.line == 1
    text = MINIMAL + "ng : action = B on A : rows 0 1 2 3 ; 0 - 2 1\n"
    with pytest.raises(errors.FixtureSyntaxError) as exc:
        parse_fixture(text)
    assert str(exc.value) == "line 7: expected an integer cell, got '-'"
    assert exc.value.line == 7


def test_bad_image_names_the_first_bad_token():
    with pytest.raises(errors.FixtureSyntaxError) as exc:
        parse_fixture(MINIMAL + "bad : hom = A -> B : 0 1 one 1.5\n")
    assert str(exc.value) == "line 7: expected an integer, got 'one'"
    assert exc.value.line == 7
