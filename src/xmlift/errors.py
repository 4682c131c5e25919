"""Exception hierarchy with stable per-category CLI exit codes.

Error names follow the operation contracts; every category maps to a
distinct nonzero exit code so scripted callers can dispatch on failures.
"""

from __future__ import annotations


class XmliftError(Exception):
    """Base class for all domain errors raised by this package."""

    exit_code = 1

    def __init__(self, message: str, *, witness=None):
        super().__init__(message)
        self.witness = witness


class UsageError(XmliftError):
    exit_code = 2


# -- fixture files ----------------------------------------------------------

class FixtureSyntaxError(XmliftError):
    exit_code = 3

    def __init__(self, message: str, *, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class UnresolvedReference(XmliftError):
    exit_code = 4

    def __init__(self, message: str, *, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class ValidationError(XmliftError):
    """Wraps an error raised while validating a fixture declaration."""

    def __init__(self, message: str, *, line: int | None = None, inner: Exception | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line
        self.inner = inner

    @property
    def exit_code(self) -> int:  # type: ignore[override]
        if isinstance(self.inner, XmliftError):
            return self.inner.exit_code
        return 5


# -- Cayley tables and groups ------------------------------------------------

class MalformedTable(XmliftError):
    exit_code = 10


class NotAssociative(XmliftError):
    exit_code = 10


class NoIdentity(XmliftError):
    exit_code = 10


class NoInverse(XmliftError):
    exit_code = 10


# -- homomorphisms ------------------------------------------------------------

class NotHomomorphism(XmliftError):
    exit_code = 11


class CodomainMismatch(XmliftError):
    exit_code = 11


# -- subgroups ----------------------------------------------------------------

class NotASubgroup(XmliftError):
    exit_code = 12


class NotNormal(XmliftError):
    exit_code = 12


# -- group actions --------------------------------------------------------------

class ActionAxiomViolation(XmliftError):
    exit_code = 13


# -- crossed modules -------------------------------------------------------------

class CM1Violation(XmliftError):
    exit_code = 14


class CM2Violation(XmliftError):
    exit_code = 14


# -- crossed module morphisms ---------------------------------------------------

class SquareNotCommuting(XmliftError):
    exit_code = 15


class NotEquivariant(XmliftError):
    exit_code = 15


# -- liftings ---------------------------------------------------------------------

class TriangleViolation(XmliftError):
    exit_code = 16


class InducedCMViolation(XmliftError):
    exit_code = 16


class KernelViolation(XmliftError):
    exit_code = 16


class NotSubgroupOfKernel(XmliftError):
    exit_code = 16


class BaseMismatch(XmliftError):
    exit_code = 16


class PhiViolation(XmliftError):
    exit_code = 16


class OmegaViolation(XmliftError):
    exit_code = 16


# -- morphism lifting ---------------------------------------------------------------

class NotTransitive(XmliftError):
    exit_code = 17


class KernelConditionFails(XmliftError):
    exit_code = 17


class WellDefinednessDefect(XmliftError):
    exit_code = 17


# -- homotopies -----------------------------------------------------------------------

class H1Violation(XmliftError):
    exit_code = 18


class H2Violation(XmliftError):
    exit_code = 18


class H3Violation(XmliftError):
    exit_code = 18


# -- derivations ------------------------------------------------------------------------

class NotADerivation(XmliftError):
    exit_code = 19


class FormulaMismatch(XmliftError):
    exit_code = 19


class RequiresEnumeration(XmliftError):
    exit_code = 19


class NotASection(XmliftError):
    exit_code = 19


# -- groupoids ---------------------------------------------------------------------------

class GroupoidViolation(XmliftError):
    exit_code = 20


class NotAMorphism(XmliftError):
    exit_code = 20


class GGActionViolation(XmliftError):
    exit_code = 20


# -- enumeration guards ---------------------------------------------------------------------

class SizeBound(XmliftError):
    exit_code = 21


# -- CLI ---------------------------------------------------------------------------------------

class UnknownCommand(XmliftError):
    exit_code = 22


# -- internal consistency ----------------------------------------------------------------------

class InternalDefect(XmliftError):
    """A fact that follows from validated inputs failed to hold: a bug in xmlift."""

    exit_code = 23
