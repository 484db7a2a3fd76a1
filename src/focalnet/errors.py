"""Exception hierarchy.

Every library error derives from `FocalnetError`.  The pointwise ones,
what a frame evaluation can raise (`FRAME_ERRORS`) and `CanalDegenerate`,
carry a short `status` code, and report rows and exit codes read it from
there rather than mapping exception classes again or matching on messages.
A pointwise error names its point (u, v) in its message only.
"""
from __future__ import annotations


class FocalnetError(Exception):
    """Base class for all library errors."""


class JetDomainError(FocalnetError):
    """Elementary function evaluated outside its domain (ln/sqrt of a
    non-positive value, division by zero, non-finite result)."""

    status = "degenerate"


class JetOrderError(FocalnetError):
    """Derivative coefficient requested beyond the valid truncation order."""


class ParseError(FocalnetError):
    """Syntax or validation error in surface-definition source."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, col {col})")
        self.line = line
        self.col = col


class UnknownSurfaceError(FocalnetError):
    """Requested gallery surface does not exist."""


class UnknownParameterError(FocalnetError):
    """Parameter override names a parameter the surface does not declare."""


class UnboundIdentifierError(FocalnetError):
    """Expression references a name with no binding at evaluation time."""


class DegenerateParametrization(FocalnetError):
    """Metric determinant EG - F^2 vanishes: (u, v) is not an immersion point."""

    status = "degenerate"


class UmbilicPoint(FocalnetError):
    """k1 == k2 within tolerance: principal directions undefined."""

    status = "umbilic"


class ParabolicPoint(FocalnetError):
    """A principal curvature vanishes within tolerance: a focal sheet
    escapes to infinity and curvature-reciprocal quantities blow up."""

    status = "parabolic"


class CanalDegenerate(FocalnetError):
    """The focal sheet for `sheet` degenerates to a curve: the defining
    Pfaffian derivative of its curvature vanishes along its own line."""

    def __init__(self, message: str, sheet: int):
        super().__init__(message)
        self.sheet = int(sheet)
        self.status = f"canal{self.sheet}"


# What evaluating a frame point (jets, principal data, frame) can raise.
FRAME_ERRORS = (JetDomainError, DegenerateParametrization, UmbilicPoint,
                ParabolicPoint)


class ImaginaryNetError(FocalnetError):
    """Quadratic net has negative discriminant: no real directions."""


class DegenerateNetError(FocalnetError):
    """Quadratic net is identically zero: directions undefined."""
