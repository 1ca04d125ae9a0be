"""Shared exception types."""

from __future__ import annotations


class ExprError(Exception):
    """Base class for expression-language failures."""


class ExprSyntaxError(ExprError):
    """Raised on malformed expression text.

    Carries the byte offset of the failure and the set of token kinds that
    would have been accepted there.
    """

    def __init__(self, offset: int, expected: tuple[str, ...], message: str = ""):
        self.offset = offset
        self.expected = tuple(sorted(expected))
        text = message or f"syntax error at offset {offset}, expected one of {', '.join(self.expected)}"
        super().__init__(text)


class UnknownIdentifierError(ExprError):
    """Raised when an identifier is neither a builtin function, `t` nor `i`."""

    def __init__(self, name: str, offset: int):
        self.name = name
        self.offset = offset
        super().__init__(f"unknown identifier {name!r} at offset {offset}")


class ExprDomainError(ExprError):
    """Evaluation left the expression's real domain (log of a non-positive
    value, division by zero, zero to a negative power)."""


class HyperbolicityViolation(Exception):
    """The principal symbol has non-real roots beyond the tolerance band."""

    def __init__(self, discriminant: float, where: str = ""):
        self.discriminant = discriminant
        msg = f"discriminant {discriminant:.6g} below the hyperbolicity tolerance"
        if where:
            msg += f" at {where}"
        super().__init__(msg)


class NearMultipleRoot(Exception):
    """Implicit root differentiation requested below the simple-root gap."""

    def __init__(self, gap: float, threshold: float):
        self.gap = gap
        self.threshold = threshold
        super().__init__(f"root gap {gap:.6g} below simple-root threshold {threshold:.6g}")


class QuadratureError(Exception):
    """Adaptive quadrature hit the panel cap before converging, or met a
    non-finite integrand value; ``panels`` is the leaf count reached."""

    def __init__(self, reason: str, panels: int):
        self.panels = panels
        super().__init__(f"{reason} with {panels} panels")


class OperatorSpecError(ValueError):
    """Malformed operator table or operator file, or an argument outside a
    function's documented range (usage/config error)."""
