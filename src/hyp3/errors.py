"""Shared exception types."""

from __future__ import annotations

import cmath

import numpy as np


#: the most characters of input text that an error message echoes
_ECHO_CHARS = 60


def _clip(text) -> str:
    """``text``, input echoed in an error message, cut to ``_ECHO_CHARS``
    characters with its length named, so that any input gives a short line."""
    text = str(text)
    return text if len(text) <= _ECHO_CHARS else f"{text[:_ECHO_CHARS]}... ({len(text)} characters)"


class _Pickled(Exception):
    """Pickles as its ``args`` and attributes, not through ``__init__``, so
    that an error raised in a worker process reaches the parent unchanged."""

    def __reduce__(self):
        return Exception.__new__, (type(self), *self.args), self.__dict__


class ExprError(_Pickled):
    """Base class for expression-language failures."""


def _check_points(bad, error, *args) -> None:
    """Pointwise guard: raise ``error(*args)`` where ``bad`` holds; on a time
    grid (``bad`` an array), at its first such point, with array arguments
    taken there."""
    if isinstance(bad, np.ndarray):
        if not bad.any():
            return
        i = int(bad.argmax())
        args = [a[i].item() if isinstance(a, np.ndarray) else a for a in args]
    elif not bad:
        return
    raise error(*args)


def _nonfinite(values):
    """Where any of ``values`` is inf or NaN: a bool at a point, a mask on a
    time grid (where some of them are arrays)."""
    if np.ndarray in map(type, values):
        return ~np.all(np.isfinite(np.broadcast_arrays(*values)), axis=0)
    return not all(map(cmath.isfinite, values))


def locate(exc: Exception, t, xi, at_point) -> None:
    """Name the point ``exc`` was raised at. At one time ``t``, end its
    message with it. On a time array, call ``at_point`` at each time in
    order, so that the first failing time raises its own located error."""
    if isinstance(t, np.ndarray):
        for tk in t.tolist():
            at_point(tk)
    else:
        exc.args = (f"{exc}, at t={t:.6g}, xi={xi}",)


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
        super().__init__(f"unknown identifier {_clip(repr(name))} at offset {offset}")


class ExprDomainError(ExprError):
    """Evaluation left the expression's real domain (log of a non-positive
    value, division by zero, zero to a negative power) or overflowed."""


class HyperbolicityViolation(_Pickled):
    """The principal symbol has non-real roots beyond the tolerance band, or
    a discriminant past the double range, which no band can judge."""

    def __init__(self, discriminant: float, where: str = ""):
        self.discriminant = discriminant
        msg = (f"discriminant {discriminant:.6g} below the hyperbolicity tolerance"
               if cmath.isfinite(discriminant) else "discriminant overflows the double range")
        if where:
            msg += f" at {where}"
        super().__init__(msg)


class NearMultipleRoot(_Pickled):
    """Implicit root differentiation requested below the simple-root gap."""

    def __init__(self, gap: float, threshold: float):
        self.gap = gap
        self.threshold = threshold
        super().__init__(f"root gap {gap:.6g} below simple-root threshold {threshold:.6g}")


class QuadratureError(_Pickled):
    """Adaptive quadrature hit the panel cap before converging, or met a
    non-finite integrand value; ``panels`` is the leaf count reached."""

    def __init__(self, reason: str, panels: int):
        self.panels = panels
        super().__init__(f"{reason} with {panels} panels")


class MagnusStepError(_Pickled):
    """A growth row needs more Magnus steps than a step index holds, or a
    count past the double range (a root scale that overflows)."""

    def __init__(self, steps: float, mag: float):
        self.steps = steps
        super().__init__(f"Magnus step count {steps:.3g} per output interval past the "
                         f"step index range, at |xi|={mag:g}")


class OperatorSpecError(ValueError):
    """Malformed operator table or operator file, or an argument outside a
    function's documented range (usage/config error)."""
