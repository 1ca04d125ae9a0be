"""Coefficient expression language and exact second-order time jets.

Closed-form expressions of the single variable ``t`` (plus the imaginary
unit literal ``i``) are parsed into immutable ASTs and evaluated by
truncated Taylor-mode propagation, so first and second time derivatives of
operator coefficients are exact up to floating-point rounding rather than
contaminated by numerical differentiation.

Grammar (whitespace insignificant)::

    expr   := ["+"|"-"] term (("+"|"-") term)*
    term   := factor (("*"|"/") factor)*
    factor := base ("^" int)?
    base   := number | "i" | "t" | func "(" expr ")" | "(" expr ")"
    func   := "sin" | "cos" | "exp" | "log"

The leading sign is a convenience extension of the published grammar: it is
desugared to a negated literal (when the first factor is a bare number) or
to ``0 - term``, so the node set stays exactly the published one.
"""

from __future__ import annotations

import cmath
import functools
import math
import re
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Union

import numpy as np

from .errors import (ExprDomainError, ExprError, ExprSyntaxError, UnknownIdentifierError, _clip,
                     _check_points, _nonfinite)

__all__ = ["Jet2", "TimeFn", "parse_timefn"]

_FUNCS = ("sin", "cos", "exp", "log")

#: the most nodes on a path down a syntax tree, and the most levels of parentheses:
#: trees are printed, evaluated and pickled by recursion, and pickling one
#: about 330 deep overflows Python's default recursion limit
MAX_DEPTH = 300


# --------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Imag:
    pass


@dataclass(frozen=True)
class TimeVar:
    pass


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * /
    lhs: "Node"
    rhs: "Node"


@dataclass(frozen=True)
class Pow:
    base: "Node"
    exponent: int


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Node"


Node = Union[Num, Imag, TimeVar, BinOp, Pow, Call]


# --------------------------------------------------------------------------
# Jets


@dataclass(slots=True)
class Jet2:
    """Value and first two time derivatives at a point (arrays of them, one
    entry per time, on a :func:`hyp3.operators.symbol_grid`); slotted, never mutated.

    ``d3`` is populated for principal-part coefficients, whose third
    derivative feeds the time derivative of the corrected first-order
    symbol; it is ``None`` for jets of ``TimeFn.jet2`` at the default order.
    """

    v: complex
    d1: complex
    d2: complex
    d3: complex | None = None


# --------------------------------------------------------------------------
# Parsing

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos:].strip() == "":
            break
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            # skip leading whitespace before reporting
            stripped = len(text) - len(text[pos:].lstrip())
            raise ExprSyntaxError(stripped, ("number", "identifier", "operator"),
                                  f"unrecognized character {text[stripped]!r} at offset {stripped}")
        if m.lastgroup == "num":
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.lastgroup == "ident":
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append((m.group("op"), m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    """Recursive descent, ``term`` folded into ``expr`` and ``base`` into
    ``factor``, so that a level of parentheses costs two frames."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.k = 0
        # bound the recursion before it starts
        if max(accumulate((k == "(") - (k == ")") for k, _, _ in self.tokens)) > MAX_DEPTH:
            raise ExprError(f"expression nested deeper than {MAX_DEPTH} levels")

    def peek(self):
        return self.tokens[self.k]

    def advance(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect(self, kind: str, expected: tuple[str, ...]):
        tok = self.peek()
        if tok[0] != kind:
            raise ExprSyntaxError(tok[2], expected)
        return self.advance()

    def parse(self) -> Node:
        node = self.expr()
        tok = self.peek()
        if tok[0] != "eof":
            raise ExprSyntaxError(tok[2], ("+", "-", "*", "/", "^", "end of input"))
        return node

    def expr(self) -> Node:
        neg = False
        if self.peek()[0] in ("+", "-"):
            neg = self.advance()[0] == "-"
        node = add = None
        while True:
            term = self.factor()
            while self.peek()[0] in ("*", "/"):
                term = BinOp(self.advance()[0], term, self.factor())
            if add:
                node = BinOp(add, node, term)
            elif neg:
                node = Num(-term.value) if isinstance(term, Num) else BinOp("-", Num(0.0), term)
            else:
                node = term
            if self.peek()[0] not in ("+", "-"):
                return node
            add = self.advance()[0]

    _BASE_EXPECTED = ("number", "i", "t", "sin", "cos", "exp", "log", "(")

    def factor(self) -> Node:
        tok = self.advance()
        if tok[0] == "num":
            node = Num(float(tok[1]))
        elif tok[0] == "ident" and tok[1] in ("t", "i"):
            node = TimeVar() if tok[1] == "t" else Imag()
        elif tok[0] == "ident" and tok[1] in _FUNCS:
            self.expect("(", ("(",))
            node = Call(tok[1], self.expr())
            self.expect(")", (")",))
        elif tok[0] == "ident":
            raise UnknownIdentifierError(tok[1], tok[2])
        elif tok[0] == "(":
            node = self.expr()
            self.expect(")", (")",))
        else:
            raise ExprSyntaxError(tok[2], self._BASE_EXPECTED)
        if self.peek()[0] == "^":
            self.advance()
            sign = 1
            if self.peek()[0] in ("+", "-"):
                sign = -1 if self.advance()[0] == "-" else 1
            tok = self.expect("num", ("integer exponent",))
            if any(ch in tok[1] for ch in ".eE"):
                raise ExprSyntaxError(tok[2], ("integer exponent",), "exponent must be an "
                                      f"integer, got {_clip(repr(tok[1]))} at offset {tok[2]}")
            try:
                node = Pow(node, sign * int(tok[1]))
            except ValueError:  # more digits than Python converts to an int
                raise ExprSyntaxError(tok[2], ("integer exponent",),
                                      f"exponent too long at offset {tok[2]}") from None
        return node


# --------------------------------------------------------------------------
# Printing (canonical form; print -> parse is the identity on ASTs)

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}


def _prec(node: Node) -> int:
    if isinstance(node, BinOp):
        return _PREC[node.op]
    if isinstance(node, Pow):
        return 3
    return 4


def _fmt_num(v: float) -> str:
    s = repr(float(v))
    return s[:-2] if s.endswith(".0") else s


def _print(node: Node) -> str:
    if isinstance(node, Num):
        # negative literals (-0 included) only re-parse as literals behind
        # parentheses
        neg = math.copysign(1.0, node.value) < 0
        return f"(-{_fmt_num(-node.value)})" if neg else _fmt_num(node.value)
    if isinstance(node, Imag):
        return "i"
    if isinstance(node, TimeVar):
        return "t"
    if isinstance(node, Call):
        return f"{node.func}({_print(node.arg)})"
    if isinstance(node, Pow):
        base = _print(node.base)
        if _prec(node.base) < 4:
            base = f"({base})"
        return f"{base}^{node.exponent}"
    assert isinstance(node, BinOp)
    p = _PREC[node.op]
    lhs = _print(node.lhs)
    if _prec(node.lhs) < p:
        lhs = f"({lhs})"
    rhs = _print(node.rhs)
    if _prec(node.rhs) <= p:  # keep left association on re-parse
        rhs = f"({rhs})"
    return f"{lhs} {node.op} {rhs}"


# --------------------------------------------------------------------------
# Taylor-mode evaluation (coefficients c[k] = f^(k)/k!), at one time (plain
# numbers) or on a time grid (arrays, one entry per time)


def _lib(x):
    """``cmath`` for a complex value or grid array, else ``math``."""
    if isinstance(x, complex) or (isinstance(x, np.ndarray) and x.dtype.kind == "c"):
        return cmath
    return math


def _libm(f, x):
    """``f``, a ``math`` or ``cmath`` function, at one point or at each entry
    of a grid array. numpy's exp, log and arccos loops differ from libm in
    the last place on a few percent of inputs, and a grid must round
    exactly like its points."""
    if isinstance(x, np.ndarray):
        return np.fromiter(map(f, x.tolist()), dtype=x.dtype, count=x.size)
    return f(x)


def _smul(a, b):
    out = []
    for k in range(len(a)):
        acc = 0  # from int 0, as sum() starts: 0 + -0.0 is +0.0
        for j in range(k + 1):
            acc = acc + a[j] * b[k - j]
        out.append(acc)
    return out


def _sdiv(a, b):
    _check_points(b[0] == 0, ExprDomainError, "division by zero")
    n = len(a)
    q = [0.0] * n
    for k in range(n):
        acc = a[k]
        for j in range(k):
            acc = acc - q[j] * b[k - j]  # not -=: a[k] may be a caller's array
        q[k] = acc / b[0]
    return q


def _spow(a, n: int):
    one = [1.0] + [0.0] * (len(a) - 1)
    if n == 0:
        return one
    if n < 0:
        return _sdiv(one, _spow(a, -n))
    out = None
    base = a
    k = n
    while k:
        if k & 1:
            # a product needs no _smul(one, .); ``a`` does: it turns -0.0 into +0.0
            out = base if out is None and base is not a else _smul(out or one, base)
        base = _smul(base, base) if k > 1 else base
        k >>= 1
    # a power whose value or derivative terms overflow leaves the domain
    _check_points(_nonfinite(out), lambda v: ExprDomainError(f"{v!r}^{_clip(n)} overflows"), a[0])
    return out


def _exp(x):
    """exp at one point; an overflow leaves the expression's domain."""
    try:
        return _lib(x).exp(x)
    except OverflowError:
        raise ExprDomainError(f"exp of {x!r} overflows") from None


def _sexp(a):
    n = len(a)
    e = [0.0] * n
    e[0] = _libm(_exp, a[0])
    for k in range(1, n):
        acc = 0
        for j in range(1, k + 1):
            acc = acc + j * a[j] * e[k - j]
        e[k] = acc / k
    return e


def _log(x):
    """log at one point; zero, or a real value below it, leaves the domain."""
    try:
        return _lib(x).log(x)
    except ValueError:
        message = "log of zero" if isinstance(x, complex) else f"log of non-positive value {x!r}"
        raise ExprDomainError(message) from None


def _slog(a):
    n = len(a)
    out = [0.0] * n
    out[0] = _libm(_log, a[0])
    for k in range(1, n):
        acc = k * a[k]
        for j in range(1, k):
            acc = acc - j * out[j] * a[k - j]  # not -=: out[j] may be complex
        out[k] = acc / (k * a[0])
    return out


def _ssincos(a, func: str):
    n = len(a)
    lib = _lib(a[0])
    s = [0.0] * n
    c = [0.0] * n
    try:
        s[0], c[0] = _libm(lib.sin, a[0]), _libm(lib.cos, a[0])
    except ValueError:  # an infinite real part leaves the domain; on a grid, name the first
        x = a[0]
        if isinstance(x, np.ndarray):
            x = x[np.isinf(x.real)].tolist()[0]
        raise ExprDomainError(f"{func} of infinite value {x!r}") from None
    for k in range(1, n):
        sk = ck = 0
        for j in range(1, k + 1):
            ja = j * a[j]
            sk = sk + ja * c[k - j]
            ck = ck + ja * s[k - j]
        s[k] = sk / k
        c[k] = -ck / k
    return s, c


def _eval_series(node: Node, t: float, order: int):
    n = order + 1
    if isinstance(node, Num):
        return [node.value] + [0.0] * (n - 1)
    if isinstance(node, Imag):
        return [1j] + [0.0] * (n - 1)
    if isinstance(node, TimeVar):
        out = [0.0] * n
        out[0] = t if isinstance(t, np.ndarray) else float(t)
        if n > 1:
            out[1] = 1.0
        return out
    if isinstance(node, BinOp):
        a = _eval_series(node.lhs, t, order)
        b = _eval_series(node.rhs, t, order)
        if node.op == "+":
            return [x + y for x, y in zip(a, b)]
        if node.op == "-":
            return [x - y for x, y in zip(a, b)]
        if node.op == "*":
            return _smul(a, b)
        return _sdiv(a, b)
    if isinstance(node, Pow):
        a = _eval_series(node.base, t, order)
        if node.exponent < 0:
            _check_points(a[0] == 0, ExprDomainError, "zero raised to a negative power")
        return _spow(a, node.exponent)
    assert isinstance(node, Call)
    a = _eval_series(node.arg, t, order)
    if node.func == "exp":
        return _sexp(a)
    if node.func == "log":
        return _slog(a)
    s, c = _ssincos(a, node.func)
    return s if node.func == "sin" else c


def _series(node: Node, t, order: int):
    """The series of ``node`` at one time, or on a grid (``t`` an array) with
    numpy's overflow warnings off, as plain floats at a point overflow silently."""
    if not isinstance(t, np.ndarray):
        return _eval_series(node, t, order)
    with np.errstate(over="ignore", invalid="ignore"):
        return _eval_series(node, t, order)


def _bind(value, names: dict) -> str:
    """A new name for ``value`` among ``names``, the globals of emitted code:
    constants are bound by name, as a complex repr such as ``(-0-0j)`` is no literal."""
    names[name := f"c{len(names)}"] = value
    return name


def _emit(node: Node, lines: list[str], names: dict) -> str:
    """Append to ``lines`` the statements giving ``node`` at the float ``t``, one per node
    and each domain error raised at statement level; return the name holding its value."""
    if isinstance(node, (Num, Imag, TimeVar)):
        return "t" if isinstance(node, TimeVar) else _bind(getattr(node, "value", 1j), names)
    if isinstance(node, BinOp):
        a, b = _emit(node.lhs, lines, names), _emit(node.rhs, lines, names)
        if node.op == "/":
            lines.append(f"if {b} == 0: raise ExprDomainError('division by zero')")
        lines.append(f"x{len(lines)} = {a} {node.op} {b}")
        return f"x{len(lines) - 1}"
    if isinstance(node, Pow):
        a, n = _emit(node.base, lines, names), _bind(node.exponent, names)
        if node.exponent < 0:
            lines.append(f"if {a} == 0: raise ExprDomainError('zero raised to a negative power')")
        value, message = f"{a} ** {n}", f"f'{{{a}!r}}^{{_clip({n})}} overflows'"
    else:
        a, lib = _emit(node.arg, lines, names), cmath if Imag in map(type, _walk(node)) else math
        value, message = f"{_bind(getattr(lib, node.func), names)}({a})", {
            "exp": f"f'exp of {{{a}!r}} overflows'",
            "log": "'log of zero'" if lib is cmath else f"f'log of non-positive value {{{a}!r}}'",
        }.get(node.func, f"f'{node.func} of infinite value {{{a}!r}}'")
    error = "ValueError" if isinstance(node, Call) and node.func != "exp" else "OverflowError"
    lines += [f"try: x{len(lines)} = {value}",
              f"except {error}: raise ExprDomainError({message}) from None"]
    return f"x{len(lines) - 2}"


def _define(signature: str, lines: list[str], names: dict):
    """The function ``def signature: lines``, with ``names`` as its globals."""
    glob = {"ExprDomainError": ExprDomainError, "_clip": _clip, **names}
    exec(_code(f"def {signature}:\n" + "".join(f"    {line}\n" for line in lines)), glob)
    return glob[signature.split("(")[0]]


@functools.lru_cache(maxsize=1024)  # one compile per text: an operator's is the same at every |xi|
def _code(source: str):
    return compile(source, "<hyp3 emitted>", "exec")


# --------------------------------------------------------------------------
# Tree walk


_CHILD_FIELDS = {BinOp: ("lhs", "rhs"), Pow: ("base",), Call: ("arg",)}


def _walk(node: Node):
    yield node
    for name in _CHILD_FIELDS.get(type(node), ()):
        yield from _walk(getattr(node, name))


def _depth(node: Node) -> int:
    """Nodes on the longest path down from ``node``, counted level by level,
    not by recursion, so that a tree of any depth can be measured."""
    depth, level = 0, [node]
    while level:
        depth += 1
        level = [getattr(n, f) for n in level for f in _CHILD_FIELDS.get(type(n), ())]
    return depth


# --------------------------------------------------------------------------
# Public surface


@dataclass(frozen=True)
class TimeFn:
    """A parsed coefficient expression of ``t``.

    Immutable fields and pure evaluation, so instances are safe to share
    across concurrent workers.
    """

    ast: Node
    has_imag: bool = field(default=False, compare=False)
    is_constant: bool = field(default=False, compare=False)

    @classmethod
    def from_ast(cls, ast: Node) -> "TimeFn":
        kinds = {type(n) for n in _walk(ast)}
        return cls(ast, Imag in kinds, TimeVar not in kinds)

    def to_string(self) -> str:
        return _print(self.ast)

    def __str__(self) -> str:
        return self.to_string()

    def jet2(self, t: float, order: int = 2) -> Jet2:
        """The jet at one time, or on a grid (plain numbers where the
        expression does not depend on ``t``)."""
        c = _series(self.ast, t, max(order, 2))
        # the value, once per jet: a product or a sum has no test of its own
        if isinstance(c[0], np.ndarray) or not cmath.isfinite(c[0]):
            _check_points(_nonfinite(c[:1]), lambda: ExprDomainError(f"{_clip(self)} overflows"))
        return Jet2(c[0], c[1], 2.0 * c[2], 6.0 * c[3] if len(c) > 3 else None)

    def value(self, t: float):
        """The value at one time, or at each time of an array (a plain
        number where the expression does not depend on ``t``)."""
        if isinstance(t, np.ndarray):
            return _series(self.ast, t, 0)[0]
        x = _emit(self.ast, lines := ["t = float(t)"], names := {})
        return _define("value(t)", [*lines, f"return {x}"], names)(t)


def parse_timefn(text: str) -> TimeFn:
    """Parse expression text; see the module docstring for the grammar.

    Raises :class:`ExprSyntaxError` (with byte offset and expected-token
    set), :class:`UnknownIdentifierError`, or :class:`ExprError` for an
    expression nested deeper than ``MAX_DEPTH``.
    """
    ast = _Parser(text).parse()
    if _depth(ast) > MAX_DEPTH:
        raise ExprError(f"expression nested deeper than {MAX_DEPTH} levels")
    return TimeFn.from_ast(ast)
