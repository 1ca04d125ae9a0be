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
import math
import re
from dataclasses import dataclass, field
from typing import Union

from .errors import ExprDomainError, ExprSyntaxError, UnknownIdentifierError

__all__ = ["Jet2", "TimeFn", "parse_timefn"]

_FUNCS = ("sin", "cos", "exp", "log")


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


@dataclass(frozen=True)
class Jet2:
    """Value and first two time derivatives at a point (arrays of them, one
    entry per time, on a :func:`hyp3.operators.symbol_grid`).

    ``d3`` is populated for principal-part coefficients, whose third
    derivative feeds the time derivative of the corrected first-order
    symbol; it is ``None`` for jets of ``TimeFn.jet2`` at the default order.
    """

    v: complex
    d1: complex
    d2: complex
    d3: complex | None = None

    def __add__(self, other: "Jet2") -> "Jet2":
        d3 = None if self.d3 is None or other.d3 is None else self.d3 + other.d3
        return Jet2(self.v + other.v, self.d1 + other.d1, self.d2 + other.d2, d3)

    def __sub__(self, other: "Jet2") -> "Jet2":
        d3 = None if self.d3 is None or other.d3 is None else self.d3 - other.d3
        return Jet2(self.v - other.v, self.d1 - other.d1, self.d2 - other.d2, d3)

    def __neg__(self) -> "Jet2":
        return self.scaled(-1.0)

    def scaled(self, s: complex) -> "Jet2":
        d3 = None if self.d3 is None else s * self.d3
        return Jet2(s * self.v, s * self.d1, s * self.d2, d3)

    def shifted(self) -> "Jet2":
        """Jet of the time derivative: (f', f'', f''')."""
        if self.d3 is None:
            raise ValueError("shifting needs an order-3 jet")
        return Jet2(self.d1, self.d2, self.d3, None)

    def plus_const(self, c: complex) -> "Jet2":
        return Jet2(self.v + c, self.d1, self.d2, self.d3)


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
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.k = 0

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
        node = self.term()
        if neg:
            node = Num(-node.value) if isinstance(node, Num) else BinOp("-", Num(0.0), node)
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> Node:
        node = self.factor()
        while self.peek()[0] in ("*", "/"):
            op = self.advance()[0]
            node = BinOp(op, node, self.factor())
        return node

    def factor(self) -> Node:
        node = self.base()
        if self.peek()[0] == "^":
            self.advance()
            sign = 1
            if self.peek()[0] in ("+", "-"):
                sign = -1 if self.advance()[0] == "-" else 1
            tok = self.expect("num", ("integer exponent",))
            if any(ch in tok[1] for ch in ".eE"):
                raise ExprSyntaxError(tok[2], ("integer exponent",),
                                      f"exponent must be an integer, got {tok[1]!r} at offset {tok[2]}")
            node = Pow(node, sign * int(tok[1]))
        return node

    _BASE_EXPECTED = ("number", "i", "t", "sin", "cos", "exp", "log", "(")

    def base(self) -> Node:
        tok = self.peek()
        if tok[0] == "num":
            self.advance()
            return Num(float(tok[1]))
        if tok[0] == "ident":
            self.advance()
            name = tok[1]
            if name == "t":
                return TimeVar()
            if name == "i":
                return Imag()
            if name in _FUNCS:
                self.expect("(", ("(",))
                arg = self.expr()
                self.expect(")", (")",))
                return Call(name, arg)
            raise UnknownIdentifierError(name, tok[2])
        if tok[0] == "(":
            self.advance()
            node = self.expr()
            self.expect(")", (")",))
            return node
        raise ExprSyntaxError(tok[2], self._BASE_EXPECTED)


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
# Taylor-mode evaluation (coefficients c[k] = f^(k)/k!)


def _smul(a, b):
    n = len(a)
    return [sum(a[j] * b[k - j] for j in range(k + 1)) for k in range(n)]


def _sdiv(a, b):
    if b[0] == 0:
        raise ExprDomainError("division by zero")
    n = len(a)
    q = [0.0] * n
    for k in range(n):
        acc = a[k]
        for j in range(k):
            acc -= q[j] * b[k - j]
        q[k] = acc / b[0]
    return q


def _spow(a, n: int):
    one = [1.0] + [0.0] * (len(a) - 1)
    if n == 0:
        return one
    if n < 0:
        return _sdiv(one, _spow(a, -n))
    out = one
    base = a
    while n:
        if n & 1:
            out = _smul(out, base)
        base = _smul(base, base) if n > 1 else base
        n >>= 1
    return out


def _sexp(a):
    n = len(a)
    e = [0.0] * n
    e[0] = cmath.exp(a[0]) if isinstance(a[0], complex) else math.exp(a[0])
    for k in range(1, n):
        e[k] = sum(j * a[j] * e[k - j] for j in range(1, k + 1)) / k
    return e


def _slog(a):
    x = a[0]
    if isinstance(x, complex):
        if x == 0:
            raise ExprDomainError("log of zero")
        l0 = cmath.log(x)
    else:
        if x <= 0:
            raise ExprDomainError(f"log of non-positive value {x!r}")
        l0 = math.log(x)
    n = len(a)
    out = [0.0] * n
    out[0] = l0
    for k in range(1, n):
        acc = k * a[k]
        for j in range(1, k):
            acc -= j * out[j] * a[k - j]
        out[k] = acc / (k * a[0])
    return out


def _ssincos(a):
    n = len(a)
    if isinstance(a[0], complex):
        s0, c0 = cmath.sin(a[0]), cmath.cos(a[0])
    else:
        s0, c0 = math.sin(a[0]), math.cos(a[0])
    s = [0.0] * n
    c = [0.0] * n
    s[0], c[0] = s0, c0
    for k in range(1, n):
        s[k] = sum(j * a[j] * c[k - j] for j in range(1, k + 1)) / k
        c[k] = -sum(j * a[j] * s[k - j] for j in range(1, k + 1)) / k
    return s, c


def _eval_series(node: Node, t: float, order: int):
    n = order + 1
    if isinstance(node, Num):
        return [node.value] + [0.0] * (n - 1)
    if isinstance(node, Imag):
        return [1j] + [0.0] * (n - 1)
    if isinstance(node, TimeVar):
        out = [0.0] * n
        out[0] = float(t)
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
        if node.exponent < 0 and a[0] == 0:
            raise ExprDomainError("zero raised to a negative power")
        return _spow(a, node.exponent)
    assert isinstance(node, Call)
    a = _eval_series(node.arg, t, order)
    if node.func == "exp":
        return _sexp(a)
    if node.func == "log":
        return _slog(a)
    s, c = _ssincos(a)
    return s if node.func == "sin" else c


def _eval_value(node: Node, t: float):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Imag):
        return 1j
    if isinstance(node, TimeVar):
        return float(t)
    if isinstance(node, BinOp):
        a = _eval_value(node.lhs, t)
        b = _eval_value(node.rhs, t)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if b == 0:
            raise ExprDomainError("division by zero")
        return a / b
    if isinstance(node, Pow):
        a = _eval_value(node.base, t)
        if node.exponent < 0 and a == 0:
            raise ExprDomainError("zero raised to a negative power")
        return a ** node.exponent
    assert isinstance(node, Call)
    a = _eval_value(node.arg, t)
    lib = cmath if isinstance(a, complex) else math
    if node.func == "log":
        if isinstance(a, complex):
            if a == 0:
                raise ExprDomainError("log of zero")
        elif a <= 0:
            raise ExprDomainError(f"log of non-positive value {a!r}")
    return getattr(lib, node.func)(a)


# --------------------------------------------------------------------------
# Flags


def _walk(node: Node):
    yield node
    if isinstance(node, BinOp):
        yield from _walk(node.lhs)
        yield from _walk(node.rhs)
    elif isinstance(node, Pow):
        yield from _walk(node.base)
    elif isinstance(node, Call):
        yield from _walk(node.arg)


# --------------------------------------------------------------------------
# Public surface


@dataclass(frozen=True)
class TimeFn:
    """A parsed coefficient expression of ``t``.

    Immutable; evaluation is pure, so instances are safe to share across
    concurrent workers.
    """

    ast: Node
    has_imag: bool = field(default=False, compare=False)
    has_division: bool = field(default=False, compare=False)
    has_log: bool = field(default=False, compare=False)
    is_constant: bool = field(default=False, compare=False)

    @classmethod
    def from_ast(cls, ast: Node) -> "TimeFn":
        has_imag = has_div = has_log = False
        has_t = False
        for n in _walk(ast):
            if isinstance(n, Imag):
                has_imag = True
            elif isinstance(n, TimeVar):
                has_t = True
            elif isinstance(n, BinOp) and n.op == "/":
                has_div = True
            elif isinstance(n, Pow) and n.exponent < 0:
                has_div = True
            elif isinstance(n, Call) and n.func == "log":
                has_log = True
        return cls(ast, has_imag, has_div, has_log, not has_t)

    def to_string(self) -> str:
        return _print(self.ast)

    def __str__(self) -> str:
        return self.to_string()

    def jet2(self, t: float, order: int = 2) -> Jet2:
        c = _eval_series(self.ast, t, max(order, 2))
        d3 = 6.0 * c[3] if len(c) > 3 else None
        return Jet2(c[0], c[1], 2.0 * c[2], d3)

    def value(self, t: float):
        return _eval_value(self.ast, t)


def parse_timefn(text: str) -> TimeFn:
    """Parse expression text; see the module docstring for the grammar.

    Raises :class:`ExprSyntaxError` (with byte offset and expected-token
    set) or :class:`UnknownIdentifierError`. Division and ``log`` are legal
    but flagged on the result so callers can reject them where they need
    globally smooth coefficients.
    """
    return TimeFn.from_ast(_Parser(text).parse())
