import cmath
import copy
import math
import pickle
import re
import struct

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings, strategies as st
from sympy.parsing.sympy_parser import parse_expr

from hyp3 import expr
from hyp3.battery import BATTERY
from hyp3.errors import ExprDomainError, ExprError, ExprSyntaxError, UnknownIdentifierError, _clip
from hyp3.expr import (MAX_DEPTH, BinOp, Call, Imag, Num, Pow, TimeFn, TimeVar, _depth, _exp, _log,
                       _sdiv, _walk, parse_timefn)


def test_parse_polynomial():
    f = parse_timefn("t^2 - 1")
    assert f.ast == BinOp("-", Pow(TimeVar(), 2), Num(1.0))
    assert not f.has_imag


def test_parse_imaginary_unit_leaf():
    f = parse_timefn("3*sin(t) + i*t")
    leaves = []

    def walk(n):
        if isinstance(n, BinOp):
            walk(n.lhs)
            walk(n.rhs)
        elif isinstance(n, (Pow, Call)):
            walk(n.base if isinstance(n, Pow) else n.arg)
        else:
            leaves.append(n)

    walk(f.ast)
    assert sum(isinstance(x, Imag) for x in leaves) == 1
    assert f.has_imag


def test_syntax_error_offset_and_expected():
    with pytest.raises(ExprSyntaxError) as exc:
        parse_timefn("t +")
    assert exc.value.offset == 3
    assert "number" in exc.value.expected and "t" in exc.value.expected


def test_an_exponent_of_more_digits_than_python_converts_is_a_syntax_error():
    with pytest.raises(ExprSyntaxError, match=r"^exponent too long at offset 2$") as exc:
        parse_timefn("t^" + "9" * 5000)
    assert exc.value.offset == 2


def test_unknown_identifier():
    with pytest.raises(UnknownIdentifierError) as exc:
        parse_timefn("2*foo + 1")
    assert exc.value.name == "foo"
    assert exc.value.offset == 2


def test_trailing_garbage_is_syntax_error():
    with pytest.raises(ExprSyntaxError):
        parse_timefn("t t")
    with pytest.raises(ExprSyntaxError):
        parse_timefn("(t")
    with pytest.raises(ExprSyntaxError):
        parse_timefn("sin t")


def test_eval_polynomial_jet():
    j = parse_timefn("t^2 - 1").jet2(2.0)
    assert (j.v, j.d1, j.d2) == (3.0, 4.0, 2.0)


def test_eval_sine_at_zero():
    j = parse_timefn("sin(t)").jet2(0.0)
    assert (j.v, j.d1, j.d2) == (0.0, 1.0, 0.0)


def test_eval_exp_chain_rule_with_fd_crosscheck():
    f = parse_timefn("exp(2*t)")
    j = f.jet2(0.5)
    e = math.e
    assert abs(j.v - e) / e < 1e-14
    assert abs(j.d1 - 2 * e) / (2 * e) < 1e-14
    assert abs(j.d2 - 4 * e) / (4 * e) < 1e-14
    # central finite differences, h = 1e-5
    h = 1e-5
    fp = (f.value(0.5 + h) - f.value(0.5 - h)) / (2 * h)
    fpp = (f.value(0.5 + h) - 2 * f.value(0.5) + f.value(0.5 - h)) / h ** 2
    assert abs(j.d1 - fp) / abs(fp) < 1e-8
    assert abs(j.d2 - fpp) / abs(fpp) < 1e-4


def test_domain_errors():
    with pytest.raises(ExprDomainError):
        parse_timefn("log(t)").jet2(-1.0)
    with pytest.raises(ExprDomainError):
        parse_timefn("log(t)").jet2(0.0)
    with pytest.raises(ExprDomainError):
        parse_timefn("1/t").jet2(0.0)
    with pytest.raises(ExprDomainError):
        parse_timefn("t^-1").jet2(0.0)


@pytest.mark.parametrize("text,message", [
    ("exp(1000*t)", "exp of 1000.0 overflows"),
    ("exp(1000*t + i)", "exp of (1000+1j) overflows"),
])
def test_exp_overflow_is_a_domain_error_at_a_point_and_on_a_grid(text, message):
    fn = parse_timefn(text)
    for call in (fn.value, fn.jet2):
        with pytest.raises(ExprDomainError, match=re.escape(message)):
            call(1.0)
    with pytest.raises(ExprDomainError, match=re.escape(message.replace("1000", "750"))):
        fn.jet2(np.linspace(0.0, 1.0, 5))


def test_power_overflow_of_a_value_is_a_domain_error():
    # at a point and on a grid (where numpy must not warn), value and jet
    # alike; the jet's derivative terms overflow first, from t = 0.4993
    for text in ("exp(700*t)^2", "(exp(700*t) + i)^2"):
        fn = parse_timefn(text)
        for call in (fn.value, fn.jet2):
            with pytest.raises(ExprDomainError, match=r"^\(?1\.0142\d*e\+304\S*\^2 overflows$"):
                call(1.0)
        with pytest.raises(ExprDomainError, match=r"^\(?1\.007\d*e\+152\S*\^2 overflows$"):
            fn.jet2(np.linspace(0.0, 1.0, 3))


#: domain errors at one point, with their texts
POINT_ERRORS = [
    ("1/(t - 1)", 1.0, "division by zero"),
    ("log(t - 2)", 1.0, "log of non-positive value -1.0"),
    ("log(i*(t - 1))", 1.0, "log of zero"),
    ("(t - 1)^-2", 1.0, "zero raised to a negative power"),
    ("exp(1000*t)", 1.0, "exp of 1000.0 overflows"),
    ("t^2", 1e200, "1e+200^2 overflows"),
    ("sin(exp(700*t)*exp(700*t))", 1.0, "sin of infinite value inf"),
    ("cos(i + exp(700*t)*exp(700*t))", 1.0, "cos of infinite value (inf+1j)"),
]


@pytest.mark.parametrize("text,t,message", POINT_ERRORS)
def test_domain_errors_agree_at_a_point_and_on_a_grid(text, t, message):
    fn = parse_timefn(text)
    for call in (fn.value, fn.jet2):
        for at in (t, np.array([t])):
            with pytest.raises(ExprDomainError, match=f"^{re.escape(message)}$"):
                call(at)


def test_product_overflow_is_a_domain_error_of_the_jet():
    # a product has no check of its own: the jet tests its value once, at a
    # point and on a grid (where numpy must not warn); a plain value stays
    # inf, for its caller to test
    fn = parse_timefn("exp(700*t)*exp(700*t)")
    for t in (1.0, np.linspace(0.0, 1.0, 5)):
        with pytest.raises(ExprDomainError, match=r"^exp\(700 \* t\) \* exp\(700 \* t\) overflows$"):
            fn.jet2(t)
    assert fn.value(1.0) == math.inf
    assert fn.value(np.linspace(0.0, 1.0, 5))[-1] == math.inf


def test_compiled_value_leaves_equality_hash_and_repr_alone():
    f, g = parse_timefn("sin(t)^2"), parse_timefn("sin(t)^2")
    f.value(0.5)  # a point value of f alone
    assert f == g and hash(f) == hash(g) and repr(f) == repr(g)


def test_timefn_pickles_after_a_point_value():
    f = parse_timefn("sin(t)^2")
    ts = [0.1 * k for k in range(11)]
    want = [_bits(f.value(t)) for t in ts]
    g = pickle.loads(pickle.dumps(f))
    assert g == f and [_bits(g.value(t)) for t in ts] == want


@pytest.mark.parametrize("text", ["-1", "2*3 + sin(1)", "(2 + i)^-2"])
def test_a_t_free_jet_is_the_same_at_every_time_and_on_a_grid(text):
    fn, times = parse_timefn(text), (0.3, 0.0, 0.9, np.linspace(0.0, 1.0, 5))

    def hexes(jet):  # complex() also rejects a grid array: a t-free jet is plain numbers
        return [x if x is None else (complex(x).real.hex(), complex(x).imag.hex())
                for x in (jet.v, jet.d1, jet.d2, jet.d3)]
    for order in (2, 3):
        first, *rest = (hexes(fn.jet2(t, order=order)) for t in times)
        assert (first[3] is None) == (order == 2)
        assert rest == [first] * 3


def test_a_t_dependent_jet_is_evaluated_at_every_call(monkeypatch):
    fn, calls, series = parse_timefn("sin(t)"), [], expr._series
    monkeypatch.setattr(expr, "_series", lambda *a: calls.append(a[2]) or series(*a))
    assert fn.jet2(0.3) == fn.jet2(0.3) and fn.jet2(0.3, order=3).d3 is not None
    assert calls == [2, 2, 3]


@pytest.mark.parametrize("text", ["-1", "sin(t)^2"])
def test_a_timefn_that_served_jets_pickles_and_copies(text):
    fn = parse_timefn(text)
    fresh = pickle.dumps(fn)
    want = [_bits(fn.jet2(0.5, order=k).v) for k in (2, 3)] + [_bits(fn.value(0.5))]
    # what a ladder worker receives: the fields alone, as before any jet
    assert pickle.dumps(fn) == fresh
    for g in (pickle.loads(pickle.dumps(fn)), copy.deepcopy(fn)):
        assert g == fn and hash(g) == hash(fn)
        assert [_bits(g.jet2(0.5, order=k).v) for k in (2, 3)] + [_bits(g.value(0.5))] == want


@pytest.mark.parametrize("shape", ["sum", "sines"])
def test_an_expression_at_the_depth_bound_parses_evaluates_and_prints(shape):
    n = MAX_DEPTH - 1
    text = "+".join(["0.001*t"] * n) if shape == "sum" else "sin(" * n + "t" + ")" * n
    fn = parse_timefn(text)
    assert _depth(fn.ast) == MAX_DEPTH
    assert parse_timefn(fn.to_string()) == fn == pickle.loads(pickle.dumps(fn))
    want = [0.0005 * n, 0.001 * n]  # value and first derivative at t = 0.5
    if shape == "sines":
        want = [0.5, 1.0]
        for _ in range(n):
            want = [math.sin(want[0]), math.cos(want[0]) * want[1]]
    jet = fn.jet2(0.5, order=3)
    grid = fn.jet2(np.array([0.25, 0.5]))
    assert fn.value(0.5) == pytest.approx(want[0], rel=1e-12)
    assert jet.v == grid.v[1] == pytest.approx(want[0], rel=1e-12)
    assert jet.d1 == grid.d1[1] == pytest.approx(want[1], rel=1e-12)
    with pytest.raises(ExprError, match=f"nested deeper than {MAX_DEPTH} levels"):
        parse_timefn(f"({text})+1" if shape == "sum" else f"sin({text})")


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def test_battery_coefficients_evaluate_as_python_does(python_value):
    for member in BATTERY.values():
        ts = np.linspace(0.0, member.op.horizon, 257).tolist()
        for fn in member.op.coeffs.values():
            ref = python_value(fn)
            assert [_bits(fn.value(t)) for t in ts] == [_bits(ref(t)) for t in ts], fn


def test_real_expressions_have_exactly_zero_imaginary_jets():
    for text in ("t^2 - 1", "sin(t)*exp(t)", "cos(t)/(t^2 + 1)", "log(t + 2)"):
        j = parse_timefn(text).jet2(0.7)
        assert j.v.imag == 0.0 and j.d1.imag == 0.0 and j.d2.imag == 0.0


def test_complex_evaluation():
    j = parse_timefn("i*t^2").jet2(3.0)
    assert j.v == 9.0j and j.d1 == 6.0j and j.d2 == 2.0j


# ---------------------------------------------------------------------------
# randomized properties


def _leaf(imag=True):
    return st.one_of(
        st.just(TimeVar()),
        st.builds(Num, st.floats(min_value=-4.0, max_value=4.0,
                                 allow_nan=False, allow_infinity=False)),
        *([st.just(Imag())] if imag else []),
    )


def _ast(imag=True):
    return st.recursive(
        _leaf(imag),
        lambda children: st.one_of(
            st.builds(BinOp, st.sampled_from("+-*/"), children, children),
            st.builds(Pow, children, st.integers(min_value=0, max_value=3)),
            st.builds(Call, st.sampled_from(("sin", "cos", "exp", "log")), children),
        ),
        max_leaves=12,
    )


@settings(max_examples=200, deadline=None)
@given(_ast())
@example(BinOp("+", TimeVar(), Num(-0.0)))
def test_print_parse_roundtrip_is_identity(ast):
    from hyp3.expr import TimeFn
    text = TimeFn.from_ast(ast).to_string()
    assert parse_timefn(text).ast == ast


@settings(max_examples=200, deadline=None)
@given(_ast(imag=False), st.floats(min_value=-3.0, max_value=3.0))
def test_point_value_of_random_real_asts_is_pythons_own(python_value, ast, t):
    fn = TimeFn.from_ast(ast)
    try:
        expected = python_value(fn)(t)
    except (ZeroDivisionError, OverflowError, ValueError):
        with pytest.raises(ExprDomainError):
            fn.value(t)
    else:
        assert _bits(fn.value(t)) == _bits(expected)


def _compile(node):
    """The value of ``node`` at one time as a tree of closures, a subtree's value
    complex where it holds ``i``: the point evaluator that the emitted code
    replaced, kept as its oracle."""
    if isinstance(node, (Num, Imag)):
        v = 1j if isinstance(node, Imag) else node.value
        return lambda t: v
    if isinstance(node, TimeVar):
        return float
    if isinstance(node, BinOp):
        g = _compile(node.rhs)
        if isinstance(node.lhs, Num) and node.op != "/":  # a constant operand, with no call
            v = node.lhs.value
            return {"+": lambda t: v + g(t), "-": lambda t: v - g(t),
                    "*": lambda t: v * g(t)}[node.op]
        f = _compile(node.lhs)
        return {"+": lambda t: f(t) + g(t), "-": lambda t: f(t) - g(t),
                "*": lambda t: f(t) * g(t), "/": lambda t: _sdiv([f(t)], [g(t)])[0]}[node.op]
    if isinstance(node, Pow):
        f, n = _compile(node.base), node.exponent

        def power(t):
            a = f(t)
            if n < 0 and a == 0:
                raise ExprDomainError("zero raised to a negative power")
            try:
                return a ** n
            except OverflowError:
                raise ExprDomainError(f"{a!r}^{_clip(n)} overflows") from None
        return power
    f, func = _compile(node.arg), node.func
    if func in ("exp", "log"):
        g = _exp if func == "exp" else _log
        return lambda t: g(f(t))
    g = getattr(cmath if any(isinstance(n, Imag) for n in _walk(node.arg)) else math, func)

    def trig(t):
        x = f(t)
        try:
            return g(x)
        except ValueError:
            raise ExprDomainError(f"{func} of infinite value {x!r}") from None
    return trig


def _outcome(at, t):
    """A point evaluation's type and the float.hex of both parts of its value,
    or its error's type and text."""
    try:
        x = at(t)
    except (ArithmeticError, ExprError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    return type(x).__name__, complex(x).real.hex(), complex(x).imag.hex()


def _point_error_examples(test):
    """An example of each row of the point-error table, and one whose two
    operands both fail at t = 1, where the left one's error is raised."""
    for text, t, _ in [*POINT_ERRORS, ("log(t - 2) + 1/(t - 1)", 1.0, None)]:
        test = example(parse_timefn(text).ast, t)(test)
    return test


@settings(max_examples=300, deadline=None)
@given(_ast(), st.floats(min_value=-3.0, max_value=3.0))
@_point_error_examples
def test_point_value_is_the_closure_oracles_to_the_bit(ast, t):
    # the emitted statements do the closures' float operations in their
    # order, and raise their errors with their texts, at t and at -0.0
    fn, oracle = TimeFn.from_ast(ast), _compile(ast)
    for tk in (t, -0.0):
        assert _outcome(fn.value, tk) == _outcome(oracle, tk), (fn.to_string(), tk)


def test_jet_vs_central_differences_1000_random_asts():
    """d1, d2 agree with central differences (steps 1e-4, 1e-5) to 1e-6
    relative on domain-safe samples of depth <= 5."""
    import random

    rng = random.Random(20240817)

    def rand_ast(depth):
        if depth == 0 or rng.random() < 0.3:
            r = rng.random()
            if r < 0.5:
                return TimeVar()
            return Num(round(rng.uniform(-3, 3), 3))
        r = rng.random()
        if r < 0.45:
            return BinOp(rng.choice("+-*"), rand_ast(depth - 1), rand_ast(depth - 1))
        if r < 0.55:
            return BinOp("/", rand_ast(depth - 1),
                         BinOp("+", Pow(rand_ast(depth - 1), 2), Num(rng.uniform(1, 3))))
        if r < 0.75:
            return Call(rng.choice(("sin", "cos")), rand_ast(depth - 1))
        if r < 0.85:
            return Call("exp", BinOp("*", Num(rng.uniform(-0.3, 0.3)), rand_ast(depth - 1)))
        return Pow(rand_ast(depth - 1), rng.randint(0, 3))

    from hyp3.expr import TimeFn

    def stencils(f, t0, h):
        fp2, fp1, f0, fm1, fm2 = (f.value(t0 + k * h) for k in (2, 1, 0, -1, -2))
        d1 = (-fp2 + 8 * fp1 - 8 * fm1 + fm2) / (12 * h)
        d2 = (-fp2 + 16 * fp1 - 30 * f0 + 16 * fm1 - fm2) / (12 * h * h)
        return d1, d2

    checked = 0
    tries = 0
    while checked < 1000 and tries < 20000:
        tries += 1
        f = TimeFn.from_ast(rand_ast(5))
        t0 = rng.uniform(-1.5, 1.5)
        try:
            j = f.jet2(t0)
            fd = [stencils(f, t0, h) for h in (1e-4, 1e-5)]
        except ExprDomainError:
            continue
        mags = [abs(j.v), abs(j.d1), abs(j.d2)]
        if not all(m < 1e5 for m in mags):
            continue
        best_d1 = min(abs(j.d1 - d1) for d1, _ in fd)
        best_d2 = min(abs(j.d2 - d2) for _, d2 in fd)
        # relative to the jet magnitude: the stencil's own noise floor is
        # eps * |f| / h^2, so a tiny d2 under a large f has no absolute 1e-6
        scale1 = max(1.0, abs(j.v), abs(j.d1))
        scale2 = max(1.0, abs(j.v), abs(j.d1), abs(j.d2))
        assert best_d1 <= 1e-6 * scale1, f.to_string()
        assert best_d2 <= 1e-6 * scale2, f.to_string()
        checked += 1
    assert checked == 1000


def test_product_nodes_satisfy_leibniz():
    from hyp3.expr import TimeFn
    f = parse_timefn("sin(t) + t^2")
    g = parse_timefn("exp(t/2) - t")
    prod = TimeFn.from_ast(BinOp("*", f.ast, g.ast))
    for t in (-1.2, 0.0, 0.8, 2.5):
        jf, jg, jp = f.jet2(t), g.jet2(t), prod.jet2(t)
        assert abs(jp.v - jf.v * jg.v) <= 1e-14 * max(1, abs(jp.v))
        d1 = jf.d1 * jg.v + jf.v * jg.d1
        assert abs(jp.d1 - d1) <= 1e-14 * max(1, abs(d1))
        d2 = jf.d2 * jg.v + 2 * jf.d1 * jg.d1 + jf.v * jg.d2
        assert abs(jp.d2 - d2) <= 1e-13 * max(1, abs(d2))


def test_determinism():
    f = parse_timefn("sin(3*t)*exp(t/4) - t^3/7")
    assert f.jet2(1.234) == f.jet2(1.234)


# --------------------------------------------------------------------------
# jets against sympy's derivatives

_TSYM = sympy.Symbol("t", real=True)


def _sympy_jet(text, t):
    """Value, first and second derivative of ``text`` at the float ``t``, from
    sympy's symbolic derivatives evaluated at 30 digits."""
    f = parse_expr(text.replace("^", "**"), local_dict={"t": _TSYM, "i": sympy.I})
    return [complex(sympy.N(sympy.diff(f, _TSYM, k).subs(_TSYM, sympy.Float(t, 30)), 30))
            for k in range(3)]


@pytest.mark.parametrize("text", [
    "log(1 + t^2) / (2 + sin(t))",
    "1 / (1 + t)",
    "t / (1 + exp(-3*t))",
    "log(2 + cos(3*t)) / (1 + t^2)^2",
    "1 / log(2 + t) - log(3 - t) / t",
    "(1 + i*t) / (2 - t)",
    "log(1 + t + i*t^2) / (1 + i)",
])
def test_jets_with_log_and_division_match_sympy(text):
    # at a point and on a grid: value, d1 and d2 to 1e-13 relative to the
    # size of each, or of 1 where it nearly vanishes
    f = parse_timefn(text)
    ts = np.linspace(0.05, 0.95, 19)
    grid = f.jet2(ts)
    for k, t in enumerate(ts.tolist()):
        point = f.jet2(t)
        for got_point, got_grid, want in zip((point.v, point.d1, point.d2),
                                             (grid.v, grid.d1, grid.d2), _sympy_jet(text, t)):
            for got in (got_point, np.broadcast_to(got_grid, ts.shape)[k]):
                assert abs(got - want) <= 1e-13 * max(1.0, abs(want)), (t, got, want)


@pytest.mark.parametrize("text,message", [
    ("t $ 1", "unrecognized character '$' at offset 2"),
    ("t^2.5", "exponent must be an integer, got '2.5' at offset 2"),
    ("(" * 301 + "t" + ")" * 301, "expression nested deeper than 300 levels"),
    ("t ", None),  # trailing blanks end the input
])
def test_expression_input_errors_name_their_cause(text, message):
    if message is None:
        assert parse_timefn(text) == parse_timefn("t")
        return
    with pytest.raises(ExprError) as exc:
        parse_timefn(text)
    assert str(exc.value) == message
