import math
import random
from dataclasses import fields

import numpy as np
import pytest

from hyp3 import modes
from hyp3.battery import BATTERY, battery_names
from hyp3.conditions import pointwise_levi
from hyp3.cubic import CubicJet, delta1, derivative_quadratic, discriminant, solve_cubic_real
from hyp3.errors import (ExprDomainError, HyperbolicityViolation, NearMultipleRoot,
                         OperatorSpecError)
from hyp3.expr import Jet2, TimeFn
from hyp3.expr import parse_timefn as P
from hyp3.operators import (
    Operator2,
    Operator3,
    TauPoly,
    _symbols_at,
    measure_separation,
    regularized_cubic,
    symbol_grid,
)


def _op(name, coeffs, horizon=1.0, dim=1):
    return Operator3(name, dim, horizon, {k: P(v) for k, v in coeffs.items()})


WAVE = _op("wave", {(1, (2,)): "-1"})
OLEINIK = _op("oleinik", {(1, (2,)): "-t^2", (0, (2,)): "t"})


def test_principal_wave_operator():
    c = WAVE.principal(0.3, np.array([5.0]))
    assert (c.a1.v, c.a2.v, c.a3.v) == (0.0, -25.0, 0.0)


def test_principal_time_dependent_jets():
    op = _op("t2", {(1, (2,)): "-t^2"})
    c = op.principal(0.5, np.array([8.0]))
    assert c.a2.v == -0.25 * 64
    assert c.a2.d1 == -64.0
    assert c.a2.d2 == -128.0


def test_principal_at_zero_frequency_reduces_to_temporal_terms():
    c = OLEINIK.principal(0.7, np.array([0.0]))
    assert (c.a1.v, c.a2.v, c.a3.v) == (0.0, 0.0, 0.0)


def test_lower_symbols_constant_coefficients_have_zero_drift():
    op = _op("c", {(0, (2,)): "3", (1, (1,)): "2", (0, (1,)): "1"})
    m, n, p = op.lower_polys(0.4, np.array([2.0]))
    assert all(c.d1 == 0 and c.d2 == 0 for c in m.coeffs)
    assert all(c.d1 == 0 for c in n.coeffs)
    _, d_t, _ = m.at(1.7)
    assert d_t == 0


def test_lower_symbols_values():
    # order-2 part c*t*dx^2 stores the real monomial c*t*xi^2
    op = _op("m", {(0, (2,)): "2*t"})
    m, n, p = op.lower_polys(0.5, np.array([3.0]))
    assert m.value_at(11.0) == 1.0 * 9.0  # tau-independent
    assert n.value_at(11.0) == 0.0
    # order-1 part d_t gives exactly the root variable
    op2 = _op("n", {(1, (0,)): "1"})
    _, n2, _ = op2.lower_polys(0.5, np.array([3.0]))
    assert n2.value_at(7.25) == 7.25


def test_checked_m_examples():
    # L = tau (tau^2 - t^2 xi^2), M = c t xi^2: corrected symbol (c+1) t xi^2
    for c_coef in (1.0, 2.5):
        op = _op("olk", {(1, (2,)): "-t^2", (0, (2,)): f"{c_coef}*t"})
        mc = symbol_grid(op, [0.5], np.array([4.0])).mc
        assert mc.coeffs[1].v == 0 and mc.coeffs[2].v == 0
        assert abs(mc.coeffs[0].v - (c_coef + 1.0) * 0.5 * 16.0) < 1e-12
    # constant principal part: no correction
    op = _op("const", {(1, (2,)): "-1", (0, (2,)): "1"})
    mc = symbol_grid(op, [0.3], np.array([4.0])).mc
    assert mc.value_at(2.0) == 16.0
    # order-2 symbol chosen as half the principal drift cancels exactly
    op = _op("cancel", {(1, (2,)): "-t^2", (0, (2,)): "-t"})
    mc = symbol_grid(op, [0.7], np.array([4.0])).mc
    assert abs(mc.value_at(3.0)) < 1e-12


def test_checked_n_examples():
    # L = (tau - t^2 xi)^3, M = N = 0: corrected order-1 symbol is -xi
    op = _op("trip", {(2, (1,)): "-3*t^2", (1, (2,)): "3*t^4", (0, (3,)): "-t^6"})
    nc = symbol_grid(op, [0.8], np.array([2.0])).nc
    assert abs(nc.coeffs[0].v - (-2.0)) < 1e-12
    assert abs(nc.coeffs[1].v) < 1e-12
    # M = m(t) tau^2, N = 0, constant L: corrected symbol is -m'(t) tau
    op = _op("mt2", {(2, (0,)): "sin(t)"})
    nc = symbol_grid(op, [0.3], np.array([5.0])).nc
    assert abs(nc.coeffs[1].v + math.cos(0.3)) < 1e-12
    assert nc.coeffs[0].v == 0.0
    # constant coefficients: no correction at all
    op = _op("cn", {(0, (1,)): "4"})
    nc = symbol_grid(op, [0.3], np.array([5.0])).nc
    assert nc.value_at(1.23) == 20.0


def test_regularize_triple_root():
    op = _op("t3", {})
    lam = symbol_grid(op, [0.0], np.array([7.0])).lam[:, 0]
    assert np.allclose(lam, (-math.sqrt(6), 0.0, math.sqrt(6)), atol=1e-12)


def test_regularize_eps_zero_is_identity():
    c = WAVE.principal(0.2, np.array([10.0]))
    reg = regularized_cubic(c, 0.0)
    assert (reg.a1.v, reg.a2.v, reg.a3.v) == (c.a1.v, c.a2.v, c.a3.v)
    assert np.allclose(solve_cubic_real(reg).r, (-10.0, 0.0, 10.0), atol=1e-9)


def test_regularize_strict_operator_shifts_within_unit():
    r = symbol_grid(WAVE, [0.0], np.array([10.0])).lam[:, 0]
    assert np.all(np.abs(np.array(r) - np.array([-10.0, 0.0, 10.0])) < 2.0)
    assert min(r[1] - r[0], r[2] - r[1]) > 1.0


def test_regularized_discriminant_expansion_and_crit_shift():
    rng = random.Random(11)
    for _ in range(2000):
        roots = [rng.uniform(-5, 5) for _ in range(3)]
        a1 = -sum(roots)
        a2 = roots[0] * roots[1] + roots[1] * roots[2] + roots[2] * roots[0]
        a3 = -roots[0] * roots[1] * roots[2]
        from hyp3.cubic import cubic_from_floats
        c = cubic_from_floats(a1, a2, a3)
        e = math.exp(rng.uniform(math.log(0.3), math.log(3.0)))
        reg = regularized_cubic(c, e * e)
        db24 = 4 * a1 * a1 - 12 * a2
        lhs = discriminant(reg)
        rhs = (discriminant(c) + 0.5 * e ** 2 * db24 ** 2
               + 36 * e ** 4 * db24 + 864 * e ** 6)
        assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), abs(rhs), 1.0)
        db24_reg = 4 * reg.a1.v.real ** 2 - 12 * reg.a2.v.real
        assert abs((db24_reg - db24) - 72 * e * e) <= 1e-12 * 72 * e * e


def test_auxiliary_roots_triple():
    op = _op("t3", {})
    aux = symbol_grid(op, [0.0], np.array([9.0]))
    assert np.allclose(aux.lam[:, 0], (-math.sqrt(6), 0, math.sqrt(6)), atol=1e-12)
    assert np.allclose(aux.mu[:, 0], (-math.sqrt(2), math.sqrt(2)), atol=1e-12)
    assert np.allclose(aux.mu_d1[:, 0], (0.0, 0.0), atol=1e-15)


def test_auxiliary_shift_bounded_uniformly_in_xi():
    for mag in (16.0, 256.0, 4096.0):
        aux = symbol_grid(WAVE, [0.0], np.array([mag]))
        plain = (-mag, 0.0, mag)
        shift = max(abs(a - b) for a, b in zip(aux.lam[:, 0], plain))
        assert shift < 3.0


def test_auxiliary_constant_in_t_for_constant_cubic():
    aux = symbol_grid(WAVE, [0.33], np.array([64.0]))
    assert np.allclose(aux.lam_d1, 0.0, atol=1e-12)
    assert np.allclose(aux.lam_d2, 0.0, atol=1e-12)


def test_comparability_of_regularized_and_plain_gaps():
    # |tau_{j,eps} - tau_{h,eps}| stays within fixed multiples of
    # |tau_j - tau_h| + 1, and the root shift stays bounded, along the ladder
    for op in (WAVE, OLEINIK):
        ratios = []
        shifts = []
        for mag in (16.0, 64.0, 256.0, 1024.0, 4096.0):
            g = symbol_grid(op, np.linspace(0.0, 1.0, 41), np.array([mag]))
            plain, reg = g.tau, g.lam
            for j, h in ((0, 1), (1, 2), (2, 0)):
                ratios.extend(abs(reg[j] - reg[h]) / (abs(plain[j] - plain[h]) + 1.0))
            shifts.extend(np.max(np.abs(reg - plain), axis=0))
        assert 0.2 < min(ratios) and max(ratios) < 5.0
        assert max(shifts) < 4.0


def test_lagrange_reconstruction_of_order2_symbol():
    rng = random.Random(7)
    op = _op("full", {(1, (2,)): "-(2+sin(t))^2", (2, (0,)): "0.5",
                      (1, (1,)): "0.25*t", (0, (2,)): "0.1"})
    xi = np.array([32.0])
    for t in (0.1, 0.7, 1.3):
        g = symbol_grid(op, [t], xi)
        mc, r = g.mc, g.lam[:, 0]
        ell = []
        for j, h, l in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            ell.append(mc.value_at(r[j]) / ((r[j] - r[h]) * (r[j] - r[l])))
        for _ in range(100):
            tau = rng.uniform(-3 * 32.0, 3 * 32.0)
            rec = sum(e * (tau - r[h]) * (tau - r[l])
                      for e, (j, h, l) in zip(ell, ((0, 1, 2), (1, 2, 0), (2, 0, 1))))
            ref = mc.value_at(tau)
            assert abs(rec - ref) <= 1e-8 * max(1.0, abs(ref))


def test_symbol_jets_linear_in_coefficients():
    base = {(0, (2,)): "sin(t)+2", (1, (1,)): "t", (2, (0,)): "cos(t)"}
    scaled = {k: f"2.5*({v})" for k, v in base.items()}
    m1 = _op("a", base).lower_polys(0.6, np.array([3.0]))[0].at(1.1)
    m2 = _op("b", scaled).lower_polys(0.6, np.array([3.0]))[0].at(1.1)
    for a, b in zip(m1, m2):  # value, d_t, d_tau
        assert abs(b - 2.5 * a) < 1e-12 * max(1, abs(b))


def test_principal_part_must_be_real():
    with pytest.raises(OperatorSpecError):
        _op("bad", {(1, (2,)): "i*t"})


def test_table_shape_validation():
    with pytest.raises(OperatorSpecError):
        _op("bad", {(3, (0,)): "1"})
    with pytest.raises(OperatorSpecError):
        _op("bad", {(1, (3,)): "1"})
    with pytest.raises(OperatorSpecError):
        _op("bad", {(1, (1, 1)): "1"})
    with pytest.raises(OperatorSpecError):
        Operator2("bad", 1, 1.0, {(1, (2,)): P("1")})


def test_measure_separation_stability():
    rows = measure_separation(OLEINIK, ladder=[2.0 ** k for k in range(4, 17)], nt=128)
    gaps = [r["min_gap"] for r in rows]
    shifts = [r["max_shift"] for r in rows]
    assert min(gaps) > 0.5
    for a, b in zip(gaps, gaps[1:]):
        assert b >= 0.9 * a
    for a, b in zip(shifts, shifts[1:]):
        assert b <= 1.1 * a + 1e-9


def test_symbol_grid_needs_a_time():
    with pytest.raises(ValueError):
        symbol_grid(WAVE, [], np.array([8.0]))


def test_hyperbolicity_scan_names_the_offending_point():
    # t - 0.5 >= 0 makes the roots of tau^3 + (t - 0.5) xi^2 tau complex:
    # the first grid time past 0.5 is 128/255; the pointwise checks' grids
    # are the scan, and report the principal discriminant there
    op = _op("late", {(1, (2,)): "t - 0.5"})
    pointwise_levi(OLEINIK, [64.0, 128.0], np.array([1.0]))  # hyperbolic: passes
    with pytest.raises(HyperbolicityViolation,
                       match=r"^discriminant -2072\.19 below the hyperbolicity tolerance, "
                             r"at t=0\.501961, xi=\[64\.\]$"):
        pointwise_levi(op, [64.0, 128.0], np.array([1.0]))


def _rows(field):
    """The per-time rows of one :class:`Symbols` field."""
    if isinstance(field, CubicJet):
        return [r for j in (field.a1, field.a2, field.a3) for r in _rows(j)]
    if isinstance(field, TauPoly):
        return [r for j in field.coeffs for r in _rows(j)]
    if isinstance(field, Jet2):
        return [field.v, field.d1, field.d2] + ([] if field.d3 is None else [field.d3])
    if np.ndim(field) == 2 or isinstance(field, tuple):
        return list(field)
    return [field]


IMAG_LOWER = _op("imag_lower", {(1, (2,)): "-(2+sin(t))^2", (0, (1,)): "0.5*i*t",
                                (1, (0,)): "i*cos(t)"})


@pytest.mark.parametrize("mag", [64.0, 4096.0])
@pytest.mark.parametrize("op", [BATTERY[n].op for n in battery_names(order=3)] + [IMAG_LOWER],
                         ids=battery_names(order=3) + ["imag_lower"])
def test_symbol_grid_equals_its_points(op, mag):
    xi = np.array([mag])
    ts = np.linspace(0.0, op.horizon, 64)
    grid = symbol_grid(op, ts, xi)
    for i, t in enumerate(ts):
        point = _symbols_at(op, float(t), xi)
        for f in fields(point):
            if f.name == "t":
                continue
            grid_rows, point_rows = _rows(getattr(grid, f.name)), _rows(getattr(point, f.name))
            assert len(grid_rows) == len(point_rows), f.name
            for k, (g, p) in enumerate(zip(grid_rows, point_rows)):
                assert np.shape(g) == ts.shape, (f.name, k)
                # bitwise: equal values, or NaN on both sides
                assert g[i] == p or (g[i] != g[i] and p != p), (f.name, k, t)


@pytest.mark.parametrize("mag", [64.0, 4096.0])
@pytest.mark.parametrize("term", ["log(t*t + i)", "log(cos(t) + i)", "sin(i*t)",
                                  "cos(0.3*t + i*t)", "exp(i*t)/(2 + i*t)"])
def test_complex_lower_order_grid_matches_its_points(term, mag):
    # numpy's complex product and quotient round differently from Python's,
    # so a complex lower-order term agrees with its points to rounding only
    op = _op("complex_lower", {(1, (2,)): "-(2+sin(t))^2", (0, (0,)): term,
                               (0, (1,)): term, (1, (0,)): term})
    xi = np.array([mag])
    ts = np.linspace(0.0, op.horizon, 64)
    grid = symbol_grid(op, ts, xi)
    for i, t in enumerate(ts):
        point = _symbols_at(op, float(t), xi)
        for f in fields(point):
            if f.name == "t":
                continue
            for k, (g, p) in enumerate(zip(_rows(getattr(grid, f.name)),
                                           _rows(getattr(point, f.name)))):
                assert np.shape(g) == ts.shape, (f.name, k)
                g_i, p_i = complex(g[i]), complex(p)
                for x, y in ((g_i.real, p_i.real), (g_i.imag, p_i.imag)):
                    # NaN on both sides: a jet entry that is never consumed
                    assert x == pytest.approx(y, rel=1e-13, abs=1e-16 * mag ** 2, nan_ok=True), \
                        (f.name, k, t)


def test_constant_coefficient_grid_has_full_length_rows():
    g = symbol_grid(_op("cc", {(1, (2,)): "-1", (0, (0,)): "2"}), np.linspace(0.0, 1.0, 5),
                    np.array([8.0]))
    for f in fields(g):
        for row in _rows(getattr(g, f.name)):
            assert np.shape(row) == (5,), f.name
    assert g.tau.shape == g.lam_d2.shape == (3, 5) and g.mu.shape == (2, 5)


@pytest.mark.parametrize("coeffs, ts", [
    # derivative-quadratic discriminant below tolerance only within 1e-6 of
    # t = 0.3, a time the grid k/250 holds
    ({(1, (2,)): "-(t - 0.3)^2 + 0.000000000001"}, np.linspace(0.0, 1.0, 251)),
    # log of a non-positive value from the first time on
    ({(1, (2,)): "-1", (0, (0,)): "log(t - 0.5)"}, np.linspace(0.0, 1.0, 256)),
    # ... and from the middle of the grid on
    ({(1, (2,)): "-1", (0, (0,)): "log(0.5 - t)"}, np.linspace(0.0, 1.0, 256)),
    # two causes: the roots turn complex past t = 0.2, the log fails from
    # t = 0.7 on; the grid evaluates the log first, a point the roots first
    ({(1, (2,)): "t - 0.2", (0, (0,)): "log(0.7 - t)"}, np.linspace(0.0, 1.0, 256)),
], ids=["derivative_quadratic", "log_from_start", "log_from_middle", "roots_before_log"])
def test_symbol_grid_names_the_first_failing_point(coeffs, ts):
    op = _op("bad", coeffs)
    xi = np.array([64.0])
    errors = (HyperbolicityViolation, ExprDomainError, NearMultipleRoot)
    with pytest.raises(errors) as grid_exc:
        symbol_grid(op, ts, xi)
    for t in ts:
        try:
            _symbols_at(op, float(t), xi)
        except errors as exc:
            assert type(grid_exc.value) is type(exc)
            assert str(grid_exc.value) == str(exc)
            break
    else:
        pytest.fail("no grid time fails on its own")
    if "0.7" in str(coeffs):
        assert grid_exc.type is HyperbolicityViolation



def _lower_bits(op, t, xi):
    """The lower-order symbol jets at ``t``, each part as ``float.hex`` text."""
    m, n, p = op.lower_polys(t, xi)
    return [tuple(None if x is None else (complex(x).real.hex(), complex(x).imag.hex())
                  for x in (j.v, j.d1, j.d2, j.d3)) for j in m.coeffs + n.coeffs + (p,)]


def test_a_kept_copy_evaluates_each_term_once_per_time(monkeypatch):
    # 0.0 and -0.0 are two times, since sin(-0.0) is -0.0; log(t) has weight 0
    # along (1, 0), so it is never evaluated, and its error at t = 0 never shows
    op = _op("kept", {(1, (2, 0)): "-1", (0, (1, 0)): "sin(t)", (0, (0, 1)): "log(t)"}, dim=2)
    xi = np.array([64.0, 0.0])
    times = (0.0, -0.0, 0.0, -0.0, 0.75, 0.75)
    want = [_lower_bits(op, t, xi) for t in times]
    kept, calls, jet2 = op._keeping_jets(), [], TimeFn.jet2

    def counted(fn, t, order=2):
        calls.append((fn.to_string(), order, t.hex()))
        return jet2(fn, t, order)
    monkeypatch.setattr(TimeFn, "jet2", counted)
    assert [_lower_bits(kept, t, xi) for t in times] == want
    assert calls == [("sin(t)", 2, "0x0.0p+0"), ("sin(t)", 2, "-0x0.0p+0"),
                     ("sin(t)", 2, "0x1.8000000000000p-1")]
    op.lower_polys(0.75, xi)  # the operator it was copied from keeps nothing
    assert len(calls) == 4


def test_a_kept_copy_keeps_no_jet_that_raises():
    op = _op("fails", {(1, (2,)): "-1", (0, (0,)): "log(t - 0.5)"})
    xi = np.array([64.0])
    with pytest.raises(ExprDomainError) as plain:
        _symbols_at(op, 0.25, xi)
    kept = op._keeping_jets()
    for _ in range(2):
        with pytest.raises(ExprDomainError) as exc:
            _symbols_at(kept, 0.25, xi)
        assert str(exc.value) == str(plain.value) == (
            "log of non-positive value -0.25, at t=0.25, xi=[64.]")


@pytest.mark.parametrize("xi", [
    (1e290, 0.0),    # 1e290^2 raises OverflowError
    (1e150, 1e150),  # each power of xi^(2, 1) holds, their product is inf
    (1e150, -1e150),
])
def test_a_frequency_weight_past_the_double_range_is_an_input_error(xi):
    op = _op("mixed", {(1, (2, 0)): "-1", (0, (2, 1)): "1", (0, (1, 1)): "sin(t)"}, dim=2)
    for call in (lambda: symbol_grid(op, [0.0, 0.5], np.array(xi)),
                 lambda: op.principal(0.5, np.array(xi)),
                 lambda: modes._ode_coefficients(op, np.array(xi))):
        with pytest.raises(OperatorSpecError, match="frequency weight xi\\^alpha overflows"):
            call()
