import math
import random
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hyp3.cubic import (
    SIMPLE_ROOT_REL_GAP,
    CubicJet,
    _critical_jets,
    _critical_points,
    _root_dt,
    _simple_root_gap,
    cubic_from_floats,
    delta1,
    discriminant,
    solve_cubic_real,
)
from hyp3.errors import HyperbolicityViolation, NearMultipleRoot, _check_points
from hyp3.expr import BinOp, Jet2, TimeFn, parse_timefn


def _vieta_cubic(r1, r2, r3):
    return cubic_from_floats(-(r1 + r2 + r3), r1 * r2 + r2 * r3 + r3 * r1, -r1 * r2 * r3)


def _derivative_quadratic(c):
    """The critical points of ``c`` with the discriminant data, by the core."""
    return _critical_points(c.a1.v, c.a2.v, c.a3.v)


def _root_jets(c, roots):
    """The first and second time derivatives of the roots of ``c``, by the
    cores the symbol layer runs on its roots: the simple-root guard, then
    implicit differentiation."""
    gap, thr = _simple_root_gap(roots.r)
    _check_points(gap <= thr, NearMultipleRoot, gap, thr)
    return _root_dt(c.a1.v, c.a2.v, c.a1.d1, c.a2.d1, c.a3.d1, c.a1.d2, c.a2.d2, c.a3.d2, roots.r)


def _quad_root_jets(c):
    """The critical points of ``c`` and their first time derivatives, by the core."""
    return _critical_jets(c.a1.v, c.a2.v, c.a3.v, c.a1.d1, c.a2.d1)


def test_solve_distinct_roots():
    roots = solve_cubic_real(cubic_from_floats(-6, 11, -6))
    assert np.allclose(roots.r, (1.0, 2.0, 3.0), rtol=0, atol=1e-12)


def test_solve_triple_root():
    roots = solve_cubic_real(cubic_from_floats(0, 0, 0))
    assert roots.r == (0.0, 0.0, 0.0)


def test_solve_rejects_complex_roots():
    with pytest.raises(HyperbolicityViolation) as exc:
        solve_cubic_real(cubic_from_floats(0, 1, 0))
    assert exc.value.discriminant == -4.0


def test_discriminant_examples():
    assert discriminant(cubic_from_floats(-6, 11, -6)) == 4.0
    assert discriminant(cubic_from_floats(0, 0, 0)) == 0.0
    assert discriminant(cubic_from_floats(0, -3, 2)) == 0.0


def test_delta1_examples():
    assert delta1(cubic_from_floats(-6, 11, -6)) == 6.0
    assert delta1(cubic_from_floats(0, 0, 0)) == 0.0


def test_derivative_quadratic_example():
    s1, s2, disc, gap_sq = _derivative_quadratic(cubic_from_floats(-6, 11, -6))
    assert abs(s1 - (2 - 1 / math.sqrt(3))) < 1e-12
    assert abs(s2 - (2 + 1 / math.sqrt(3))) < 1e-12
    assert abs(disc - (4 * 36 - 12 * 11)) < 1e-12
    assert abs(gap_sq - (s2 - s1) ** 2) < 1e-12


def test_derivative_quadratic_triple():
    s1, s2, _, gap_sq = _derivative_quadratic(cubic_from_floats(0, 0, 0))
    assert s1 == s2 == 0.0 and gap_sq == 0.0


def test_vieta_invariants_random():
    rng = random.Random(1)
    for _ in range(2000):
        r = sorted(rng.uniform(-5, 5) for _ in range(3))
        c = _vieta_cubic(*r)
        roots = solve_cubic_real(c)
        scale = 1.0 + max(abs(c.a1.v), abs(c.a2.v), abs(c.a3.v))
        s = roots.r
        assert abs(s[0] + s[1] + s[2] + c.a1.v) < 1e-9 * scale
        assert abs(s[0] * s[1] + s[1] * s[2] + s[2] * s[0] - c.a2.v) < 1e-9 * scale
        assert abs(s[0] * s[1] * s[2] + c.a3.v) < 1e-9 * scale
        assert s[0] <= s[1] <= s[2]


def test_delta1_equals_sum_of_squared_gaps_and_crit_gap_identity():
    rng = random.Random(2)
    for _ in range(1000):
        r = [rng.uniform(-5, 5) for _ in range(3)]
        c = _vieta_cubic(*r)
        sumsq = (r[0] - r[1]) ** 2 + (r[1] - r[2]) ** 2 + (r[2] - r[0]) ** 2
        assert abs(delta1(c) - sumsq) <= 1e-9 * max(1.0, sumsq)
        _, _, _, gap_sq = _derivative_quadratic(c)
        assert abs(delta1(c) - 4.5 * gap_sq) <= 1e-9 * max(1.0, abs(delta1(c)))


def test_discriminant_vs_root_products_well_separated():
    rng = random.Random(3)
    done = 0
    while done < 1000:
        r = sorted(rng.uniform(-5, 5) for _ in range(3))
        if r[1] - r[0] <= 1e-3 or r[2] - r[1] <= 1e-3:
            continue
        c = _vieta_cubic(*r)
        s = solve_cubic_real(c).r
        prod = ((s[0] - s[1]) * (s[1] - s[2]) * (s[2] - s[0])) ** 2
        d = discriminant(c)
        assert abs(d - prod) <= 1e-8 * max(abs(d), abs(prod), 1.0)
        done += 1


def test_interlacing_of_derivative_roots():
    rng = random.Random(4)
    for _ in range(1000):
        r = sorted(rng.uniform(-5, 5) for _ in range(3))
        c = _vieta_cubic(*r)
        s1, s2, _, _ = _derivative_quadratic(c)
        eps = 1e-9 * (1 + max(map(abs, r)))
        assert r[0] - eps <= s1 <= r[1] + eps <= s2 <= r[2] + 2 * eps
        assert s1 <= r[1] + eps and r[1] - eps <= s2


# ---------------------------------------------------------------------------
# root jets


def _timefn_cubic(r_expr: tuple[str, str, str]) -> CubicJet:
    """Cubic with roots given by expression strings, via symbolic Vieta."""
    r1, r2, r3 = (f"({e})" for e in r_expr)
    a1 = parse_timefn(f"0 - ({r1} + {r2} + {r3})")
    a2 = parse_timefn(f"{r1}*{r2} + {r2}*{r3} + {r3}*{r1}")
    a3 = parse_timefn(f"0 - {r1}*{r2}*{r3}")
    return a1, a2, a3


def _cubic_at(fns, t):
    a1, a2, a3 = fns
    return CubicJet(a1.jet2(t, order=3), a2.jet2(t, order=3), a3.jet2(t, order=3))


def test_root_jets_linear_roots():
    # roots j*t have velocity j and zero curvature
    fns = _timefn_cubic(("t", "2*t", "3*t"))
    c = _cubic_at(fns, 1.0)
    d1, d2 = _root_jets(c, solve_cubic_real(c))
    assert np.allclose(d1, (1.0, 2.0, 3.0), atol=1e-9)
    assert np.allclose(d2, (0.0, 0.0, 0.0), atol=1e-8)


def test_root_jets_constant_cubic():
    c = cubic_from_floats(-6, 11, -6)
    assert _root_jets(c, solve_cubic_real(c)) == ((0.0, 0.0, 0.0), (0.0, 0.0, 0.0))


def test_root_jets_match_finite_differences_of_resolved_roots():
    fns = _timefn_cubic(("sin(t) - 2", "0.5*cos(2*t)", "2 + t^2"))
    rng = random.Random(5)
    h = 1e-5
    for _ in range(50):
        t = rng.uniform(0.1, 1.5)
        c = _cubic_at(fns, t)
        roots = solve_cubic_real(c)
        d1, d2 = _root_jets(c, roots)
        rp = solve_cubic_real(_cubic_at(fns, t + h)).r
        rm = solve_cubic_real(_cubic_at(fns, t - h)).r
        for j in range(3):
            d1_fd = (rp[j] - rm[j]) / (2 * h)
            d2_fd = (rp[j] - 2 * roots.r[j] + rm[j]) / h ** 2
            assert abs(d1[j] - d1_fd) <= 1e-6 * max(1.0, abs(d1[j]))
            assert abs(d2[j] - d2_fd) <= 2e-5 * max(1.0, abs(d2[j]))


def test_root_jets_reject_near_multiple_roots():
    c = cubic_from_floats(0, 0, 0)
    with pytest.raises(NearMultipleRoot):
        _root_jets(c, solve_cubic_real(c))


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize("roots", [
    (-1.0, 0.5, 2.0), (0.0, 0.0, 0.0), (-0.0, 0.0, 3.0), (1e300, 1.5e308, 1.7e308),
    (NAN, 0.0, 1.0), (0.0, NAN, 1.0), (0.0, 1.0, NAN), (NAN, NAN, NAN),
    (0.0, INF, INF), (-INF, 0.0, 1.0), (0.0, 1.0, INF), (-INF, -INF, INF), (NAN, 1.0, INF),
])
def test_simple_root_gap_of_floats_is_numpys_own(roots):
    """The plain-float branch gives numpy's gap and threshold, NaN where numpy's is."""
    got = _simple_root_gap(roots)
    with np.errstate(invalid="ignore"):  # inf - inf
        want = [float(x[0]) for x in _simple_root_gap(tuple(np.array([r]) for r in roots))]
    assert [math.isnan(x) for x in got] == [math.isnan(x) for x in want]
    assert [x.hex() for x in got if not math.isnan(x)] == [
        x.hex() for x in want if not math.isnan(x)]


def test_root_continuity_on_fine_grid():
    fns = _timefn_cubic(("sin(3*t)", "1 + cos(t)", "3 - t"))
    ts = np.linspace(0.0, 2.0, 2001)
    rows = np.array([solve_cubic_real(_cubic_at(fns, float(t))).r for t in ts])
    jumps = np.abs(np.diff(rows, axis=0)).max()
    # branch velocities are at most ~3 here; grid modulus with headroom
    assert jumps <= 6.0 * (ts[1] - ts[0])


def test_hyperbolicity_tolerance_band_clamps_small_negatives():
    # a discriminant at -1e-12 relative scale is rounding, not a violation
    c = cubic_from_floats(0.0, -1e-13, 0.0)
    roots = solve_cubic_real(cubic_from_floats(0.0, 1e-13, 0.0))
    assert max(abs(x) for x in roots.r) < 1e-6
    assert solve_cubic_real(c).r[0] <= solve_cubic_real(c).r[2]


def _on_grid(c, n=3):
    """``c`` repeated at ``n`` grid points."""
    return CubicJet(*(Jet2(np.full(n, j.v), np.zeros(n), np.zeros(n), np.zeros(n))
                      for j in (c.a1, c.a2, c.a3)))


@pytest.mark.parametrize("xi", [2.0 ** k for k in (0, 6, 10, 14, 20)])
def test_the_hyperbolicity_band_scales_with_the_roots(xi):
    # tau^3 - 3 xi^2 tau + 3 xi^3 has complex roots at every |xi|, with discriminant
    # -135 xi^6; a band sized by the coefficients (xi^12) let it through from xi = 64
    c = cubic_from_floats(0.0, -3.0 * xi ** 2, 3.0 * xi ** 3)
    for cubic in (c, _on_grid(c)):
        with pytest.raises(HyperbolicityViolation):
            solve_cubic_real(cubic)
    # 3 tau^2 + xi^2 has no real critical point: discriminant -12 xi^2
    c = cubic_from_floats(0.0, xi ** 2, 0.0)
    for cubic in (c, _on_grid(c)):
        with pytest.raises(HyperbolicityViolation, match="derivative quadratic"):
            _derivative_quadratic(cubic)
    # a double root's rounded discriminant stays inside the band
    c = _vieta_cubic(-2.0 * xi, xi, xi)
    for cubic in (c, _on_grid(c)):
        r = np.asarray(solve_cubic_real(cubic).r, dtype=float)
        assert np.allclose(r.T, [-2.0 * xi, xi, xi], rtol=1e-6)


# ---------------------------------------------------------------------------
# near-double and near-triple roots against a 50-digit oracle

UNIT_ROUNDOFF = 2.0 ** -53
GAPS = [10.0 ** -k for k in range(2, 8)]


def _near_multiple_cubics(kind, rel, count=12):
    """Cubics (float coefficients, Vieta of float roots) whose roots
    ``c + s * (0, rel, 1) * span`` have a smallest gap of ``rel`` times their
    span: a near-double pair at either end of a span from 1 to 4
    ("double"), or a near-triple cluster with a span from 1e-3 to 1e-1
    ("triple"), each with velocities and accelerations for root jets."""
    rng = random.Random(f"{kind}-{rel}")
    out = []
    for _ in range(count):
        c = rng.uniform(-2.0, 2.0)
        span = rng.uniform(1.0, 4.0) if kind == "double" else 10.0 ** rng.uniform(-3.0, -1.0)
        s = rng.choice((-1.0, 1.0))
        r = [c, c + s * rel * span, c + s * span]
        v = [rng.uniform(-1.0, 1.0) for _ in range(3)]
        w = [rng.uniform(-1.0, 1.0) for _ in range(3)]
        out.append(_vieta_jets(r, v, w))
    return out


def _vieta_jets(r, v, w):
    """Coefficient jets (value, d/dt, d2/dt2) of the cubic whose roots move
    as r + v t + w t^2 / 2, at t = 0, rounded to floats."""
    pairs = ((0, 1), (1, 2), (2, 0))
    a1 = (-sum(r), -sum(v), -sum(w))
    a2 = (sum(r[i] * r[k] for i, k in pairs),
          sum(v[i] * r[k] + r[i] * v[k] for i, k in pairs),
          sum(w[i] * r[k] + 2.0 * v[i] * v[k] + r[i] * w[k] for i, k in pairs))
    a3 = (-r[0] * r[1] * r[2],
          -(v[0] * r[1] * r[2] + r[0] * v[1] * r[2] + r[0] * r[1] * v[2]),
          -(w[0] * r[1] * r[2] + r[0] * w[1] * r[2] + r[0] * r[1] * w[2]
            + 2.0 * (v[0] * v[1] * r[2] + v[0] * r[1] * v[2] + r[0] * v[1] * v[2])))
    return a1, a2, a3


@pytest.mark.parametrize("a2", (-4.096e-297, -1e-250, -1e-323, -5e-324))
def test_a_cubic_whose_trigonometric_divisor_underflows_solves_alike_at_points_and_on_grids(a2):
    # r^3 + a2 r has the roots 0 and +-sqrt(-a2); below |a2| ~ 1e-205 the
    # divisor 2pm of the cosine argument underflows, and -5e-324 / 3 is 0
    point = solve_cubic_real(cubic_from_floats(0.0, a2, 0.0)).r
    zero = (0.0, 0.0, 0.0, 0.0)
    grid = solve_cubic_real(_grid([(zero, (a2, 0.0, 0.0, 0.0), zero),
                                   (zero, (-3.0, 0.0, 0.0, 0.0), zero)])).r
    assert [float(r).hex() for r in grid[:, 0]] == [r.hex() for r in point]
    assert list(grid[:, 1]) == list(solve_cubic_real(cubic_from_floats(0.0, -3.0, 0.0)).r)
    root = math.sqrt(-a2)
    if -a2 / 3.0 >= sys.float_info.min:  # else -p/3 is subnormal, and m loses digits
        assert point == pytest.approx((-root, 0.0, root), rel=1e-15, abs=1e-15 * root)
    else:
        assert all(abs(r) <= 2.0 * root for r in point)


def _point(jets):
    return CubicJet(*(Jet2(*j) for j in jets))


def _grid(cubics):
    return CubicJet(*(Jet2(*np.array([c[i] for c in cubics]).T) for i in range(3)))


def _oracle(jets):
    """The exact roots of the float cubic, and for each a bound on a double
    precision solver's error: a perturbation E = 16 u R^3 of the cubic
    (R = 1 + max |r|, so E is 16 u times the size of its terms) moves the
    root r_j by about the smallest of E / |p'(r_j)| (a simple root),
    sqrt(E / |p''(r_j)/2|) (a near-double one) and E^(1/3) (a near-triple
    one)."""
    with mpmath.workdps(50):
        a = [mpmath.mpf(j[0]) for j in jets]
        roots = sorted(mpmath.re(z) for z in mpmath.polyroots([1, *a], maxsteps=200,
                                                                extraprec=200))
        e = 16 * UNIT_ROUNDOFF * (1 + max(abs(r) for r in roots)) ** 3
        bounds = []
        for j, r in enumerate(roots):
            d = abs((r - roots[j - 1]) * (r - roots[j - 2]))
            h = abs(3 * r + a[0])
            bounds.append(float(min(e / d if d else mpmath.inf,
                                    mpmath.sqrt(e / h) if h else mpmath.inf, mpmath.cbrt(e))))
        return roots, bounds


@pytest.mark.parametrize("rel", GAPS)
@pytest.mark.parametrize("kind", ["double", "triple"])
def test_near_multiple_roots_against_mpmath(kind, rel):
    cubics = _near_multiple_cubics(kind, rel)
    grid = solve_cubic_real(_grid(cubics)).r
    for k, jets in enumerate(cubics):
        roots, bounds = _oracle(jets)
        point = solve_cubic_real(_point(jets)).r
        for j in range(3):
            assert abs(point[j] - float(roots[j])) <= bounds[j]
            assert abs(grid[j][k] - float(roots[j])) <= bounds[j]


def _jet_oracle(jets, r):
    """The root jets (d1, d2) at the root ``r`` of the float cubic by
    implicit differentiation at 50 digits, each with the rounding error
    bound of its evaluation in doubles: 16 u times the sum of the moduli of
    its terms over |L_r| (once for d1, thrice for d2's L_r^3)."""
    with mpmath.workdps(50):
        (a1, b1, c1), (a2, b2, c2), (a3, b3, c3) = [[mpmath.mpf(x) for x in j] for j in jets]
        l_r = (3 * r + 2 * a1) * r + a2
        l_t = (b1 * r + b2) * r + b3
        l_tt = (c1 * r + c2) * r + c3
        l_tr = 2 * b1 * r + b2
        l_rr = 6 * r + 2 * a1
        psi = 2 * l_tr * l_t * l_r - l_rr * l_t ** 2 - l_tt * l_r ** 2
        d1, d2 = -l_t / l_r, psi / l_r ** 3
        ar, x = abs(r), abs(r) ** 2
        size_r = 3 * x + 2 * abs(a1) * ar + abs(a2)
        size_t = abs(b1) * x + abs(b2) * ar + abs(b3)
        size_tt = abs(c1) * x + abs(c2) * ar + abs(c3)
        size_psi = (2 * (2 * abs(b1) * ar + abs(b2)) * size_t * size_r
                    + (6 * ar + 2 * abs(a1)) * size_t ** 2 + size_tt * size_r ** 2)
        u = 16 * UNIT_ROUNDOFF
        return ((d1, u * (size_t + abs(d1) * size_r) / abs(l_r)),
                (d2, u * (size_psi / abs(l_r) ** 3 + 3 * abs(d2) * size_r / abs(l_r))))


def _jet_bounds(jets, roots, bounds, j):
    """Each of root j's jets with a bound on its error: how far the jet
    moves when the root moves by its bound (largest at the two ends), twice,
    plus the rounding of its evaluation. None where the root's bound reaches
    a quarter of the way to the next root, where a pole of the jet may lie."""
    gap = min(abs(roots[j] - roots[k]) for k in range(3) if k != j)
    if not bounds[j] < gap / 4:
        return None
    centre = _jet_oracle(jets, roots[j])
    ends = [_jet_oracle(jets, roots[j] + s * mpmath.mpf(bounds[j])) for s in (-1, 1)]
    return [(float(d), float(2 * max(abs(e[k][0] - d) for e in ends) + rounding))
            for k, (d, rounding) in enumerate(centre)]


@pytest.mark.parametrize("rel", GAPS)
@pytest.mark.parametrize("kind", ["double", "triple"])
def test_root_jets_near_multiple_roots_against_mpmath(kind, rel):
    # root_jets raises NearMultipleRoot exactly where a gap of the computed
    # roots is at most SIMPLE_ROOT_REL_GAP * (1 + max |r|): so it must raise
    # where every computed gap that the root bounds allow is below that, and
    # must not where every one is above it
    decided, resolved = [], []
    for jets in _near_multiple_cubics(kind, rel):
        roots, bounds = _oracle(jets)
        thr = SIMPLE_ROOT_REL_GAP * float(1 + max(abs(r) for r in roots))
        slack = SIMPLE_ROOT_REL_GAP * max(bounds)
        gaps = [(float(roots[j + 1] - roots[j]), bounds[j] + bounds[j + 1]) for j in (0, 1)]
        c = _point(jets)
        if min(g + m for g, m in gaps) < thr - slack:
            with pytest.raises(NearMultipleRoot):
                _root_jets(c, solve_cubic_real(c))
            decided.append("raises")
        elif min(g - m for g, m in gaps) > thr + slack:
            d1, d2 = _root_jets(c, solve_cubic_real(c))
            decided.append("passes")
            for j in range(3):
                want = _jet_bounds(jets, roots, bounds, j)
                if want is not None:
                    (w1, b1), (w2, b2) = want
                    assert abs(d1[j] - w1) <= b1 and abs(d2[j] - w2) <= b2
                    resolved.append((jets, j, want))
    if resolved:  # the grid branch, on the cubics whose jets were resolved
        g = _grid([jets for jets, _, _ in resolved])
        d1, d2 = _root_jets(g, solve_cubic_real(g))
        for k, (_, j, ((w1, b1), (w2, b2))) in enumerate(resolved):
            assert abs(d1[j][k] - w1) <= b1 and abs(d2[j][k] - w2) <= b2
    # every near-double pair is resolved either way; near-triple clusters
    # leave a band where the root bounds straddle the threshold
    assert len(decided) == 12 if kind == "double" else decided


def _quad_oracle(jets, sign):
    """Root ``s`` of the derivative quadratic 3 s^2 + 2 a1 s + a2 of the float
    cubic (``sign`` -1 the lower, +1 the upper) and its time derivative
    ``-(2 a1' s + a2') / (6 s + 2 a1)``, at 50 digits, each with a bound on
    its error in doubles. The root's is 16 u times the sizes of the terms of
    -a1/3 plus or minus sqrt(4 a1^2 - 12 a2)/6, the discriminant's own error
    carried through the square root. The derivative's is how far it moves
    when the root moves by its bound (largest at the two ends), twice, plus
    16 u times the sizes of its terms over |6 s + 2 a1|."""
    u = 16 * UNIT_ROUNDOFF
    with mpmath.workdps(50):
        (a1, b1, _), (a2, b2, _), _ = [[mpmath.mpf(x) for x in j] for j in jets]
        half = mpmath.sqrt(4 * a1 ** 2 - 12 * a2) / 6
        s = -a1 / 3 + sign * half
        bound = u * (abs(a1) / 3 + half + abs(s) + (4 * a1 ** 2 + 12 * abs(a2)) / (72 * half))
        d1, lo, hi = (-(2 * b1 * e + b2) / (6 * e + 2 * a1) for e in (s, s - bound, s + bound))
        rounding = u * (2 * abs(b1 * s) + abs(b2) + abs(d1 * (6 * s + 2 * a1))) / abs(6 * s + 2 * a1)
        d1_bound = 2 * max(abs(lo - d1), abs(hi - d1)) + rounding
        return (float(s), float(bound)), (float(d1), float(d1_bound))


@pytest.mark.parametrize("rel", GAPS)
@pytest.mark.parametrize("kind", ["double", "triple"])
def test_quad_root_jets_near_multiple_roots_against_mpmath(kind, rel):
    # the derivative quadratic's roots stay apart by about the span while
    # two or three roots of the cubic close in, so every jet is resolved, at
    # a point and on the grid
    cubics = _near_multiple_cubics(kind, rel)
    grid_s, grid_d = _quad_root_jets(_grid(cubics))
    for k, jets in enumerate(cubics):
        point_s, point_d = _quad_root_jets(_point(jets))
        for j, sign in enumerate((-1, 1)):
            (s, bound), (d, d_bound) = _quad_oracle(jets, sign)
            for got, got_d in ((point_s[j], point_d[j]), (grid_s[j][k], grid_d[j][k])):
                assert abs(got - s) <= bound and abs(got_d - d) <= d_bound


# ---------------------------------------------------------------------------
# the grid solve against the point solve, bit for bit

#: roots s * (c, c + g1, c + g1 + g2): scales from 1e-160 (coefficients down
#: to 1e-320, the band below about 1e-205 where 2pm underflows) to 1e33
#: (coefficients up to 1e100), with gaps that vanish, are near-double or
#: near-triple, or are of the span's order
_GAP = st.one_of(st.just(0.0), st.floats(1e-16, 1e-6), st.floats(1e-6, 2.0))
_ROOTS = st.tuples(st.floats(-160.0, 33.0).map(lambda k: 10.0 ** k),
                   st.floats(-2.0, 2.0), _GAP, _GAP)


def _cubic_of(s, c, g1, g2):
    r1 = s * c
    r2 = r1 + s * g1
    return _vieta_cubic(r1, r2, r2 + s * g2)


@settings(max_examples=60, deadline=None)
@given(st.lists(_ROOTS, min_size=1, max_size=50))
@example([(1e-125, -1.0, 1.0, 1.0), (1e-110, 0.5, 1e-9, 0.0), (1.0, 0.25, 0.0, 0.0),
          (1e33, -2.0, 2.0, 2.0)])
def test_grid_cubic_solve_keeps_every_bit_of_the_point_solve(roots):
    # a cubic past the hyperbolicity band raises at a point as on a grid of it alone
    point, kept = [], []
    for c in map(_cubic_of, *zip(*roots)):
        try:
            point.append([r.hex() for r in solve_cubic_real(c).r])
            kept.append(c)
        except HyperbolicityViolation:
            with pytest.raises(HyperbolicityViolation):
                solve_cubic_real(_on_grid(c, 1))
    if kept:
        grid = solve_cubic_real(CubicJet(*(Jet2(np.array([getattr(c, a).v for c in kept]), 0.0, 0.0)
                                           for a in ("a1", "a2", "a3")))).r
        assert [[float(r).hex() for r in col] for col in grid.T] == point
