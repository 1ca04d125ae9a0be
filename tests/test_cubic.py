import math
import random

import numpy as np
import pytest

from hyp3.cubic import (
    CubicJet,
    cubic_from_floats,
    delta1,
    derivative_quadratic,
    discriminant,
    root_jets,
    solve_cubic_real,
)
from hyp3.errors import HyperbolicityViolation, NearMultipleRoot
from hyp3.expr import BinOp, TimeFn, parse_timefn


def _vieta_cubic(r1, r2, r3):
    return cubic_from_floats(-(r1 + r2 + r3), r1 * r2 + r2 * r3 + r3 * r1, -r1 * r2 * r3)


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
    s1, s2, disc, gap_sq = derivative_quadratic(cubic_from_floats(-6, 11, -6))
    assert abs(s1 - (2 - 1 / math.sqrt(3))) < 1e-12
    assert abs(s2 - (2 + 1 / math.sqrt(3))) < 1e-12
    assert abs(disc - (4 * 36 - 12 * 11)) < 1e-12
    assert abs(gap_sq - (s2 - s1) ** 2) < 1e-12


def test_derivative_quadratic_triple():
    s1, s2, _, gap_sq = derivative_quadratic(cubic_from_floats(0, 0, 0))
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
        _, _, _, gap_sq = derivative_quadratic(c)
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
        s1, s2, _, _ = derivative_quadratic(c)
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
    d1, d2 = root_jets(c, solve_cubic_real(c))
    assert np.allclose(d1, (1.0, 2.0, 3.0), atol=1e-9)
    assert np.allclose(d2, (0.0, 0.0, 0.0), atol=1e-8)


def test_root_jets_constant_cubic():
    c = cubic_from_floats(-6, 11, -6)
    assert root_jets(c, solve_cubic_real(c)) == ((0.0, 0.0, 0.0), (0.0, 0.0, 0.0))


def test_root_jets_match_finite_differences_of_resolved_roots():
    fns = _timefn_cubic(("sin(t) - 2", "0.5*cos(2*t)", "2 + t^2"))
    rng = random.Random(5)
    h = 1e-5
    for _ in range(50):
        t = rng.uniform(0.1, 1.5)
        c = _cubic_at(fns, t)
        roots = solve_cubic_real(c)
        d1, d2 = root_jets(c, roots)
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
        root_jets(c, solve_cubic_real(c))


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
