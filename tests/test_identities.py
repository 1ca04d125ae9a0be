"""The array identity suite against the per-sample loop it replaced."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hyp3 import identities
from hyp3.cubic import _critical_points, cubic_from_floats, delta1, discriminant
from hyp3.cubic import solve_cubic_real
from hyp3.identities import ALGEBRAIC_TOLERANCES, run_algebraic_suite


def _rel(lhs, rhs):
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0)


def _scalar_suite(samples, seed):
    """The suite one sample at a time, in Python floats: the worst residual of
    each identity, and the samples whose well-separated draw was rejected."""
    rng = np.random.default_rng(seed)
    worst = {name: 0.0 for name in ALGEBRAIC_TOLERANCES}
    rejected = set()

    def sample_roots(min_gap=0.0):
        while True:
            r = np.sort(rng.uniform(-5.0, 5.0, size=3))
            if min_gap == 0.0 or (r[1] - r[0] > min_gap and r[2] - r[1] > min_gap):
                return float(r[0]), float(r[1]), float(r[2])
            rejected.add(k)

    def from_roots(r1, r2, r3):
        return cubic_from_floats(-(r1 + r2 + r3), r1 * r2 + r2 * r3 + r3 * r1, -(r1 * r2 * r3))

    for k in range(samples):
        c = from_roots(*sample_roots(min_gap=1e-3))
        s = solve_cubic_real(c).r
        prod = ((s[0] - s[1]) * (s[1] - s[2]) * (s[2] - s[0])) ** 2
        worst["disc_vs_root_products"] = max(worst["disc_vs_root_products"],
                                             _rel(discriminant(c), prod))

        r = sample_roots()
        c = from_roots(*r)
        sumsq = ((r[0] - r[1]) ** 2 + (r[1] - r[2]) ** 2 + (r[2] - r[0]) ** 2)
        worst["sumsq_vs_coeffs"] = max(worst["sumsq_vs_coeffs"], _rel(delta1(c), sumsq))
        gap_sq = _critical_points(c.a1.v, c.a2.v, c.a3.v)[3]
        worst["sumsq_vs_crit_gap"] = max(worst["sumsq_vs_crit_gap"],
                                         _rel(delta1(c), 4.5 * gap_sq))

        e = float(np.exp(rng.uniform(math.log(0.3), math.log(3.0))))
        a1, a2, a3 = c.a1.v, c.a2.v, c.a3.v
        reg = cubic_from_floats(a1, a2 - 6.0 * e * e, a3 - 2.0 * e * e * a1)
        db24 = 4.0 * a1 ** 2 - 12.0 * a2
        expansion = (discriminant(c) + 0.5 * e ** 2 * db24 ** 2 + 36.0 * e ** 4 * db24
                     + 864.0 * e ** 6)
        worst["reg_disc_expansion"] = max(worst["reg_disc_expansion"],
                                          _rel(discriminant(reg), expansion))
        shift = (4.0 * reg.a1.v ** 2 - 12.0 * reg.a2.v) - db24
        worst["reg_crit_disc_shift"] = max(worst["reg_crit_disc_shift"],
                                           _rel(shift, 72.0 * e * e))
    return worst, len(rejected)


PAIRS = [(10_000, 42), (3_000, 1), (10_000, 7), (200, 5)]


def _replays(monkeypatch):
    """The calls the array suite makes to _sample_roots, which replay a sample."""
    calls = []
    sample_roots = identities._sample_roots
    monkeypatch.setattr(identities, "_sample_roots",
                        lambda *a, **k: calls.append(a) or sample_roots(*a, **k))
    return calls


@pytest.mark.parametrize("samples,seed", PAIRS)
def test_array_suite_keeps_every_bit_of_the_loop(samples, seed, monkeypatch):
    calls = _replays(monkeypatch)
    results = run_algebraic_suite(samples, seed)
    worst, rejected = _scalar_suite(samples, seed)
    assert [r.name for r in results] == list(ALGEBRAIC_TOLERANCES)
    assert all(r.samples == samples for r in results)
    assert [r.max_residual.hex() for r in results] == [w.hex() for w in worst.values()]
    # a sample with a rejected draw is replayed, its general draw with it
    assert len(calls) == 2 * rejected


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4), st.integers(0, 2 ** 32 - 1))
def test_array_suite_keeps_every_bit_of_the_loop_on_a_few_samples(samples, seed):
    # with a few samples, a maximum is one sample's residual: a power that
    # numpy rounds otherwise than Python shows (at about 1 seed in 10)
    results = run_algebraic_suite(samples, seed)
    worst, _ = _scalar_suite(samples, seed)
    assert [r.max_residual.hex() for r in results] == [w.hex() for w in worst.values()]


def test_some_pair_goes_through_the_replay(monkeypatch):
    calls = _replays(monkeypatch)
    for samples, seed in PAIRS:
        run_algebraic_suite(samples, seed)
    assert calls


def test_array_suite_with_no_samples():
    assert [r.max_residual for r in run_algebraic_suite(0, 3)] == [0.0] * 5
