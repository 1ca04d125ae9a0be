"""Randomized algebraic identity suites.

Each suite draws seeded random hyperbolic cubics and reports the maximum
residual of one closed-form identity; the CLI aggregates them (together
with the trajectory identities from :mod:`hyp3.modes`) into the identity
gate. Residuals are relative to ``max(|lhs|, |rhs|, 1)`` so that the
near-degenerate tail (tiny discriminants under heavy cancellation) is
measured against the natural term scale instead of the vanishing value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cubic import (
    CubicJet,
    cubic_from_floats,
    delta1,
    derivative_quadratic,
    discriminant,
    solve_cubic_real,
)

__all__ = ["IdentityResult", "run_algebraic_suite", "ALGEBRAIC_TOLERANCES"]

ALGEBRAIC_TOLERANCES = {
    "disc_vs_root_products": 1e-8,
    "sumsq_vs_coeffs": 1e-9,
    "sumsq_vs_crit_gap": 1e-9,
    "reg_disc_expansion": 1e-9,
    "reg_crit_disc_shift": 1e-12,
}


@dataclass(frozen=True)
class IdentityResult:
    name: str
    max_residual: float
    tolerance: float
    samples: int

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tolerance


def _rel(lhs: float, rhs: float) -> float:
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0)


def _sample_roots(rng: np.random.Generator, min_gap: float = 0.0) -> tuple[float, float, float]:
    while True:
        r = np.sort(rng.uniform(-5.0, 5.0, size=3))
        if min_gap == 0.0 or (r[1] - r[0] > min_gap and r[2] - r[1] > min_gap):
            return float(r[0]), float(r[1]), float(r[2])


def _cubic_from_roots(r1: float, r2: float, r3: float) -> CubicJet:
    return cubic_from_floats(-(r1 + r2 + r3), r1 * r2 + r2 * r3 + r3 * r1, -(r1 * r2 * r3))


def _regularize_floats(c: CubicJet, e: float) -> CubicJet:
    return cubic_from_floats(
        c.a1.v.real,
        c.a2.v.real - 6.0 * e * e,
        c.a3.v.real - 2.0 * e * e * c.a1.v.real,
    )


def run_algebraic_suite(samples: int, seed: int) -> list[IdentityResult]:
    """Run the five closed-form identities on `samples` random cubics."""
    rng = np.random.default_rng(seed)
    worst = {name: 0.0 for name in ALGEBRAIC_TOLERANCES}

    for _ in range(samples):
        # well-separated sample: discriminant vs product of squared gaps
        r = _sample_roots(rng, min_gap=1e-3)
        c = _cubic_from_roots(*r)
        solved = solve_cubic_real(c).r
        prod = ((solved[0] - solved[1]) * (solved[1] - solved[2]) * (solved[2] - solved[0])) ** 2
        disc = discriminant(c)
        worst["disc_vs_root_products"] = max(worst["disc_vs_root_products"], _rel(disc, prod))

        # general sample (coincidences allowed) for the remaining identities
        r = _sample_roots(rng)
        c = _cubic_from_roots(*r)
        sumsq = ((r[0] - r[1]) ** 2 + (r[1] - r[2]) ** 2 + (r[2] - r[0]) ** 2)
        d1 = delta1(c)
        worst["sumsq_vs_coeffs"] = max(worst["sumsq_vs_coeffs"], _rel(d1, sumsq))

        _, _, _, gap_sq = derivative_quadratic(c)
        lhs = delta1(c)
        rhs = 4.5 * gap_sq
        worst["sumsq_vs_crit_gap"] = max(worst["sumsq_vs_crit_gap"], _rel(lhs, rhs))

        e = float(np.exp(rng.uniform(math.log(0.3), math.log(3.0))))
        reg = _regularize_floats(c, e)
        disc_reg = discriminant(reg)
        disc_plain = discriminant(c)
        db24 = 4.0 * c.a1.v.real ** 2 - 12.0 * c.a2.v.real
        expansion = (disc_plain + 0.5 * e ** 2 * db24 ** 2 + 36.0 * e ** 4 * db24
                     + 864.0 * e ** 6)
        worst["reg_disc_expansion"] = max(worst["reg_disc_expansion"], _rel(disc_reg, expansion))

        db24_reg = 4.0 * reg.a1.v.real ** 2 - 12.0 * reg.a2.v.real
        shift = db24_reg - db24
        worst["reg_crit_disc_shift"] = max(worst["reg_crit_disc_shift"], _rel(shift, 72.0 * e * e))

    return [IdentityResult(name, worst[name], ALGEBRAIC_TOLERANCES[name], samples)
            for name in ALGEBRAIC_TOLERANCES]
