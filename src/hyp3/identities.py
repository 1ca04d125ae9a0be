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

from .cubic import _critical_points, _delta1, _discriminant, _solve_cubic_grid

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


def _sample_roots(rng: np.random.Generator, min_gap: float = 0.0) -> tuple[float, float, float]:
    while True:
        r = np.sort(rng.uniform(-5.0, 5.0, size=3))
        if min_gap == 0.0 or (r[1] - r[0] > min_gap and r[2] - r[1] > min_gap):
            return float(r[0]), float(r[1]), float(r[2])


_LOW, _HIGH = (-5.0,) * 6 + (math.log(0.3),), (5.0,) * 6 + (math.log(3.0),)


def _draws(rng: np.random.Generator, samples: int):
    """Each sample's seven draws in turn, in blocks of up to 1,024 columns: the well-separated
    and the general root triple, each sorted, and log e. A rejected well-separated triple
    (about one in 1,700) is drawn again by _sample_roots from the state at its sample."""
    done = 0
    while done < samples:
        state = rng.bit_generator.state
        block = rng.uniform(_LOW, _HIGH, size=(min(samples - done, 1024), 7))
        for j in (0, 3):
            block[:, j:j + 3].sort(axis=1)
        ok = (np.diff(block[:, :3], axis=1) > 1e-3).all(axis=1)
        k = len(block) if ok.all() else int(ok.argmin())
        if k < len(block):
            rng.bit_generator.state = state
            rng.random(7 * k)
            block[k] = (*_sample_roots(rng, 1e-3), *_sample_roots(rng),
                        rng.uniform(_LOW[6], _HIGH[6]))
            k += 1
        yield block[:k].T
        done += k


def _cubic(r1, r2, r3) -> tuple:
    """The coefficients (a1, a2, a3) of the monic cubic with the roots r1, r2, r3."""
    return -(r1 + r2 + r3), r1 * r2 + r2 * r3 + r3 * r1, -(r1 * r2 * r3)


def _worst(lhs, rhs) -> float:
    """The largest relative residual over the samples, as a max from 0 (past a NaN)."""
    lhs, rhs = np.asarray(lhs, dtype=float), np.asarray(rhs, dtype=float)
    rel = np.abs(lhs - rhs) / np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1.0)
    return float(np.fmax.reduce(rel, initial=0.0))


def _residuals(d: np.ndarray) -> list[float]:
    """The worst residual of each identity over a block of draws (a column
    each), rounded as one sample at a time in Python floats: a power or a
    discriminant is taken on object arrays of them, as numpy's x**2 and x**3
    do not always round as Python's."""
    r, e = d[:6].astype(object), np.exp(d[6]).astype(object)
    worst = {}

    # well-separated sample: discriminant vs product of squared gaps
    s = _solve_cubic_grid(*_cubic(*d[:3]))
    prod = ((s[0] - s[1]) * (s[1] - s[2]) * (s[2] - s[0])).astype(object) ** 2
    worst["disc_vs_root_products"] = _worst(_discriminant(*_cubic(*r[:3])), prod)

    # general sample (coincidences allowed) for the remaining identities
    r, (a1, a2, a3) = r[3:], _cubic(*r[3:])
    sumsq = ((r[0] - r[1]) ** 2 + (r[1] - r[2]) ** 2 + (r[2] - r[0]) ** 2)
    worst["sumsq_vs_coeffs"] = _worst(_delta1(a1, a2), sumsq)
    gap_sq = _critical_points(*_cubic(*d[3:6]))[3]
    worst["sumsq_vs_crit_gap"] = _worst(_delta1(a1, a2), 4.5 * gap_sq)

    reg2, reg3 = a2 - 6.0 * e * e, a3 - 2.0 * e * e * a1
    db24 = 4.0 * a1 ** 2 - 12.0 * a2
    expansion = (_discriminant(a1, a2, a3) + 0.5 * e ** 2 * db24 ** 2 + 36.0 * e ** 4 * db24
                 + 864.0 * e ** 6)
    worst["reg_disc_expansion"] = _worst(_discriminant(a1, reg2, reg3), expansion)
    shift = (4.0 * a1 ** 2 - 12.0 * reg2) - db24
    worst["reg_crit_disc_shift"] = _worst(shift, 72.0 * e * e)
    return [worst[name] for name in ALGEBRAIC_TOLERANCES]


def run_algebraic_suite(samples: int, seed: int) -> list[IdentityResult]:
    """Run the five closed-form identities on `samples` random cubics."""
    blocks = map(_residuals, _draws(np.random.default_rng(seed), samples))
    worst = np.max([[0.0] * len(ALGEBRAIC_TOLERANCES), *blocks], axis=0)
    return [IdentityResult(name, float(w), tol, samples)
            for (name, tol), w in zip(ALGEBRAIC_TOLERANCES.items(), worst)]
