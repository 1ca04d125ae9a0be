"""Adaptive composite Gauss-Legendre quadrature.

Vector-valued integrands: all condition integrals over one (operator,
frequency) cell share their expensive per-point symbol evaluation, so they
are integrated in one pass and convergence is tracked per component.

Refinement is globally adaptive (split the worst panel first): condition
integrands are bounded but develop O(|xi|^-2)-wide boundary layers at
degeneracy times, which uniform panel doubling cannot resolve within any
reasonable panel cap.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import QuadratureError

#: nodes per panel
PANEL_NODES = 16

#: leaf-panel cap
MAX_PANELS = 2 ** 14

#: initial uniform split of the integration interval
INITIAL_PANELS = 8

#: summed panel error indicators must fall below this fraction of each component
REL_TOL = 1e-6

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(PANEL_NODES)


@dataclass(frozen=True)
class QuadResult:
    values: np.ndarray
    rel_change: float
    panels: int


def _panel(f: Callable[[float], np.ndarray], lo: float, hi: float) -> np.ndarray:
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    acc = None
    for x, w in zip(_GL_NODES, _GL_WEIGHTS):
        v = np.asarray(f(mid + half * x), dtype=float) * (w * half)
        acc = v if acc is None else acc + v
    return acc


class _Interval:
    __slots__ = ("lo", "hi", "fine_l", "fine_r", "err")

    def __init__(self, lo: float, hi: float, fine_l: np.ndarray, fine_r: np.ndarray,
                 err: np.ndarray):
        self.lo = lo
        self.hi = hi
        self.fine_l = fine_l
        self.fine_r = fine_r
        self.err = err

    @property
    def fine(self) -> np.ndarray:
        return self.fine_l + self.fine_r


def adaptive_gauss(f: Callable[[float], np.ndarray], a: float, b: float) -> QuadResult:
    """Integrate the vector integrand until, for every component, the summed
    panel error indicators drop below REL_TOL times the component magnitude
    (components below 1e-12 compare absolutely).

    Raises :class:`QuadratureError` with the achieved tolerance if the
    ``MAX_PANELS`` leaf cap is hit first, and at once when an integrand value
    is not finite, since refinement cannot remove it.
    """
    panels = INITIAL_PANELS

    def interval(lo: float, hi: float, coarse: np.ndarray | None = None) -> _Interval:
        """Both halves of [lo, hi] and their error indicator against the
        whole; non-finite values end the run before the indicator is formed."""
        if coarse is None:
            coarse = _panel(f, lo, hi)
        mid = 0.5 * (lo + hi)
        fine_l = _panel(f, lo, mid)
        fine_r = _panel(f, mid, hi)
        if not np.isfinite([coarse, fine_l, fine_r]).all():
            raise QuadratureError(f"non-finite integrand value on [{lo:.6g}, {hi:.6g}]", panels)
        return _Interval(lo, hi, fine_l, fine_r, np.abs(fine_l + fine_r - coarse))

    width = (b - a) / INITIAL_PANELS
    intervals = [interval(a + k * width, a + (k + 1) * width) for k in range(INITIAL_PANELS)]

    counter = itertools.count()  # tie-breaker: the heap never compares intervals

    total = np.sum([iv.fine for iv in intervals], axis=0)
    err_sum = np.sum([iv.err for iv in intervals], axis=0)

    def indicator(iv):
        scale = np.maximum(np.abs(total), 1e-12)
        return float(np.max(iv.err / scale))

    heap = [(-indicator(iv), next(counter), iv) for iv in intervals]
    heapq.heapify(heap)

    def achieved():
        scale = np.maximum(np.abs(total), 1e-12)
        return float(np.max(err_sum / scale))

    rel = achieved()
    while not rel < REL_TOL:
        if panels + 1 > MAX_PANELS or not math.isfinite(rel):
            raise QuadratureError(f"quadrature stalled at relative change {rel:.3g} "
                                  f"(requested {REL_TOL:.3g})", panels)
        _, _, worst = heapq.heappop(heap)
        mid = 0.5 * (worst.lo + worst.hi)
        kids = (interval(worst.lo, mid, worst.fine_l), interval(mid, worst.hi, worst.fine_r))
        total = total - worst.fine + kids[0].fine + kids[1].fine
        err_sum = err_sum - worst.err + kids[0].err + kids[1].err
        for kid in kids:
            heapq.heappush(heap, (-indicator(kid), next(counter), kid))
        panels += 1
        rel = achieved()

    return QuadResult(total, rel, panels)
