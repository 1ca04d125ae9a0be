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

#: from this many leaf panels on, each doubling of them must halve the summed
#: relative error indicator, or the run has met a noise floor and stalls
STALL_PANELS = 2 ** 10

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
    rows = np.array([f(t) for t in mid + half * _GL_NODES], dtype=float)  # one call a node
    weighted = (rows.T * (_GL_WEIGHTS * half)).T  # a scalar f's 16 rows stay a vector
    return np.cumsum(weighted, axis=0)[-1]  # node order at any width; np.sum pairs 1-wide rows


def adaptive_gauss(f: Callable[[float], np.ndarray], a: float, b: float) -> QuadResult:
    """Integrate the vector integrand until, for every component, the summed
    panel error indicators drop below REL_TOL times the component magnitude
    (components below 1e-12 compare absolutely).

    Raises :class:`QuadratureError` with the achieved tolerance if the
    ``MAX_PANELS`` leaf cap is hit first, or a doubling of the leaf panels
    from ``STALL_PANELS`` on fails to halve it, and at once when an integrand
    value is not finite, since refinement cannot remove it.
    """
    panels = INITIAL_PANELS

    def interval(lo: float, hi: float, coarse: np.ndarray) -> tuple:
        """(lo, hi, fine_l, fine_r, err): both halves of [lo, hi] and their error indicator
        against the whole; non-finite values end the run before it is formed."""
        mid = 0.5 * (lo + hi)
        fine_l = _panel(f, lo, mid)
        fine_r = _panel(f, mid, hi)
        if not np.isfinite([coarse, fine_l, fine_r]).all():
            raise QuadratureError(f"non-finite integrand value on [{lo:.6g}, {hi:.6g}]", panels)
        return lo, hi, fine_l, fine_r, np.abs(fine_l + fine_r - coarse)

    width = (b - a) / INITIAL_PANELS
    edges = [a + k * width for k in range(INITIAL_PANELS + 1)]
    intervals = [interval(lo, hi, _panel(f, lo, hi)) for lo, hi in zip(edges, edges[1:])]
    total = np.sum([fine_l + fine_r for _, _, fine_l, fine_r, _ in intervals], axis=0)
    err_sum = np.sum([err for *_, err in intervals], axis=0)

    def relative(err: np.ndarray) -> float:
        return float(np.max(err / np.maximum(np.abs(total), 1e-12)))

    counter = itertools.count()  # tie-breaker: the heap never compares intervals
    heap = [(-relative(iv[4]), next(counter), iv) for iv in intervals]
    heapq.heapify(heap)
    rel = relative(err_sum)
    doubled_from = math.inf  # rel at the last power-of-two panel count from STALL_PANELS on
    while not rel < REL_TOL:
        stalled = False
        if panels >= STALL_PANELS and panels & (panels - 1) == 0:
            stalled, doubled_from = not rel <= 0.5 * doubled_from, rel
        if stalled or panels + 1 > MAX_PANELS or not math.isfinite(rel):
            raise QuadratureError(f"quadrature stalled at relative change {rel:.3g} "
                                  f"(requested {REL_TOL:.3g})", panels)
        _, _, (lo, hi, fine_l, fine_r, err) = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        kids = (interval(lo, mid, fine_l), interval(mid, hi, fine_r))
        total = total - (fine_l + fine_r) + (kids[0][2] + kids[0][3]) + (kids[1][2] + kids[1][3])
        err_sum = err_sum - err + kids[0][4] + kids[1][4]
        for kid in kids:
            heapq.heappush(heap, (-relative(kid[4]), next(counter), kid))
        panels += 1
        rel = relative(err_sum)

    return QuadResult(total, rel, panels)
