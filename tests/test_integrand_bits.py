"""Bit-for-bit pins of the symbol views, the condition integrand, the
second-order integrals, the quadrature panel and whole condition cells, each
value recorded with ``float.hex``.

The scalar integrand path may be made cheaper, but only by doing the same
floating-point operations in the same order: any regrouped rounding moves at
least one of these values. Rewrite the data only for a change that is meant
to move values, and record the move where the change is described::

    PYTHONPATH=src python tests/test_integrand_bits.py

(``tests/test_jet_bits.py``, run the same way, rewrites this data and its own.)
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from hyp3 import conditions
from hyp3.battery import battery_member, battery_names
from hyp3.conditions import _condition_node, condition_integrals, second_order_check
from hyp3.expr import parse_timefn
from hyp3.operators import Operator2, Operator3
from hyp3.quadrature import _GL_NODES, _GL_WEIGHTS, _panel

DATA = Path(__file__).with_name("data") / "integrand_bits.json"

#: the ends of the default ladder
XIS = (64.0, 16384.0)

#: two times per member; the second is near t = 0, where the principal parts of
#: sin_gap and the oleinik members degenerate
TIMES = {
    "sin_gap": (1.3, 1e-4),
    "strict_sin": (0.37, 1e-4),
    "oleinik_ok": (0.37, 1e-4),
    "oleinik_bad": (0.37, 1e-4),
    "const_coeff_wellposed": (0.37, 1e-4),
}

CELL_MEMBERS = ("sin_gap", "strict_sin", "oleinik_ok", "oleinik_bad")

#: second-order members: time-dependent, and two whose coefficients are t-free
SECOND_ORDER_MEMBERS = ("oleinik2_ok", "wave2", "oleinik2_bad")


#: two-dimensional operators of each order, with terms along both axes and
#: mixed ones, so that along (1, 0) some weights xi^alpha are zero
PLANE3 = Operator3("plane3", 2, 1.0, {key: parse_timefn(text) for key, text in {
    (1, (2, 0)): "-(2+sin(t))^2", (1, (0, 2)): "-1", (1, (1, 1)): "t", (0, (3, 0)): "0.1*t",
    (0, (1, 2)): "-t^2", (2, (1, 0)): "0.3*cos(t)", (2, (0, 1)): "0.5", (0, (2, 0)): "0.2*t",
    (0, (1, 1)): "-0.0", (2, (0, 0)): "t - 1", (1, (1, 0)): "0.1*t", (1, (0, 1)): "t^2",
    (0, (1, 0)): "0.4 + i*t", (0, (0, 1)): "-0.7*t", (1, (0, 0)): "exp(0 - t)",
    (0, (0, 0)): "0.05*sin(t)"}.items()})
PLANE2 = Operator2("plane2", 2, 1.0, {key: parse_timefn(text) for key, text in {
    (1, (1, 0)): "-t", (1, (0, 1)): "0.5", (0, (2, 0)): "-(1+t)^2", (0, (1, 1)): "t",
    (0, (0, 2)): "-1", (1, (0, 0)): "cos(t)", (0, (1, 0)): "1", (0, (0, 1)): "-t^3",
    (0, (0, 0)): "-0.0"}.items()})

#: where the symbol views are recorded: one time, and a grid that starts at t = 0
SYMBOL_T = 0.37
SYMBOL_GRID = np.linspace(0.0, 1.5, 7)


def _hex(values) -> list[str]:
    return [float(v).hex() for v in values]


def _enc(x, t):
    """One jet entry at ``t`` as hex text, a constant broadcast over a grid
    (a grid sum may keep a t-free value as one number)."""
    if x is None:
        return None
    return [[v.real.hex(), v.imag.hex()] if isinstance(v, complex) else float(v).hex()
            for v in np.broadcast_to(x, np.shape(t)).ravel().tolist()]


def _views(op, t, xi) -> list:
    """Every jet (v, d1, d2, d3) of the symbol views of ``op``, one sum of the
    table walk: the principal then the lower slots, or the second-order parts."""
    views = ("parts",) if isinstance(op, Operator2) else ("principal", "lower")
    jets = op._add(op._weights(xi, *views), sum(len(op._VIEWS[v]) for v in views), t)
    return [[_enc(x, t) for x in jet] for jet in jets]


def _integrand_values(op, t: float, xi: np.ndarray) -> list[float]:
    """Every condition integrand, primary then alternate, at one time: one node."""
    return _condition_node(op, xi)(t)


def _symbols() -> dict[str, list]:
    cases = [(battery_member(name).op, np.array([64.0])) for name in battery_names()]
    cases += [(op, 64.0 * np.array(d)) for op in (PLANE3, PLANE2)
              for d in ((1.0, 0.0), (0.6, 0.8))]
    return {f"{op.name} xi={xi.tolist()!r} t={'grid' if isinstance(t, np.ndarray) else repr(t)}":
            _views(op, t, xi) for op, xi in cases for t in (SYMBOL_T, SYMBOL_GRID)}


def _points() -> dict[str, list[str]]:
    return {f"{name} t={t!r} xi={xi!r}":
            _hex(_integrand_values(battery_member(name).op, t, np.array([xi])))
            for name, ts in TIMES.items() for t in ts for xi in XIS}


def _second_order() -> dict[str, list[str]]:
    return {f"{name} xi={xi!r}": _hex(second_order_check(battery_member(name).op, np.array([xi])))
            for name in SECOND_ORDER_MEMBERS for xi in XIS}


def _cell(name: str, xi: float) -> dict:
    cell = condition_integrals(battery_member(name).op, np.array([xi]))
    return {"panels": cell.panels, "rel_change": cell.rel_change.hex(),
            "values": _hex(cell.values.values()), "alternates": _hex(cell.alternates.values())}


def _cells() -> dict[str, dict]:
    return {f"{name} xi={xi!r}": _cell(name, xi) for name in CELL_MEMBERS for xi in XIS}


@pytest.fixture(scope="module")
def recorded():
    return json.loads(DATA.read_text())


def test_symbol_views_keep_their_bits(recorded):
    got = _symbols()
    assert len(got) == 2 * (len(battery_names()) + 4)
    for key, want in recorded["symbols"].items():
        assert got[key] == want, key
    assert list(got) == list(recorded["symbols"])


def test_integrand_values_keep_their_bits(recorded):
    got = _points()
    assert len(got) == 20 and all(len(v) == 34 for v in got.values())
    assert got == recorded["points"]


#: the integrand of PLANE3 at two times, both ends of the ladder and two
#: directions (along (1, 0) the weight xi^alpha of every term with a power of
#: xi_2 is zero, and the lower coefficient 0.4 + i*t is complex): the sha256 of
#: each row's space-joined ``float.hex``
PLANE3_POINTS = {
    "d=(1.0, 0.0) t=0.37 xi=64.0":
        "ebbbe00de2ff881751c2f5e80a6358b30eac40b7c0485965cf197ba41e9b2c4d",
    "d=(1.0, 0.0) t=0.37 xi=16384.0":
        "5e81665348d515d1e6b995f5454526f3357af1cfa1d21ffdbab5532f6dfe9b65",
    "d=(1.0, 0.0) t=0.0001 xi=64.0":
        "a5803c068669f3664d6cf5c3a1c87bfcc482b3a105135fc263aa16cdf2204e99",
    "d=(1.0, 0.0) t=0.0001 xi=16384.0":
        "9b17e44ef1446ebb483f73cd6c5ef1dac3be0374f1b007de9c7b72ec14f31533",
    "d=(0.6, 0.8) t=0.37 xi=64.0":
        "1e0ae4a27279b659c0928b60d20691cba1e52cca4efd1238e6ec8536e0b20bd8",
    "d=(0.6, 0.8) t=0.37 xi=16384.0":
        "db14e89088d7ef64c1bd5c035c690236dbfa280562a5c89d02062633a85bb188",
    "d=(0.6, 0.8) t=0.0001 xi=64.0":
        "52abcfa20c6f58c08fd8de8b7d822d24fa2dd3fdd6c6a9aaea65047700a80c8b",
    "d=(0.6, 0.8) t=0.0001 xi=16384.0":
        "306704faab5603307968bd2138619b39f65b0708cf13adf904feda58584343c8",
}


def test_plane_integrand_values_keep_their_bits():
    got = {}
    for d in ((1.0, 0.0), (0.6, 0.8)):
        for t in (0.37, 1e-4):
            for xi in XIS:
                row = _hex(_integrand_values(PLANE3, t, xi * np.array(d)))
                assert len(row) == 34
                digest = hashlib.sha256(" ".join(row).encode()).hexdigest()
                got[f"d={d!r} t={t!r} xi={xi!r}"] = digest
    assert got == PLANE3_POINTS


def test_second_order_integrals_keep_their_bits(recorded):
    assert _second_order() == recorded["second_order"]


@pytest.mark.parametrize("name", ("wave2", "oleinik2_bad"))
@pytest.mark.parametrize("xi", XIS)
def test_constant_second_order_cells_keep_their_panels_and_calls(monkeypatch, name, xi):
    """A t-free cell still integrates 8 panels and calls its integrand once per
    node, even where every node is served the same row."""
    calls, results, adaptive_gauss = [], [], conditions.adaptive_gauss

    def counted(f, a, b):
        results.append(adaptive_gauss(lambda t: calls.append(t) or f(t), a, b))
        return results[-1]

    monkeypatch.setattr(conditions, "adaptive_gauss", counted)
    second_order_check(battery_member(name).op, np.array([xi]))
    assert [r.panels for r in results] == [8]
    assert len(calls) == 64 * 8 - 128


@pytest.mark.parametrize("name", CELL_MEMBERS)
@pytest.mark.parametrize("xi", XIS)
def test_condition_cells_keep_their_panels_and_bits(recorded, name, xi):
    assert _cell(name, xi) == recorded["cells"][f"{name} xi={xi!r}"]


def _panel_per_node(f, lo, hi):
    """The reference panel: one call of ``f`` per node, each row weighted
    and added to the sum as it comes."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    acc = None
    for x, w in zip(_GL_NODES, _GL_WEIGHTS):
        v = np.asarray(f(mid + half * x), dtype=float) * (w * half)
        acc = v if acc is None else acc + v
    return acc


def _served(rows, times):
    """An integrand that records each time it is called at and serves the next row."""
    def f(t):
        times.append(t)
        return rows[len(times) - 1]
    return f


@pytest.mark.parametrize("width", (None, 1, 2, 34), ids=("scalar", "1", "2", "34"))
def test_panel_sums_its_weighted_rows_in_node_order(width):
    """Bit for bit the reference panel, at the same node times in the same
    order, for rows whose magnitudes span 80 decades: any other summation
    order (numpy's pairwise sum of 1-wide rows, say) rounds differently."""
    rng = np.random.default_rng(20)
    shape = (16,) if width is None else (16, width)
    for _ in range(200):
        rows = rng.standard_normal(shape) * 10.0 ** rng.uniform(-40.0, 40.0, shape)
        lo, hi = np.sort(rng.uniform(-3.0, 3.0, 2))
        times, want_times = [], []
        got = _panel(_served(rows, times), lo, hi)
        want = _panel_per_node(_served(rows, want_times), lo, hi)
        assert times == want_times
        assert type(got) is type(want) and np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


#: the node times of a refining cell, sin_gap at |xi| = 1024 (47 panels), in
#: call order: their count and the sha256 of their space-joined ``float.hex``
SIN_GAP_NODES = (2880, "d0877f9639c409f4d8c1ac7a5bc20f847d704d9b727405fce190d7b867457269")


def test_a_refining_cell_asks_for_the_same_times_in_the_same_order(monkeypatch):
    times, adaptive_gauss = [], conditions.adaptive_gauss
    monkeypatch.setattr(conditions, "adaptive_gauss", lambda f, a, b: adaptive_gauss(
        lambda t: times.append(t) or f(t), a, b))
    condition_integrals(battery_member("sin_gap").op, np.array([1024.0]))
    digest = hashlib.sha256(" ".join(float(t).hex() for t in times).encode()).hexdigest()
    assert (len(times), digest) == SIN_GAP_NODES


def main():
    doc = {"symbols": _symbols(), "points": _points(), "second_order": _second_order(),
           "cells": _cells()}
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {DATA}", file=sys.stderr)


if __name__ == "__main__":
    main()
