"""Bit-for-bit pins of the condition integrand, the second-order integrals and
whole condition cells, each value recorded with ``float.hex``.

The scalar integrand path may be made cheaper, but only by doing the same
floating-point operations in the same order: any regrouped rounding moves at
least one of these values. Rewrite the data only for a change that is meant
to move values, and record the move where the change is described::

    PYTHONPATH=src python tests/test_integrand_bits.py

(``tests/test_jet_bits.py``, run the same way, rewrites this data and its own.)
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from hyp3 import conditions
from hyp3.battery import battery_member
from hyp3.conditions import _integrand_values, condition_integrals, second_order_check

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


def _hex(values) -> list[str]:
    return [float(v).hex() for v in values]


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


def test_integrand_values_keep_their_bits(recorded):
    got = _points()
    assert len(got) == 20 and all(len(v) == 34 for v in got.values())
    assert got == recorded["points"]


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


def main():
    doc = {"points": _points(), "second_order": _second_order(), "cells": _cells()}
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {DATA}", file=sys.stderr)


if __name__ == "__main__":
    main()
