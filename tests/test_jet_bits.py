"""Bit-for-bit pins of the coefficient jets, each value recorded with ``float.hex``.

The Taylor-series kernels of ``hyp3.expr`` may be made cheaper, but only by
doing the same floating-point operations in the same order: any regrouped
rounding, or a zero that changes sign, moves at least one of these values.
The corpus reaches every kernel (sums, products, quotients, positive and
negative powers, sin, cos, exp, log, the imaginary unit, nesting) and t-free
expressions, at single times and on a grid that starts at t = 0. Each jet is
taken twice from the same ``TimeFn``, so a cached t-free jet must keep its
bits too. Rewrite the data only for a change that is meant to move values,
and record the move where the change is described::

    PYTHONPATH=src python tests/test_jet_bits.py

That command rewrites this file's data and the integrand pins of
``tests/test_integrand_bits.py``.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from hyp3.expr import parse_timefn

DATA = Path(__file__).with_name("data") / "jet_bits.json"

CORPUS = (
    # sums, differences, products, quotients
    "t", "t + 2", "2.5 - t", "-t", "3*t*t - t", "(t + 1)/(t - 2)", "t/(0 - 2)", "t - t",
    "0*t",
    # powers
    "t^1", "(t/(0 - 2))^1", "t^2", "(1 + t)^5", "(t - 0.5)^3", "(t + 1)^-1", "(2 + t)^-3",
    "(t - 3)^-2",
    # sin, cos, exp, log, and nesting
    "sin(t)", "cos(2*t + 1)", "exp(0 - t)", "log(1 + t)", "sin(t)^2 + cos(t)^2",
    "exp(sin(t)) * log(2 + cos(t))", "sin(exp(t) - cos(t^2))", "log(1 + t^2)/(3 + sin(t))",
    "(1 + t*exp(t))^-2", "-t^2 * sin(3*t)",
    # the imaginary unit
    "i", "i*t + 1", "exp(i*t)", "sin(i + t)", "cos(i*t)", "log(2 + i*t)", "(1 + i*t)^-1",
    "(t + i)^3 / (2 - i*t)",
    # t-free
    "-1", "2*3", "0.4", "1/(2 - 5)", "sin(1)^2 + cos(1)^2", "exp(1) - log(3)", "(2 + i)^-2",
    "(0 - 2)^3", "-0.0", "(-0.0)^1",
)

POINTS = (0.0, 0.7)
GRID = np.linspace(0.0, 1.5, 7)
ORDERS = (2, 3)


def _enc(x):
    """A value as hex text: a float as one string, a complex as [real, imag],
    a grid array as a list of entries."""
    if x is None:
        return None
    if isinstance(x, np.ndarray):
        return [_enc(v) for v in x.tolist()]
    if isinstance(x, complex):
        return [x.real.hex(), x.imag.hex()]
    return float(x).hex()


def _jet(jet) -> list:
    return [_enc(jet.v), _enc(jet.d1), _enc(jet.d2), _enc(jet.d3)]


def _record(text: str) -> dict:
    fn = parse_timefn(text)
    doc = {}
    for order in ORDERS:
        for t in POINTS + (GRID,):
            key = f"order={order} t={'grid' if isinstance(t, np.ndarray) else repr(t)}"
            first, again = _jet(fn.jet2(t, order=order)), _jet(fn.jet2(t, order=order))
            doc[key] = first if first == again else {"first": first, "again": again}
    doc["value grid"] = _enc(fn.value(GRID))
    doc["value points"] = [_enc(fn.value(t)) for t in POINTS]
    return doc


def _jets() -> dict[str, dict]:
    return {text: _record(text) for text in CORPUS}


@pytest.fixture(scope="module")
def recorded():
    return json.loads(DATA.read_text())


@pytest.mark.parametrize("text", CORPUS)
def test_jets_keep_their_bits(recorded, text):
    assert _record(text) == recorded[text]


def test_corpus_is_the_recorded_one(recorded):
    assert list(recorded) == list(CORPUS)


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(_jets(), indent=1) + "\n")
    print(f"wrote {DATA}", file=sys.stderr)
    sys.path.insert(0, str(Path(__file__).parent))
    import test_integrand_bits

    test_integrand_bits.main()
