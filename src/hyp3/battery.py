"""Built-in operator battery with declared expected verdicts.

Every member declares what the analyzers must report for it; the battery
gate compares and fails on any mismatch. Members marked ``levi_ok`` satisfy
all six integral conditions and are used by the energy-estimate witness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .conditions import PRIMARY_KEYS
from .errors import OperatorSpecError
from .expr import parse_timefn
from .operators import Operator2, Operator3

__all__ = ["BatteryMember", "BATTERY", "battery_member", "battery_names"]


def _op3(name, coeffs, horizon=1.0):
    return Operator3(name, 1, horizon, {k: parse_timefn(v) for k, v in coeffs.items()})


def _op2(name, coeffs, horizon=1.0):
    return Operator2(name, 1, horizon, {k: parse_timefn(v) for k, v in coeffs.items()})


@dataclass(frozen=True)
class BatteryMember:
    name: str
    op: Operator3 | Operator2
    expected_conditions: Mapping[str, str] = field(default_factory=dict)
    expected_case: str | None = None
    expected_growth: str | None = None          # "polynomial" | "exp_power"
    expected_kappa: float | None = None         # target exponent for exp_power
    expected_decomposition: str | None = None   # constant-coefficient members
    expected_im: str | None = None
    levi_ok: bool = False

    @property
    def order(self) -> int:
        return 3 if isinstance(self.op, Operator3) else 2


def _all_log():
    return dict.fromkeys(PRIMARY_KEYS, "logarithmic")


def _log_except(**overrides):
    d = _all_log()
    d.update(overrides)
    return d


_MEMBERS = [
    BatteryMember(
        "strict_const", _op3("strict_const", {(1, (2,)): "-1"}),
        expected_conditions=_all_log(), expected_case="I",
        expected_growth="polynomial",
        expected_decomposition="bounded", expected_im="bounded",
        levi_ok=True),
    BatteryMember(
        "triple_pure", _op3("triple_pure", {}),
        expected_conditions=_all_log(), expected_case="III",
        expected_growth="polynomial",
        expected_decomposition="bounded", expected_im="bounded",
        levi_ok=True),
    BatteryMember(
        "triple_plus_dx", _op3("triple_plus_dx", {(0, (1,)): "1"}),
        expected_conditions=_log_except(n_levi="violated"), expected_case="III",
        expected_growth="exp_power", expected_kappa=1.0 / 3.0,
        expected_decomposition="unbounded", expected_im="unbounded-trend"),
    BatteryMember(
        "triple_plus_dxx", _op3("triple_plus_dxx", {(0, (2,)): "-1"}),
        expected_conditions=_log_except(m_levi="violated"), expected_case="III",
        expected_growth="exp_power", expected_kappa=2.0 / 3.0,
        expected_decomposition="unbounded", expected_im="unbounded-trend"),
    BatteryMember(
        "oleinik_ok", _op3("oleinik_ok", {(1, (2,)): "-t^2", (0, (2,)): "t"}),
        expected_conditions=_all_log(), expected_case="I", levi_ok=True),
    BatteryMember(
        "oleinik_bad", _op3("oleinik_bad", {(1, (2,)): "-t^2", (0, (2,)): "1"}),
        expected_conditions=_log_except(m_levi="violated"), expected_case="I"),
    BatteryMember(
        "sin_gap", _op3("sin_gap", {(1, (2,)): "-sin(t)^2"}, horizon=3.0),
        expected_conditions=_all_log(), expected_case="I", levi_ok=True),
    BatteryMember(
        "strict_sin", _op3("strict_sin", {
            (1, (2,)): "-(2+sin(t))^2",
            (2, (0,)): "0.3*cos(t)",
            (0, (2,)): "0.2*t",
            (1, (0,)): "0.1*t",
            (0, (1,)): "0.4",
            (0, (0,)): "0.05*sin(t)",
        }),
        expected_conditions=_all_log(), expected_case="I",
        expected_growth="polynomial", levi_ok=True),
    BatteryMember(
        "const_coeff_wellposed",
        _op3("const_coeff_wellposed", {(1, (2,)): "-1", (0, (2,)): "1"}),
        expected_conditions=_all_log(), expected_case="I",
        expected_growth="polynomial",
        expected_decomposition="bounded", expected_im="bounded",
        levi_ok=True),
    BatteryMember(
        "wave2", _op2("wave2", {(0, (2,)): "-1"}),
        expected_conditions={"disc_drift": "logarithmic", "lower_weighted": "logarithmic"}),
    BatteryMember(
        "oleinik2_ok", _op2("oleinik2_ok", {(0, (2,)): "-t^2", (0, (1,)): "1"}),
        expected_conditions={"disc_drift": "logarithmic", "lower_weighted": "logarithmic"}),
    BatteryMember(
        "oleinik2_bad", _op2("oleinik2_bad", {(0, (1,)): "1"}),
        expected_conditions={"disc_drift": "logarithmic", "lower_weighted": "violated"}),
]

BATTERY: dict[str, BatteryMember] = {m.name: m for m in _MEMBERS}


def battery_member(name: str) -> BatteryMember:
    try:
        return BATTERY[name]
    except KeyError:
        raise OperatorSpecError(f"unknown battery member {name!r}; known: {', '.join(BATTERY)}")


def battery_names(order: int | None = None) -> list[str]:
    return [m.name for m in _MEMBERS if order is None or m.order == order]
