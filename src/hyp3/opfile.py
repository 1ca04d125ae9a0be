"""Operator table files.

A sectioned plain-text format, versioned by the ``format`` key::

    # comments start with '#'
    format = 1
    name = oleinik_ok
    order = 3          # 2 or 3
    dimension = 1
    T = 1.0
    a[1,(2)] = -t^2    # a[j,(alpha_1,...,alpha_n)] = <expression>
    a[0,(2)] = "t"     # quotes optional

Omitted coefficients are zero. The operator is monic in the top time
derivative, which is therefore not stored.
"""

from __future__ import annotations

import re
from pathlib import Path

from .errors import ExprError, OperatorSpecError, _clip
from .expr import TimeFn, parse_timefn
from .operators import Operator2, Operator3

__all__ = ["load_operator", "parse_operator_text", "dump_operator"]

_COEFF_RE = re.compile(r"^a\[\s*(\d+)\s*,\s*\(([^)]*)\)\s*\]$")
_HEADER_KEYS = {"format", "name", "order", "dimension", "T"}


def parse_operator_text(text: str, origin: str = "<string>") -> Operator3 | Operator2:
    header: dict[str, str] = {}
    coeffs: dict[tuple[int, tuple[int, ...]], TimeFn] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise OperatorSpecError(f"{origin}:{lineno}: expected 'key = value'")
        key, value = (s.strip() for s in line.split("=", 1))
        if value.startswith('"') and value.endswith('"') and len(value) >= 2:
            value = value[1:-1].strip()
        m = _COEFF_RE.match(key)
        if m:
            try:
                j = int(m.group(1))
            except ValueError:  # more digits than Python converts to an int
                raise OperatorSpecError(f"{origin}:{lineno}: time index too long") from None
            alpha_text = m.group(2).strip()
            try:
                alpha = tuple(int(s) for s in alpha_text.split(",")) if alpha_text else ()
            except ValueError:
                raise OperatorSpecError(f"{origin}:{lineno}: bad multi-index ({_clip(alpha_text)})")
            try:
                fn = parse_timefn(value)
            except ExprError as exc:
                raise OperatorSpecError(f"{origin}:{lineno}: {exc}") from exc
            if (j, alpha) in coeffs:
                raise OperatorSpecError(
                    f"{origin}:{lineno}: duplicate coefficient {_clip(f'a[{j},{alpha}]')}")
            coeffs[(j, alpha)] = fn
        elif key in _HEADER_KEYS:
            if key in header:
                raise OperatorSpecError(f"{origin}:{lineno}: duplicate header key {key!r}")
            header[key] = value
        else:
            raise OperatorSpecError(f"{origin}:{lineno}: unknown key {_clip(repr(key))}")

    if header.get("format", "1") != "1":
        raise OperatorSpecError(f"{origin}: unsupported format {_clip(repr(header['format']))}")
    missing = [k for k in ("order", "dimension", "T") if k not in header]
    if missing:
        raise OperatorSpecError(f"{origin}: missing header keys: {', '.join(missing)}")
    try:
        order = int(header["order"])
        dim = int(header["dimension"])
        horizon = float(header["T"])
    except ValueError as exc:
        raise OperatorSpecError(f"{origin}: bad header value: {_clip(exc)}") from exc
    if order not in (2, 3):
        raise OperatorSpecError(f"{origin}: order must be 2 or 3, got {_clip(order)}")
    name = header.get("name", Path(origin).stem)
    for (j, alpha) in coeffs:
        if len(alpha) != dim:
            raise OperatorSpecError(
                f"{origin}: multi-index {_clip(alpha)} does not match dimension {_clip(dim)}")
    cls = Operator3 if order == 3 else Operator2
    return cls(name, dim, horizon, coeffs)


def load_operator(path: str | Path) -> Operator3 | Operator2:
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise OperatorSpecError(f"cannot read operator file {p}: {exc}") from exc
    return parse_operator_text(text, origin=str(p))


def dump_operator(op: Operator3 | Operator2) -> str:
    order = 3 if isinstance(op, Operator3) else 2
    lines = [
        "format = 1",
        f"name = {op.name}",
        f"order = {order}",
        f"dimension = {op.dim}",
        f"T = {op.horizon!r}",
    ]
    for (j, alpha), fn in sorted(op.coeffs.items()):
        alpha_text = ",".join(str(a) for a in alpha)
        lines.append(f"a[{j},({alpha_text})] = {fn.to_string()}")
    return "\n".join(lines) + "\n"
