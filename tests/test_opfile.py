import pytest

from hyp3.battery import BATTERY
from hyp3.errors import OperatorSpecError
from hyp3.opfile import dump_operator, load_operator, parse_operator_text
from hyp3.operators import Operator2, Operator3

GOOD = """\
# compatible oleinik operator
format = 1
name = oleinik_ok
order = 3
dimension = 1
T = 1.0
a[1,(2)] = -t^2
a[0,(2)] = "t"
"""


def test_parse_good_file():
    op = parse_operator_text(GOOD, origin="good.op")
    assert isinstance(op, Operator3)
    assert op.name == "oleinik_ok" and op.dim == 1 and op.horizon == 1.0
    assert set(op.coeffs) == {(1, (2,)), (0, (2,))}
    assert op.coeffs[(0, (2,))].to_string() == "t"


def test_round_trip_through_dump():
    for member in BATTERY.values():
        text = dump_operator(member.op)
        back = parse_operator_text(text, origin=member.name)
        assert type(back) is type(member.op)
        assert back.name == member.op.name
        assert back.dim == member.op.dim
        assert back.horizon == member.op.horizon
        assert set(back.coeffs) == set(member.op.coeffs)
        for key, fn in member.op.coeffs.items():
            assert back.coeffs[key].ast == fn.ast


def test_load_operator_from_disk(tmp_path):
    p = tmp_path / "op.op"
    p.write_text(GOOD)
    op = load_operator(p)
    assert op.name == "oleinik_ok"


def test_missing_headers():
    with pytest.raises(OperatorSpecError, match="missing header"):
        parse_operator_text("name = x\norder = 3\n")


def test_error_carries_line_number():
    bad = GOOD + "a[1,(2] = t\n"
    with pytest.raises(OperatorSpecError, match=":9:"):
        parse_operator_text(bad)
    with pytest.raises(OperatorSpecError, match=":3:"):
        parse_operator_text("order = 3\ndimension = 1\nwhat = 1\nT = 1\n")


def test_bad_expression_reports_position():
    with pytest.raises(OperatorSpecError, match="offset"):
        parse_operator_text("order = 3\ndimension = 1\nT = 1\na[1,(2)] = t +\n")


def test_bad_order():
    with pytest.raises(OperatorSpecError, match="order"):
        parse_operator_text("order = 4\ndimension = 1\nT = 1\n")


def test_duplicate_coefficient():
    bad = "order = 3\ndimension = 1\nT = 1\na[1,(2)] = t\na[1,(2)] = 1\n"
    with pytest.raises(OperatorSpecError, match="duplicate"):
        parse_operator_text(bad)


def test_order2_file():
    text = "order = 2\ndimension = 1\nT = 1\nname = o2\na[0,(2)] = -t^2\na[0,(1)] = 1\n"
    op = parse_operator_text(text)
    assert isinstance(op, Operator2)


def test_dimension_mismatch():
    with pytest.raises(OperatorSpecError, match="dimension"):
        parse_operator_text("order = 3\ndimension = 2\nT = 1\na[1,(2)] = 1\n")


def test_unsupported_format_version():
    with pytest.raises(OperatorSpecError, match="format"):
        parse_operator_text("format = 9\norder = 3\ndimension = 1\nT = 1\n")


@pytest.mark.parametrize("horizon", ["inf", "1e400", "nan", "0"])
@pytest.mark.parametrize("order", [2, 3])
def test_horizon_must_be_finite_and_positive(order, horizon):
    with pytest.raises(OperatorSpecError, match="horizon"):
        parse_operator_text(f"order = {order}\ndimension = 1\nT = {horizon}\n")


@pytest.mark.parametrize("line,message", [
    ("a[1,(2)]", "<string>:4: expected 'key = value'"),
    ("T = 2.0", "<string>:4: duplicate header key 'T'"),
])
def test_operator_file_line_errors_name_their_line(line, message):
    with pytest.raises(OperatorSpecError) as exc:
        parse_operator_text(f"order = 3\ndimension = 1\nT = 1.0\n{line}\n")
    assert str(exc.value) == message
