import numpy as np
import pytest

from hjj.expr import ExprError, parse


def test_abs_example():
    e = parse("abs(p) - 1")
    assert e(p=1.0, x=0.0) == 0.0


def test_power_example():
    e = parse("(p-1)^2 - 1")
    assert e(p=1.0, x=0.0) == -1.0


def test_max_with_x():
    e = parse("max(abs(p)-1, 0) + x")
    assert e(p=2.0, x=0.5) == 1.5


def test_precedence():
    assert parse("2 + 3 * 4", ())() == 14.0
    assert parse("2 ^ 3 ^ 2", ())() == 512.0
    assert parse("-2^2", ())() == -4.0
    assert parse("(2 + 3) * 4", ())() == 20.0
    assert parse("7 / 2 / 2", ())() == 1.75
    assert parse("a - b - c", ("a", "b", "c"))(a=1.0, b=2.0, c=3.0) == -4.0
    assert parse("a / b * c", ("a", "b", "c"))(a=1.0, b=4.0, c=2.0) == 0.5
    assert parse("2^-1", ())() == 0.5
    assert parse("-p^2", ("p",))(p=3.0) == -9.0
    assert parse("2*-3", ())() == -6.0


def test_unary_minus_and_functions():
    e = parse("-p + exp(0*x)")
    assert e(p=3.0, x=9.0) == -2.0
    assert parse("min(sin(0), cos(0))", ())() == 0.0


def test_array_evaluation():
    e = parse("abs(p) - 1")
    p = np.array([-2.0, 0.0, 2.0])
    np.testing.assert_allclose(e(p=p, x=0.0), [1.0, -1.0, 1.0])


def test_scientific_literals():
    assert parse("1e-3 + 2.5E2", ())() == pytest.approx(250.001)


def test_whitespace_accepted():
    assert parse("\tp +\n 1")(p=1.0, x=0.0) == 2.0
    assert parse("  max( p ,x )\n")(p=1.0, x=3.0) == 3.0


@pytest.mark.parametrize("src", [
    "p**2", "0x1", "1_0", "1j", "True", "+p", "p % 2", "p // 2", "p < 1",
    "[p]", "p.real", "max(p, x=1)", "p if x else 1", "(p, x)", "~p"])
def test_python_only_forms_rejected(src):
    with pytest.raises(ExprError):
        parse(src)


def test_syntax_error_has_position():
    with pytest.raises(ExprError) as err:
        parse("p + * 2")
    assert err.value.position == 4


def test_unknown_identifier():
    with pytest.raises(ExprError, match="unknown identifier 'q'"):
        parse("q + 1")


def test_unknown_function():
    with pytest.raises(ExprError, match="unknown function"):
        parse("tan(p)")


def test_arity_mismatch():
    with pytest.raises(ExprError, match="takes 2 argument"):
        parse("max(p)")
    with pytest.raises(ExprError, match="takes 1 argument"):
        parse("abs(p, x)")


def test_unbalanced_parens():
    with pytest.raises(ExprError):
        parse("(p + 1")
    with pytest.raises(ExprError, match="trailing"):
        parse("p + 1)")
