import numpy as np
import pytest

from xfvar.errors import ParseError
from xfvar.formula import FormulaEvalError, parse_formula


def _ev(text, names=(), **env):
    f = parse_formula(text, names or tuple(env))
    out = f.evaluate({k: np.asarray(v, dtype=float) for k, v in env.items()})
    return np.asarray(out, dtype=float)


def test_numbers_and_arithmetic():
    assert _ev("1 + 2*3") == pytest.approx(7.0)
    assert _ev("(1 + 2) * 3") == pytest.approx(9.0)
    assert _ev("7 / 2") == pytest.approx(3.5)
    assert _ev("1.5e2 - 50") == pytest.approx(100.0)


def test_power_binds_tighter_than_unary_minus():
    assert _ev("-2^2") == pytest.approx(-4.0)
    assert _ev("(-2)^2") == pytest.approx(4.0)
    assert _ev("2^-1") == pytest.approx(0.5)
    assert _ev("2^3^2") == pytest.approx(512.0)  # right-associative


def test_variables_vectorized():
    x = np.array([-1.0, 0.0, 2.0])
    got = _ev("x^2 + 3*x", x=x)
    assert np.allclose(got, x**2 + 3 * x)


def test_functions():
    x = np.array([0.5, 1.0, 2.0])
    assert np.allclose(_ev("exp(x)", x=x), np.exp(x))
    assert np.allclose(_ev("log(x)", x=x), np.log(x))
    assert np.allclose(_ev("sqrt(x)", x=x), np.sqrt(x))
    assert np.allclose(_ev("abs(0 - x)", x=x), x)
    assert np.allclose(_ev("sigmoid(x)", x=x), 1 / (1 + np.exp(-x)))
    assert np.allclose(_ev("min(x, 1)", x=x), np.minimum(x, 1))
    assert np.allclose(_ev("max(x, 1)", x=x), np.maximum(x, 1))


def test_variables_property():
    f = parse_formula("a + c", ("a", "b", "c"))
    assert f.variables == ("a", "c")


def test_unknown_name_rejected_at_parse():
    with pytest.raises(ParseError):
        parse_formula("a + nope", ("a",))


def test_syntax_errors():
    for bad in ("", "1 +", "(1", "1 2", "min(1)", "exp(1, 2)", "1..2", "a $ b"):
        with pytest.raises(ParseError):
            parse_formula(bad, ("a", "b"))


def test_nonfinite_evaluation_rejected():
    with pytest.raises(FormulaEvalError):
        _ev("1 / x", x=np.array([0.0]))
    with pytest.raises(FormulaEvalError):
        _ev("log(x)", x=np.array([-1.0]))


@pytest.mark.parametrize("text", ["x + 1/0", "x + 0/0", "x + 1/(1 - 1)", "x*0 + 0^-1"])
def test_constants_that_divide_by_zero_are_non_finite(text):
    with pytest.raises(FormulaEvalError, match="produced a non-finite value"):
        _ev(text, x=np.array([1.0, 2.0]))


def test_division_of_arrays_is_operator_truediv():
    x = np.array([0.1, 3.0, -7.0, 1e-300])
    y = np.array([0.3, 7.0, 0.1, 1e10])
    assert _ev("x / y", x=x, y=y).tobytes() == (x / y).tobytes()
    assert _ev("1 / x", x=x).tobytes() == (1.0 / x).tobytes()
    assert _ev("x / 3", x=x).tobytes() == (x / 3.0).tobytes()


def test_source_is_kept():
    f = parse_formula("a + 2 * b", ("a", "b"))
    assert f.source == "a + 2 * b"


@pytest.mark.parametrize(
    "text, env, name",
    [("x + 1", {}, "x"), ("x * y", {"x": 1.0}, "y")],
    ids=["no_binding", "one_of_two_bound"],
)
def test_unbound_variable_rejected_at_evaluation(text, env, name):
    f = parse_formula(text, ("x", "y"))
    with pytest.raises(FormulaEvalError) as exc:
        f.evaluate(env)
    assert type(exc.value) is FormulaEvalError
    assert str(exc.value) == f"no value bound for variable {name!r}"
