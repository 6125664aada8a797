"""The parser error contract: for each bad formula and bad clause, the exact
ParseError message and UTF-8 byte offset."""

import pytest

from xfvar.algebra import parse_clause
from xfvar.errors import ParseError
from xfvar.formula import parse_formula

FORMULA_ERRORS = [
    ("", "unexpected end of input", 0),
    ("1 +", "unexpected end of input", 3),
    ("(1", "expected ')'", 2),
    ("1 2", "unexpected token 2.0", 2),
    ("min(1)", "min takes 2 arguments, got 1", 0),
    ("exp(1, 2)", "exp takes 1 argument, got 2", 0),
    ("1..2", "unexpected token 0.2", 2),
    ("a $ b", "unexpected character '$'", 2),
    ("foo(a)", "unknown function 'foo'", 0),
    ("nope", "unknown identifier 'nope'", 0),
    ("é + $", "unexpected character 'é'", 0),
    ("(" * 101 + "a", "expression nests too deeply", 100),
]

CLAUSE_ERRORS = [
    ("", "empty clause expression", 0),
    ("W1 |", "unexpected end of input", 4),
    ("(W1", "expected ')'", 3),
    ("W1 W2", "unexpected token 'W2'", 3),
    ("nope", "unknown variable 'nope'", 0),
    ("W1 & é$", "unexpected character 'é'", 5),
    ("~", "unexpected end of input", 1),
    (")", "unexpected token ')'", 0),
    ("~" * 101 + "W1", "expression nests too deeply", 100),
]


@pytest.mark.parametrize("text,message,offset", FORMULA_ERRORS)
def test_formula_parse_error(text, message, offset):
    with pytest.raises(ParseError) as info:
        parse_formula(text, ("a", "b"))
    assert str(info.value) == f"{message} (at byte offset {offset})"
    assert info.value.offset == offset


@pytest.mark.parametrize("text,message,offset", CLAUSE_ERRORS)
def test_clause_parse_error(text, message, offset):
    with pytest.raises(ParseError) as info:
        parse_clause(text, ("W1", "W2", "W3"))
    assert str(info.value) == f"{message} (at byte offset {offset})"
    assert info.value.offset == offset
