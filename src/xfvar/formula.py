"""Arithmetic expression parser and vectorized evaluator.

Grammar (standard infix, whitespace-insensitive):

    expr    := mul (('+' | '-') mul)*
    mul     := unary (('*' | '/') unary)*
    unary   := '-' unary | power
    power   := primary ('^' unary)?          # right-associative
    primary := NUMBER | NAME | NAME '(' expr (',' expr)* ')' | '(' expr ')'

'^' binds tighter than unary minus, so -w^2 is -(w^2); exponents parse a
unary so w^-2 works. Functions: exp, log, abs, sigmoid, sqrt (1 arg),
min, max (2 args). Evaluation is over numpy arrays or scalars and must
produce finite values. The parser emits each formula as a flat program
of ops (Formula.program), which run_program evaluates; scm writes every
node of a causal model as one such program, which its node loop runs
and scm.HybridOutcomes expands op by op.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import FormulaEvalError, ParseError


def sigmoid(x):
    """The logistic function, scipy's expit; scipy.special loads on first call."""
    from scipy.special import expit

    return expit(x)


_FUNCTIONS = {
    "exp": (1, np.exp),
    "log": (1, np.log),
    "abs": (1, np.abs),
    "sigmoid": (1, sigmoid),
    "sqrt": (1, np.sqrt),
    "min": (2, np.minimum),
    "max": (2, np.maximum),
}

_BINARY = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    # the ufunc operator.truediv calls on arrays; on two floats it gives
    # inf or nan, as np.power does, where operator.truediv would raise
    "/": np.true_divide,
    "^": np.power,
}

# One token per match: a number, a name, a run of whitespace, or any other
# single character (an operator if it is in the parser's ops, else an error).
_TOKEN = re.compile(
    r"(?P<num>(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<space>\s+)|(?P<char>.)",
    re.DOTALL,
)


class Tokens:
    """Lexer and cursor shared by the formula and clause parsers.

    A token is (kind, value, byte_offset) with kind num, name, op (one
    character of `ops`) or end; offsets count bytes of the UTF-8 source.
    """

    # nesting levels a parser may enter (descend): at most five frames of
    # recursive descent each, they stay well inside Python's recursion limit
    max_depth = 100

    def __init__(self, text, ops):
        self.toks = []
        off = 0
        for m in _TOKEN.finditer(text):
            kind, lit = m.lastgroup, m.group()
            if kind == "num":
                self.toks.append(("num", float(lit), off))
            elif kind == "name":
                self.toks.append(("name", lit, off))
            elif kind == "char":
                if lit not in ops:
                    raise ParseError(f"unexpected character {lit!r}", off)
                self.toks.append(("op", lit, off))
            off += len(lit.encode("utf-8"))
        self.toks.append(("end", "", off))
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def accept(self, ops):
        """Consume the next token and return its operator if it is one of
        ops; otherwise leave it and return None."""
        kind, value, _ = self.peek()
        if kind == "op" and value in ops:
            self.pos += 1
            return value
        return None

    def expect(self, op):
        kind, value, off = self.next()
        if kind != "op" or value != op:
            raise ParseError(f"expected {op!r}", off)

    def fail(self, tok):
        kind, value, off = tok
        if kind == "end":
            raise ParseError("unexpected end of input", off)
        raise ParseError(f"unexpected token {value!r}", off)

    def descend(self):
        """Enter a nesting level (the caller leaves it with depth -= 1);
        ParseError at the next token past max_depth."""
        if self.depth == self.max_depth:
            raise ParseError("expression nests too deeply", self.peek()[2])
        self.depth += 1

    def finish(self, result):
        """Return result if every token was consumed, else fail on the next one."""
        if self.peek()[0] != "end":
            self.fail(self.peek())
        return result


@dataclass(frozen=True)
class Formula:
    """A parsed expression; `variables` lists the names it references.

    program is the expression as a flat tuple of ops in evaluation
    order (run_program), whose last op checks that the value is finite
    and returns it. Each op is the ufunc or operator the expression
    names, applied to the same operands in the same order as a recursive
    walk of the expression, so the program's values are that walk's, bit
    for bit.
    """

    source: str
    program: tuple = field(compare=False, repr=False)
    variables: tuple

    def evaluate(self, env):
        """Evaluate against {name: array-or-scalar}; raises on non-finite output."""
        return run_program(self.program, env)

    def __str__(self):
        return self.source


def run_program(program, env, noise=None, n_rows=None):
    """The value of the last op of program, a tuple of ops in evaluation
    order, with numpy's floating-point warnings silenced. Op k is a leaf,
    ("var", name) for env[name], ("num", value) for value, ("noise", None)
    for noise or ("rows", None) for n_rows, or (fn, args): the callable fn
    of the values of the earlier ops whose indices args lists."""
    vals = []
    with np.errstate(all="ignore"):
        for op, arg in program:
            if not isinstance(op, str):
                vals.append(op(*[vals[a] for a in arg]))
            elif op == "var":
                try:
                    vals.append(env[arg])
                except KeyError:
                    raise FormulaEvalError(f"no value bound for variable {arg!r}") from None
            elif op == "num":
                vals.append(arg)
            else:
                vals.append(noise if op == "noise" else n_rows)
    return vals[-1]


def _finite_check(source):
    """The program's last op: its value, unless that is not finite."""

    def finite(out):
        if not np.isfinite(np.asarray(out, dtype=float)).all():
            raise FormulaEvalError(f"formula {source!r} produced a non-finite value")
        return out

    return finite


def parse_formula(text: str, allowed_names) -> Formula:
    """Parse an arithmetic expression referencing only allowed_names.

    Raises ParseError with the byte offset of the problem for syntax
    errors, unknown identifiers, and wrong function arity.
    """
    allowed = set(allowed_names)
    toks = Tokens(text, "+-*/^(),")
    used = set()
    program = []

    def emit(op, arg):
        program.append((op, arg))
        return len(program) - 1

    def parse_expr():
        node = parse_mul()
        while op := toks.accept("+-"):
            node = emit(_BINARY[op], (node, parse_mul()))
        return node

    def parse_mul():
        node = parse_unary()
        while op := toks.accept("*/"):
            node = emit(_BINARY[op], (node, parse_unary()))
        return node

    def parse_unary():  # every recursion of the grammar passes here
        toks.descend()
        node = emit(operator.neg, (parse_unary(),)) if toks.accept("-") else parse_power()
        toks.depth -= 1
        return node

    def parse_power():
        node = parse_primary()
        if toks.accept("^"):
            node = emit(np.power, (node, parse_unary()))
        return node

    def parse_primary():
        if toks.accept("("):
            node = parse_expr()
            toks.expect(")")
            return node
        tok = toks.next()
        kind, value, off = tok
        if kind == "num":
            return emit("num", value)
        if kind != "name":
            toks.fail(tok)
        if toks.accept("("):
            if value not in _FUNCTIONS:
                raise ParseError(f"unknown function {value!r}", off)
            arity, fn = _FUNCTIONS[value]
            args = [parse_expr()]
            while toks.accept(","):
                args.append(parse_expr())
            toks.expect(")")
            if len(args) != arity:
                raise ParseError(
                    f"{value} takes {arity} argument{'s' if arity > 1 else ''}, got {len(args)}",
                    off,
                )
            return emit(fn, tuple(args))
        if value not in allowed:
            raise ParseError(f"unknown identifier {value!r}", off)
        used.add(value)
        return emit("var", value)

    root = toks.finish(parse_expr())
    emit(_finite_check(text), (root,))
    ordered = tuple(n for n in allowed_names if n in used)
    return Formula(text, tuple(program), ordered)
