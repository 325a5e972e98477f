"""Tiny arithmetic expression language for Hamiltonians.

Grammar (precedence low to high):

    expr    : term (('+' | '-') term)*
    term    : unary (('*' | '/') unary)*
    unary   : '-' unary | power
    power   : atom ('^' unary)?          # right associative
    atom    : NUMBER | NAME | NAME '(' expr (',' expr)* ')' | '(' expr ')'

Functions: abs, exp, sin, cos (1 argument), min, max (2 arguments).
Variable names are restricted to the set passed to parse(); evaluation
works elementwise on numpy arrays as well as on floats.

The grammar is unchanged. With '^' read as '**' it is a subset of Python's
expression grammar with the same precedence, so Python's parser (ast) reads
it, and a whitelist walk over the syntax tree rejects the rest of Python.
"""

from __future__ import annotations

import ast
import operator
import re
import warnings

import numpy as np

_FUNCTIONS = {
    "abs": (1, np.abs),
    "exp": (1, np.exp),
    "sin": (1, np.sin),
    "cos": (1, np.cos),
    "min": (2, np.minimum),
    "max": (2, np.maximum),
}

_BINARY = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
    ast.Pow: operator.pow,
}

# a character outside the grammar's alphabet
_STRAY = re.compile(r"[^\sA-Za-z0-9_+\-*/^(),.]")
# leading zeros of a number, which Python rejects on an integer ("01");
# not inside a name, a number or a signed exponent
_LEADING_ZEROS = re.compile(r"(?<![\w.])(?<![0-9.][eE][+-])0+(?=[0-9])")
_NUMBER = re.compile(r"[0-9]*\.?[0-9]*(?:[eE][+-]?[0-9]+)?")


class ExprError(ValueError):
    """Syntax or semantic error in an expression, with source position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _compile(node, text, variables, fail):
    """The syntax tree as nested closures env -> value, one per node: the
    same operations in the same order as a walk of the tree, without the
    walk. text is the parsed source; fail(message, offset) rejects a node."""
    at = node.col_offset
    if isinstance(node, ast.Constant):
        literal = text[at:node.end_col_offset]
        if not _NUMBER.fullmatch(literal):
            fail(f"unexpected token {literal!r}", at)
        value = float(literal)
        return lambda env: value
    if isinstance(node, ast.Name):
        if node.id not in variables:
            fail(f"unknown identifier '{node.id}'", at)
        name = node.id
        return lambda env: env[name]
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        arg = _compile(node.operand, text, variables, fail)
        return lambda env: -arg(env)
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        op = _BINARY[type(node.op)]
        a = _compile(node.left, text, variables, fail)
        b = _compile(node.right, text, variables, fail)
        return lambda env: op(a(env), b(env))
    # a call names its function directly: not "(abs)(p)"
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.col_offset == at:
        name = node.func.id
        if name not in _FUNCTIONS:
            fail(f"unknown function '{name}'", at)
        arity, fn = _FUNCTIONS[name]
        if len(node.args) != arity or node.keywords:
            fail(f"function '{name}' takes {arity} argument(s), "
                 f"got {len(node.args) + len(node.keywords)}", at)
        if "," in text[node.args[-1].end_col_offset:node.end_col_offset]:
            fail("unexpected token ')'", node.end_col_offset - 1)
        args = [_compile(a, text, variables, fail) for a in node.args]
        if len(args) == 1:
            (a,) = args
            return lambda env: fn(a(env))
        a, b = args
        return lambda env: fn(a(env), b(env))
    fail(f"unexpected {text[at:node.end_col_offset]!r}", at)


class Expression:
    """Parsed expression, compiled once into nested closures; callable with
    keyword arguments for its variables."""

    def __init__(self, src, variables):
        self.src = src
        self.variables = tuple(variables)
        if stray := _STRAY.search(src):
            raise ExprError(f"unexpected character {stray[0]!r}",
                            stray.start())
        if "**" in src:
            raise ExprError("unexpected token '*'", src.index("**") + 1)
        text = _LEADING_ZEROS.sub(lambda m: " " * len(m[0]),
                                  re.sub(r"\s", " ", src)).replace("^", "**")
        body = text.lstrip()

        def fail(message, offset):
            # an offset into body back into src: the indent, less one per '^'
            k = offset + len(text) - len(body)
            raise ExprError(message, k - text.count("**", 0, k))

        # Python warns of a number that runs into a keyword ("1or p")
        # before the walk below rejects the keyword
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SyntaxWarning)
            try:
                tree = ast.parse(body, mode="eval")
            except SyntaxError as err:
                at = max((err.offset or 1) - 1, 0)
                try:  # a whole expression before the error: trailing input
                    ast.parse(body[:at], mode="eval")
                except SyntaxError:
                    fail(err.msg, at)
                fail(f"trailing input {body[at:].strip()!r}", at)
        self._fn = _compile(tree.body, body, set(self.variables), fail)

    def __call__(self, **env):
        return self._fn(env)

    def __repr__(self):
        return f"Expression({self.src!r})"


def parse(src, variables=("p", "x")):
    """Parse `src` into an Expression over the given variable names."""
    return Expression(src, variables)
