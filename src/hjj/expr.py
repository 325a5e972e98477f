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
"""

from __future__ import annotations

import operator

import numpy as np

_FUNCTIONS = {
    "abs": (1, np.abs),
    "exp": (1, np.exp),
    "sin": (1, np.sin),
    "cos": (1, np.cos),
    "min": (2, np.minimum),
    "max": (2, np.maximum),
}


class ExprError(ValueError):
    """Syntax or semantic error in an expression, with source position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind, text, pos):
        self.kind = kind
        self.text = text
        self.pos = pos


def _tokenize(src):
    tokens = []
    i, n = 0, len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*/^(),":
            tokens.append(_Token(ch, ch, i))
            i += 1
            continue
        if ch.isdigit() or ch == ".":
            j = i
            while j < n and (src[j].isdigit() or src[j] == "."):
                j += 1
            if j < n and src[j] in "eE":
                k = j + 1
                if k < n and src[k] in "+-":
                    k += 1
                if k < n and src[k].isdigit():
                    j = k
                    while j < n and src[j].isdigit():
                        j += 1
            try:
                float(src[i:j])
            except ValueError:
                raise ExprError(f"bad number literal '{src[i:j]}'", i) from None
            tokens.append(_Token("num", src[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(_Token("name", src[i:j], i))
            i = j
            continue
        raise ExprError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens, variables):
        self.tokens = tokens
        self.pos = 0
        self.variables = variables

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok.kind != kind:
            raise ExprError(f"expected {kind!r}, found {tok.text!r}", tok.pos)
        return tok

    def expr(self):
        node = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.next().kind
            node = (op, node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.peek().kind in ("*", "/"):
            op = self.next().kind
            node = (op, node, self.unary())
        return node

    def unary(self):
        if self.peek().kind == "-":
            self.next()
            return ("neg", self.unary())
        return self.power()

    def power(self):
        node = self.atom()
        if self.peek().kind == "^":
            self.next()
            node = ("^", node, self.unary())
        return node

    def atom(self):
        tok = self.next()
        if tok.kind == "num":
            return ("num", float(tok.text))
        if tok.kind == "(":
            node = self.expr()
            self.expect(")")
            return node
        if tok.kind == "name":
            if self.peek().kind == "(":
                if tok.text not in _FUNCTIONS:
                    raise ExprError(f"unknown function '{tok.text}'", tok.pos)
                arity, _ = _FUNCTIONS[tok.text]
                self.next()
                args = [self.expr()]
                while self.peek().kind == ",":
                    self.next()
                    args.append(self.expr())
                self.expect(")")
                if len(args) != arity:
                    raise ExprError(
                        f"function '{tok.text}' takes {arity} argument(s), got {len(args)}",
                        tok.pos,
                    )
                return ("call", tok.text, args)
            if tok.text not in self.variables:
                raise ExprError(f"unknown identifier '{tok.text}'", tok.pos)
            return ("var", tok.text)
        raise ExprError(f"unexpected token {tok.text!r}", tok.pos)


_BINARY = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "^": operator.pow,
}


def _compile(node):
    """The AST as nested closures env -> value, one per node: the same
    operations in the same order as a walk of the tree, without the walk."""
    kind = node[0]
    if kind == "num":
        value = node[1]
        return lambda env: value
    if kind == "var":
        name = node[1]
        return lambda env: env[name]
    if kind == "neg":
        arg = _compile(node[1])
        return lambda env: -arg(env)
    if kind == "call":
        _, fn = _FUNCTIONS[node[1]]
        args = [_compile(a) for a in node[2]]
        if len(args) == 1:
            (a,) = args
            return lambda env: fn(a(env))
        a, b = args
        return lambda env: fn(a(env), b(env))
    op = _BINARY[kind]
    a, b = _compile(node[1]), _compile(node[2])
    return lambda env: op(a(env), b(env))


class Expression:
    """Parsed expression, compiled once into nested closures; callable with
    keyword arguments for its variables."""

    def __init__(self, src, variables):
        self.src = src
        self.variables = tuple(variables)
        tokens = _tokenize(src)
        parser = _Parser(tokens, set(self.variables))
        self.ast = parser.expr()
        tail = parser.peek()
        if tail.kind != "end":
            raise ExprError(f"trailing input {tail.text!r}", tail.pos)
        self._fn = _compile(self.ast)

    def __call__(self, **env):
        return self._fn(env)

    def __repr__(self):
        return f"Expression({self.src!r})"


def parse(src, variables=("p", "x")):
    """Parse `src` into an Expression over the given variable names."""
    return Expression(src, variables)
