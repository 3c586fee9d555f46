"""Tiny arithmetic expression language for symbols loaded from files.

Grammar: + - * / (also the unicode times/divide signs ×, ÷), ^ or ** for
powers (right-associative, and tighter than a sign on their left), a unary
+ or -, parentheses, calls of abs, sign, exp, sin, cos, sqrt, log, arctan,
conj, re, im (one argument each) and min, max (two or more), numeric
literals such as 7, 007, 2.5, .5, 1e-3 or 1.5E+2 with an optional imaginary
suffix i or j, the constants pi, e, i and j, and whatever variable names
the caller allows. Everything evaluates in complex128 and broadcasts over
numpy arrays.

Python's parser reads the text into a tree (``ast.parse`` runs nothing); a
whitelist walk over that tree checks it and builds the evaluator from
closures. Every error is a :class:`ParseError` with an offset into the
original text.
"""

from __future__ import annotations

import ast
import operator
import re
import warnings

import numpy as np

__all__ = ["ParseError", "compile_expr"]


class ParseError(ValueError):
    """Syntax or binding error; ``position`` is the 0-based character offset."""

    def __init__(self, message, position):
        super().__init__(f"{message} at offset {position}")
        self.position = position


_FUNCTIONS = {
    "abs": (1, np.abs),
    "sign": (1, np.sign),
    "exp": (1, np.exp),
    "sin": (1, np.sin),
    "cos": (1, np.cos),
    "sqrt": (1, np.sqrt),
    "log": (1, np.log),
    "arctan": (1, np.arctan),
    "conj": (1, np.conj),
    "re": (1, np.real),
    "im": (1, np.imag),
    "min": (None, lambda *a: np.minimum.reduce(np.broadcast_arrays(*(x.real for x in a)))
            .astype(complex)),
    "max": (None, lambda *a: np.maximum.reduce(np.broadcast_arrays(*(x.real for x in a)))
            .astype(complex)),
}

_CONSTANTS = {"pi": complex(np.pi), "i": 1j, "j": 1j, "e": complex(np.e)}

_LITERAL = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?(?:[ij](?!\w))?"
_TOKEN = re.compile(rf"(?P<name>[A-Za-z_]\w*)|(?P<zeros>(?:0(?=\d))*)(?P<literal>{_LITERAL})",
                    re.ASCII)
_SPELLINGS = str.maketrans("×÷", "*/")
_OUTSIDE = re.compile(r"[^0-9A-Za-z_.+\-*/^(), ]")
_CLOSING = re.compile(r"[ )]*")


def _divide(left, right):
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.asarray(left, dtype=complex) / right


def _power(left, right):
    with np.errstate(invalid="ignore"):
        return np.asarray(left, dtype=complex) ** right


_OPERATORS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
              ast.Div: _divide, ast.Pow: _power}


def _as_python(token):
    """A literal as Python spells it: leading zeros blanked, suffix i as j."""
    if token["name"]:
        return token["name"]
    return " " * len(token["zeros"]) + token["literal"].replace("i", "j")


def compile_expr(text, variables):
    """Compile an expression to ``fn(env) -> complex ndarray``.

    ``variables`` is the set of allowed variable names; unknown names raise
    :class:`ParseError` with their position.  Division by zero yields
    non-finite values for the caller's guard policy to handle.
    """
    # the length of ``text``, on one line and in ASCII: ast's columns, UTF-8
    # bytes into a line, are then offsets into ``text``
    flat = re.sub(r"\s", " ", text).translate(_SPELLINGS)
    bad = _OUTSIDE.search(flat)
    if bad:
        raise ParseError(f"unexpected character '{text[bad.start()]}'", bad.start())
    spelled = _TOKEN.sub(_as_python, flat)
    # each ^ becomes **: offset k of ``body`` is offset back[lead + k] of ``text``
    back = sorted([*range(len(text) + 1), *(m.start() for m in re.finditer(r"\^", spelled))])
    body = spelled.replace("^", "**").lstrip()
    lead = len(back) - 1 - len(body)
    try:
        # a warning such as "invalid decimal literal" (from "1if") is raised
        # as the SyntaxError it describes instead of printed to stderr
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tree = ast.parse(body, mode="eval").body
    except SyntaxError as err:
        column = min(max((err.offset or 1) - 1, 0), len(body))
        raise ParseError(err.msg, back[lead + column]) from None
    allowed = set(variables) | set(_CONSTANTS)

    def build(node):
        start = back[lead + node.col_offset]
        source = text[start:back[lead + node.end_col_offset]]
        if isinstance(node, ast.Name):
            name = node.id
            if name not in allowed:
                raise ParseError(f"unbound variable '{name}'", start)
            return lambda env: env[name] if name in env else _CONSTANTS[name]
        if isinstance(node, ast.Constant) and re.fullmatch(_LITERAL, source):
            # complex(0, x), not 1j * x: 1j * inf has the real part 0 * inf = nan
            value = (complex(0.0, float(source[:-1])) if source[-1] in "ij"
                     else complex(float(source)))
            return lambda env: value
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
            operand = build(node.operand)
            return operand if isinstance(node.op, ast.UAdd) else lambda env: -operand(env)
        if isinstance(node, ast.BinOp):
            op = _OPERATORS.get(type(node.op))
            if op is None:
                at = _CLOSING.match(body, node.left.end_col_offset).end()
                raise ParseError("operator outside the grammar", back[lead + at])
            left, right = build(node.left), build(node.right)
            return lambda env: op(left(env), right(env))
        # name(arg, ...) alone: no keyword, no parenthesized or computed
        # callee, no trailing comma
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and not node.keywords
                and body[node.func.end_col_offset:].lstrip().startswith("(")
                and "," not in body[(node.args or [node.func])[-1].end_col_offset:
                                    node.end_col_offset]):
            name = node.func.id
            if name not in _FUNCTIONS:
                raise ParseError(f"unknown function '{name}'", start)
            arity, fn = _FUNCTIONS[name]
            if arity is not None and len(node.args) != arity:
                raise ParseError(f"'{name}' takes {arity} argument(s)", start)
            if arity is None and len(node.args) < 2:
                raise ParseError(f"'{name}' needs at least 2 arguments", start)
            args = [build(arg) for arg in node.args]
            return lambda env: fn(*(np.asarray(arg(env), dtype=complex) for arg in args))
        raise ParseError(f"'{source}' is outside the grammar", start)

    evaluate = build(tree)
    return lambda env: np.asarray(evaluate(env), dtype=complex)
