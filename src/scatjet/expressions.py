"""Tiny closed-form expression grammar for boundary fields.

Supported: ``+ - * / **``, unary minus, ``cos``, ``sin``, ``exp``, numeric
literals, the constants ``pi`` and ``e``, and the boundary coordinates
``y1 .. yn``.  Expressions are parsed with :mod:`ast` and evaluated against
numpy coordinate arrays, so anything outside the whitelist is rejected
rather than executed.  Every literal is a float64, so ``10**20`` is ``1e20``
and ``2**-1`` is ``0.5``, not integer arithmetic; a literal past double
range is refused.  Arithmetic that leaves double range gives an infinity or
a NaN without a warning, and the caller refuses the field.
"""
from __future__ import annotations

import ast
import math
from typing import Mapping

import numpy as np

from .errors import ConfigError

_FUNCTIONS = {"cos": np.cos, "sin": np.sin, "exp": np.exp}
_CONSTANTS = {"pi": math.pi, "e": math.e}
_BINOPS = {
    ast.Add: np.add,
    ast.Sub: np.subtract,
    ast.Mult: np.multiply,
    ast.Div: np.divide,
    ast.Pow: np.power,
}


def evaluate_field(expr: str, coords: Mapping[str, np.ndarray]) -> np.ndarray:
    """Evaluate ``expr`` on broadcast coordinate arrays; returns a full array.

    ``coords`` maps coordinate names (``y1``...) to mutually broadcastable
    arrays; the result is materialized at the broadcast shape.
    """
    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError as exc:
        raise ConfigError(f"cannot parse field expression {expr!r}: {exc}") from None

    def walk(node: ast.AST):
        if isinstance(node, ast.Expression):
            return walk(node.body)
        if isinstance(node, ast.Constant):
            if not isinstance(node.value, (int, float)):
                raise ConfigError(f"non-numeric literal {node.value!r} in {expr!r}")
            try:
                value = float(node.value)
            except OverflowError:  # an integer past double range
                value = math.inf
            if not math.isfinite(value):  # such as 1e400, which parses as inf
                literal = ast.get_source_segment(expr, node)
                raise ConfigError(f"literal {literal} in {expr!r} is past double range")
            return value
        if isinstance(node, ast.Name):
            if node.id in coords:
                return coords[node.id]
            if node.id in _CONSTANTS:
                return _CONSTANTS[node.id]
            raise ConfigError(f"unknown name {node.id!r} in {expr!r}")
        if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
            return _BINOPS[type(node.op)](walk(node.left), walk(node.right))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            val = walk(node.operand)
            return -val if isinstance(node.op, ast.USub) else +val
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id in _FUNCTIONS and not node.keywords:
                if len(node.args) != 1:
                    raise ConfigError(f"{node.func.id} takes one argument in {expr!r}")
                return _FUNCTIONS[node.func.id](walk(node.args[0]))
            raise ConfigError(f"unsupported call in {expr!r}")
        raise ConfigError(f"unsupported syntax {type(node).__name__} in {expr!r}")

    with np.errstate(all="ignore"):  # a value that is not finite is the caller's to refuse
        value = walk(tree)
    shape = np.broadcast_shapes(*(np.shape(c) for c in coords.values())) if coords else ()
    out = np.broadcast_to(np.asarray(value, dtype=float), shape)
    return np.array(out, dtype=float)  # writable, contiguous copy
