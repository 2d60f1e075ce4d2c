"""Scalar fields on the unit 2-torus.

Metric coefficients, drift-form components, and conformal exponents are all
plain scalar fields f(x, y) with x and y understood modulo 1: constants,
closed-form expressions (trigonometric polynomials and friends) and Python
callables of (x, y).  Expression fields should be 1-periodic in both coordinates (use sin/cos of
2*pi*k*x); coordinates are reduced mod 1 before evaluation either way, by
the wrappers that read them (an expression's compiled function and a
callable's wrapper in ``as_field``).  A constant reads no coordinate, so
none is reduced for it.  A field's values keep the shape its expression
broadcasts to, so a constant stays one number on any nodes.
"""

from __future__ import annotations

import numpy as np

_EXPR_NAMES = {
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "abs": np.abs,
    "pi": np.pi,
}


def reduce_mod1(t):
    """Canonical torus coordinate: reduce to [0, 1)."""
    return np.asarray(t, dtype=float) % 1.0


class Field:
    """A scalar field on the torus, callable as ``field(x, y)`` with broadcasting."""

    __slots__ = ("_fn", "description")

    def __init__(self, fn, description="<field>"):
        self._fn = fn
        self.description = description

    def __call__(self, x, y):
        """The field at the nodes (x, y), in the shape its expression broadcasts
        to: a constant stays a single number, and on ``TorusGrid.mesh`` nodes a
        field of y alone stays one row (1, ny).  x and y are passed on as
        given: the functions of ``from_expression`` and ``as_field`` reduce
        them mod 1 where they read them."""
        return np.asarray(self._fn(x, y), dtype=float)

    def __repr__(self):
        return f"Field({self.description!r})"

    @classmethod
    def constant(cls, c):
        c = float(c)
        return cls(lambda x, y: c, format(c, ".17g"))

    @classmethod
    def from_expression(cls, text):
        """Compile an expression in x, y (sin, cos, exp, log, sqrt, pi allowed)."""
        try:
            code = compile(text, "<field>", "eval")
        except SyntaxError as exc:
            raise ValueError(f"unreadable field expression {text!r}: {exc.msg}") from exc
        unknown = set(code.co_names) - set(_EXPR_NAMES) - {"x", "y"}
        if unknown:
            raise ValueError(f"unknown name(s) in field expression: {sorted(unknown)}")

        def fn(x, y):
            return eval(code, {"__builtins__": {}},
                        {**_EXPR_NAMES, "x": reduce_mod1(x), "y": reduce_mod1(y)})

        return cls(fn, text)

    def constant_value(self, x, y):
        """Return the constant value if the field is constant on the nodes (x, y), else None.

        Constant to 1e-14 relative, not exactly (``fspec.grid.cut_to_lines``
        is the exact test): an expression such as sin(x)**2 + cos(x)**2 is
        constant only up to roundoff.
        """
        vals = self(x, y)
        lo, hi = float(vals.min()), float(vals.max())
        if hi - lo <= 1e-14 * max(1.0, abs(hi), abs(lo)):
            return 0.5 * (lo + hi)
        return None


def as_field(obj):
    """Coerce numbers (a 0-d array included), expression strings and callables
    to Field; raises TypeError for an array with axes."""
    if isinstance(obj, Field):
        return obj
    if isinstance(obj, str):
        return Field.from_expression(obj)
    if isinstance(obj, np.ndarray) and obj.ndim:
        raise TypeError("a field is a number, an expression or a callable, "
                        f"not an array of shape {obj.shape}")
    if callable(obj):
        def fn(x, y):
            return obj(reduce_mod1(x), reduce_mod1(y))
        return Field(fn, getattr(obj, "__name__", "<callable>"))
    return Field.constant(obj)
