"""Scalar fields on the unit 2-torus.

Metric coefficients, drift-form components, and conformal exponents are all
plain scalar fields f(x, y) with x and y understood modulo 1.  Two concrete
kinds are supported: closed-form expressions (trigonometric polynomials and
friends) and grid-sampled arrays with periodic bilinear interpolation.
Expression fields should be 1-periodic in both coordinates (use sin/cos of
2*pi*k*x); coordinates are reduced mod 1 before evaluation either way.
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
        x = reduce_mod1(x)
        y = reduce_mod1(y)
        out = np.asarray(self._fn(x, y), dtype=float)
        shape = np.broadcast_shapes(x.shape, y.shape)
        if out.shape != shape:
            out = np.broadcast_to(out, shape)
        return out

    def __repr__(self):
        return f"Field({self.description!r})"

    @classmethod
    def constant(cls, c):
        c = float(c)
        return cls(lambda x, y: c, format(c, ".17g"))

    @classmethod
    def from_expression(cls, text):
        """Compile an expression in x, y (sin, cos, exp, log, sqrt, pi allowed)."""
        code = compile(text, "<field>", "eval")
        unknown = set(code.co_names) - set(_EXPR_NAMES) - {"x", "y"}
        if unknown:
            raise ValueError(f"unknown name(s) in field expression: {sorted(unknown)}")

        def fn(x, y):
            return eval(code, {"__builtins__": {}}, {**_EXPR_NAMES, "x": x, "y": y})

        return cls(fn, text)

    @classmethod
    def from_grid(cls, values):
        """Periodic bilinear interpolation of samples values[i, j] = f(i/nx, j/ny)."""
        v = np.array(values, dtype=float)
        if v.ndim != 2 or v.shape[0] < 2 or v.shape[1] < 2:
            raise ValueError("grid field needs a 2-d array, at least 2x2")
        nx, ny = v.shape

        def fn(x, y):
            fx = x * nx
            fy = y * ny
            i0 = np.floor(fx).astype(int) % nx
            j0 = np.floor(fy).astype(int) % ny
            tx = fx - np.floor(fx)
            ty = fy - np.floor(fy)
            i1 = (i0 + 1) % nx
            j1 = (j0 + 1) % ny
            return ((1 - tx) * (1 - ty) * v[i0, j0]
                    + tx * (1 - ty) * v[i1, j0]
                    + (1 - tx) * ty * v[i0, j1]
                    + tx * ty * v[i1, j1])

        return cls(fn, f"<grid {nx}x{ny}>")

    def constant_value(self, x, y):
        """Return the constant value if the field is constant on the nodes (x, y), else None."""
        vals = self(x, y)
        lo, hi = float(vals.min()), float(vals.max())
        if hi - lo <= 1e-14 * max(1.0, abs(hi), abs(lo)):
            return 0.5 * (lo + hi)
        return None

    def _combine(self, other, op, sym):
        other = as_field(other)
        fn = self._fn
        ofn = other._fn
        return Field(lambda x, y: op(fn(x, y), ofn(x, y)),
                     f"({self.description} {sym} {other.description})")

    def __add__(self, other):
        return self._combine(other, lambda a, b: a + b, "+")

    __radd__ = __add__

    def __mul__(self, other):
        return self._combine(other, lambda a, b: a * b, "*")

    __rmul__ = __mul__


def as_field(obj):
    """Coerce numbers, expression strings, 2-d arrays, and callables to Field."""
    if isinstance(obj, Field):
        return obj
    if isinstance(obj, str):
        return Field.from_expression(obj)
    if isinstance(obj, np.ndarray):
        if obj.ndim == 0:
            return Field.constant(float(obj))
        return Field.from_grid(obj)
    if callable(obj):
        return Field(obj, getattr(obj, "__name__", "<callable>"))
    return Field.constant(obj)
