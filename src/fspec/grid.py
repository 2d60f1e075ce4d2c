"""Uniform periodic grids on the unit 2-torus, and the one test of which
grid axes a field varies along.

Nodes sit at (i/nx, j/ny) and are flattened in C order, node index
n = i * ny + j, with periodic wraparound in both directions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TorusGrid:
    nx: int
    ny: int

    def __post_init__(self):
        if self.nx < 8 or self.ny < 8:
            raise ValueError("torus grids need at least 8 nodes per direction")

    @classmethod
    def square(cls, n):
        return cls(int(n), int(n))

    @property
    def dx(self):
        return 1.0 / self.nx

    @property
    def dy(self):
        return 1.0 / self.ny

    @property
    def cell_area(self):
        return self.dx * self.dy

    @property
    def node_count(self):
        return self.nx * self.ny

    def mesh(self):
        """Broadcastable node coordinates: x of shape (nx, 1), y of shape (1, ny)."""
        x = (np.arange(self.nx) * self.dx)[:, None]
        y = (np.arange(self.ny) * self.dy)[None, :]
        return x, y


def node_axes(a, shape, own=()):
    """a as np.broadcast_to(a, shape + own) reads it, but repeated along no
    axis: each node axis of `shape` that a lacks is added at length 1, so
    the node axes have their length in `shape` or 1.  An array whose
    trailing axes are not `own` exactly goes through np.broadcast_to, which
    also raises for an array that does not broadcast.
    """
    a = np.asarray(a)
    lead = len(shape) + len(own) - a.ndim
    if (0 <= lead <= len(shape) and a.shape[len(shape) - lead:] == own
            and all(m == 1 or m == n for m, n in zip(a.shape, shape[lead:]))):
        return a.reshape((1,) * lead + a.shape)
    return np.broadcast_to(a, shape + own)


def cut_to_lines(shape, *arrays):
    """The node arrays cut to the lines of nodes they vary over, as views
    of one node shape.

    Each array has the axes of the node shape `shape` first, each of that
    length or 1 (``node_axes``), then any axes of its own.  A node axis
    stays whole if some array differs from its own first slice along it
    (==, so roundoff counts as variation), and is cut to its first slice
    otherwise; an array with one entry along a whole axis is read
    repeated along it (np.broadcast_to), so every array comes back at the
    cut node shape.  On a grid that shape is (1, 1), (nx, 1), (1, ny) or
    (nx, ny).  This is the one exact symmetry test: the fold,
    ``SymbolField`` and ``SpectralProblem`` keep their arrays at the shape
    it decides.
    """
    k = len(shape)
    # an axis an array was broadcast along (stride 0) repeats without a look
    owned = [a[tuple(slice(None if step else 1) for step in a.strides[:k])]
             if 0 in a.strides[:k] else a for a in arrays]
    varies = [any(a.shape[axis] > 1 and not np.all(a == a.take([0], axis))
                  for a in owned) for axis in range(k)]
    cut = tuple(slice(None if whole else 1) for whole in varies)
    lines = tuple(n if whole else 1 for n, whole in zip(shape, varies))
    out = []
    for a in arrays:
        if a.shape[:k] != lines:
            a = a[cut]
            if a.shape[:k] != lines:
                a = np.broadcast_to(a, lines + a.shape[k:])
        out.append(a)
    return out
