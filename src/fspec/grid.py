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


def cut_to_lines(shape, *arrays):
    """The node arrays cut to the lines of nodes they vary over, as views.

    Each array has the axes of the node shape `shape` first, each of that
    length or 1, then any axes of its own.  A node axis stays whole if some
    array differs from its own first slice along it (==, so roundoff counts
    as variation), and is cut to its first slice otherwise.  On a grid the
    cut shape is (1, 1), (nx, 1), (1, ny) or (nx, ny).  This is the one
    exact symmetry test: the fold, ``SymbolField`` and ``SpectralProblem``
    keep their arrays at the shape it decides.
    """
    # an axis an array was broadcast along (stride 0) repeats without a look
    owned = [a[tuple(slice(None if step else 1) for step in a.strides[:len(shape)])]
             for a in arrays]
    varies = [any(a.shape[axis] > 1 and not np.all(a == a.take([0], axis))
                  for a in owned) for axis in range(len(shape))]
    cut = tuple(slice(None if whole else 1) for whole in varies)
    return [a[cut] for a in arrays]
