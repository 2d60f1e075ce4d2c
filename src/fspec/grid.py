"""Uniform periodic grids on the unit 2-torus.

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
