"""Weighted-Laplacian discretization and generalized eigensolvers on the torus.

The module holds the operator, its three eigensolve routes and the Fourier
oracles that check them; it takes a symbol field (``mu``, ``sigma*`` on a
grid) as input and knows nothing of how the field was computed.

The energy Int sigma*(df, df) mu dx dy is discretized in flux form on a
periodic nx x ny grid: the diagonal coefficients D = mu sigma* act through
edge-averaged fluxes, the mixed coefficient through symmetric centered
cross-differences.  The result is a 9-point weighted graph Laplacian,
f' K f = sum over edges w_ab (f_a - f_b)^2, whose edge weights for the
offsets (1, 0), (0, 1), (1, 1) and (1, -1) are what ``SpectralProblem``
stores, with the masses, at the lines of nodes they vary over: one node
for a constant stencil, one grid line for a stencil invariant along an
axis (``fspec.grid.cut_to_lines``, the one exact test of that symmetry).
The routes qualify by that shape.  K is the sum over offsets of
D' diag(w) D, with D the forward difference along the offset, so it is
symmetric with the constants exactly in its kernel, and f' K f reproduces
the energy quadrature to second order; it is built, and scipy imported,
only where a route needs it (shift-invert, and the rounding floor of a pair
that misses the residual bound).  This module is the one reader of the
weights' layout: the routes, the gate, K and the Gershgorin condition
estimate of K all read the weights here, each at the shape it needs.
The mass operator is M = diag(mu dx dy) and the spectrum solves
K u = lambda M u.

``solve`` tries three routes in turn.  Each hands back its eigenvalues and
a writer that forms pair j's grid vector, from the factors the route
computed, into a given (nx, ny) buffer; no route stores its vectors at grid
size.  ``solve`` alone orders the pairs, by permuting indices, and gates
them, forming one vector at a time into one reused buffer and its residual
(K u in edge form from the weights).  The vectors array of the Spectrum is
formed by the same writer when it is first read.  The edge form reads each
periodic shift of a grid array as a flat shift, in at most two contiguous
blocks, and rewrites the one column whose rows the shift ran past
(``_rolled``).

Fourier route (``_fourier_route``): if the weights and mass reduce to a
single node (a cross term allowed), every grid Fourier mode is an exact
eigenvector; the eigenvalues are the
stencil's own symbol sum w_d 4 sin^2(theta . d / 2) / mass, the k+1 lowest
are taken, and each one's real cos/sin vector is the product of its
(nx, 2) and (2, ny) factors of integer-reduced phases.

Block route (``_block_route``): if the two diagonal-offset weight arrays
are all zero (no cross term) and the weights and mass reduce to one grid
line across x (or across y), the pencil splits exactly
into one real symmetric block per Fourier mode m of that axis,
B_m = L_line + 4 sin^2(pi m / n) diag(w_ring), periodic tridiagonal, kept
in banded form (``_block_eigenvectors``): no w x w array is formed for a
line of w nodes.  Modes are visited in increasing m, and banded bisection
asks each only for the indices j whose Weyl bound
lambda_j(B_0) + 4 sin^2(pi m / n) min(w_ring / mass) does not exceed the
current (k+1)-th value; the sweep stops once the bound of j = 0 does.
Banded inverse iteration forms line vectors only for the pairs kept, with
one LU factor of each shifted band (LAPACK gbtrf) serving all its steps,
and leaves them M-orthonormal once scaled by M^(-1/2), with no other step.  Each
eigenvalue is the edge-form quotient of its line vector, the grid vector's
``rayleigh`` quotient in exact arithmetic, so small eigenvalues keep their
relative accuracy.  The pairs come back ordered by these quotients, and
each grid vector is the outer product of its pair's wave across the lines
and its line vector, written straight into the grid's node order.  On
either reduced route, weights that repeat only to roundoff fail the exact
test and are not reduced.

Shift-invert route (``_shift_invert``), for everything else, sheared
one-axis fields too: ARPACK about the small negative shift
-lambda_scale / 2, started from a seeded random vector, then deflated runs
until none finds a pair below the (k+1)-th value, so no copy of a repeated
eigenvalue is skipped, and a deflated re-solve of any pair that fails the
residual gate.  Its writer copies out ARPACK's dense columns.

Constant-coefficient problems diagonalize in Fourier modes: the exact
continuous spectrum 4 pi^2 (m, l) sigma* (m, l)' is the limit of the grid
spectra, and the exact discrete spectrum of the stencil gates the eigensolver.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from functools import cached_property

import numpy as np

from .grid import TorusGrid, cut_to_lines
from .metrics import _eigen_extremes

_RESTOL = 1e-9  # eigenpair residual bound, relative to each eigenvalue's scale
# A pair that misses _RESTOL still passes within this many times its rounding
# floor (``_gate``): the block route's pairs sit at up to 1.7 floors on the
# constant RandersMetric.axis_drift_torus(4, 0.5) on TorusGrid(16384, 8), with
# the Fourier route off, and at 0 on the square grids of benchmarks/scaling.py,
# while a 1e-6 error in a vector puts a pair some 1e9 floors out
_FLOOR_FACTOR = 8.0
# ARPACK tolerance of the shift-invert completeness check; its Ritz value
# errs by about the square of it
_CHECK_TOL = 1e-8
# grid offsets (di, dj) of the stencil's edges, in the order of
# SpectralProblem.weights
_OFFSETS = ((1, 0), (0, 1), (1, 1), (1, -1))
# the block route's inverse iteration: shifts sit this far below each
# eigenvalue, relative to max(|lambda|, |shift|), and take this many steps
_BLOCK_MARGIN = 1e-12
_BLOCK_STEPS = 3


class SolverError(RuntimeError):
    """Eigensolver failure or a violated discrete invariant."""


@dataclass
class Spectrum:
    """Sorted eigenvalues with M-orthonormal eigenvectors and residuals.

    The eigenvectors stay in the form their route computed them in:
    write(j, out) forms pair j's grid vector in out, an (nx, ny) array.
    ``vectors`` is formed by it when first read, and kept, so its columns
    are bitwise the ones the residual gate read.
    """

    values: np.ndarray      # (k+1,) ascending
    residuals: np.ndarray   # ||K u - lambda M u|| / ||M u|| per pair
    route: str              # "fourier", "block" or "shift-invert"
    floor_ratio: float      # largest residual / rounding floor of a pair
                            # the floor admitted (``_gate``), 0.0 if none
    grid: TorusGrid
    write: object = dataclass_field(repr=False, compare=False)

    @cached_property
    def vectors(self):
        """(n_nodes, k+1) F-contiguous: each pair's grid vector a column."""
        return _columns(self.write, range(self.values.size), self.grid)


@dataclass
class SpectralProblem:
    """The flux-form stencil: edge weights and nodal masses on a grid.

    weights[e][i, j] weights the edge from node (i, j) to node
    (i, j) + _OFFSETS[e], periodically; mass[i, j] = mu dx dy.  Both may be
    given as anything that broadcasts to the grid.  They are kept cut to the
    lines of nodes they vary over (``cut_to_lines``), as the pair
    ``reduced``, which the routes qualify by; weights and mass read them as
    read-only (4, nx, ny) and (nx, ny) views.  The stiffness K and the
    diagonal mass M are built from them on first use and kept.  K is
    symmetric with the constants in its kernel by construction; both are
    checked on K as built, raising SolverError if either fails (symmetry as
    K r = K' r for a fixed r in [1, 2)^n).
    """

    weights: np.ndarray     # (4, nx, ny), one array per offset in _OFFSETS
    mass: np.ndarray        # (nx, ny)
    grid: TorusGrid
    lambda_scale: float

    def __post_init__(self):
        nodes = (self.grid.nx, self.grid.ny)
        *weights, mass = cut_to_lines(nodes, *np.broadcast_to(
            self.weights, (4,) + nodes), np.broadcast_to(self.mass, nodes))
        self.reduced = np.stack(weights), mass
        self.weights, self.mass = map(np.broadcast_to, self.reduced, ((4,) + nodes, nodes))

    @cached_property
    def K(self):
        K = _stiffness(self.reduced[0], self.grid)
        scale = float(np.abs(K.data).max()) if K.nnz else 1.0
        # K' of a CSR matrix is a CSC view, so the probe copies no entries of K
        probe = np.random.default_rng(0).uniform(1.0, 2.0, K.shape[0])
        asym = float(np.abs(K @ probe - K.T @ probe).max())
        if asym > 1e-12 * scale:
            raise SolverError(f"stiffness assembly lost symmetry: "
                              f"max |(K - K') r| = {asym:.3e} for r in [1, 2)")
        row_sum = float(np.abs(K @ np.ones(K.shape[0])).max())
        if row_sum > 1e-12 * scale:
            raise SolverError(f"stiffness rows do not sum to zero: max |K 1| = {row_sum:.3e}")
        return K

    @cached_property
    def M(self):
        import scipy.sparse as sparse
        return sparse.diags(self.mass.ravel())

    @property
    def n_nodes(self):
        return self.grid.node_count


def _stiffness(weights, grid):
    """K = sum over offsets e of D_e' diag(w_e) D_e, with (D_e u)_a =
    u_a - u_(a + e) the forward difference along e: f' K f is the edge sum
    of w_ab (f_a - f_b)^2.  Offsets whose weights are all zero are skipped;
    the sparse products store no zeros, so a weight that is zero at some
    nodes leaves no entry there.  The weights broadcast to the grid.
    """
    import scipy.sparse as sparse
    n = grid.node_count
    node = np.arange(n).reshape(grid.nx, grid.ny)
    K = sparse.csr_matrix((n, n))
    for offset, w in zip(_OFFSETS, weights):
        if np.any(w):
            ahead = np.roll(node, np.negative(offset), axis=(0, 1)).ravel()
            D = sparse.identity(n, format="csr") - sparse.csr_matrix(
                (np.ones(n), ahead, np.arange(n + 1)), shape=(n, n))
            K = K + D.T @ sparse.diags(np.broadcast_to(w, node.shape).ravel()) @ D
    K.sort_indices()
    return K


def _stiffness_condition_estimate(problem):
    """Gershgorin bound on lambda_max(M^-1 K) over lambda_scale, read off the
    weights at their kept shape, so K is not built."""
    # row a of K holds the weights w of the edges at a (forward, and
    # backward as rolled b), summed on the diagonal in K's order and negated
    # at the neighbours
    weights, mass = problem.reduced
    edges = [(w, np.roll(w, offset, axis=(0, 1))) for offset, w in zip(_OFFSETS, weights)]
    row = abs(sum(w + b for w, b in edges)) + sum(abs(w) + abs(b) for w, b in edges)
    return float((row / mass).max()) / max(problem.lambda_scale, 1e-300)


def assemble(field):
    """The flux-form stencil of field on field.grid, as a SpectralProblem.

    With D = mu sigma*, the edge weights are the edge means of D11 dy / dx
    along x and of D22 dx / dy along y; the cross term
    Gx' diag(c) Gy + transpose of the centered differences Gx, Gy, with
    c = D12 dx dy, couples only diagonal neighbours, so it folds onto the
    offsets (1, 1) and (1, -1) with the weights +-(c at the cell's two other
    corners) / (4 dx dy).  Everything is formed at the lines of nodes the
    field varies over (``SymbolField.reduced``); K is not built here.
    """
    grid = field.grid
    sig, mu = field.reduced
    d11, d22 = mu * sig[..., 0, 0], mu * sig[..., 1, 1]
    d12 = mu * sig[..., 0, 1]
    d12_east = np.roll(d12, -1, axis=0)
    weights = np.stack([
        0.5 * (d11 + np.roll(d11, -1, axis=0)) * (grid.dy / grid.dx),
        0.5 * (d22 + np.roll(d22, -1, axis=1)) * (grid.dx / grid.dy),
        0.25 * (d12_east + np.roll(d12, -1, axis=1)),
        -0.25 * (d12_east + np.roll(d12, 1, axis=1))])
    lam_min = _eigen_extremes(sig[..., 0, 0], sig[..., 0, 1], sig[..., 1, 1])[0]
    return SpectralProblem(weights=weights, mass=mu * grid.cell_area, grid=grid,
                           lambda_scale=4.0 * np.pi**2 * float(lam_min.min()))


def _block_eigenvectors(w_ring, w_line, mass, rings, k, shift, transposed):
    """First k+1 pairs of a stencil made of `rings` identical lines.

    Each line has mass.size nodes; w_line[j] weights the edge from node j to
    node j + 1 of a line (periodically) and w_ring[j] the edge from node j
    of a line to node j of the next.  Fourier mode m across the lines
    reduces the pencil to the real symmetric block
    B_m = L_line + 4 sin^2(pi m / rings) diag(w_ring) against diag(mass),
    where L_line is the periodic tridiagonal Laplacian of w_line.  In the
    zigzag node order 0, w-1, 1, w-2, ... every line edge joins positions at
    most 2 apart, so each block is kept in upper banded form (3 x w) and no
    w x w array is formed.

    The band is scaled once, to mass^(-1/2) B_m mass^(-1/2), and eigenvalues
    come from its banded bisection, asked only for the indices j that can
    still enter the pool of the k+1 smallest: that matrix is the one of B_0
    plus 4 sin^2(pi m / rings) diag(w_ring / mass), so by Weyl
    lambda_j(B_m) >= lambda_j(B_0) + 4 sin^2(pi m / rings) min(w_ring / mass).
    Modes are visited in increasing m, and the sweep stops once the bound of
    j = 0 (lambda_0(B_0) = 0) exceeds the current (k+1)-th value.

    Line vectors are formed only for the pairs left in the pool, one per
    (m, j), so a cos/sin pair shares one: _BLOCK_STEPS steps of banded
    inverse iteration shifted just below each eigenvalue (by _BLOCK_MARGIN
    of max(|lambda|, |shift|), so an exact eigenvalue such as mode 0's
    lambda = 0 leaves no singular system; a band that is singular all the
    same, LAPACK gbtrf info > 0, raises SolverError), each shifted band
    factored once and its LU factor used for every step (gbtrf, then gbtrs
    per step: the two halves of gbsv), from a fixed start vector per j
    and orthogonalized at each step against the block's earlier vectors, so
    that a repeated or nearly repeated eigenvalue of one block gets
    independent vectors.  Iteration at the eigenvalue leaves residuals at
    rounding level and the orthogonalization leaves a block's vectors
    orthonormal, so mass^(-1/2) times them, put back into node order, is
    M-orthonormal as it stands.  Each eigenvalue is the edge-form quotient
    of its line vector u, (sum w_line (u_j - u_j+1)^2
    + 4 sin^2(pi m / rings) sum w_ring u_j^2) / sum mass u_j^2, the grid
    vector's ``rayleigh`` quotient in exact arithmetic, accurate relative to
    itself where bisection is accurate only to roundoff in lambda_max.

    Mode m in (0, rings/2) stands for the pair +-m: each eigenvector u gives
    the grid vectors cos(2 pi m i / rings) u and sin(2 pi m i / rings) u
    scaled by sqrt(2/rings); modes 0 and rings/2 give the cos vector scaled
    by 1/sqrt(rings).  Returns (values, write), ascending by value:
    write(j, out) forms pair j's M-orthonormal grid vector in out, in the
    grid's node order, as the outer product of its wave (rings,) and line
    vector (width,): out is (rings, width) with lines along the grid's last
    axis, or (width, rings) with lines along its first if `transposed`.
    """
    import scipy.linalg
    from scipy.linalg.lapack import dgbtrf, dgbtrs
    width = mass.size
    nodes = np.arange(width)
    order = np.column_stack([nodes, nodes[::-1]]).ravel()[:width]  # zigzag
    position = np.argsort(order)
    # L_line in upper banded form: row 2 - d holds the entries d above the
    # diagonal, each in the column of its lower position
    ends = np.sort([position, np.roll(position, -1)], axis=0)
    laplacian = np.zeros((3, width))
    laplacian[2 - (ends[1] - ends[0]), ends[1]] = -w_line
    laplacian[2] = (w_line + np.roll(w_line, 1))[order]
    # scaled once by M^(-1/2) on both sides: entry (i, j) by scale_i scale_j
    scale = 1.0 / np.sqrt(mass[order])
    laplacian *= scale * np.stack([np.roll(scale, 2), np.roll(scale, 1), scale])
    ring = (w_ring / mass)[order]
    rate = float(ring.min())
    last = min(k, width - 1)

    def block(m):
        """M^(-1/2) B_m M^(-1/2), upper banded in zigzag order."""
        band = laplacian.copy()
        band[2] += _sin2(m, rings) * ring
        return band

    pool = []  # (value, m, j, part): the k+1 smallest found so far
    for m in range(rings // 2 + 1):
        count = last + 1
        if len(pool) > k:
            count = int(np.count_nonzero(
                floor + _sin2(m, rings) * rate <= pool[k][0]))
            if count == 0:
                break
        w = scipy.linalg.eigvals_banded(block(m), select="i",
                                        select_range=(0, count - 1),
                                        check_finite=False)
        if m == 0:
            floor = np.concatenate([[0.0], w[1:]])  # lambda_j of mode 0
        parts = ("cos", "sin") if 2 * m % rings else ("one",)
        pool += [(float(w[j]), m, j, part)
                 for j in range(w.size) for part in parts]
        pool.sort(key=lambda entry: entry[0])
        del pool[k + 1:]

    starts = np.random.default_rng(0).standard_normal((last + 1, width))
    kept = {}  # m -> {j: eigenvalue}
    for value, m, j, _ in pool:
        kept.setdefault(m, {})[j] = value
    lines, quotients = {}, {}
    for m, found in kept.items():
        index = sorted(found)
        upper = block(m)
        full = np.zeros((7, width), order="F")  # gbtrf's form, kl = ku = 2
        full[2:5] = upper
        full[5, :-1], full[6, :-2] = upper[1, 1:], upper[0, 2:]
        x = np.empty((len(index), width))  # one line vector per row
        for col, j in enumerate(index):
            target = found[j] - _BLOCK_MARGIN * max(abs(found[j]), -shift)
            full[4] = upper[2] - target
            lu, pivots, info = dgbtrf(full, 2, 2)
            if info > 0:
                raise SolverError(
                    f"block route: the band of mode {m} shifted to "
                    f"{target:.6e} is exactly singular (dgbtrf info {info})")
            v = starts[j]
            for _ in range(_BLOCK_STEPS):
                v = dgbtrs(lu, 2, 2, v, pivots)[0]
                v -= x[:col].T @ (x[:col] @ v)
                v /= np.linalg.norm(v)
            x[col] = v
        u = (x * scale)[:, position]  # M-orthonormal rows, in node order
        du = u - np.roll(u, -1, axis=1)
        quotient = ((du**2 @ w_line + _sin2(m, rings) * (u**2 @ w_ring))
                    / (u**2 @ mass))
        for col, j in enumerate(index):
            lines[m, j], quotients[m, j] = u[col], quotient[col]
    pool = sorted(((quotients[m, j], m, j, part) for _, m, j, part in pool),
                  key=lambda entry: entry[0])

    # one wave and one line vector per pair, the factors of its grid vector
    line = np.array([lines[m, j] for _, m, j, _ in pool])
    values, m, _, part = map(np.array, zip(*pool))
    phase = 2.0 * np.pi * m[:, None] * np.arange(rings) / rings
    norm = np.where(part == "one", 1.0 / np.sqrt(rings), np.sqrt(2.0 / rings))
    waves = norm[:, None] * np.where((part == "sin")[:, None], np.sin(phase),
                                     np.cos(phase))

    def write(j, out):
        if transposed:
            np.multiply(line[j][:, None], waves[j], out=out)
        else:
            np.multiply(waves[j][:, None], line[j], out=out)

    return values, write


def _gate(problem, values, write):
    """(residuals, failures, floor_ratio) of ascending eigenpairs: their
    values, and write(j, out), which forms pair j's grid vector in out, an
    (nx, ny) array.

    The residual of a pair is ||K u - lambda M u|| / ||M u||, formed one
    vector at a time, each written into one reused buffer, with K u in edge
    form from the weights, as in ``rayleigh``: per offset e, the flux
    w (u_a - u_(a+e)) is added at a and subtracted at a + e, its shift by e
    copied first (``_shift``) into the M u buffer, whose norm is taken by
    then, so the gate holds four grid buffers whatever the number of pairs.
    A pair passes if its residual relative to max(|lambda|, lambda_1)
    (max(lambda_0, 1) if there is no lambda_1) is at most _RESTOL, or if its
    residual is at most _FLOOR_FACTOR times its rounding floor
    eps ||abs(K) abs(u)|| / ||M u||, the residual that rounding u to a
    stored vector alone leaves, which grows with the grid.
    The floor, and K with it, is built only for pairs that miss _RESTOL,
    and only their vectors are formed again for it, as the columns of one
    array.  failures holds the indices of the pairs that fail; floor_ratio
    is the largest residual-to-floor ratio of a pair that passes by the
    floor alone, 0.0 if none does.
    """
    nx, ny = problem.grid.nx, problem.grid.ny
    edges = _edges(problem)
    mass = problem.reduced[1]
    u, Mu, r, du = (np.empty((nx, ny)) for _ in range(4))
    residuals = np.empty(values.size)
    for j, value in enumerate(values):
        write(j, u)
        np.multiply(mass, u, out=Mu)
        norm = np.linalg.norm(Mu)
        np.multiply(Mu, -value, out=r)  # K u - lambda M u, K u added edge by edge
        for weight, ahead, behind in edges:
            _difference(u, ahead, du)
            du *= weight  # the flux w_ab (u_a - u_b), out of a and into b
            r += du
            r -= _shift(du, behind, Mu)  # Mu, its norm taken, holds the inflow
        residuals[j] = np.linalg.norm(r) / norm
    ref = float(values[1]) if values.size > 1 else max(float(values[0]), 1.0)
    relative = residuals / np.maximum(np.abs(values), ref)
    misses = np.flatnonzero(relative > _RESTOL)
    if misses.size == 0:
        return residuals, misses, 0.0
    u = _columns(write, misses, problem.grid)
    floor = (np.finfo(float).eps
             * np.linalg.norm(abs(problem.K) @ np.abs(u), axis=0)
             / np.linalg.norm(problem.mass.reshape(-1, 1) * u, axis=0))
    ratio = residuals[misses] / floor
    admitted = ratio <= _FLOOR_FACTOR
    return (residuals, misses[~admitted],
            float(ratio[admitted].max(initial=0.0)))


def _sin2(turns, n):
    """4 sin^2(pi turns / n) for integer turns, the angle reduced to [0, pi/2]
    first so that small values keep their relative accuracy."""
    turns = np.mod(turns, n)
    return 4.0 * np.sin(np.pi * np.minimum(turns, n - turns) / n) ** 2


def _fourier_route(problem, k):
    """The first k+1 pairs in exact grid Fourier modes, ascending, else None.

    A stencil qualifies if its weights and mass reduce to a single node
    (``SpectralProblem.reduced``), a cross term allowed.  Mode (m, l),
    theta = (2 pi m / nx, 2 pi l / ny), is then an eigenvector with
    lambda = sum over offsets d of w_d 4 sin^2(theta . d / 2) / mass, and the
    k+1 lowest of these are taken.  Modes (m, l) and (-m, -l) share lambda
    and give the real vectors cos(theta . x) (the one of the two with the
    smaller flat index) and sin(theta . x) (the other), scaled by
    sqrt(2 / (n mass)); a self-conjugate mode (2m = 0 mod nx, 2l = 0 mod ny)
    gives cos(theta . x) alone, scaled by sqrt(1 / (n mass)).  Each phase is
    reduced to an integer m i mod nx (l j mod ny) before it is scaled by
    2 pi, so the vectors stay exact to roundoff on large grids.  Returns
    (values, write): write(j, out) forms mode j's vector in out, an (nx, ny)
    array, as the product of its (nx, 2) and (2, ny) factors, the scaled
    [cos x, -sin x] (or [sin x, cos x]) and [cos y; sin y].
    """
    weights, mass = problem.reduced
    if mass.shape != (1, 1):
        return None
    nx, ny = problem.grid.nx, problem.grid.ny
    i, j = np.arange(nx), np.arange(ny)  # mode or node indices along x, y
    w = weights[:, 0, 0]  # in the order of _OFFSETS
    values = w[0] * _sin2(i, nx)[:, None] + w[1] * _sin2(j, ny)[None, :]
    if w[2] or w[3]:
        # theta . (1, +-1) / 2 = pi (m ny +- l nx) / (nx ny), added in place;
        # |m ny +- l nx| < 2 nx ny fits int32 below 2^30 nodes (an 8 GiB
        # values array), and int32 halves the grid-sized integer temporaries
        # that set the route's peak
        m_ny = (i[:, None] * ny).astype(np.int32)
        l_nx = (j[None, :] * nx).astype(np.int32)
        values += w[2] * _sin2(m_ny + l_nx, nx * ny)
        values += w[3] * _sin2(m_ny - l_nx, nx * ny)
    values = values.ravel() / mass[0, 0]
    chosen = np.argpartition(values, k)[:k + 1]
    chosen = chosen[np.argsort(values[chosen])]

    m, l = np.divmod(chosen, ny)
    conjugate = (-m % nx) * ny + (-l % ny)
    scale = np.sqrt(np.where(chosen == conjugate, 1.0, 2.0)
                    / (nx * ny * mass[0, 0]))[:, None]
    cos = (chosen <= conjugate)[:, None]
    x = 2.0 * np.pi * (m[:, None] * i % nx) / nx  # one row of phases per mode
    y = 2.0 * np.pi * (l[:, None] * j % ny) / ny
    cx, sx = np.cos(x), np.sin(x)
    # cos(x + y) = [cos x, -sin x] [cos y; sin y],
    # sin(x + y) = [sin x, cos x] [cos y; sin y]
    left = np.stack([np.where(cos, cx, sx) * scale,
                     np.where(cos, -sx, cx) * scale], axis=-1)
    right = np.stack([np.cos(y), np.sin(y)], axis=1)

    def write(mode, out):
        np.matmul(left[mode], right[mode], out=out)

    return values[chosen], write


def _block_route(problem, k, shift):
    """The first k+1 pairs by Fourier blocks along one axis, else None.

    A stencil qualifies along an axis if its two diagonal-offset weight
    arrays are all zero (no cross term, so every mode block is real and the
    mode sweep can stop early) and its weights and mass reduce to a single
    grid line across the axis (``SpectralProblem.reduced``).  The y axis is
    the x axis of the transposed arrays.  A stencil that qualifies along
    both is constant and takes the Fourier route first.  The pairs come
    from ``_block_eigenvectors``: ascending, with eigenvalues read off the
    line vectors and each vector formed in the grid's node order.
    """
    (w_x, w_y, *cross), mass = problem.reduced
    if np.any(cross) or min(mass.shape) > 1:
        return None
    nx, ny = problem.grid.nx, problem.grid.ny
    transposed = mass.shape[0] > 1  # a line along x, repeated along y
    lines, rings, width = (((w_y.T, w_x.T, mass.T), ny, nx) if transposed
                           else ((w_x, w_y, mass), nx, ny))
    # a constant stencil (reached with the Fourier route off) keeps one
    # node, which the line arrays spread over the whole line
    return _block_eigenvectors(*(np.ascontiguousarray(
        np.broadcast_to(a[0], width)) for a in lines), rings, k, shift, transposed)


def _shift_invert(problem, k, shift, seed):
    """The first k+1 pairs by ARPACK shift-invert about `shift`, seeded.

    In exact arithmetic a single-vector Krylov space holds one direction of
    each eigenspace, so ARPACK can converge k+1 pairs that skip a copy of a
    repeated eigenvalue; the residual gate cannot see a missing pair.  Each
    run is therefore checked by one more for the lowest pair M-orthogonal to
    all pairs found so far (the shifted inverse deflated by them).  Its Ritz
    value never lies below that pair's eigenvalue, so the check may stop at
    _CHECK_TOL: a value below the (k+1)-th one found is a missed pair, which
    is refined to full accuracy, joins the others, and the check repeats.

    A pair at the edge of a degenerate cluster that ARPACK split can still
    fail the residual gate (``_gate``).  Each pair that fails it is solved
    again alone, at full accuracy, as the lowest pair M-orthogonal to all
    the others, started from its own vector; pairs that pass cost nothing
    more.
    One LU factor of K - shift M, in a symmetric minimum-degree order,
    serves every run.  Returns (values, write), write(j, out) copying pair
    j's ARPACK vector into out, an (nx, ny) array.
    """
    import scipy.sparse.linalg as spla
    n = problem.n_nodes
    K, M = problem.K.tocsc(), problem.M.tocsc()
    mass = problem.mass.ravel()
    # K - shift M is SPD for a shift below the spectrum: a symmetric
    # minimum-degree order on its pattern, with diagonal pivots, keeps the
    # factor's fill far below COLAMD's unsymmetric one
    solve_shifted = spla.splu((K - shift * M).tocsc(),
                              permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0,
                              options={"SymmetricMode": True}).solve
    rng = np.random.default_rng(seed)

    def lowest(count, found, tol=0.0, start=None):
        # ARPACK applies this to M x: project x off `found` first, the
        # result after, so the operator stays M-symmetric on the complement
        m_found = mass[:, None] * found

        def deflated(z):
            y = solve_shifted(z - m_found @ (found.T @ z))
            return y - found @ (m_found.T @ y)

        v0 = rng.standard_normal(n) if start is None else start
        v0 = v0 - found @ (m_found.T @ v0)
        try:
            return spla.eigsh(K, k=count, M=M, sigma=shift, which="LM",
                              v0=v0, tol=tol, OPinv=spla.LinearOperator(
                                  (n, n), matvec=deflated, dtype=float))
        except spla.ArpackNoConvergence as exc:
            raise SolverError(
                f"shift-invert iteration converged only "
                f"{exc.eigenvalues.size} of {count} pairs "
                f"(shift {shift:.3e}, n = {n})") from exc

    values, vectors = lowest(k + 1, np.empty((n, 0)))
    while values.size < n - 1:
        order = np.argsort(values)
        values, vectors = values[order], vectors[:, order]
        value, vector = lowest(1, vectors, tol=_CHECK_TOL)
        if value[0] >= values[k] - 1e-10 * abs(values[k]):
            break
        value, vector = lowest(1, vectors, start=vector[:, 0])
        values = np.append(values, value)
        vectors = np.hstack([vectors, vector])

    order = np.argsort(values)[:k + 1]
    values, vectors = values[order], vectors[:, order]
    for j in _gate(problem, values, _column_writer(vectors))[1]:
        value, vector = lowest(1, np.delete(vectors, j, axis=1),
                               start=vectors[:, j])
        values[j], vectors[:, j] = value[0], vector[:, 0]
    return values, _column_writer(vectors)


def _columns(write, pairs, grid):
    """The grid vectors of `pairs`, each formed by write(j, out), as the
    columns of an F-contiguous (n_nodes, len(pairs)) array."""
    columns = np.empty((grid.node_count, len(pairs)), order="F")
    for col, j in enumerate(pairs):
        write(j, columns[:, col].reshape(grid.nx, grid.ny))
    return columns


def _column_writer(vectors):
    """write(j, out) for pairs given as the columns of an (n_nodes, count)
    array: copies column j into out, an (nx, ny) array."""
    def write(j, out):
        out[...] = vectors[:, j].reshape(out.shape)
    return write


def solve(problem, k, seed=0):
    """First k+1 eigenpairs of K u = lambda M u as a Spectrum: ascending,
    M-orthonormal and gated.

    The routes are tried in the order the module docstring gives; each
    needs k + 2 < n.  The route's pairs are taken, the k+1 lowest in
    ascending order, as a permutation of the route's pair indices: no vector
    is formed but by the gate, one at a time, until the Spectrum's vectors
    are read.  Residuals
    ||K u - lambda M u|| / ||M u|| pass within _RESTOL relative to each
    eigenvalue's own scale, or within _FLOOR_FACTOR times the pair's
    rounding floor (``_gate``), which exceeds _RESTOL on grids of 1024^2
    and on long rings; the Spectrum's floor_ratio reports how close to that
    bound the floor-admitted pairs came.  lambda_0 must be a numerical zero.
    SolverError is raised if either check fails.  ``discrete_fourier_oracle``
    gives the exact eigenvalues on constant fields.
    """
    n = problem.n_nodes
    if k + 2 >= n:
        raise ValueError(f"requested {k + 1} eigenpairs from a {n}-node "
                         "problem; the solver needs k + 2 < n")
    shift = -0.5 * max(problem.lambda_scale, 1e-12)  # below the spectrum
    pairs, route = _fourier_route(problem, k), "fourier"
    if pairs is None:
        pairs, route = _block_route(problem, k, shift), "block"
    if pairs is None:
        pairs, route = _shift_invert(problem, k, shift, seed), "shift-invert"
    values, write = pairs
    order = np.argsort(values)[:k + 1]
    values = values[order]

    def write_sorted(j, out):
        write(order[j], out)

    residuals, failures, floor_ratio = _gate(problem, values, write_sorted)
    if failures.size:
        raise SolverError(
            f"eigensolver residuals exceed tolerance: max residual "
            f"{residuals[failures].max():.3e} above {_RESTOL:.1e} of its "
            f"eigenvalue's scale and {_FLOOR_FACTOR:g} times its rounding "
            f"floor (n = {n})")
    if k >= 1 and abs(float(values[0])) > 1e-10 * float(values[1]):
        raise SolverError(
            f"lambda_0 = {values[0]:.3e} is not a numerical zero "
            f"(lambda_1 = {values[1]:.3e})")

    return Spectrum(values=values, residuals=residuals, route=route,
                    floor_ratio=floor_ratio, grid=problem.grid,
                    write=write_sorted)


def rayleigh(problem, f):
    """Rayleigh quotient f'Kf / f'Mf of a grid function (flat or grid-shaped).

    f'Kf is taken in edge form, sum over edges w_ab (f_a - f_b)^2, skipping
    offsets whose weights are all zero.  This avoids the cancellation of K f
    on smooth functions, whose rounding is of order eps lambda_max and would
    swamp the smallest eigenvalues.
    """
    f = np.asarray(f, dtype=float).ravel()
    if f.size != problem.n_nodes:
        raise ValueError("grid function has the wrong number of nodes")
    if not np.any(f):
        raise ValueError("Rayleigh quotient of the zero function")
    u = f.reshape(problem.grid.nx, problem.grid.ny)
    du = np.empty_like(u)
    energy = 0
    for weight, ahead, _ in _edges(problem):
        np.square(_difference(u, ahead, du), out=du)
        du *= weight
        energy += float(du.sum())
    return energy / float(problem.mass.ravel() @ f**2)


def _edges(problem):
    """(weight, ahead, behind) per offset e whose weights are not all zero:
    the edge form that ``rayleigh`` and ``_gate`` read.  ahead and behind
    are the ``_rolled`` shifts of a grid array by -e and by e, for u(a + e)
    and for f(a - e).
    """
    shape = (problem.grid.nx, problem.grid.ny)
    return [(weight, _rolled(np.negative(offset), shape), _rolled(offset, shape))
            for offset, weight in zip(_OFFSETS, problem.reduced[0])
            if np.any(weight)]


def _rolled(offset, shape):
    """(s, wrap) for y = np.roll(x, offset, axis=(0, 1)) on C-ordered grid
    arrays of `shape`, |dj| < ny.

    y is x shifted by s = (di ny + dj) mod (nx ny) as a flat array, read in
    at most two contiguous blocks, except on the |dj| columns whose rows the
    flat shift ran past (column 0 for dj = 1, column ny - 1 for dj = -1).
    wrap holds the (target, source) slice pairs, at most two, that rewrite
    those columns, y[target] = x[source]; it is empty if dj = 0.
    """
    (di, dj), (nx, ny) = offset, shape
    s = (di * ny + dj) % (nx * ny)
    if dj == 0:
        return s, []
    di %= nx
    target, source = ((slice(0, dj), slice(ny - dj, ny)) if dj > 0
                      else (slice(ny + dj, ny), slice(0, -dj)))
    rows = [(slice(di, nx), slice(0, nx - di))] + (
        [(slice(0, di), slice(nx - di, nx))] if di else [])
    return s, [((t, target), (f, source)) for t, f in rows]


def _shift(x, rolled, out):
    """out = np.roll(x, offset, axis=(0, 1)) for rolled = _rolled(offset):
    two contiguous block copies of the flat arrays, then the wrap columns."""
    s, wrap = rolled
    n = x.size
    flat_x, flat_out = x.reshape(n), out.reshape(n)
    flat_out[s:] = flat_x[:n - s]
    flat_out[:s] = flat_x[n - s:]
    for target, source in wrap:
        out[target] = x[source]
    return out


def _difference(u, rolled, out):
    """out = u - np.roll(u, offset, axis=(0, 1)) for rolled = _rolled(offset),
    as ``_shift`` reads the rolled array: two contiguous blocks, then the
    wrap columns."""
    s, wrap = rolled
    n = u.size
    flat_u, flat_out = u.reshape(n), out.reshape(n)
    np.subtract(flat_u[s:], flat_u[:n - s], out=flat_out[s:])
    np.subtract(flat_u[:s], flat_u[n - s:], out=flat_out[:s])
    for target, source in wrap:
        np.subtract(u[target], u[source], out=out[target])
    return out


def fourier_oracle(sigma, k):
    """Exact constant-coefficient spectrum: sorted {4 pi^2 (m, l) sigma (m, l)'}.

    sigma is a constant symmetric positive-definite 2x2 symbol.  Returns the
    first k+1 values with multiplicities, enumerating a lattice window large
    enough that no omitted mode could undercut the returned ones: outside
    max(|m|, |l|) <= mmax every value is at least 4 pi^2 lambda_min(sigma)
    (mmax+1)^2.  Raises ValueError on a non-finite symbol entry and on a
    window value that overflows where the answer depends on it (NaN, or an
    infinite (k+1)-th value), which no wider window can mend.
    """
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape != (2, 2) or sigma[0, 1] != sigma[1, 0]:
        raise ValueError("oracle symbol must be a symmetric 2x2 matrix")
    if not np.all(np.isfinite(sigma)):
        raise ValueError("oracle symbol entries must be finite")
    lam_min = float(np.linalg.eigvalsh(sigma)[0])
    if lam_min <= 0.0:
        raise ValueError("oracle symbol must be positive-definite")
    if k < 0:
        raise ValueError(f"eigenvalue count k must be >= 0, got {k}")
    mmax = 4
    while True:
        m = np.arange(-mmax, mmax + 1)
        with np.errstate(over="ignore", invalid="ignore"):
            vals = 4.0 * np.pi**2 * (sigma[0, 0] * m[:, None] ** 2
                                     + 2.0 * sigma[0, 1] * m[:, None] * m[None, :]
                                     + sigma[1, 1] * m[None, :] ** 2)
        vals = np.sort(vals.ravel())
        if np.isnan(vals[-1]) or (vals.size > k and np.isinf(vals[k])):
            raise ValueError("oracle values overflow: the symbol is too "
                             "large to enumerate")
        outside = 4.0 * np.pi**2 * lam_min * (mmax + 1) ** 2
        if vals.size > k and vals[k] < outside:
            return vals[:k + 1]
        mmax *= 2


def _constant_symbol(field):
    """sigma* at node 0 if sigma* and mu are the same at every node to roundoff,
    else None.

    Not the exact test of ``cut_to_lines``: a field computed by quadrature,
    or from an expression constant only up to roundoff, still counts here.
    """
    sig = field.sigma_star[0, 0]
    mu = float(field.mu[0, 0])
    if (np.abs(field.sigma_star - sig).max() <= 1e-12 * np.abs(sig).max()
            and np.abs(field.mu - mu).max() <= 1e-12 * mu):
        return sig
    return None


def discrete_fourier_oracle(field, k):
    """Exact first k+1 eigenvalues of assemble(field) for a constant field.

    Every periodic grid mode exp(2 pi i (m x + l y)) is an eigenvector of the
    constant flux-form stencil; with theta_x = pi m / nx, theta_y = pi l / ny
    and the constant mu cancelling between K and M,

        lambda_ml = 4 s11 sin^2(theta_x) / dx^2 + 4 s22 sin^2(theta_y) / dy^2
                    + 2 s12 sin(2 theta_x) sin(2 theta_y) / (dx dy)

    for sigma* = [[s11, s12], [s12, s22]].  Raises ValueError if sigma* or mu
    varies over the grid.
    """
    sig = _constant_symbol(field)
    if sig is None:
        raise ValueError("the discrete Fourier oracle needs a constant "
                         "symbol field")
    grid = field.grid
    if k + 1 > grid.node_count:
        raise ValueError(f"requested {k + 1} eigenvalues from a "
                         f"{grid.node_count}-node grid")
    tx = np.pi * np.arange(grid.nx)[:, None] / grid.nx
    ty = np.pi * np.arange(grid.ny)[None, :] / grid.ny
    vals = (4.0 * sig[0, 0] * np.sin(tx) ** 2 / grid.dx ** 2
            + 4.0 * sig[1, 1] * np.sin(ty) ** 2 / grid.dy ** 2
            + 2.0 * sig[0, 1] * np.sin(2.0 * tx) * np.sin(2.0 * ty)
            / (grid.dx * grid.dy))
    return np.sort(vals.ravel())[:k + 1]

