"""Weighted-Laplacian discretization and generalized eigensolvers on the torus.

The energy Int sigma*(df, df) mu dx dy is discretized in flux form on a
periodic nx x ny grid: the diagonal coefficients D = mu sigma* act through
edge-averaged fluxes, the mixed coefficient through symmetric centered
cross-differences, so the stiffness operator K is symmetric with the
constants exactly in its kernel and f' K f reproduces the energy quadrature
to second order.  The mass operator is M = diag(mu dx dy) and the spectrum
solves K u = lambda M u.

When K is bitwise unchanged by the one-step shift of the grid along x (or,
after transposing the grid, along y), the mass repeats on every grid line
along that axis and the stencil has no cross term along it, the pencil is
block-circulant and splits exactly into one small real symmetric block per
Fourier mode of that axis; ``solve`` then takes the block route.  Every
other problem, a sheared one-axis field included, goes to ARPACK
shift-invert.  Both routes are gated by the same residual and lambda_0
checks against the assembled K, M.

Constant-coefficient problems diagonalize in Fourier modes: the exact
continuous spectrum 4 pi^2 (m, l) sigma* (m, l)' is the limit of the grid
spectra, and the exact discrete spectrum of the stencil gates the eigensolver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sparse
import scipy.sparse.linalg as spla

from .grid import TorusGrid

_RESTOL = 1e-9  # eigenpair residual bound, relative to each eigenvalue's scale


class SolverError(RuntimeError):
    """Eigensolver failure or a violated discrete invariant."""


def _forward_diff(m, step):
    """Periodic forward difference (f[k+1] - f[k]) / step as a sparse matrix."""
    k = np.arange(m)
    rows = np.concatenate([k, k])
    cols = np.concatenate([k, (k + 1) % m])
    data = np.concatenate([-np.ones(m), np.ones(m)]) / step
    return sparse.csr_matrix((data, (rows, cols)), shape=(m, m))


def _centered_diff(m, step):
    """Periodic centered difference (f[k+1] - f[k-1]) / (2 step)."""
    k = np.arange(m)
    rows = np.concatenate([k, k])
    cols = np.concatenate([(k + 1) % m, (k - 1) % m])
    half = 0.5 / step
    data = np.concatenate([np.full(m, half), np.full(m, -half)])
    return sparse.csr_matrix((data, (rows, cols)), shape=(m, m))


@dataclass
class Spectrum:
    """Sorted eigenvalues with M-orthonormal eigenvectors and residuals."""

    values: np.ndarray      # (k+1,) ascending
    vectors: np.ndarray     # (n_nodes, k+1)
    residuals: np.ndarray   # ||K u - lambda M u|| / ||M u|| per pair
    route: str              # "block" or "shift-invert"

    def multiplets(self, rel_tol=1e-6):
        """Group eigenvalues within relative rel_tol into (value, count) pairs."""
        groups = []
        for lam in self.values:
            if groups and abs(lam - groups[-1][0]) <= rel_tol * max(abs(lam), 1e-300):
                value, count = groups[-1]
                groups[-1] = ((value * count + lam) / (count + 1), count + 1)
            else:
                groups.append((float(lam), 1))
        return groups


@dataclass
class SpectralProblem:
    """Stiffness K (symmetric PSD, constants in the kernel), diagonal mass M."""

    K: sparse.csr_matrix
    M: sparse.dia_matrix
    grid: TorusGrid
    lambda_scale: float

    @property
    def n_nodes(self):
        return self.K.shape[0]


def _stiffness(field, grid):
    """Flux-form K from edge means of mu sigma* and centered cross-differences."""
    cell = grid.cell_area
    D = field.mu[..., None, None] * field.sigma_star
    d11 = D[..., 0, 0]
    d22 = D[..., 1, 1]
    d12 = D[..., 0, 1]

    w11 = 0.5 * (d11 + np.roll(d11, -1, axis=0)).ravel() * cell
    w22 = 0.5 * (d22 + np.roll(d22, -1, axis=1)).ravel() * cell
    w12 = d12.ravel() * cell

    ix = sparse.identity(grid.nx, format="csr")
    iy = sparse.identity(grid.ny, format="csr")
    Dx = sparse.kron(_forward_diff(grid.nx, grid.dx), iy, format="csr")
    Dy = sparse.kron(ix, _forward_diff(grid.ny, grid.dy), format="csr")
    Gx = sparse.kron(_centered_diff(grid.nx, grid.dx), iy, format="csr")
    Gy = sparse.kron(ix, _centered_diff(grid.ny, grid.dy), format="csr")

    K = (Dx.T @ sparse.diags(w11) @ Dx
         + Dy.T @ sparse.diags(w22) @ Dy)
    if np.any(w12 != 0.0):
        cross = Gx.T @ sparse.diags(w12) @ Gy
        K = K + cross + cross.T
    K = K.tocsr()
    K.eliminate_zeros()
    return K


def assemble(field):
    """Build the flux-form stiffness and diagonal mass operators on field.grid.

    K is symmetric with the constants in its kernel by construction; both are
    checked on K as built, raising SolverError if either fails.
    """
    grid = field.grid
    cell = grid.cell_area
    K = _stiffness(field, grid)
    scale = float(np.abs(K.data).max()) if K.nnz else 1.0
    asym = float(abs(K - K.T).max())
    if asym > 1e-12 * scale:
        raise SolverError(f"stiffness assembly lost symmetry: max |K - K'| = {asym:.3e}")
    row_sum = float(np.abs(K @ np.ones(K.shape[0])).max())
    if row_sum > 1e-12 * scale:
        raise SolverError(f"stiffness rows do not sum to zero: max |K 1| = {row_sum:.3e}")

    M = sparse.diags(field.mu.ravel() * cell)
    lambda_scale = 4.0 * np.pi**2 * float(field.sigma_min_eigenvalues().min())
    return SpectralProblem(K=K, M=M, grid=grid, lambda_scale=lambda_scale)


def _translation_blocks(K, rings, width):
    """Coupling blocks of a stiffness that commutes with a shift of the nodes.

    The nodes form `rings` consecutive lines of `width` nodes each and K is a
    CSR matrix in canonical form.  If K is bitwise unchanged when every node
    moves one line on (periodically), K is block-circulant: returns {s: C_s},
    the dense width x width blocks coupling line 0 to line s, with the offset
    s taken in (-rings/2, rings/2].  Else returns None.
    """
    n = rings * width
    cut = K.indptr[width]
    indptr = np.concatenate([K.indptr[width:] - cut,
                             K.indptr[1:width + 1] + (K.nnz - cut)])
    # row r of `shifted` is row r + width of K with its columns moved back
    shifted = sparse.csr_matrix(
        (np.roll(K.data, -cut), (np.roll(K.indices, -cut) - width) % n, indptr),
        shape=K.shape)
    shifted.sort_indices()
    if not (np.array_equal(shifted.indptr, K.indptr)
            and np.array_equal(shifted.indices, K.indices)
            and np.array_equal(shifted.data, K.data)):
        return None
    head = K[:width]
    blocks = {}
    for s in np.unique(head.indices // width):
        offset = int(s) if 2 * s <= rings else int(s) - rings
        blocks[offset] = head[:, s * width:(s + 1) * width].toarray()
    return blocks


def _mode_block(blocks, m, rings):
    """B_m = sum_s C_s cos(2 pi m s / rings), the block of Fourier mode m of a
    block-circulant K whose coupling blocks C_s, s != 0, are diagonal."""
    theta = 2.0 * np.pi * m / rings
    return sum(C * np.cos(theta * s) for s, C in blocks.items())


def _block_eigenvectors(blocks, mass, rings, k, shift):
    """First k+1 eigenvectors of a block-circulant pencil, mode by mode.

    The coupling blocks are C_0 and the diagonal C_{+-1} = C_1 (no cross
    term).  Fourier mode m along the ring reduces the pencil to the real
    symmetric block B_m (``_mode_block``) against diag(mass), solved by dense
    eigh after symmetric scaling by mass^(-1/2).  B_m = B_0 +
    4 sin^2(pi m / rings) diag(-C_1) with B_0 PSD, so no eigenvalue of mode m
    lies below 4 sin^2(pi m / rings) min(-C_1 / mass); modes are visited in
    increasing m and the sweep stops once that bound exceeds the current
    (k+1)-th value.

    The dense solve leaves errors of order eps lambda_max in the vectors.
    One inverse-iteration step about `shift` (below the spectrum) on each
    kept mode damps them; a Cholesky QR of the M-normalized columns restores
    M-orthonormality.

    Mode m in (0, rings/2) stands for the pair +-m: each eigenvector u gives
    the grid vectors cos(2 pi m i / rings) u and sin(2 pi m i / rings) u
    scaled by sqrt(2/rings); modes 0 and rings/2 give the cos vector scaled
    by 1/sqrt(rings).  Vectors are M-orthonormal, ravelled line by line and
    in ascending eigenvalue order.
    """
    width = mass.size
    scale = 1.0 / np.sqrt(mass)
    rate = float((-np.diag(blocks[1]) / mass).min()) if 1 in blocks else 0.0
    last = min(k, width - 1)

    pool = []   # (value, m, j, part): the k+1 smallest found so far
    modes = {}  # m -> eigenvectors of B_m, for the modes in the pool
    for m in range(rings // 2 + 1):
        if (len(pool) > k
                and 4.0 * np.sin(np.pi * m / rings) ** 2 * rate > pool[k][0]):
            break
        B = _mode_block(blocks, m, rings)
        w, u = scipy.linalg.eigh(scale[:, None] * B * scale[None, :],
                                 subset_by_index=(0, last))
        modes[m] = scale[:, None] * u
        parts = ("cos", "sin") if 2 * m % rings else ("one",)
        pool += [(float(w[j]), m, j, part)
                 for j in range(w.size) for part in parts]
        pool.sort(key=lambda entry: entry[0])
        del pool[k + 1:]
        kept = {entry[1] for entry in pool}
        modes = {mode: u for mode, u in modes.items() if mode in kept}

    for m, u in modes.items():
        B = _mode_block(blocks, m, rings)
        y = scipy.linalg.solve(B - shift * np.diag(mass), mass[:, None] * u,
                               assume_a="sym")
        y = y / np.sqrt(mass @ y**2)
        chol = np.linalg.cholesky(y.T @ (mass[:, None] * y))
        modes[m] = scipy.linalg.solve_triangular(chol, y.T, lower=True).T

    ring = np.arange(rings)
    vectors = np.empty((rings * width, len(pool)))
    for col, (_, m, j, part) in enumerate(pool):
        phase = 2.0 * np.pi * m * ring / rings
        wave = np.sin(phase) if part == "sin" else np.cos(phase)
        norm = np.sqrt(2.0 / rings) if part != "one" else 1.0 / np.sqrt(rings)
        vectors[:, col] = (norm * wave[:, None] * modes[m][None, :, j]).ravel()
    return vectors


def _edge_rayleigh(K, mass, vectors):
    """Rayleigh quotients u'Ku / u'Mu with u'Ku = sum_{a<b} -K_ab (u_a - u_b)^2.

    The edge sum holds because the rows of K sum to zero.  It avoids the
    cancellation of K u on smooth vectors, whose rounding is of order
    eps lambda_max and would swamp the smallest eigenvalues.
    """
    entries = K.tocoo(copy=False)
    # every edge appears twice and the diagonal contributes nothing
    energy = [-0.5 * float((entries.data
                            * (v[entries.row] - v[entries.col]) ** 2).sum())
              for v in vectors.T]
    return np.array(energy) / (mass @ vectors**2)


def _block_route(problem, k, shift):
    """(values, vectors) by Fourier blocks along x, else along y, else None.

    A pencil qualifies along an axis if the mass repeats on every grid line
    across that axis, K is bitwise invariant under the one-line shift and
    its coupling blocks C_s, s != 0, are diagonal with |s| <= 1 (no cross
    term, so every mode block is real and the mode sweep can stop early).
    The eigenvalues are the edge-form Rayleigh quotients of the block
    eigenvectors, accurate relative to each eigenvalue where the dense block
    solve is accurate only to roundoff in lambda_max.
    """
    K = problem.K.tocsr()
    if not K.has_canonical_format:
        K = K.copy()
        K.sum_duplicates()
    mass = problem.M.diagonal()
    nx, ny = problem.grid.nx, problem.grid.ny
    # transposed grid: node (i, j) moves to j * nx + i
    transpose = np.arange(nx * ny).reshape(nx, ny).T.ravel()
    for rings, width, order in ((nx, ny, None), (ny, nx, transpose)):
        lines = (mass if order is None else mass[order]).reshape(rings, width)
        if np.any(lines != lines[0]):
            continue
        if order is None:
            moved = K
        else:
            moved = K[order][:, order]
            moved.sort_indices()
        blocks = _translation_blocks(moved, rings, width)
        if blocks is None or set(blocks) - {-1, 0, 1} or any(
                np.count_nonzero(C - np.diag(np.diag(C)))
                for s, C in blocks.items() if s):
            continue
        vectors = _block_eigenvectors(blocks, lines[0], rings, k, shift)
        if order is not None:
            vectors = vectors[np.argsort(order)]
        return _edge_rayleigh(K, mass, vectors), vectors
    return None


def _shift_invert(problem, k, shift, seed):
    """ARPACK shift-invert about `shift`, started from a seeded vector."""
    n = problem.n_nodes
    v0 = np.random.default_rng(seed).standard_normal(n)
    try:
        return spla.eigsh(problem.K.tocsc(), k=k + 1, M=problem.M.tocsc(),
                          sigma=shift, which="LM", v0=v0, tol=0)
    except spla.ArpackNoConvergence as exc:
        raise SolverError(
            f"shift-invert iteration converged only {exc.eigenvalues.size} "
            f"of {k + 1} pairs (shift {shift:.3e}, n = {n})") from exc


def solve(problem, k, seed=0):
    """First k+1 eigenpairs of K u = lambda M u, ascending, M-orthonormal.

    Block route: if K is bitwise invariant under the one-step shift of the
    grid along x, or along y, M repeats on every grid line along that axis
    and the coupling blocks C_s between lines carry no cross term (C_{+-1}
    diagonal), the pencil splits exactly into one real symmetric block per
    Fourier mode of the axis, each solved densely (``_block_eigenvectors``).
    Modes are visited in increasing sin^2(pi m / n) and the sweep stops once
    4 sin^2(pi m / n) min(-C_1 / M) exceeds the current (k+1)-th value, a
    sound lower bound on that mode.  The kept vectors take one
    inverse-iteration step about the shift below, and the eigenvalues are
    their edge-form Rayleigh quotients (``_edge_rayleigh``), so small
    eigenvalues keep their relative accuracy.  A field constant along an axis
    only to roundoff fails the bitwise test and is not reduced.

    Shift-invert route, for everything else (sheared one-axis fields too):
    ARPACK about the small negative shift -lambda_scale / 2, started from a
    seeded random vector.  Either route needs k + 2 < n.  Residuals ||K u - lambda M u|| / ||M u|| against the assembled
    K and M are checked against _RESTOL relative to each eigenvalue's own
    scale; lambda_0 must be a numerical zero.  ``discrete_fourier_oracle``
    gives the exact eigenvalues on constant fields.
    """
    n = problem.n_nodes
    if k + 2 >= n:
        raise ValueError(f"requested {k + 1} eigenpairs from a {n}-node "
                         "problem; the solver needs k + 2 < n")
    shift = -0.5 * max(problem.lambda_scale, 1e-12)  # below the spectrum
    pairs = _block_route(problem, k, shift)
    route = "block"
    if pairs is None:
        pairs = _shift_invert(problem, k, shift, seed)
        route = "shift-invert"
    values, vectors = pairs

    order = np.argsort(values)
    values = np.asarray(values)[order]
    vectors = np.asarray(vectors)[:, order]

    KV = problem.K @ vectors
    MV = problem.M @ vectors
    num = np.linalg.norm(KV - MV * values[None, :], axis=0)
    den = np.linalg.norm(MV, axis=0)
    residuals = num / den

    ref = float(values[1]) if k >= 1 else max(float(values[0]), 1.0)
    rel = residuals / np.maximum(np.abs(values), ref)
    if float(rel.max()) > _RESTOL:
        raise SolverError(
            f"eigensolver residuals exceed tolerance: max rel residual "
            f"{rel.max():.3e} > {_RESTOL:.1e} (n = {n})")
    if k >= 1 and abs(float(values[0])) > 1e-10 * float(values[1]):
        raise SolverError(
            f"lambda_0 = {values[0]:.3e} is not a numerical zero "
            f"(lambda_1 = {values[1]:.3e})")

    return Spectrum(values=values, vectors=vectors, residuals=residuals,
                    route=route)


def rayleigh(problem, f):
    """Rayleigh quotient f'Kf / f'Mf of a grid function (flat or grid-shaped)."""
    f = np.asarray(f, dtype=float).ravel()
    if f.size != problem.n_nodes:
        raise ValueError("grid function has the wrong number of nodes")
    if not np.any(f):
        raise ValueError("Rayleigh quotient of the zero function")
    return float(f @ (problem.K @ f)) / float(f @ (problem.M @ f))


def fourier_oracle(sigma, k):
    """Exact constant-coefficient spectrum: sorted {4 pi^2 (m, l) sigma (m, l)'}.

    sigma is a constant symmetric positive-definite 2x2 symbol.  Returns the
    first k+1 values with multiplicities, enumerating a lattice window large
    enough that no omitted mode could undercut the returned ones: outside
    max(|m|, |l|) <= mmax every value is at least 4 pi^2 lambda_min(sigma)
    (mmax+1)^2.
    """
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape != (2, 2) or sigma[0, 1] != sigma[1, 0]:
        raise ValueError("oracle symbol must be a symmetric 2x2 matrix")
    lam_min = float(np.linalg.eigvalsh(sigma)[0])
    if lam_min <= 0.0:
        raise ValueError("oracle symbol must be positive-definite")
    if k < 0:
        raise ValueError(f"eigenvalue count k must be >= 0, got {k}")
    mmax = 4
    while True:
        m = np.arange(-mmax, mmax + 1)
        vals = 4.0 * np.pi**2 * (sigma[0, 0] * m[:, None] ** 2
                                 + 2.0 * sigma[0, 1] * m[:, None] * m[None, :]
                                 + sigma[1, 1] * m[None, :] ** 2)
        vals = np.sort(vals.ravel())
        outside = 4.0 * np.pi**2 * lam_min * (mmax + 1) ** 2
        if vals.size > k and vals[k] < outside:
            return vals[:k + 1]
        mmax *= 2


def _constant_symbol(field):
    """sigma* at node 0 if sigma* and mu are the same at every node to roundoff,
    else None."""
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


def convergence_study(spec, grid_sizes, k=1):
    """Solve on a ladder of grids and report lambda errors and observed orders.

    Each level uses the closed-form symbol field of spec.  The reference is
    the continuous Fourier oracle when sigma* and mu are constant on every
    level, else the finest grid.  Rows carry n, lambdas, the solver route, the
    reference, and error and order estimates for lambda_1.
    """
    from .fiber import SymbolField

    sizes = sorted(int(n) for n in grid_sizes)
    if len(sizes) < 3:
        raise ValueError("a convergence study needs at least 3 grid sizes")

    runs = []
    for n in sizes:
        field = SymbolField.compute(spec, TorusGrid.square(n))
        spectrum = solve(assemble(field), k)
        runs.append((n, field, spectrum.values.copy(), spectrum.route))

    oracle_vals = None
    sigs = [_constant_symbol(field) for _, field, _, _ in runs]
    if all(s is not None for s in sigs):
        oracle_vals = fourier_oracle(sigs[0], k)

    ref_vals = oracle_vals if oracle_vals is not None else runs[-1][2]
    rows = []
    for idx, (n, _, vals, route) in enumerate(runs):
        row = {"n": n, "lambda": vals.tolist(), "route": route,
               "reference": "oracle" if oracle_vals is not None else "finest"}
        if oracle_vals is not None or idx < len(runs) - 1:
            row["error_lambda1"] = abs(vals[1] - ref_vals[1]) if k >= 1 else 0.0
        rows.append(row)
    for prev, cur in zip(rows, rows[1:]):
        e0 = prev.get("error_lambda1")
        e1 = cur.get("error_lambda1")
        if e0 and e1 and cur["n"] != prev["n"]:
            span = np.log2(cur["n"] / prev["n"])
            cur["order_lambda1"] = float(np.log2(e0 / e1) / span)
    return rows
