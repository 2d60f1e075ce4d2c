"""Symbol fields and the Binet-Legendre metric in closed form; fiber-circle
quadrature as the oracle of the symbol fields.

For every supported metric F = exp(f) (sqrt(g) + rho) (rho = 0: Riemannian;
f = 0: pure Randers; nested conformal exponents add up) the per-point fields
of the spectral problem are, with b = g^-1 rho and s = sqrt(1 - |rho|_{g*}^2),

    mu(x)        = e^{2f} sqrt(det g)
    sigma*(x)    = e^{-2f} [ 2/(1+s) g^-1 + 2/(s (1+s)^2) b b' ]
    a(x)         = mu(x) sqrt(det sigma*(x))

The closed form (``_closed_form_symbol``) reads these off the folded pair
(e^{2f} g, e^f rho) of ``_RandersCore._folded``, where the factor is already
in: s is unchanged, and the same two formulas with f = 0 give mu and sigma*.
``binet_legendre`` reads the Binet-Legendre metric off the same pair: the
forward unit ball of every such metric is a Zermelo ellipse, whose second
moment is exact.

The generic route, which the closed form is checked against, integrates on
the dual direction circle.  Writing p_hat(phi) = (cos phi, sin phi) for the
Euclidean-unit covector in direction phi,

    mu(x)        = (1/2pi) Int  F*(x, p_hat)^(-2) dphi
    sigma*[p,p]  = (1/(pi mu(x))) Int  F*(x, p_hat)^(-2) (p . v(phi))^2 dphi

where v(phi) = grad_p F*(x, p_hat(phi)) is the forward-unit vector whose
Legendre image points in direction phi.  The measure F*^(-2) dphi is the
push-forward of the canonical fiber angle measure to the dual circle, so mu
is the density of the Holmes-Thompson volume against dx dy and the fiber
density (1/mu) F*^(-2) integrates to exactly 2 pi at every point.

Both integrals come from one metric evaluation on the fiber
(``_fiber_symbol``): grad = F* grad_p F*, the dual_gradient formula at p_hat.
Euler's identity for the 1-homogeneous F* gives F*^2 = p_hat . grad and
v = grad / F*, so the integrands are F*^-2 and F*^-4 (p . grad)^2.  The
integrands are smooth and periodic, so the equal-weight trapezoid rule
converges geometrically (Trefethen and Weideman, SIAM Review 56, 2014);
drifts near |rho| = 1 sharpen them.  It is the only rule: every fiber
route takes its node count n and builds it with ``_circle(n)``, which
refuses fewer than 16 nodes.  ``SymbolField.compute(spec, grid, n)`` runs
the n-node rule, and ``SymbolField.compute(spec, grid, "auto")`` settles it
on the grid's own nodes: it doubles the node count, evaluating only the new
midpoints (``_circle(n, pi / n)``) and merging them into the running mu and
sigma*, until both stop moving at every node, and raises QuadratureError
past its cap.  The pointwise quadrature references the tests compare
against (the density, the symbol and Binet-Legendre by the rule) live in
``tests/oracles.py`` and are built from the pieces here.

The tangent-circle energy ``randers_energy_direct`` pairs df and rho with
the g-orthonormal circle through the Cholesky factor of g, one cos and one
sin coefficient per node, without forming the circle's direction vectors;
its fiber moments (``_tangent_moments``) serve every trial gradient it is
given.  ``randers_angular_integrals`` is the same kernel at the drift
(eta, 0) on the Euclidean circle, and ``randers_angular_closed_forms`` is
``randers_axis_symbol`` on the unit square torus, times pi.

Every symbol route starts at ``_fold``, which folds the metric once and
raises TypeError for a metric outside the three families.  Field values
keep the shape their expressions broadcast to, so the fold's arithmetic
runs on the distinct metric lines only: a metric varying in y alone folds
to one row (1, ny), a constant one to a single node.  ``_fold`` then cuts
every piece to the grid axes along which some piece varies
(``fspec.grid.cut_to_lines``, the one exact test), so a field that
repeats exactly along an axis is cut even where its expression is not.
Every route, closed form and fiber rule alike (``binet_legendre``, the
branches of ``SymbolField.compute`` and ``randers_energy_direct``), works
at that shape; ``SymbolField`` keeps sigma* and mu there, and
``binet_legendre`` returns a broadcast view at the nodes' shape.  One
loop, ``_over_nodes``, hands a fiber kernel row slices of the distinct
lines in blocks of _BLOCK node x fiber pairs; the kernel does fiber work
only and its temporaries stay cache-sized on any grid.  A rule's cost thus
scales with the distinct metric lines, not the grid nodes.  The settled
rule folds once for all of its doublings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import TorusGrid, cut_to_lines, node_axes
from .metrics import IllPosedMetricError, _Folded, _RandersCore, _symmetric

_TWO_PI = 2.0 * np.pi

# Node x fiber pairs per block of a grid-wide fiber rule: each node x fiber
# temporary is 64 KiB, so the ten or so live at once stay in L2, below
# glibc's default mmap threshold of 128 KiB.  Measured on a 64^2 x 512 sigma*
# field: at 2**18 (2 MiB temporaries) glibc handed the freed heap top back
# after every block, 32520 minor page faults per call and 2.5x the time;
# 2**13 and 2**14 ran equally fast, but 2**14 (128 KiB, at the threshold)
# still took 20000-25000 faults and 1.5-2x the time in about half of fresh
# processes, depending on the heap's layout, and 2**13 under 10 in all.
_BLOCK = 2**13

# F* below this on any fiber node means the metric degenerated numerically.
_DUAL_FLOOR = 1e-8
_COLLAPSED = ("dual norm collapsed below 1e-8 on the fiber; "
              "the metric is numerically degenerate")

# Start, cap and tolerance of the rule settled on a grid (``_settled_symbol``).
_SETTLE_START = 256
_SETTLE_CAP = 4096
_SETTLE_TOL = 1e-10


class QuadratureError(RuntimeError):
    """A fiber integral failed to resolve (e.g. produced a non-SPD symbol)."""


def _circle(n, offset=0.0):
    """(p, w): the n-node trapezoid rule, the one rule of every fiber oracle.

    p is the (n, 2) array of unit vectors (cos phi, sin phi) at the angles
    phi = 2 pi j / n + offset, read as covectors or as tangent directions,
    and w = 2 pi / n is the weight of every node.  On a smooth periodic
    integrand the equal-weight rule converges geometrically, so no other rule
    is needed.  Raises ValueError unless n is an integer of at least 16.
    """
    if not isinstance(n, (int, np.integer)) or n < 16:
        raise ValueError("a fiber rule needs an integer node count of at "
                         f"least 16, got {n!r}")
    phi = _TWO_PI * np.arange(n) / n + offset
    return np.stack([np.cos(phi), np.sin(phi)], axis=-1), _TWO_PI / n


def _fold(spec, x, y):
    """(fold, shape): spec folded once at the broadcast nodes of (x, y).

    fold is ``_RandersCore._folded`` there, which raises IllPosedMetricError
    where |rho|_{g*} >= 1, with its pieces cut to the lines of nodes they
    vary over (``cut_to_lines``); shape is the nodes' broadcast shape.  Every
    symbol route starts here, so a metric outside the three families raises
    the same TypeError on each.
    """
    if not isinstance(spec, _RandersCore):
        raise TypeError(f"{type(spec).__name__} is not one of the three metric "
                        "families; no symbol route can fold it")
    shape = np.broadcast_shapes(np.shape(x), np.shape(y))
    fold = [node_axes(piece, shape) for piece in spec._folded(x, y)]
    return _Folded(*cut_to_lines(shape, *fold)), shape


def _over_nodes(kernel, columns, fiber_size):
    """Per-line arrays of kernel over per-line columns, block by block.

    The columns share the shape of a fold's distinct metric lines
    (``_fold``) and are read as (N, 1) columns, N their count:
    the kernel runs once per distinct metric line, not per node.
    kernel(*rows) takes row slices of them, about _BLOCK / fiber_size rows
    so its node x fiber temporaries stay cache-sized, and returns a tuple of
    arrays whose leading axis runs over those rows.  Each comes back in the
    lines' shape followed by its own trailing axes (a scalar or a (2, 2)
    matrix for shape ()).
    """
    lines = np.shape(columns[0])
    n = int(np.prod(lines))
    columns = [np.reshape(column, (n, 1)) for column in columns]
    step = max(1, _BLOCK // fiber_size)
    out = None
    for lo in range(0, n, step):
        parts = kernel(*(column[lo:lo + step] for column in columns))
        if out is None:
            out = [np.empty((n,) + part.shape[1:]) for part in parts]
        for whole, part in zip(out, parts):
            whole[lo:lo + step] = part
    return tuple(whole.reshape(lines + whole.shape[1:])[()] for whole in out)


def _fiber_symbol(nodes, n, offset=0.0):
    """(sigma*, mu) on the fiber (module docstring) from one metric evaluation.

    nodes is ``_fold``'s (fold, shape); both come back at the fold's lines of
    nodes.  The rule is ``_circle(n, offset)``.  The gradient formula
    grad = F* grad_p F* at p_hat is the only fiber evaluation per block of
    nodes; Euler's identity for the 1-homogeneous F* gives
    F*^2 = p_hat . grad, and v = grad / F*.  Raises IllPosedMetricError if F*
    falls below _DUAL_FLOOR on a fiber node, and QuadratureError if sigma*
    fails to be SPD, which signals an under-resolved fiber rule.
    """
    p, w = _circle(n, offset)
    p1, p2 = p[:, 0], p[:, 1]

    def moments(*rows):
        g1, g2 = _Folded(*rows).dual_gradient(p)
        dual_sq = p1 * g1 + p2 * g2
        if not np.all(dual_sq >= _DUAL_FLOOR**2):
            raise IllPosedMetricError(_COLLAPSED)
        # density = w F*^-2 and v = grad / F*, so density v v' = w grad grad' F*^-4
        density = w / dual_sq
        mu = density.sum(axis=-1) / _TWO_PI
        moment = density / dual_sq
        norm = np.pi * mu
        return ((moment * g1 * g1).sum(axis=-1) / norm,
                (moment * g1 * g2).sum(axis=-1) / norm,
                (moment * g2 * g2).sum(axis=-1) / norm, mu)

    s11, s12, s22, mu = _over_nodes(moments, nodes[0], n)
    if np.any(s11 <= 0.0) or np.any(s11 * s22 - s12 * s12 <= 0.0):
        raise QuadratureError("assembled symbol is not positive-definite; "
                              "raise the fiber node count")
    return _symmetric(s11, s12, s22), mu


def conformal_transform(sigma_star, mu, f_value):
    """Rescale a symbol/density pair under F -> exp(f) F on a surface:
    sigma* picks up exp(-2f), mu picks up exp(+2f)."""
    f_value = np.asarray(f_value, dtype=float)
    scale = np.exp(2.0 * f_value)
    return sigma_star / scale[..., None, None], np.asarray(mu) * scale


# ---------------------------------------------------------------------------
# Randers closed forms
# ---------------------------------------------------------------------------

def randers_axis_symbol(h, r, eta):
    """Closed-form symbol entries for the flat torus diag(h^2, r^2) with
    constant drift eta*h dx:

        A = 2 h^-2 / ((1 + s) s),   B = 2 r^-2 / (1 + s),   s = sqrt(1 - eta^2)

    Reduces to (h^-2, r^-2) at eta = 0 and must agree with the fiber rule's
    sigma* on the same data to quadrature tolerance.
    """
    h = float(h)
    r = float(r)
    eta = float(eta)
    if h <= 0.0 or r <= 0.0:
        raise ValueError("axis lengths must be positive")
    if not 0.0 <= eta < 1.0:
        raise IllPosedMetricError("Randers drift ratio must satisfy 0 <= eta < 1")
    s = np.sqrt(1.0 - eta * eta)
    return 2.0 / (h * h * (1.0 + s) * s), 2.0 / (r * r * (1.0 + s))


def _tangent_moments(r1, r2, n):
    """Moments Int (cos^2, 2 cos sin, sin^2)(t) / (1 + r1 cos t + r2 sin t) dt
    of the n-node rule, stacked on a trailing axis of 3, for the drift
    components (r1, r2) on a unit circle: arrays of one shape, a fold's
    distinct lines, read by ``_over_nodes``.  Raises IllPosedMetricError
    where the drift reaches the circle.
    """
    p, w = _circle(n)
    cos, sin = p[:, 0], p[:, 1]
    trig = w * np.stack([cos * cos, 2.0 * cos * sin, sin * sin])

    def moments(r1, r2):
        den = 1.0 + r1 * cos + r2 * sin
        if np.any(den <= 0.0):
            raise IllPosedMetricError("drift exceeds the unit ball on the fiber")
        # einsum, not BLAS: a row's moments must not depend on how many
        # rows share the block
        return (np.einsum("rf,cf->rc", 1.0 / den, trig),)

    return _over_nodes(moments, (r1, r2), n)[0]


def randers_angular_integrals(eta, n):
    """n-node trapezoid values of the three drift-averaged angular integrals

        Int cos^2 / (1 + eta cos),  Int 2 cos sin / (1 + eta cos),
        Int sin^2 / (1 + eta cos)      over [0, 2pi),

    the tangent-circle moments of ``randers_energy_direct`` at the drift
    (eta, 0) on the Euclidean circle (``_tangent_moments``).  Raises
    IllPosedMetricError unless 0 <= eta < 1, and ValueError unless n is an
    integer of at least 16.
    """
    eta = float(eta)
    if not 0.0 <= eta < 1.0:
        raise IllPosedMetricError("Randers drift ratio must satisfy 0 <= eta < 1")
    return tuple(map(float, _tangent_moments(eta, 0.0, n)))


def randers_angular_closed_forms(eta):
    """Exact values of the integrals above, (2pi/((1+s)s), 0, 2pi/(1+s)) with
    s = sqrt(1 - eta^2): pi times ``randers_axis_symbol`` of the unit square
    torus, and a cross term of 0.  Raises IllPosedMetricError unless
    0 <= eta < 1."""
    c2, s2 = randers_axis_symbol(1.0, 1.0, eta)
    return np.pi * c2, 0.0, np.pi * s2


# ---------------------------------------------------------------------------
# Binet-Legendre averaging
# ---------------------------------------------------------------------------

def binet_legendre(spec, x, y):
    """Binet-Legendre metric g_BL of the metric at the nodes (x, y), in
    closed form, as (..., 2, 2) matrices at the nodes' broadcast shape.

    Its dual form is (n+2)/vol(B) Int_B p(v) q(v) dv over the forward unit
    ball B (Matveev and Troyanov, Geom. Topol. 16, 2012).  For
    |v|_g + rho(v) that ball is the Zermelo ellipse (v - W)' h (v - W) <= 1
    with h = w (g - rho rho') and W = -b / w (Bao, Robles and Shen,
    J. Differential Geom. 66, 2004), whose dual form is
    h^-1 + 4 W W' = (g^-1 + 5 b b' / w) / w.  Sherman-Morrison inverts it:

        g_BL = w (g - 5 rho rho' / (5 - 4 w)),

    read off the folded pair (e^{2f} g, e^f rho) of ``_fold``, so one
    formula serves the three families.  Riemannian input (rho = 0, w = 1)
    returns g exactly; in general g_BL is bi-Lipschitz to F with constants
    set by the quasireversibility.
    """
    fold, shape = _fold(spec, x, y)
    k = 5.0 / (5.0 - 4.0 * fold.w)
    bl = _symmetric(fold.w * (fold.g11 - k * (fold.r1 * fold.r1)),
                    fold.w * (fold.g12 - k * (fold.r1 * fold.r2)),
                    fold.w * (fold.g22 - k * (fold.r2 * fold.r2)))
    return np.broadcast_to(bl, shape + (2, 2))


# ---------------------------------------------------------------------------
# Field assembly over a grid
# ---------------------------------------------------------------------------

def _settled_symbol(spec, x, y):
    """(sigma*, mu, n) of the trapezoid rule settled at every node (x, y).

    Doubles from _SETTLE_START nodes until a doubling changes mu by less
    than _SETTLE_TOL, and sigma* by less than _SETTLE_TOL times its largest
    entry, at every node; raises QuadratureError if none up to _SETTLE_CAP
    does.  The 2n-node rule is the n-node rule plus its midpoints, so each
    doubling evaluates the fiber on the midpoints only and merges the halves
    exactly: mu_2n = (mu_n + mu_mid) / 2, and sigma*, a mu-normalized moment,
    sigma*_2n = (mu_n sigma*_n + mu_mid sigma*_mid) / (2 mu_2n).  The metric
    is folded once for every doubling.
    """
    nodes = _fold(spec, x, y)
    n = _SETTLE_START
    sig, mu = _fiber_symbol(nodes, n)
    while n < _SETTLE_CAP:
        sig_mid, mu_mid = _fiber_symbol(nodes, n, np.pi / n)
        # sigma*_2n - sigma*_n = mu_mid (sigma*_mid - sigma*_n) / (2 mu_2n)
        step = (mu_mid / (mu + mu_mid))[..., None, None] * (sig_mid - sig)
        sig_change = np.abs(step).max(axis=(-2, -1)) / np.abs(sig + step).max(axis=(-2, -1))
        change = max(0.5 * np.abs(mu_mid - mu).max(), sig_change.max())
        sig, mu, n = sig + step, 0.5 * (mu + mu_mid), 2 * n
        if change < _SETTLE_TOL:
            return sig, mu, n
    raise QuadratureError(f"fiber rule did not settle by the cap of {_SETTLE_CAP} "
                          f"nodes: the last doubling changed mu or sigma* by "
                          f"{change:.3e} (tol {_SETTLE_TOL:g})")


def _closed_form_symbol(spec, x, y):
    """(sigma*, mu) of exp(f) (sqrt(g) + rho) in closed form (module docstring),
    read off the folded pair (e^{2f} g, e^f rho) of ``_fold``."""
    fold = _fold(spec, x, y)[0]
    s = np.sqrt(fold.w)
    t1 = 2.0 / (1.0 + s)
    t2 = 2.0 / (s * (1.0 + s) ** 2)
    sigma = _symmetric(t1 * fold.i11 + t2 * (fold.b1 * fold.b1),
                       t1 * fold.i12 + t2 * (fold.b1 * fold.b2),
                       t1 * fold.i22 + t2 * (fold.b2 * fold.b2))
    return sigma, np.sqrt(fold.g11 * fold.g22 - fold.g12 * fold.g12)


@dataclass
class SymbolField:
    """Per-node symbol data on a torus grid: sigma* (SPD), mu > 0, weight a.

    sigma* and mu may be given as anything that broadcasts to the grid.
    They are kept cut to the lines of nodes they vary over
    (``cut_to_lines``), as the pair ``reduced``; sigma_star and mu read them
    as read-only (nx, ny, ...) views.
    """

    grid: TorusGrid
    sigma_star: np.ndarray  # (nx, ny, 2, 2)
    mu: np.ndarray          # (nx, ny)
    fiber_nodes: int        # 0 for the closed form

    def __post_init__(self):
        nodes = (self.grid.nx, self.grid.ny)
        self.reduced = tuple(cut_to_lines(nodes, node_axes(
            self.sigma_star, nodes, (2, 2)), node_axes(self.mu, nodes)))
        self.sigma_star, self.mu = map(np.broadcast_to, self.reduced, (nodes + (2, 2), nodes))

    @classmethod
    def compute(cls, spec, grid, n=None):
        """Evaluate mu and sigma* on the grid, at the distinct lines of
        nodes of the folded metric only (``_fold``).

        Every route raises TypeError for a metric outside the three
        families and IllPosedMetricError where |rho|_{g*} >= 1.  With n
        None: the closed form (module docstring).  With an integer n: the
        n-node trapezoid oracle, the metric folded once and one dual_gradient
        fiber formula per block of _BLOCK node x fiber pairs over its
        distinct lines (``_over_nodes``); raises ValueError unless n is at
        least 16.  With "auto": the trapezoid oracle at the rule settled on
        this grid's nodes (``_settled_symbol``), whose node count is the
        field's fiber_nodes; raises QuadratureError if it does not settle.
        """
        x, y = grid.mesh()
        if n is None:
            (sig, mu), nodes = _closed_form_symbol(spec, x, y), 0
        elif n == "auto":
            sig, mu, nodes = _settled_symbol(spec, x, y)
        else:
            (sig, mu), nodes = _fiber_symbol(_fold(spec, x, y), n), n
        return cls(grid=grid, sigma_star=sig, mu=mu, fiber_nodes=nodes)

    @property
    def a(self):
        """Weight a = mu sqrt(det sigma*) at every node, the density of the
        metric volume against the Riemannian volume of the symbol metric."""
        s = self.sigma_star
        return self.mu * np.sqrt(s[..., 0, 0] * s[..., 1, 1]
                                 - s[..., 0, 1] * s[..., 1, 0])

    def total_volume(self):
        # summed over a contiguous copy: numpy sums a broadcast view in
        # another order, which moves the last bits
        return float(self.mu.ravel().sum()) * self.grid.cell_area


# ---------------------------------------------------------------------------
# Two-route energies (tangent-side oracle for Randers data)
# ---------------------------------------------------------------------------

def energy_from_symbol(field, grad_fn):
    """Energy Int sigma*(df, df) mu dx dy of an analytic gradient field."""
    x, y = field.grid.mesh()
    df = grad_fn(x, y)
    s = field.sigma_star
    dens = (s[..., 0, 0] * df[..., 0] ** 2
            + 2.0 * s[..., 0, 1] * df[..., 0] * df[..., 1]
            + s[..., 1, 1] * df[..., 1] ** 2) * field.mu
    return float(dens.sum()) * field.grid.cell_area


def randers_energy_direct(spec, grad_fns, grid, n):
    """Tangent-circle route to the energies of trial functions under any of
    the three families, bypassing sigma* entirely: one energy

        E(f) = (1/pi) Int_M [ Int (df . v(t))^2 / (1 + rho(v(t))) dt ] sqrt(det g) dx dy

    per gradient field df in grad_fns, with v(t) = cos t e1 + sin t e2
    running over the g-orthonormal unit circle, e1 and e2 the columns of
    L'^-1 for the Cholesky factor g = L L'.  (g, rho) is the folded pair of
    ``_fold``: on a surface the energy is conformally invariant, so folding
    the factor in leaves it unchanged.
    A covector w pairs with v(t) as w1 cos t + w2 sin t, where
    w1 = w_x / l11 and w2 = (w_y - l21 w1) / l22, so no direction array is
    formed, and (df . v)^2 expands into w1^2 cos^2 + 2 w1 w2 cos sin +
    w2^2 sin^2: the inner integral takes three moments of 1 / (1 + rho(v))
    per node (``_tangent_moments`` on the n-node rule), computed once for
    every trial and, row by row, independently of how many nodes share a
    block.
    Agreement with ``energy_from_symbol`` validates the dual-circle route
    end to end.
    """
    x, y = grid.mesh()
    fold, shape = _fold(spec, x, y)
    l11 = np.sqrt(fold.g11)
    l21 = fold.g12 / l11
    l22 = np.sqrt(fold.g22 - l21**2)

    def on_circle(wx, wy):
        w1 = wx / l11
        return w1, (wy - l21 * w1) / l22

    moment = _tangent_moments(*on_circle(fold.r1, fold.r2), n)
    c2, cs, s2 = moment[..., 0], moment[..., 1], moment[..., 2]
    area = l11 * l22 * (grid.cell_area / np.pi)  # sqrt(det g) dx dy / pi
    energies = []
    for grad_fn in grad_fns:
        grad = grad_fn(x, y)
        w1, w2 = on_circle(grad[..., 0], grad[..., 1])
        energies.append(float(np.broadcast_to(
            (w1 * w1 * c2 + w1 * w2 * cs + w2 * w2 * s2) * area, shape).sum()))
    return energies
