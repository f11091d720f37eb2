"""Partition-function machinery: exact beta = 2 disk values through
the monomial mode masses, the theta(ell) asymptote, Fekete/Jensen
sandwich bounds, and small-N cubature oracles.

The cubature oracles never touch the orthogonal-polynomial identity:
every set integrates on one node set in exterior-map coordinates, and the
disk only adds its rotational reduction of one particle, so exact values
and cubature stay independent checks of each other.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, fields, replace
from typing import Optional

import numpy as np

from .measures import (SmoothedMeasure, _gauss, continuous_energy, equilibrium_discretization,
                       smooth)
from .potential import (_BLOCK_VALUES, CompactSet, Disk, _midpoint_angles, _row_blocks,
                        robin_energy)
from .sampler import EnsembleParams


def disk_mode_mass(k, s: float, r=math.inf):
    """int_{|z|<r} |z|^2k exp(-2 s green) dA on the unit disk, vectorized
    over k and r: pi min(r, 1)^(2k+2)/(k+1), plus pi (1 - r^(2k+2-2s))/(s-k-1)
    for r > 1.  At r = inf, the norm h_k of the k-th monomial, the k-th mode
    of the determinantal beta = 2 ensemble.  Requires k >= 0 and s > k+1
    (or s = inf)."""
    k, r = np.asarray(k, dtype=float), np.asarray(r, dtype=float)
    if np.any(k < 0):
        raise ValueError("k must be nonnegative")
    if not np.all(s > k + 1):
        raise ValueError(f"norm diverges: need s > k+1, got s={s}, k={np.max(k):g}")
    mass = math.pi * np.minimum(r, 1.0) ** (2 * k + 2) / (k + 1)
    if s == math.inf:
        return mass
    # the r-power is 1 inside the disk and 0 at r = inf
    return mass + math.pi * (1.0 - np.maximum(r, 1.0) ** (2 * k + 2 - 2 * s)) / (s - k - 1)


def log_partition_disk_exact(N: int, s: float) -> float:
    """Exact beta = 2 partition value on the unit disk.

    log N! + sum_{k<N} log disk_mode_mass(k, s), in which log N! cancels
    against the 1/(k+1) factors of the masses:
      log Z = N log(pi s) - sum_{k=1..N} log(s - k)
            = N log pi + sum_{k=1..N} log(s / (s - k)),
    the second form as one vectorized log and a compensated sum (every term
    carries an absolute error of about one ulp, whatever s).  N log pi at
    s = inf.  Requires s > N (or s = inf)."""
    if N < 1:
        raise ValueError("N must be positive")
    if s == math.inf:
        return N * math.log(math.pi)
    if not s > N:
        raise ValueError(f"need s > N, got s={s}, N={N}")
    terms = np.log(s / (s - np.arange(1, N + 1)))
    return math.fsum([N * math.log(math.pi), *terms.tolist()])


def theta(x: float) -> float:
    """Linear-coefficient function log(pi) + 1 + (1-x)log(1-x)/x on [0,1],
    with the removable endpoint limits theta(0) = log pi and
    theta(1) = log pi + 1."""
    if not 0.0 <= x <= 1.0:
        raise ValueError("theta is defined on [0, 1]")
    if x == 0.0:
        return math.log(math.pi)
    if x == 1.0:
        return math.log(math.pi) + 1.0
    return math.log(math.pi) + 1.0 + (1.0 - x) * math.log1p(-x) / x


def asymptotic_residual(N: int, s: float) -> float:
    """log Z(N, s) minus the theta(N/s) * N asymptote for the unit disk
    (whose Robin constant vanishes).  O(log N) at fixed ratio, O(1) at
    s = inf."""
    ell = 0.0 if s == math.inf else N / s
    return log_partition_disk_exact(N, s) - theta(ell) * N


# ---------------------------------------------------------------------------
# sandwich bounds
# ---------------------------------------------------------------------------

def _log_density_self_average(nu: SmoothedMeasure, cell: Optional[float] = None) -> float:
    """Integral of log(density) against the smoothed measure itself.

    The density is piecewise constant on disk-overlap regions; a midpoint
    grid of the bounding box (cell eps/40 unless given) resolves it to the
    needed few digits.  An atom x within eps of grid row y covers the cells
    whose centres lie within its half chord sqrt(eps^2 - (Im x - y)^2) of
    Re x, one interval of columns (empty when the chord falls between two
    centres).  The row's density is one cumulative sum with +w at each
    interval's first cell and -w just past its last.  Dyadic weights (the
    partition bound's 1/128) make every cell's density exact, equal bit for
    bit to a full-grid sum over all atoms; other weights agree with it at
    rounding level only.
    """
    eps = nu.epsilon
    h = cell if cell is not None else eps / 40.0
    x0, x1, y0, y1 = nu.bounding_box()
    xs = np.arange(x0 + h / 2, x1, h)
    ys = np.arange(y0 + h / 2, y1, h)
    pts = nu.base.points
    w = nu.base.weights
    total = 0.0
    norm = math.pi * eps * eps
    for yc in ys:
        dy = pts.imag - yc
        near = np.abs(dy) < eps
        half = np.sqrt(eps * eps - dy[near] ** 2)
        first = np.searchsorted(xs, pts.real[near] - half, side="right")
        past = np.searchsorted(xs, pts.real[near] + half, side="left")
        steps = np.bincount(np.concatenate([first, past]),
                            np.concatenate([w[near], -w[near]]), minlength=xs.size + 1)
        a = np.cumsum(steps[:-1]) / norm
        pos = a > 0
        if pos.any():
            total += float(np.sum(a[pos] * np.log(a[pos]))) * h * h
    return total


@dataclass
class PartitionBounds:
    lower: float
    upper: float
    nu_energy: float = math.nan
    log_density_average: float = math.nan
    green_average: float = math.nan
    field_log_integral: float = math.nan


# lower-bound measure: atoms of the inner set at margin 1/m, mollified at eps < 1/(2m)
_BOUND_M, _BOUND_EPS, _BOUND_ATOMS = 8, 0.05, 128


@functools.lru_cache(maxsize=16)
def _smoothed_terms(K: CompactSet) -> tuple:
    """Energy, log-density self-average and green average of the smoothed
    equilibrium measure of K's inner set: the terms of the lower bound
    that do not depend on the ensemble (N, s, beta)."""
    try:
        inner = K.inner_set(1.0 / _BOUND_M)
    except (NotImplementedError, ValueError):
        inner = K
    nu = smooth(equilibrium_discretization(inner, _BOUND_ATOMS), _BOUND_EPS)
    return continuous_energy(nu), _log_density_self_average(nu), nu.green_average(K)


def partition_bounds(K: CompactSet, params: EnsembleParams,
                     log_delta: float) -> PartitionBounds:
    """Sandwich for log Z: extremal-configuration upper bound and Jensen
    lower bound.

    upper = beta * log_delta + N log int exp(-(s+1-N) beta green) dA, with
    log_delta the maximum of the weighted Fekete objective over N points
    (fekete.max_log_delta: exact on a disk, a Newton solve elsewhere).
    lower uses the smoothed equilibrium measure of the inner set at margin
    1/8 with mollification radius 0.05; the field term -beta s N int green
    vanishes when its support stays in K (always for filled sets, never
    for a segment).
    """
    N, s, beta = params.N, params.s, params.beta
    exponent = (s + 1 - N) * beta if s != math.inf else math.inf
    fi = K.field_integral(exponent)
    log_fi = math.log(fi) if fi > 0 else -math.inf
    upper = beta * log_delta + N * log_fi

    energy, loga, gavg = _smoothed_terms(K)
    if s == math.inf:
        field_term = 0.0 if gavg <= 1e-13 else math.inf
    else:
        field_term = beta * s * N * gavg
    lower = -beta * N * (N - 1) / 2.0 * energy - N * loga - field_term
    return PartitionBounds(lower, upper, energy, loga, gavg, log_fi)


# ---------------------------------------------------------------------------
# small-N cubature
# ---------------------------------------------------------------------------

# t-panels of the rule beyond rho = 1, graded towards rho = inf (t = 0)
_PANELS = (0.0, 0.05, 0.25, 1.0)


def _radial_rule(params: EnsembleParams, order: int):
    """Radii rho_i and weights u_i with int h(rho) W(rho) rho drho ~ sum u h(rho),
    where W = 1 on [0, 1] and rho^{-beta s} beyond: `order` Gauss nodes on
    [0, 1], then rho = 1/t on each t-panel with weight t^{beta s - 3} dt.
    No radii beyond 1 at s = inf."""
    x, wq = _gauss(order)
    rho = 0.5 * (x + 1.0)
    nodes, weights = [rho], [0.5 * wq * rho]
    if params.s != math.inf:
        beta_s = params.beta * params.s
        for a, b in zip(_PANELS[:-1], _PANELS[1:]):
            t = 0.5 * (b - a) * x + 0.5 * (a + b)
            nodes.append(1.0 / t)
            weights.append(0.5 * (b - a) * wq * t ** (beta_s - 3.0))
    return np.concatenate(nodes), np.concatenate(weights)


# midpoint angles of every cubature route; the disk at N = 3 keeps 42
_ANGLES = 96


def _disk_angles(N: int, beta: float) -> int:
    """Midpoint angles per relative angle of the disk cubature.

    For an even integer beta the integrand is a trigonometric polynomial of
    degree (N-1) beta/2 in each relative angle, and (N-1) beta/2 + 1
    midpoints integrate it exactly: 2 at N = 2, beta = 2.  Every other beta
    keeps 96 angles (42 at N = 3), as does an even beta whose exact count
    would exceed that."""
    default = 42 if N == 3 else _ANGLES
    if beta % 2 == 0:
        return min((N - 1) * int(beta) // 2 + 1, default)
    return default


def _laurent_nodes(K: CompactSet, params: EnsembleParams, order: int, n_phi: int):
    """Nodes z and weights w of exp(-beta s green) dA from K's Laurent data:
    _radial_rule's radii on n_phi midpoint angles, as (z, w) inside K and
    (z, w) outside.

    Inside K the field weight is one, and the radii below 1 run along the
    rays from c0 (the constant Laurent coefficient) to the boundary:
    z = c0 + rho (b(phi) - c0) with dA = rho Im(conj(b - c0) b'(phi)) drho dphi.
    Where K is not star-shaped about c0 that Jacobian changes sign, and the
    signed weights still count each point of K once, net.  A set of zero
    area has none.
    Outside, the radii beyond 1 are map coordinates w = rho e^{i phi} of
    z = psi(w), and |psi'(w)|^2 joins the rule's weight |w|^{-beta s}."""
    rho, u = _radial_rule(params, order)
    phi = _midpoint_angles(n_phi)
    c0 = K.laurent()[1][0]
    b, db, _ = K.boundary_jet(phi)
    ray = b - c0
    inside, outside = (rho < 1.0) & (K.area() > 0), rho > 1.0
    z_in = c0 + rho[inside, None] * ray[None, :]
    w = rho[outside, None] * np.exp(1j * phi)[None, :]
    dphi = 2 * math.pi / n_phi
    w_in = u[inside, None] * (np.conj(ray) * db).imag[None, :] * dphi
    w_out = u[outside, None] * np.abs(K.map_derivative(w)) ** 2 * dphi
    return (z_in.ravel(), w_in.ravel()), (K.map(w).ravel(), w_out.ravel())


def _pair_sum(x, wx, y, wy, beta: float) -> float:
    """sum_ij wx_i wy_j |x_i - y_j|^beta, over row blocks of the pair matrix."""
    total = 0.0
    for rows in _row_blocks(x.size, y.size):
        d = np.abs(x[rows, None] - y[None, :]) ** beta
        total += float(wx[rows] @ d @ wy)
    return total


def _self_pair_sum(x, wx, beta: float) -> float:
    """_pair_sum(x, wx, x, wx, beta) from the row blocks on and above the
    diagonal of the symmetric pair matrix, each block right of the diagonal
    counted twice: half the kernel evaluations, at rounding level the same."""
    total = 0.0
    for rows in _row_blocks(x.size, x.size):
        d = np.abs(x[rows, None] - x[None, rows.start:]) ** beta
        twice = wx[rows.start:].copy()
        twice[d.shape[0]:] *= 2.0
        total += float(wx[rows] @ d @ twice)
    return total


def partition_cubature(K: CompactSet, params: EnsembleParams) -> float:
    """Numerical value of the 2N-dimensional partition integral, N <= 3.

    Every set takes its nodes from _laurent_nodes: 36 Gauss radii a panel
    (21 at N = 3) on 96 midpoint angles, or on _disk_angles(N, beta) for a
    disk.  The disk differs only in its rotational reduction: particle 1
    sits on the ray at angle 0 (radii of _radial_rule, weights 2 pi R^2 u),
    the others on the nodes of Disk(0, R), since only R enters.  Angle 0 is
    no node angle, so the |z_i - z_j|^beta kink never falls on a node.

    Supported: disks at N <= 3 and every other set at N <= 2.  Other sets
    at N = 3 raise NotImplementedError, and N > 3 raises ValueError.

    Each pair kernel runs in row blocks of at most _BLOCK_VALUES = 2^18
    values (a few MB of temporaries, whatever the grid); the block size
    moves values at rounding level only.  Off the disk, N = 2 is the
    symmetric sum of the nodes against themselves, taken by _self_pair_sum
    from the blocks on and above the diagonal.
    """
    N, beta = params.N, params.beta
    if N > 3:
        raise ValueError("cubature supports N <= 3 only")
    disk = isinstance(K, Disk)
    if N == 3 and not disk:
        raise NotImplementedError("N = 3 cubature is available for disks only")
    order = 21 if N == 3 else 36
    K = Disk(0.0, K.radius) if disk else K
    (zi, wi), (ze, we) = _laurent_nodes(K, params, order,
                                        _disk_angles(N, beta) if disk else _ANGLES)
    if N == 1:
        # the field weight is one on K, so the interior part is the area
        return K.area() + float(np.sum(we))
    z, w = np.concatenate([zi, ze]), np.concatenate([wi, we])
    if not disk:
        return _self_pair_sum(z, w, beta)
    rho, u = _radial_rule(params, order)
    r, ur = K.radius * rho, 2 * math.pi * K.radius ** 2 * u
    if N == 2:
        return _pair_sum(r, ur, z, w, beta)
    # N == 3: particles 2 and 3 on the shared nodes, weighted in the rows of A
    A = np.abs(r[:, None] - z[None, :]) ** beta * w[None, :]  # (nr, nz)
    total = 0.0
    for rows in _row_blocks(z.size, z.size):
        D = np.abs(z[rows, None] - z[None, :]) ** beta        # (c, nz)
        total += float(np.einsum("ir,ri,i->", A[:, rows], D @ A.T, ur))
    return total


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

@dataclass
class PartitionReport:
    N: int
    s: float
    beta: float
    exact: Optional[float] = None       # log Z, beta = 2 disks only
    lower: Optional[float] = None
    upper: Optional[float] = None
    cubature: Optional[float] = None    # log of the cubature value
    asymptote: Optional[float] = None   # -N(N+1) I[omega_K] + theta(ell) N
    residual: Optional[float] = None
    # the PartitionBounds terms, set with lower and upper
    nu_energy: Optional[float] = None
    log_density_average: Optional[float] = None
    green_average: Optional[float] = None
    field_log_integral: Optional[float] = None

    def to_dict(self) -> dict:
        """The fields in declaration order, s = inf written "inf", None omitted."""
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["s"] = "inf" if self.s == math.inf else self.s
        return {k: v for k, v in d.items() if v is not None}

    def csv_row(self) -> str:
        def fmt(v):
            return "" if v is None else f"{v:.12g}"
        return ",".join([str(self.N), f"{self.s:g}", fmt(self.exact), fmt(self.lower),
                         fmt(self.upper), fmt(self.asymptote), fmt(self.residual),
                         fmt(self.cubature)])

    # cubature comes last so the earlier columns keep their positions
    CSV_HEADER = "N,s,exact,lower,upper,asymptote,residual,cubature"


def build_report(K: CompactSet, params: EnsembleParams,
                 log_delta: Optional[float] = None,
                 with_cubature: bool = False) -> PartitionReport:
    """Assemble every partition quantity available for the given setting: the
    exact value at beta = 2 on every disk, the bounds from
    log_delta = fekete.max_log_delta(K, N) (exact on a disk)."""
    N, s, beta = params.N, params.s, params.beta
    rep = PartitionReport(N=N, s=s, beta=beta)
    rep.asymptote = -N * (N + 1) * robin_energy(K) + theta(params.ell()) * N
    if isinstance(K, Disk) and beta == 2.0:
        # z = c + R w scales dA by R^2 per particle and |z_i - z_j|^2 by R^2 per pair
        rep.exact = log_partition_disk_exact(N, s) + N * (N + 1) * math.log(K.radius)
        rep.residual = rep.exact - rep.asymptote
    if log_delta is not None:
        rep = replace(rep, **asdict(partition_bounds(K, params, log_delta)))
    if with_cubature and N <= 3:
        z = partition_cubature(K, params)  # 0.0 on a zero-area set with a hard wall
        rep.cubature = -math.inf if z == 0.0 else math.log(z)
    return rep
