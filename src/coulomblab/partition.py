"""Partition-function machinery: exact beta = 2 disk values through
orthonormal-monomial norms, the theta(ell) asymptote, Fekete/Jensen
sandwich bounds, and small-N cubature oracles.

The cubature oracles never touch the orthogonal-polynomial identity:
the disk route reduces Eq-level integrals by rotational symmetry and the
non-disk route integrates in exterior-map coordinates, so exact values
and cubature stay independent checks of each other.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .fekete import FeketeResult
from .measures import (SmoothedMeasure, _gauss, _green_average, continuous_energy,
                       equilibrium_discretization, smooth)
from .potential import CompactSet, Disk, Ellipse, ExteriorMap, Segment, robin_energy
from .sampler import EnsembleParams


def kappa_disk(n: int, s: float) -> float:
    """Leading coefficient of the n-th orthonormal monomial on the unit
    disk for the weight exp(-2 s green).

    The norm integral splits at |z| = 1 into pi/(n+1) + pi/(s-n-1), so
    kappa = sqrt((n+1)(s-n-1)/(pi s)); the s = inf branch is
    sqrt((n+1)/pi).  Requires s > n+1.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if s == math.inf:
        return math.sqrt((n + 1) / math.pi)
    if not s > n + 1:
        raise ValueError(f"norm diverges: need s > n+1, got s={s}, n={n}")
    return math.sqrt((n + 1) * (s - n - 1) / (math.pi * s))


def log_partition_disk_exact(N: int, s: float) -> float:
    """Exact beta = 2 partition value on the unit disk:
    log N! - 2 sum_{n<N} log kappa(n, s).  Requires s > N (or s = inf)."""
    if N < 1:
        raise ValueError("N must be positive")
    if s != math.inf and not s > N:
        raise ValueError(f"need s > N, got s={s}, N={N}")
    log_fact = sum(math.log(k) for k in range(1, N + 1))
    return log_fact - 2.0 * sum(math.log(kappa_disk(n, s)) for n in range(N))


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


def bridge_residual(N: int, s: float) -> float:
    """Residual of the finite-s reduction
    log Z(N,s) - [log Z(N,inf) - sum_{k<N} log(s-k) + N log s];
    equals -log(1 - N/s) exactly, an O(1) quantity at fixed ratio."""
    if s == math.inf or not s > N:
        raise ValueError("bridge residual needs finite s > N")
    rhs = (log_partition_disk_exact(N, math.inf)
           - sum(math.log(s - k) for k in range(N)) + N * math.log(s))
    return log_partition_disk_exact(N, s) - rhs


# ---------------------------------------------------------------------------
# sandwich bounds
# ---------------------------------------------------------------------------

def _log_density_self_average(nu: SmoothedMeasure, cell: Optional[float] = None) -> float:
    """Integral of log(density) against the smoothed measure itself.

    The density is piecewise constant on disk-overlap regions; a midpoint
    grid of the bounding box (cell eps/40 unless given) resolves it to the
    needed few digits.  Each grid row only measures distances to the atoms
    within eps of it in the imaginary part, and only over the columns those
    atoms can reach; every other cell has density zero and adds nothing.
    The kept atoms stay in their original order, so each cell and each row
    sums the same nonzero terms in the same order as the full grid would.
    """
    eps = nu.epsilon
    h = cell if cell is not None else eps / 40.0
    x0, x1, y0, y1 = nu.bounding_box()
    xs = np.arange(x0 + h / 2, x1, h)
    ys = np.arange(y0 + h / 2, y1, h)
    pts = nu.base.points
    w = nu.base.weights
    # a hair wider than eps, so rounding in d2 never drops a reaching atom
    reach = eps * (1.0 + 1e-9)
    by_im = np.argsort(pts.imag, kind="stable")
    im = pts.imag[by_im]
    lo = np.searchsorted(im, ys - reach, side="left")
    hi = np.searchsorted(im, ys + reach, side="right")
    total = 0.0
    norm = math.pi * eps * eps
    for yc, i0, i1 in zip(ys, lo, hi):
        if i0 == i1:
            continue
        band = np.sort(by_im[i0:i1])
        p = pts[band]
        c0 = np.searchsorted(xs, p.real.min() - reach, side="left")
        c1 = np.searchsorted(xs, p.real.max() + reach, side="right")
        centers = xs[c0:c1] + 1j * yc
        d2 = np.abs(centers[:, None] - p[None, :]) ** 2
        a = (d2 < eps * eps) @ w[band] / norm
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

    def __iter__(self):
        return iter((self.lower, self.upper))


@functools.lru_cache(maxsize=16)
def _smoothed_terms(K: CompactSet, m: int, eps: float, atoms: int) -> tuple:
    """Energy, log-density self-average and green average of the smoothed
    equilibrium measure of K's inner set at margin 1/m: the terms of the
    lower bound that do not depend on the ensemble (N, s, beta)."""
    try:
        inner = K.inner_set(1.0 / m)
    except (NotImplementedError, ValueError):
        inner = K
    nu = smooth(equilibrium_discretization(inner, atoms), eps)
    return continuous_energy(nu), _log_density_self_average(nu), _green_average(nu, K)


def partition_bounds(K: CompactSet, params: EnsembleParams, fekete_result: FeketeResult,
                     m: int = 8, eps: float = 0.05, atoms: int = 128) -> PartitionBounds:
    """Sandwich for log Z: extremal-configuration upper bound and Jensen
    lower bound.

    upper = beta * log_delta + N log int exp(-(s+1-N) beta green) dA.
    lower uses the smoothed equilibrium measure of the inner set at margin
    1/m with mollification radius eps; the field term -beta s N int green
    vanishes when its support stays in K (always for filled sets, never
    for a segment).
    """
    N, s, beta = params.N, params.s, params.beta
    exponent = (s + 1 - N) * beta if s != math.inf else math.inf
    fi = K.field_integral(exponent)
    log_fi = math.log(fi) if fi > 0 else -math.inf
    upper = beta * fekete_result.log_delta + N * log_fi

    if eps >= 1.0 / (2 * m):
        warnings.warn(f"mollification eps={eps} is not below 1/(2m)={1/(2*m)}; "
                      "the support may spill far outside the inner set")
    energy, loga, gavg = _smoothed_terms(K, m, eps, atoms)
    if s == math.inf:
        field_term = 0.0 if gavg <= 1e-13 else math.inf
    else:
        field_term = beta * s * N * gavg
    lower = -beta * N * (N - 1) / 2.0 * energy - N * loga - field_term
    return PartitionBounds(lower, upper, energy, loga, gavg, log_fi)


# ---------------------------------------------------------------------------
# small-N cubature
# ---------------------------------------------------------------------------

def _graded_panels(lo: float, hi: float, grading=(0.0, 0.05, 0.25, 1.0)):
    return [(lo + (hi - lo) * a, lo + (hi - lo) * b) for a, b in zip(grading[:-1], grading[1:])]


def _disk_radial_nodes(K: Disk, params: EnsembleParams, order: int):
    """Nodes r_i and weights u_i with int h(r) w(r)^{beta s} r dr ~ sum u h(r)."""
    R = K.radius
    beta_s = params.beta * params.s
    x, wq = _gauss(order)
    nodes, weights = [], []
    # interior [0, R]
    r = 0.5 * R * (x + 1.0)
    nodes.append(r)
    weights.append(0.5 * R * wq * r)
    if params.s != math.inf:
        # exterior via r = R/t, t in (0, 1]: R^2 t^{beta s - 3} dt
        for a, b in _graded_panels(0.0, 1.0):
            t = 0.5 * (b - a) * x + 0.5 * (a + b)
            nodes.append(R / t)
            weights.append(0.5 * (b - a) * wq * R * R * t ** (beta_s - 3.0))
    return np.concatenate(nodes), np.concatenate(weights)


def _pair_angular_factor(r, beta: float, n_theta: int):
    """int_0^{2pi} |r_i - r_j e^{i theta}|^beta d theta on a midpoint grid
    (exact for even integer beta once n_theta exceeds the trig degree)."""
    th = (np.arange(n_theta) + 0.5) * (2 * math.pi / n_theta)
    d2 = (r[:, None, None] ** 2 + r[None, :, None] ** 2
          - 2.0 * np.outer(r, r)[:, :, None] * np.cos(th)[None, None, :])
    return np.mean(d2 ** (beta / 2.0), axis=-1) * 2 * math.pi


def _cubature_disk(K: Disk, params: EnsembleParams, order: int, n_theta: int) -> float:
    center_free = Disk(0.0, K.radius)  # translation invariance
    N, beta = params.N, params.beta
    r, u = _disk_radial_nodes(center_free, params, order)
    if N == 1:
        return 2 * math.pi * float(np.sum(u))
    if N == 2:
        T = _pair_angular_factor(r, beta, n_theta)
        return 2 * math.pi * float(u @ T @ u)
    # N == 3: z1 sits on the positive axis, particles 2 and 3 carry the
    # two relative angles; their shared node vector is v with weights
    # already folded into per-z1 coefficient rows of A.
    th = (np.arange(n_theta) + 0.5) * (2 * math.pi / n_theta)
    dtheta = 2 * math.pi / n_theta
    v = np.outer(r, np.exp(1j * th)).ravel()        # (nv,) particle-2/3 nodes
    uv = np.repeat(u, n_theta) * dtheta             # node weights incl. angle
    A = (np.abs(r[:, None] - v[None, :]) ** beta) * uv[None, :]  # (nr, nv)
    total = 0.0
    chunk = 512
    for lo in range(0, v.size, chunk):
        D = np.abs(v[lo:lo + chunk, None] - v[None, :]) ** beta  # (c, nv)
        X = D @ A.T                                              # (c, nr)
        total += float(np.einsum("ir,ri,i->", A[:, lo:lo + chunk], X, u))
    return 2 * math.pi * total


def _exterior_nodes(K: CompactSet, params: EnsembleParams, order: int, n_phi: int):
    """Quadrature nodes for the exterior of K in map coordinates, with the
    field weight |w|^{-beta s} |psi'(w)|^2 folded into the node weights."""
    beta_s = params.beta * params.s
    if params.s == math.inf:
        return np.array([], dtype=complex), np.array([])
    x, wq = _gauss(order)
    phi = (np.arange(n_phi) + 0.5) * (2 * math.pi / n_phi)
    dphi = 2 * math.pi / n_phi
    zs, ws = [], []
    for a, b in _graded_panels(0.0, 1.0):
        t = 0.5 * (b - a) * x + 0.5 * (a + b)
        wt = 0.5 * (b - a) * wq * t ** (beta_s - 3.0)
        w_grid = (1.0 / t)[:, None] * np.exp(1j * phi)[None, :]
        if isinstance(K, Disk):
            z = K.center + K.radius * w_grid
            dpsi2 = K.radius**2 * np.ones_like(w_grid, dtype=float)
        elif isinstance(K, Segment):
            cap = K.capacity()
            z = K._mid + cap * (w_grid + 1.0 / w_grid)
            dpsi2 = np.abs(cap * (1.0 - w_grid**-2)) ** 2
        elif isinstance(K, Ellipse):
            cap, q = K.capacity(), K._q
            z = K.center + cap * w_grid + q / w_grid
            dpsi2 = np.abs(cap - q * w_grid**-2) ** 2
        elif isinstance(K, ExteriorMap):
            z = K.map(w_grid)
            dpsi2 = np.abs(K.map_derivative(w_grid)) ** 2
        else:
            raise TypeError(f"unsupported set {type(K).__name__}")
        zs.append(z.ravel())
        ws.append((wt[:, None] * dpsi2 * dphi).ravel())
    return np.concatenate(zs), np.concatenate(ws)


def _interior_nodes(K: CompactSet, order: int, n_phi: int):
    """Area nodes of a filled set where the field weight is one."""
    if isinstance(K, Segment):
        return np.array([], dtype=complex), np.array([])
    x, wq = _gauss(order)
    u = 0.5 * (x + 1.0)
    wu = 0.5 * wq
    phi = (np.arange(n_phi) + 0.5) * (2 * math.pi / n_phi)
    dphi = 2 * math.pi / n_phi
    if isinstance(K, Disk):
        z = K.center + K.radius * u[:, None] * np.exp(1j * phi)[None, :]
        jac = K.radius**2 * u
    elif isinstance(K, Ellipse):
        a, b = K.semi_major, K.semi_minor
        z = K.center + u[:, None] * (a * np.cos(phi) + 1j * b * np.sin(phi))[None, :]
        jac = a * b * u
    else:
        raise NotImplementedError(
            f"interior cubature nodes unavailable for {type(K).__name__}")
    wts = (wu * jac)[:, None] * dphi * np.ones_like(phi)[None, :]
    return z.ravel(), wts.ravel()


def partition_cubature(K: CompactSet, params: EnsembleParams, order: int = 24,
                       n_theta: int = 64, return_error: bool = False):
    """Numerical value of the 2N-dimensional partition integral, N <= 3.

    The disk uses the exact rotational reduction (one radial variable per
    particle, N-1 relative angles); other sets integrate over exterior-map
    coordinates plus interior area nodes.  The reported error is the
    change under refinement of all quadrature resolutions.
    """
    N = params.N
    if N > 3:
        raise ValueError("cubature supports N <= 3 only")
    if N == 3:
        order, n_theta = min(order, 14), min(n_theta, 28)

    def value(order_, n_theta_):
        if isinstance(K, Disk):
            return _cubature_disk(K, params, order_, n_theta_)
        if N == 3:
            raise NotImplementedError("N = 3 cubature is available for disks only")
        if isinstance(K, ExteriorMap) and N >= 2:
            raise NotImplementedError(
                "pair cubature for exterior-map sets has no interior parametrization")
        ze, we = _exterior_nodes(K, params, order_, n_theta_)
        if N == 1:
            # the field weight is one on K, so the interior part is the area
            return K.area() + float(np.sum(we))
        zi, wi = _interior_nodes(K, order_, n_theta_) if not isinstance(K, Segment) \
            else (np.array([], dtype=complex), np.array([]))
        z = np.concatenate([zi, ze])
        w = np.concatenate([wi, we])
        beta = params.beta
        total = 0.0
        chunk = 2048
        for i in range(0, z.size, chunk):
            d = np.abs(z[i:i + chunk, None] - z[None, :]) ** beta
            total += float(w[i:i + chunk] @ d @ w)
        return total

    coarse = value(order, n_theta)
    fine = value(int(order * 1.5), int(n_theta * 1.5))
    err = abs(fine - coarse)
    return (fine, err) if return_error else fine


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

@dataclass
class PartitionReport:
    N: int
    s: float
    beta: float
    exact: Optional[float] = None       # log Z, beta = 2 disk only
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
        d = {"N": self.N, "s": "inf" if self.s == math.inf else self.s,
             "beta": self.beta}
        for k in ("exact", "lower", "upper", "cubature", "asymptote", "residual",
                  "nu_energy", "log_density_average", "green_average",
                  "field_log_integral"):
            v = getattr(self, k)
            if v is not None:
                d[k] = v
        return d

    def csv_row(self) -> str:
        def fmt(v):
            return "" if v is None else f"{v:.12g}"
        s = "inf" if self.s == math.inf else f"{self.s:g}"
        return ",".join([str(self.N), s, fmt(self.exact), fmt(self.lower),
                         fmt(self.upper), fmt(self.asymptote), fmt(self.residual)])

    CSV_HEADER = "N,s,exact,lower,upper,asymptote,residual"


def build_report(K: CompactSet, params: EnsembleParams,
                 fekete_result: Optional[FeketeResult] = None,
                 with_cubature: bool = False) -> PartitionReport:
    """Assemble every partition quantity available for the given setting."""
    N, s, beta = params.N, params.s, params.beta
    rep = PartitionReport(N=N, s=s, beta=beta)
    is_unit_disk = isinstance(K, Disk) and abs(K.radius - 1.0) < 1e-15
    if is_unit_disk and beta == 2.0:
        rep.exact = log_partition_disk_exact(N, s)
    rep.asymptote = -N * (N + 1) * robin_energy(K) + theta(params.ell()) * N
    if rep.exact is not None:
        rep.residual = rep.exact - rep.asymptote
    if fekete_result is not None:
        bounds = partition_bounds(K, params, fekete_result)
        rep.lower, rep.upper = bounds.lower, bounds.upper
        rep.nu_energy = bounds.nu_energy
        rep.log_density_average = bounds.log_density_average
        rep.green_average = bounds.green_average
        rep.field_log_integral = bounds.field_log_integral
    if with_cubature and N <= 3:
        rep.cubature = math.log(partition_cubature(K, params))
    return rep
