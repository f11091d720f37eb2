"""Planar measures, logarithmic energies, mollification and the
bounded-Lipschitz metric.

Each measure class carries its own energy, Green average and support
test; the module functions continuous_energy and weighted_energy only
combine them.
The smoothed measure of an atomic base is an exact mixture of uniform disk
blocks, so pair energies reduce to the closed uniform-disk potential plus,
for overlapping blocks, one radial lens integral.

scipy loads at first use only: the BL assignment and transport LP import
scipy.optimize and scipy.sparse, the lens integral scipy.special (xlogy);
everything else here runs on numpy alone.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Union

import numpy as np
from numpy.polynomial.legendre import leggauss

from .potential import (Disk, _log_distances, _log_sum, _midpoint_angles, _pair_distances,
                        _pair_index, _pair_log_sum, contains, equilibrium_integral)

_PROB_TOL = 1e-12


def save_points(path, z) -> None:
    """Write planar points as a CSV with header `re,im`, one point a row."""
    z = np.asarray(z, dtype=complex).ravel()
    np.savetxt(path, np.column_stack([z.real, z.imag]), delimiter=",", header="re,im",
               comments="")


def load_points(path) -> np.ndarray:
    """Read the (N,) complex points that save_points wrote."""
    arr = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return arr[:, 0] + 1j * arr[:, 1]


class AtomicMeasure:
    """Weighted point measure sum_i w_i * delta(x_i), weights positive."""

    def __init__(self, points, weights=None):
        self.points = np.asarray(points, dtype=complex).ravel()
        if weights is None:
            n = self.points.size
            self.weights = np.full(n, 1.0 / n)
        else:
            self.weights = np.asarray(weights, dtype=float).ravel()
        if self.points.size != self.weights.size:
            raise ValueError("points and weights must have equal length")
        if self.points.size == 0:
            raise ValueError("empty measure")
        if np.any(self.weights <= 0):
            raise ValueError("weights must be positive")

    def mass(self) -> float:
        return float(self.weights.sum())

    @property
    def is_probability(self) -> bool:
        return abs(self.mass() - 1.0) <= _PROB_TOL

    def __len__(self) -> int:
        return self.points.size

    def energy(self) -> float:
        """Off-diagonal energy -sum_{i != j} w_i w_j log|x_i - x_j|: +inf on
        coincident atoms, discrete_energy for equal weights 1/n."""
        pts, w = self.points, self.weights
        if pts.size < 2:
            raise ValueError("need at least two points")
        iu, ju = _pair_index(pts.size)
        return -2.0 * float((w[iu] * w[ju]) @ _log_distances(_pair_distances(pts)))

    def green_average(self, K) -> float:
        return float(np.dot(np.atleast_1d(K.green(self.points)), self.weights))

    def support_meets_complement(self, K) -> bool:
        return not contains(K, self.points)

    def merged(self) -> "AtomicMeasure":
        """Combine exactly coincident atoms."""
        pts, inv = np.unique(self.points, return_inverse=True)
        w = np.zeros(pts.size)
        np.add.at(w, inv, self.weights)
        return AtomicMeasure(pts, w)

    def __repr__(self):
        return f"AtomicMeasure(n={len(self)}, mass={self.mass():.6f})"


class SmoothedMeasure:
    """Mollification of an atomic measure by uniform epsilon-disk blocks.

    The density is (pi eps^2)^{-1} sum_i w_i 1{|x_i - z| < eps}.
    """

    def __init__(self, base: AtomicMeasure, epsilon: float):
        if not 0 < epsilon < math.inf:
            raise ValueError(f"epsilon must be finite and positive, got {epsilon}")
        self.base = base
        self.epsilon = float(epsilon)

    def mass(self) -> float:
        return self.base.mass()

    @property
    def is_probability(self) -> bool:
        return self.base.is_probability

    def energy(self) -> float:
        """Self energy 1/4 - log eps of each block plus the block pair
        energies of _disk_pair_energy."""
        pts, w, eps = self.base.points, self.base.weights, self.epsilon
        iu, ju = _pair_index(pts.size)
        cross = np.sum(w[iu] * w[ju] * _disk_pair_energy(_pair_distances(pts), eps))
        return float(np.sum(w * w) * (0.25 - math.log(eps)) + 2.0 * cross)

    def green_average(self, K) -> float:
        return float(self.base.weights @ _disk_green_averages(K, self.base.points, self.epsilon))

    def support_meets_complement(self, K) -> bool:
        # green is subharmonic, so a block meets the complement where its
        # rim does
        return not contains(K, _ring(self.base.points[:, None], self.epsilon, 1024))

    def bounding_box(self):
        x, y = self.base.points.real, self.base.points.imag
        e = self.epsilon
        return (x.min() - e, x.max() + e, y.min() - e, y.max() + e)

    def to_atomic(self, nodes_per_block: int = 32) -> AtomicMeasure:
        """Deterministic sunflower quantization of each disk block."""
        q = nodes_per_block
        if q < 1:
            raise ValueError(f"need nodes_per_block >= 1, got {q}")
        j = np.arange(q)
        golden = math.pi * (3.0 - math.sqrt(5.0))
        r = self.epsilon * np.sqrt((j + 0.5) / q)
        offsets = r * np.exp(1j * golden * j)
        pts = (self.base.points[:, None] + offsets[None, :]).ravel()
        w = np.repeat(self.base.weights / q, q)
        return AtomicMeasure(pts, w)

    def __repr__(self):
        return f"SmoothedMeasure(blocks={len(self.base)}, eps={self.epsilon})"


@dataclass(frozen=True)
class CircleMeasure:
    """Uniform probability measure on a circle: the equilibrium measure of
    Disk(center, radius), whose midpoint nodes it shares."""

    center: complex = 0.0 + 0.0j
    radius: float = 1.0

    def __post_init__(self):
        if not 0 < self.radius < math.inf:
            raise ValueError(f"radius must be finite and positive, got {self.radius}")

    def boundary_points(self, n: int):
        return _ring(self.center, self.radius, n)

    def mass(self) -> float:
        return 1.0

    def energy(self) -> float:
        # the potential is constant -log r on the circle
        return -math.log(self.radius)

    def green_average(self, K) -> float:
        return equilibrium_integral(Disk(self.center, self.radius), K.green, tol=1e-12)

    def support_meets_complement(self, K) -> bool:
        return not contains(K, self.boundary_points(4096))


class DiskUniformMeasure(SmoothedMeasure):
    """Uniform probability measure on a filled disk: one smoothing block of
    the given radius, so its energy is 1/4 - log radius."""

    def __init__(self, center: complex = 0.0 + 0.0j, radius: float = 1.0):
        if not radius > 0:
            raise ValueError("radius must be positive")
        super().__init__(AtomicMeasure([center], [1.0]), radius)

    @property
    def center(self) -> complex:
        return complex(self.base.points[0])

    @property
    def radius(self) -> float:
        return self.epsilon

    def __repr__(self):
        return f"DiskUniformMeasure(center={self.center!r}, radius={self.radius!r})"


Measure = Union[AtomicMeasure, SmoothedMeasure, CircleMeasure]


def equilibrium_discretization(K, n: int) -> AtomicMeasure:
    """n equal-weight atoms at midpoint angles of the boundary map of K."""
    if n < 1:
        raise ValueError(f"need n >= 1 atoms, got {n}")
    return AtomicMeasure(K.boundary_point(_midpoint_angles(n)), np.full(n, 1.0 / n))


def smooth(nu: AtomicMeasure, epsilon: float) -> SmoothedMeasure:
    """Mollify an atomic measure by the normalized epsilon-disk indicator."""
    return SmoothedMeasure(nu, epsilon)


def _ring(center, radius: float, n: int):
    """n points at the midpoint angles of the circle |z - center| = radius
    (one row per center when center is a column)."""
    return center + radius * np.exp(1j * _midpoint_angles(n))


def uniform_disk_potential(d, eps: float):
    """Logarithmic potential of the uniform unit-mass disk of radius eps
    at distance d from its center (exact closed form)."""
    d = np.asarray(d, dtype=float)
    outside = -_log_distances(np.maximum(d, eps))
    inside = -math.log(eps) + 0.5 * (1.0 - (d / eps) ** 2)
    out = np.where(d >= eps, outside, inside)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# energies
# ---------------------------------------------------------------------------

def discrete_energy(c) -> float:
    """Off-diagonal pairwise energy N^-2 sum_{n != m} log 1/|z_n - z_m| of
    array-like complex points.

    Coincident points yield +inf (the ensemble density vanishes there).
    """
    pts = np.asarray(c, dtype=complex)
    n = pts.size
    if n < 2:
        raise ValueError("need at least two points")
    return -2.0 * _pair_log_sum(pts) / n**2


_GAUSS_CACHE: dict = {}


def _gauss(n: int):
    if n not in _GAUSS_CACHE:
        _GAUSS_CACHE[n] = leggauss(n)
    return _GAUSS_CACHE[n]


def _disk_pair_energy(d, eps: float):
    """Mutual energy of two uniform eps-disks at center distance d, for a
    scalar or an array of distances.

    Exact -log d for disjoint blocks (d >= 2 eps).  Inside the second block
    its potential is -log rho + H(rho) at rho = |z - d|, with
    H(rho) = -log eps + (1 - rho^2/eps^2)/2 + log rho, so
      I(d) = U_eps(d) + (pi eps^2)^{-1} int_0^eps H(rho) rho Theta_d(rho) drho,
    where U_eps is uniform_disk_potential and
    Theta_d(rho) = 2 arccos((rho^2 + d^2 - eps^2) / (2 rho d)), clipped to
    [-1, 1], is the angle of the circle |z - d| = rho inside the first block.
    Below a = |eps - d| Theta is 2 pi (d < eps) or 0, which integrates to
    pi a^2 log(a/eps) - pi a^4/(4 eps^2) or 0.  On [a, eps] the substitution
    rho = a + (eps - a)(1 - cos u)/2 takes the square-root endpoints of
    Theta to smooth ones for 48 Gauss nodes in u on [0, pi].
    Temporaries scale with the overlapping pairs only.
    """
    d = np.asarray(d, dtype=float)
    flat = np.atleast_1d(d)
    out = -_log_distances(flat)
    near = flat < 2 * eps
    if near.any():
        from scipy.special import xlogy
        dn = flat[near]
        a = np.abs(eps - dn)
        inside = np.where(dn < eps, a, 0.0)
        closed = math.pi * (xlogy(inside**2, inside / eps) - inside**4 / (4 * eps**2))
        x, wq = _gauss(48)
        u = 0.5 * math.pi * (x + 1.0)
        rho = a[:, None] + (eps - a)[:, None] * (0.5 * (1.0 - np.cos(u)))
        h = -math.log(eps) + 0.5 * (1.0 - (rho / eps) ** 2) + _log_distances(rho)
        num = rho**2 + dn[:, None] ** 2 - eps**2
        den = 2.0 * rho * dn[:, None]
        # coincident blocks (d = 0) have an empty lens interval; Theta = 0
        t = np.divide(num, den, out=np.ones_like(num), where=den > 0)
        theta = 2.0 * np.arccos(np.clip(t, -1.0, 1.0))
        lens = (eps - a) * ((h * rho * theta) @ (0.25 * math.pi * wq * np.sin(u)))
        out[near] = uniform_disk_potential(dn, eps) + (closed + lens) / (math.pi * eps**2)
    return out.reshape(d.shape) if d.ndim else float(out[0])


def continuous_energy(mu: Measure) -> float:
    """Logarithmic energy of a measure with bounded density or boundary
    parametrization, as the measure's own energy(): closed forms for circle
    and disk uniform measures, block self and pair energies for smoothed
    ones.  Atomic measures have infinite energy and raise TypeError.
    """
    if isinstance(mu, AtomicMeasure):
        raise TypeError("atomic measures have infinite continuous energy; "
                        "use discrete_energy or smooth first")
    return mu.energy()


# points per green call of _disk_green_averages: larger calls run slower per
# point once their temporaries leave the cache
_GREEN_POINTS = 1 << 13
# _disk_green_averages' grid: angles on each ring, Gauss-Legendre radii per disk
_RING_ANGLES = 128
_RING_RADII = 24


def _disk_green_averages(K, centers, radius: float) -> np.ndarray:
    """Average of green over each disk |z - c| < radius, c in centers.

    One green call on every boundary ring, then calls of at most
    _GREEN_POINTS points on the disks whose ring leaves K; a disk whose ring
    lies in K averages zero (green is subharmonic, so its max over the disk
    sits on the ring)."""
    centers = np.atleast_1d(np.asarray(centers, dtype=complex))
    rings = np.atleast_1d(K.green(_ring(centers[:, None], radius, _RING_ANGLES).ravel()))
    off = rings.reshape(centers.size, _RING_ANGLES).max(axis=1) > 1e-15
    out = np.zeros(centers.size)
    x, w = _gauss(_RING_RADII)
    r = 0.5 * radius * (x + 1.0)
    todo = np.flatnonzero(off)
    step = max(1, _GREEN_POINTS // (_RING_RADII * _RING_ANGLES))
    for lo in range(0, todo.size, step):
        disks = todo[lo:lo + step]
        pts = _ring(centers[disks, None, None], r[:, None], _RING_ANGLES)
        g = np.atleast_1d(K.green(pts.ravel())).reshape(pts.shape)
        out[disks] = (g.mean(axis=2) * r) @ w / radius
    return out


def weighted_energy(mu: Measure, K, ell: float) -> float:
    """Energy functional I[mu] + (2/ell) * integral of green d(mu).

    For ell = 0 the value is +inf whenever the support of mu carries mass
    off K, and plain I[mu] otherwise.  Atomic measures contribute their
    weighted off-diagonal energy.
    """
    if not 0.0 <= ell <= 1.0:
        raise ValueError("ell must lie in [0, 1]")
    energy = mu.energy()
    if not math.isfinite(energy):
        return math.inf
    if ell == 0.0:
        return math.inf if mu.support_meets_complement(K) else energy
    return energy + (2.0 / ell) * mu.green_average(K)


# ---------------------------------------------------------------------------
# bounded-Lipschitz distance
# ---------------------------------------------------------------------------

def _bl_transport(x, wx, y, wy) -> float:
    """Transportation LP with truncated ground cost min(d, 2).

    For probability marginals the Kantorovich dual potentials are
    1-Lipschitz for min(d, 2) and have range at most 2, so after centering
    they are feasible for the bounded-Lipschitz supremum; the two optimal
    values coincide.
    """
    from scipy.optimize import linprog
    from scipy.sparse import csr_matrix
    n1, n2 = x.size, y.size
    cost = np.minimum(np.abs(x[:, None] - y[None, :]), 2.0).ravel()
    # plan entry (i, j) is variable i n2 + j: row i of A sums the range
    # [i n2, (i + 1) n2), row n1 + j the stride-n2 set j, n2 + j, ...
    v = np.arange(n1 * n2)
    indices = np.concatenate([v, v.reshape(n1, n2).T.ravel()])
    indptr = np.concatenate([np.arange(0, n1 * n2, n2), n1 * n2 + n1 * np.arange(n2 + 1)])
    A = csr_matrix((np.ones(2 * n1 * n2), indices, indptr), shape=(n1 + n2, n1 * n2))
    res = linprog(cost, A_eq=A, b_eq=np.concatenate([wx, wy]),
                  bounds=(0, None), method="highs")
    if not res.success:
        raise RuntimeError(f"transport LP failed: {res.message}")
    return float(res.fun)


def _bl_assignment_cost(x, y) -> np.ndarray:
    """The L x L cost min(|r_i - c_j|, 2) of the assignment form.

    The rows r are the atoms of the side with more atoms (y on a tie) and
    the columns c are the other side's atoms, each repeated L/n times in
    adjacent columns.  The repeats are taken by np.repeat on the columns of
    the n_rows x n_cols cost, so no repeated complex points are broadcast.
    """
    rows, cols = (x, y) if x.size > y.size else (y, x)
    cost = np.minimum(np.abs(rows[:, None] - cols[None, :]), 2.0)
    return np.repeat(cost, rows.size // cols.size, axis=1)


def _bl_assignment(x, y) -> float:
    """The same transport problem for uniform weights when one atom count
    divides the other.

    Repeating each atom of the smaller side gives L atoms a side, and the
    uniform transport plans become the L x L doubly stochastic matrices
    scaled by 1/L.  Their extreme points are permutations
    (Birkhoff-von Neumann), so one assignment problem is exact.

    The repeated atoms index the columns.  scipy's solver (shortest
    augmenting paths, Crouse 2016) augments one row at a time; with the
    repeats on the rows, runs of identical rows made it 4-7 times slower
    on strip discretizations at L = 1024 and 2048, for the same optimal
    value.
    """
    from scipy.optimize import linear_sum_assignment
    cost = _bl_assignment_cost(x, y)
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].sum() / cost.shape[0])


def _bl_solve(mu: AtomicMeasure, nu: AtomicMeasure) -> tuple[float, dict]:
    """bl_distance together with a record of its solve: the `path`
    ("assignment" with its `rows` and `cols`, or "transport" with its
    `lp_vars`), the solver `status` and the solve `seconds`, which leave out
    the one-time import of scipy.

    The status is always "optimal": both solvers raise rather than return
    a value that is not optimal.
    """
    for m in (mu, nu):
        if not m.is_probability:
            raise ValueError("bl_distance requires probability measures")
    mu, nu = mu.merged(), nu.merged()
    n1, n2 = len(mu), len(nu)
    uniform = all(np.all(m.weights == m.weights[0]) for m in (mu, nu))
    # a process's first solve imports the solvers (scipy.sparse with them)
    # before the clock starts, so `seconds` is the solve alone
    import scipy.optimize  # noqa: F401
    t0 = time.perf_counter()
    if uniform and max(n1, n2) % min(n1, n2) == 0:
        value = _bl_assignment(mu.points, nu.points)
        record = {"path": "assignment", "rows": max(n1, n2), "cols": max(n1, n2)}
    else:
        value = max(0.0, _bl_transport(mu.points, mu.weights, nu.points, nu.weights))
        record = {"path": "transport", "lp_vars": n1 * n2}
    record.update(status="optimal", seconds=time.perf_counter() - t0)
    return value, record


def bl_distance(mu: AtomicMeasure, nu: AtomicMeasure) -> float:
    """Exact bounded-Lipschitz distance between atomic probability measures.

    sup of int f d(mu - nu) over |f| <= 1, Lip(f) <= 1, which equals
    optimal transport with ground cost min(d, 2).  After coincident atoms
    are merged, uniform weights with one atom count dividing the other are
    solved as an assignment problem; any other weights by the
    transportation LP.
    """
    return _bl_solve(mu, nu)[0]


# ---------------------------------------------------------------------------
# constructive discretization of a smoothed measure
# ---------------------------------------------------------------------------

# iteration cap of the strip inversion, that of the bisection it replaced
# (60 halvings take any bracket to rounding); DiscretizeResult counts the
# strips that reach it
_INVERT_CAP = 60
_MACHINE_EPS = np.finfo(float).eps


class _StripCDF:
    """Vertical mass profile of a smoothed measure inside one strip.

    In coordinates centred on block i, the block's mass below height y is
    proportional to the area of its eps-disk between the strip edges
    a = x_l - x_i, b = x_r - x_i and below t = y - y_i.  That area is
    Phi(b, t) - Phi(a, t), where Phi(c, t) integrates clip(c, -h(s), h(s))
    over -eps < s < t and h(s) = sqrt(eps^2 - s^2).  Phi is a sum of
    circular-segment areas, so the CDF is closed-form and vectorized over
    blocks.  The half chord is evaluated as sqrt((eps - s)(eps + s)) and the
    segment angle as atan2(s, h(s)), so the CDF stays accurate to rounding
    up to the top and bottom of every block, where its derivative vanishes.

    `invert` solves cdf(y) = target by safeguarded Newton steps with the
    exact derivative `width_density`.
    """

    def __init__(self, mu: SmoothedMeasure, x_left: float, x_right: float):
        eps = mu.epsilon
        px, py, w = mu.base.points.real, mu.base.points.imag, mu.base.weights
        # horizontal distance from each block center to the strip interval;
        # a block only contributes when its chord actually enters the strip
        dx = np.maximum(np.maximum(x_left - px, px - x_right), 0.0)
        keep = dx < eps
        self.x, self.y, self.w = px[keep], py[keep], w[keep]
        self.eps = eps
        self.xl, self.xr = x_left, x_right
        if keep.any():
            # greatest ordinate with zero strip mass below it: the lowest
            # point of any chord that enters the strip
            self.support_bottom = float(np.min(self.y - self._half_chord(dx[keep])))
            self.top = float(np.max(self.y)) + eps
            self.mass = float(self.cdf(self.top))
        else:
            self.support_bottom = self.top = math.nan
            self.mass = 0.0

    def _half_chord(self, s):
        """h(s) = sqrt(eps^2 - s^2), and 0 for |s| >= eps."""
        return np.sqrt(np.maximum((self.eps - s) * (self.eps + s), 0.0))

    def _phi(self, c, t):
        eps = self.eps

        def segment(s):  # integral of h from 0 to s: signed half-disk slice area
            h = self._half_chord(s)
            return 0.5 * (s * h + eps**2 * np.arctan2(s, h))

        s0 = self._half_chord(c)  # where h(s) = |c|
        u = np.clip(t, -s0, s0)
        caps = segment(t) + 0.25 * math.pi * eps**2 - segment(u) - segment(s0)
        return np.sign(c) * caps + c * (u + s0)

    def cdf(self, y):
        """Strip mass below each ordinate of y."""
        t = np.clip(np.asarray(y, dtype=float)[..., None] - self.y, -self.eps, self.eps)
        area = self._phi(self.xr - self.x, t) - self._phi(self.xl - self.x, t)
        return area @ self.w / (math.pi * self.eps**2)

    def width_density(self, y):
        """Derivative of the CDF: the strip-clipped chord lengths."""
        h = self._half_chord(np.asarray(y, dtype=float)[..., None] - self.y)
        seg = np.clip(self.xr - self.x, -h, h) - np.clip(self.xl - self.x, -h, h)
        return seg @ self.w / (math.pi * self.eps**2)

    def invert(self, targets: np.ndarray) -> tuple[np.ndarray, int]:
        """Least ordinates whose mass below reaches each target, and the
        number of iterations taken.

        Safeguarded Newton, vectorized over the targets.  Each target keeps
        an inclusive bracket, starting at [support_bottom, top], with
        cdf < target at its lower end and cdf >= target at its upper end.
        A step that leaves the bracket, or is taken where the density is 0,
        falls back to the bracket's midpoint, so a target met on a
        zero-density plateau is pushed down to the plateau's lower end.  A
        target stops at rounding level: where the density is positive and
        the CDF reaches it by at most 4 machine epsilons of the target, or
        when its next step is within 2 ulp of the ordinate.  A test on the
        step alone would not do: where the density is small, rounding in the
        CDF moves the Newton point by many ulp.  Targets above the strip mass
        get `top` without iterating, and the iteration stops at _INVERT_CAP.
        """
        targets = np.asarray(targets, dtype=float)
        out = np.full(targets.shape, self.top)
        live = np.flatnonzero(targets <= self.mass)
        t = targets[live]
        lo = np.full(t.shape, self.support_bottom)
        hi = np.full(t.shape, self.top)
        y = lo + (hi - lo) * (t / self.mass)
        iterations = 0
        while live.size and iterations < _INVERT_CAP:
            iterations += 1
            c, d = self.cdf(y), self.width_density(y)
            below = c < t
            lo, hi = np.where(below, y, lo), np.where(below, hi, y)
            slope = d > 0
            y_next = y - (c - t) / np.where(slope, d, 1.0)
            newton = slope & (lo <= y_next) & (y_next <= hi)
            y_next = np.where(newton, y_next, 0.5 * (lo + hi))
            done = ((slope & (0 <= c - t) & (c - t <= 4 * _MACHINE_EPS * t))
                    | (np.abs(y_next - y) <= 2 * np.spacing(np.abs(y))))
            out[live[done]] = y[done]
            left = ~done
            live, t, lo, hi, y = live[left], t[left], lo[left], hi[left], y_next[left]
        out[live] = y
        return out, iterations


@dataclass
class DiscretizeResult:
    """Strip construction output with its separation and energy diagnostics."""

    configuration: np.ndarray  # (N,) complex points
    min_separation: float
    separation_constant: float  # min separation * sqrt(N)
    discrete_energy: float
    points_generated: int
    points_discarded: int
    strips: int
    strip_iterations: list[int]  # Newton iterations of each strip's inversion

    def inversion_record(self) -> dict:
        """Strip count, maximum and total inversion iterations, and the
        number of strips that reached the iteration cap."""
        its = self.strip_iterations
        return {"strips": self.strips, "max_iterations": max(its),
                "total_iterations": sum(its),
                "capped_strips": sum(i >= _INVERT_CAP for i in its)}


def discretize(nu_eps: SmoothedMeasure, N: int) -> DiscretizeResult:
    """Place N points on rectangle corners of exact mass 1/N inside
    ceil(sqrt(N)) vertical strips covering the support of nu_eps.

    Guarantees pairwise separation of order 1/sqrt(N) while the empirical
    measure tracks nu_eps; at most ceil(sqrt(N)) trailing points are
    discarded.
    """
    if N < 4:
        raise ValueError("need N >= 4")
    if not nu_eps.is_probability:
        raise ValueError("discretize requires a probability measure")
    M = math.ceil(math.sqrt(N))
    x_lo, x_hi, _, _ = nu_eps.bounding_box()
    width = (x_hi - x_lo) / M
    pts = []
    iterations = []
    for j in range(M):
        xl = x_lo + j * width
        strip = _StripCDF(nu_eps, xl, xl + width)
        if strip.mass <= 1e-14:
            continue
        mj = int(math.floor(strip.mass * N + 1e-9))
        ys, its = strip.invert(np.arange(1, mj + 1) / N)
        iterations.append(its)
        pts.append(xl + 1j * np.concatenate([[strip.support_bottom], ys]))
    pts = np.concatenate(pts)
    total = pts.size
    if total < N:
        raise ValueError(f"strip construction produced {total} points, fewer than N = {N}")
    config = pts[:N]
    d = _pair_distances(config)
    sep = float(np.min(d))
    return DiscretizeResult(
        configuration=config,
        min_separation=sep,
        separation_constant=sep * math.sqrt(N),
        discrete_energy=-2.0 * _log_sum(d) / N**2,  # discrete_energy(config), from d
        points_generated=total,
        points_discarded=total - N,
        strips=len(iterations),
        strip_iterations=iterations,
    )


class PerturbationBall:
    """Product of disks of radius c'/(3 sqrt N) around a configuration."""

    def __init__(self, center, separation_constant: float):
        self.center = np.asarray(center, dtype=complex).ravel()
        n = self.center.size
        self.radius = separation_constant / (3.0 * math.sqrt(n))
        self._center_energy = discrete_energy(self.center)

    def sample(self, seed=None) -> np.ndarray:
        rng = np.random.default_rng(seed)
        n = self.center.size
        r = self.radius * np.sqrt(rng.random(n))
        phi = rng.uniform(0, 2 * math.pi, n)
        return self.center + r * np.exp(1j * phi)

    def energy_deviation(self, c) -> float:
        return abs(discrete_energy(c) - self._center_energy)


def perturbation_ball(c, separation_constant: float) -> PerturbationBall:
    """Box descriptor of admissible perturbations of a discretized
    configuration (array-like complex points), with a uniform sampler."""
    return PerturbationBall(c, separation_constant)
