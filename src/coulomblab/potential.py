"""Closed-form potential theory on canonical regular compact sets.

Every set in this module carries an explicit exterior conformal map
psi : {|w| > 1} -> complement of K with psi(w) = cap*w + c0 + c1/w + ...,
which yields the Green function g(z) = log|psi^{-1}(z)|, the capacity
(the leading coefficient), and the equilibrium measure as the pushforward
of the uniform circle measure under the boundary correspondence.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

#: a point z is considered to lie in K when green(z) <= MEMBERSHIP_TOL
MEMBERSHIP_TOL = 1e-12

# float dust below this is snapped to an exact zero so that boundary points
# report green == 0.0
_GREEN_SNAP = 1e-15

# ExteriorMap inversion: the largest root w of w^m (psi(w) - z) gets
# _POLISH_STEPS Newton steps and must then satisfy
# |psi(w) - z| <= _NEWTON_TOL max(1, |z|)
_POLISH_STEPS = 2
_NEWTON_TOL = 1e-12


class QuadratureError(RuntimeError):
    """Raised when dyadic refinement fails to reach the requested tolerance."""


class InversionError(ArithmeticError):
    """Raised when ExteriorMap.green finds no accurate preimage of a point
    outside K."""


def _as_complex(z):
    return np.asarray(z, dtype=complex)


def _snap(g):
    g = np.where(g > _GREEN_SNAP, g, 0.0)
    return g if g.ndim else float(g)


@dataclass(frozen=True)
class Disk:
    """Closed disk; capacity equals the radius."""

    center: complex = 0.0 + 0.0j
    radius: float = 1.0

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError("disk radius must be positive")

    def capacity(self) -> float:
        return self.radius

    def green(self, z):
        # log(max(r, R) / R) is exactly 0 for r <= R
        r = np.abs(_as_complex(z) - self.center)
        return _snap(np.log(np.maximum(r, self.radius) / self.radius))

    def boundary_point(self, theta):
        return self.center + self.radius * np.exp(1j * np.asarray(theta, dtype=float))

    def boundary_velocity(self, theta):
        return 1j * self.radius * np.exp(1j * np.asarray(theta, dtype=float))

    def boundary_acceleration(self, theta):
        return -self.radius * np.exp(1j * np.asarray(theta, dtype=float))

    def area(self) -> float:
        return math.pi * self.radius**2

    def field_integral(self, p: float) -> float:
        """Integral of exp(-p*green) over the plane; finite for p > 2."""
        if p == math.inf:
            return self.area()
        if p <= 2:
            raise ValueError("field integral diverges for exponent <= 2")
        return math.pi * self.radius**2 * p / (p - 2)

    def inner_set(self, margin: float) -> "Disk":
        if margin >= self.radius:
            raise ValueError("margin exceeds radius")
        return Disk(self.center, self.radius - margin)

    def to_dict(self) -> dict:
        return {"type": "disk", "center": [self.center.real, self.center.imag],
                "radius": self.radius}


@dataclass(frozen=True)
class Segment:
    """Real segment [a, b]; capacity (b - a)/4, equilibrium law arcsine."""

    a: float = -1.0
    b: float = 1.0

    def __post_init__(self):
        if not self.a < self.b:
            raise ValueError("segment requires a < b")

    @property
    def _half(self) -> float:
        return 0.5 * (self.b - self.a)

    @property
    def _mid(self) -> float:
        return 0.5 * (self.a + self.b)

    def capacity(self) -> float:
        return 0.25 * (self.b - self.a)

    def green(self, z):
        # inverse Joukowski: w solves w^2 - 2*zeta*w + 1 = 0, |w| >= 1 branch
        zeta = (_as_complex(z) - self._mid) / self._half
        sq = np.sqrt(zeta * zeta - 1.0)
        w1, w2 = zeta + sq, zeta - sq
        w = np.where(np.abs(w1) >= np.abs(w2), w1, w2)
        return _snap(np.log(np.maximum(np.abs(w), 1.0)))

    def boundary_point(self, theta):
        return self._mid + self._half * np.cos(np.asarray(theta, dtype=float)) + 0j

    def boundary_velocity(self, theta):
        return -self._half * np.sin(np.asarray(theta, dtype=float)) + 0j

    def boundary_acceleration(self, theta):
        return -self._half * np.cos(np.asarray(theta, dtype=float)) + 0j

    def area(self) -> float:
        return 0.0

    def field_integral(self, p: float) -> float:
        if p == math.inf:
            return 0.0
        if p <= 2:
            raise ValueError("field integral diverges for exponent <= 2")
        cap = self.capacity()
        return 2 * math.pi * cap**2 * (1.0 / (p - 2) + 1.0 / (p + 2))

    def inner_set(self, margin: float) -> "Segment":
        if 2 * margin >= self.b - self.a:
            raise ValueError("margin exceeds half-length")
        return Segment(self.a + margin, self.b - margin)

    def to_dict(self) -> dict:
        return {"type": "segment", "a": self.a, "b": self.b}


@dataclass(frozen=True)
class Ellipse:
    """Closed filled ellipse with axis-aligned semi-axes; capacity (a + b)/2."""

    center: complex = 0.0 + 0.0j
    semi_major: float = 2.0
    semi_minor: float = 1.0

    def __post_init__(self):
        if not (self.semi_major >= self.semi_minor > 0):
            raise ValueError("require semi_major >= semi_minor > 0")

    def capacity(self) -> float:
        return 0.5 * (self.semi_major + self.semi_minor)

    @property
    def _q(self) -> float:
        # coefficient of 1/w in the exterior map
        return 0.5 * (self.semi_major - self.semi_minor)

    def green(self, z):
        # psi(w) = center + cap*w + q/w; invert the quadratic, |w| >= 1 branch
        cap, q = self.capacity(), self._q
        u = _as_complex(z) - self.center
        sq = np.sqrt(u * u - 4.0 * cap * q)
        w1, w2 = (u + sq) / (2 * cap), (u - sq) / (2 * cap)
        w = np.where(np.abs(w1) >= np.abs(w2), np.abs(w1), np.abs(w2))
        return _snap(np.log(np.maximum(w, 1.0)))

    def boundary_point(self, theta):
        t = np.asarray(theta, dtype=float)
        return self.center + self.semi_major * np.cos(t) + 1j * self.semi_minor * np.sin(t)

    def boundary_velocity(self, theta):
        t = np.asarray(theta, dtype=float)
        return -self.semi_major * np.sin(t) + 1j * self.semi_minor * np.cos(t)

    def boundary_acceleration(self, theta):
        t = np.asarray(theta, dtype=float)
        return -self.semi_major * np.cos(t) - 1j * self.semi_minor * np.sin(t)

    def area(self) -> float:
        return math.pi * self.semi_major * self.semi_minor

    def field_integral(self, p: float) -> float:
        if p == math.inf:
            return self.area()
        if p <= 2:
            raise ValueError("field integral diverges for exponent <= 2")
        cap = self.capacity()
        return self.area() + 2 * math.pi * (cap**2 / (p - 2) + self._q**2 / (p + 2))

    def inner_set(self, margin: float) -> "Ellipse":
        if margin >= self.semi_minor:
            raise ValueError("margin exceeds semi-minor axis")
        return Ellipse(self.center, self.semi_major - margin, self.semi_minor - margin)

    def to_dict(self) -> dict:
        return {"type": "ellipse", "center": [self.center.real, self.center.imag],
                "semi_major": self.semi_major, "semi_minor": self.semi_minor}


@dataclass(frozen=True)
class ExteriorMap:
    """Compact set given by a truncated univalent exterior Laurent map.

    psi(w) = cap*w + coeffs[0] + coeffs[1]/w + ... + coeffs[m]/w^m maps
    {|w| > 1} onto the complement of K; the coefficients are assumed to make
    psi univalent there.  The preimages of z are then the roots of the
    degree m + 1 polynomial w^m (psi(w) - z), and by the argument principle
    exactly one of them has |w| > 1 when z is outside K and none does when z
    is in K.  green(z) takes the largest root of each point's companion
    matrix, returns 0 where its modulus is at most 1, and otherwise polishes
    it by Newton steps to g = log|w|.  An outside point whose polished root
    misses |psi(w) - z| <= 1e-12 max(1, |z|) raises InversionError.
    """

    cap: float
    coeffs: tuple = ()

    def __post_init__(self):
        if not self.cap > 0:
            raise ValueError("capacity must be positive")
        object.__setattr__(self, "coeffs", tuple(complex(c) for c in self.coeffs))

    def capacity(self) -> float:
        return self.cap

    def map(self, w):
        w = _as_complex(w)
        out = self.cap * w
        if self.coeffs:
            u = 1.0 / w
            acc = np.zeros_like(w)
            for c in reversed(self.coeffs):
                acc = (acc + c) * u
            out = out + acc * w  # undo one power of u: sum c_k u^k
        return out

    def map_derivative(self, w):
        w = _as_complex(w)
        out = np.full_like(w, self.cap)
        u = 1.0 / w
        for k, c in enumerate(self.coeffs):
            if k >= 1:
                out = out - k * c * u ** (k + 1)
        return out

    def _preimage(self, z):
        """Flat indices of the points of z outside K and their preimages w,
        with |w| > 1 and psi(w) = z."""
        flat = _as_complex(z).ravel()
        m = len(self.coeffs) - 1
        c0 = self.coeffs[0] if self.coeffs else 0.0
        if m < 1:  # psi is linear
            w = (flat - c0) / self.cap
            idx = np.flatnonzero(np.abs(w) > 1.0)
            return idx, w[idx]
        # companion matrices of w^m (psi(w) - z) / cap
        #   = w^{m+1} + ((c0 - z)/cap) w^m + (c1/cap) w^{m-1} + ... + c_m/cap
        comp = np.zeros((flat.size, m + 1, m + 1), dtype=complex)
        comp[:, 0, 0] = (flat - c0) / self.cap
        comp[:, 0, 1:] = np.asarray(self.coeffs[1:]) / -self.cap
        comp[:, 1:, :-1] = np.eye(m)
        roots = np.linalg.eigvals(comp)
        w = roots[np.arange(flat.size), np.argmax(np.abs(roots), axis=1)]
        idx = np.flatnonzero(np.abs(w) > 1.0)
        w, target = w[idx], flat[idx]
        for _ in range(_POLISH_STEPS):
            # Newton on P(w) = w^m (psi(w) - z) by Horner, free of 1/w
            p, dp = np.full_like(w, self.cap), np.zeros_like(w)
            for c in (c0 - target,) + self.coeffs[1:]:
                dp = dp * w + p
                p = p * w + c
            w = w - p / dp
        miss = np.abs(self.map(w) - target) > _NEWTON_TOL * np.maximum(1.0, np.abs(target))
        if miss.any():
            raise InversionError(f"{int(miss.sum())} of {target.size} points outside K have no "
                                 f"preimage with |psi(w) - z| <= {_NEWTON_TOL:g} max(1, |z|)")
        return idx, w

    def green(self, z):
        z = _as_complex(z)
        idx, w = self._preimage(z)
        g = np.zeros(z.size)
        g[idx] = np.log(np.abs(w))
        return _snap(g.reshape(z.shape))

    def boundary_point(self, theta):
        return self.map(np.exp(1j * np.asarray(theta, dtype=float)))

    def boundary_velocity(self, theta):
        w = np.exp(1j * np.asarray(theta, dtype=float))
        return 1j * w * self.map_derivative(w)

    def map_second_derivative(self, w):
        w = _as_complex(w)
        out = np.zeros_like(w)
        u = 1.0 / w
        for k, c in enumerate(self.coeffs):
            if k >= 1:
                out = out + k * (k + 1) * c * u ** (k + 2)
        return out

    def boundary_acceleration(self, theta):
        w = np.exp(1j * np.asarray(theta, dtype=float))
        return -w * self.map_derivative(w) - w**2 * self.map_second_derivative(w)

    def area(self) -> float:
        a = math.pi * (self.cap**2 - sum(k * abs(c) ** 2 for k, c in enumerate(self.coeffs)))
        if a < -1e-12:
            raise ValueError("coefficients do not describe a univalent exterior map")
        return max(a, 0.0)

    def field_integral(self, p: float) -> float:
        if p == math.inf:
            return self.area()
        if p <= 2:
            raise ValueError("field integral diverges for exponent <= 2")
        tail = self.cap**2 / (p - 2)
        for k, c in enumerate(self.coeffs):
            if k >= 1:
                tail += k**2 * abs(c) ** 2 / (p + 2 * k)
        return self.area() + 2 * math.pi * tail

    def inner_set(self, margin: float):
        raise NotImplementedError("inner sets are only defined for disks, segments and ellipses")

    def to_dict(self) -> dict:
        return {"type": "exterior_map", "cap": self.cap,
                "coeffs": [[c.real, c.imag] for c in self.coeffs]}


CompactSet = Union[Disk, Segment, Ellipse, ExteriorMap]


def compact_set_from_dict(d: dict) -> CompactSet:
    """Inverse of the to_dict serialization used in config files."""
    kind = d.get("type")
    if kind == "disk":
        re, im = d["center"]
        return Disk(complex(re, im), float(d["radius"]))
    if kind == "segment":
        return Segment(float(d["a"]), float(d["b"]))
    if kind == "ellipse":
        re, im = d["center"]
        return Ellipse(complex(re, im), float(d["semi_major"]), float(d["semi_minor"]))
    if kind == "exterior_map":
        coeffs = [complex(re, im) for re, im in d["coeffs"]]
        return ExteriorMap(float(d["cap"]), tuple(coeffs))
    raise ValueError(f"unknown compact set type {kind!r}")


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------

def green(K: CompactSet, z):
    """Green function of the complement of K with pole at infinity.

    Zero on K, harmonic off K, and green(z) - log|z| -> -log(capacity)
    as |z| -> infinity.
    """
    return K.green(z)


def capacity(K: CompactSet) -> float:
    return K.capacity()


def robin_energy(K: CompactSet) -> float:
    """Minimal logarithmic energy over probability measures on K."""
    return -math.log(K.capacity())


def contains(K: CompactSet, z) -> bool:
    """Membership test green(z) <= MEMBERSHIP_TOL, applied pointwise."""
    return bool(np.all(np.asarray(K.green(z)) <= MEMBERSHIP_TOL))


def equilibrium_sample(K: CompactSet, n: int, seed=None):
    """Draw n independent points from the equilibrium measure of K.

    Uniform angles on the reference circle are pushed through the boundary
    correspondence of the exterior map (arcsine law for a segment).
    """
    from .measures import Configuration

    if n < 1:
        raise ValueError("need n >= 1")
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.0, 2.0 * math.pi, size=n)
    return Configuration(K.boundary_point(theta))


def equilibrium_integral(K: CompactSet, f: Callable, tol: float = 1e-10,
                         max_nodes: int = 2**18, return_error: bool = False):
    """Integrate f against the equilibrium measure of K.

    Periodic trapezoid quadrature in the uniformizing angle on a midpoint
    grid, with dyadic refinement until successive estimates differ by less
    than tol (or max_nodes is reached, which raises a warning).
    """
    n = 64
    prev = None
    err = math.inf
    while True:
        theta = (np.arange(n) + 0.5) * (2.0 * math.pi / n)
        vals = np.asarray(f(K.boundary_point(theta)))
        est = vals.mean()
        if prev is not None:
            err = abs(est - prev)
            if err < tol * max(1.0, abs(est)):
                break
        if n >= max_nodes:
            warnings.warn(f"equilibrium quadrature stalled at {n} nodes "
                          f"(last refinement change {err:.3e})")
            break
        prev = est
        n *= 2
    est = complex(est)
    if abs(est.imag) < 1e-13 * max(1.0, abs(est.real)):
        est = est.real
    return (est, err) if return_error else est


def log_potential(mu, z):
    """Logarithmic potential of an atomic or smoothed measure at z.

    Atomic measures give sum_i w_i log 1/|z - x_i| (+inf at an atom);
    smoothed measures use the exact uniform-disk potential per block.
    """
    from .measures import AtomicMeasure, SmoothedMeasure, uniform_disk_potential

    z = _as_complex(z)
    if isinstance(mu, SmoothedMeasure):
        d = np.abs(z[..., None] - mu.base.points[None, :]) if z.ndim else np.abs(z - mu.base.points)
        v = uniform_disk_potential(d, mu.epsilon)
        out = v @ mu.base.weights if z.ndim else float(np.dot(v, mu.base.weights))
        return out
    if isinstance(mu, AtomicMeasure):
        d = np.abs(z[..., None] - mu.points[None, :]) if z.ndim else np.abs(z - mu.points)
        with np.errstate(divide="ignore"):
            terms = -np.log(d)
        out = terms @ mu.weights if z.ndim else float(np.dot(terms, mu.weights))
        return out
    raise TypeError(f"unsupported measure type {type(mu).__name__}")


@dataclass(frozen=True)
class Polynomial:
    """Polynomial with complex coefficients in ascending degree order."""

    coefficients: tuple

    def __post_init__(self):
        coeffs = tuple(complex(c) for c in self.coefficients)
        if len(coeffs) == 0:
            raise ValueError("zero polynomial is not allowed")
        if coeffs[-1] == 0:
            raise ValueError("leading coefficient must be nonzero")
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    @property
    def leading(self) -> complex:
        return self.coefficients[-1]

    def roots(self) -> np.ndarray:
        if self.degree == 0:
            return np.array([], dtype=complex)
        return np.roots(self.coefficients[::-1])

    def __call__(self, z):
        return np.polyval(self.coefficients[::-1], _as_complex(z))

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        prod = np.polymul(self.coefficients[::-1], other.coefficients[::-1])
        return Polynomial(tuple(prod[::-1]))


def mahler_measure(K: CompactSet, p: Polynomial) -> float:
    """exp of the equilibrium average of log|p|, for sets of capacity one.

    Evaluated through the factorization |leading| * prod_roots exp(green),
    which is exact for cp(K) = 1; cross-checkable by equilibrium_integral
    of log|p|.
    """
    if abs(K.capacity() - 1.0) > 1e-12:
        raise ValueError("mahler measure requires a set of capacity 1")
    g = np.atleast_1d(K.green(p.roots())) if p.degree > 0 else np.array([])
    return float(abs(p.leading) * math.exp(float(np.sum(g))))


class DiskBalayage:
    """Sweep of an atomic measure onto a disk boundary.

    Exterior atoms become exterior-Poisson-kernel densities in the boundary
    angle; atoms already on the boundary are kept as atoms.  Total mass is
    preserved.
    """

    def __init__(self, disk: Disk, exterior_points, exterior_weights,
                 boundary_points=(), boundary_weights=()):
        self.disk = disk
        self.exterior_points = np.asarray(exterior_points, dtype=complex)
        self.exterior_weights = np.asarray(exterior_weights, dtype=float)
        self.boundary_points = np.asarray(boundary_points, dtype=complex)
        self.boundary_weights = np.asarray(boundary_weights, dtype=float)
        # positions normalized to the unit disk
        self._xi = (self.exterior_points - disk.center) / disk.radius

    def density(self, theta):
        """Density with respect to d(theta) on the boundary circle."""
        theta = np.asarray(theta, dtype=float)
        e = np.exp(1j * theta)
        xi = self._xi[None, :] if theta.ndim else self._xi
        num = np.abs(self._xi) ** 2 - 1.0
        den = np.abs((e[..., None] if theta.ndim else e) - xi) ** 2
        vals = (num / (2.0 * math.pi)) / den
        return vals @ self.exterior_weights if theta.ndim else float(np.dot(vals, self.exterior_weights))

    def mass(self, n: int = 4096) -> float:
        """Total mass by boundary quadrature plus boundary atoms."""
        theta = (np.arange(n) + 0.5) * (2 * math.pi / n)
        cont = float(np.mean(self.density(theta)) * 2 * math.pi)
        return cont + float(self.boundary_weights.sum())

    def potential(self, z, n: int = 4096):
        """Logarithmic potential of the swept measure at z."""
        from .measures import AtomicMeasure

        z = _as_complex(z)
        theta = (np.arange(n) + 0.5) * (2 * math.pi / n)
        bpts = self.disk.boundary_point(theta)
        w = self.density(theta) * (2 * math.pi / n)
        d = np.abs(z[..., None] - bpts[None, :]) if z.ndim else np.abs(z - bpts)
        with np.errstate(divide="ignore"):
            out = -np.log(d) @ w
        if self.boundary_points.size:
            out = out + log_potential(AtomicMeasure(self.boundary_points, self.boundary_weights,
                                                    require_probability=False), z)
        return out if z.ndim else float(out)

    def to_atomic(self, n: int = 1024):
        """Discretize the boundary density to n equal-angle atoms."""
        from .measures import AtomicMeasure

        theta = (np.arange(n) + 0.5) * (2 * math.pi / n)
        w = self.density(theta) * (2 * math.pi / n)
        pts = self.disk.boundary_point(theta)
        if self.boundary_points.size:
            pts = np.concatenate([pts, self.boundary_points])
            w = np.concatenate([w, self.boundary_weights])
        return AtomicMeasure(pts, w, require_probability=False)


def balayage_disk(mu, K: Disk) -> DiskBalayage:
    """Balayage of an atomic measure with atoms outside the disk onto it.

    Atoms on the boundary circle (within relative tolerance 1e-12) are
    returned unchanged as atoms; atoms strictly inside violate the
    precondition and are rejected.
    """
    if not isinstance(K, Disk):
        raise TypeError("balayage is implemented for disks only")
    r = np.abs(mu.points - K.center)
    on_boundary = np.abs(r - K.radius) <= 1e-12 * K.radius
    inside = r < K.radius * (1 - 1e-12)
    if inside.any():
        raise ValueError("balayage requires atoms outside the disk")
    ext = ~on_boundary
    return DiskBalayage(K, mu.points[ext], mu.weights[ext],
                        mu.points[on_boundary], mu.weights[on_boundary])
