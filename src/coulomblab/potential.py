"""Closed-form potential theory on canonical regular compact sets.

Every set in this module carries an explicit exterior conformal map
psi : {|w| > 1} -> complement of K with psi(w) = cap*w + c0 + c1/w + ...,
which yields the Green function g(z) = log|psi^{-1}(z)|, the capacity
(the leading coefficient), and the equilibrium measure as the pushforward
of the uniform circle measure under the boundary correspondence.

Each set states only its Laurent data laurent() = (cap, (c0, ..., cm)):
the disk (R; c), the segment [a, b] ((b - a)/4; mid, (b - a)/4), the
ellipse ((a + b)/2; c, (a - b)/2) and an ExteriorMap its own coefficients.
One shared base derives capacity, map, map_derivative, boundary_point,
boundary_jet, area and field_integral from those numbers; each class keeps
its own green, one inversion per Laurent degree: the disk's closed form;
for the segment, the ellipse and an ExteriorMap with at most one negative
power, the larger root of w (psi(w) - z) = 0 by the quadratic formula, with
no run-time residual test; and for an ExteriorMap with more, companion-matrix
eigenvalues, whose residual |psi(w) - z| is tested at run time.  Every
exterior-map root beyond the float range takes the one far field
log|(z - c0)/cap| from a scaled modulus.  Every green is +inf at an infinite
z and 0 at a NaN one, and a scalar z gets bit for bit its value inside an
array.
"""

from __future__ import annotations

import functools
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

# ExteriorMap inversion for m >= 2: the largest companion-matrix root w of
# w^m (psi(w) - z) gets _POLISH_STEPS Newton steps and must then satisfy
# |psi(w) - z| <= _NEWTON_TOL max(1, |z|)
_POLISH_STEPS = 2
_NEWTON_TOL = 1e-12

# points per pass of the segment and ellipse green (a few 16-byte temporaries
# of this length fit in L2)
_QUADRATIC_CHUNK = 4096


class InversionError(ArithmeticError):
    """Raised when ExteriorMap.green finds no accurate preimage of a point
    outside K."""


def _as_complex(z):
    return np.asarray(z, dtype=complex)


def _snap(g):
    """Zero every value of a freshly computed green array that is not above
    _GREEN_SNAP (NaN included), in place; a 0-d input, which ufuncs return
    as a numpy scalar, comes back as a float."""
    if g.ndim:
        g[~(g > _GREEN_SNAP)] = 0.0
        return g
    return float(g) if g > _GREEN_SNAP else 0.0


class _LaurentSet:
    """Geometry of K read from its exterior map.

    Each set states laurent() = (cap, (c0, ..., cm)) for
    psi(w) = cap*w + c0 + c1/w + ... + cm/w^m, and every operation below
    follows from those numbers.  On the unit circle u = conj(w) = 1/w, so
    the boundary b(theta) = psi(e^{i theta}) and its angle derivatives are
    b = cap*w + sum c_k u^k, b' = i(cap*w - sum k c_k u^k) and
    b'' = -(cap*w + sum k^2 c_k u^k).
    """

    def laurent(self) -> tuple:
        raise NotImplementedError

    def capacity(self) -> float:
        return self.laurent()[0]

    def map(self, w):
        cap, coeffs = self.laurent()
        w = _as_complex(w)
        return cap * w + _power_sum(coeffs, 1.0 / w, 0)

    def map_derivative(self, w):
        cap, coeffs = self.laurent()
        u = 1.0 / _as_complex(w)
        return cap - u * _power_sum(coeffs, u, 1)

    def boundary_point(self, theta):
        cap, coeffs = self.laurent()
        w = np.exp(1j * np.asarray(theta, dtype=float))
        return cap * w + _power_sum(coeffs, w.conj(), 0)

    def boundary_jet(self, theta):
        """b(theta), b'(theta) and b''(theta) together.

        The three sums are _power_sum's of orders 0, 1 and 2, added term by
        term in its order, so each value is bit for bit what three
        _power_sum calls give; u^k is taken once per k, and the k = 1 term
        1^order c_1 u, the same product for every order, once."""
        cap, coeffs = self.laurent()
        w = np.exp(1j * np.asarray(theta, dtype=float))
        u = w.conj()
        lead = cap * w
        sums = [coeffs[0], 0.0, 0.0]
        for k, c in enumerate(coeffs[1:], 1):
            uk = u**k
            if k == 1:
                term = 1 * c * uk
                sums = [total + term for total in sums]
            else:
                sums = [total + k**order * c * uk for order, total in enumerate(sums)]
        return lead + sums[0], 1j * (lead - sums[1]), -(lead + sums[2])

    def area(self) -> float:
        cap, coeffs = self.laurent()
        a = math.pi * (cap**2 - sum(k * abs(c) ** 2 for k, c in enumerate(coeffs)))
        if a < -1e-12:
            raise ValueError("coefficients do not describe a univalent exterior map")
        return max(a, 0.0)

    def field_integral(self, p: float) -> float:
        """Integral of exp(-p*green) over the plane; finite for p > 2."""
        if p == math.inf:
            return self.area()
        if p <= 2:
            raise ValueError("field integral diverges for exponent <= 2")
        cap, coeffs = self.laurent()
        tail = cap**2 / (p - 2)
        for k, c in enumerate(coeffs[1:], 1):
            tail += k**2 * abs(c) ** 2 / (p + 2 * k)
        return self.area() + 2 * math.pi * tail


def _power_sum(coeffs, u, order: int):
    """sum_k k^order c_k u^k over the Laurent coefficients c_0, ..., c_m."""
    total = coeffs[0] if order == 0 else 0.0
    for k, c in enumerate(coeffs[1:], 1):
        total = total + k**order * c * u**k
    return total


def _quadratic_green(z, c, cap, q):
    """Green function of the set with psi(w) = c + cap*w + q/w: log of the
    larger root modulus of cap*w^2 - (z - c)*w + q = 0, floored at 0.  It is
    the one kernel of every exterior map of degree <= 1 (q = 0 for a line).

    The points run _QUADRATIC_CHUNK at a time so that the complex
    temporaries stay in cache; every value is elementwise, so each one is
    bit for bit what a single pass over all points gives, and a scalar z
    (run as one point) gets its value inside an array.  Where u*u overflows
    (|z - c| above about 1e154, or z infinite) the value is not finite, and
    only those entries are recomputed by _far_log_root."""
    z = _as_complex(z)
    flat = z.ravel()
    g = np.empty(flat.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, flat.size, _QUADRATIC_CHUNK):
            g[lo:lo + _QUADRATIC_CHUNK] = _quadratic_log_root(flat[lo:lo + _QUADRATIC_CHUNK] - c,
                                                              cap, q)
    bad = np.flatnonzero(~np.isfinite(g))
    if bad.size:
        g[bad] = _far_log_root(flat[bad] - c, cap)
    return _snap(g.reshape(z.shape))


def _quadratic_log_root(u, cap, q):
    """log max(1, |w1|, |w2|) over the roots w = (u +- sq)/(2 cap) of
    cap*w^2 - u*w + q = 0, with sq = sqrt(u^2 - 4 cap q)."""
    sq = np.sqrt(u * u - 4.0 * cap * q)
    return np.log(np.maximum(np.maximum(np.abs((u + sq) / (2 * cap)),
                                        np.abs((u - sq) / (2 * cap))), 1.0))


def _far_log_root(u, cap):
    """log|u/cap|, the Green function of a set with psi(w) = c + cap*w + O(1/w)
    at u = z - c where the root solve leaves the float range: there
    |w - u/cap| / |w| is O((cap/u)^2), below 1e-300 where the quadratic
    kernel's u*u overflows and bounded by the residual test where the
    companion root's polish overflows.  |u| is scaled by
    s = max(|Re u|, |Im u|) and u/cap is never formed, so that neither can
    overflow; an infinite u (one part NaN or not) gives +inf, any other NaN
    one NaN."""
    s = np.maximum(np.abs(u.real), np.abs(u.imag))
    with np.errstate(invalid="ignore"):  # inf/inf, replaced below
        g = np.log(s) + np.log(np.abs(u / s) / cap)
    return np.where(np.isinf(u), np.inf, g)


@dataclass(frozen=True)
class Disk(_LaurentSet):
    """Closed disk; psi(w) = center + radius*w."""

    center: complex = 0.0 + 0.0j
    radius: float = 1.0

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError("disk radius must be positive")

    def laurent(self) -> tuple:
        return self.radius, (self.center,)

    def green(self, z):
        # log(max(r, R) / R) is exactly 0 for r <= R
        r = np.abs(_as_complex(z) - self.center)
        return _snap(np.log(np.maximum(r, self.radius) / self.radius))

    def inner_set(self, margin: float) -> "Disk":
        if margin >= self.radius:
            raise ValueError("margin exceeds radius")
        return Disk(self.center, self.radius - margin)

    def to_dict(self) -> dict:
        return {"type": "disk", "center": [self.center.real, self.center.imag],
                "radius": self.radius}


@dataclass(frozen=True)
class Segment(_LaurentSet):
    """Real segment [a, b]; psi(w) = mid + cap*(w + 1/w) with cap = (b - a)/4,
    equilibrium law arcsine."""

    a: float = -1.0
    b: float = 1.0

    def __post_init__(self):
        if not self.a < self.b:
            raise ValueError("segment requires a < b")

    def laurent(self) -> tuple:
        cap = 0.25 * (self.b - self.a)
        return cap, (0.5 * (self.a + self.b), cap)

    def green(self, z):
        cap, (c, q) = self.laurent()
        return _quadratic_green(z, c, cap, q)

    def inner_set(self, margin: float) -> "Segment":
        if 2 * margin >= self.b - self.a:
            raise ValueError("margin exceeds half-length")
        return Segment(self.a + margin, self.b - margin)

    def to_dict(self) -> dict:
        return {"type": "segment", "a": self.a, "b": self.b}


@dataclass(frozen=True)
class Ellipse(_LaurentSet):
    """Closed filled ellipse with axis-aligned semi-axes;
    psi(w) = center + cap*w + q/w with cap = (a + b)/2, q = (a - b)/2."""

    center: complex = 0.0 + 0.0j
    semi_major: float = 2.0
    semi_minor: float = 1.0

    def __post_init__(self):
        if not (self.semi_major >= self.semi_minor > 0):
            raise ValueError("require semi_major >= semi_minor > 0")

    def laurent(self) -> tuple:
        return (0.5 * (self.semi_major + self.semi_minor),
                (self.center, 0.5 * (self.semi_major - self.semi_minor)))

    def green(self, z):
        cap, (c, q) = self.laurent()
        return _quadratic_green(z, c, cap, q)

    def inner_set(self, margin: float) -> "Ellipse":
        if margin >= self.semi_minor:
            raise ValueError("margin exceeds semi-minor axis")
        return Ellipse(self.center, self.semi_major - margin, self.semi_minor - margin)

    def to_dict(self) -> dict:
        return {"type": "ellipse", "center": [self.center.real, self.center.imag],
                "semi_major": self.semi_major, "semi_minor": self.semi_minor}


@dataclass(frozen=True)
class ExteriorMap(_LaurentSet):
    """Compact set given by a truncated univalent exterior Laurent map.

    psi(w) = cap*w + coeffs[0] + coeffs[1]/w + ... + coeffs[m]/w^m maps
    {|w| > 1} onto the complement of K; the coefficients are assumed to make
    psi univalent there.  The preimages of z are then the roots of the
    degree m + 1 polynomial w^m (psi(w) - z), and by the argument principle
    exactly one of them has |w| > 1 when z is outside K and none does when z
    is in K.  green(z) is log|w| of the largest root, floored at 0.

    For m <= 1 it is the ellipse's kernel, _quadratic_green (c1 = 0 for
    m = 0), a closed form with no run-time residual test.  For m >= 2 the
    root is the largest eigenvalue of each point's companion matrix,
    polished by Newton steps, and every outside point's root must meet
    |psi(w) - z| <= 1e-12 max(1, |z|); a miss, a NaN residual included,
    raises InversionError.  A root beyond the float range (u/cap or |w|
    overflows) counts as w = inf, with residual sum_k c_k (cap/u)^k of the
    linear root u/cap, u = z - c0.  At every degree such a point, and an
    infinite z, takes _far_log_root(z - c0, cap); a NaN z gives 0.
    """

    cap: float
    coeffs: tuple = ()

    def __post_init__(self):
        if not self.cap > 0:
            raise ValueError("capacity must be positive")
        object.__setattr__(self, "coeffs", tuple(complex(c) for c in self.coeffs))

    def laurent(self) -> tuple:
        return self.cap, self.coeffs or (0j,)

    def _preimage(self, z):
        """Flat indices of the points of z outside K and their preimages w
        (m >= 2), with |w| > 1 and psi(w) = z; w = inf where the root lies
        beyond the float range or z is infinite, and a NaN z has no entry."""
        flat = _as_complex(z).ravel()
        c0 = self.coeffs[0]
        with np.errstate(over="ignore", invalid="ignore"):  # the residual test below sees both
            u = flat - c0
            w = self._companion_root(u)
            # outside K: |w| > 1 or not finite, except at a NaN (not infinite) z
            idx = np.flatnonzero(~(np.abs(w) <= 1.0) & (np.isinf(flat) | ~np.isnan(flat)))
            w, target, u = w[idx], flat[idx], u[idx]
            for _ in range(_POLISH_STEPS):
                # Newton on P(w) = w^m (psi(w) - z) by Horner, free of 1/w
                p, dp = np.full_like(w, self.cap), np.zeros_like(w)
                for c in (c0 - target,) + self.coeffs[1:]:
                    dp = dp * w + p
                    p = p * w + c
                w = w - p / dp
            far = ~(np.abs(w) < np.inf)
            w[far] = np.inf
            resid = np.empty(w.shape)
            resid[~far] = np.abs(self.map(w[~far]) - target[~far])
            # psi(u/cap) - z = sum_{k>=1} c_k (cap/u)^k
            resid[far] = np.abs(_power_sum((0.0,) + self.coeffs[1:], self.cap / u[far], 0))
            bound = _NEWTON_TOL * np.maximum(1.0, np.abs(target))
            miss = ~(resid <= bound) & np.isfinite(target)
        if miss.any():
            raise InversionError(f"{int(miss.sum())} of {target.size} points outside K have no "
                                 f"preimage with |psi(w) - z| <= {_NEWTON_TOL:g} max(1, |z|)")
        return idx, w

    def _companion_root(self, u):
        """The largest root of w^m (psi(w) - z) at each u = z - c0, as an
        eigenvalue of its companion matrix; NaN where u/cap is not finite."""
        m = len(self.coeffs) - 1
        lead = u / self.cap
        finite = np.isfinite(lead)
        # companion matrices of w^m (psi(w) - z) / cap
        #   = w^{m+1} - (u/cap) w^m + (c1/cap) w^{m-1} + ... + c_m/cap
        comp = np.zeros((u.size, m + 1, m + 1), dtype=complex)
        comp[:, 0, 0] = np.where(finite, lead, 0.0)
        comp[:, 0, 1:] = np.asarray(self.coeffs[1:]) / -self.cap
        comp[:, 1:, :-1] = np.eye(m)
        roots = np.linalg.eigvals(comp)
        w = roots[np.arange(u.size), np.argmax(np.abs(roots), axis=1)]
        w[~finite] = np.nan
        return w

    def green(self, z):
        cap, coeffs = self.laurent()
        if len(coeffs) <= 2:
            return _quadratic_green(z, coeffs[0], cap, coeffs[1] if len(coeffs) == 2 else 0.0)
        z = _as_complex(z)
        idx, w = self._preimage(z)
        log_w = np.log(np.abs(w))
        far = np.isinf(w)
        log_w[far] = _far_log_root(z.ravel()[idx[far]] - coeffs[0], cap)
        g = np.zeros(z.size)
        g[idx] = log_w
        return _snap(g.reshape(z.shape))

    def inner_set(self, margin: float):
        raise NotImplementedError("inner sets are only defined for disks, segments and ellipses")

    def to_dict(self) -> dict:
        return {"type": "exterior_map", "cap": self.cap,
                "coeffs": [[c.real, c.imag] for c in self.coeffs]}


CompactSet = Union[Disk, Segment, Ellipse, ExteriorMap]


_SET_KEYS = {"disk": ("center", "radius"), "segment": ("a", "b"),
             "ellipse": ("center", "semi_major", "semi_minor"),
             "exterior_map": ("cap", "coeffs")}


def _real(value, key: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValueError(f"set key {key!r} must be a real number, got {value!r}") from None


def _point(value, key: str) -> complex:
    if not (isinstance(value, (list, tuple)) and len(value) == 2):
        raise ValueError(f"set key {key!r} must be an [re, im] pair, got {value!r}")
    return complex(_real(value[0], key), _real(value[1], key))


def compact_set_from_dict(d: dict) -> CompactSet:
    """Inverse of the to_dict serialization used in config files.

    Raises ValueError naming the key on an unknown type, a missing or
    unknown key, or a value of the wrong shape."""
    if not isinstance(d, dict):
        raise ValueError(f"set must be an object, got {d!r}")
    kind = d.get("type")
    if kind not in _SET_KEYS:
        raise ValueError(f"unknown compact set type {kind!r}")
    keys = _SET_KEYS[kind]
    for key in d:
        if key != "type" and key not in keys:
            raise ValueError(f"unknown key {key!r} for set type {kind!r}")
    for key in keys:
        if key not in d:
            raise ValueError(f"set type {kind!r} needs key {key!r}")
    if kind == "disk":
        return Disk(_point(d["center"], "center"), _real(d["radius"], "radius"))
    if kind == "segment":
        return Segment(_real(d["a"], "a"), _real(d["b"], "b"))
    if kind == "ellipse":
        return Ellipse(_point(d["center"], "center"), _real(d["semi_major"], "semi_major"),
                       _real(d["semi_minor"], "semi_minor"))
    if not isinstance(d["coeffs"], list):
        raise ValueError(f"set key 'coeffs' must be a list of [re, im] pairs, got {d['coeffs']!r}")
    coeffs = [_point(c, f"coeffs[{i}]") for i, c in enumerate(d["coeffs"])]
    return ExteriorMap(_real(d["cap"], "cap"), tuple(coeffs))


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------

def robin_energy(K: CompactSet) -> float:
    """Minimal logarithmic energy over probability measures on K."""
    return -math.log(K.capacity())


def contains(K: CompactSet, z) -> bool:
    """Membership test green(z) <= MEMBERSHIP_TOL, applied pointwise; a NaN
    point is never in K (green gives it 0.0)."""
    z = _as_complex(z)
    return bool(np.all(np.asarray(K.green(z)) <= MEMBERSHIP_TOL)) and not np.isnan(z).any()


def equilibrium_sample(K: CompactSet, n: int, seed=None):
    """Draw n independent points from the equilibrium measure of K, as an
    (n,) complex array.

    Uniform angles on the reference circle are pushed through the boundary
    correspondence of the exterior map (arcsine law for a segment).
    """
    if n < 1:
        raise ValueError("need n >= 1")
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.0, 2.0 * math.pi, size=n)
    return K.boundary_point(theta)


# equilibrium quadrature: nodes an axis at the first and at the last pass, by order n
_QUADRATURE_NODES = {1: (64, 1 << 18), 2: (32, 2048), 3: (32, 256)}

# values in one block of a blocked grid (2^18 doubles are 2 MB, a complex
# difference block 4 MB): the grid sets how many blocks there are, never how
# much memory a block takes
_BLOCK_VALUES = 1 << 18


def _midpoint_angles(n: int) -> np.ndarray:
    """The n midpoint angles (k + 1/2) 2 pi / n of the periodic trapezoid rule."""
    return (np.arange(n) + 0.5) * (2 * math.pi / n)


def _row_blocks(rows: int, row_values: int):
    """Slices covering range(rows), each of as many rows of row_values
    values as fit in _BLOCK_VALUES (at least one; none when rows is 0)."""
    step = max(1, _BLOCK_VALUES // max(1, row_values))
    return [slice(lo, lo + step) for lo in range(0, rows, step)]


def _grid_values(f: Callable, *args):
    """f(*args) broadcast to its arguments' grid: a constant counts at every point."""
    return np.broadcast_to(f(*args), np.broadcast_shapes(*(np.shape(a) for a in args)))


def _tensor_mean(f: Callable, p: np.ndarray, n: int):
    """Mean of f over the n-fold grid p x ... x p of the points p, n in
    {1, 2, 3}; the n = 3 grid is summed in row blocks of its first axis."""
    m = p.size
    if n == 1:
        return np.sum(_grid_values(f, p)) / m
    if n == 2:
        return np.sum(_grid_values(f, p[:, None], p[None, :])) / m**2
    if n == 3:
        return np.sum([np.sum(_grid_values(f, p[rows, None, None], p[None, :, None],
                                           p[None, None, :]))
                       for rows in _row_blocks(m, m * m)]) / m**3
    raise ValueError("supported orders are n in {1, 2, 3}")


def equilibrium_integral(K: CompactSet, f: Callable, n: int = 1, *, tol: float = 1e-10):
    """Integral of f against the n-fold product of the equilibrium measure
    of K, n in {1, 2, 3}; f takes n broadcastable complex arrays and returns
    an array of their broadcast shape.

    Periodic trapezoid quadrature in each uniformizing angle on a midpoint
    grid, with dyadic refinement until successive estimates differ by less
    than tol * max(1, |estimate|).  The grid runs from 64 to 2^18 nodes at
    n = 1, and from 32 to 2048 (n = 2) or 256 (n = 3) nodes an axis; at the
    last grid it warns and returns that estimate.  A value whose imaginary
    part is below 1e-13 max(1, |real part|) is returned real.
    """
    if n not in _QUADRATURE_NODES:
        raise ValueError("supported orders are n in {1, 2, 3}")
    m, max_m = _QUADRATURE_NODES[n]
    prev = None
    while True:
        est = complex(_tensor_mean(f, K.boundary_point(_midpoint_angles(m)), n))
        if prev is not None and abs(est - prev) < tol * max(1.0, abs(est)):
            break
        if m >= max_m:
            warnings.warn(f"equilibrium quadrature stalled at {m} nodes"
                          f"{' an axis' if n > 1 else ''} "
                          f"(last refinement change {abs(est - prev):.3e})")
            break
        prev, m = est, 2 * m
    if abs(est.imag) < 1e-13 * max(1.0, abs(est.real)):
        return est.real
    return est


def _log_distances(d):
    """log d, elementwise, of distances d >= 0: the lab's one log of a distance,
    where a coincidence (the density vanishes) gives log 0 = -inf silently."""
    with np.errstate(divide="ignore"):
        return np.log(d)


@functools.lru_cache(maxsize=8)
def _pair_index(n: int):
    """Read-only index arrays (i, j) of the pairs i < j of n points, in
    row-major order of the upper triangle."""
    iu, ju = np.triu_indices(n, k=1)
    iu.flags.writeable = False
    ju.flags.writeable = False
    return iu, ju


def _pair_distances(pts: np.ndarray) -> np.ndarray:
    """|z_i - z_j| over the pairs i < j of the last axis, in _pair_index order.

    A (k, N) block gives a C-contiguous (k, pairs) array, so a sum over its
    rows takes each row's pairs in the order of one configuration's call
    (fancy indexing would give a column-major block, summed in another order).
    """
    iu, ju = _pair_index(pts.shape[-1])
    return np.abs(np.take(pts, iu, axis=-1) - np.take(pts, ju, axis=-1))


def _log_sum(d: np.ndarray):
    """sum log d over the last axis: a float for one configuration's pair
    distances, an array for a (..., pairs) block; -inf on a zero, 0.0 for none."""
    total = np.add.reduce(_log_distances(d), axis=-1)
    return total if total.ndim else float(total)


def _pair_log_sum(pts: np.ndarray):
    """sum_{i<j} log|z_i - z_j| over the last axis (row by row for a block):
    -inf on coincident points, 0.0 for one point."""
    return _log_sum(_pair_distances(pts))
