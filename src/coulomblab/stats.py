"""Linear statistics, moments, marginal-intensity histograms, the
n-point symmetrizer, and the large-deviation rate function.

Monte Carlo estimates are always compared against targets from
potential.equilibrium_integral, the tensorized boundary quadrature of the
n-fold equilibrium measure, so reported z-scores probe the chain alone
and not the quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import measures
from .potential import CompactSet, _grid_values, _tensor_mean, equilibrium_integral, robin_energy
from .sampler import _MIN_STATES, Chain, _state_blocks


def symmetrize(f: Callable, state, n: int):
    """Average of f over ordered n-tuples of distinct particles of the
    array-like complex points `state`.

    Agrees with the n-fold tensor average of the empirical measure up to
    O(1/N); exactly equal for n = 1.  f must accept n broadcastable
    complex array arguments.
    """
    pts = np.asarray(state, dtype=complex)
    return _symmetrize_rows(f, pts[None, :], n)[0]


def _symmetrize_rows(f: Callable, pts: np.ndarray, n: int) -> np.ndarray:
    """symmetrize for every row of the (states, N) array pts."""
    N = pts.shape[1]
    if n < 1 or n > 3:
        raise ValueError("supported orders are n in {1, 2, 3}")
    if n > N:
        raise ValueError("order exceeds configuration size")
    if n == 1:
        return np.mean(_grid_values(f, pts), axis=1)
    x, y = pts[:, :, None], pts[:, None, :]
    if n == 2:
        full = np.sum(_grid_values(f, x, y), axis=(1, 2))
        diag = np.sum(_grid_values(f, pts, pts), axis=1)
        return (full - diag) / (N * (N - 1))
    full = np.sum(_grid_values(f, pts[:, :, None, None], pts[:, None, :, None],
                               pts[:, None, None, :]), axis=(1, 2, 3))
    s12 = np.sum(_grid_values(f, x, x, y), axis=(1, 2))
    s13 = np.sum(_grid_values(f, x, y, x), axis=(1, 2))
    s23 = np.sum(_grid_values(f, y, x, x), axis=(1, 2))
    s123 = np.sum(_grid_values(f, pts, pts, pts), axis=1)
    distinct = full - s12 - s13 - s23 + 2.0 * s123
    return distinct / (N * (N - 1) * (N - 2))


def _chain_series(chain: Chain, f: Callable, n: int) -> np.ndarray:
    """symmetrize(f, state, n) for every stored state, in state blocks."""
    return np.concatenate([_symmetrize_rows(f, block, n)
                           for block in _state_blocks(chain, chain.params.N ** n)])


def tensor_integral(f: Callable, state, n: int):
    """Plain n-fold tensor average of f over the empirical measure, by the
    same n-fold mean as the equilibrium quadrature (n in {1, 2, 3})."""
    return _tensor_mean(f, np.asarray(state, dtype=complex), n)


# the named statistics (f, n) of `coulomblab linstat` and criterion 6
_STAT_LIBRARY = {
    "abs2": (lambda z: np.abs(z) ** 2, 1),
    "z": (lambda z: z, 1),
    "pair_product": (lambda a, b: (a * np.conj(b)).real, 2),
}


@dataclass
class LinearStatReport:
    estimate: complex
    stderr: float
    ess: float
    target: complex
    zscore: float
    order: int
    label: str = ""

    def to_dict(self) -> dict:
        def enc(v):
            v = complex(v)
            return v.real if v.imag == 0 else [v.real, v.imag]
        return {"label": self.label, "order": self.order,
                "estimate": enc(self.estimate), "stderr": self.stderr,
                "ess": self.ess, "target": enc(self.target), "zscore": self.zscore}


def _batch_report(series: np.ndarray, target: complex, order: int, label: str) -> LinearStatReport:
    L = series.size
    est = complex(series.mean())
    nbatch = math.ceil(math.sqrt(L))
    m = L // nbatch
    trimmed = series[: nbatch * m].reshape(nbatch, m)
    bmeans = trimmed.mean(axis=1)
    var_b = float(np.mean(np.abs(bmeans - np.mean(bmeans)) ** 2))
    stderr = math.sqrt(var_b / nbatch) if nbatch > 1 else 0.0
    var_series = float(np.mean(np.abs(series - est) ** 2))
    tau = m * var_b / var_series if var_series > 0 else 1.0
    ess = min(float(L), L / max(tau, 1e-12)) if var_series > 0 else float(L)
    diff = complex(est) - complex(target)
    if stderr > 0:
        z = diff.real / stderr if abs(diff.imag) < 1e-14 * max(1.0, abs(diff.real)) \
            else abs(diff) / stderr
    else:
        z = 0.0 if diff == 0 else math.inf
    return LinearStatReport(est, stderr, ess, target, float(z), order, label)


def linear_statistic(chain: Chain, f: Callable, n: int = 1, label: str = "") -> LinearStatReport:
    """Monte Carlo estimate of the n-point marginal integral of f with a
    batch-means standard error and the quadrature target."""
    if len(chain) < _MIN_STATES:
        raise ValueError(f"need at least {_MIN_STATES} stored post-burn-in states")
    series = _chain_series(chain, f, n)
    target = equilibrium_integral(chain.K, f, n, tol=1e-9)
    return _batch_report(series, target, n, label)


def moment_statistic(chain: Chain, f: Callable, k: int, m: int,
                     label: str = "") -> LinearStatReport:
    """Monte Carlo estimate of (int f d omega)^k (int conj(f) d omega)^m
    against the product of equilibrium averages."""
    if not (k >= 0 and m >= 0 and k + m >= 1):
        raise ValueError(f"need k, m >= 0 and k + m >= 1, got k={k}, m={m}")
    if len(chain) < _MIN_STATES:
        raise ValueError(f"need at least {_MIN_STATES} stored post-burn-in states")
    u = _chain_series(chain, f, 1)
    series = u**k * np.conj(u) ** m
    base = complex(equilibrium_integral(chain.K, f))
    target = base**k * np.conj(base) ** m
    return _batch_report(series, target, k + m, label)


# ---------------------------------------------------------------------------
# rate function
# ---------------------------------------------------------------------------

@dataclass
class RateReport:
    descriptor: str
    ell: float
    weighted: float       # I_ell[nu]
    robin: float          # I[omega_K]
    rate: float           # (beta/2)(I_ell[nu] - I[omega_K])

    def to_dict(self) -> dict:
        return {"measure": self.descriptor, "ell": self.ell,
                "weighted_energy": self.weighted, "robin_energy": self.robin,
                "rate": self.rate}


def _rate(nu: measures.Measure, K: CompactSet, ell: float, beta: float,
          label: str) -> RateReport:
    w = measures.weighted_energy(nu, K, ell)
    r = robin_energy(K)
    rate = (beta / 2.0) * (w - r) if math.isfinite(w) else math.inf
    return RateReport(label or repr(nu), ell, w, r, rate)


def positivity_scan(K: CompactSet, family: Sequence[tuple[str, measures.Measure]],
                    ells: Sequence[float], beta: float = 2.0) -> list[RateReport]:
    """Large-deviation rates of the empirical measure near each test measure
    of a family, over an ell grid."""
    return [_rate(nu, K, ell, beta, label) for label, nu in family for ell in ells]


# ---------------------------------------------------------------------------
# intensity histogram
# ---------------------------------------------------------------------------

@dataclass
class IntensityHistogram:
    x_edges: np.ndarray
    y_edges: np.ndarray
    density: np.ndarray    # shape (nx, ny), integrates to one
    total_points: int

    @property
    def cell_area(self) -> float:
        return float((self.x_edges[1] - self.x_edges[0]) * (self.y_edges[1] - self.y_edges[0]))

    def centers(self):
        xc = 0.5 * (self.x_edges[:-1] + self.x_edges[1:])
        yc = 0.5 * (self.y_edges[:-1] + self.y_edges[1:])
        return xc, yc

    def mass(self) -> float:
        return float(self.density.sum() * self.cell_area)

    def to_csv(self, path) -> None:
        xc, yc = self.centers()
        rows = [(x, y, self.density[i, j])
                for i, x in enumerate(xc) for j, y in enumerate(yc)]
        np.savetxt(path, np.asarray(rows), delimiter=",",
                   header="bin_center_re,bin_center_im,density", comments="")


def intensity_histogram(chain: Chain, bins: int = 64) -> IntensityHistogram:
    """Single-particle intensity estimate: all particles of all stored
    states binned on a rectangular grid and normalized to unit mass.  The
    grid is the bounding box of the boundary of K padded by (e - 1) cap,
    which covers the green <= 1 neighborhood."""
    pts = chain.states.ravel()
    pad = (math.e - 1.0) * chain.K.capacity()
    b = chain.K.boundary_point(np.linspace(0, 2 * math.pi, 256))
    counts, xe, ye = np.histogram2d(pts.real, pts.imag, bins=bins,
                                    range=[[b.real.min() - pad, b.real.max() + pad],
                                           [b.imag.min() - pad, b.imag.max() + pad]])
    cell = (xe[1] - xe[0]) * (ye[1] - ye[0])
    density = counts / (pts.size * cell)
    return IntensityHistogram(xe, ye, density, pts.size)
