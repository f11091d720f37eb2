"""Weighted Fekete configurations and capacity estimation.

The weighted objective has its maximizers inside K (extremal polynomials
attain their sup-norm on K), and on K the Green penalty vanishes, so the
solver works directly in the boundary parametrization where containment
is exact by construction: the points are b(theta) = psi(e^{i theta}) for
the exterior map psi of every set type, and one boundary_jet call gives b
and its first two angle derivatives.  One damped Newton ascent with the
full angle Hessian serves every set type; each step solves with a
Cholesky factor of the negated Hessian plus a multiple of the identity,
raised tenfold until the factorization succeeds.  The factorization is
LAPACK's dpotrf and dpotrs, which _newton_step loads from scipy.linalg at
its first call; importing this module loads no scipy.  Each line-search
candidate is evaluated once: one boundary jet and one N x N difference
matrix give its pair log-distances for the gain and, when it is accepted,
its gradient; the Hessian is built only where another step follows.  Each
ascent starts from a stratified sample of the equilibrium measure, which is
uniform in the uniformizing angle: one angle drawn uniformly in each of N
equal arcs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .potential import CompactSet, Disk, _log_distances, _pair_index, _pair_log_sum


@dataclass
class FeketeResult:
    configuration: np.ndarray  # (N,) complex points
    log_delta: float
    max_green_violation: float
    trace: list = field(default_factory=list)
    iterations: int = 0
    start_index: int = -1
    stop_reason: str = ""  # "gradient_tol", "line_search" or "max_iterations"
    # per start: log_delta, iterations, stop_reason, shifted_steps, evaluations
    starts: list = field(default_factory=list)

    @property
    def converged(self) -> bool:
        return self.stop_reason == "gradient_tol"


def log_delta(K: CompactSet, c) -> float:
    """log of the weighted Fekete product of array-like complex points:
    sum_{m<n} log|z_n - z_m| - (N-1) sum_n green(z_n).

    -inf on coincident points.
    """
    pts = np.asarray(c, dtype=complex)
    n = pts.size
    if n < 2:
        raise ValueError("need at least two points")
    g = np.atleast_1d(K.green(pts))
    return float(_pair_log_sum(pts) - (n - 1) * np.sum(g))


_SHIFT_START = 1e-8  # first shift of the negated Hessian, relative to its largest row sum
_SHIFT_GROWTH = 10.0  # factor by which each failed factorization raises the shift
_FACTORIZATIONS = 10  # the last shift, 10 times the largest row sum, dominates every eigenvalue
_EPS = float(np.finfo(float).eps)


def _diagonal(a: np.ndarray) -> np.ndarray:
    """Writable view of the diagonal of a square array whose rows are evenly
    strided (a C-contiguous array or the .real of one)."""
    return a.reshape(-1)[::a.shape[0] + 1]


@functools.lru_cache(maxsize=8)
def _upper_pairs(n: int) -> np.ndarray:
    """Read-only flat indices i n + j of the pairs i < j of an n x n matrix,
    in _pair_index order."""
    iu, ju = _pair_index(n)
    flat = iu * n + ju
    flat.flags.writeable = False
    return flat


def _candidate(K: CompactSet, theta: np.ndarray):
    """Everything the ascent needs at the angles theta, from one boundary
    jet: b, b', b'', the N x N difference matrix b_i - b_j with a unit
    diagonal, and the pair log-distances log|b_i - b_j|, i < j, read from
    its upper triangle in _pair_index order (bit for bit
    _log_distances(_pair_distances(b)))."""
    pts, vel, acc = K.boundary_jet(theta)
    diff = pts[:, None] - pts[None, :]
    _diagonal(diff)[:] = 1.0
    logs = _log_distances(np.abs(diff.reshape(-1)[_upper_pairs(pts.size)]))
    return pts, vel, acc, diff, logs


def _gradient(vel: np.ndarray, diff: np.ndarray):
    """The angle gradient Re(b'_i sum_j 1/d_ij) of sum_{i<j} log|d_ij|, with
    the matrix 1/d_ij (zero diagonal) and its row sums that the Hessian
    reuses."""
    inv = 1.0 / diff
    _diagonal(inv)[:] = 0.0
    inv_sum = np.add.reduce(inv, axis=1)
    return (vel * inv_sum).real, inv, inv_sum


def _hessian(vel, acc, inv, inv_sum) -> np.ndarray:
    """The N x N angle Hessian: Re(b'_i b'_j / d_ij^2) off the diagonal and
    Re(b''_i sum_j 1/d_ij - b'_i^2 sum_j 1/d_ij^2) on it."""
    inv2 = inv * inv
    hess = (vel[:, None] * vel[None, :] * inv2).real
    _diagonal(hess)[:] = (acc * inv_sum - vel**2 * np.add.reduce(inv2, axis=1)).real
    return hess


def _newton_step(hess: np.ndarray, grad: np.ndarray):
    """Ascent step p solving (A + tau I) p = grad with A = -hess, and the
    number of times tau was raised (Cholesky with added multiple of the
    identity, Nocedal & Wright, Numerical Optimization, Algorithm 3.3).

    tau starts at 1e-8 R, with R = ||A||_inf the largest absolute row sum,
    which bounds every |eigenvalue| of A, and grows tenfold while the
    Cholesky factorization of A + tau I fails.  Where A is positive definite
    the step is the Newton step up to a relative O(tau / lambda); where it is
    indefinite the shift makes it an ascent direction.  By Gershgorin
    A + tau I is positive definite once tau > R, so the tenth attempt
    (tau = 10 R) succeeds for every finite Hessian; LinAlgError is raised
    otherwise.  A factor with a non-finite diagonal counts as failed, since
    LAPACK passes NaN pivots.
    """
    from scipy.linalg.lapack import dpotrf, dpotrs
    shifted = -hess
    shifted_diag = _diagonal(shifted)
    diag = shifted_diag.copy()
    tau = _SHIFT_START * float(np.add.reduce(np.abs(hess), axis=1).max())
    for shifts in range(_FACTORIZATIONS):
        shifted_diag[:] = diag + tau
        factor, info = dpotrf(shifted, lower=False, clean=False)
        if info == 0 and np.isfinite(np.diagonal(factor)).all():
            return dpotrs(factor, grad)[0], shifts
        tau *= _SHIFT_GROWTH
    raise np.linalg.LinAlgError(f"no Cholesky factorization of the shifted negated Hessian "
                                f"in {_FACTORIZATIONS} attempts: the Hessian is not finite")


def _ascend(K: CompactSet, theta0: np.ndarray, max_iter: int, grad_tol: float):
    """Damped Newton ascent over boundary angles with the full Hessian.

    Each step comes from `_newton_step`: a Cholesky solve with the negated
    Hessian plus tau I, where tau starts at 1e-8 of its largest row sum and
    grows tenfold until the sum is positive definite.  The step is thus an
    ascent direction where the Hessian is indefinite, and a direction
    without curvature (the disk's rotation) takes only its rounding-level
    gradient component divided by tau.  The returned `shifted` counts the
    steps that needed tau raised.  The step is halved until the gain,
    summed per pair, is positive.  Near the optimum that gain can fall below
    the rounding of the sum (eps times sum |log d_ij|); such a step is taken
    only if it lowers the largest angle-gradient component, so the trace can
    dip by that rounding.  Convergence is max |angle gradient| <= grad_tol:
    the angle gradient stays meaningful where the segment's speed vanishes.
    The stop reason is "gradient_tol" (converged), "line_search" (no step
    gained or, at the rounding level, lowered the gradient) or
    "max_iterations".

    Each candidate is evaluated once by `_candidate`: its pair logs give the
    gain, and an accepted candidate's gradient comes from the same jet and
    difference matrix.  The Hessian is built only where a step follows.
    The returned `evaluations` counts the candidates, halvings included.
    """
    theta = theta0.copy()
    pts, vel, acc, diff, logs = _candidate(K, theta)
    grad, inv, inv_sum = _gradient(vel, diff)
    obj = float(np.add.reduce(logs))
    trace = [obj]
    reason = "max_iterations"
    it = shifted = evaluations = 0
    for it in range(1, max_iter + 1):
        grad_max = float(np.abs(grad).max())
        if grad_max <= grad_tol:
            reason = "gradient_tol"
            break
        step, shifts = _newton_step(_hessian(vel, acc, inv, inv_sum), grad)
        shifted += shifts > 0
        accepted = False
        for _ in range(60):
            cand = theta + step
            cand_pts, cand_vel, cand_acc, cand_diff, cand_logs = _candidate(K, cand)
            evaluations += 1
            gain = float(np.add.reduce(cand_logs - logs))
            if gain > 0 or abs(gain) <= _EPS * float(np.add.reduce(np.abs(logs))):
                accepted = True
                break
            step *= 0.5
        if accepted:
            cand_grad, cand_inv, cand_inv_sum = _gradient(cand_vel, cand_diff)
            accepted = gain > 0 or float(np.abs(cand_grad).max()) < grad_max
        if not accepted:
            reason = "line_search"
            break
        theta, pts, vel, acc, logs = cand, cand_pts, cand_vel, cand_acc, cand_logs
        grad, inv, inv_sum = cand_grad, cand_inv, cand_inv_sum
        obj += gain
        trace.append(obj)
    return pts, trace, it, reason, shifted, evaluations


def _stratified_angles(rng: np.random.Generator, N: int) -> np.ndarray:
    """theta_k = 2 pi (k + u_k) / N with u_k ~ U(0, 1): one angle in each
    arc [2 pi k / N, 2 pi (k + 1) / N), a stratified sample of the
    equilibrium measure pulled back to the unit circle."""
    return 2.0 * math.pi * (np.arange(N) + rng.uniform(0.0, 1.0, N)) / N


def solve(K: CompactSet, N: int, starts: Optional[int] = None,
          max_iterations: int = 5000, seed=None) -> FeketeResult:
    """Multistart Newton ascent for an N-point weighted Fekete configuration.

    Each start is a stratified sample of the equilibrium measure in the
    boundary angle (`_stratified_angles`, from the start's own child
    generator), ascended by `_ascend`.  The start with the largest
    log_delta is returned whether or not it converged; `converged` reports
    whether that start met the angle-gradient tolerance 1e-8 N,
    `stop_reason` why its ascent stopped, `start_index` which start it was,
    and `starts` the log_delta, iterations, stop reason, shifted steps
    (steps whose first Cholesky factorization failed) and evaluations
    (line-search candidates, halvings included) of every start.
    All iterates lie on the boundary of K, so the containment diagnostic
    max_green_violation is at the rounding level.
    """
    if N < 2 or (starts is not None and starts < 1) or max_iterations < 0:
        raise ValueError(f"need N >= 2, starts >= 1 and max_iterations >= 0, got N={N}, "
                         f"starts={starts}, max_iterations={max_iterations}")
    n_starts = starts if starts is not None else max(8, math.ceil(N / 8))
    grad_tol = 1e-8 * N
    best = None
    records = []
    for idx, child in enumerate(np.random.SeedSequence(seed).spawn(n_starts)):
        theta0 = _stratified_angles(np.random.default_rng(child), N)
        pts, trace, its, reason, shifted, evaluations = _ascend(K, theta0, max_iterations,
                                                                grad_tol)
        val = log_delta(K, pts)
        records.append({"log_delta": val, "iterations": its, "stop_reason": reason,
                        "shifted_steps": shifted, "evaluations": evaluations})
        if best is None or val > best[0]:
            best = (val, pts, trace, its, reason, idx)
    val, pts, trace, its, reason, idx = best
    violation = float(np.max(np.atleast_1d(K.green(pts))))
    return FeketeResult(configuration=pts, log_delta=val,
                        max_green_violation=violation, trace=trace,
                        iterations=its, start_index=idx, stop_reason=reason,
                        starts=records)


def max_log_delta(K: CompactSet, N: int, seed=None) -> float:
    """Maximum of log_delta over N points, N >= 2: on a Disk of radius R
    exactly (N/2) log N + N(N-1)/2 log R, at N equally spaced boundary points
    (Saff and Totik, Logarithmic Potentials with External Fields, 1997), and
    solve(K, N, seed=seed).log_delta on every other set."""
    if N < 2:
        raise ValueError("need N >= 2")
    if isinstance(K, Disk):
        return 0.5 * N * math.log(N) + 0.5 * N * (N - 1) * math.log(K.radius)
    return solve(K, N, seed=seed).log_delta


def capacity_estimate(result: FeketeResult) -> float:
    """Transfinite-diameter estimate exp(2 log_delta / (N(N-1))) of a solved
    N-point configuration, N >= 8.

    Converges to the capacity from above as N grows.
    """
    n = result.configuration.size
    if n < 8:
        raise ValueError("need N >= 8")
    return math.exp(2.0 * result.log_delta / (n * (n - 1)))
