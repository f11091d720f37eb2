"""Weighted Fekete configurations and capacity estimation.

The weighted objective has its maximizers inside K (extremal polynomials
attain their sup-norm on K), and on K the Green penalty vanishes, so the
solver works directly in the boundary parametrization where containment
is exact by construction: angles through the exterior map for disk,
ellipse and exterior-map sets, the real coordinate for a segment.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .measures import Configuration, _pair_distances, _pair_log_sum
from .potential import CompactSet, Segment

_PAIR_FLOOR = 1e-14  # soft distance floor inside logs during line search only


@dataclass
class FeketeResult:
    configuration: Configuration
    log_delta: float
    max_green_violation: float
    trace: list = field(default_factory=list)
    iterations: int = 0
    start_index: int = -1
    stop_reason: str = ""  # "gradient_tol", "line_search" or "max_iterations"

    @property
    def converged(self) -> bool:
        return self.stop_reason == "gradient_tol"

    def save(self, basepath) -> None:
        base = Path(basepath)
        self.configuration.save_csv(base.with_suffix(".csv"))
        meta = {"log_delta": self.log_delta,
                "max_green_violation": self.max_green_violation,
                "iterations": self.iterations, "converged": self.converged,
                "stop_reason": self.stop_reason}
        base.with_suffix(".json").write_text(json.dumps(meta, indent=2))


def log_delta(K: CompactSet, c: Configuration) -> float:
    """log of the weighted Fekete product:
    sum_{m<n} log|z_n - z_m| - (N-1) sum_n green(z_n).

    -inf on coincident points.
    """
    pts = c.points if isinstance(c, Configuration) else np.asarray(c, dtype=complex)
    n = pts.size
    if n < 2:
        raise ValueError("need at least two points")
    g = np.atleast_1d(K.green(pts))
    return float(_pair_log_sum(pts) - (n - 1) * np.sum(g))


def _pair_log_dists(pts: np.ndarray) -> np.ndarray:
    return np.log(np.maximum(_pair_distances(pts), _PAIR_FLOOR))


def _ascend_angles(K: CompactSet, theta0: np.ndarray, max_iter: int, grad_tol: float):
    """Diagonally preconditioned backtracking ascent over boundary angles.

    The step divides the angle gradient by the diagonal pair curvature,
    which equalizes scales between flat and strongly curved boundary arcs;
    convergence is measured on the arclength gradient.  The stop reason is
    "gradient_tol" (converged), "line_search" (60 step halvings found no
    gain) or "max_iterations".
    """
    theta = theta0.copy()
    pts = K.boundary_point(theta)
    logs = _pair_log_dists(pts)
    obj = float(np.sum(logs))
    step = 0.5
    trace = [obj]
    reason = "max_iterations"
    it = 0
    eye = np.eye(len(theta0), dtype=bool)
    for it in range(1, max_iter + 1):
        diff = pts[:, None] - pts[None, :]
        d2 = np.maximum(np.abs(diff) ** 2, _PAIR_FLOOR**2)
        np.fill_diagonal(d2, 1.0)
        vel = K.boundary_velocity(theta)
        acc = K.boundary_acceleration(theta)
        inner = (vel[:, None] * diff.conj()).real
        grad = np.sum(np.where(eye, 0.0, inner / d2), axis=1)
        speed = np.abs(vel)
        if float(np.max(np.abs(grad / speed))) <= grad_tol:
            reason = "gradient_tol"
            break
        # exact diagonal Hessian of the angle objective; negative near a
        # maximizer, with the pair-curvature bound as a safeguarded fallback
        hess = np.sum(np.where(eye, 0.0,
                               ((acc[:, None] * diff.conj()).real + np.abs(vel[:, None]) ** 2) / d2
                               - 2.0 * inner**2 / d2**2), axis=1)
        fallback = speed**2 * np.sum(np.where(eye, 0.0, 1.0 / d2), axis=1)
        scale = np.where(hess < 0, -hess, np.maximum(fallback, 1e-300))
        direction = grad / scale
        improved = False
        for _ in range(60):
            cand = theta + step * direction
            cand_logs = _pair_log_dists(K.boundary_point(cand))
            # gain summed per pair resolves improvements far below the
            # absolute rounding floor of the full objective
            gain = float(np.sum(cand_logs - logs))
            if gain > 0:
                theta, logs = cand, cand_logs
                pts = K.boundary_point(theta)
                obj += gain
                step = min(step * 1.5, 0.5)
                improved = True
                break
            step *= 0.5
        trace.append(obj)
        if not improved:
            reason = "line_search"
            break
    return theta, pts, trace, it, reason


def _ascend_segment(K: Segment, x0: np.ndarray, max_iter: int, grad_tol: float):
    """Projected (clamped) diagonally preconditioned ascent on the segment,
    with the stop reasons of `_ascend_angles`."""
    x = np.clip(x0, K.a, K.b)
    logs = _pair_log_dists(x + 0j)
    obj = float(np.sum(logs))
    step = 0.5
    trace = [obj]
    reason = "max_iterations"
    it = 0
    eye = np.eye(len(x0), dtype=bool)
    for it in range(1, max_iter + 1):
        diff = x[:, None] - x[None, :]
        np.fill_diagonal(diff, 1.0)
        grad = np.sum(np.where(eye, 0.0, 1.0 / diff), axis=1)
        curv = np.sum(np.where(eye, 0.0, 1.0 / diff**2), axis=1)
        # projected first-order residual: drop components pushing past the ends
        resid = grad.copy()
        resid[(x <= K.a) & (resid < 0)] = 0.0
        resid[(x >= K.b) & (resid > 0)] = 0.0
        if float(np.max(np.abs(resid))) <= grad_tol:
            reason = "gradient_tol"
            break
        direction = grad / np.maximum(curv, 1e-300)
        improved = False
        for _ in range(60):
            cand = np.clip(x + step * direction, K.a, K.b)
            cand_logs = _pair_log_dists(cand + 0j)
            gain = float(np.sum(cand_logs - logs))
            if gain > 0:
                x, logs = cand, cand_logs
                obj += gain
                step = min(step * 1.5, 0.5)
                improved = True
                break
            step *= 0.5
        trace.append(obj)
        if not improved:
            reason = "line_search"
            break
    return x, trace, it, reason


def solve(K: CompactSet, N: int, starts: Optional[int] = None,
          max_iterations: int = 5000, seed=None) -> FeketeResult:
    """Multistart ascent for an N-point weighted Fekete configuration.

    Starts are equilibrium draws jittered in the boundary parameter.  The
    start with the largest log_delta is returned whether or not it
    converged; `converged` reports whether that start met the gradient
    tolerance 1e-8 N, `stop_reason` why its ascent stopped, and
    `start_index` which start it was.  All iterates stay in K, so the
    containment diagnostic max_green_violation is at the rounding level.
    """
    if N < 2:
        raise ValueError("need N >= 2")
    n_starts = starts if starts is not None else max(8, math.ceil(N / 8))
    grad_tol = 1e-8 * N
    best = None
    for idx, child in enumerate(np.random.SeedSequence(seed).spawn(n_starts)):
        rng = np.random.default_rng(child)
        theta0 = rng.uniform(0.0, 2.0 * math.pi, N) + rng.normal(0.0, 0.1, N)
        if isinstance(K, Segment):
            x0 = K.boundary_point(theta0).real
            x, trace, its, reason = _ascend_segment(K, x0, max_iterations, grad_tol)
            pts = x + 0j
        else:
            theta, pts, trace, its, reason = _ascend_angles(K, theta0, max_iterations,
                                                            grad_tol)
        config = Configuration(pts)
        val = log_delta(K, config)  # final value without the soft floor
        if best is None or val > best[0]:
            best = (val, config, trace, its, reason, idx)
    val, config, trace, its, reason, idx = best
    violation = float(np.max(np.atleast_1d(K.green(config.points))))
    return FeketeResult(configuration=config, log_delta=val,
                        max_green_violation=violation, trace=trace,
                        iterations=its, start_index=idx, stop_reason=reason)


def capacity_estimate(K: CompactSet, N: int, seed=None,
                      result: Optional[FeketeResult] = None) -> float:
    """Transfinite-diameter estimate exp(2 log_delta / (N(N-1))).

    Converges to the capacity from above as N grows.
    """
    if N < 8:
        raise ValueError("need N >= 8")
    if result is None:
        result = solve(K, N, seed=seed)
    return math.exp(2.0 * result.log_delta / (N * (N - 1)))
