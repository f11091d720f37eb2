"""Metropolis sampling of the boundary-concentrated Gibbs ensemble.

Single-particle Gaussian proposals with an O(N) incremental density
update; the proposal scale is tuned toward 0.35 acceptance during burn-in
by stochastic approximation and frozen afterwards, so the post-burn-in
kernel is exactly stationary for the target density.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .measures import Configuration, _pair_log_sum
from .potential import CompactSet, MEMBERSHIP_TOL, compact_set_from_dict, robin_energy
from . import fekete

_FULL_RECOMPUTE_EVERY = 10_000


class InadmissibleParams(ValueError):
    """The ensemble triple violates s > N or the integrability condition."""


@dataclass(frozen=True)
class EnsembleParams:
    """Ensemble triple (N, s, beta) with slack constant c0.

    Admissible when beta * (s - N + 1) > 2 + c0, which makes the joint
    density integrable; s = inf is the hard-wall limit.
    """

    N: int
    s: float
    beta: float
    c0: float = 0.1

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("N must be at least 1")
        if self.beta <= 0 or self.c0 <= 0:
            raise ValueError("beta and c0 must be positive")
        if not self.s > self.N:
            raise InadmissibleParams(f"inadmissible parameters: require s > N, "
                                     f"got s = {self.s:g}, N = {self.N}")
        if self.s != math.inf and self.beta * (self.s - self.N + 1) <= 2 + self.c0:
            raise InadmissibleParams("inadmissible parameters: "
                                     f"beta*(s-N+1) = {self.beta * (self.s - self.N + 1):.6g} "
                                     f"must exceed 2 + c0 = {2 + self.c0:.6g}")

    def ell(self) -> float:
        return 0.0 if self.s == math.inf else self.N / self.s

    def to_dict(self) -> dict:
        d = asdict(self)
        if d["s"] == math.inf:
            d["s"] = "inf"
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "EnsembleParams":
        s = math.inf if d["s"] in ("inf", math.inf) else float(d["s"])
        return cls(int(d["N"]), s, float(d["beta"]), float(d.get("c0", 0.1)))


@dataclass
class ChainConfig:
    steps: int = 50_000
    burn_in: int = 5_000
    thin: int = 10
    step_scale: Optional[float] = None  # None: start at 0.5 * capacity

    def to_dict(self) -> dict:
        return asdict(self)


def _log_density(params: EnsembleParams, g: np.ndarray, pair_sum: float) -> float:
    """-beta s sum(g) + beta pair_sum; in the hard-wall limit s = inf, -inf
    when a point lies off K and beta pair_sum otherwise."""
    if params.s == math.inf:
        if np.any(g > MEMBERSHIP_TOL):
            return -math.inf
        return params.beta * pair_sum
    return float(-params.beta * params.s * np.sum(g) + params.beta * pair_sum)


def log_density_unnormalized(params: EnsembleParams, K: CompactSet, c: Configuration) -> float:
    """log of the joint density without the normalizing constant:
    -beta s sum_n green(z_n) + beta sum_{m<n} log|z_n - z_m|."""
    pts = c.points if isinstance(c, Configuration) else np.asarray(c, dtype=complex)
    if pts.size != params.N:
        raise ValueError(f"configuration has {pts.size} points, params expect {params.N}")
    return _log_density(params, np.atleast_1d(K.green(pts)), _pair_log_sum(pts))


def _move_delta(params: EnsembleParams, K: CompactSet, pts: np.ndarray,
                k: int, z_new: complex, g_old: float) -> tuple[float, float, float]:
    """O(N) change of the log density when particle k moves to z_new.

    Returns (delta, delta_pair, g_new)."""
    g_new = float(K.green(z_new))
    mask = np.ones(pts.size, dtype=bool)
    mask[k] = False
    others = pts[mask]
    d_new = np.abs(z_new - others)
    if np.any(d_new == 0.0):
        return -math.inf, -math.inf, g_new
    d_old = np.abs(pts[k] - others)
    delta_pair = float(np.sum(np.log(d_new)) - np.sum(np.log(d_old)))
    if params.s == math.inf:
        if g_new > MEMBERSHIP_TOL:
            return -math.inf, delta_pair, g_new
        return params.beta * delta_pair, delta_pair, g_new
    delta = params.beta * delta_pair - params.beta * params.s * (g_new - g_old)
    return delta, delta_pair, g_new


class Chain:
    """Thinned Metropolis chain with its acceptance and density trace."""

    def __init__(self, params: EnsembleParams, K: CompactSet, cfg: ChainConfig,
                 seed, states: list, log_densities: list, acceptance_rate: float,
                 step_scale: float, zero_acceptance_burnin: bool = False):
        self.params = params
        self.K = K
        self.cfg = cfg
        self.seed = seed
        self.states = states  # list of complex ndarrays, shape (N,)
        self.log_densities = np.asarray(log_densities, dtype=float)
        self.acceptance_rate = acceptance_rate
        self.step_scale = step_scale
        self.zero_acceptance_burnin = zero_acceptance_burnin

    def __len__(self) -> int:
        return len(self.states)

    def configurations(self):
        return [Configuration(s) for s in self.states]

    def state_array(self) -> np.ndarray:
        return np.asarray(self.states)

    def last_configuration(self) -> Configuration:
        return Configuration(self.states[-1])

    def save(self, basepath) -> None:
        base = Path(basepath)
        arr = self.state_array()
        n_states, n = arr.shape
        cols = [np.arange(n_states)]
        for k in range(n):
            cols.extend([arr[:, k].real, arr[:, k].imag])
        cols.append(self.log_densities)
        header = "state," + ",".join(f"re{k},im{k}" for k in range(n)) + ",log_density"
        np.savetxt(base.with_suffix(".csv"), np.column_stack(cols),
                   delimiter=",", header=header, comments="")
        meta = {"params": self.params.to_dict(), "set": self.K.to_dict(),
                "cfg": self.cfg.to_dict(), "seed": self.seed,
                "acceptance": self.acceptance_rate, "step_scale": self.step_scale}
        base.with_suffix(".json").write_text(json.dumps(meta, indent=2))

    @classmethod
    def load(cls, basepath) -> "Chain":
        base = Path(basepath)
        meta = json.loads(base.with_suffix(".json").read_text())
        params = EnsembleParams.from_dict(meta["params"])
        K = compact_set_from_dict(meta["set"])
        cfg = ChainConfig(**meta["cfg"])
        raw = np.loadtxt(base.with_suffix(".csv"), delimiter=",", skiprows=1, ndmin=2)
        n = params.N
        states = [raw[i, 1:1 + 2 * n:2] + 1j * raw[i, 2:2 + 2 * n:2] for i in range(raw.shape[0])]
        return cls(params, K, cfg, meta["seed"], states, raw[:, -1].tolist(),
                   meta["acceptance"], meta["step_scale"])


def run_chain(params: EnsembleParams, K: CompactSet, cfg: Optional[ChainConfig] = None,
              seed=None, init: Optional[Configuration] = None) -> Chain:
    """Run a Metropolis chain targeting the ensemble density on K.

    The initial state is an equilibrium sample unless `init` is given
    (which also makes stored chains resumable).  Proposals are isotropic
    Gaussian single-particle moves.
    """
    cfg = cfg or ChainConfig()
    rng = np.random.default_rng(seed)
    n = params.N
    if init is not None:
        pts = np.asarray(init.points, dtype=complex).copy()
        if pts.size != n:
            raise ValueError("init size does not match params.N")
    else:
        theta = rng.uniform(0, 2 * math.pi, n)
        pts = np.asarray(K.boundary_point(theta), dtype=complex).reshape(n)

    scale = cfg.step_scale if cfg.step_scale is not None else 0.5 * K.capacity()
    g = np.atleast_1d(K.green(pts)).astype(float)
    pair_sum = _pair_log_sum(pts)

    states: list[np.ndarray] = []
    log_dens: list[float] = []
    accepted_post = 0
    steps_post = 0
    accepted_window = 0
    window = 200
    burn_accepts = 0

    total = cfg.burn_in + cfg.steps
    block = 4096
    drawn = 0
    while drawn < total:
        b = min(block, total - drawn)
        idxs = rng.integers(0, n, size=b)
        unit_moves = rng.standard_normal(b) + 1j * rng.standard_normal(b)
        logu = np.log(rng.random(b))
        for j in range(b):
            step_index = drawn + j
            k = int(idxs[j])
            z_new = pts[k] + scale * unit_moves[j]
            delta, delta_pair, g_new = _move_delta(params, K, pts, k, z_new, g[k])
            if delta > logu[j]:
                pts[k] = z_new
                g[k] = g_new
                pair_sum += delta_pair
                if step_index < cfg.burn_in:
                    burn_accepts += 1
                    accepted_window += 1
                else:
                    accepted_post += 1
            if step_index >= cfg.burn_in:
                steps_post += 1
                if (step_index - cfg.burn_in + 1) % cfg.thin == 0:
                    states.append(pts.copy())
                    log_dens.append(_log_density(params, g, pair_sum))
            elif cfg.step_scale is None and (step_index + 1) % window == 0:
                rate = accepted_window / window
                scale *= math.exp(0.7 * (rate - 0.35))
                scale = min(max(scale, 1e-4 * K.capacity()), 10.0 * K.capacity())
                accepted_window = 0
            if (step_index + 1) % _FULL_RECOMPUTE_EVERY == 0:
                pair_sum = _pair_log_sum(pts)
                g = np.atleast_1d(K.green(pts)).astype(float)
        drawn += b

    zero_acc = cfg.burn_in > 0 and burn_accepts == 0
    if zero_acc:
        warnings.warn("no proposal was accepted during burn-in; "
                      "the chain is almost surely mis-tuned")
    acc_rate = accepted_post / steps_post if steps_post else 0.0
    return Chain(params, K, cfg, seed, states, log_dens, acc_rate, scale, zero_acc)


def in_low_energy_set(params: EnsembleParams, K: CompactSet, c: Configuration,
                      eps: float) -> bool:
    """Membership in the low-energy set: the weighted Fekete objective of
    the configuration is at least -(I[omega_K] + eps) N(N-1)/2."""
    n = len(c) if isinstance(c, Configuration) else np.asarray(c).size
    if n < 2:
        return True  # empty pair product: both sides are trivial
    value = fekete.log_delta(K, c)
    bound = -(robin_energy(K) + eps) * n * (n - 1) / 2.0
    return bool(value >= bound)


def tail_mass_estimate(chain: Chain, eps: float) -> float:
    """Fraction of stored post-burn-in states outside the low-energy set."""
    if len(chain) < 1000:
        raise ValueError("need at least 1000 stored post-burn-in states")
    outside = sum(not in_low_energy_set(chain.params, chain.K, Configuration(s), eps)
                  for s in chain.states)
    return outside / len(chain)


def potential_scale_reduction(chain: Chain) -> float:
    """Split-chain potential scale reduction factor of the density trace.

    Values near 1 indicate the two halves of the chain agree; > 1.05 is
    the pragmatic mis-convergence flag.
    """
    x = chain.log_densities
    m = len(x) // 2
    if m < 2:
        return math.inf
    halves = np.stack([x[:m], x[m:2 * m]])
    within = halves.var(axis=1, ddof=1).mean()
    between = m * halves.mean(axis=1).var(ddof=1)
    if within == 0:
        return 1.0
    var_plus = (m - 1) / m * within + between / m
    return float(math.sqrt(var_plus / within))
