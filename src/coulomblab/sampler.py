"""Metropolis sampling of the boundary-concentrated Gibbs ensemble.

Single-particle Gaussian proposals with an O(N) incremental density
update; the proposal scale is tuned toward 0.35 acceptance during burn-in
by stochastic approximation and frozen afterwards, so the post-burn-in
kernel is exactly stationary for the target density.

run_chain draws its proposals _DRAW_BLOCK at a time and evaluates green on
them in batches.  A batch starts at the current step and holds at most
_BATCH proposals z = pts[k] + scale * move, all formed from the current
state; it ends at the end of the draw block or of the 200-step tuning
window, so the scale is fixed inside it, and one green call evaluates it
whole.  The loop reads its values until it reaches a stale proposal, one
whose particle was accepted since the batch was formed; a new batch then
starts at that proposal, and the rest of the old one is never used.  Only
an ExteriorMap with two or more negative powers tests its root's residual
at run time; if a batch's call raises InversionError, the batch is
re-formed as the proposal at hand, a length-1 array, so only a point the
chain really proposes can raise.  Every green gives a point, alone or as a
scalar, bit for bit its value inside any array (one kernel per Laurent
degree, one far field), so the chain is the one-proposal-at-a-time chain
step for step (same states, log densities, acceptance and step scale) and
the green values it holds are always green's values on the current state.

Every log of a distance goes through potential._log_distances except in
the step loop, which computes each O(N) pair delta inline, as the two
log-distance sums of the proposal and of the point it moves against the
other particles.  The state is the first N entries of one (N + 1,)
complex array whose last entry holds the proposal at hand, and two
(2, N - 1) index tables per particle, built once a call, gather both
against the other particles as one contiguous block: one subtract and one
row-wise log sum, bit for bit the sums of a broadcast subtract.  The loop
holds its green values as a list of floats, which each delta reads and
each acceptance writes, and runs whole with numpy's divide-by-zero report
off (a per-step zero scan or a per-batch error state measured slower).
A proposal that lands exactly on another particle gives log 0 = -inf, so
its delta is -inf and the move is rejected.  The error state changes only
whether a divide-by-zero is reported, never a value; green reports its
failures as InversionError or snapped values, and its invalid-value
warnings still surface.

Stored state j is row j of one (steps // thin, N) array.  The loop also
records its green values and running pair sum; after the loop one
vectorized _log_density pass turns them into the log densities and the
green sums, which spare tail_mass_estimate a green call.
"""

from __future__ import annotations

import json
import math
import time
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .potential import (CompactSet, InversionError, MEMBERSHIP_TOL, _pair_log_sum,
                        compact_set_from_dict, equilibrium_sample, robin_energy)
from . import fekete

_FULL_RECOMPUTE_EVERY = 10_000
_DRAW_BLOCK = 4096   # proposals drawn from the generator at once
_TUNE_WINDOW = 200   # burn-in steps per step-scale update
_BATCH = 16          # proposals per batched green call at most
_CHUNK_ELEMENTS = 1 << 14  # values per state chunk of a chain statistic (~256 KB)
_MIN_STATES = 1000   # stored states a tail mass or a chain statistic needs


class InadmissibleParams(ValueError):
    """The ensemble triple violates s > N or the integrability condition, or
    puts the hard wall s = inf on a set of zero area."""


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
        if not (0 < self.beta < math.inf and 0 < self.c0 < math.inf):
            raise ValueError(f"beta and c0 must be finite and positive, "
                             f"got beta = {self.beta:g}, c0 = {self.c0:g}")
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
        return cls(int(d["N"]), float(d["s"]), float(d["beta"]), float(d.get("c0", 0.1)))


@dataclass
class ChainConfig:
    steps: int = 50_000
    burn_in: int = 5_000
    thin: int = 10
    step_scale: Optional[float] = None  # None: start at 0.5 * capacity

    def __post_init__(self):
        if not self.thin >= 1:
            raise ValueError(f"thin must be at least 1, got {self.thin}")
        if not (self.steps >= 0 and self.burn_in >= 0):
            raise ValueError(f"steps and burn_in must be non-negative, "
                             f"got {self.steps} and {self.burn_in}")
        if self.step_scale is not None and not (math.isfinite(self.step_scale)
                                                and self.step_scale > 0):
            raise ValueError(f"step_scale must be None or finite and positive, "
                             f"got {self.step_scale}")

    def to_dict(self) -> dict:
        return asdict(self)


def _log_density(params: EnsembleParams, g: np.ndarray, pair_sum) -> tuple:
    """(-beta s sum(g) + beta pair_sum, sum(g)), the sum over g's last axis,
    so one call serves one state or a (states, N) table with its pair sums;
    in the hard-wall limit s = inf the density is -inf where a point lies
    off K and beta pair_sum otherwise."""
    green_sum = np.add.reduce(g, axis=-1)
    if params.s == math.inf:
        off_k = np.any(g > MEMBERSHIP_TOL, axis=-1)
        return np.where(off_k, -math.inf, params.beta * pair_sum), green_sum
    return -params.beta * params.s * green_sum + params.beta * pair_sum, green_sum


def log_density_unnormalized(params: EnsembleParams, K: CompactSet, c) -> float:
    """log of the joint density of array-like complex points, without the
    normalizing constant:
    -beta s sum_n green(z_n) + beta sum_{m<n} log|z_n - z_m|."""
    pts = np.asarray(c, dtype=complex)
    if pts.size != params.N:
        raise ValueError(f"configuration has {pts.size} points, params expect {params.N}")
    return float(_log_density(params, np.atleast_1d(K.green(pts)), _pair_log_sum(pts))[0])


def _others_index(n: int) -> np.ndarray:
    """(n, n - 1) table whose row k lists 0..n-1 without k."""
    cols = np.arange(n - 1)
    return cols + (cols[None, :] >= np.arange(n)[:, None])


class Chain:
    """Thinned Metropolis chain with its acceptance and density trace.

    `states` is one (n_states, N) complex128 array, whether from run_chain,
    `load` or rows given by hand.  `green_sums` holds sum_n green(z_n) of
    each stored state, recorded by run_chain bitwise equal to green on the
    stored states; a chain built without them (by hand, or by `load`,
    whose CSV does not carry them) computes them once on first use.

    `telemetry` records what run_chain did: `window_acceptance` and
    `scale_trace`, the acceptance of each 200-step burn-in window and the
    step scale after it; `batches`, the batches of proposals formed;
    `stale_points`, the stale proposals that started a new batch;
    `lookahead_points`, the proposals a batch evaluated that were never
    used; `inversion_errors`, the batches whose green call raised
    InversionError (each is re-formed as its first proposal alone); and
    `loop_seconds`, the perf_counter wall time of the step loop."""

    def __init__(self, params: EnsembleParams, K: CompactSet, cfg: ChainConfig,
                 seed, states, log_densities, acceptance_rate: float,
                 step_scale: float, zero_acceptance_burnin: bool = False,
                 telemetry: Optional[dict] = None, green_sums=None):
        self.params = params
        self.K = K
        self.cfg = cfg
        self.seed = seed
        states = np.asarray(states, dtype=complex)
        self.states = states.reshape(len(states), params.N)
        self.log_densities = np.asarray(log_densities, dtype=float)
        self.acceptance_rate = acceptance_rate
        self.step_scale = step_scale
        self.zero_acceptance_burnin = zero_acceptance_burnin
        self.telemetry = telemetry or {}
        if len(self.log_densities) != len(states):
            raise ValueError(f"{len(self.log_densities)} log densities for {len(states)} stored "
                             "states")
        if green_sums is not None and len(green_sums) != len(states):
            raise ValueError(f"{len(green_sums)} green sums for {len(states)} stored states")
        self._green_sums = None if green_sums is None else np.asarray(green_sums, dtype=float)

    @property
    def green_sums(self) -> np.ndarray:
        """sum_n green(z_n) of each stored state, shape (n_states,); a
        state on which green is NaN raises ValueError."""
        if self._green_sums is None:
            sums = [np.add.reduce(self.K.green(block), axis=1)
                    for block in _state_blocks(self, self.params.N)]
            sums = np.concatenate(sums) if sums else np.empty(0)
            nan = np.flatnonzero(np.isnan(sums))
            if nan.size:
                raise ValueError(f"green is NaN on stored state {nan[0]} "
                                 f"({nan.size} such states)")
            self._green_sums = sums
        return self._green_sums

    def __len__(self) -> int:
        return len(self.states)

    def state_array(self) -> np.ndarray:
        """The stored states, an (n_states, N) array, (0, N) when none."""
        return self.states

    def save(self, basepath, **stamp) -> None:
        """Write the states to <basepath>.csv and the chain's one JSON record
        to <basepath>.json: the `stamp` fields first (the CLI passes its
        config hash), then the seed, the parameters, set and chain config
        that `load` reads back, the number of stored states, the
        acceptance, the step scale, the split-chain `psr` of the density
        trace and the telemetry."""
        base = Path(basepath)
        # a state's row: its index, re0, im0, re1, im1, ..., its log density
        table = np.column_stack([np.arange(len(self)),
                                 np.ascontiguousarray(self.states).view(float), self.log_densities])
        header = "state," + ",".join(f"re{k},im{k}" for k in range(self.params.N)) + ",log_density"
        np.savetxt(base.with_suffix(".csv"), table, delimiter=",", header=header, comments="")
        meta = {**stamp, "seed": self.seed, "params": self.params.to_dict(),
                "set": self.K.to_dict(), "cfg": self.cfg.to_dict(), "states": len(self),
                "acceptance": self.acceptance_rate, "step_scale": self.step_scale,
                "psr": potential_scale_reduction(self), "telemetry": self.telemetry}
        base.with_suffix(".json").write_text(json.dumps(meta, indent=2))

    @classmethod
    def load(cls, basepath) -> "Chain":
        base = Path(basepath)
        meta = json.loads(base.with_suffix(".json").read_text())
        params = EnsembleParams.from_dict(meta["params"])
        K = compact_set_from_dict(meta["set"])
        cfg = ChainConfig(**meta["cfg"])
        rows = base.with_suffix(".csv").read_text().splitlines()[1:]
        # a chain without stored states saves a header-only file
        raw = np.loadtxt(rows, delimiter=",", ndmin=2) if rows else np.empty((0, 2 * params.N + 2))
        states = np.ascontiguousarray(raw[:, 1:-1]).view(complex)
        return cls(params, K, cfg, meta["seed"], states, raw[:, -1],
                   meta["acceptance"], meta["step_scale"],
                   telemetry=meta.get("telemetry"))


def run_chain(params: EnsembleParams, K: CompactSet, cfg: Optional[ChainConfig] = None,
              seed=None, init=None) -> Chain:
    """Run a Metropolis chain targeting the ensemble density on K.

    The initial state is an equilibrium sample unless `init`, array-like
    complex points, is given (`init=chain.states[-1]` resumes a stored
    chain; `init` itself is not modified); an `init` with coincident or
    non-finite points, or under the hard wall s = inf with a point off K,
    raises ValueError, since its density is -inf or nan.
    The hard-wall ensemble s = inf on a set of zero area (a segment) has
    no density in the plane, and raises InadmissibleParams.

    Proposals are isotropic Gaussian single-particle moves.  The step loop
    does not report numpy divide-by-zero: a proposal that lands exactly on
    another particle has log-distance -inf, and the move is rejected.
    """
    if params.s == math.inf and K.area() == 0.0:
        raise InadmissibleParams("inadmissible parameters: s = inf confines the points to "
                                 "K, which has zero area")
    cfg = cfg or ChainConfig()
    rng = np.random.default_rng(seed)
    n = params.N
    if init is not None:
        pts = np.array(init, dtype=complex).ravel()
        if pts.size != n:
            raise ValueError("init size does not match params.N")
        if not np.all(np.isfinite(pts)):
            raise ValueError("init has non-finite points")
    else:
        pts = equilibrium_sample(K, n, seed=rng)
    pair_sum = _pair_log_sum(pts)
    if pair_sum == -math.inf:
        raise ValueError("init has coincident points")

    scale = cfg.step_scale if cfg.step_scale is not None else 0.5 * K.capacity()
    scale_lo, scale_hi = 1e-4 * K.capacity(), 10.0 * K.capacity()
    g = np.atleast_1d(K.green(pts)).astype(float)
    if init is not None and params.s == math.inf and np.any(g > MEMBERSHIP_TOL):
        raise ValueError("init has points off K, where the hard wall s = inf gives density 0")
    gl = g.tolist()  # the green values of the current state
    ext = np.empty(n + 1, dtype=complex)  # the state, then the proposal at hand
    ext[:n] = pts
    pts = ext[:n]
    # ext[movers[k]] - ext[fixed[k]] is the (2, n - 1) block of the proposal
    # and of particle k against the other particles
    others = _others_index(n)
    movers = np.empty((n, 2, n - 1), dtype=others.dtype)
    movers[:, 0] = n
    movers[:, 1] = np.arange(n)[:, None]
    movers, fixed = list(movers), list(np.stack([others, others], axis=1))
    moved_in = [-1] * n  # first step of the batch in which k last moved
    beta, beta_s = params.beta, params.beta * params.s
    hard_wall, paired = params.s == math.inf, n > 1
    burn_in, thin = cfg.burn_in, cfg.thin
    log, absolute, add_reduce = np.log, np.absolute, np.add.reduce

    states = np.empty((cfg.steps // thin, n), dtype=complex)
    g_table, pair_sums = np.empty(states.shape), np.empty(len(states))
    stored = 0
    window_acceptance: list[float] = []
    scale_trace: list[float] = []
    batches = stale_points = inversion_errors = 0
    evaluated = 0  # points of the green calls that returned
    accepted_post = 0
    accepted_window = 0
    burn_accepts = 0

    total = burn_in + cfg.steps
    loop_start = time.perf_counter()
    with np.errstate(divide="ignore"):  # log 0 = -inf rejects a coincidence
        for first in range(0, total, _DRAW_BLOCK):
            b = min(_DRAW_BLOCK, total - first)
            idxs = rng.integers(0, n, size=b)
            unit_moves = rng.standard_normal(b) + 1j * rng.standard_normal(b)
            logu = np.log(rng.random(b)).tolist()
            ks = idxs.tolist()
            lo = hi = 0  # the batch holds the block's proposals lo..hi-1
            for i in range(b):
                k = ks[i]
                if i == hi or moved_in[k] == sub:
                    # a new batch from the current state, at fixed scale
                    if i < hi:
                        stale_points += 1
                    lo, sub = i, first + i
                    hi = min(b, i + _BATCH, (sub // _TUNE_WINDOW + 1) * _TUNE_WINDOW - first)
                    z_batch = pts[idxs[lo:hi]] + scale * unit_moves[lo:hi]
                    batches += 1
                    try:
                        g_batch = K.green(z_batch)
                    except InversionError:
                        # a later proposal may never be made: keep the one at hand
                        inversion_errors += 1
                        hi, z_batch = i + 1, z_batch[:1]
                        g_batch = K.green(z_batch)
                    evaluated += hi - lo
                    z_batch, g_batch = z_batch.tolist(), g_batch.tolist()
                z_new, g_new = z_batch[i - lo], g_batch[i - lo]
                step_index = first + i
                # O(N) change of the log density; -inf when the proposal
                # meets another particle or, for s = inf, leaves K
                if paired:
                    ext[n] = z_new
                    log_new, log_old = add_reduce(
                        log(absolute(ext[movers[k]] - ext[fixed[k]])), axis=1).tolist()
                    delta_pair = log_new - log_old
                else:
                    delta_pair = 0.0  # a lone particle has no pairs
                if not hard_wall:
                    delta = beta * delta_pair - beta_s * (g_new - gl[k])
                elif g_new > MEMBERSHIP_TOL:
                    delta = -math.inf
                else:
                    delta = beta * delta_pair
                if delta > logu[i]:
                    pts[k] = z_new
                    gl[k] = g_new
                    pair_sum += delta_pair
                    moved_in[k] = sub
                    if step_index < burn_in:
                        burn_accepts += 1
                        accepted_window += 1
                    else:
                        accepted_post += 1
                if step_index >= burn_in:
                    if (step_index - burn_in + 1) % thin == 0:
                        states[stored] = pts
                        g_table[stored] = gl
                        pair_sums[stored] = pair_sum
                        stored += 1
                elif (step_index + 1) % _TUNE_WINDOW == 0:
                    rate = accepted_window / _TUNE_WINDOW
                    if cfg.step_scale is None:
                        scale *= math.exp(0.7 * (rate - 0.35))
                        scale = min(max(scale, scale_lo), scale_hi)
                    window_acceptance.append(rate)
                    scale_trace.append(scale)
                    accepted_window = 0
                if (step_index + 1) % _FULL_RECOMPUTE_EVERY == 0:
                    pair_sum = _pair_log_sum(pts)  # resets the running sum's rounding drift
    loop_seconds = time.perf_counter() - loop_start

    log_dens, green_sums = _log_density(params, g_table, pair_sums)
    zero_acc = burn_in > 0 and burn_accepts == 0
    if zero_acc:
        warnings.warn("no proposal was accepted during burn-in; "
                      "the chain is almost surely mis-tuned")
    acc_rate = accepted_post / cfg.steps if cfg.steps else 0.0
    telemetry = {"scale_trace": scale_trace, "window_acceptance": window_acceptance,
                 "batches": batches, "stale_points": stale_points,
                 "lookahead_points": evaluated - total, "inversion_errors": inversion_errors,
                 "loop_seconds": loop_seconds}
    return Chain(params, K, cfg, seed, states, log_dens, acc_rate, scale, zero_acc, telemetry,
                 green_sums)


def _low_energy_bound(K: CompactSet, n: int, eps: float) -> float:
    return -(robin_energy(K) + eps) * n * (n - 1) / 2.0


def in_low_energy_set(K: CompactSet, c, eps: float) -> bool:
    """Membership in the low-energy set: the weighted Fekete objective of
    the array-like complex points is at least -(I[omega_K] + eps) N(N-1)/2."""
    n = np.size(c)
    if n < 2:
        return True  # empty pair product: both sides are trivial
    return bool(fekete.log_delta(K, c) >= _low_energy_bound(K, n, eps))


def _state_blocks(chain: Chain, per_state: int):
    """Views of the stored states in (states, N) blocks of about
    _CHUNK_ELEMENTS values, at per_state values a state (at least one)."""
    step = max(1, _CHUNK_ELEMENTS // per_state)
    for first in range(0, len(chain), step):
        yield chain.states[first:first + step]


def tail_mass_estimate(chain: Chain, eps: float) -> float:
    """Fraction of stored post-burn-in states outside the low-energy set.

    Each block of stored states gets one row-wise _pair_log_sum, bitwise the
    sum of in_low_energy_set on each state, so the two classify every state
    alike; a state with coincident points has objective -inf and counts as
    outside.  The green term reads chain.green_sums, recorded by run_chain
    bitwise equal to green on the stored states, so such a chain costs no
    green call."""
    if len(chain) < _MIN_STATES:
        raise ValueError(f"need at least {_MIN_STATES} stored post-burn-in states")
    n = chain.params.N
    pair = np.concatenate([_pair_log_sum(block) for block in _state_blocks(chain, n * n)])
    values = pair - (n - 1) * chain.green_sums
    return int(np.count_nonzero(~(values >= _low_energy_bound(chain.K, n, eps)))) / len(chain)


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
