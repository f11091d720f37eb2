"""Release acceptance suite.

Each criterion is a function returning a CriterionResult with one clause
per asserted bound, runnable from the CLI (`coulomblab verify`) and from
tests/test_acceptance.py.  Shared heavy artifacts (chains, Fekete solves,
discretizations) are cached on a lab object so criteria can reuse them.

Three groups of clauses are recorded as `expected_to_fail`: hitting their
stated tolerances is provably impossible (the transfinite-diameter
estimate at N = 60 sits 7-8 percent above the capacity at the *exact*
optimizer, the extremal upper bound divided by N^2 is 0.083 at N = 64 at
the exact optimizer, and the N = 16 ensemble carries finite-N biases that
are hundreds of Monte Carlo standard errors wide).  docs/VERIFICATION.md
carries the full analysis; the suite still evaluates them honestly.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from . import fekete, measures, partition, potential, sampler, stats
from .measures import CircleMeasure
from .potential import Disk, Ellipse, Segment
from .sampler import ChainConfig, EnsembleParams

# frozen constants measured at build time (see docs/VERIFICATION.md)
RESIDUAL_BOUND_S_INF = 1e-9        # measured exactly 0 over N in 10..200
RESIDUAL_RATIO_BOUND_S_2N = 0.25   # measured 0.153 over N in 10..200
SEPARATION_CONSTANT_MIN = 0.40     # measured 0.447..0.458 over N in {64,256,1024}
PERTURBATION_CONSTANT_MAX = 0.02   # measured <= 0.006 over N in {64,256,1024}
SYMMETRIZER_N3_BOUND = 1.0         # measured 0.271 over N in 8..64, |f| <= 1


@dataclass
class Clause:
    name: str
    ok: bool
    detail: str
    expected_to_fail: bool = False

    def line(self) -> str:
        mark = "PASS" if self.ok else ("FAIL (documented)" if self.expected_to_fail else "FAIL")
        return f"  [{mark}] {self.name}: {self.detail}"


@dataclass
class CriterionResult:
    number: int
    title: str
    clauses: list
    runtime_seconds: float = 0.0
    diagnostics: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """True when every clause holds or is a documented expected failure."""
        return all(c.ok or c.expected_to_fail for c in self.clauses)

    def to_dict(self) -> dict:
        return {"number": self.number, "title": self.title, "passed": self.passed,
                "runtime_seconds": self.runtime_seconds,
                "clauses": [{"name": c.name, "ok": bool(c.ok), "detail": c.detail,
                             "expected_to_fail": c.expected_to_fail} for c in self.clauses],
                "diagnostics": self.diagnostics}

    def summary_line(self) -> str:
        return (f"criterion {self.number:2d} "
                f"[{'PASS' if self.passed else 'FAIL'}] {self.title} "
                f"({self.runtime_seconds:.1f}s)")


class AcceptanceLab:
    """Cache of the heavy shared artifacts used by several criteria; criterion
    3's disk bounds take the exact Fekete optimum from fekete.max_log_delta."""

    DISK = Disk(0.0, 1.0)
    SEGMENT = Segment(-2.0, 2.0)
    ELLIPSE = Ellipse(0.0, 2.0, 1.0)

    @cached_property
    def chain_16(self):
        p = EnsembleParams(16, 32.0, 2.0, 0.1)
        return sampler.run_chain(p, self.DISK,
                                 ChainConfig(steps=260_000, burn_in=50_000, thin=10),
                                 seed=61)

    @cached_property
    def chain_32(self):
        p = EnsembleParams(32, 64.0, 2.0, 0.1)
        return sampler.run_chain(p, self.DISK,
                                 ChainConfig(steps=160_000, burn_in=40_000, thin=10),
                                 seed=62)

    @cached_property
    def chain_1(self):
        p = EnsembleParams(1, 4.0, 2.0, 0.1)
        return sampler.run_chain(p, self.DISK,
                                 ChainConfig(steps=420_000, burn_in=20_000, thin=4),
                                 seed=71)

    @cached_property
    def chain_2(self):
        p = EnsembleParams(2, 8.0, 2.0, 0.1)
        return sampler.run_chain(p, self.DISK,
                                 ChainConfig(steps=1_000_000, burn_in=50_000, thin=5),
                                 seed=72)

    @cached_property
    def fekete_60(self):
        return {"disk": fekete.solve(self.DISK, 60, seed=81),
                "segment": fekete.solve(self.SEGMENT, 60, seed=82),
                "ellipse": fekete.solve(self.ELLIPSE, 60, seed=83)}

    @cached_property
    def nu_eps(self):
        return measures.smooth(measures.equilibrium_discretization(self.DISK, 256), 0.1)

    @cached_property
    def discretize_results(self):
        return {n: measures.discretize(self.nu_eps, n) for n in (64, 256, 1024)}

    @cached_property
    def bl_solves(self):
        """(distance, solve record) of each discretization to nu_eps at
        8 nodes per block."""
        target = self.nu_eps.to_atomic(8)
        return {n: measures._bl_solve(measures.AtomicMeasure(res.configuration), target)
                for n, res in self.discretize_results.items()}


def _timed(fn: Callable[[], CriterionResult]) -> CriterionResult:
    t0 = time.time()
    out = fn()
    out.runtime_seconds = time.time() - t0
    return out


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def criterion_1(lab: AcceptanceLab) -> CriterionResult:
    """Exact beta = 2 disk partition values and the cubature cross-check."""
    clauses = []
    for s in (8.0, 16.0, 64.0):
        e1 = partition.log_partition_disk_exact(1, s)
        t1 = math.log(math.pi * s / (s - 1))
        e2 = partition.log_partition_disk_exact(2, s)
        t2 = math.log(math.pi**2 * s**2 / ((s - 1) * (s - 2)))
        clauses.append(Clause(f"closed form N=1 s={s:g}", abs(e1 - t1) <= 1e-12,
                              f"|diff| = {abs(e1 - t1):.2e} <= 1e-12"))
        clauses.append(Clause(f"closed form N=2 s={s:g}", abs(e2 - t2) <= 1e-12,
                              f"|diff| = {abs(e2 - t2):.2e} <= 1e-12"))
        for n, ex in ((1, e1), (2, e2)):
            p = EnsembleParams(n, s, 2.0, 0.1)
            z = partition.partition_cubature(lab.DISK, p)
            rel = abs(z - math.exp(ex)) / math.exp(ex)
            clauses.append(Clause(f"cubature N={n} s={s:g}", rel <= 1e-6,
                                  f"relative difference {rel:.2e} <= 1e-6"))
    return CriterionResult(1, "exact beta=2 disk partition vs cubature", clauses)


def criterion_2(lab: AcceptanceLab) -> CriterionResult:
    """Asymptote residuals: O(1) at s = inf, O(log N) at s = 2N."""
    ns = range(10, 201)
    r_inf = max(abs(partition.asymptotic_residual(n, math.inf)) for n in ns)
    r_2n = max(abs(partition.asymptotic_residual(n, 2.0 * n)) / math.log(n) for n in ns)
    clauses = [
        Clause("s=inf residual bounded", r_inf <= RESIDUAL_BOUND_S_INF,
               f"max |residual| = {r_inf:.2e} <= {RESIDUAL_BOUND_S_INF:g}"),
        Clause("s=2N residual O(log N)", r_2n <= RESIDUAL_RATIO_BOUND_S_2N,
               f"max |residual|/log N = {r_2n:.4f} <= {RESIDUAL_RATIO_BOUND_S_2N}"),
    ]
    return CriterionResult(2, "partition asymptote residuals", clauses)


def criterion_3(lab: AcceptanceLab) -> CriterionResult:
    """Leading-order trend of the extremal upper bound."""
    uppers = {}
    for n in (16, 32, 64):
        p = EnsembleParams(n, 2.0 * n, 2.0, 0.1)
        b = partition.partition_bounds(lab.DISK, p, fekete.max_log_delta(lab.DISK, n))
        uppers[n] = b.upper / n**2
    decreasing = abs(uppers[16]) > abs(uppers[32]) > abs(uppers[64])
    clauses = [
        Clause("upper/N^2 within 0.05 at N=64", abs(uppers[64]) <= 0.05,
               f"|upper|/N^2 = {abs(uppers[64]):.4f}, needs <= 0.05; the exact "
               "optimizer already gives 0.0831 (= log N / N + log(pi(1+1/N))/N)",
               expected_to_fail=True),
        Clause("upper/N^2 decreasing in magnitude", decreasing,
               f"values {uppers[16]:.4f} > {uppers[32]:.4f} > {uppers[64]:.4f}"),
    ]
    p8 = EnsembleParams(8, 16.0, 2.0, 0.1)
    b8 = partition.partition_bounds(lab.DISK, p8, fekete.max_log_delta(lab.DISK, 8))
    exact8 = partition.log_partition_disk_exact(8, 16.0)
    clauses.append(Clause("sandwich at N=8", b8.lower <= exact8 <= b8.upper,
                          f"{b8.lower:.3f} <= {exact8:.3f} <= {b8.upper:.3f}"))
    return CriterionResult(3, "partition upper-bound trend and sandwich", clauses)


def criterion_4(lab: AcceptanceLab) -> CriterionResult:
    """Capacity estimates at N = 60 and the containment diagnostic."""
    targets = {"disk": (lab.DISK, 1.0, 0.02), "segment": (lab.SEGMENT, 1.0, 0.05),
               "ellipse": (lab.ELLIPSE, 1.5, 0.05)}  # set, capacity, tolerance
    clauses, diags = [], []
    for name, res in lab.fekete_60.items():
        K, cap, tol = targets[name]
        est = fekete.capacity_estimate(res)
        rel = abs(est - cap) / cap
        clauses.append(Clause(f"capacity estimate {name}", rel <= tol,
                              f"estimate {est:.5f} vs {cap}, relative error "
                              f"{rel:.4f}, needs <= {tol}; the estimate at the "
                              "exact optimizer is capacity * N^(1/(N-1)) "
                              "~ 7-8% high at N=60",
                              expected_to_fail=True))
        clauses.append(Clause(f"containment {name}",
                              res.converged and res.max_green_violation <= 1e-8,
                              f"max green violation {res.max_green_violation:.2e}, "
                              f"converged={res.converged}"))
    # solver-quality diagnostics against provable optima
    d = lab.fekete_60["disk"].log_delta
    diags.append(f"disk log_delta = {d:.9f}, exact optimum (N/2) log N = "
                 f"{fekete.max_log_delta(lab.DISK, 60):.9f}")
    for name, res in lab.fekete_60.items():
        runs = ", ".join(f"{st['iterations']} {st['stop_reason']} {st['shifted_steps']} "
                         f"{st['evaluations']}" for st in res.starts)
        diags.append(f"{name} starts (iterations, stop reason, shifted steps, line-search "
                     f"evaluations; start {res.start_index} returned): {runs}")
    return CriterionResult(4, "Fekete capacity estimates and containment",
                           clauses, diagnostics=diags)


def criterion_5(lab: AcceptanceLab) -> CriterionResult:
    """Rate-function closed forms, positivity, and the hard-constraint case."""
    beta = 2.0
    family = [(f"r={r}", CircleMeasure(0.0, r)) for r in (0.25, 0.5, 2.0, 4.0)]
    ells = (0.25, 0.5, 1.0)
    scan = stats.positivity_scan(lab.DISK, family, ells, beta=beta)
    worst = 0.0
    for rep, r in zip(scan, [nu.radius for _, nu in family for _ in ells]):
        expected = (beta / 2) * abs(math.log(r)) if r < 1 \
            else (beta / 2) * (2.0 / rep.ell - 1.0) * math.log(r)
        worst = max(worst, abs(rep.rate - expected))
    clauses = [Clause("circle-family closed forms", worst <= 1e-6,
                      f"max |rate - closed form| = {worst:.2e} <= 1e-6"),
               Clause("positivity off the equilibrium measure",
                      all(rep.rate > 0 for rep in scan),
                      f"min rate over scan = {min(rep.rate for rep in scan):.4f} > 0")]
    inf_cases = [rep.rate for rep in stats.positivity_scan(lab.DISK, family[2:], (0.0,), beta=beta)]
    clauses.append(Clause("ell=0 off-K gives +inf", all(v == math.inf for v in inf_cases),
                          f"rates {inf_cases}"))
    return CriterionResult(5, "large-deviation rate function", clauses)


def criterion_6(lab: AcceptanceLab) -> CriterionResult:
    """Linear statistics of the N = 16 disk chain against weak-star targets."""
    ch = lab.chain_16
    lib = stats._STAT_LIBRARY
    r_z = stats.linear_statistic(ch, *lib["z"], label="z")
    r_abs2 = stats.linear_statistic(ch, *lib["abs2"], label="|z|^2")
    r_pair = stats.linear_statistic(ch, *lib["pair_product"], label="pair")
    r_mom = stats.moment_statistic(ch, lib["abs2"][0], 1, 1, label="moment")
    clauses = [
        Clause("f=z z-score", abs(r_z.zscore) <= 3,
               f"|z| = {abs(r_z.zscore):.2f} <= 3"),
        Clause("f=|z|^2 z-score", abs(r_abs2.zscore) <= 3,
               f"|z| = {abs(r_abs2.zscore):.1f}, needs <= 3; the exact finite-N "
               "expectation is 0.8878, about 140 standard errors below the "
               "weak-star target 1", expected_to_fail=True),
        Clause("n=2 product z-score", abs(r_pair.zscore) <= 3,
               f"|z| = {abs(r_pair.zscore):.1f}, needs <= 3; exact finite-N "
               "expectation -0.0550 vs target 0", expected_to_fail=True),
        Clause("moment k=m=1 z-score", abs(r_mom.zscore) <= 3,
               f"|z| = {abs(r_mom.zscore):.1f}, needs <= 3; the squared-average "
               "carries the same finite-N bias", expected_to_fail=True),
    ]
    # correctness cross-check: the chain must match the *exact finite-N*
    # determinantal expectations within Monte Carlo error; mode k has
    # E|z|^2 = h_{k+1}/h_k, a ratio of monomial norms
    k = np.arange(16)
    rho = (partition.disk_mode_mass(k + 1, 32.0) / partition.disk_mode_mass(k, 32.0)).tolist()
    e_abs2 = sum(rho) / 16
    e_pair = -sum(rho[:-1]) / (16 * 15)
    d1 = abs(r_abs2.estimate.real - e_abs2)
    d2 = abs(r_pair.estimate.real - e_pair)
    clauses.append(Clause("chain matches exact finite-N values",
                          d1 <= 4 * r_abs2.stderr and d2 <= 4 * r_pair.stderr,
                          f"|z|^2: |{r_abs2.estimate.real:.6f} - {e_abs2:.6f}| = "
                          f"{d1:.2e} <= 4se={4 * r_abs2.stderr:.2e}; pair: {d2:.2e} "
                          f"<= {4 * r_pair.stderr:.2e}"))
    diags = [f"acceptance rate {ch.acceptance_rate:.3f}, "
             f"PSR {sampler.potential_scale_reduction(ch):.4f}, states {len(ch)}"]
    return CriterionResult(6, "linear statistics z-scores", clauses, diagnostics=diags)


def _pair_distance_cdf(params: EnsembleParams, levels: np.ndarray) -> np.ndarray:
    """Exact pair-distance CDF for the N = 2, beta = 2 disk ensemble by the
    rotational reduction (angular integral in closed form)."""
    r, u = partition._radial_rule(params, 48)
    A = r[:, None] ** 2 + r[None, :] ** 2
    B = 2.0 * np.outer(r, r)
    W = np.outer(u, u)
    denom = float(np.sum(W * 2 * math.pi * A))
    out = np.empty(levels.size)
    for i, d in enumerate(levels):
        c = np.clip((A - d * d) / B, -1.0, 1.0)
        th = np.arccos(c)
        out[i] = float(np.sum(W * 2.0 * (A * th - B * np.sin(th)))) / denom
    return out


def criterion_7(lab: AcceptanceLab) -> CriterionResult:
    """Sampler correctness against the closed-form radial CDF at N = 1 and
    the pair-distance quadrature at N = 2."""
    ch1 = lab.chain_1
    samples = np.abs(ch1.states.ravel())[:100_000]
    sorted_r = np.sort(samples)
    emp = np.arange(1, sorted_r.size + 1) / sorted_r.size
    # the weight exp(-beta s green) is the k = 0 mode's exp(-2 s' green)
    s = ch1.params.beta * ch1.params.s / 2
    cdf = partition.disk_mode_mass(0, s, sorted_r) / partition.disk_mode_mass(0, s)
    ks = float(np.max(np.abs(cdf - emp)))
    clauses = [Clause("N=1 radial Kolmogorov-Smirnov", ks <= 0.02,
                      f"KS = {ks:.4f} <= 0.02 at {sorted_r.size} samples")]
    ch2 = lab.chain_2
    d = np.abs(ch2.states[:, 0] - ch2.states[:, 1])
    edges = np.linspace(0.0, 3.0, 41)
    counts, _ = np.histogram(d, bins=edges)
    phat = np.concatenate([counts / d.size, [np.mean(d >= 3.0)]])
    cdf_vals = _pair_distance_cdf(ch2.params, edges)
    p = np.concatenate([np.diff(cdf_vals), [1.0 - cdf_vals[-1]]])
    tv = 0.5 * float(np.sum(np.abs(phat - p)))
    clauses.append(Clause("N=2 pair-distance total variation", tv <= 0.05,
                          f"TV = {tv:.4f} <= 0.05 over 40 bins + tail"))
    return CriterionResult(7, "sampler oracles at N=1 and N=2", clauses)


def criterion_8(lab: AcceptanceLab) -> CriterionResult:
    """Low-energy-set tail masses."""
    t16 = sampler.tail_mass_estimate(lab.chain_16, 0.2)
    t32 = sampler.tail_mass_estimate(lab.chain_32, 0.2)
    clauses = [
        Clause("tail mass at N=16", t16 <= 0.01, f"estimate {t16:.4f} <= 0.01"),
        Clause("non-increasing at N=32", t32 <= t16 + 1e-12,
               f"{t32:.4f} <= {t16:.4f}"),
    ]
    return CriterionResult(8, "low-energy-set tail mass", clauses)


def criterion_9(lab: AcceptanceLab) -> CriterionResult:
    """Strip discretization: separation, distance decay, energy convergence,
    and perturbation-ball energy stability."""
    nu = lab.nu_eps
    cont = measures.continuous_energy(nu)
    res = lab.discretize_results
    bl = {n: value for n, (value, _) in lab.bl_solves.items()}
    seps = {n: r.separation_constant for n, r in res.items()}
    gaps = {n: abs(r.discrete_energy - cont) for n, r in res.items()}
    slope = (math.log(bl[1024]) - math.log(bl[64])) / (math.log(1024) - math.log(64))
    clauses = [
        Clause("separation constant", all(v >= SEPARATION_CONSTANT_MIN for v in seps.values()),
               f"min sep * sqrt(N) = {min(seps.values()):.3f} >= {SEPARATION_CONSTANT_MIN}"),
        Clause("bl distance strictly decreasing", bl[64] > bl[256] > bl[1024],
               f"{bl[64]:.4f} > {bl[256]:.4f} > {bl[1024]:.4f}"),
        Clause("bl log-log slope", slope <= -0.2, f"slope = {slope:.3f} <= -0.2"),
        Clause("energy gap strictly decreasing", gaps[64] > gaps[256] > gaps[1024],
               f"{gaps[64]:.4f} > {gaps[256]:.4f} > {gaps[1024]:.4f}"),
    ]
    worst = 0.0
    for n, r in res.items():
        ball = measures.perturbation_ball(r.configuration, r.separation_constant)
        devs = [ball.energy_deviation(ball.sample(seed=[91, n, i])) for i in range(100)]
        worst = max(worst, max(devs) * math.sqrt(n) / math.log(n))
    clauses.append(Clause("perturbation energy deviation",
                          worst <= PERTURBATION_CONSTANT_MAX,
                          f"max dev * sqrt(N)/log N = {worst:.4f} <= "
                          f"{PERTURBATION_CONSTANT_MAX}"))
    diags = [f"bl N={n}: {r['path']} {r['rows']}x{r['cols']}, {r['status']}, "
             f"{r['seconds']:.2f}s" for n, (_, r) in lab.bl_solves.items()]
    for n, r in res.items():
        inv = r.inversion_record()
        diags.append(f"strip inversion N={n}: {inv['strips']} strips, "
                     f"{inv['max_iterations']} max / {inv['total_iterations']} total "
                     f"Newton iterations, {inv['capped_strips']} capped")
    return CriterionResult(9, "strip discretization diagnostics", clauses, diagnostics=diags)


def criterion_10(lab: AcceptanceLab) -> CriterionResult:
    """Metric exactness and the mollifier contraction."""
    d01 = measures.bl_distance(measures.AtomicMeasure([0.0]), measures.AtomicMeasure([1.0]))
    d05 = measures.bl_distance(measures.AtomicMeasure([0.0]), measures.AtomicMeasure([5.0]))
    clauses = [
        Clause("bl(delta_0, delta_1) = 1", abs(d01 - 1.0) <= 1e-9, f"value {d01:.12f}"),
        Clause("bl(delta_0, delta_5) = 2", abs(d05 - 2.0) <= 1e-9, f"value {d05:.12f}"),
    ]
    rng = np.random.default_rng(1010)
    worst_excess = -math.inf
    records = []
    for eps, reps, nodes in ((0.5, 400, 24), (0.1, 400, 24), (0.01, 200, 48)):
        for _ in range(reps):
            k = int(rng.integers(1, 5))
            pts = rng.uniform(-1, 1, k) + 1j * rng.uniform(-1, 1, k)
            w = rng.random(k) + 0.05
            nu = measures.AtomicMeasure(pts, w / w.sum())
            d, record = measures._bl_solve(nu, measures.smooth(nu, eps).to_atomic(nodes))
            worst_excess = max(worst_excess, d - eps)
            records.append(record)
    clauses.append(Clause("bl(nu, smooth(nu, eps)) <= eps", worst_excess <= 0.0,
                          f"max (distance - eps) = {worst_excess:.2e} over {len(records)} cases"))
    en = measures.continuous_energy(measures.smooth(measures.AtomicMeasure([0.0]), 0.1))
    target = 0.25 + math.log(10.0)
    clauses.append(Clause("mollified point energy", abs(en - target) <= 1e-6,
                          f"|{en:.9f} - {target:.9f}| <= 1e-6"))
    paths = [r["path"] for r in records]
    diag = (f"bl solves: {paths.count('assignment')} assignment, "
            f"{paths.count('transport')} transport, max lp_vars "
            f"{max((r['lp_vars'] for r in records if 'lp_vars' in r), default=0)}, "
            f"statuses {'/'.join(sorted({r['status'] for r in records}))}, "
            f"{sum(r['seconds'] for r in records):.2f}s")
    return CriterionResult(10, "bounded-Lipschitz metric and mollifier", clauses,
                           diagnostics=[diag])


def criterion_11(lab: AcceptanceLab) -> CriterionResult:
    """Symmetrizer error bounds at n = 2 (exact) and n = 3 (stable constant)."""
    rng = np.random.default_rng(1111)
    worst2 = -math.inf
    worst3 = 0.0
    for N in (8, 16, 32, 64):
        for t in range(5):
            pts = rng.normal(size=N) + 1j * rng.normal(size=N)
            a, b, c = rng.normal(size=3) + 1j * rng.normal(size=3)
            f2 = lambda z1, z2: np.cos((a * z1).real) * np.sin((b * z2).imag)
            vals = np.abs(f2(pts[:, None], pts[None, :]))
            fmax = float(vals.max())
            dev = abs(stats.symmetrize(f2, pts, 2) - stats.tensor_integral(f2, pts, 2))
            worst2 = max(worst2, dev - 2.0 * fmax / (N - 1))
            f3 = lambda z1, z2, z3: (np.cos((a * z1).real) * np.sin((b * z2).imag)
                                     * np.cos((c * z3).real))
            dev3 = abs(stats.symmetrize(f3, pts, 3) - stats.tensor_integral(f3, pts, 3))
            worst3 = max(worst3, N * dev3)  # |f| <= 1 by construction
    clauses = [
        Clause("n=2 bound 2 max|f|/(N-1)", worst2 <= 1e-12,
               f"max (deviation - bound) = {worst2:.2e} <= 1e-12"),
        Clause("n=3 scaled deviation bounded", worst3 <= SYMMETRIZER_N3_BOUND,
               f"max N * deviation = {worst3:.4f} <= {SYMMETRIZER_N3_BOUND}"),
    ]
    return CriterionResult(11, "symmetrizer error bounds", clauses)


RUNTIME_BUDGETS = {1: 60, 2: 60, 3: 300, 4: 300, 5: 60, 6: 600, 7: 600, 8: 600,
                   9: 300, 10: 60, 11: 60}

_CRITERIA = {1: criterion_1, 2: criterion_2, 3: criterion_3, 4: criterion_4,
             5: criterion_5, 6: criterion_6, 7: criterion_7, 8: criterion_8,
             9: criterion_9, 10: criterion_10, 11: criterion_11}


def run_criterion(number: int, lab: Optional[AcceptanceLab] = None) -> CriterionResult:
    lab = lab or AcceptanceLab()
    result = _timed(lambda: _CRITERIA[number](lab))
    budget = RUNTIME_BUDGETS[number]
    result.clauses.append(Clause("runtime budget", result.runtime_seconds < budget,
                                 f"{result.runtime_seconds:.1f}s < {budget}s "
                                 "(shared artifacts attributed to first use)"))
    return result


def run_all(numbers=None):
    """Run the given criteria (all by default) on one shared lab, printing
    each result as it completes."""
    lab = AcceptanceLab()
    results = []
    for n in numbers or sorted(_CRITERIA):
        r = run_criterion(n, lab)
        results.append(r)
        print(r.summary_line())
        for c in r.clauses:
            print(c.line())
        for d in r.diagnostics:
            print(f"  note: {d}")
    return results
