"""The four benchmark workloads and their oracle checks.

Each workload builds its inputs in `__init__` (counted as set-up), runs one
pass of library work in `run` (the timed phase) and checks that pass's
outputs in `check` (not timed).  Library functions are looked up through
their modules during the pass, so a tracer installed between set-up and the
pass sees every call.  Calls go through `Ops.call`: one that raises counts
as one failed operation and ends the pass; the benchmark keeps going.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
from pathlib import Path

import numpy as np

ABS2 = lambda z: np.abs(z) ** 2  # noqa: E731
PAIR = lambda a, b: (a * np.conj(b)).real  # noqa: E731


class PassAborted(Exception):
    """A library call raised; the rest of the pass depends on its result."""


class Ops:
    """Counts library calls and oracle checks, attempted and failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def call(self, what, fn, /, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # any library failure is one failed operation
            self.failed += 1
            self.notes.append(f"raised in {what}: {exc!r}")
            raise PassAborted(what) from exc

    def check(self, label, ok, detail="") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(f"check failed: {label}: {detail}")


def _quiet_cli(cl, argv) -> int:
    """coulomblab.cli.main in-process, with its stdout captured."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cl.cli.main(argv)


def _finite_n_targets(N: int, s: float) -> tuple[float, float]:
    """Exact beta = 2 disk expectations of |z|^2 and of the pair product
    Re(z_1 conj z_2), from the mode ratios used by acceptance criterion 6."""
    rho = [(n + 1) * (s - n - 1) / ((n + 2) * (s - n - 2)) for n in range(N)]
    return sum(rho) / N, -sum(rho[:-1]) / (N * (N - 1))


class Workload:
    """Set up in `__init__`, one timed pass in `run`, its checks in `check`."""

    # hostspeed kernels of the kind of work that dominates the traced profile
    REFERENCE = ("interpreter",)

    def finish(self, ops: Ops) -> None:
        """Oracle checks that pool every pass of the run."""

    def diagnostics(self) -> dict:
        """Observations worth printing that are not checks."""
        return {}


class _ChainPipeline(Workload):
    """run_chain followed by the statistics of criteria 6 and 8."""

    TAIL_EPS = 0.2

    def __init__(self, cl, seed: int, K, ensembles):
        self.cl = cl
        self.seed = seed
        self.K = K
        self.ensembles = [(cl.sampler.EnsembleParams(N, s, 2.0, 0.1),
                           cl.sampler.ChainConfig(steps=steps, burn_in=burn_in, thin=thin))
                          for N, s, steps, burn_in, thin in ensembles]

    def run(self, p: int, ops: Ops) -> dict:
        cl, clock = self.cl, time.perf_counter
        out = {"chains": [], "chain_s": 0.0, "steps": 0, "ess": 0.0}
        for k, (params, cfg) in enumerate(self.ensembles):
            t0 = clock()
            ch = ops.call("sampler.run_chain", cl.sampler.run_chain, params, self.K, cfg,
                          seed=self.seed + 1000 * p + k)
            out["chain_s"] += clock() - t0
            out["steps"] += cfg.burn_in + cfg.steps
            res = {"chain": ch,
                   "abs2": ops.call("stats.linear_statistic", cl.stats.linear_statistic,
                                    ch, ABS2, 1, label="|z|^2"),
                   "pair": ops.call("stats.linear_statistic", cl.stats.linear_statistic,
                                    ch, PAIR, 2, label="pair"),
                   "moment": ops.call("stats.moment_statistic", cl.stats.moment_statistic,
                                      ch, ABS2, 1, 1, label="moment"),
                   "hist": ops.call("stats.intensity_histogram",
                                    cl.stats.intensity_histogram, ch),
                   "tail": ops.call("sampler.tail_mass_estimate",
                                    cl.sampler.tail_mass_estimate, ch, self.TAIL_EPS)}
            out["ess"] += res["abs2"].ess
            out["chains"].append(res)
        return out

    def check_common(self, out: dict, ops: Ops) -> None:
        for res in out["chains"]:
            ch, n = res["chain"], res["chain"].params.N
            # sample means: mean(u^2) >= mean(u)^2 with u the per-state mean |z|^2
            ops.check(f"N={n} moment >= squared mean",
                      res["moment"].estimate.real >= res["abs2"].estimate.real ** 2 - 1e-12,
                      f"{res['moment'].estimate.real} vs {res['abs2'].estimate.real ** 2}")
            hist = res["hist"]
            ops.check(f"N={n} histogram holds every particle",
                      hist.total_points == len(ch) * n and 0.999 <= hist.mass() <= 1 + 1e-9,
                      f"points {hist.total_points}, mass {hist.mass()}")


class ChainDisk(_ChainPipeline):
    """Unit disk, beta = 2, c0 = 0.1: the ensembles of criteria 6 and 8.

    The statistical oracles pool every pass of the run, so a run makes a
    fixed number of them however many passes fit.  The exact finite-N
    check is made at N = 16, as in criterion 6: at N = 32 a pass's chain is
    too short for its batch-means standard error to be honest."""

    def __init__(self, cl, seed: int, workdir: Path):
        super().__init__(cl, seed, cl.potential.Disk(0.0, 1.0),
                         [(16, 32.0, 20_000, 5_000, 10), (32, 64.0, 20_000, 5_000, 10)])
        self.targets = _finite_n_targets(16, 32.0)
        self.pooled = {"abs2": [], "pair": [], "tail16": [], "tail32": []}

    def check(self, out: dict, ops: Ops) -> None:
        self.check_common(out, ops)
        for res in out["chains"]:
            ch = res["chain"]
            ops.check(f"N={ch.params.N} acceptance in [0.2, 0.5]",
                      0.2 <= ch.acceptance_rate <= 0.5, f"{ch.acceptance_rate:.3f}")
        r16, r32 = out["chains"]
        for key in ("abs2", "pair"):
            self.pooled[key].append((r16[key].estimate.real, r16[key].stderr))
        self.pooled["tail16"].append(r16["tail"])
        self.pooled["tail32"].append(r32["tail"])

    def finish(self, ops: Ops) -> None:
        if not self.pooled["tail16"]:
            return
        for key, exact in zip(("abs2", "pair"), self.targets):
            est = np.mean([e for e, _ in self.pooled[key]])
            se = math.sqrt(sum(s * s for _, s in self.pooled[key])) / len(self.pooled[key])
            d = abs(est - exact)
            ops.check(f"N=16 {key} matches exact finite-N value", d <= 4 * se,
                      f"|{est:.6f} - {exact:.6f}| = {d:.2e} > 4 se = {4 * se:.2e}")
        t16, t32 = np.mean(self.pooled["tail16"]), np.mean(self.pooled["tail32"])
        ops.check("tail mass at N=16 <= 0.01", t16 <= 0.01, f"{t16}")
        ops.check("tail mass non-increasing N=16 -> 32", t32 <= t16 + 1e-12, f"{t32} > {t16}")


class ChainExterior(_ChainPipeline):
    """The ellipse (2, 1) written as the Laurent map 1.5 w + 0.5 / w, whose
    green is a Newton inversion; the closed-form Ellipse is the oracle."""

    def __init__(self, cl, seed: int, workdir: Path):
        super().__init__(cl, seed, cl.potential.ExteriorMap(1.5, (0.0, 0.5)),
                         [(16, 32.0, 2_000, 500, 2)])
        self.oracle = cl.potential.Ellipse(0.0, 2.0, 1.0)
        x = np.linspace(-3.0, 3.0, 61)
        y = np.linspace(-2.0, 2.0, 41)
        self.grid = (x[:, None] + 1j * y[None, :]).ravel()

    def check(self, out: dict, ops: Ops) -> None:
        self.check_common(out, ops)
        for label, z in (("fixed grid", self.grid),
                         ("stored states", out["chains"][0]["chain"].state_array().ravel())):
            d = float(np.max(np.abs(self.K.green(z) - self.oracle.green(z))))
            ops.check(f"ExteriorMap.green == Ellipse.green on {label}", d <= 1e-9,
                      f"max |diff| = {d:.2e}")
        ch = out["chains"][0]["chain"]
        ref = np.asarray([self.cl.sampler.log_density_unnormalized(ch.params, self.oracle, s)
                          for s in ch.states])
        d = float(np.max(np.abs(ref - ch.log_densities) / np.maximum(1.0, np.abs(ref))))
        ops.check("stored log densities match log_density_unnormalized", d <= 1e-9,
                  f"max relative diff = {d:.2e}")


class StripBL(Workload):
    """`coulomblab discretize` at N = 64 and 256 on the criterion-9 target,
    with 4 BL nodes per block so the exact LP runs without subsampling."""

    SIZES = (64, 256)
    # over half the pass is the transport LP, compiled and memory-heavy; in
    # trials the interpreter kernel did not track this workload at all
    REFERENCE = ("numpy",)
    # exact transport-LP optima of this target at the commit that added the benchmark
    BL_EXACT = {64: 0.23556757603304743, 256: 0.11624417700144982}
    SEPARATION_MIN = 0.40

    def __init__(self, cl, seed: int, workdir: Path):
        self.cl = cl
        self.seed = seed
        self.workdir = workdir
        self.config = workdir / "strip_bl.json"
        self.config.write_text(json.dumps({
            "schema_version": 1,
            "discretize": {"N": 64, "epsilon": 0.1, "base_atoms": 256,
                           "bl_nodes_per_block": 4}}))

    def run(self, p: int, ops: Ops) -> dict:
        out = {}
        for n in self.SIZES:
            outdir = self.workdir / f"pass{p}_N{n}"
            rc = ops.call("cli.main discretize", _quiet_cli, self.cl,
                          ["--config", str(self.config), "--seed", str(self.seed),
                           "--out", str(outdir), "discretize", "--N", str(n)])
            out[n] = (rc, outdir)
        return out

    def check(self, out: dict, ops: Ops) -> None:
        res = {}
        for n, (rc, outdir) in out.items():
            ops.check(f"discretize N={n} exit code 0", rc == 0, f"exit code {rc}")
            files = sorted(outdir.glob("discretize_*.json"))
            ops.check(f"discretize N={n} wrote one JSON", len(files) == 1, f"{files}")
            if rc != 0 or len(files) != 1:
                return
            res[n] = r = json.loads(files[0].read_text())
            ops.check(f"N={n} separation constant >= {self.SEPARATION_MIN}",
                      r["separation_constant"] >= self.SEPARATION_MIN,
                      f"{r['separation_constant']}")
            ops.check(f"N={n} BL equals the exact LP optimum",
                      abs(r["bl_distance"] - self.BL_EXACT[n]) <= 1e-6,
                      f"{r['bl_distance']!r} vs {self.BL_EXACT[n]!r}")
        gap = {n: abs(r["discrete_energy"] - r["continuous_energy"]) for n, r in res.items()}
        ops.check("BL strictly decreasing", res[64]["bl_distance"] > res[256]["bl_distance"],
                  f"{res[64]['bl_distance']} <= {res[256]['bl_distance']}")
        ops.check("energy gap decreasing", gap[64] > gap[256], f"{gap}")


class VerifyLight(Workload):
    """`coulomblab verify` on the criteria without long chains or strips."""

    CRITERIA = (1, 2, 3, 4, 5, 11)
    REFERENCE = ("numpy",)  # partition_bounds' vectorized quadrature

    def __init__(self, cl, seed: int, workdir: Path):
        self.cl = cl
        self.seed = seed
        self.workdir = workdir
        self.string_flags = 0  # clauses whose "ok" the JSON holds as a string

    def run(self, p: int, ops: Ops) -> dict:
        outdir = self.workdir / f"pass{p}"
        # exit code 1 is expected: documented clauses fail by design
        ops.call("cli.main verify", _quiet_cli, self.cl,
                 ["--seed", str(self.seed), "--out", str(outdir), "verify",
                  "--criteria", ",".join(map(str, self.CRITERIA))])
        return {"outdir": outdir}

    def diagnostics(self) -> dict:
        return {"clauses with ok written as a string": self.string_flags}

    def check(self, out: dict, ops: Ops) -> None:
        files = sorted(out["outdir"].glob("verify_*.json"))
        ops.check("verify wrote one JSON", len(files) == 1, f"{files}")
        if len(files) != 1:
            return
        criteria = json.loads(files[0].read_text())["criteria"]
        ops.check("verify ran the requested criteria",
                  sorted(c["number"] for c in criteria) == sorted(self.CRITERIA),
                  f"{[c['number'] for c in criteria]}")
        for c in criteria:
            for clause in c["clauses"]:
                # the CLI writes numpy booleans through json's default=str, as
                # "True" / "False"; read those as the outcome and count them
                ok = clause["ok"]
                if isinstance(ok, str):
                    self.string_flags += 1
                    ok = {"True": True, "False": False}.get(ok)
                ops.check(f"criterion {c['number']} {clause['name']}",
                          ok is (not clause["expected_to_fail"]), clause["detail"])


WORKLOADS = {"chain_disk": ChainDisk, "chain_exterior": ChainExterior,
             "strip_bl": StripBL, "verify_light": VerifyLight}
