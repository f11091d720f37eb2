"""coulomblab benchmark: one workload per run, checked against oracles.

Usage, from the repository root:

    python3 bench/run.py --workload chain_disk --seed 61 --seconds 20 --trace 0

Workloads: chain_disk, chain_exterior, strip_bl, verify_light (see
bench/README.md for why each exists).  The run imports coulomblab from
./src, sets up the workload several times, then repeats passes of it for
at least --seconds.  With --trace 0 the last stdout line is the end-to-end
result; with --trace 1 the run spends half its time untraced and half with
every public library function wrapped in spans, and the last line carries
the per-layer metrics.  Earlier stdout lines give every metric by name
with its unit, and the run's metadata.  Any failed oracle check or raised
library call makes `correct` false; the exit code is 0 whenever a result
was printed, and 2 when ./src/coulomblab or BENCHMARK.json is missing.
"""

from __future__ import annotations

import os

# before numpy loads: one BLAS/OpenMP thread, and no fekete thread pool
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("COULOMBLAB_THREADS", None)

import argparse
import importlib
import json
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np
import scipy

import hostspeed
from spans import GREEN_CLASSES, LAYERS, Tracer
from workloads import WORKLOADS, Ops, PassAborted

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
SETUP_REPEATS = 9

# per-layer metric names reported by the traced run; see BENCHMARK.json
SPAN_SELF = ("sampler.run_chain", "sampler.tail_mass_estimate", "fekete.log_delta",
             "stats.linear_statistic", "stats.moment_statistic",
             "stats.intensity_histogram", "stats.positivity_scan", "measures.discretize",
             "measures.bl_distance", "measures.continuous_energy", "fekete.solve",
             "partition.partition_bounds", "partition.partition_cubature",
             "partition.log_partition_disk_exact", "acceptance.run_criterion", "cli.main")
SPAN_CALLS = ("fekete.log_delta", "fekete.solve")
COUNTS = ("sampler.run_chain.steps", "sampler.tail_mass_estimate.states",
          "stats.states_processed", "measures.discretize.points_generated",
          "measures.bl_distance.atoms", "measures.bl_distance.lp_vars_computed",
          "fekete.iterations")


def fresh_import():
    """Import coulomblab and its CLI from ./src, dropping any earlier copy,
    so each set-up repetition pays the package's own import cost."""
    for key in [k for k in sys.modules if k == "coulomblab" or k.startswith("coulomblab.")]:
        del sys.modules[key]
    cl = importlib.import_module("coulomblab")
    importlib.import_module("coulomblab.cli")
    if Path(cl.__file__).resolve().parent != SRC / "coulomblab":
        raise ImportError(f"coulomblab was imported from {cl.__file__}, not from {SRC}")
    return cl


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def metadata(args) -> dict:
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else None,
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "coulomblab_threads": os.environ.get("COULOMBLAB_THREADS"),
            "git_commit": git_commit()}


class Pass(NamedTuple):
    wall: float    # raw seconds of the timed phase
    speed: float   # mean host factor before and after the pass
    out: dict      # the pass's chain counters; empty if a call raised
    rss_mb: float  # peak resident memory of the process so far

    @property
    def norm(self) -> float:
        return self.wall / self.speed


def guarded(check, *args) -> None:
    """Run oracle checks; output they cannot read counts as one failed check."""
    ops = args[-1]
    try:
        check(*args)
    except Exception as exc:  # e.g. a missing key in the program's output
        ops.check(f"{check.__qualname__} could read the outputs", False, repr(exc))


def run_passes(workload, ops, budget: float, pass0: int, tracer=None) -> list:
    """Start passes until `budget` seconds have gone, so a run measures at
    least `budget` and at most one pass more.  An aborted pass keeps its
    time and counts as failed."""
    done, start, p = [], time.perf_counter(), pass0
    before = hostspeed.factor(workload.REFERENCE)
    while True:
        if tracer is not None:
            tracer.install()
        t0 = time.perf_counter()
        try:
            out = workload.run(p, ops)
        except PassAborted:
            out = None
        finally:
            wall = time.perf_counter() - t0
            if tracer is not None:
                tracer.uninstall()
        if out is not None:
            guarded(workload.check, out, ops)
        after = hostspeed.factor(workload.REFERENCE)
        # keep the scalars only, so peak RSS does not grow with the pass count
        kept = {k: v for k, v in (out or {}).items() if k in ("chain_s", "steps", "ess")}
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        done.append(Pass(wall, 0.5 * (before + after), kept, rss_mb))
        before = after
        p += 1
        if time.perf_counter() - start >= budget:
            return done


def chain_rates(done) -> dict:
    chains = [x for x in done if "chain_s" in x.out]
    if not chains:
        return {}
    return {"steps_per_s": sum(x.out["steps"] for x in chains)
            / sum(x.out["chain_s"] / x.speed for x in chains),
            "ess_per_s": sum(x.out["ess"] for x in chains) / sum(x.norm for x in chains)}


def layer_metrics(tracer, traced, untraced) -> dict:
    by_name, counts = tracer.summary()
    k = len(traced)
    speed = statistics.mean(x.speed for x in traced)
    per = lambda x: x / k  # noqa: E731  per traced pass
    sec = lambda x: x / k / speed  # noqa: E731  normalized seconds per traced pass
    m = {}
    for label in GREEN_CLASSES.values():
        name = f"potential.green.{label}"
        s, calls = by_name.get(name, (0.0, 0))
        m[name + ".calls"] = per(calls)
        m[name + ".points"] = per(counts.get(name + ".points", 0))
        m[name + ".self_s"] = sec(s)
    for name in SPAN_SELF:
        m[name + ".self_s"] = sec(by_name.get(name, (0.0, 0))[0])
    for name in SPAN_CALLS:
        m[name + ".calls"] = per(by_name.get(name, (0.0, 0))[1])
    for name in COUNTS:
        m[name] = per(counts.get(name, 0))
    steps = counts.get("sampler.run_chain.steps", 0)
    m["sampler.us_per_step"] = 1e6 * tracer.inclusive("sampler.run_chain") / speed / steps \
        if steps else 0.0
    proposed = counts.get("sampler.post_proposed", 0)
    m["sampler.accept_ratio"] = counts.get("sampler.post_accepted", 0) / proposed \
        if proposed else 0.0
    solves = by_name.get("fekete.solve", (0.0, 0))[1]
    m["fekete.converged_ratio"] = counts.get("fekete.converged", 0) / solves if solves else 0.0
    for layer in LAYERS:
        m[layer + ".self_s"] = sec(sum(s for n, (s, _) in by_name.items()
                                       if n.split(".", 1)[0] == layer))
    m["trace.wall_s"] = statistics.median(x.norm for x in traced)
    m["bench.self_s"] = sec(sum(x.wall for x in traced) - sum(s for s, _ in by_name.values()))
    m["trace_overhead_s"] = m["trace.wall_s"] - statistics.median(x.norm for x in untraced)
    rates = chain_rates(untraced)
    m["sampler.steps_per_s"] = rates.get("steps_per_s", 0.0)
    m["sampler.ess_per_s"] = rates.get("ess_per_s", 0.0)
    return m


# printed with the end-to-end metrics of an untraced run; not gated, because
# they exist on two workloads only (chain rates) or read 0 when correct
EXTRA_UNITS = {"steps_per_s": "1/s", "ess_per_s": "1/s", "fail_ratio": "ratio"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=61,
                        help="input seed; the default 61 reuses the acceptance chain seeds")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "coulomblab" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: need {SRC / 'coulomblab'} and {spec_path}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    sys.path.insert(0, str(SRC))

    OUT.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        # set-up is mostly module import: interpreter work on every workload
        setups, setup_speed = [], hostspeed.factor(("interpreter",))
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            cl = fresh_import()
            workload = WORKLOADS[args.workload](cl, args.seed, workdir)
            setups.append(time.perf_counter() - t0)
        setup_speed = 0.5 * (setup_speed + hostspeed.factor(("interpreter",)))
        meta = metadata(args)
        ops = Ops()
        if args.trace:
            untraced = run_passes(workload, ops, args.seconds / 2, 0)
            tracer = Tracer()
            traced = run_passes(workload, ops, args.seconds / 2, 1000, tracer)
            guarded(workload.finish, ops)
            metrics = layer_metrics(tracer, traced, untraced)
            tracer.save(OUT / f"spans_{args.workload}_seed{args.seed}.npz", meta)
        else:
            done = run_passes(workload, ops, args.seconds, 0)
            guarded(workload.finish, ops)
            metrics = {"wall_s": statistics.median(x.norm for x in done),
                       "setup_s": statistics.median(setups) / setup_speed,
                       # after the first pass: later passes can add allocator
                       # fragmentation, and the pass count varies with the host
                       "peak_rss_mb": done[0].rss_mb}
            extra = {**chain_rates(done), "fail_ratio": ops.failed / max(ops.attempted, 1)}
            for name, value in {**metrics, **extra}.items():
                print(f"{args.workload} {name} = {value:.6g} "
                      f"{units.get(name) or EXTRA_UNITS[name]}")
            print(f"{args.workload} raw pass walls (s) = {[round(x.wall, 4) for x in done]}")
            print(f"{args.workload} host speed factors = {[round(x.speed, 3) for x in done]}")
            print(f"{args.workload} raw set-ups (s) = {[round(t, 4) for t in setups]}, "
                  f"host speed factor {setup_speed:.3f}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, value in workload.diagnostics().items():
        print(f"{args.workload} {name}: {value}")
    for note in ops.notes:
        print(note, file=sys.stderr)
    print(json.dumps({"metadata": meta}))
    result = {"correct": ops.failed == 0, "attempted": ops.attempted, "failed": ops.failed,
              "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
