"""Batch experiment runner.

Subcommands map onto the library modules; every run is driven by a strict
versioned JSON config plus numeric flag overrides.  A run writes its files
under one stem, <command>_<config hash>_seed<seed>, and exactly one JSON
record, which carries `config_sha256_12` and `seed` as fields; CSV files
carry them in the stem only.

Exit codes: 0 ok, 1 a verification clause failed that is not a documented
expected failure, 2 config/schema problem, 3 ensemble-constraint
violation (s = inf on a set of zero area included), 4 numerical
non-convergence, 5 missing file.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import math
import sys
import time
from pathlib import Path

from . import acceptance, fekete, measures, partition, potential, sampler, stats

SCHEMA_VERSION = 1

DEFAULT_CONFIG = {
    "schema_version": SCHEMA_VERSION,
    "set": {"type": "disk", "center": [0.0, 0.0], "radius": 1.0},
    "ensemble": {"N": 16, "s": 32.0, "beta": 2.0, "c0": 0.1},
    "seed": 0,
    "output_dir": "coulomblab_out",
    "sample": {"steps": 50000, "burn_in": 5000, "thin": 10, "step_scale": None},
    "fekete": {"N": 16, "starts": None, "max_iterations": 5000},
    "partition": {"N_values": None, "s_values": None, "with_cubature": False,
                  "with_bounds": False},
    "rate": {"radii": [0.25, 0.5, 2.0, 4.0], "ells": [0.25, 0.5, 1.0]},
    "linstat": {"statistics": ["abs2", "z", "pair_product"], "moments": [[1, 1]],
                "bins": 64},
    "discretize": {"N": 256, "epsilon": 0.1, "base_atoms": 256,
                   "bl_nodes_per_block": 8},
    "verify": {"criteria": None},
}


class SchemaError(ValueError):
    pass


class NonConvergenceError(RuntimeError):
    pass


def _check_schema(cfg: dict, reference: dict, path: str = "") -> None:
    """Reject unknown keys anywhere in the config tree."""
    for key, value in cfg.items():
        if key not in reference:
            raise SchemaError(f"unknown config key {path + key!r}")
        if isinstance(value, dict) and isinstance(reference[key], dict) and key != "set":
            _check_schema(value, reference[key], path + key + ".")


def load_config(path=None, overrides: dict | None = None) -> dict:
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if path is not None:
        p = Path(path)
        if not p.exists():
            raise FileNotFoundError(f"config file {p} does not exist")
        try:
            user = json.loads(p.read_text())
        except json.JSONDecodeError as e:
            raise SchemaError(f"config is not valid JSON: {e}") from e
        if not isinstance(user, dict):
            raise SchemaError("config root must be a JSON object")
        if user.get("schema_version") != SCHEMA_VERSION:
            raise SchemaError(f"config schema_version must be {SCHEMA_VERSION}")
        _check_schema(user, DEFAULT_CONFIG)
        for key, value in user.items():
            if isinstance(value, dict) and key != "set":
                cfg[key].update(value)
            else:
                cfg[key] = value
    for dotted, value in (overrides or {}).items():
        if value is None:
            continue
        node = cfg
        *parents, leaf = dotted.split(".")
        for part in parents:
            node = node[part]
        node[leaf] = value
    return cfg


def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def _optional(kind):
    """Converter that keeps None and converts anything else by kind."""
    return lambda value: None if value is None else kind(value)


def _list_of(kind):
    """Converter of a JSON list, element by element."""
    def convert(value):
        if not isinstance(value, list):
            raise TypeError(f"expected a list, got {value!r}")
        return [kind(v) for v in value]
    return convert


def _bool(value) -> bool:
    """A JSON boolean, taken as it is: no other value stands for one."""
    if not isinstance(value, bool):
        raise TypeError(f"expected true or false, got {value!r}")
    return value


def _statistic(name) -> str:
    """A statistic name of stats._STAT_LIBRARY."""
    if not isinstance(name, str) or name not in stats._STAT_LIBRARY:
        raise ValueError(f"unknown statistic {name!r}; available: {sorted(stats._STAT_LIBRARY)}")
    return name


def _int_pair(value):
    """A moment exponent pair [k, m]: k, m >= 0 and k + m >= 1."""
    k, m = (int(v) for v in value)
    if not (k >= 0 and m >= 0 and k + m >= 1):
        raise ValueError(f"need k, m >= 0 and k + m >= 1, got k={k}, m={m}")
    return k, m


def _positive_int(value) -> int:
    n = int(value)
    if n < 1:
        raise ValueError(f"must be at least 1, got {n}")
    return n


def _criterion(value) -> int:
    """A criterion number of the acceptance table."""
    number = int(value)
    if number not in acceptance._CRITERIA:
        raise ValueError(f"no criterion {value!r}; the criteria are "
                         f"{min(acceptance._CRITERIA)}..{max(acceptance._CRITERIA)}")
    return number


def _convert(name: str, kind, value):
    """value converted by kind; a value of the wrong type or form is a
    SchemaError naming the field."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError) as e:
        raise SchemaError(f"{name}: {e}") from e


def _fields(cfg: dict, block: str, **kinds):
    """The named numeric fields of one config block, each converted by its
    kind."""
    return [_convert(f"{block}.{key}", kind, cfg[block][key]) for key, kind in kinds.items()]


def _ensemble_fields(cfg: dict):
    """The ensemble block's N, s, beta and c0, converted but not yet checked
    against the ensemble constraint."""
    return _fields(cfg, "ensemble", N=int, s=float, beta=float, c0=float)


def _build(cfg: dict):
    K = potential.compact_set_from_dict(cfg["set"])
    return K, sampler.EnsembleParams(*_ensemble_fields(cfg))


def _chain_config(cfg: dict) -> sampler.ChainConfig:
    return sampler.ChainConfig(*_fields(cfg, "sample", steps=int, burn_in=int, thin=int,
                                        step_scale=_optional(float)))


def _criteria(value: str):
    """--criteria "1,3,5" as [1, 3, 5]; an empty list means every criterion."""
    return [int(x) for x in value.split(",") if x.strip()] or None


def _outdir(cfg: dict, args) -> Path:
    out = Path(args.out if args.out else cfg["output_dir"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _stem(name: str, cfg: dict) -> str:
    return f"{name}_{config_hash(cfg)}_seed{cfg['seed']}"


def _write_json(path: Path, payload: dict, cfg: dict) -> None:
    payload = {"config_sha256_12": config_hash(cfg), "seed": cfg["seed"], **payload}
    path.write_text(json.dumps(payload, indent=2))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_sample(cfg, args) -> int:
    K, params = _build(cfg)
    chain = sampler.run_chain(params, K, _chain_config(cfg), seed=cfg["seed"])
    out = _outdir(cfg, args)
    base = out / _stem("chain", cfg)
    chain.save(base, config_sha256_12=config_hash(cfg))
    print(f"chain: {len(chain)} states, acceptance {chain.acceptance_rate:.3f} -> {base}.csv")
    if chain.zero_acceptance_burnin:
        raise NonConvergenceError("zero acceptance during burn-in")
    return 0


def _cmd_fekete(cfg, args) -> int:
    K = potential.compact_set_from_dict(cfg["set"])
    n, starts, max_iterations = _fields(cfg, "fekete", N=int, starts=_optional(int),
                                        max_iterations=int)
    result = fekete.solve(K, n, starts=starts, max_iterations=max_iterations,
                          seed=cfg["seed"])
    out = _outdir(cfg, args)
    base = out / _stem("fekete", cfg)
    measures.save_points(base.with_suffix(".csv"), result.configuration)
    est = fekete.capacity_estimate(result) if n >= 8 else None
    _write_json(base.with_suffix(".json"),
                {"N": n, "log_delta": result.log_delta,
                 "max_green_violation": result.max_green_violation,
                 "converged": result.converged, "iterations": result.iterations,
                 "stop_reason": result.stop_reason, "start_index": result.start_index,
                 "starts": result.starts,
                 "capacity_estimate": est, "capacity": K.capacity()}, cfg)
    print(f"fekete N={n}: log_delta={result.log_delta:.9g} "
          f"violation={result.max_green_violation:.2e} converged={result.converged}")
    if est is not None:
        print(f"capacity estimate {est:.6f} (closed form {K.capacity():.6f})")
    if not result.converged:
        raise NonConvergenceError(
            f"returned start {result.start_index} (largest log_delta) did not reach the "
            f"gradient tolerance: stop_reason={result.stop_reason}")
    return 0


def _cmd_partition(cfg, args) -> int:
    K = potential.compact_set_from_dict(cfg["set"])
    N, s, beta, c0 = _ensemble_fields(cfg)
    n_values, s_values, with_cubature, with_bounds = _fields(
        cfg, "partition", N_values=_optional(_list_of(int)), s_values=_optional(_list_of(float)),
        with_cubature=_bool, with_bounds=_bool)
    # N_values and s_values replace the ensemble's N and s, so only the
    # (N, s) pairs that run are checked, all before any of them runs
    grid = [(n, [sampler.EnsembleParams(n, si, beta, c0) for si in s_values or [s]])
            for n in n_values or [N]]
    out = _outdir(cfg, args)
    rows, reports = [], []
    for n, row_params in grid:
        log_delta = fekete.max_log_delta(K, n, seed=cfg["seed"]) if with_bounds and n >= 2 else None
        for p in row_params:
            try:
                rep = partition.build_report(K, p, log_delta=log_delta,
                                             with_cubature=with_cubature)
            except NotImplementedError as e:  # no cubature for this set at this N
                raise SchemaError(f"partition.with_cubature: {e}") from e
            rows.append(rep.csv_row())
            reports.append(rep.to_dict())
            print(rep.csv_row())
    base = out / _stem("partition", cfg)
    base.with_suffix(".csv").write_text(
        partition.PartitionReport.CSV_HEADER + "\n" + "\n".join(rows) + "\n")
    _write_json(base.with_suffix(".json"), {"reports": reports}, cfg)
    return 0


def _cmd_rate(cfg, args) -> int:
    K = potential.compact_set_from_dict(cfg["set"])
    beta, = _fields(cfg, "ensemble", beta=float)
    if not (beta > 0 and math.isfinite(beta)):
        raise SchemaError(f"ensemble.beta: must be positive and finite, got {beta:g}")
    radii, ells = _fields(cfg, "rate", radii=_list_of(float), ells=_list_of(float))
    # the descriptor keeps each radius as written in the config
    family = [(f"circle_r={r}", measures.CircleMeasure(0.0, radius))
              for r, radius in zip(cfg["rate"]["radii"], radii)]
    reports = stats.positivity_scan(K, family, ells, beta=beta)
    out = _outdir(cfg, args)
    base = out / _stem("rate", cfg)
    lines = ["measure,ell,weighted_energy,robin_energy,rate"]
    for r in reports:
        lines.append(f"{r.descriptor},{r.ell},{r.weighted:.12g},{r.robin:.12g},{r.rate:.12g}")
        print(lines[-1])
    base.with_suffix(".csv").write_text("\n".join(lines) + "\n")
    _write_json(base.with_suffix(".json"), {"rows": [r.to_dict() for r in reports]}, cfg)
    return 0


def _cmd_linstat(cfg, args) -> int:
    K, params = _build(cfg)
    names, moments, bins = _fields(cfg, "linstat", statistics=_list_of(_statistic),
                                   moments=_list_of(_int_pair), bins=_positive_int)
    chain_cfg = _chain_config(cfg)
    if (names or moments) and chain_cfg.steps // chain_cfg.thin < sampler._MIN_STATES:
        raise SchemaError(f"sample.steps: linstat.statistics and linstat.moments need "
                          f"steps // thin >= {sampler._MIN_STATES} stored states")
    chain = sampler.run_chain(params, K, chain_cfg, seed=cfg["seed"])
    reports = []
    for name in names:
        reports.append(stats.linear_statistic(chain, *stats._STAT_LIBRARY[name], label=name))
    for k, m in moments:
        reports.append(stats.moment_statistic(chain, stats._STAT_LIBRARY["abs2"][0],
                                              k, m, label=f"moment_abs2_{k}_{m}"))
    out = _outdir(cfg, args)
    base = out / _stem("linstat", cfg)
    hist = stats.intensity_histogram(chain, bins=bins)
    hist.to_csv(base.with_suffix(".hist.csv"))
    _write_json(base.with_suffix(".json"), {"reports": [r.to_dict() for r in reports]}, cfg)
    for r in reports:
        print(f"{r.label}: estimate={r.estimate:.6g} target={r.target:.6g} "
              f"stderr={r.stderr:.2e} z={r.zscore:.2f}")
    return 0


def _cmd_discretize(cfg, args) -> int:
    K = potential.compact_set_from_dict(cfg["set"])
    n, epsilon, base_atoms, nodes = _fields(cfg, "discretize", N=int, epsilon=float,
                                            base_atoms=int, bl_nodes_per_block=int)
    base_measure = measures.equilibrium_discretization(K, base_atoms)
    nu = measures.smooth(base_measure, epsilon)
    nu_atomic = _convert("discretize.bl_nodes_per_block", nu.to_atomic, nodes)
    t0 = time.perf_counter()
    res = measures.discretize(nu, n)
    t1 = time.perf_counter()
    bl, bl_record = measures._bl_solve(measures.AtomicMeasure(res.configuration), nu_atomic)
    t2 = time.perf_counter()
    cont = measures.continuous_energy(nu)
    t3 = time.perf_counter()
    out = _outdir(cfg, args)
    base = out / _stem("discretize", cfg)
    measures.save_points(base.with_suffix(".csv"), res.configuration)
    payload = {"N": n, "min_separation": res.min_separation,
               "separation_constant": res.separation_constant,
               "discrete_energy": res.discrete_energy,
               "continuous_energy": cont,
               "bl_distance": bl, "points_discarded": res.points_discarded}
    telemetry = {"discretize": res.inversion_record(), "bl": bl_record,
                 "phase_seconds": {"discretize": t1 - t0, "bl": bl_record["seconds"],
                                   "continuous_energy": t3 - t2}}
    _write_json(base.with_suffix(".json"), {**payload, "telemetry": telemetry}, cfg)
    for k, v in payload.items():
        print(f"{k}: {v}")
    return 0


def _cmd_verify(cfg, args) -> int:
    numbers, = _fields(cfg, "verify", criteria=_optional(_list_of(_criterion)))
    results = acceptance.run_all(numbers)
    out = _outdir(cfg, args)
    payload = {"criteria": [r.to_dict() for r in results],
               "all_pass": all(r.passed for r in results)}
    _write_json(out / (_stem("verify", cfg) + ".json"), payload, cfg)
    return 0 if payload["all_pass"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="coulomblab",
        description="batch experiments for two-dimensional potential-theoretic ensembles")
    parser.add_argument("--config", help="JSON config path", default=None)
    parser.add_argument("--seed", type=int, default=None, help="seed override")
    parser.add_argument("--out", default=None, help="output directory override")
    sub = parser.add_subparsers(dest="command", required=True)

    # each flag's dest is the config path it overrides
    def ensemble_flags(p):
        p.add_argument("--N", type=int, dest="ensemble.N")
        p.add_argument("--s", dest="ensemble.s")
        p.add_argument("--beta", type=float, dest="ensemble.beta")
        p.add_argument("--c0", type=float, dest="ensemble.c0")

    def chain_flags(p):
        p.add_argument("--steps", type=int, dest="sample.steps")
        p.add_argument("--burn-in", type=int, dest="sample.burn_in")
        p.add_argument("--thin", type=int, dest="sample.thin")

    sp = sub.add_parser("sample", help="run a Metropolis chain and persist it")
    ensemble_flags(sp)
    chain_flags(sp)

    fp = sub.add_parser("fekete", help="solve for Fekete points and estimate capacity")
    fp.add_argument("--N", type=int, dest="fekete.N")

    pp = sub.add_parser("partition", help="partition reports and tables")
    ensemble_flags(pp)
    pp.add_argument("--with-cubature", action="store_true", dest="partition.with_cubature")
    pp.add_argument("--with-bounds", action="store_true", dest="partition.with_bounds")

    rp = sub.add_parser("rate", help="rate-function tables over the circle family")
    rp.add_argument("--beta", type=float, dest="ensemble.beta")

    lp = sub.add_parser("linstat", help="linear statistics and intensity histogram")
    ensemble_flags(lp)
    chain_flags(lp)

    dp = sub.add_parser("discretize", help="strip discretization with diagnostics")
    dp.add_argument("--N", type=int, dest="discretize.N")
    dp.add_argument("--epsilon", type=float, dest="discretize.epsilon")

    vp = sub.add_parser("verify", help="run the acceptance suite")
    vp.add_argument("--criteria", help="comma-separated criterion numbers", default=None,
                    dest="verify.criteria", type=_criteria)

    args = parser.parse_args(argv)
    overrides = {dotted: value for dotted, value in vars(args).items()
                 if dotted not in ("config", "out", "command")
                 and value is not None and value is not False}

    handlers = {"sample": _cmd_sample, "fekete": _cmd_fekete,
                "partition": _cmd_partition, "rate": _cmd_rate,
                "linstat": _cmd_linstat, "discretize": _cmd_discretize,
                "verify": _cmd_verify}
    try:
        cfg = load_config(args.config, overrides)
        cfg["seed"] = _convert("seed", _optional(int), cfg["seed"])
        return handlers[args.command](cfg, args)
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return 5
    except SchemaError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except sampler.InadmissibleParams as e:
        print(f"constraint error: {e}", file=sys.stderr)
        return 3
    except ValueError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except NonConvergenceError as e:
        print(f"non-convergence: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
