"""CLI behavior: schema strictness, exit codes, outputs, reproducibility."""

import json
import math

import numpy as np
import pytest

from coulomblab import cli, measures, sampler, stats


def run(args):
    return cli.main(args)


def _write_config(tmp_path, payload):
    p = tmp_path / "config.json"
    p.write_text(json.dumps(payload))
    return str(p)


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_missing_config_file(tmp_path, capsys):
    code = run(["--config", str(tmp_path / "absent.json"), "--out", str(tmp_path),
                "partition"])
    assert code == 5


def test_unknown_key_rejected(tmp_path):
    cfg = _write_config(tmp_path, {"schema_version": 1, "spin": 3})
    assert run(["--config", cfg, "--out", str(tmp_path), "partition"]) == 2


def test_wrong_schema_version(tmp_path):
    cfg = _write_config(tmp_path, {"schema_version": 99})
    assert run(["--config", cfg, "--out", str(tmp_path), "partition"]) == 2


def test_malformed_json(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    assert run(["--config", str(p), "--out", str(tmp_path), "partition"]) == 2


def test_constraint_violation_exit_code(tmp_path):
    cfg = _write_config(tmp_path, {"schema_version": 1,
                                   "ensemble": {"N": 16, "s": 16.5, "beta": 1.0,
                                                "c0": 1.0}})
    assert run(["--config", cfg, "--out", str(tmp_path), "partition"]) == 3
    # s <= N violates the ensemble constraint too
    assert run(["--out", str(tmp_path), "partition", "--N", "16", "--s", "16"]) == 3
    assert run(["--out", str(tmp_path), "sample", "--N", "8", "--s", "4"]) == 3


def test_chain_without_stored_states(tmp_path):
    # no post-burn-in steps, or fewer steps than thin, store no state
    for extra in (["--steps", "0", "--burn-in", "100"], ["--steps", "5", "--thin", "10"]):
        out = tmp_path / extra[1]
        assert run(["--out", str(out), "sample", "--N", "4", "--s", "8", *extra]) == 0
        record = json.loads(next(out.glob("chain_*.json")).read_text())
        assert record["states"] == 0


@pytest.mark.parametrize("command", ["sample", "linstat"])
def test_hard_wall_on_zero_area_set_exit_code(tmp_path, capsys, command):
    # s = inf confines the points to the segment, which has no area: refused
    # before the chain runs, and nothing is written
    cfg = _write_config(tmp_path, {"schema_version": 1, "set": {"type": "segment", "a": -2, "b": 2}})
    out = tmp_path / "out"
    assert run(["--config", cfg, "--out", str(out), command, "--N", "8", "--s", "inf",
                "--steps", "3000", "--burn-in", "1000", "--thin", "1"]) == 3
    assert "zero area" in capsys.readouterr().err
    assert not out.exists()


def test_invalid_chain_config_exit_code(tmp_path, capsys):
    assert run(["--out", str(tmp_path), "sample", "--thin", "0"]) == 2
    assert "thin" in capsys.readouterr().err
    cfg = _write_config(tmp_path, {"schema_version": 1, "sample": {"step_scale": -1.0}})
    assert run(["--config", cfg, "--out", str(tmp_path), "sample"]) == 2
    assert not list(tmp_path.glob("chain_*"))


def test_unknown_nested_key(tmp_path):
    cfg = _write_config(tmp_path, {"schema_version": 1, "sample": {"stepz": 10}})
    assert run(["--config", cfg, "--out", str(tmp_path), "sample"]) == 2


@pytest.mark.parametrize("bad_set,message", [
    ({"type": "disk"}, "'center'"),
    ({"type": "disk", "center": 0.5, "radius": 1.0}, "'center'"),
    ({"type": "disk", "center": [0, 0, 0], "radius": 1.0}, "'center'"),
    ({"type": "disk", "center": [0, 0], "radius": "big"}, "'radius'"),
    ({"type": "segment", "a": -1.0}, "'b'"),
    ({"type": "segment", "a": -1.0, "b": 1.0, "radius": 2.0}, "'radius'"),
    ({"type": "ellipse", "center": [0, 0], "semi_major": [2], "semi_minor": 1}, "'semi_major'"),
    ({"type": "exterior_map", "cap": 1.0, "coeffs": [[0, 0], 0.5]}, "'coeffs[1]'"),
    ({"type": "exterior_map", "cap": 1.0, "coeffs": 0.5}, "'coeffs'"),
    ({"type": "exterior_map", "coeffs": []}, "'cap'"),
    ("disk", "set must be an object"),
])
def test_malformed_set_config(tmp_path, capsys, bad_set, message):
    cfg = _write_config(tmp_path, {"schema_version": 1, "set": bad_set})
    assert run(["--config", cfg, "--out", str(tmp_path), "fekete", "--N", "4"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and message in err
    assert not list(tmp_path.glob("fekete_*"))


@pytest.mark.parametrize("scale,code", [("0.3", 0), ("abc", 2), ([0.3], 2)])
def test_step_scale_from_json(tmp_path, capsys, scale, code):
    cfg = _write_config(tmp_path, {"schema_version": 1,
                                   "ensemble": {"N": 4, "s": 8.0, "beta": 2.0, "c0": 0.1},
                                   "sample": {"steps": 400, "burn_in": 200, "thin": 10,
                                              "step_scale": scale}})
    assert run(["--config", cfg, "--out", str(tmp_path), "sample"]) == code
    if code == 0:
        record = json.loads(next(tmp_path.glob("chain_*.json")).read_text())
        assert record["telemetry"]["scale_trace"]  # tuned from the float 0.3
    else:
        assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("command,config", [
    ("sample", {"ensemble": {"N": [3]}}),
    ("fekete", {"fekete": {"N": [16]}}),
    ("partition", {"partition": {"N_values": [None]}}),
    ("rate", {"rate": {"ells": [None]}}),
    ("linstat", {"linstat": {"bins": [64]}}),
    ("discretize", {"discretize": {"epsilon": [0.1]}}),
    ("discretize", {"discretize": {"N": None}}),
    # "no" is truthy, yet it is not a JSON boolean
    ("partition", {"partition": {"with_bounds": "no"}}),
    ("partition", {"partition": {"with_cubature": 1}}),
    # a string is not a list of names, and each name must be known
    ("linstat", {"linstat": {"statistics": "abs2"}}),
    ("linstat", {"linstat": {"statistics": ["nope"]}}),
], ids=["ensemble", "fekete", "partition", "rate", "linstat", "discretize",
        "discretize_null", "partition_with_bounds", "partition_with_cubature",
        "linstat_statistics_string", "linstat_statistics_unknown"])
def test_config_value_of_wrong_type(tmp_path, capsys, command, config):
    # a value that does not convert is a config error (exit 2) naming its
    # field, raised before anything runs or is written
    cfg = _write_config(tmp_path, {"schema_version": 1, **config})
    assert run(["--config", cfg, "--out", str(tmp_path), command]) == 2
    (block, fields), = config.items()
    (key, _), = fields.items()
    err = capsys.readouterr().err
    assert err.startswith("config error") and f"{block}.{key}:" in err
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


ELLIPSE = {"type": "ellipse", "center": [0, 0], "semi_major": 2, "semi_minor": 1}
EXTERIOR = {"type": "exterior_map", "cap": 1, "coeffs": [[0, 0], [0, 0], [0.15, 0]]}


@pytest.mark.parametrize("config,argv,field", [
    ({"seed": "abc"}, ["fekete", "--N", "4"], "seed:"),
    ({"verify": {"criteria": ["x"]}}, ["verify"], "verify.criteria:"),
    ({"verify": {"criteria": [99]}}, ["verify"], "verify.criteria:"),
    ({}, ["verify", "--criteria", "0"], "verify.criteria:"),
    ({"set": ELLIPSE}, ["partition", "--N", "3", "--s", "8", "--with-cubature"],
     "partition.with_cubature:"),
    ({"set": EXTERIOR}, ["partition", "--N", "3", "--s", "8", "--with-cubature"],
     "partition.with_cubature:"),
    ({"fekete": {"starts": 0}}, ["fekete", "--N", "4"], "starts >= 1"),
    ({"fekete": {"starts": -1}}, ["fekete", "--N", "4"], "starts >= 1"),
    ({"discretize": {"base_atoms": 0}}, ["discretize", "--N", "16"], "n >= 1"),
    ({"discretize": {"base_atoms": 64, "bl_nodes_per_block": 0}},
     ["discretize", "--N", "16"], "discretize.bl_nodes_per_block: need nodes_per_block >= 1"),
    ({"sample": {"steps": 11000, "burn_in": 500, "thin": 10},
      "linstat": {"statistics": [], "moments": [[-1, 1]]}}, ["linstat"],
     "linstat.moments: need k, m >= 0"),
    ({"linstat": {"moments": [[0, 0]]}}, ["linstat"], "linstat.moments: need k, m >= 0"),
    ({"linstat": {"bins": 0}}, ["linstat"], "linstat.bins:"),
    ({}, ["linstat", "--N", "4", "--s", "8", "--steps", "500"], "sample.steps:"),
    ({}, ["partition", "--N", "16", "--s", "16.5", "--beta", "1", "--c0", "nan"],
     "c0 = nan"),
    ({}, ["sample", "--N", "4", "--s", "8", "--beta", "inf", "--steps", "300"], "beta = inf"),
    # a JSON number past the float range, such as 1e400, reads as inf
    ({"discretize": {"epsilon": math.inf}}, ["discretize"], "epsilon must be finite"),
    ({"rate": {"radii": [math.inf]}}, ["rate"], "radius must be finite"),
    ({}, ["rate", "--beta", "inf"], "ensemble.beta:"),
    ({}, ["rate", "--beta", "1e400"], "ensemble.beta:"),
    ({}, ["rate", "--beta", "nan"], "ensemble.beta:"),
    ({"fekete": {"max_iterations": -3}}, ["fekete", "--N", "4"], "max_iterations >= 0"),
], ids=["seed", "criteria_string", "criteria_99", "criteria_flag_0", "cubature_ellipse_n3",
        "cubature_exterior_map_n3", "fekete_starts_0", "fekete_starts_negative",
        "discretize_base_atoms_0", "discretize_nodes_per_block_0", "linstat_moment_negative",
        "linstat_moment_zero", "linstat_bins_0", "linstat_too_few_states", "partition_c0_nan",
        "sample_beta_inf", "discretize_epsilon_inf", "rate_radius_inf",
        "rate_beta_inf", "rate_beta_1e400", "rate_beta_nan", "fekete_max_iterations_negative"])
def test_config_error_exits_2(tmp_path, capsys, monkeypatch, config, argv, field):
    # each of these used to escape main with a traceback and exit 1, or to
    # exit 2 only after the chain or the strip discretization had run
    def fail(*args, **kwargs):
        raise AssertionError("the work ran before the config was checked")

    monkeypatch.setattr(sampler, "run_chain", fail)
    monkeypatch.setattr(measures, "discretize", fail)
    monkeypatch.setattr(stats, "positivity_scan", fail)
    cfg = _write_config(tmp_path, {"schema_version": 1, **config})
    assert run(["--config", cfg, "--out", str(tmp_path), *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and field in err
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


@pytest.mark.parametrize("flags,block,written", [
    (["sample", "--N", "8", "--steps", "3000"],
     {"ensemble": {"N": 8}, "sample": {"steps": 3000}}, "chain_*.json"),
    (["partition", "--with-cubature"], {"partition": {"with_cubature": True}},
     "partition_*.json"),
])
def test_flags_hash_like_config(tmp_path, flags, block, written):
    cfg = _write_config(tmp_path, {"schema_version": 1, **block})
    by_flag, by_config = tmp_path / "flag", tmp_path / "config"
    assert run(["--out", str(by_flag)] + flags) == 0
    assert run(["--config", cfg, "--out", str(by_config), flags[0]]) == 0

    def sha(out):
        return {json.loads(p.read_text())["config_sha256_12"] for p in out.glob(written)}

    assert len(sha(by_flag)) == 1 and sha(by_flag) == sha(by_config)


# ---------------------------------------------------------------------------
# subcommand outputs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv,config", [
    (["sample", "--N", "4", "--s", "8", "--steps", "200", "--burn-in", "100"], {}),
    (["fekete", "--N", "8"], {}),
    (["partition", "--N", "2", "--s", "8"], {}),
    (["rate"], {"rate": {"radii": [2.0], "ells": [0.5]}}),
    (["linstat", "--N", "4", "--s", "8", "--steps", "1000", "--burn-in", "100", "--thin", "1"],
     {"linstat": {"bins": 8}}),
    (["discretize"], {"discretize": {"N": 16, "base_atoms": 64, "bl_nodes_per_block": 4}}),
    (["verify", "--criteria", "11"], {}),
], ids=["sample", "fekete", "partition", "rate", "linstat", "discretize", "verify"])
def test_one_stamped_json_record_per_run(tmp_path, argv, config):
    # every run writes exactly one JSON, stamped with the config hash of its
    # file stem and the seed, and no second summary of it
    cfg = _write_config(tmp_path, {"schema_version": 1, **config})
    out = tmp_path / "out"
    assert run(["--config", cfg, "--seed", "3", "--out", str(out), *argv]) == 0
    (record_path,) = out.glob("*.json")
    command, digest, seed = record_path.name.removesuffix(".json").split("_")
    record = json.loads(record_path.read_text())
    assert record["config_sha256_12"] == digest and len(digest) == 12
    assert record["seed"] == 3 and seed == "seed3"
    assert command == {"sample": "chain"}.get(argv[0], argv[0])
    if argv[0] in ("sample", "fekete"):
        assert len(list(out.glob("*.csv"))) == 1

def test_partition_override_exact_value(tmp_path, capsys):
    code = run(["--out", str(tmp_path), "partition", "--N", "2", "--s", "8"])
    assert code == 0
    out = json.loads(next(tmp_path.glob("partition_*.json")).read_text())
    exact = out["reports"][0]["exact"]
    assert exact == pytest.approx(math.log(math.pi**2 * 64 / 42), abs=1e-12)
    assert "config_sha256_12" in out and "seed" in out


def test_partition_s_inf_sentinel(tmp_path):
    cfg = _write_config(tmp_path, {"schema_version": 1,
                                   "ensemble": {"N": 4, "s": "inf", "beta": 2.0,
                                                "c0": 0.1}})
    assert run(["--config", cfg, "--out", str(tmp_path), "partition"]) == 0
    out = json.loads(next(tmp_path.glob("partition_*.json")).read_text())
    assert out["reports"][0]["exact"] == pytest.approx(4 * math.log(math.pi))


def test_partition_n_values_checked_against_s(tmp_path, capsys):
    # N_values replaces the ensemble's N = 16, so only N = 1 and 3 meet s = 8
    cfg = _write_config(tmp_path, {"schema_version": 1,
                                   "partition": {"N_values": [1, 3], "with_cubature": True}})
    assert run(["--config", cfg, "--out", str(tmp_path / "ok"), "partition", "--s", "8"]) == 0
    lines = next((tmp_path / "ok").glob("partition_*.csv")).read_text().splitlines()
    reports = json.loads(next((tmp_path / "ok").glob("partition_*.json")).read_text())["reports"]
    assert lines[0].split(",")[-1] == "cubature"
    assert [line.split(",")[0] for line in lines[1:]] == ["1", "3"]
    # the last CSV column is the cubature value of the JSON report
    for line, rep in zip(lines[1:], reports):
        assert float(line.split(",")[-1]) == pytest.approx(rep["cubature"], rel=1e-11)
    # an N >= s among N_values still violates the constraint, before anything runs
    cfg = _write_config(tmp_path, {"schema_version": 1, "partition": {"N_values": [1, 8]}})
    assert run(["--config", cfg, "--out", str(tmp_path / "bad"), "partition", "--s", "8"]) == 3
    assert "got s = 8, N = 8" in capsys.readouterr().err
    assert not (tmp_path / "bad").exists()


def test_partition_cubature_zero_area_hard_wall(tmp_path):
    # the segment has no area and a hard wall admits no exterior, so Z = 0:
    # log Z = -inf is written as -inf in the CSV and -Infinity in the JSON
    cfg = _write_config(tmp_path, {"schema_version": 1, "set": {"type": "segment", "a": -2, "b": 2},
                                   "partition": {"N_values": [1, 2], "s_values": [8, 16, "inf"],
                                                 "with_cubature": True}})
    assert run(["--config", cfg, "--out", str(tmp_path), "partition"]) == 0
    rows = [line.split(",") for line in
            next(tmp_path.glob("partition_*.csv")).read_text().splitlines()[1:]]
    text = next(tmp_path.glob("partition_*.json")).read_text()
    assert [row[-1] == "-inf" for row in rows] == [False, False, True] * 2
    assert text.count('"cubature": -Infinity') == 2
    assert all(math.isfinite(rep["cubature"]) for rep in json.loads(text)["reports"]
               if rep["s"] != "inf")


@pytest.mark.parametrize("value", [np.int64(3), object()], ids=["int64", "object"])
def test_json_outputs_reject_non_json_values(tmp_path, value):
    # a value json cannot write raises instead of being written as its str
    with pytest.raises(TypeError):
        cli.config_hash({"seed": 0, "x": value})
    with pytest.raises(TypeError):
        cli._write_json(tmp_path / "out.json", {"x": value}, {"seed": 0})
    assert not (tmp_path / "out.json").exists()


def _partition_with_bounds(tmp_path, monkeypatch, set_dict):
    """The N of each Fekete solve, the JSON reports and the CSV rows of a
    partition --with-bounds run over N in {2, 4} and s in {8, 16, 32}."""
    solve, solved = cli.fekete.solve, []

    def counting_solve(K, n, **kwargs):
        solved.append(n)
        return solve(K, n, **kwargs)

    monkeypatch.setattr(cli.fekete, "solve", counting_solve)
    cfg = _write_config(tmp_path, {"schema_version": 1, "seed": 3, "set": set_dict,
                                   "partition": {"N_values": [2, 4], "s_values": [8, 16, 32]}})
    assert run(["--config", cfg, "--out", str(tmp_path), "partition", "--with-bounds"]) == 0
    reports = json.loads(next(tmp_path.glob("partition_*.json")).read_text())["reports"]
    lines = next(tmp_path.glob("partition_*.csv")).read_text().splitlines()
    monkeypatch.undo()
    return solved, reports, lines[1:]


def test_partition_one_fekete_solve_per_n(tmp_path, monkeypatch):
    solved, reports, rows = _partition_with_bounds(tmp_path, monkeypatch, ELLIPSE)
    assert solved == [2, 4]
    # each row equals a report built from its own solve
    K = cli.potential.Ellipse(0.0, 2.0, 1.0)
    expected = [cli.partition.build_report(K, cli.sampler.EnsembleParams(n, s, 2.0, 0.1),
                                           log_delta=cli.fekete.solve(K, n, seed=3).log_delta)
                for n in (2, 4) for s in (8.0, 16.0, 32.0)]
    assert reports == [rep.to_dict() for rep in expected]
    assert rows == [rep.csv_row() for rep in expected]


def test_partition_disk_bounds_take_the_closed_form(tmp_path, monkeypatch):
    # the disk's Fekete maximum is exact: no Newton solve runs
    solved, reports, rows = _partition_with_bounds(
        tmp_path, monkeypatch, {"type": "disk", "center": [0, 0], "radius": 1})
    assert solved == []
    K = cli.potential.Disk(0.0, 1.0)
    expected = [cli.partition.build_report(K, cli.sampler.EnsembleParams(n, s, 2.0, 0.1),
                                           log_delta=cli.fekete.max_log_delta(K, n))
                for n in (2, 4) for s in (8.0, 16.0, 32.0)]
    assert reports == [rep.to_dict() for rep in expected]
    assert rows == [rep.csv_row() for rep in expected]


def test_fekete_pair_log_delta(tmp_path):
    code = run(["--out", str(tmp_path), "fekete", "--N", "2"])
    assert code == 0
    record = json.loads(next(tmp_path.glob("fekete_*.json")).read_text())
    assert record["log_delta"] == pytest.approx(math.log(2), abs=1e-9)
    assert record["max_green_violation"] <= 1e-8


def test_fekete_per_start_telemetry(tmp_path):
    cfg = _write_config(tmp_path, {
        "schema_version": 1,
        "set": {"type": "exterior_map", "cap": 1.0, "coeffs": [[0, 0], [0, 0], [0.15, 0]]},
        "fekete": {"N": 20, "starts": 3},
    })
    assert run(["--config", cfg, "--out", str(tmp_path), "fekete"]) == 0
    record = json.loads(next(tmp_path.glob("fekete_*.json")).read_text())
    starts = record["starts"]
    assert len(starts) == 3
    assert all(set(st) == {"log_delta", "iterations", "stop_reason", "shifted_steps",
                           "evaluations"} for st in starts)
    assert all(st["stop_reason"] == "gradient_tol" and st["iterations"] >= 1
               for st in starts)
    assert all(0 <= st["shifted_steps"] <= st["iterations"] for st in starts)
    # every step taken evaluated at least one line-search candidate
    assert all(st["iterations"] - 1 <= st["evaluations"] for st in starts)
    best = starts[record["start_index"]]
    assert best["log_delta"] == record["log_delta"] == max(st["log_delta"] for st in starts)
    assert best["iterations"] == record["iterations"]
    assert best["stop_reason"] == record["stop_reason"]


def test_fekete_record_matches_solve(tmp_path):
    # the one JSON record and the CSV hold what the library solve returns
    assert run(["--seed", "13", "--out", str(tmp_path), "fekete", "--N", "8"]) == 0
    res = cli.fekete.solve(cli.potential.Disk(0.0, 1.0), 8, seed=13)
    record = json.loads(next(tmp_path.glob("fekete_*.json")).read_text())
    assert record["N"] == 8 and record["seed"] == 13
    assert record["log_delta"] == res.log_delta
    assert record["max_green_violation"] == res.max_green_violation
    assert record["converged"] is res.converged is True
    assert record["stop_reason"] == res.stop_reason == "gradient_tol"
    assert (record["iterations"], record["start_index"]) == (res.iterations, res.start_index)
    assert record["starts"] == res.starts and len(res.starts) == 8
    assert record["capacity_estimate"] == cli.fekete.capacity_estimate(res)
    assert record["capacity"] == 1.0
    points = cli.measures.load_points(next(tmp_path.glob("fekete_*.csv")))
    assert np.array_equal(points, res.configuration)


def test_sample_and_reproducibility(tmp_path):
    cfg = _write_config(tmp_path, {
        "schema_version": 1,
        "ensemble": {"N": 6, "s": 12.0, "beta": 2.0, "c0": 0.1},
        "sample": {"steps": 2000, "burn_in": 400, "thin": 10},
        "seed": 5,
    })
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert run(["--config", cfg, "--out", str(out1), "sample"]) == 0
    assert run(["--config", cfg, "--out", str(out2), "sample"]) == 0
    csv1 = next(out1.glob("chain_*.csv")).read_bytes()
    csv2 = next(out2.glob("chain_*.csv")).read_bytes()
    assert csv1 == csv2  # bit-identical with the same config and seed
    name = next(out1.glob("chain_*.csv")).name
    assert "seed5" in name
    record = json.loads(next(out1.glob("chain_*.json")).read_text())
    tel = record["telemetry"]
    assert len(tel["scale_trace"]) == len(tel["window_acceptance"]) == 400 // 200
    assert tel["scale_trace"][-1] == record["step_scale"]
    assert set(tel) == {"scale_trace", "window_acceptance", "batches", "stale_points",
                        "lookahead_points", "inversion_errors", "loop_seconds"}
    assert tel["inversion_errors"] == 0 and tel["stale_points"] > 0
    assert math.isfinite(tel["loop_seconds"]) and tel["loop_seconds"] > 0
    assert 0 <= tel["lookahead_points"] <= (cli.sampler._BATCH - 1) * tel["batches"]
    # the record is the file Chain.load reads: the chain comes back whole
    chain = cli.sampler.Chain.load(next(out1.glob("chain_*.csv")).with_suffix(""))
    ran = cli.sampler.run_chain(cli.sampler.EnsembleParams(6, 12.0, 2.0, 0.1),
                                cli.potential.Disk(0.0, 1.0),
                                cli.sampler.ChainConfig(2000, 400, 10), seed=5)
    assert np.array_equal(chain.states, ran.states)
    assert np.array_equal(chain.log_densities, ran.log_densities)
    assert (record["states"], record["acceptance"]) == (len(ran), ran.acceptance_rate)
    assert record["psr"] == cli.sampler.potential_scale_reduction(ran)
    more = cli.sampler.run_chain(chain.params, chain.K, cli.sampler.ChainConfig(100, 0, 10),
                                 seed=6, init=chain.states[-1])
    assert len(more) == 10


def test_discretize_outputs(tmp_path, capsys):
    cfg = _write_config(tmp_path, {
        "schema_version": 1,
        "discretize": {"N": 32, "epsilon": 0.1, "base_atoms": 64,
                       "bl_nodes_per_block": 6},
    })
    assert run(["--config", cfg, "--out", str(tmp_path), "discretize"]) == 0
    # stdout carries the result keys only; telemetry goes to the JSON
    printed = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()]
    assert printed == ["N", "min_separation", "separation_constant", "discrete_energy",
                       "continuous_energy", "bl_distance", "points_discarded"]
    report = json.loads(next(tmp_path.glob("discretize_*.json")).read_text())
    assert report["N"] == 32
    # 32 points against 64 blocks x 6 nodes: 384 atoms, 12 repeats a point
    tel = report["telemetry"]
    assert {k: tel["bl"][k] for k in ("path", "rows", "cols", "status")} == {
        "path": "assignment", "rows": 384, "cols": 384, "status": "optimal"}
    assert set(tel["phase_seconds"]) == {"discretize", "bl", "continuous_energy"}
    inv = tel["discretize"]
    assert set(inv) == {"strips", "max_iterations", "total_iterations", "capped_strips"}
    assert 0 < inv["max_iterations"] <= inv["total_iterations"]
    assert inv["strips"] > 0 and inv["capped_strips"] == 0
    assert 0.0 <= tel["bl"]["seconds"] <= tel["phase_seconds"]["bl"]
    assert report["separation_constant"] > 0.2
    assert report["bl_distance"] < 0.5
    csv = next(tmp_path.glob("discretize_*.csv"))
    assert csv.read_text().splitlines()[0] == "re,im"


def test_discretize_default_config_exact_bl(tmp_path):
    # the default config compares N = 256 points with 256 blocks x 8 nodes,
    # 2304 atoms in all; the distance is the exact optimum of the transport
    # LP for this configuration (HiGHS, about 30 s, so the value is frozen)
    assert run(["--out", str(tmp_path), "discretize"]) == 0
    report = json.loads(next(tmp_path.glob("discretize_*.json")).read_text())
    assert report["N"] == 256
    assert report["bl_distance"] == pytest.approx(0.09783524254376236, abs=1e-9)
    bl = report["telemetry"]["bl"]
    assert (bl["path"], bl["rows"], bl["cols"]) == ("assignment", 2048, 2048)
    inv = report["telemetry"]["discretize"]
    assert inv["strips"] == 16 and inv["capped_strips"] == 0


def test_rate_table(tmp_path):
    assert run(["--out", str(tmp_path), "rate"]) == 0
    rows = json.loads(next(tmp_path.glob("rate_*.json")).read_text())["rows"]
    assert len(rows) == 12
    assert all(r["rate"] > 0 for r in rows)


def test_verify_subset(tmp_path):
    code = run(["--out", str(tmp_path), "verify", "--criteria", "2,11"])
    assert code == 0
    payload = json.loads(next(tmp_path.glob("verify_*.json")).read_text())
    assert payload["all_pass"] is True
    assert [c["number"] for c in payload["criteria"]] == [2, 11]
    assert all(c["passed"] for c in payload["criteria"])
    # clause flags are JSON booleans, also where a criterion computes numpy ones
    assert all(type(clause["ok"]) is bool
               for c in payload["criteria"] for clause in c["clauses"])


def test_verify_documented_failure_exits_zero(tmp_path):
    # criterion 3's N = 64 upper-bound clause fails by design (expected_to_fail)
    code = run(["--out", str(tmp_path), "verify", "--criteria", "3"])
    assert code == 0
    payload = json.loads(next(tmp_path.glob("verify_*.json")).read_text())
    assert payload["all_pass"] is True
    (criterion,) = payload["criteria"]
    assert criterion["passed"] is True
    clause = next(c for c in criterion["clauses"] if c["name"] == "upper/N^2 within 0.05 at N=64")
    assert clause["ok"] is False and clause["expected_to_fail"] is True


def test_linstat_outputs(tmp_path):
    cfg = _write_config(tmp_path, {
        "schema_version": 1,
        "ensemble": {"N": 6, "s": 12.0, "beta": 2.0, "c0": 0.1},
        "sample": {"steps": 12000, "burn_in": 1000, "thin": 10},
        "linstat": {"statistics": ["z"], "moments": [[1, 1]], "bins": 16},
    })
    assert run(["--config", cfg, "--out", str(tmp_path), "linstat"]) == 0
    payload = json.loads(next(tmp_path.glob("linstat_*.json")).read_text())
    labels = [r["label"] for r in payload["reports"]]
    assert labels == ["z", "moment_abs2_1_1"]
    hist = next(tmp_path.glob("linstat_*.hist.csv"))
    data = np.loadtxt(hist, delimiter=",", skiprows=1)
    xs, ys = np.unique(data[:, 0]), np.unique(data[:, 1])
    cell = (xs[1] - xs[0]) * (ys[1] - ys[0])
    assert np.sum(data[:, 2]) * cell == pytest.approx(1.0, abs=1e-9)


def test_unknown_statistic_rejected(tmp_path, capsys, monkeypatch):
    # the names are checked before the chain runs
    def no_chain(*args, **kwargs):
        raise AssertionError("run_chain called")

    monkeypatch.setattr(cli.sampler, "run_chain", no_chain)
    cfg = _write_config(tmp_path, {
        "schema_version": 1,
        "sample": {"steps": 11000, "burn_in": 500, "thin": 10},
        "linstat": {"statistics": ["z", "nope"], "moments": []},
    })
    assert run(["--config", cfg, "--out", str(tmp_path), "linstat"]) == 2
    err = capsys.readouterr().err
    assert "linstat.statistics:" in err and "unknown statistic 'nope'" in err


def test_ensemble_checked_only_where_used(tmp_path, capsys):
    # fekete, rate and discretize use no (N, s) pair, so an inadmissible one
    # does not stop them; the commands that build the ensemble exit 3
    cfg = _write_config(tmp_path, {"schema_version": 1, "ensemble": {"N": 16, "s": 8},
                                   "discretize": {"base_atoms": 64, "bl_nodes_per_block": 4}})
    for argv in (["fekete", "--N", "4"], ["rate"], ["discretize", "--N", "16"]):
        assert run(["--config", cfg, "--out", str(tmp_path / argv[0]), *argv]) == 0
    for command in ("sample", "linstat", "partition"):
        assert run(["--config", cfg, "--out", str(tmp_path / command), command]) == 3
        assert "require s > N" in capsys.readouterr().err
        assert not (tmp_path / command).exists()
    # rate reads only beta, which must still be positive
    cfg = _write_config(tmp_path, {"schema_version": 1, "ensemble": {"beta": -1.0}})
    assert run(["--config", cfg, "--out", str(tmp_path / "bad"), "rate"]) == 2
    assert "ensemble.beta: must be positive" in capsys.readouterr().err


def test_nonconvergence_exit_code(tmp_path, capsys):
    cfg = _write_config(tmp_path, {
        "schema_version": 1,
        "fekete": {"N": 12, "max_iterations": 1},
    })
    assert run(["--config", cfg, "--out", str(tmp_path), "fekete"]) == 4
    record = json.loads(next(tmp_path.glob("fekete_*.json")).read_text())
    assert record["stop_reason"] == "max_iterations"
    err = capsys.readouterr().err
    assert "no fekete start" not in err
    assert "returned start " in err and "stop_reason=max_iterations" in err
