"""Import footprint: each coulomblab module executes at its first use, so a
command executes only the modules it calls into; the chain, statistics, rate
and partition paths run on numpy alone, and each scipy submodule loads only
with the call that uses it.

Each footprint check runs in a fresh interpreter, since the test process
itself has imported scipy and every coulomblab module long before."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import coulomblab as cl
from coulomblab.measures import _bl_solve

MODULES = ("acceptance", "cli", "fekete", "measures", "partition", "potential", "sampler",
           "stats")

SCIPY_SUBMODULES = ("scipy.optimize", "scipy.linalg", "scipy.sparse", "scipy.special")

# one case per BL path: 3 atoms divide 6 (assignment), 5 do not divide 7 (LP)
BL_CASES = {
    "assignment": ([0.1, 1 + 1j, -0.5j], [0.2, 1.5, -1 + 0.5j, 1j, -2, 0.3 - 0.3j]),
    "transport": ([0.1, 1 + 1j, -0.5j, 2, -1], [0.2, 1.5, -1 + 0.5j, 1j, -2, 0.3 - 0.3j, 1 - 1j]),
}

SCRIPT = """
import json, sys
import numpy as np
import coulomblab as cl
import coulomblab.cli

SUBMODULES = %r
CASES = %r


def loaded():
    return sorted(name for name in SUBMODULES if name in sys.modules)


out = {}
cfg = cl.ChainConfig(steps=1200, burn_in=200, thin=1)
params = cl.EnsembleParams(4, 16.0, 2.0)
for K in (cl.Disk(0, 1), cl.ExteriorMap(1, (0, 0, 0.15))):
    chain = cl.run_chain(params, K, cfg, seed=3)
    cl.linear_statistic(chain, lambda z: np.abs(z) ** 2)
    cl.moment_statistic(chain, lambda z: z, 1, 1)
    cl.intensity_histogram(chain, bins=8)
    cl.tail_mass_estimate(chain, 0.5)
    cl.in_low_energy_set(K, chain.states[-1], 0.5)
cl.log_partition_disk_exact(4, 16.0)
cl.weighted_energy(cl.CircleMeasure(0, 2), cl.Disk(0, 1), 0.5)
out["numpy_paths"] = loaded()

# two blocks of radius 0.5 at distance 0.3 overlap
cl.continuous_energy(cl.smooth(cl.AtomicMeasure([0, 0.3]), 0.5))
out["smoothed_energy"] = loaded()
cl.solve(cl.Disk(0, 1), 4, starts=1, seed=0)
out["fekete"] = loaded()

out["bl"] = {path: cl.bl_distance(cl.AtomicMeasure(x), cl.AtomicMeasure(y))
             for path, (x, y) in CASES.items()}
out["bl_loaded"] = loaded()
print(json.dumps(out))
"""


def _fresh(*argv: str) -> subprocess.CompletedProcess:
    """A fresh interpreter with `argv`, importing coulomblab from ./src."""
    src = str(Path(cl.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True,
                          timeout=300)


def _fresh_run(code: str, *args: str) -> dict:
    """The JSON that `code`, run in a fresh interpreter with `args`, prints on
    its last stdout line."""
    proc = _fresh("-c", code, *args)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_scipy_loads_only_with_its_callers():
    out = _fresh_run(SCRIPT % (SCIPY_SUBMODULES, BL_CASES))
    # chains on a disk and an exterior map, their statistics, the exact disk
    # partition function and a circle's weighted energy
    assert out["numpy_paths"] == []
    # the lens integral of overlapping smoothing blocks takes xlogy
    assert "scipy.special" in out["smoothed_energy"]
    # the Fekete Newton step factors with LAPACK
    assert "scipy.linalg" in out["fekete"]
    assert "scipy.optimize" not in out["fekete"]
    # the BL solvers take HiGHS, the assignment solver and a sparse matrix
    assert {"scipy.optimize", "scipy.sparse"} <= set(out["bl_loaded"])
    for path, (x, y) in BL_CASES.items():
        value, record = _bl_solve(cl.AtomicMeasure(x), cl.AtomicMeasure(y))
        assert record["path"] == path, record
        assert out["bl"][path] == value, path


BL_TIMING_SCRIPT = """
import json, sys, time
from coulomblab.measures import AtomicMeasure, _bl_solve

x, y = %r
before = "scipy.optimize" in sys.modules
t0 = time.perf_counter()
value, record = _bl_solve(AtomicMeasure(x), AtomicMeasure(y))
wall = time.perf_counter() - t0
print(json.dumps({"before": before, "after": "scipy.optimize" in sys.modules,
                  "record": record, "wall": wall}))
"""


def test_bl_seconds_leave_out_the_scipy_import():
    out = _fresh_run(BL_TIMING_SCRIPT % (BL_CASES["assignment"],))
    # this first solve of the process imports scipy.optimize ...
    assert not out["before"] and out["after"]
    assert out["record"]["path"] == "assignment"
    # ... and its `seconds` time a 6 x 6 assignment alone
    assert out["record"]["seconds"] < 0.1 * out["wall"], out


LOADED_SCRIPT = """
import json, sys, types

MODULES = %r


def executed():
    # a module not yet executed is still of LazyLoader's module subclass
    return sorted(m for m in MODULES if type(sys.modules["coulomblab." + m]) is types.ModuleType)
"""

IMPORT_SCRIPT = LOADED_SCRIPT + """
import coulomblab, coulomblab.cli
registered = sorted(m for m in MODULES if "coulomblab." + m in sys.modules)
after_import = executed()
# the benchmark tracer reads each layer's namespace through vars()
solve = vars(sys.modules["coulomblab.fekete"]).get("solve")
print(json.dumps({"registered": registered, "after_import": after_import,
                  "after_vars": executed(), "solve": solve is coulomblab.solve}))
"""

COMMAND_SCRIPT = LOADED_SCRIPT + """
import contextlib, io
from coulomblab.cli import main

config, out, *args = sys.argv[1:]
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["--config", config, "--out", out, *args])
print(json.dumps({"code": code, "executed": executed()}))
"""

# the modules each command executes, from a fresh interpreter on the unit disk
COMMAND_MODULES = {
    "sample --N 8 --s 16 --steps 600 --burn-in 200 --thin 5": ["cli", "potential", "sampler"],
    "linstat --N 8 --s 16 --steps 6000 --burn-in 1000 --thin 5":
        ["cli", "potential", "sampler", "stats"],
    "rate": ["cli", "measures", "potential", "sampler", "stats"],
    "fekete --N 8": ["cli", "fekete", "measures", "potential"],
    "partition --N 4 --s 16": ["cli", "measures", "partition", "potential", "sampler"],
    "partition --N 4 --s 16 --with-bounds":
        ["cli", "fekete", "measures", "partition", "potential", "sampler"],
    "discretize --N 16": ["cli", "measures", "potential"],
    "verify --criteria 11": ["acceptance", "cli", "measures", "potential", "sampler", "stats"],
}


def test_import_executes_cli_alone():
    out = _fresh_run(IMPORT_SCRIPT % (MODULES,))
    assert out["registered"] == list(MODULES)
    assert out["after_import"] == ["cli"]
    assert out["solve"] is True
    assert out["after_vars"] == ["cli", "fekete", "potential"]


@pytest.mark.parametrize("command", list(COMMAND_MODULES),
                         ids=lambda c: c.split()[0] + ("-with-bounds" if "--with-bounds" in c
                                                       else ""))
def test_each_command_executes_its_modules(command, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"schema_version": 1, "set": {
        "type": "disk", "center": [0, 0], "radius": 1}}))
    out = _fresh_run(COMMAND_SCRIPT % (MODULES,), str(config), str(tmp_path / "out"),
                     *command.split())
    assert out["code"] == 0, out
    assert out["executed"] == COMMAND_MODULES[command]


def test_cli_runs_as_main_without_warning():
    # cli is not registered ahead of its import: runpy warns, and would run it
    # twice, when the module it runs as __main__ is already in sys.modules
    proc = _fresh("-W", "error", "-m", "coulomblab.cli", "--help")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


# ---------------------------------------------------------------------------
# the package's public surface
# ---------------------------------------------------------------------------

def test_every_export_is_its_module_object():
    listed = dir(cl)
    assert len(cl.__all__) == len(set(cl.__all__)) == 57
    library = [getattr(cl, m) for m in MODULES if m != "cli"]
    for name in cl.__all__:
        value = getattr(cl, name)
        assert any(vars(module).get(name) is value for module in library), name
        assert name in listed, name


def test_star_import_and_unknown_attribute():
    namespace = {}
    exec("from coulomblab import *", namespace)
    for name in cl.__all__:
        assert namespace[name] is getattr(cl, name), name
    with pytest.raises(AttributeError, match="no_such_name"):
        cl.no_such_name
