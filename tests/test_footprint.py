"""Import footprint: the chain, statistics, rate and partition paths run on
numpy alone, and each scipy submodule loads only with the call that uses it.

Each check runs in a fresh interpreter, since the test process itself has
imported scipy long before."""

import json
import os
import subprocess
import sys
from pathlib import Path

import coulomblab as cl
from coulomblab.measures import _bl_solve

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


def _fresh_run() -> dict:
    src = str(Path(cl.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = SCRIPT % (SCIPY_SUBMODULES, BL_CASES)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_scipy_loads_only_with_its_callers():
    out = _fresh_run()
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
