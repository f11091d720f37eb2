"""Metropolis sampler correctness."""

import math

import numpy as np
import pytest

import coulomblab as cl
from coulomblab.sampler import _move_delta

DISK = cl.Disk(0.0, 1.0)


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

def test_params_validation():
    p = cl.EnsembleParams(16, 32.0, 2.0, 0.1)
    assert p.ell() == 0.5
    cl.EnsembleParams(4, math.inf, 2.0, 0.1)
    with pytest.raises(cl.InadmissibleParams):
        cl.EnsembleParams(16, 16.0, 2.0, 0.1)  # s must exceed N
    with pytest.raises(cl.InadmissibleParams):
        cl.EnsembleParams(16, 16.5, 1.0, 1.0)  # beta(s-N+1) = 1.5 < 2 + c0
    with pytest.raises(ValueError) as err:
        cl.EnsembleParams(16, 32.0, -1.0, 0.1)
    assert not isinstance(err.value, cl.InadmissibleParams)


def test_params_round_trip():
    p = cl.EnsembleParams(8, math.inf, 2.0, 0.2)
    assert cl.EnsembleParams.from_dict(p.to_dict()) == p
    assert p.to_dict()["s"] == "inf"
    assert p.ell() == 0.0


# ---------------------------------------------------------------------------
# log density
# ---------------------------------------------------------------------------

def test_log_density_examples():
    p1 = cl.EnsembleParams(1, 4.0, 2.0, 0.1)
    assert cl.log_density_unnormalized(p1, DISK, cl.Configuration([0.3])) == 0.0
    assert cl.log_density_unnormalized(p1, DISK, cl.Configuration([2.0])) == pytest.approx(
        -8.0 * math.log(2))
    p2 = cl.EnsembleParams(2, 8.0, 2.0, 0.1)
    d = 0.7
    c = cl.Configuration([0.1, 0.1 + d])
    assert cl.log_density_unnormalized(p2, DISK, c) == pytest.approx(2.0 * math.log(d))
    assert cl.log_density_unnormalized(
        p2, DISK, cl.Configuration([0.5, 0.5])) == -math.inf


def test_log_density_hard_wall():
    p = cl.EnsembleParams(2, math.inf, 2.0, 0.1)
    inside = cl.Configuration([0.2, -0.4])
    assert cl.log_density_unnormalized(p, DISK, inside) == pytest.approx(
        2.0 * math.log(0.6))
    outside = cl.Configuration([0.2, 1.5])
    assert cl.log_density_unnormalized(p, DISK, outside) == -math.inf


def test_log_density_rotational_equivariance():
    p = cl.EnsembleParams(12, 24.0, 2.0, 0.1)
    rng = np.random.default_rng(1)
    pts = rng.normal(size=12) * 0.8 + 1j * rng.normal(size=12) * 0.8
    base = cl.log_density_unnormalized(p, DISK, cl.Configuration(pts))
    rotated = cl.log_density_unnormalized(p, DISK, cl.Configuration(np.exp(1.1j) * pts))
    assert rotated == pytest.approx(base, abs=1e-12 * max(1.0, abs(base)))


def test_incremental_delta_matches_full():
    # detailed-balance invariant: incremental O(N) update equals the global
    # recomputation for random (state, proposal) pairs
    p = cl.EnsembleParams(16, 32.0, 2.0, 0.1)
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(10_000):
        pts = rng.normal(size=16) * 0.9 + 1j * rng.normal(size=16) * 0.9
        k = int(rng.integers(16))
        znew = complex(pts[k] + 0.4 * (rng.normal() + 1j * rng.normal()))
        g = np.atleast_1d(DISK.green(pts)).astype(float)
        delta, _, _ = _move_delta(p, DISK, pts, k, znew, g[k])
        before = cl.log_density_unnormalized(p, DISK, cl.Configuration(pts))
        pts2 = pts.copy()
        pts2[k] = znew
        after = cl.log_density_unnormalized(p, DISK, cl.Configuration(pts2))
        worst = max(worst, abs((after - before) - delta) / max(1.0, abs(delta)))
    assert worst <= 1e-9


# ---------------------------------------------------------------------------
# chains
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def chain8():
    p = cl.EnsembleParams(8, 16.0, 2.0, 0.1)
    return cl.run_chain(p, DISK, cl.ChainConfig(steps=40_000, burn_in=8_000, thin=8),
                        seed=99)


def test_chain_reproducible():
    p = cl.EnsembleParams(6, 12.0, 2.0, 0.1)
    cfg = cl.ChainConfig(steps=3_000, burn_in=500, thin=5)
    a = cl.run_chain(p, DISK, cfg, seed=123)
    b = cl.run_chain(p, DISK, cfg, seed=123)
    assert all(np.array_equal(x, y) for x, y in zip(a.states, b.states))
    assert np.array_equal(a.log_densities, b.log_densities)
    c = cl.run_chain(p, DISK, cfg, seed=124)
    assert not all(np.array_equal(x, y) for x, y in zip(a.states, c.states))


def test_chain_acceptance_tuned(chain8):
    assert 0.1 < chain8.acceptance_rate < 0.9
    assert cl.potential_scale_reduction(chain8) < 1.05


def test_chain_densities_match_recomputation(chain8):
    for state, stored in zip(chain8.states[::97], chain8.log_densities[::97]):
        fresh = cl.log_density_unnormalized(chain8.params, chain8.K,
                                            cl.Configuration(state))
        assert abs(fresh - stored) <= 1e-9 * max(1.0, abs(fresh))


def test_chain_radial_law_short():
    # reduced-size version of the acceptance oracle
    p = cl.EnsembleParams(1, 4.0, 2.0, 0.1)
    ch = cl.run_chain(p, DISK, cl.ChainConfig(steps=80_000, burn_in=5_000, thin=4),
                      seed=7)
    r = np.sort(np.abs(np.concatenate(ch.states)))
    T = 0.5 + 1.0 / 6.0
    inner = 0.5 * np.minimum(r, 1.0) ** 2
    outer = np.where(r > 1, (1 - r**(-6.0)) / 6.0, 0.0)
    cdf = (inner + outer) / T
    ks = float(np.max(np.abs(cdf - np.arange(1, r.size + 1) / r.size)))
    assert ks <= 0.05


def test_zero_acceptance_flagged():
    p = cl.EnsembleParams(4, 8.0, 2.0, 0.1)
    cfg = cl.ChainConfig(steps=200, burn_in=200, thin=10, step_scale=1e7)
    with pytest.warns(UserWarning, match="no proposal"):
        ch = cl.run_chain(p, DISK, cfg, seed=5)
    assert ch.zero_acceptance_burnin


def test_hard_wall_chain_stays_in_disk():
    p = cl.EnsembleParams(6, math.inf, 2.0, 0.1)
    ch = cl.run_chain(p, DISK, cl.ChainConfig(steps=5_000, burn_in=500, thin=10), seed=8)
    pts = np.concatenate(ch.states)
    assert np.all(np.abs(pts) <= 1.0 + 1e-9)


def test_chain_save_load_resume(tmp_path, chain8):
    base = tmp_path / "chain"
    chain8.save(base)
    loaded = cl.Chain.load(base)
    assert loaded.params == chain8.params
    assert np.allclose(loaded.states[-1], chain8.states[-1])
    more = cl.run_chain(chain8.params, DISK,
                        cl.ChainConfig(steps=500, burn_in=0, thin=5),
                        seed=1, init=loaded.last_configuration())
    assert len(more) == 100


# ---------------------------------------------------------------------------
# low-energy set
# ---------------------------------------------------------------------------

def test_in_low_energy_set_examples():
    p = cl.EnsembleParams(16, 32.0, 2.0, 0.1)
    roots = cl.Configuration(np.exp(2j * math.pi * np.arange(16) / 16))
    assert cl.in_low_energy_set(p, DISK, roots, 0.01)
    p2 = cl.EnsembleParams(2, 8.0, 2.0, 0.1)
    near = cl.Configuration([0.5, 0.5 + 1e-9])
    assert not cl.in_low_energy_set(p2, DISK, near, 0.1)
    fek = cl.solve(DISK, 8, seed=3).configuration
    assert cl.in_low_energy_set(cl.EnsembleParams(8, 16.0, 2.0, 0.1), DISK, fek, 1e-6)


def test_tail_mass_estimate(chain8):
    assert cl.tail_mass_estimate(chain8, 10.0) == 0.0
    assert cl.tail_mass_estimate(chain8, 0.2) <= 0.01
    short = cl.Chain(chain8.params, DISK, chain8.cfg, 0, chain8.states[:10],
                     list(chain8.log_densities[:10]), 0.5, 1.0)
    with pytest.raises(ValueError):
        cl.tail_mass_estimate(short, 0.2)


def test_chain_save_load_single_particle(tmp_path):
    p = cl.EnsembleParams(1, 4.0, 2.0, 0.1)
    ch = cl.run_chain(p, DISK, cl.ChainConfig(steps=300, burn_in=50, thin=10), seed=3)
    base = tmp_path / "one"
    ch.save(base)
    loaded = cl.Chain.load(base)
    assert np.allclose(loaded.state_array(), ch.state_array())
    assert np.allclose(loaded.log_densities, ch.log_densities)
