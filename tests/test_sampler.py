"""Metropolis sampler correctness."""

import math
import warnings

import numpy as np
import pytest

import coulomblab as cl
from coulomblab.potential import MEMBERSHIP_TOL, _pair_log_sum
from coulomblab import sampler
from coulomblab.sampler import (_BATCH, _TUNE_WINDOW, _log_density, _low_energy_bound,
                                _others_index)

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
    # a non-positive or non-finite beta or c0 is a ValueError, not an
    # ensemble-constraint violation, whether or not the constraint holds
    for beta, c0 in [(-1.0, 0.1), (math.inf, 0.1), (math.nan, 0.1), (1.0, math.nan),
                     (2.0, math.inf), (2.0, -math.inf)]:
        with pytest.raises(ValueError, match="finite and positive") as err:
            cl.EnsembleParams(16, 16.5, beta, c0)
        assert not isinstance(err.value, cl.InadmissibleParams)
    with pytest.raises(ValueError, match="epsilon must be finite"):
        cl.smooth(cl.AtomicMeasure([0.0]), math.inf)
    with pytest.raises(ValueError, match="radius must be finite"):
        cl.CircleMeasure(0.0, math.inf)
    with pytest.raises(ValueError, match="max_iterations >= 0"):
        cl.fekete.solve(DISK, 4, max_iterations=-3)


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
    assert cl.log_density_unnormalized(p1, DISK, [0.3]) == 0.0
    assert cl.log_density_unnormalized(p1, DISK, [2.0]) == pytest.approx(
        -8.0 * math.log(2))
    p2 = cl.EnsembleParams(2, 8.0, 2.0, 0.1)
    d = 0.7
    c = [0.1, 0.1 + d]
    assert cl.log_density_unnormalized(p2, DISK, c) == pytest.approx(2.0 * math.log(d))
    assert cl.log_density_unnormalized(p2, DISK, [0.5, 0.5]) == -math.inf


def test_log_density_hard_wall():
    p = cl.EnsembleParams(2, math.inf, 2.0, 0.1)
    inside = [0.2, -0.4]
    assert cl.log_density_unnormalized(p, DISK, inside) == pytest.approx(
        2.0 * math.log(0.6))
    outside = [0.2, 1.5]
    assert cl.log_density_unnormalized(p, DISK, outside) == -math.inf


def test_log_density_rotational_equivariance():
    p = cl.EnsembleParams(12, 24.0, 2.0, 0.1)
    rng = np.random.default_rng(1)
    pts = rng.normal(size=12) * 0.8 + 1j * rng.normal(size=12) * 0.8
    base = cl.log_density_unnormalized(p, DISK, pts)
    rotated = cl.log_density_unnormalized(p, DISK, np.exp(1.1j) * pts)
    assert rotated == pytest.approx(base, abs=1e-12 * max(1.0, abs(base)))


@pytest.mark.parametrize("params,K", [
    (cl.EnsembleParams(16, 32.0, 2.0, 0.1), DISK),
    (cl.EnsembleParams(6, math.inf, 2.0, 0.1), DISK),
    (cl.EnsembleParams(6, 12.0, 2.0, 0.1), cl.ExteriorMap(1.5, (0.0, 0.5))),
], ids=["disk_N16", "hard_wall", "exterior_map"])
def test_chain_densities_match_full_recomputation(params, K):
    # the incremental O(N) updates of every step add up to the global
    # density of each stored state
    ch = cl.run_chain(params, K, cl.ChainConfig(steps=6_000, burn_in=1_000, thin=10), seed=21)
    assert len(ch) == 600
    for state, stored in zip(ch.states, ch.log_densities):
        fresh = cl.log_density_unnormalized(params, K, state)
        assert abs(fresh - stored) <= 1e-9 * max(1.0, abs(fresh))


def test_others_index():
    table = _others_index(4)
    assert table.tolist() == [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]]
    assert _others_index(1).shape == (1, 0)


# ---------------------------------------------------------------------------
# chain configuration
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kwargs", [{"thin": 0}, {"thin": -3}, {"steps": -1},
                                    {"burn_in": -1}, {"step_scale": math.nan},
                                    {"step_scale": math.inf}, {"step_scale": 0.0},
                                    {"step_scale": -0.5}])
def test_chain_config_rejects(kwargs):
    with pytest.raises(ValueError):
        cl.ChainConfig(**kwargs)


def test_chain_config_accepts_edges():
    cl.ChainConfig(steps=0, burn_in=0, thin=1, step_scale=None)
    cl.ChainConfig(step_scale=1e-9)


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
        fresh = cl.log_density_unnormalized(chain8.params, chain8.K, state)
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


@pytest.mark.parametrize("s, points", [(6.0, [0.1, 0.1, -0.3]), (6.0, [0.1, math.nan, -0.3]),
                                       (6.0, [0.1, 0.2, complex(0.0, math.inf)]),
                                       (math.inf, [1.05, 0.2, -0.3])],
                         ids=["coincident", "nan", "inf", "hard_wall_off_k"])
def test_chain_rejects_degenerate_init(s, points):
    # the initial density would be -inf or nan, and so would every stored one
    # (under the hard wall, until the point off K moved in)
    with pytest.raises(ValueError, match="init has"):
        cl.run_chain(cl.EnsembleParams(3, s, 2.0, 0.1), DISK,
                     cl.ChainConfig(steps=200, burn_in=0, thin=1), seed=1,
                     init=points)


class _InvalidGreenDisk(cl.Disk):
    """A disk whose green emits numpy's invalid-value RuntimeWarning on every
    call after the first, so only the chain's steps warn."""

    calls = 0

    def green(self, z):
        _InvalidGreenDisk.calls += 1
        if _InvalidGreenDisk.calls > 1:
            np.log(np.array(-1.0))
        return super().green(z)


def test_chain_surfaces_invalid_warnings_from_green():
    # the step loop ignores divide-by-zero only
    _InvalidGreenDisk.calls = 0
    with pytest.warns(RuntimeWarning, match="invalid value"):
        cl.run_chain(cl.EnsembleParams(4, 8.0, 2.0, 0.1), _InvalidGreenDisk(0.0, 1.0),
                     cl.ChainConfig(steps=50, burn_in=0, thin=1), seed=1)
    assert _InvalidGreenDisk.calls > 1


def test_hard_wall_chain_stays_in_disk():
    p = cl.EnsembleParams(6, math.inf, 2.0, 0.1)
    ch = cl.run_chain(p, DISK, cl.ChainConfig(steps=5_000, burn_in=500, thin=10), seed=8)
    pts = np.concatenate(ch.states)
    assert np.all(np.abs(pts) <= 1.0 + 1e-9)


@pytest.mark.parametrize("K", [cl.Segment(-2.0, 2.0), cl.ExteriorMap(1.0, (0.0, 1.0))],
                         ids=["segment", "exterior_map"])
def test_hard_wall_refused_on_zero_area_set(K):
    # s = inf confines the points to K, which has no area here: the ensemble
    # has no density in the plane, and every Gaussian proposal leaves K
    assert K.area() == 0.0
    with pytest.raises(cl.InadmissibleParams, match="zero area"):
        cl.run_chain(cl.EnsembleParams(8, math.inf, 2.0, 0.1), K,
                     cl.ChainConfig(steps=2000, burn_in=500, thin=10), seed=11)
    ch = cl.run_chain(cl.EnsembleParams(8, 16.0, 2.0, 0.1), K,
                      cl.ChainConfig(steps=200, burn_in=0, thin=10), seed=11)
    assert len(ch) == 20 and ch.acceptance_rate > 0


def test_chain_save_load_resume(tmp_path, chain8):
    base = tmp_path / "chain"
    chain8.save(base)
    loaded = cl.Chain.load(base)
    assert loaded.params == chain8.params
    assert np.array_equal(loaded.states, chain8.states)
    assert np.array_equal(loaded.log_densities, chain8.log_densities)
    last = loaded.states[-1].copy()
    more = cl.run_chain(chain8.params, DISK, cl.ChainConfig(steps=500, burn_in=0, thin=5),
                        seed=1, init=loaded.states[-1])
    assert len(more) == 100
    assert more.states[0].tobytes() != last.tobytes()  # the resumed chain moved
    assert np.array_equal(loaded.states[-1], last)  # and left its init as it was


# ---------------------------------------------------------------------------
# low-energy set
# ---------------------------------------------------------------------------

def test_in_low_energy_set_examples():
    roots = np.exp(2j * math.pi * np.arange(16) / 16)
    assert cl.in_low_energy_set(DISK, roots, 0.01)
    near = [0.5, 0.5 + 1e-9]
    assert not cl.in_low_energy_set(DISK, near, 0.1)
    fek = cl.solve(DISK, 8, seed=3).configuration
    assert cl.in_low_energy_set(DISK, fek, 1e-6)


def _tail_mass_by_state(chain, eps):
    """tail_mass_estimate as one in_low_energy_set call per stored state."""
    return sum(not cl.in_low_energy_set(chain.K, s, eps)
               for s in chain.states) / len(chain)


def test_tail_mass_estimate(chain8):
    assert cl.tail_mass_estimate(chain8, 10.0) == 0.0
    assert cl.tail_mass_estimate(chain8, 0.2) <= 0.01
    for eps in (0.2, 0.01, 0.001):
        assert cl.tail_mass_estimate(chain8, eps) == _tail_mass_by_state(chain8, eps)
    short = cl.Chain(chain8.params, DISK, chain8.cfg, 0, chain8.states[:10],
                     list(chain8.log_densities[:10]), 0.5, 1.0)
    with pytest.raises(ValueError):
        cl.tail_mass_estimate(short, 0.2)


def test_tail_mass_estimate_at_bounds_on_stored_objectives(chain8):
    # a bound equal to a stored state's objective classifies it one way only
    # if the block sums of tail_mass_estimate are bitwise the per-state sums
    # of in_low_energy_set
    ch = cl.Chain(chain8.params, DISK, chain8.cfg, 0, chain8.states[:1000],
                  chain8.log_densities[:1000], 0.5, 1.0, green_sums=chain8.green_sums[:1000])
    n = ch.params.N
    hits = set()
    for state in ch.states[:60]:
        objective = cl.log_delta(DISK, state)
        eps = -objective / (n * (n - 1) / 2) - cl.robin_energy(DISK)
        for direction in (-math.inf, math.inf):
            e = eps
            for _ in range(4):
                if _low_energy_bound(DISK, n, e) == objective:
                    hits.add(e)
                e = np.nextafter(e, direction)
    assert len(hits) >= 20
    for eps in sorted(hits):
        assert cl.tail_mass_estimate(ch, eps) == _tail_mass_by_state(ch, eps)


def test_tail_mass_estimate_exterior_map_and_one_particle():
    K = cl.ExteriorMap(1.5, (0.0, 0.5))
    ch = cl.run_chain(cl.EnsembleParams(6, 12.0, 2.0, 0.1), K,
                      cl.ChainConfig(steps=1_000, burn_in=200, thin=1), seed=4)
    masses = [cl.tail_mass_estimate(ch, eps) for eps in (0.2, 0.01, 0.001)]
    assert masses == [_tail_mass_by_state(ch, eps) for eps in (0.2, 0.01, 0.001)]
    assert 0.0 < masses[-1] < 1.0  # the comparison sees states on both sides
    one = cl.run_chain(cl.EnsembleParams(1, 4.0, 2.0, 0.1), DISK,
                       cl.ChainConfig(steps=1_000, burn_in=0, thin=1), seed=3)
    assert cl.tail_mass_estimate(one, 0.2) == 0.0


def _counting(cls):
    """A subclass of the set class cls whose green counts its calls."""

    class Counting(cls):
        calls = 0

        def green(self, z):
            Counting.calls += 1
            return super().green(z)

    return Counting


@pytest.mark.parametrize("K,s", [
    (_counting(cl.Disk)(0.0, 1.0), 16.0),
    (_counting(cl.Disk)(0.0, 1.0), math.inf),
    (_counting(cl.Segment)(-2.0, 2.0), 16.0),
    (_counting(cl.Ellipse)(0.3 - 0.2j, 2.0, 1.0), 16.0),
    (_counting(cl.ExteriorMap)(1.5, (0.0, 0.5)), 16.0),
    (_counting(cl.ExteriorMap)(1.0, (0.0, 0.0, 0.15)), 16.0),
], ids=["disk", "disk_hard_wall", "segment", "ellipse", "exterior_map_m1", "exterior_map_m2"])
def test_chain_records_green_sums(K, s):
    # the recorded sums are bitwise green on the stored states, and the
    # tail mass of a run_chain chain calls green not once
    ch = cl.run_chain(cl.EnsembleParams(8, s, 2.0, 0.1), K, cl.ChainConfig(2_000, 500, 2),
                      seed=6)
    type(K).calls = 0
    recorded = ch.green_sums
    cl.tail_mass_estimate(ch, 0.01)
    assert type(K).calls == 0
    assert len(recorded) == len(ch) == 1000
    assert np.array_equal(recorded, np.add.reduce(K.green(ch.state_array()), axis=1))


def test_tail_mass_same_from_recorded_rebuilt_and_loaded_sums(tmp_path):
    K = cl.ExteriorMap(1.5, (0.0, 0.5))
    ch = cl.run_chain(cl.EnsembleParams(6, 12.0, 2.0, 0.1), K,
                      cl.ChainConfig(steps=1_000, burn_in=200, thin=1), seed=4)
    rebuilt = cl.Chain(ch.params, K, ch.cfg, ch.seed, list(ch.states), list(ch.log_densities),
                       ch.acceptance_rate, ch.step_scale)
    ch.save(tmp_path / "chain")
    loaded = cl.Chain.load(tmp_path / "chain")
    for other in (rebuilt, loaded):
        assert np.array_equal(other.green_sums, ch.green_sums)
    # sums whose length differs from the states' are an error, not recomputed
    with pytest.raises(ValueError, match="green sums"):
        cl.Chain(ch.params, K, ch.cfg, ch.seed, ch.states[:-1], ch.log_densities[:-1],
                 ch.acceptance_rate, ch.step_scale, green_sums=ch.green_sums)
    for eps in (0.2, 0.01, 0.001):
        assert len({cl.tail_mass_estimate(c, eps) for c in (ch, rebuilt, loaded)}) == 1
    empty = cl.Chain(ch.params, K, ch.cfg, ch.seed, [], [], 0.0, 1.0)
    assert empty.green_sums.shape == (0,)


def test_chain_rejects_log_densities_of_another_length():
    ch = cl.run_chain(cl.EnsembleParams(4, 8.0, 2.0, 0.1), DISK,
                      cl.ChainConfig(steps=600, burn_in=100, thin=2), seed=5)
    with pytest.raises(ValueError, match="150 log densities for 300 stored states"):
        cl.Chain(ch.params, DISK, ch.cfg, ch.seed, ch.states, ch.log_densities[:150],
                 ch.acceptance_rate, ch.step_scale)
    with pytest.raises(ValueError, match="300 log densities for 150 stored states"):
        cl.Chain(ch.params, DISK, ch.cfg, ch.seed, ch.states[:150], ch.log_densities,
                 ch.acceptance_rate, ch.step_scale)


def test_chain_save_load_single_particle(tmp_path):
    p = cl.EnsembleParams(1, 4.0, 2.0, 0.1)
    ch = cl.run_chain(p, DISK, cl.ChainConfig(steps=300, burn_in=50, thin=10), seed=3)
    # fewer steps than thin stores no state
    empty = cl.run_chain(cl.EnsembleParams(4, 8.0, 2.0, 0.1), DISK,
                         cl.ChainConfig(steps=5, burn_in=10, thin=10), seed=3)
    assert empty.state_array().shape == (0, 4)
    for name, chain in (("one", ch), ("empty", empty)):
        chain.save(tmp_path / name)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loaded = cl.Chain.load(tmp_path / name)
        assert loaded.state_array().shape == chain.state_array().shape
        assert np.array_equal(loaded.state_array(), chain.state_array())
        assert np.array_equal(loaded.log_densities, chain.log_densities)
        assert np.array_equal(loaded.green_sums, chain.green_sums)


def test_chain_states_are_one_array(tmp_path):
    # run_chain, load and a hand-built chain all hold one (n_states, N)
    # complex128 array, and rows or the array build the same chain
    p = cl.EnsembleParams(4, 8.0, 2.0, 0.1)
    ch = cl.run_chain(p, DISK, cl.ChainConfig(steps=300, burn_in=50, thin=3), seed=5)
    ch.save(tmp_path / "chain")
    rows = [state.tolist() for state in ch.states]
    from_rows = cl.Chain(p, DISK, ch.cfg, 5, rows, list(ch.log_densities), 0.5, 1.0)
    from_array = cl.Chain(p, DISK, ch.cfg, 5, ch.states.copy(), ch.log_densities, 0.5, 1.0)
    for other in (ch, cl.Chain.load(tmp_path / "chain"), from_rows, from_array):
        assert other.states.shape == (100, 4) and other.states.dtype == np.complex128
        assert other.state_array() is other.states
        assert np.array_equal(other.states, ch.states)
        assert np.array_equal(other.green_sums, ch.green_sums)
    with pytest.raises(ValueError):
        cl.Chain(p, DISK, ch.cfg, 5, ch.states[:, :3], ch.log_densities, 0.5, 1.0)


# ---------------------------------------------------------------------------
# byte-identity oracle: the one-proposal-at-a-time Metropolis loop
# ---------------------------------------------------------------------------

def _sequential_move_delta(params, K, pts, k, z_new, g_old):
    """(delta, delta_pair, g_new) for moving particle k to z_new, with green
    evaluated on the proposal alone and the others picked by a mask."""
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


def _sequential_chain(params, K, cfg, seed, init=None):
    """run_chain as one proposal, one green call and one masked O(N) pair
    delta per step: (states, log densities, acceptance, step scale)."""
    rng = np.random.default_rng(seed)
    n = params.N
    if init is not None:
        pts = np.array(init, dtype=complex)
    else:
        theta = rng.uniform(0, 2 * math.pi, n)
        pts = np.asarray(K.boundary_point(theta), dtype=complex).reshape(n)
    scale = cfg.step_scale if cfg.step_scale is not None else 0.5 * K.capacity()
    g = np.atleast_1d(K.green(pts)).astype(float)
    pair_sum = _pair_log_sum(pts)
    states, log_dens = [], []
    accepted_post = steps_post = accepted_window = 0
    window, total, drawn = 200, cfg.burn_in + cfg.steps, 0
    while drawn < total:
        b = min(4096, total - drawn)
        idxs = rng.integers(0, n, size=b)
        unit_moves = rng.standard_normal(b) + 1j * rng.standard_normal(b)
        logu = np.log(rng.random(b))
        for j in range(b):
            step_index = drawn + j
            k = int(idxs[j])
            z_new = pts[k] + scale * unit_moves[j]
            delta, delta_pair, g_new = _sequential_move_delta(params, K, pts, k, z_new, g[k])
            if delta > logu[j]:
                pts[k] = z_new
                g[k] = g_new
                pair_sum += delta_pair
                if step_index < cfg.burn_in:
                    accepted_window += 1
                else:
                    accepted_post += 1
            if step_index >= cfg.burn_in:
                steps_post += 1
                if (step_index - cfg.burn_in + 1) % cfg.thin == 0:
                    states.append(pts.copy())
                    log_dens.append(_log_density(params, g, pair_sum)[0])
            elif cfg.step_scale is None and (step_index + 1) % window == 0:
                scale *= math.exp(0.7 * (accepted_window / window - 0.35))
                scale = min(max(scale, 1e-4 * K.capacity()), 10.0 * K.capacity())
                accepted_window = 0
            if (step_index + 1) % 10_000 == 0:
                pair_sum = _pair_log_sum(pts)
                g = np.atleast_1d(K.green(pts)).astype(float)
        drawn += b
    acc = accepted_post / steps_post if steps_post else 0.0
    return np.asarray(states), np.asarray(log_dens, dtype=float), acc, scale


class _BatchRaisingDisk(cl.Disk):
    """A disk whose green raises InversionError on an array holding two or
    more points beyond radius 1.05: a batch of proposals can raise, a
    single proposal never does."""

    raised = 0

    def green(self, z):
        if np.count_nonzero(np.abs(np.asarray(z) - self.center) > 1.05 * self.radius) > 1:
            _BatchRaisingDisk.raised += 1
            raise cl.InversionError("two or more points beyond radius 1.05")
        return super().green(z)


RING8 = 0.9 * np.exp(2j * math.pi * np.arange(8) / 8)

# (params, set, config, seed, init); the N = 16 chain crosses two draw
# blocks and the periodic full recomputation at step 10000, the N = 2 one
# three draw blocks with a stale proposal about every third step; burn_in_730
# ends its burn-in inside a tuning window; in raising_batches about one
# batch in four raises InversionError and is re-formed as its first proposal
EXACT_CHAINS = {
    "disk_N1": (cl.EnsembleParams(1, 4.0, 2.0, 0.1), DISK,
                cl.ChainConfig(steps=6_000, burn_in=1_000, thin=4), 71, None),
    "disk_N2": (cl.EnsembleParams(2, 8.0, 2.0, 0.1), DISK,
                cl.ChainConfig(steps=6_000, burn_in=1_000, thin=5), 72, None),
    "disk_N16": (cl.EnsembleParams(16, 32.0, 2.0, 0.1), DISK,
                 cl.ChainConfig(steps=9_000, burn_in=1_200, thin=10), 61, None),
    "disk_N32": (cl.EnsembleParams(32, 64.0, 2.0, 0.1), DISK,
                 cl.ChainConfig(steps=3_000, burn_in=1_000, thin=10), 62, None),
    "hard_wall": (cl.EnsembleParams(6, math.inf, 2.0, 0.1), DISK,
                  cl.ChainConfig(steps=3_000, burn_in=600, thin=5), 8, None),
    "exterior_map": (cl.EnsembleParams(6, 12.0, 2.0, 0.1), cl.ExteriorMap(1.5, (0.0, 0.5)),
                     cl.ChainConfig(steps=2_000, burn_in=600, thin=2), 3, None),
    "segment": (cl.EnsembleParams(6, 12.0, 2.0, 0.1), cl.Segment(-2.0, 2.0),
                cl.ChainConfig(steps=2_000, burn_in=600, thin=2), 5, None),
    "ellipse": (cl.EnsembleParams(6, 12.0, 2.0, 0.1), cl.Ellipse(0.3 - 0.2j, 2.0, 1.0),
                cl.ChainConfig(steps=2_000, burn_in=600, thin=2), 6, None),
    "exterior_map_m2": (cl.EnsembleParams(6, 12.0, 2.0, 0.1),
                        cl.ExteriorMap(1.0, (0.0, 0.0, 0.15)),
                        cl.ChainConfig(steps=2_000, burn_in=600, thin=2), 4, None),
    "init": (cl.EnsembleParams(8, 16.0, 2.0, 0.1), DISK,
             cl.ChainConfig(steps=3_000, burn_in=0, thin=3), 10, RING8),
    "fixed_scale": (cl.EnsembleParams(8, 16.0, 2.0, 0.1), DISK,
                    cl.ChainConfig(steps=3_000, burn_in=600, thin=3, step_scale=0.3), 9, None),
    "three_blocks_N2": (cl.EnsembleParams(2, 8.0, 2.0, 0.1), DISK,
                        cl.ChainConfig(steps=9_000, burn_in=1_000, thin=3), 73, None),
    "burn_in_730": (cl.EnsembleParams(4, 8.0, 2.0, 0.1), cl.ExteriorMap(1.5, (0.0, 0.5)),
                    cl.ChainConfig(steps=2_500, burn_in=730, thin=3), 74, None),
    "raising_batches": (cl.EnsembleParams(4, 16.0, 2.0, 0.1), _BatchRaisingDisk(0.0, 1.0),
                        cl.ChainConfig(steps=3_000, burn_in=500, thin=3, step_scale=0.1), 15,
                        None),
    "ellipse_N8": (cl.EnsembleParams(8, 16.0, 2.0, 0.1), cl.Ellipse(0.0, 2.0, 1.0),
                   cl.ChainConfig(6_000, 1_000, 3), 5, None),
    "segment_N8": (cl.EnsembleParams(8, 16.0, 2.0, 0.1), cl.Segment(-2.0, 2.0),
                   cl.ChainConfig(6_000, 1_000, 3), 5, None),
    # a burn-in past the pair-sum recompute at step 10000 that ends inside
    # a tuning window, a step count off the thinning grid, and no steps
    "burn_in_past_recompute": (cl.EnsembleParams(3, 8.0, 2.0, 0.1), DISK,
                               cl.ChainConfig(900, 10_300, 3), 75, None),
    "steps_off_thin": (cl.EnsembleParams(5, 10.0, 2.0, 0.1), DISK,
                       cl.ChainConfig(2_003, 400, 4), 76, None),
    "no_steps": (cl.EnsembleParams(4, 8.0, 2.0, 0.1), DISK,
                 cl.ChainConfig(0, 700, 3), 77, None),
}


@pytest.mark.parametrize("name", sorted(EXACT_CHAINS))
def test_chain_equals_sequential_loop(name):
    params, K, cfg, seed, init = EXACT_CHAINS[name]
    states, log_dens, acc, scale = _sequential_chain(params, K, cfg, seed, init)
    ch = cl.run_chain(params, K, cfg, seed=seed, init=init)
    assert ch.state_array().tobytes() == states.tobytes()
    assert ch.log_densities.tobytes() == log_dens.tobytes()
    assert ch.acceptance_rate == acc and ch.step_scale == scale
    assert 0 < ch.telemetry["stale_points"] < cfg.burn_in + cfg.steps


@pytest.mark.parametrize("name", sorted(EXACT_CHAINS))
def test_chain_bytes_do_not_depend_on_batch_size(name, monkeypatch):
    # from one proposal a batch to a whole tuning window, every batch size
    # gives the same chain
    params, K, cfg, seed, init = EXACT_CHAINS[name]
    ref = cl.run_chain(params, K, cfg, seed=seed, init=init)
    for batch in (1, 7, 200):
        monkeypatch.setattr(sampler, "_BATCH", batch)
        ch = cl.run_chain(params, K, cfg, seed=seed, init=init)
        assert ch.states.tobytes() == ref.states.tobytes(), batch
        assert ch.log_densities.tobytes() == ref.log_densities.tobytes(), batch
        assert ch.green_sums.tobytes() == ref.green_sums.tobytes(), batch
        assert (ch.acceptance_rate, ch.step_scale) == (ref.acceptance_rate, ref.step_scale)


@pytest.mark.parametrize("case", [
    EXACT_CHAINS["disk_N16"], EXACT_CHAINS["hard_wall"], EXACT_CHAINS["ellipse"],
    (cl.EnsembleParams(6, 12.0, 2.0, 0.1), cl.ExteriorMap(1.0, (0.0, 0.0, 0.15)),
     cl.ChainConfig(steps=10_000, burn_in=1_000, thin=10), 4, None)],
    ids=["disk", "hard_wall", "ellipse", "exterior_map_m2_recompute"])
def test_stored_densities_are_log_density_of_each_state(case, monkeypatch):
    # run_chain's one pass over its (states, N) green table gives each
    # stored state bit for bit what _log_density gives that state alone;
    # the table is green on the stored states, past the pair-sum recompute
    # at step 10000 too, since the loop's green values are never recomputed
    params, K, cfg, seed, init = case
    tables = []

    def recording(params, g, pair_sum):
        tables.append((g.copy(), pair_sum.copy()))
        return _log_density(params, g, pair_sum)

    monkeypatch.setattr(sampler, "_log_density", recording)
    ch = cl.run_chain(params, K, cfg, seed=seed, init=init)
    (g_table, pair_sums), = tables
    assert g_table.tobytes() == K.green(ch.states).tobytes()
    for j in range(len(ch)):
        log_density, green_sum = _log_density(params, g_table[j], pair_sums[j])
        assert np.float64(log_density).tobytes() == ch.log_densities[j].tobytes()
        assert np.float64(green_sum).tobytes() == ch.green_sums[j].tobytes()


def test_chain_rejects_a_proposal_onto_another_particle():
    # the first proposal lands exactly on particle j: log 0 = -inf rejects
    # it without a warning, as the sequential loop's explicit test does
    params, seed, n = cl.EnsembleParams(4, 8.0, 2.0, 0.1), 3, 4
    cfg = cl.ChainConfig(steps=400, burn_in=0, thin=1, step_scale=0.3)
    rng = np.random.default_rng(seed)
    k = int(rng.integers(0, n, size=400)[0])
    unit_moves = rng.standard_normal(400) + 1j * rng.standard_normal(400)
    pts = np.array([0.5, 0.5j, -0.5, -0.5j])
    j = (k + 1) % n
    pts[j] = (pts[[k]] + cfg.step_scale * unit_moves[:1])[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ch = cl.run_chain(params, DISK, cfg, seed=seed, init=pts)
        states, log_dens, acc, scale = _sequential_chain(params, DISK, cfg, seed, pts)
    assert ch.states[0].tobytes() == pts.tobytes()
    assert ch.state_array().tobytes() == states.tobytes()
    assert ch.log_densities.tobytes() == log_dens.tobytes()
    assert ch.acceptance_rate == acc and ch.step_scale == scale


def test_chain_falls_back_to_single_points():
    _BatchRaisingDisk.raised = 0
    params, cfg = cl.EnsembleParams(4, 8.0, 2.0, 0.1), cl.ChainConfig(4_000, 1_000, 4)
    states, log_dens, acc, scale = _sequential_chain(params, DISK, cfg, 12)
    ch = cl.run_chain(params, _BatchRaisingDisk(0.0, 1.0), cfg, seed=12)
    assert _BatchRaisingDisk.raised > 0
    assert ch.state_array().tobytes() == states.tobytes()
    assert ch.log_densities.tobytes() == log_dens.tobytes()
    assert ch.acceptance_rate == acc and ch.step_scale == scale
    # each batch whose call raised was re-formed as its first proposal
    tel = ch.telemetry
    assert tel["inversion_errors"] == _BatchRaisingDisk.raised
    assert tel["stale_points"] <= tel["batches"]
    assert 0 <= tel["lookahead_points"] <= (_BATCH - 1) * tel["batches"]
    # the tail mass reads the recorded sums, so no batch of stored states raises
    on_disk = cl.Chain(params, DISK, cfg, 12, ch.states, ch.log_densities, acc, scale)
    assert cl.tail_mass_estimate(ch, 0.2) == cl.tail_mass_estimate(on_disk, 0.2)


class _FarRaisingDisk(cl.Disk):
    """A disk whose green raises InversionError on any array holding a point
    beyond radius 1.2, keeping each array it raised on."""

    raised_on = []

    def green(self, z):
        if np.any(np.abs(np.asarray(z) - self.center) > 1.2 * self.radius):
            _FarRaisingDisk.raised_on.append(np.array(z))
            raise cl.InversionError("a point beyond radius 1.2")
        return super().green(z)


def test_chain_raises_on_the_proposal_at_hand():
    # a raising batch is re-formed as the proposal at hand, and the chain
    # raises only when green raises on that proposal alone: the first
    # proposal beyond radius 1.2 of the one-proposal-at-a-time chain
    _FarRaisingDisk.raised_on = []
    params, seed = cl.EnsembleParams(4, 8.0, 2.0, 0.1), 14
    cfg = cl.ChainConfig(steps=2_000, burn_in=0, thin=1, step_scale=0.5)
    with pytest.raises(cl.InversionError):
        cl.run_chain(params, _FarRaisingDisk(0.0, 1.0), cfg, seed=seed)
    *batches, last = _FarRaisingDisk.raised_on
    assert last.shape == (1,) and all(z.size > 1 for z in batches)
    proposed = []

    class Recording(cl.Disk):
        def green(self, z):
            if np.ndim(z) == 0:
                proposed.append(complex(z))
            return super().green(z)

    _sequential_chain(params, Recording(0.0, 1.0), cfg, seed)
    assert last[0] == next(z for z in proposed if abs(z) > 1.2)


class _NanGreenDisk(cl.Disk):
    """A disk whose green is NaN beyond radius 1.3, counting those points."""

    nan_points = 0

    def green(self, z):
        g = super().green(z)
        far = np.abs(np.asarray(z) - self.center) > 1.3 * self.radius
        _NanGreenDisk.nan_points += int(np.count_nonzero(far))
        if np.ndim(g):
            return np.where(far, np.nan, g)
        return math.nan if far else g


def test_chain_rejects_a_proposal_with_nan_green():
    # a NaN log-density change compares false against every log u, so the
    # proposal is rejected, as in the sequential loop
    _NanGreenDisk.nan_points = 0
    params = cl.EnsembleParams(6, 7.5, 2.0, 0.1)
    cfg = cl.ChainConfig(steps=4_000, burn_in=1_000, thin=4, step_scale=0.5)
    ch = cl.run_chain(params, _NanGreenDisk(0.0, 1.0), cfg, seed=13)
    assert _NanGreenDisk.nan_points > 0
    assert np.abs(ch.state_array()).max() <= 1.3
    assert np.all(np.isfinite(ch.log_densities))
    states, log_dens, acc, scale = _sequential_chain(params, _NanGreenDisk(0.0, 1.0), cfg, 13)
    assert ch.state_array().tobytes() == states.tobytes()
    assert ch.log_densities.tobytes() == log_dens.tobytes()
    assert ch.acceptance_rate == acc and ch.step_scale == scale


def test_green_sums_reject_a_nan_green():
    # a hand-built chain computes its green sums; a NaN one is an error that
    # names the state, not a state the tail mass counts as outside
    params, K = cl.EnsembleParams(8, 16.0, 2.0, 0.1), _NanGreenDisk(0.0, 1.0)
    states = np.tile(RING8, (1000, 1))
    ring = cl.Chain(params, K, cl.ChainConfig(), 0, states, np.zeros(1000), 0.5, 1.0)
    assert cl.tail_mass_estimate(ring, 0.2) == 0.0
    states = states.copy()
    states[17, 3] = states[400, 0] = 1.5
    ch = cl.Chain(params, K, cl.ChainConfig(), 0, states, np.zeros(1000), 0.5, 1.0)
    with pytest.raises(ValueError, match=r"green is NaN on stored state 17 \(2 such"):
        ch.green_sums
    with pytest.raises(ValueError, match="stored state 17"):
        cl.tail_mass_estimate(ch, 0.2)


def test_chain_telemetry(chain8, tmp_path):
    tel = chain8.telemetry
    assert set(tel) == {"scale_trace", "window_acceptance", "batches", "stale_points",
                        "lookahead_points", "inversion_errors", "loop_seconds"}
    # the wall time of the step loop
    assert math.isfinite(tel["loop_seconds"]) and tel["loop_seconds"] > 0
    windows = chain8.cfg.burn_in // _TUNE_WINDOW
    assert len(tel["window_acceptance"]) == len(tel["scale_trace"]) == windows
    assert tel["scale_trace"][-1] == chain8.step_scale
    assert all(0.0 <= a <= 1.0 for a in tel["window_acceptance"])
    assert tel["inversion_errors"] == 0
    # every batch starts at a block or window start or at a stale proposal
    assert 0 < tel["stale_points"] <= tel["batches"] <= chain8.cfg.burn_in + chain8.cfg.steps
    assert 0 <= tel["lookahead_points"] <= (_BATCH - 1) * tel["batches"]
    fixed = cl.run_chain(chain8.params, DISK, cl.ChainConfig(1_000, 450, 5, step_scale=0.2),
                         seed=2).telemetry
    assert fixed["scale_trace"] == [0.2, 0.2] and len(fixed["window_acceptance"]) == 2
    chain8.save(tmp_path / "chain")
    assert cl.Chain.load(tmp_path / "chain").telemetry == tel
