"""Measures, energies, the bounded-Lipschitz metric and the strip
discretization."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import dblquad, quad
from scipy.optimize import linear_sum_assignment, linprog

import coulomblab as cl
from coulomblab import measures
from coulomblab.measures import (_disk_pair_energy, _StripCDF, bl_distance,
                                 uniform_disk_potential)

DISK = cl.Disk(0.0, 1.0)


def _random_atomic(rng, n, scale=1.0):
    pts = scale * (rng.normal(size=n) + 1j * rng.normal(size=n))
    w = rng.random(n) + 0.1
    return cl.AtomicMeasure(pts, w / w.sum())


# ---------------------------------------------------------------------------
# discrete energy
# ---------------------------------------------------------------------------

def test_discrete_energy_examples():
    assert cl.discrete_energy([0.0, 1.0]) == 0.0
    assert cl.discrete_energy([0.0, math.e]) == pytest.approx(-0.5)
    for n in range(3, 13):
        roots = np.exp(2j * math.pi * np.arange(n) / n)
        # oracle: direct product of all ordered pair distances equals n^n
        prod = np.prod([abs(roots[i] - roots[j]) for i in range(n) for j in range(n) if i != j])
        assert prod == pytest.approx(float(n) ** n, rel=1e-9)
        assert cl.discrete_energy(roots) == pytest.approx(-math.log(n) / n, abs=1e-12)


def test_discrete_energy_coincident_infinite():
    assert cl.discrete_energy([1.0, 1.0, 2.0]) == math.inf


P3 = cl.EnsembleParams(3, 6.0, 2.0, 0.1)
CONSUMERS = {
    "log_delta": lambda c: cl.log_delta(DISK, c),
    "discrete_energy": cl.discrete_energy,
    "log_density_unnormalized": lambda c: cl.log_density_unnormalized(P3, DISK, c),
    "in_low_energy_set": lambda c: cl.in_low_energy_set(DISK, c, 0.5),
    "symmetrize": lambda c: cl.symmetrize(lambda a, b: np.abs(a - b), c, 2),
    "tensor_integral": lambda c: cl.tensor_integral(lambda a, b: np.abs(a - b), c, 2),
    "perturbation_ball": lambda c: cl.perturbation_ball(c, 0.5).sample(seed=1).tobytes(),
    "run_chain": lambda c: cl.run_chain(P3, DISK, cl.ChainConfig(steps=50, burn_in=0, thin=10),
                                        seed=2, init=c).states.tobytes(),
}


@pytest.mark.parametrize("name", CONSUMERS)
def test_points_taken_as_list_or_array(name):
    # a configuration is any array-like of complex points
    f, pts = CONSUMERS[name], [0.3, -0.5, 0.1]
    assert f(pts) == f(np.array(pts)) == f(np.array(pts, dtype=complex))


def test_pair_kernel():
    rng = np.random.default_rng(7)
    for n in (2, 3, 17):
        P = rng.normal(size=n) + 1j * rng.normal(size=n)
        full = np.abs(P[:, None] - P[None, :])[np.triu_indices(n, 1)]
        np.testing.assert_array_equal(measures._pair_distances(P), full)
        assert measures._pair_log_sum(P) == float(np.sum(np.log(full)))
    assert measures._pair_log_sum(np.array([0.5 + 0.5j])) == 0.0
    assert measures._pair_log_sum(np.array([0.0, 1.0, 1.0 + 0j])) == -math.inf
    iu, ju = measures._pair_index(5)
    for idx in (iu, ju):
        with pytest.raises(ValueError):
            idx[0] = 1


def test_pair_log_sum_is_row_wise():
    # a (..., N) block gives one sum a row, bitwise the sum of that row alone
    rng = np.random.default_rng(11)
    block = rng.normal(size=(2, 7, 9)) + 1j * rng.normal(size=(2, 7, 9))
    block[1, 3, 4] = block[1, 3, 1]  # one coincident row
    rows = measures._pair_log_sum(block)
    assert rows.shape == (2, 7)
    for row, value in zip(block.reshape(14, 9), rows.ravel()):
        alone = measures._pair_log_sum(row)
        assert type(alone) is float
        assert value == alone
    assert rows[1, 3] == -math.inf
    assert np.isfinite(np.delete(rows.ravel(), 7 + 3)).all()


def test_coincidence_matrix():
    # two equal points: every reader of the pair kernel reports the vanishing
    # density as an infinity, with no numpy warning
    pts = np.array([0.1 + 0.2j, -0.4, 0.1 + 0.2j, 0.3j])
    rng = np.random.default_rng(3)
    states = 0.8 * (rng.random((1000, 4)) ** 0.5) * np.exp(2j * math.pi * rng.random((1000, 4)))
    states[::100] = pts  # ten coincident states
    params = cl.EnsembleParams(4, 8.0, 2.0)
    chain = cl.Chain(params, DISK, cl.ChainConfig(), 0, states, np.zeros(1000), 0.5, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cl.discrete_energy(pts) == math.inf
        assert cl.AtomicMeasure(pts).energy() == math.inf
        assert cl.log_delta(DISK, pts) == -math.inf
        assert cl.log_density_unnormalized(params, DISK, pts) == -math.inf
        # a wide low-energy set holds every other state
        assert cl.tail_mass_estimate(chain, 1e6) == 10 / 1000


def test_atomic_energy_is_weighted():
    nu = cl.AtomicMeasure([0, 1, 3], [0.5, 0.25, 0.25])
    # oracle: the double loop over ordered pairs i != j
    oracle = -sum(nu.weights[i] * nu.weights[j] * math.log(abs(nu.points[i] - nu.points[j]))
                  for i in range(3) for j in range(3) if i != j)
    assert nu.energy() == pytest.approx(oracle, rel=1e-15)
    assert nu.energy() != cl.AtomicMeasure([0, 1, 3]).energy()
    assert cl.weighted_energy(nu, cl.Disk(0.0, 5.0), 0.0) == nu.energy()
    assert cl.AtomicMeasure([0.0, 1.0, 0.0], [0.2, 0.3, 0.5]).energy() == math.inf


def test_atomic_energy_equal_weights_is_discrete_energy():
    rng = np.random.default_rng(11)
    for n in (2, 3, 17, 100):
        z = rng.normal(size=n) + 1j * rng.normal(size=n)
        expected = cl.discrete_energy(z)
        assert cl.AtomicMeasure(z).energy() == pytest.approx(expected, rel=1e-15, abs=0)


# ---------------------------------------------------------------------------
# continuous energy
# ---------------------------------------------------------------------------

def test_circle_energy_quadrature_oracle():
    # potential of the uniform circle measure is -log max(r, |z|);
    # integrating it over the circle gives -log r
    for r in (0.5, 1.0, 2.0):
        theta = (np.arange(1024) + 0.5) * (2 * math.pi / 1024)
        pts = r * np.exp(1j * theta)
        oracle = float(np.mean(-np.log(np.maximum(np.abs(pts), r))))
        assert cl.continuous_energy(cl.CircleMeasure(0.0, r)) == pytest.approx(oracle, abs=1e-12)
        assert oracle == pytest.approx(-math.log(r), abs=1e-12)


def test_disk_uniform_is_one_block():
    mu = cl.DiskUniformMeasure(0.3 + 0.2j, 0.5)
    assert (mu.center, mu.radius) == (0.3 + 0.2j, 0.5)
    assert isinstance(mu, cl.SmoothedMeasure) and len(mu.base) == 1
    assert mu.mass() == 1.0
    for radius in (0.0, -1.0):
        with pytest.raises(ValueError, match="radius"):
            cl.DiskUniformMeasure(0.0, radius)


def test_disk_uniform_energy_quadrature_oracle():
    # radial quadrature of the closed-form potential -log a + (1 - r^2/a^2)/2
    for a in (0.5, 1.0, 2.0):
        oracle = quad(lambda r: (-math.log(a) + 0.5 * (1 - r**2 / a**2)) * 2 * r / a**2, 0, a)[0]
        assert oracle == pytest.approx(0.25 - math.log(a), abs=1e-12)
        assert cl.continuous_energy(cl.DiskUniformMeasure(0.0, a)) == pytest.approx(oracle, abs=1e-12)


def test_smoothed_point_energy():
    val = cl.continuous_energy(cl.smooth(cl.AtomicMeasure([0.0]), 0.1))
    assert val == pytest.approx(0.25 + math.log(10.0), abs=1e-12)
    # two coincident blocks are one block
    val = cl.continuous_energy(cl.smooth(cl.AtomicMeasure([0.3, 0.3]), 0.1))
    assert val == pytest.approx(0.25 + math.log(10.0), abs=1e-12)


def test_uniform_disk_potential_matches_quadrature():
    # oracle: radial quadrature of the angular mean -log max(|z|, r),
    # split at the kink radius r = |z|
    for z in (0.1 + 0.05j, 0.3j, 1.0 + 0.0j):
        def integrand(r):
            return -np.log(np.maximum(abs(z), r)) * 2 * r / 0.25**2
        oracle = quad(integrand, 0, 0.25, points=[min(abs(z), 0.25)], limit=200)[0]
        assert uniform_disk_potential(abs(z), 0.25) == pytest.approx(oracle, abs=1e-10)


def test_disk_pair_energy_dblquad_oracle():
    eps = 0.2
    for d in (0.15, 0.3):
        oracle = dblquad(
            lambda t, r: uniform_disk_potential(abs(r * np.exp(1j * t) - d), eps)
            * r / (math.pi * eps**2),
            0, eps, 0, 2 * math.pi, epsabs=1e-11)[0]
        assert _disk_pair_energy(d, eps) == pytest.approx(oracle, abs=1e-8)
    assert _disk_pair_energy(0.5, 0.2) == pytest.approx(-math.log(0.5), abs=1e-14)


def _lens_oracle(d, eps):
    """U_eps(d) plus the lens integral (pi eps^2)^-1 int_0^eps H rho Theta_d
    by adaptive quadrature, with a breakpoint at the kink radius |eps - d|."""
    def integrand(rho):
        t = (rho**2 + d**2 - eps**2) / (2 * rho * d)
        h = -math.log(eps) + 0.5 * (1 - rho**2 / eps**2) + math.log(rho)
        return h * rho * 2 * math.acos(min(1.0, max(-1.0, t)))
    a = abs(eps - d)
    lens = quad(integrand, 0, eps, points=[a] if 0 < a < eps else None,
                limit=500, epsabs=1e-15, epsrel=1e-14)[0]
    return uniform_disk_potential(d, eps) + lens / (math.pi * eps**2)


def test_disk_pair_energy_lens_oracle():
    eps = 0.2
    ds = (1e-6, 0.01, 0.15, 0.199, 0.2, 0.201, 0.3)
    for d in ds:
        assert _disk_pair_energy(d, eps) == pytest.approx(_lens_oracle(d, eps), abs=1e-11)
    # arrays of any shape give the scalar values, coincident blocks the self energy
    grid = np.array([0.0, *ds, 0.5]).reshape(3, 3)
    vals = _disk_pair_energy(grid, eps)
    assert vals.shape == grid.shape
    assert vals[0, 0] == pytest.approx(0.25 - math.log(eps), abs=1e-14)
    assert vals.ravel()[1:] == pytest.approx([_disk_pair_energy(d, eps) for d in grid.ravel()[1:]],
                                             abs=1e-15)


def test_smoothed_ring_energy_radial_oracle():
    # smoothing of circle atoms is rotationally near-symmetric; oracle via
    # the radial mass distribution of a single block pair structure is
    # replaced by direct summation over block pairs with exact -log d for
    # the disjoint ones
    base = cl.equilibrium_discretization(DISK, 64)
    nu = cl.smooth(base, 0.01)  # blocks pairwise disjoint
    expected = (1 / 64) ** 2 * 64 * (0.25 - math.log(0.01))
    iu, ju = np.triu_indices(64, k=1)
    d = np.abs(base.points[iu] - base.points[ju])
    expected += -2.0 * (1 / 64) ** 2 * np.sum(np.log(d))
    assert cl.continuous_energy(nu) == pytest.approx(expected, rel=1e-12)


def test_continuous_energy_rejects_atomic():
    with pytest.raises(TypeError):
        cl.continuous_energy(cl.AtomicMeasure([0.0, 1.0]))


# ---------------------------------------------------------------------------
# weighted energy
# ---------------------------------------------------------------------------

def test_weighted_energy_closed_forms():
    assert cl.weighted_energy(cl.CircleMeasure(0.0, 0.5), DISK, 1.0) == pytest.approx(math.log(2))
    assert cl.weighted_energy(cl.CircleMeasure(0.0, 2.0), DISK, 1.0) == pytest.approx(math.log(2))
    eq = cl.equilibrium_discretization(DISK, 512)
    for ell in (0.25, 0.5, 1.0):
        assert abs(cl.weighted_energy(eq, DISK, ell)) < 0.02


def test_weighted_energy_ell_zero():
    assert cl.weighted_energy(cl.CircleMeasure(0.0, 2.0), DISK, 0.0) == math.inf
    assert cl.weighted_energy(cl.CircleMeasure(0.0, 0.5), DISK, 0.0) == pytest.approx(math.log(2))
    # every class's support test: a measure inside K keeps its energy, one
    # with mass off K is +inf
    pairs = [(cl.DiskUniformMeasure(0.0, 0.5), cl.DiskUniformMeasure(0.8, 0.5)),
             (cl.smooth(cl.AtomicMeasure([0.2, -0.3j]), 0.1),
              cl.smooth(cl.AtomicMeasure([0.2, 0.95]), 0.1)),
             (cl.AtomicMeasure([0.2, -0.3j]), cl.AtomicMeasure([0.2, 1.5]))]
    for inside, outside in pairs:
        energy = inside.energy()
        assert math.isfinite(energy)
        assert cl.weighted_energy(inside, DISK, 0.0) == energy
        assert cl.weighted_energy(outside, DISK, 0.0) == math.inf
    with pytest.raises(ValueError):
        cl.weighted_energy(cl.CircleMeasure(0.0, 0.5), DISK, 1.5)


def test_circle_green_average_midpoint_oracle():
    # the circle measure is the equilibrium measure of Disk(0, r): a fine
    # midpoint mean of green over the circle is its green average
    theta = (np.arange(2**16) + 0.5) * (2 * math.pi / 2**16)
    for K in (cl.Ellipse(0.0, 2.0, 1.0), cl.ExteriorMap(1.0, (0.0, 0.0, 0.15))):
        for r in (2.0, 4.0):
            oracle = float(np.mean(K.green(r * np.exp(1j * theta))))
            assert cl.CircleMeasure(0.0, r).green_average(K) == pytest.approx(oracle, abs=1e-12)


def _green_average_per_atom(nu, K, n_ring=128, order=24):
    # reference: each atom's eps-disk on its own, two green calls per atom
    total = 0.0
    x, w = measures._gauss(order)
    eps = nu.epsilon
    for c, weight in zip(nu.base.points, nu.base.weights):
        if np.max(K.green(measures._ring(c, eps, n_ring))) <= 1e-15:
            continue
        r = 0.5 * eps * (x + 1.0)
        pts = measures._ring(c, r[:, None], n_ring)
        ang = K.green(pts.ravel()).reshape(pts.shape).mean(axis=1)
        total += weight * float(np.dot(ang * r, w) * 0.5 * eps * 2.0 / eps**2)
    return total


@pytest.mark.parametrize("K", [cl.Segment(-2.0, 2.0), cl.Ellipse(0.0, 2.0, 1.0), DISK],
                         ids=["segment", "ellipse", "disk"])
def test_smoothed_green_average_matches_per_atom_loop(K):
    rng = np.random.default_rng(5)
    cases = [cl.smooth(cl.equilibrium_discretization(K, 128), 0.05),
             cl.smooth(_random_atomic(rng, 40, scale=1.2), 0.1)]
    for nu in cases:
        expected = _green_average_per_atom(nu, K)
        assert expected > 0
        assert nu.green_average(K) == pytest.approx(expected, rel=1e-14, abs=0)


def test_smoothed_green_average_vanishes_inside():
    for K in (cl.Ellipse(0.0, 2.0, 1.0), DISK):
        nu = cl.smooth(cl.equilibrium_discretization(K.inner_set(0.25), 64), 0.05)
        assert nu.green_average(K) == 0.0
        assert cl.DiskUniformMeasure(K.center, 0.5).green_average(K) == 0.0


def test_weighted_energy_monotone_in_ell():
    rng = np.random.default_rng(21)
    for _ in range(5):
        nu = cl.smooth(_random_atomic(rng, 5, scale=1.5), 0.1)
        vals = [cl.weighted_energy(nu, DISK, ell) for ell in (0.25, 0.5, 1.0)]
        assert vals[0] >= vals[1] >= vals[2]


def test_weighted_energy_exceeds_robin():
    # energy gap positivity over a grid of non-equilibrium measures
    robin = cl.robin_energy(DISK)
    family = [cl.CircleMeasure(0.0, r) for r in (0.25, 0.5, 2.0, 4.0)]
    family.append(cl.DiskUniformMeasure(0.0, 1.0))
    family.append(cl.smooth(cl.AtomicMeasure([0.2, -0.1 + 0.4j], [0.5, 0.5]), 0.05))
    for mu in family:
        for ell in (0.25, 0.5, 1.0):
            assert cl.weighted_energy(mu, DISK, ell) > robin


# ---------------------------------------------------------------------------
# smoothing
# ---------------------------------------------------------------------------

def test_smooth_bl_contraction():
    rng = np.random.default_rng(22)
    for eps in (0.5, 0.1, 0.01):
        for _ in range(20):
            nu = _random_atomic(rng, int(rng.integers(1, 5)))
            d = bl_distance(nu, cl.smooth(nu, eps).to_atomic(48 if eps < 0.05 else 24))
            assert d <= eps


def test_smoothed_measure_mass_and_atomization():
    rng = np.random.default_rng(23)
    nu = cl.smooth(_random_atomic(rng, 7), 0.3)
    atoms = nu.to_atomic(32)
    assert atoms.mass() == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.abs(atoms.points[:32] - nu.base.points[0]) < 0.3)


def test_zero_counts_rejected():
    # zero atoms divided by zero, and zero nodes a block warned on the way
    # to an empty measure
    for n in (0, -1):
        with pytest.raises(ValueError, match="n >= 1"):
            cl.equilibrium_discretization(DISK, n)
        with pytest.raises(ValueError, match="nodes_per_block >= 1"):
            cl.smooth(cl.AtomicMeasure([0.0]), 0.1).to_atomic(n)
    assert len(cl.equilibrium_discretization(DISK, 1)) == 1


# ---------------------------------------------------------------------------
# bounded-Lipschitz distance
# ---------------------------------------------------------------------------

def test_bl_exact_two_point_values():
    # oracle: brute force over the two-point polytope gives min(|x|, 2)
    for x in (0.3, 1.0, 1.7, 2.5, 5.0):
        d = bl_distance(cl.AtomicMeasure([0.0]), cl.AtomicMeasure([complex(x)]))
        assert d == pytest.approx(min(x, 2.0), abs=1e-9)


def test_bl_identical_and_permuted():
    rng = np.random.default_rng(31)
    pts = rng.normal(size=9) + 1j * rng.normal(size=9)
    emp = cl.AtomicMeasure(pts)
    perm = cl.AtomicMeasure(pts[rng.permutation(9)])
    assert bl_distance(emp, perm) == pytest.approx(0.0, abs=1e-12)
    mu = _random_atomic(rng, 6)
    assert bl_distance(mu, mu) == pytest.approx(0.0, abs=1e-12)


def _bl_pairwise(mu, nu):
    """Independent oracle: the primal LP, maximize sum_i c_i f_i over the
    union support subject to |f_i| <= 1 and |f_i - f_j| <= |x_i - x_j|."""
    pts, inv = np.unique(np.concatenate([mu.points, nu.points]), return_inverse=True)
    c = np.zeros(pts.size)
    np.add.at(c, inv[:len(mu)], mu.weights)
    np.add.at(c, inv[len(mu):], -nu.weights)
    iu, ju = np.triu_indices(pts.size, k=1)
    diff = np.zeros((iu.size, pts.size))
    diff[np.arange(iu.size), iu] = 1.0
    diff[np.arange(iu.size), ju] = -1.0
    d = np.abs(pts[iu] - pts[ju])
    res = linprog(-c, A_ub=np.vstack([diff, -diff]), b_ub=np.concatenate([d, d]),
                  bounds=(-1, 1), method="highs")
    assert res.success, res.message
    return -res.fun


def test_bl_pairwise_equals_transport(monkeypatch):
    # both library paths against the primal pairwise LP; disabling the other
    # solver shows which path each case takes
    rng = np.random.default_rng(32)

    def pts(n):
        return 2.0 * (rng.normal(size=n) + 1j * rng.normal(size=n))

    twin = pts(6)
    lp_cases = [(_random_atomic(rng, int(rng.integers(2, 12)), scale=2.0),
                 _random_atomic(rng, int(rng.integers(2, 12)), scale=2.0)) for _ in range(12)]
    lp_cases += [
        (cl.AtomicMeasure(pts(5)), cl.AtomicMeasure(pts(7))),  # counts do not divide
        # coincident atoms merge into unequal weights
        (cl.AtomicMeasure(np.concatenate([twin, twin[:2]])), cl.AtomicMeasure(pts(4))),
    ]
    assignment_cases = [(cl.AtomicMeasure(pts(n)), cl.AtomicMeasure(pts(n * k)))
                        for n, k in ((1, 1), (1, 5), (3, 1), (3, 4), (6, 2), (8, 1))]
    # atoms coincident in pairs merge into uniform weights again
    assignment_cases.append((cl.AtomicMeasure(np.repeat(twin, 2)), cl.AtomicMeasure(pts(12))))

    def unused(*args, **kwargs):
        raise AssertionError("solver on the wrong path was called")

    for solver, cases in (("linprog", assignment_cases),
                          ("linear_sum_assignment", lp_cases)):
        with monkeypatch.context() as m:
            m.setattr(f"scipy.optimize.{solver}", unused)
            for mu, nu in cases:
                oracle = _bl_pairwise(mu, nu)
                assert bl_distance(mu, nu) == pytest.approx(oracle, abs=1e-9)
                assert bl_distance(nu, mu) == pytest.approx(oracle, abs=1e-9)


def _bl_rows_repeated(x, y):
    """Reference: the assignment with every atom of each side repeated to
    L = max count along the rows and the columns, in argument order."""
    L = max(x.size, y.size)
    x, y = np.repeat(x, L // x.size), np.repeat(y, L // y.size)
    cost = np.minimum(np.abs(x[:, None] - y[None, :]), 2.0)
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].sum() / L)


def test_bl_assignment_matches_rows_repeated(nu_eps):
    # criterion-9-shaped inputs at test size: strip points against 128
    # blocks x 4 or 8 sunflower nodes (4 to 64 repeats a point), and the
    # 128-point strip against the 128 base atoms (the tie)
    cases = []
    for n in (16, 64, 128):
        emp = cl.AtomicMeasure(cl.discretize(nu_eps, n).configuration)
        cases += [(emp, nu_eps.to_atomic(q)) for q in (4, 8)]
    cases.append((emp, nu_eps.base))
    for mu, nu in cases:
        d = bl_distance(mu, nu)
        assert d == pytest.approx(_bl_rows_repeated(mu.points, nu.points), abs=1e-15)
        if len(mu) != len(nu):
            assert bl_distance(nu, mu) == d  # the same matrix either way


def test_bl_assignment_cost_layout():
    rng = np.random.default_rng(34)
    x = rng.normal(size=6) + 1j * rng.normal(size=6)
    y = 1.5 * (rng.normal(size=18) + 1j * rng.normal(size=18))
    for rows, cols, a, b in ((y, x, x, y), (y, x, y, x), (x[:4], y[:4], y[:4], x[:4])):
        # the side with more atoms (the second argument on a tie) on the
        # rows, the other side repeated along adjacent columns
        k = rows.size // cols.size
        expected = np.minimum(np.abs(rows[:, None] - np.repeat(cols, k)[None, :]), 2.0)
        assert np.array_equal(measures._bl_assignment_cost(a, b), expected)


def test_bl_assignment_equals_transport_lp():
    rng = np.random.default_rng(35)
    for n1, n2 in ((16, 64), (48, 48)):
        x = rng.normal(size=n1) + 1j * rng.normal(size=n1)
        y = 1.2 * (rng.normal(size=n2) + 1j * rng.normal(size=n2))
        lp = measures._bl_transport(x, np.full(n1, 1.0 / n1), y, np.full(n2, 1.0 / n2))
        assert measures._bl_assignment(x, y) == pytest.approx(lp, abs=1e-9)


def test_bl_solve_record():
    rng = np.random.default_rng(36)
    pts = rng.normal(size=12) + 1j * rng.normal(size=12)
    value, record = measures._bl_solve(cl.AtomicMeasure(pts[:3]), cl.AtomicMeasure(pts))
    assert value == bl_distance(cl.AtomicMeasure(pts[:3]), cl.AtomicMeasure(pts))
    assert {k: record[k] for k in ("path", "rows", "cols", "status")} == {
        "path": "assignment", "rows": 12, "cols": 12, "status": "optimal"}
    value, record = measures._bl_solve(cl.AtomicMeasure(pts[:5]), cl.AtomicMeasure(pts))
    assert {k: record[k] for k in ("path", "lp_vars", "status")} == {
        "path": "transport", "lp_vars": 60, "status": "optimal"}
    assert record["seconds"] >= 0.0


def test_bl_metric_properties():
    rng = np.random.default_rng(33)
    for _ in range(10):
        mu, nu, la = (_random_atomic(rng, int(rng.integers(2, 8))) for _ in range(3))
        d_mn = bl_distance(mu, nu)
        d_nm = bl_distance(nu, mu)
        assert d_mn == pytest.approx(d_nm, abs=1e-9)  # symmetry
        d_ml, d_ln = bl_distance(mu, la), bl_distance(la, nu)
        assert d_mn <= d_ml + d_ln + 1e-8  # triangle inequality


def test_bl_range_and_validation():
    far = bl_distance(cl.AtomicMeasure([0.0]), cl.AtomicMeasure([1000.0]))
    assert far == pytest.approx(2.0, abs=1e-9)
    with pytest.raises(ValueError):
        bl_distance(cl.AtomicMeasure([0.0], [0.5]), cl.AtomicMeasure([1.0]))


# ---------------------------------------------------------------------------
# discretization
# ---------------------------------------------------------------------------

def _mass_between(strip, a, b):
    # strip mass between the ordinates a and b
    return float(strip.cdf(b) - strip.cdf(a)) if b > a else 0.0


@pytest.fixture(scope="module")
def nu_eps():
    return cl.smooth(cl.equilibrium_discretization(DISK, 128), 0.1)


def test_discretize_basic_counts(nu_eps):
    res = cl.discretize(nu_eps, 64)
    assert len(res.configuration) == 64
    assert res.points_discarded <= math.ceil(math.sqrt(64))
    assert res.min_separation > 0
    assert res.separation_constant >= 0.3


def test_discretize_diagnostics_equal_standalone_values(nu_eps):
    # separation and energy share one distance array; both stay bit-identical
    res = cl.discretize(nu_eps, 64)
    pts = res.configuration
    assert res.discrete_energy == cl.discrete_energy(res.configuration)
    assert res.min_separation == min(abs(a - b) for i, a in enumerate(pts) for b in pts[i + 1:])


def test_discretize_rectangle_masses(nu_eps):
    # each vertical step between consecutive points in a strip carries
    # exactly 1/N of mass: verify via the strip profile
    N = 64
    res = cl.discretize(nu_eps, N)
    pts = res.configuration
    xs = np.unique(pts.real)
    x_lo, x_hi, _, _ = nu_eps.bounding_box()
    width = (x_hi - x_lo) / math.ceil(math.sqrt(N))
    checked = 0
    for x in xs[:3]:
        ys = np.sort(pts.imag[pts.real == x])
        strip = _StripCDF(nu_eps, x, x + width)
        for a, b in zip(ys[:-1], ys[1:]):
            assert _mass_between(strip, a, b) == pytest.approx(1.0 / N, abs=1e-9)
            checked += 1
    assert checked > 0


def test_discretize_separation_scaling(nu_eps):
    consts = [cl.discretize(nu_eps, n).separation_constant for n in (64, 256)]
    assert all(c >= 0.3 for c in consts)


def test_discretize_energy_convergence(nu_eps):
    cont = cl.continuous_energy(nu_eps)
    gaps = [abs(cl.discretize(nu_eps, n).discrete_energy - cont) for n in (64, 256)]
    assert gaps[0] > gaps[1]


def test_descent_toward_continuous_energy(nu_eps):
    # discrete energies approach the mollified energy from below with a
    # shrinking deficit
    cont = cl.continuous_energy(nu_eps)
    tol = {64: 0.08, 256: 0.03}
    for n in (64, 256):
        res = cl.discretize(nu_eps, n)
        assert res.discrete_energy >= cont - tol[n]


def test_discretize_validation(nu_eps, monkeypatch):
    with pytest.raises(ValueError):
        cl.discretize(nu_eps, 3)
    bad = cl.smooth(cl.AtomicMeasure([0.0], [0.5]), 0.1)
    with pytest.raises(ValueError):
        cl.discretize(bad, 16)

    class LossyStrip(_StripCDF):  # loses half of every strip's mass
        def __init__(self, *args):
            super().__init__(*args)
            self.mass *= 0.5

    monkeypatch.setattr(measures, "_StripCDF", LossyStrip)
    with pytest.raises(ValueError, match=r"produced \d+ points, fewer than N = 64"):
        cl.discretize(nu_eps, 64)


# ---------------------------------------------------------------------------
# perturbation ball
# ---------------------------------------------------------------------------

def test_perturbation_ball_contains_center(nu_eps):
    res = cl.discretize(nu_eps, 64)
    ball = cl.perturbation_ball(res.configuration, res.separation_constant)
    assert ball.radius > 0
    s = ball.sample(seed=5)
    assert np.all(np.abs(s - res.configuration) < ball.radius)


def test_perturbation_ball_bl_bound(nu_eps):
    res = cl.discretize(nu_eps, 64)
    ball = cl.perturbation_ball(res.configuration, res.separation_constant)
    for i in range(5):
        s = ball.sample(seed=i)
        d = bl_distance(cl.AtomicMeasure(s), cl.AtomicMeasure(res.configuration))
        assert d <= ball.radius + 1e-12


def test_perturbation_energy_deviation_scale(nu_eps):
    res = cl.discretize(nu_eps, 256)
    ball = cl.perturbation_ball(res.configuration, res.separation_constant)
    devs = [ball.energy_deviation(ball.sample(seed=i)) for i in range(30)]
    assert max(devs) <= 0.02 * math.log(256) / math.sqrt(256)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def test_configuration_csv_round_trip(tmp_path):
    c = [1 + 2j, -0.5, 3j]
    path = tmp_path / "config.csv"
    cl.save_points(path, c)
    assert path.read_text().splitlines()[0] == "re,im"
    c2 = cl.load_points(path)
    assert c2.dtype == complex and c2.shape == (3,)
    assert np.array_equal(c2, c)


def test_strip_support_bottom_is_greatest_zero_ordinate():
    # a block whose center sits left of the strip enters only at
    # y_i - sqrt(eps^2 - dx^2), not at y_i - eps
    eps = 0.5
    nu = cl.smooth(cl.AtomicMeasure([0.0]), eps)
    strip = _StripCDF(nu, 0.3, 0.6)  # dx = 0.3 from the center
    expected = -math.sqrt(eps**2 - 0.3**2)
    assert strip.support_bottom == pytest.approx(expected, abs=1e-14)
    assert _mass_between(strip, -1.0, strip.support_bottom) == pytest.approx(0.0, abs=1e-15)
    assert _mass_between(strip, strip.support_bottom, strip.support_bottom + 0.01) > 0


def test_strip_cdf_closed_form_quad_oracle():
    # blocks centred left of, inside and right of the strip [0, 0.3]; the
    # middle block is wider than that strip, and the strip [-0.35, 0.7]
    # holds all three blocks whole
    eps = 0.2
    nu = cl.smooth(cl.AtomicMeasure([-0.1 + 0.05j, 0.15 - 0.1j, 0.45 + 0.2j],
                                    [0.2, 0.5, 0.3]), eps)
    for xl, xr in ((0.0, 0.3), (-0.35, 0.7)):
        strip = _StripCDF(nu, xl, xr)
        # the density is smooth between the ordinates where a chord starts,
        # ends, or crosses a strip edge; check there and halfway between
        kinks = [strip.y - eps, strip.y + eps]
        for edge in (xl, xr):
            h = np.sqrt(np.maximum(eps**2 - (edge - strip.x) ** 2, 0.0))
            kinks += [strip.y - h, strip.y + h]
        kinks = np.unique(np.concatenate(kinks))
        breaks = np.sort(np.concatenate([kinks, 0.5 * (kinks[:-1] + kinks[1:])]))
        assert float(strip.cdf(breaks[0])) == pytest.approx(0.0, abs=1e-15)
        acc = 0.0
        for a, b in zip(breaks[:-1], breaks[1:]):
            acc += quad(lambda y: float(strip.width_density(y)), a, b,
                        epsabs=1e-14, epsrel=1e-13)[0]
            assert float(strip.cdf(b)) == pytest.approx(acc, abs=1e-12)
        assert strip.mass == pytest.approx(acc, abs=1e-12)
    assert _StripCDF(nu, -0.35, 0.7).mass == pytest.approx(1.0, abs=1e-14)


# ---------------------------------------------------------------------------
# strip inversion: Newton against bisection
# ---------------------------------------------------------------------------

def _bisect_invert(strip, targets):
    """Reference: 60 halvings of [support_bottom, top] for every target,
    the least ordinate whose mass below reaches it (top above the mass)."""
    lo = np.full(targets.shape, strip.support_bottom)
    hi = np.full(targets.shape, strip.top)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        below = strip.cdf(mid) < targets
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("K,sizes", [
    (DISK, (64, 256, 1024)),  # criterion 9's target
    (cl.Segment(-1.0, 1.0), (256,)),
    (cl.Ellipse(0.0, 2.0, 1.0), (256,)),
    (cl.ExteriorMap(1.0, (0.0, 0.0, 0.15)), (256,)),
], ids=["disk", "segment", "ellipse", "exterior_map"])
def test_newton_inversion_matches_bisection(K, sizes, monkeypatch):
    nu = cl.smooth(cl.equilibrium_discretization(K, 256), 0.1)
    for n in sizes:
        newton = cl.discretize(nu, n)
        with monkeypatch.context() as m:
            m.setattr(_StripCDF, "invert", lambda self, t: (_bisect_invert(self, t), 60))
            bisection = cl.discretize(nu, n)
        assert newton.points_generated == bisection.points_generated
        assert np.max(np.abs(newton.configuration - bisection.configuration)) <= 1e-12
        record = newton.inversion_record()
        assert record["strips"] == len(newton.strip_iterations) == bisection.strips
        assert record["total_iterations"] == sum(newton.strip_iterations)
        assert record["capped_strips"] == 0 and record["max_iterations"] < 60


@pytest.mark.parametrize("eps", [0.1, 0.01])
def test_invert_at_zero_density_gap(eps):
    # two blocks 5 eps apart: the strip density is 0 between eps and 4 eps,
    # and the target is the mass below that gap, so the least ordinate
    # reaching it is the gap's lower end eps.  Below eps the CDF falls
    # short by about 0.3 ((eps - y) / eps)^{3/2}, which rounds to 0 within
    # about 5e-11 eps of the gap: both inversions are fixed only to that band
    nu = cl.smooth(cl.AtomicMeasure([0.0, 5j * eps], [0.5, 0.5]), eps)
    strip = _StripCDF(nu, -0.5 * eps, 0.5 * eps)
    target = strip.cdf(np.array([2.5 * eps]))
    assert strip.width_density(2.5 * eps) == 0.0
    y, iterations = strip.invert(target)
    band = 1e-10 * eps  # 1e-12 at eps = 0.01
    assert eps - band <= y[0] <= eps
    assert strip.cdf(y)[0] >= target[0]
    assert abs(y[0] - _bisect_invert(strip, target)[0]) <= band
    assert iterations < 60


def test_invert_target_above_mass_gives_top():
    nu = cl.smooth(cl.equilibrium_discretization(DISK, 256), 0.1)
    # the strip crosses the circle twice, so half its mass would sit at a gap
    strip = _StripCDF(nu, 0.55, 0.55 + 2.2 / 32)
    targets = np.array([0.3 * strip.mass, np.nextafter(strip.mass, 1.0)])
    y, _ = strip.invert(targets)
    assert y[1] == strip.top
    np.testing.assert_allclose(y, _bisect_invert(strip, targets), rtol=0, atol=1e-12)
    assert strip.cdf(y[0]) >= targets[0]
