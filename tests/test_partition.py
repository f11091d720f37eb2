"""Partition values, asymptote, bounds and cubature."""

import math
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy.integrate import quad

import coulomblab as cl
from coulomblab.measures import equilibrium_discretization, smooth
from coulomblab import partition
from coulomblab.partition import (_BLOCK_VALUES, PartitionReport, _disk_angles, _laurent_nodes,
                                  _log_density_self_average, _pair_sum, _radial_rule,
                                  _self_pair_sum, build_report)

DISK = cl.Disk(0.0, 1.0)
SEGMENT = cl.Segment(-2.0, 2.0)


# ---------------------------------------------------------------------------
# monomial mode masses
# ---------------------------------------------------------------------------

def _mode_mass_oracle(k, s, r):
    # radial quadrature of |z|^2k exp(-2 s green) over |z| < r, split at |z| = 1
    inner = quad(lambda t: t ** (2 * k) * 2 * math.pi * t, 0, min(r, 1.0))[0]
    if r <= 1.0:
        return inner
    return inner + quad(lambda t: t ** (2 * k - 2 * s) * 2 * math.pi * t, 1, r)[0]


@pytest.mark.parametrize("n,s", [(0, 2.0), (0, 8.0), (1, 4.0), (3, 16.0), (5, 64.0)])
def test_disk_mode_mass_radial_oracle(n, s):
    # inside the disk, across its edge, and the full norm pi/(n+1) + pi/(s-n-1)
    for r in (0.3, 1.7, math.inf):
        assert cl.disk_mode_mass(n, s, r) == pytest.approx(_mode_mass_oracle(n, s, r),
                                                           rel=1e-10)


def test_disk_mode_mass_values():
    assert cl.disk_mode_mass(0, 2.0) == pytest.approx(2 * math.pi)
    # n=1, s=4: both half-integrals equal pi/2
    assert cl.disk_mode_mass(1, 4.0) == pytest.approx(math.pi)
    assert cl.disk_mode_mass(0, math.inf) == pytest.approx(math.pi)
    # the hard wall puts no mass beyond the disk; r = 0 has none at all
    assert cl.disk_mode_mass(2, math.inf, 5.0) == cl.disk_mode_mass(2, math.inf, 1.0)
    assert cl.disk_mode_mass(2, 8.0, 0.0) == 0.0
    # vectorized over k and r, with numpy broadcasting
    k, r = np.arange(4), np.array([[0.5], [1.0], [2.0], [math.inf]])
    grid = cl.disk_mode_mass(k, 16.0, r)
    assert grid.shape == (4, 4)
    for i, ri in enumerate(r.ravel()):
        for j, kj in enumerate(k):
            assert grid[i, j] == cl.disk_mode_mass(int(kj), 16.0, ri)
    np.testing.assert_array_less(grid[:-1], grid[1:])  # increasing in r


def test_kappa_matches_capacity_form():
    # the orthonormal leading coefficient kappa = h^(-1/2) of each mass
    # h = disk_mode_mass(n, s) is cp^-(n+1) sqrt((n+1)/pi (1 - (n+1)/s)), cp = 1
    for n in range(6):
        for s in (8.0, 16.0, 64.0):
            form = math.sqrt((n + 1) / math.pi * (1 - (n + 1) / s))
            assert cl.disk_mode_mass(n, s) ** -0.5 == pytest.approx(form, rel=1e-14)


def test_kappa_rejects_divergent():
    # the norm diverges at s <= n+1 or n < 0: no mass and no kappa, at any r
    with pytest.raises(ValueError, match="norm diverges"):
        cl.disk_mode_mass(3, 4.0)
    with pytest.raises(ValueError, match="nonnegative"):
        cl.disk_mode_mass(-1, 8.0)
    with pytest.raises(ValueError, match="norm diverges"):
        cl.disk_mode_mass(np.arange(8), 8.0, 0.5)


@pytest.mark.parametrize("N", [1, 2, 3, 8, 64, 200, 1024])
@pytest.mark.parametrize("ratio", [None, 2.0, 16.0, math.inf])
def test_log_partition_is_log_n_factorial_plus_mode_masses(N, ratio):
    # log Z = log N! + sum_{k<N} log h_k, against the compensated closed form;
    # s = N + 1/2 (ratio None), 2N, 16N and inf
    s = N + 0.5 if ratio is None else ratio * N
    masses = cl.disk_mode_mass(np.arange(N), s)
    value = math.lgamma(N + 1) + math.fsum(np.log(masses).tolist())
    exact = cl.log_partition_disk_exact(N, s)
    assert abs(value - exact) <= 1e-13 * abs(exact)


# ---------------------------------------------------------------------------
# exact partition values
# ---------------------------------------------------------------------------

def test_log_partition_closed_forms():
    for s in (8.0, 16.0, 64.0):
        assert cl.log_partition_disk_exact(1, s) == pytest.approx(
            math.log(math.pi * s / (s - 1)), abs=1e-12)
        assert cl.log_partition_disk_exact(2, s) == pytest.approx(
            math.log(math.pi**2 * s**2 / ((s - 1) * (s - 2))), abs=1e-12)
    assert cl.log_partition_disk_exact(1, math.inf) == pytest.approx(math.log(math.pi))
    assert cl.log_partition_disk_exact(5, math.inf) == pytest.approx(5 * math.log(math.pi))
    with pytest.raises(ValueError):
        cl.log_partition_disk_exact(8, 8.0)


_PI_50 = Decimal("3.14159265358979323846264338327950288419716939937510582097494")


def _log_partition_decimal(N, s):
    # 40-digit oracle of the kappa form log N! - 2 sum_{n<N} log kappa(n, s),
    # kappa^2 = (n+1)(s-n-1)/(pi s), or (n+1)/pi at s = inf
    with localcontext() as ctx:
        ctx.prec = 40
        total = Decimal(0)
        for n in range(N):
            k = Decimal(n + 1)
            kappa2 = k / _PI_50 if s == math.inf else k * (Decimal(s) - k) / (_PI_50 * Decimal(s))
            total += k.ln() - kappa2.ln()
        return total


@pytest.mark.parametrize("N", [1, 2, 3, 8, 64, 200])
@pytest.mark.parametrize("ratio", [None, 2.0, 16.0, math.inf])
def test_log_partition_decimal_oracle(N, ratio):
    # s = N + 1/2 (ratio None), 2N, 16N and inf
    s = N + 0.5 if ratio is None else ratio * N
    oracle = _log_partition_decimal(N, s)
    value = cl.log_partition_disk_exact(N, s)
    assert abs(Decimal(value) - oracle) <= Decimal("1e-12") * abs(oracle)


def test_log_partition_hard_wall_is_n_log_pi():
    # log N! cancels exactly, so the s = inf residual of the asymptote is 0
    for N in (1, 7, 200):
        assert cl.log_partition_disk_exact(N, math.inf) == N * math.log(math.pi)
        assert cl.asymptotic_residual(N, math.inf) == 0.0


def test_theta_function():
    assert cl.theta(0.0) == pytest.approx(math.log(math.pi))
    assert cl.theta(1.0) == pytest.approx(math.log(math.pi) + 1)
    assert cl.theta(0.5) == pytest.approx(math.log(math.pi) + 1 - math.log(2))
    with pytest.raises(ValueError):
        cl.theta(1.5)


def test_theta_strictly_increasing():
    x = np.linspace(0, 1, 1000)
    vals = np.asarray([cl.theta(v) for v in x])
    assert np.all(np.diff(vals) > 0)


def test_asymptotic_residuals():
    assert cl.asymptotic_residual(1, math.inf) == pytest.approx(0.0, abs=1e-12)
    for n in (10, 50, 200):
        assert abs(cl.asymptotic_residual(n, math.inf)) < 1e-9
    ratios = [abs(cl.asymptotic_residual(n, 2.0 * n)) / math.log(n) for n in range(10, 201)]
    assert max(ratios) < 0.25


# ---------------------------------------------------------------------------
# cubature
# ---------------------------------------------------------------------------

def test_cubature_disk_examples():
    p = cl.EnsembleParams(1, 4.0, 2.0, 0.1)
    assert cl.partition_cubature(DISK, p) == pytest.approx(4 * math.pi / 3, rel=1e-10)
    p2 = cl.EnsembleParams(2, 8.0, 2.0, 0.1)
    assert cl.partition_cubature(DISK, p2) == pytest.approx(
        math.pi**2 * 64 / 42, rel=1e-10)


def test_cubature_exactness_chain():
    for N in (1, 2):
        for s in (8.0, 16.0, 64.0):
            p = cl.EnsembleParams(N, s, 2.0, 0.1)
            z = cl.partition_cubature(DISK, p)
            assert abs(math.log(z) - cl.log_partition_disk_exact(N, s)) <= 1e-6


def test_cubature_radial_reduction_n1():
    # independent 1-D radial quadrature for the disk at N = 1
    for s, beta in ((4.0, 2.0), (6.0, 3.0)):
        p = cl.EnsembleParams(1, s, beta, 0.1)
        oracle = 2 * math.pi * (
            quad(lambda r: r, 0, 1)[0] + quad(lambda r: r ** (1 - beta * s), 1, np.inf)[0])
        assert cl.partition_cubature(DISK, p) == pytest.approx(oracle, rel=1e-8)


def test_cubature_scaled_disk_and_offcenter():
    # translation invariance and the radius-scaling law Z(R) = R^(2N + beta
    # N(N-1)/2 ... ) checked numerically against the unit disk at N = 1
    p = cl.EnsembleParams(1, 4.0, 2.0, 0.1)
    z_unit = cl.partition_cubature(DISK, p)
    z_shift = cl.partition_cubature(cl.Disk(1 + 2j, 1.0), p)
    assert z_shift == pytest.approx(z_unit, rel=1e-10)
    z_big = cl.partition_cubature(cl.Disk(0.0, 2.0), p)
    # field exp(-2s g) is scale invariant, the area element contributes R^2
    assert z_big == pytest.approx(4.0 * z_unit, rel=1e-10)


def test_cubature_n3_matches_exact():
    p = cl.EnsembleParams(3, 8.0, 2.0, 0.1)
    z = cl.partition_cubature(DISK, p)
    assert math.log(z) == pytest.approx(cl.log_partition_disk_exact(3, 8.0), abs=1e-8)


def test_disk_angle_rule():
    # (N-1) beta/2 + 1 midpoints for an even integer beta, else 96 (42 at N = 3)
    assert [_disk_angles(2, b) for b in (2.0, 4.0, 6.0)] == [2, 3, 4]
    assert [_disk_angles(3, b) for b in (2.0, 4.0, 6.0)] == [3, 5, 7]
    assert [_disk_angles(N, 3.0) for N in (1, 2, 3)] == [96, 96, 42]
    assert _disk_angles(2, 2.5) == 96
    # an exact count above the former grid keeps the former grid
    assert _disk_angles(2, 400.0) == 96 and _disk_angles(3, 100.0) == 42


@pytest.mark.parametrize("beta", [2.0, 4.0, 6.0])
def test_disk_angle_grid_matches_former_grid(beta, monkeypatch):
    # reference: the former grid of 96 angles (42 at N = 3)
    cases = [cl.EnsembleParams(N, 8.0, beta, 0.1) for N in (2, 3)]
    exact = [cl.partition_cubature(DISK, p) for p in cases]
    monkeypatch.setattr(partition, "_disk_angles", lambda N, beta: 42 if N == 3 else 96)
    former = [cl.partition_cubature(DISK, p) for p in cases]
    assert exact == pytest.approx(former, rel=1e-13, abs=0)


def test_disk_cubature_odd_beta_keeps_former_grid():
    # the values of the former disk route, whose particle 1 also sat at
    # angle 0, off the 96 (42 at N = 3) node angles
    for N, beta, former in ((2, 3.0, 16.849954887364103), (3, 1.0, 104.13856643061938)):
        value = cl.partition_cubature(DISK, cl.EnsembleParams(N, 8.0, beta, 0.1))
        assert value == pytest.approx(former, rel=1e-13, abs=0)


@pytest.mark.parametrize("beta", [2.0, 4.0])
@pytest.mark.parametrize("s", [8.0, math.inf])
def test_disk_reduction_equals_general_route(s, beta):
    # psi(w) = R w + c is the same disk taken through the general route,
    # with no rotational reduction and 96 angles
    p = cl.EnsembleParams(2, s, beta, 0.1)
    reduced = cl.partition_cubature(cl.Disk(0.5 - 0.25j, 1.5), p)
    general = cl.partition_cubature(cl.ExteriorMap(1.5, (0.5 - 0.25j,)), p)
    assert reduced == pytest.approx(general, rel=1e-12, abs=0)


@pytest.mark.parametrize("N", [2, 3])
def test_far_disk_cubature_is_the_centred_value(N):
    # only the radius enters: nodes built about c = 1e6 + 1e6 i round each
    # z_i - z_j to about 1e-10 and moved the value by 2e-12 relative
    p = cl.EnsembleParams(N, 8.0, 2.0, 0.1)
    far = cl.partition_cubature(cl.Disk(1e6 + 1e6j, 2.0), p)
    assert far.hex() == cl.partition_cubature(cl.Disk(0.0, 2.0), p).hex()


def test_cubature_segment_n1():
    p = cl.EnsembleParams(1, 8.0, 2.0, 0.1)
    assert cl.partition_cubature(SEGMENT, p) == pytest.approx(
        SEGMENT.field_integral(16.0), rel=1e-10)


@pytest.mark.parametrize("s,beta", [(8.0, 2.0), (16.0, 3.0), (math.inf, 2.0)])
def test_radial_rule_integrates_the_radial_weight(s, beta):
    # int_0^1 rho drho + int_1^inf rho^(1 - beta s) drho = 1/2 + 1/(beta s - 2),
    # and the second moment 1/4 + 1/(beta s - 4); Gauss radii first, none
    # beyond 1 at s = inf
    rho, u = _radial_rule(cl.EnsembleParams(2, s, beta, 0.1), 24)
    p = beta * s
    assert rho.size == (24 if s == math.inf else 4 * 24) and np.all(u > 0)
    assert np.all(rho[:24] < 1.0) and np.all(rho[24:] > 1.0)
    assert float(np.sum(u)) == pytest.approx(0.5 + 1.0 / (p - 2.0), rel=1e-13)
    assert float(np.sum(u * rho ** 2)) == pytest.approx(0.25 + 1.0 / (p - 4.0), rel=1e-13)


_P = cl.EnsembleParams(2, 8.0, 2.0, 0.1)


@pytest.mark.parametrize("K", [cl.Disk(1 + 2j, 0.5), cl.Ellipse(0.0, 2.0, 1.0)])
def test_interior_nodes_sum_to_area(K):
    (z, w), _ = _laurent_nodes(K, _P, 24, 64)
    assert w.size == z.size == 24 * 64 and np.all(w > 0)
    assert float(np.sum(w)) == pytest.approx(K.area(), rel=1e-13)
    assert cl.contains(K, z)


def test_interior_nodes_beyond_star_shape():
    # psi(w) = w - 0.6/w - 0.3/w^2 bounds a set that is not star-shaped about
    # c0 = 0: some ray Jacobians are negative, and the signed weights still
    # give the area and int_K |z|^2 dA = pi sum_k |a_k|^2/(k + 1) over the
    # coefficients of psi psi' = w + 0.3/w^2 - 0.36/w^3 - 0.54/w^4 - 0.18/w^5
    K = cl.ExteriorMap(1.0, (0.0, -0.6, -0.3))
    (z, w), _ = _laurent_nodes(K, _P, 36, 96)
    assert np.any(w < 0)
    assert float(np.sum(w)) == pytest.approx(K.area(), rel=1e-13)
    moment = math.pi * (1 / 2 - 0.09 - 0.1296 / 2 - 0.2916 / 3 - 0.0324 / 4)
    assert float(np.sum(w * np.abs(z) ** 2)) == pytest.approx(moment, rel=1e-13)


def test_segment_has_no_interior_nodes():
    (z, w), (ze, we) = _laurent_nodes(SEGMENT, _P, 24, 64)
    assert z.size == w.size == 0
    # the exterior keeps every radius beyond 1 on every angle
    assert ze.size == we.size == 3 * 24 * 64


@pytest.mark.parametrize("beta", [2.0, 3.0])
def test_blocked_cross_pair_sum_matches_one_shot(beta):
    # the disk's N = 2 kernel on criterion 1's refined grid: 144 ray radii
    # against the 144 x 96 shared nodes, in more than 4 blocks
    p = cl.EnsembleParams(2, 8.0, beta, 0.1)
    rho, u = _radial_rule(p, 36)
    (zi, wi), (ze, we) = _laurent_nodes(DISK, p, 36, 96)
    z, w = np.concatenate([zi, ze]), np.concatenate([wi, we])
    assert rho.size * z.size == 144 * 13824 > 4 * _BLOCK_VALUES
    one_shot = float(u @ (np.abs(rho[:, None] - z[None, :]) ** beta) @ w)
    assert _pair_sum(rho, u, z, w, beta) == pytest.approx(one_shot, rel=1e-13, abs=0)


def test_blocked_pair_sum_matches_one_shot():
    # also the symmetric sum from the blocks on and above the diagonal, the
    # last block shorter than the others
    (zi, wi), (ze, we) = _laurent_nodes(cl.Ellipse(0.0, 2.0, 1.0), _P, 12, 32)
    z, w = np.concatenate([zi, ze]), np.concatenate([wi, we])
    assert z.size ** 2 > 4 * _BLOCK_VALUES and z.size % (_BLOCK_VALUES // z.size) != 0
    for beta in (2.0, 3.0):
        one_shot = float(w @ (np.abs(z[:, None] - z[None, :]) ** beta) @ w)
        assert _pair_sum(z, w, z, w, beta) == pytest.approx(one_shot, rel=1e-13)
        assert _self_pair_sum(z, w, beta) == pytest.approx(one_shot, rel=1e-13)


def test_pair_cubature_peak_memory_is_bounded():
    # the refined segment grid has 10368 nodes: one unblocked row chunk of
    # the pair matrix alone took about 340 MB; the disk at beta = 3 crosses
    # its 144 ray radii with 13824 nodes
    for K, beta in ((SEGMENT, 2.0), (DISK, 3.0)):
        tracemalloc.start()
        try:
            cl.partition_cubature(K, cl.EnsembleParams(2, 8.0, beta, 0.1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20, K


def test_cubature_segment_hard_wall_is_zero():
    # at s = inf the segment has neither exterior nor interior nodes: an
    # empty pair kernel, whose sum is 0
    for N in (1, 2):
        assert cl.partition_cubature(SEGMENT, cl.EnsembleParams(N, math.inf, 2.0, 0.1)) == 0.0


def test_cubature_rejections():
    with pytest.raises(ValueError):
        cl.partition_cubature(DISK, cl.EnsembleParams(4, 16.0, 2.0, 0.1))
    # every set but the disk stops at N = 2
    for K in (SEGMENT, cl.ExteriorMap(1.0, (0.0, 0.0, 0.15))):
        with pytest.raises(NotImplementedError):
            cl.partition_cubature(K, cl.EnsembleParams(3, 8.0, 2.0, 0.1))


@pytest.mark.parametrize("R", [1.0, 1.5])
@pytest.mark.parametrize("s", [4.0, 8.0])
def test_exterior_map_pair_cubature_matches_disk_closed_form(R, s):
    # psi(w) = R w + c is the disk of radius R about c, taken through the
    # Laurent route; log Z scales by R^(2N + beta N(N-1)/2) = R^6 at N = 2
    K = cl.ExteriorMap(R, (0.3 + 0.2j,))
    value = math.log(cl.partition_cubature(K, cl.EnsembleParams(2, s, 2.0, 0.1)))
    exact = cl.log_partition_disk_exact(2, s) + 6.0 * math.log(R)
    assert value == pytest.approx(exact, rel=1e-12, abs=0)


def test_exterior_map_pair_cubature_faber_value():
    # psi(w) = w + c/w^2 is symmetric under z -> e^{2 pi i/3} z, so with
    # mu = exp(-8 green) dA (s = 4) the mean of z vanishes and
    # Z = int int |z1 - z2|^2 = 2 mu(1) mu(|z|^2).  mu(|z|^2) sums the
    # squared Laurent coefficients of psi psi' = w - c/w^2 - 2c^2/w^5
    # against pi/(k+1) inside K and 2 pi/(6 - 2k) outside.  3.2291102689674074
    # is log 2! + log det G for the 2 x 2 Gram matrix G of the Faber
    # polynomials 1 and z under mu.
    c = 0.15
    K = cl.ExteriorMap(1.0, (0.0, 0.0, c))
    value = math.log(cl.partition_cubature(K, cl.EnsembleParams(2, 4.0, 2.0, 0.1)))
    closed = math.log(2.0 * K.field_integral(8.0) * math.pi * (1 - 0.8 * c * c - c ** 4 / 2))
    assert abs(value - closed) <= 1e-12
    assert abs(value - 3.2291102689674074) <= 1e-12


def test_exterior_map_pair_cubature_equals_ellipse():
    # the ellipse (2, 1) given as psi(w) = 1.5 w + 0.5/w: the same nodes
    p = cl.EnsembleParams(2, 8.0, 2.0, 0.1)
    value = cl.partition_cubature(cl.ExteriorMap(1.5, (0.0, 0.5)), p)
    assert value.hex() == cl.partition_cubature(cl.Ellipse(0.0, 2.0, 1.0), p).hex()


# ---------------------------------------------------------------------------
# log-density average of the smoothed measure
# ---------------------------------------------------------------------------

def _log_density_full_grid(nu, cell=None):
    # oracle: every cell of the midpoint grid against every atom
    eps = nu.epsilon
    h = cell if cell is not None else eps / 40.0
    x0, x1, y0, y1 = nu.bounding_box()
    xs = np.arange(x0 + h / 2, x1, h)
    ys = np.arange(y0 + h / 2, y1, h)
    pts, w = nu.base.points, nu.base.weights
    total = 0.0
    for yc in ys:
        d2 = np.abs(xs[:, None] + 1j * yc - pts[None, :]) ** 2
        a = (d2 < eps * eps) @ w / (math.pi * eps * eps)
        pos = a > 0
        if pos.any():
            total += float(np.sum(a[pos] * np.log(a[pos]))) * h * h
    return total


def _inner_nu(K):
    # the smoothed measure partition_bounds builds
    return smooth(equilibrium_discretization(K.inner_set(1.0 / 8), 128), 0.05)


@pytest.mark.parametrize("K,cell", [(DISK, None), (SEGMENT, None),
                                    (cl.Ellipse(0.0, 2.0, 1.0), None), (DISK, 0.05 / 20)],
                         ids=["disk", "segment", "ellipse", "disk-cell"])
def test_log_density_matches_full_grid(K, cell):
    # the 128 atoms weigh 1/128 each, so every cell's density is exact on both sides
    nu = _inner_nu(K)
    assert _log_density_self_average(nu, cell) == _log_density_full_grid(nu, cell)


def test_log_density_overlapping_non_dyadic_atoms():
    # seven overlapping atoms of unequal weight: the densities agree with
    # the full grid at rounding level; the last atom sits just above a grid
    # row, between two columns, so its half chord on that row covers no cell
    eps, h = 0.05, 0.05 / 8
    rng = np.random.default_rng(36)
    pts = list(rng.uniform(-0.04, 0.04, 6) + 1j * rng.uniform(-0.04, 0.04, 6))
    x0, y0 = min(p.real for p in pts) - eps, min(p.imag for p in pts) - eps
    row, col = y0 + h / 2 + 5 * h, x0 + h / 2 + 12 * h
    pts.append(col + h / 2 + 1j * (row + eps * (1 - 1e-6)))
    nu = smooth(cl.AtomicMeasure(pts, rng.uniform(0.5, 1.5, 7) / 7), eps)
    assert nu.bounding_box()[::2] == (x0, y0)
    half = math.sqrt(eps ** 2 - (pts[-1].imag - row) ** 2)
    assert 0 < half < h / 2
    assert _log_density_self_average(nu, h) == pytest.approx(
        _log_density_full_grid(nu, h), rel=1e-12)


def test_log_density_single_atom_closed_form():
    # one unit atom: density 1/(pi eps^2) on its disk, so the average is
    # log(1/(pi eps^2)) up to the grid's area error
    eps = 0.05
    nu = smooth(cl.AtomicMeasure([0.3 - 0.2j], [1.0]), eps)
    assert _log_density_self_average(nu) == pytest.approx(
        math.log(1.0 / (math.pi * eps * eps)), rel=2e-3)


def test_log_density_skips_empty_row_bands():
    # two far-apart half atoms leave every row between them empty; the
    # disjoint disks give log(1/(2 pi eps^2))
    eps = 0.05
    nu = smooth(cl.AtomicMeasure([0.0, 0.4 + 1.0j]), eps)
    value = _log_density_self_average(nu)
    assert value == pytest.approx(_log_density_full_grid(nu), rel=1e-12)
    assert value == pytest.approx(math.log(1.0 / (2 * math.pi * eps * eps)), rel=2e-3)


# ---------------------------------------------------------------------------
# sandwich bounds
# ---------------------------------------------------------------------------

def test_bounds_sandwich_disk():
    p = cl.EnsembleParams(8, 16.0, 2.0, 0.1)
    fr = cl.solve(DISK, 8, seed=4)
    b = cl.partition_bounds(DISK, p, fr.log_delta)
    exact = cl.log_partition_disk_exact(8, 16.0)
    assert b.lower <= exact <= b.upper


def test_bounds_sandwich_segment_cubature():
    p = cl.EnsembleParams(2, 8.0, 2.0, 0.1)
    fr = cl.solve(SEGMENT, 2, seed=5)
    b = cl.partition_bounds(SEGMENT, p, fr.log_delta)
    z = cl.partition_cubature(SEGMENT, p)
    assert b.lower <= math.log(z) <= b.upper
    assert b.green_average > 0  # smoothed segment measure spills off K


def test_bounds_smoothed_terms_shared_across_ensembles():
    # the lower bound's smoothed-measure terms depend on K only; every
    # ensemble on a set gets that set's values computed afresh
    for K in (DISK, cl.Disk(0.0, 0.5)):
        nu = _inner_nu(K)
        fresh = (cl.continuous_energy(nu), _log_density_self_average(nu), nu.green_average(K))
        for n in (8, 16):
            b = cl.partition_bounds(K, cl.EnsembleParams(n, 2.0 * n, 2.0, 0.1),
                                    cl.solve(K, n, seed=4).log_delta)
            assert (b.nu_energy, b.log_density_average, b.green_average) == fresh


def test_bounds_trend():
    vals = []
    for n in (16, 32, 64):
        p = cl.EnsembleParams(n, 2.0 * n, 2.0, 0.1)
        fr = cl.solve(DISK, n, seed=6)
        vals.append(cl.partition_bounds(DISK, p, fr.log_delta).upper / n**2)
    assert vals[0] > vals[1] > vals[2] > 0


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def test_report_fields_and_invariant():
    p = cl.EnsembleParams(2, 8.0, 2.0, 0.1)
    rep = build_report(DISK, p, log_delta=cl.solve(DISK, 2, seed=7).log_delta,
                       with_cubature=True)
    assert rep.exact == pytest.approx(math.log(math.pi**2 * 64 / 42))
    assert rep.lower <= rep.cubature <= rep.upper
    assert rep.residual == pytest.approx(rep.exact - rep.asymptote)
    d = rep.to_dict()
    assert d["N"] == 2 and "exact" in d and "cubature" in d
    row = rep.csv_row()
    assert row.startswith("2,8,")
    assert PartitionReport.CSV_HEADER.count(",") == row.count(",")


def test_report_s_inf():
    p = cl.EnsembleParams(4, math.inf, 2.0, 0.1)
    rep = build_report(DISK, p)
    assert rep.exact == pytest.approx(4 * math.log(math.pi))
    assert rep.residual == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("N", [2, 3])
@pytest.mark.parametrize("s", [8.0, math.inf])
def test_report_exact_on_every_disk(N, s):
    # z = c + R w adds N(N+1) log R to log Z and to the asymptote alike
    K = cl.Disk(0.3 + 0.2j, 1.5)
    p = cl.EnsembleParams(N, s, 2.0, 0.1)
    rep = build_report(K, p, with_cubature=True)
    assert rep.exact == cl.log_partition_disk_exact(N, s) + N * (N + 1) * math.log(1.5)
    assert abs(rep.exact - rep.cubature) <= 1e-8
    assert abs(rep.residual - build_report(DISK, p).residual) <= 1e-12
    # only beta = 2 is determinantal
    assert build_report(K, cl.EnsembleParams(N, s, 1.0, 0.1)).exact is None


def test_report_lower_bound_terms():
    p = cl.EnsembleParams(8, 16.0, 2.0, 0.1)
    fr = cl.solve(DISK, 8, seed=4)
    rep = build_report(DISK, p, log_delta=fr.log_delta)
    b = cl.partition_bounds(DISK, p, fr.log_delta)
    d = rep.to_dict()
    for k in ("nu_energy", "log_density_average", "green_average", "field_log_integral"):
        assert d[k] == getattr(b, k)
    assert d["lower"] == b.lower
    # the terms stay out of the CSV
    assert PartitionReport.CSV_HEADER == "N,s,exact,lower,upper,asymptote,residual,cubature"
    assert rep.csv_row().count(",") == 7
    assert "nu_energy" not in build_report(DISK, p).to_dict()
