"""Partition values, asymptote, bounds and cubature."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

import coulomblab as cl
from coulomblab.measures import _green_average, equilibrium_discretization, smooth
from coulomblab.partition import PartitionReport, _log_density_self_average, build_report

DISK = cl.Disk(0.0, 1.0)
SEGMENT = cl.Segment(-2.0, 2.0)


# ---------------------------------------------------------------------------
# orthonormal-monomial coefficients
# ---------------------------------------------------------------------------

def _kappa_oracle(n, s):
    # radial quadrature of the weighted monomial norm, split at |z| = 1
    inner = quad(lambda r: r ** (2 * n) * 2 * math.pi * r, 0, 1)[0]
    outer = quad(lambda r: r ** (2 * n - 2 * s) * 2 * math.pi * r, 1, np.inf)[0]
    return 1.0 / math.sqrt(inner + outer)


@pytest.mark.parametrize("n,s", [(0, 2.0), (0, 8.0), (1, 4.0), (3, 16.0), (5, 64.0)])
def test_kappa_disk_radial_oracle(n, s):
    # resolves the norm split: pi/(n+1) + pi/(s-n-1) = pi s/((n+1)(s-n-1))
    assert cl.kappa_disk(n, s) == pytest.approx(_kappa_oracle(n, s), rel=1e-10)


def test_kappa_disk_values():
    assert cl.kappa_disk(0, 2.0) == pytest.approx(math.sqrt(1 / (2 * math.pi)))
    # n=1, s=4: both half-integrals equal pi/2, so kappa = 1/sqrt(pi)
    assert cl.kappa_disk(1, 4.0) == pytest.approx(math.sqrt(1 / math.pi))
    assert cl.kappa_disk(0, math.inf) == pytest.approx(1 / math.sqrt(math.pi))


def test_kappa_matches_capacity_form():
    # kappa = cp^-(n+1) sqrt((n+1)/pi (1 - (n+1)/s)) with cp = 1
    for n in range(6):
        for s in (8.0, 16.0, 64.0):
            form = math.sqrt((n + 1) / math.pi * (1 - (n + 1) / s))
            assert cl.kappa_disk(n, s) == pytest.approx(form, rel=1e-14)


def test_kappa_rejects_divergent():
    with pytest.raises(ValueError):
        cl.kappa_disk(3, 4.0)
    with pytest.raises(ValueError):
        cl.kappa_disk(-1, 8.0)


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


def test_bridge_residual_identity():
    # the finite-s reduction residual is exactly -log(1 - N/s)
    for n, s in ((5, 10.0), (10, 20.0), (16, 64.0)):
        assert cl.bridge_residual(n, s) == pytest.approx(-math.log1p(-n / s), abs=1e-9)


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


def test_cubature_segment_n1():
    p = cl.EnsembleParams(1, 8.0, 2.0, 0.1)
    assert cl.partition_cubature(SEGMENT, p) == pytest.approx(
        SEGMENT.field_integral(16.0), rel=1e-10)


def test_cubature_rejections():
    with pytest.raises(ValueError):
        cl.partition_cubature(DISK, cl.EnsembleParams(4, 16.0, 2.0, 0.1))
    with pytest.raises(NotImplementedError):
        cl.partition_cubature(SEGMENT, cl.EnsembleParams(3, 8.0, 2.0, 0.1))


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
    # the smoothed measure partition_bounds builds at its defaults
    return smooth(equilibrium_discretization(K.inner_set(1.0 / 8), 128), 0.05)


@pytest.mark.parametrize("K,cell", [(DISK, None), (SEGMENT, None),
                                    (cl.Ellipse(0.0, 2.0, 1.0), None), (DISK, 0.05 / 20)],
                         ids=["disk", "segment", "ellipse", "disk-cell"])
def test_log_density_matches_full_grid(K, cell):
    nu = _inner_nu(K)
    assert _log_density_self_average(nu, cell) == pytest.approx(
        _log_density_full_grid(nu, cell), rel=1e-12)


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
    b = cl.partition_bounds(DISK, p, fr)
    exact = cl.log_partition_disk_exact(8, 16.0)
    assert b.lower <= exact <= b.upper


def test_bounds_sandwich_segment_cubature():
    p = cl.EnsembleParams(2, 8.0, 2.0, 0.1)
    fr = cl.solve(SEGMENT, 2, seed=5)
    b = cl.partition_bounds(SEGMENT, p, fr)
    z = cl.partition_cubature(SEGMENT, p)
    assert b.lower <= math.log(z) <= b.upper
    assert b.green_average > 0  # smoothed segment measure spills off K


def test_bounds_warn_on_wide_mollifier():
    p = cl.EnsembleParams(2, 8.0, 2.0, 0.1)
    fr = cl.solve(DISK, 2, seed=5)
    for _ in range(2):  # the second call reuses the smoothed-measure terms
        with pytest.warns(UserWarning, match="mollification"):
            cl.partition_bounds(DISK, p, fr, m=8, eps=0.1)


def test_bounds_smoothed_terms_shared_across_ensembles():
    # the lower bound's smoothed-measure terms depend on (K, m, eps, atoms)
    # only; every ensemble on a set gets that set's values computed afresh
    for K in (DISK, cl.Disk(0.0, 0.5)):
        nu = _inner_nu(K)
        fresh = (cl.continuous_energy(nu), _log_density_self_average(nu), _green_average(nu, K))
        for n in (8, 16):
            b = cl.partition_bounds(K, cl.EnsembleParams(n, 2.0 * n, 2.0, 0.1),
                                    cl.solve(K, n, seed=4))
            assert (b.nu_energy, b.log_density_average, b.green_average) == fresh


def test_bounds_trend():
    vals = []
    for n in (16, 32, 64):
        p = cl.EnsembleParams(n, 2.0 * n, 2.0, 0.1)
        fr = cl.solve(DISK, n, seed=6)
        vals.append(cl.partition_bounds(DISK, p, fr).upper / n**2)
    assert vals[0] > vals[1] > vals[2] > 0


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def test_report_fields_and_invariant():
    p = cl.EnsembleParams(2, 8.0, 2.0, 0.1)
    rep = build_report(DISK, p, fekete_result=cl.solve(DISK, 2, seed=7),
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


def test_report_lower_bound_terms():
    p = cl.EnsembleParams(8, 16.0, 2.0, 0.1)
    fr = cl.solve(DISK, 8, seed=4)
    rep = build_report(DISK, p, fekete_result=fr)
    b = cl.partition_bounds(DISK, p, fr)
    d = rep.to_dict()
    for k in ("nu_energy", "log_density_average", "green_average", "field_log_integral"):
        assert d[k] == getattr(b, k)
    assert d["lower"] == b.lower
    # the terms stay out of the CSV
    assert PartitionReport.CSV_HEADER == "N,s,exact,lower,upper,asymptote,residual"
    assert rep.csv_row().count(",") == 6
    assert "nu_energy" not in build_report(DISK, p).to_dict()
