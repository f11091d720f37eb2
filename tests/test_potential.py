"""Potential-theoretic primitives against independent oracles."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

import coulomblab as cl
from coulomblab.potential import MEMBERSHIP_TOL

DISK = cl.Disk(0.0, 1.0)
SEGMENT = cl.Segment(-2.0, 2.0)
ELLIPSE = cl.Ellipse(0.0, 2.0, 1.0)
EXTMAP = cl.ExteriorMap(1.5, (0.0, 0.5))  # same set as ELLIPSE

ALL_SETS = [DISK, SEGMENT, ELLIPSE, EXTMAP]


# ---------------------------------------------------------------------------
# green function
# ---------------------------------------------------------------------------

def test_green_disk_values():
    assert cl.green(DISK, 0.3 + 0.2j) == 0.0
    assert cl.green(DISK, 1.0) == 0.0
    assert cl.green(DISK, 2.0) == pytest.approx(math.log(2), abs=1e-15)


def test_green_segment_inverse_joukowski():
    # oracle: w = (z + sqrt(z^2 - 4)) / 2 on the |w| >= 1 branch
    z = 3.0
    w = (z + math.sqrt(z * z - 4)) / 2
    assert cl.green(SEGMENT, z) == pytest.approx(math.log(w), abs=1e-14)
    assert cl.green(SEGMENT, 3.0) == pytest.approx(0.9624236501192069, abs=1e-12)
    assert cl.green(SEGMENT, 0.7) == 0.0
    assert cl.green(SEGMENT, -2.0) == 0.0


def test_green_ellipse_matches_exterior_map():
    # the Laurent map 1.5 w + 0.5/w is the ellipse (2, 1): closed-form oracle
    rng = np.random.default_rng(3)
    scattered = rng.uniform(-4, 4, 200) + 1j * rng.uniform(-3, 3, 200)
    x, y = np.linspace(-3, 3, 121), np.linspace(-2, 2, 81)
    grid = (x[:, None] + 1j * y[None, :]).ravel()
    boundary = ELLIPSE.boundary_point(np.linspace(0, 2 * math.pi, 257))
    far = 1e8 * np.exp(1j * np.linspace(0, 2 * math.pi, 17))
    for z in (scattered, grid, boundary * (1 + 1e-10), boundary * (1 - 1e-10),
              boundary * (1 + 1e-6), far):
        assert np.max(np.abs(cl.green(EXTMAP, z) - cl.green(ELLIPSE, z))) <= 1e-14


def _distance_to_set(K, z):
    """Euclidean distance to K (closed form for disk/segment, dense
    boundary sampling otherwise)."""
    if isinstance(K, cl.Disk):
        return np.abs(z - K.center) - K.radius
    if isinstance(K, cl.Segment):
        return np.hypot(np.maximum(np.abs(z.real - K._mid) - K._half, 0.0), z.imag)
    theta = (np.arange(4096) + 0.5) * (2 * math.pi / 4096)
    boundary = K.boundary_point(theta)
    out = np.empty(z.size)
    for lo in range(0, z.size, 4096):
        blk = z[lo:lo + 4096]
        out[lo:lo + 4096] = np.min(np.abs(blk[:, None] - boundary[None, :]), axis=1)
    return out


@pytest.mark.parametrize("K,n_points", [(DISK, 1_000_000), (SEGMENT, 1_000_000),
                                        (ELLIPSE, 20_000), (EXTMAP, 10_000)])
def test_green_harmonic_mean_value(K, n_points):
    # harmonicity oracle: average over a small circle equals the center
    # value; ring radii scale with the distance to K so rings stay off K
    rng = np.random.default_rng(11)
    z = rng.uniform(-4, 4, n_points) + 1j * rng.uniform(-4, 4, n_points)
    dist = _distance_to_set(K, z)
    keep = dist > 0.02
    z, g = z[keep], np.atleast_1d(K.green(z[keep]))
    r = 0.02 * dist[keep]
    theta = (np.arange(16) + 0.5) * (2 * math.pi / 16)
    ring = z[:, None] + r[:, None] * np.exp(1j * theta)[None, :]
    mean = np.atleast_1d(K.green(ring.ravel())).reshape(ring.shape).mean(axis=1)
    rel = np.abs(mean - g) / np.maximum(np.abs(g), 1.0)
    assert float(rel.max()) < 1e-6


@pytest.mark.parametrize("K", ALL_SETS)
def test_green_asymptotics(K):
    # green(z) - log|z| -> -log capacity
    for phase in (0.0, 1.1, 2.7):
        z = 1e3 * np.exp(1j * phase)
        val = float(np.atleast_1d(K.green(z))[0]) - math.log(abs(z))
        assert val == pytest.approx(-math.log(K.capacity()), abs=1e-4)


@pytest.mark.parametrize("K", ALL_SETS)
def test_green_zero_on_boundary(K):
    theta = np.linspace(0, 2 * math.pi, 64)
    g = np.atleast_1d(K.green(K.boundary_point(theta)))
    assert np.all(g <= MEMBERSHIP_TOL)


# ---------------------------------------------------------------------------
# capacity / robin energy
# ---------------------------------------------------------------------------

def test_capacities():
    assert cl.capacity(DISK) == 1.0
    assert cl.capacity(cl.Disk(1 + 1j, 0.5)) == 0.5
    assert cl.capacity(SEGMENT) == 1.0
    assert cl.capacity(ELLIPSE) == 1.5
    assert cl.capacity(EXTMAP) == 1.5


def test_robin_energy():
    assert cl.robin_energy(DISK) == 0.0
    assert cl.robin_energy(cl.Disk(0, 0.5)) == pytest.approx(math.log(2), abs=1e-15)
    assert cl.robin_energy(SEGMENT) == pytest.approx(0.0, abs=1e-15)


def test_invalid_sets_rejected():
    with pytest.raises(ValueError):
        cl.Disk(0.0, -1.0)
    with pytest.raises(ValueError):
        cl.Segment(2.0, -2.0)
    with pytest.raises(ValueError):
        cl.Ellipse(0.0, 1.0, 2.0)


# ---------------------------------------------------------------------------
# equilibrium measure
# ---------------------------------------------------------------------------

def test_equilibrium_sample_disk_on_circle():
    c = cl.equilibrium_sample(DISK, 500, seed=1)
    assert np.allclose(np.abs(c.points), 1.0, atol=1e-12)
    mean = np.mean(cl.equilibrium_sample(DISK, 200_000, seed=2).points)
    assert abs(mean) < 0.01


def test_equilibrium_sample_segment_arcsine_moment():
    # oracle: int x^2 / (pi sqrt(4 - x^2)) dx = 2 by adaptive quadrature
    target, _ = quad(lambda x: x * x / (math.pi * math.sqrt(4 - x * x)), -2, 2)
    assert target == pytest.approx(2.0, abs=1e-9)
    x = cl.equilibrium_sample(SEGMENT, 400_000, seed=3).points.real
    assert np.mean(x**2) == pytest.approx(2.0, abs=0.02)


def test_equilibrium_integral_disk():
    assert cl.equilibrium_integral(DISK, lambda z: np.abs(z) ** 2) == pytest.approx(1.0, abs=1e-12)
    assert cl.equilibrium_integral(DISK, lambda z: np.ones_like(z.real)) == pytest.approx(1.0)


def test_equilibrium_integral_segment_moment():
    assert cl.equilibrium_integral(SEGMENT, lambda z: z.real**2) == pytest.approx(2.0, abs=1e-10)


def test_equilibrium_integral_reports_error():
    val, err = cl.equilibrium_integral(DISK, lambda z: np.exp(z.real), return_error=True)
    oracle, _ = quad(lambda t: math.exp(math.cos(t)) / (2 * math.pi), 0, 2 * math.pi)
    assert val == pytest.approx(oracle, abs=1e-10)
    assert err < 1e-10


def test_equilibrium_integral_flags_nonconvergence():
    rng = np.random.default_rng(0)
    with pytest.warns(UserWarning):
        cl.equilibrium_integral(DISK, lambda z: rng.random(z.shape), max_nodes=2**10)


# ---------------------------------------------------------------------------
# logarithmic potential
# ---------------------------------------------------------------------------

def test_log_potential_atoms():
    delta0 = cl.AtomicMeasure([0.0])
    assert cl.log_potential(delta0, math.e + 0j) == pytest.approx(-1.0, abs=1e-15)
    assert cl.log_potential(delta0, 0.0 + 0j) == math.inf
    circle = cl.equilibrium_discretization(DISK, 512)
    assert abs(cl.log_potential(circle, 0.0 + 0j)) < 1e-12


def test_log_potential_smoothed_matches_quadrature():
    nu = cl.smooth(cl.AtomicMeasure([0.0]), 0.25)
    # oracle: radial quadrature of the angular mean -log max(|z|, r),
    # split at the kink radius r = |z|
    for z in (0.1 + 0.05j, 0.3j, 1.0 + 0.0j):
        def integrand(r):
            return -np.log(np.maximum(abs(z), r)) * 2 * r / 0.25**2
        oracle = quad(integrand, 0, 0.25, points=[min(abs(z), 0.25)], limit=200)[0]
        assert cl.log_potential(nu, z) == pytest.approx(oracle, abs=1e-10)


# ---------------------------------------------------------------------------
# mahler measure
# ---------------------------------------------------------------------------

def test_mahler_classical_oracle():
    # classical form |a| * prod max(1, |root|)
    p = cl.Polynomial((-2.0, 0.0, 1.0))  # z^2 - 2
    roots = p.roots()
    oracle = abs(p.leading) * np.prod(np.maximum(1.0, np.abs(roots)))
    assert cl.mahler_measure(DISK, p) == pytest.approx(float(oracle), rel=1e-12)
    assert cl.mahler_measure(DISK, p) == pytest.approx(2.0, rel=1e-12)
    assert cl.mahler_measure(DISK, cl.Polynomial((0.0, 1.0))) == pytest.approx(1.0)


def test_mahler_segment_log_x():
    assert cl.mahler_measure(SEGMENT, cl.Polynomial((0.0, 1.0))) == pytest.approx(1.0, rel=1e-12)
    # quadrature cross-check of the defining average; the log-singular
    # integrand stalls the dyadic refinement, which is flagged
    with pytest.warns(UserWarning, match="stalled"):
        val = cl.equilibrium_integral(SEGMENT, lambda z: np.log(np.abs(z)), tol=1e-8)
    assert abs(val) < 1e-4


def test_mahler_quadrature_cross_check():
    p = cl.Polynomial((1.5, -0.3 + 0.2j, 1.0))
    direct = cl.mahler_measure(DISK, p)
    quadrature = math.exp(cl.equilibrium_integral(DISK, lambda z: np.log(np.abs(p(z)))))
    assert direct == pytest.approx(quadrature, rel=1e-8)


def test_mahler_multiplicativity():
    rng = np.random.default_rng(5)
    for _ in range(10):
        p = cl.Polynomial(tuple(rng.normal(size=3) + 1j * rng.normal(size=3)))
        q = cl.Polynomial(tuple(rng.normal(size=4) + 1j * rng.normal(size=4)))
        lhs = cl.mahler_measure(DISK, p * q)
        rhs = cl.mahler_measure(DISK, p) * cl.mahler_measure(DISK, q)
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_mahler_rejects_bad_inputs():
    with pytest.raises(ValueError):
        cl.mahler_measure(cl.Disk(0, 2.0), cl.Polynomial((0.0, 1.0)))  # cap != 1
    with pytest.raises(ValueError):
        cl.Polynomial(())
    with pytest.raises(ValueError):
        cl.Polynomial((1.0, 0.0))  # zero leading coefficient


# ---------------------------------------------------------------------------
# balayage onto the disk
# ---------------------------------------------------------------------------

def test_balayage_density_formula():
    bal = cl.balayage_disk(cl.AtomicMeasure([2.0]), DISK)
    theta = np.linspace(0, 2 * math.pi, 7)
    expected = 3.0 / (2 * math.pi * np.abs(2.0 - np.exp(1j * theta)) ** 2)
    assert np.allclose(bal.density(theta), expected, atol=1e-14)


def test_balayage_mass_preserved():
    rng = np.random.default_rng(8)
    pts = (1.5 + rng.random(6) * 2) * np.exp(2j * math.pi * rng.random(6))
    w = rng.random(6)
    bal = cl.balayage_disk(cl.AtomicMeasure(pts, w), DISK)
    assert bal.mass() == pytest.approx(float(w.sum()), abs=1e-10)


def test_balayage_potential_identity_on_disk():
    # swept potential equals original plus green(x) inside the disk
    x = 2.0
    bal = cl.balayage_disk(cl.AtomicMeasure([x]), DISK)
    rng = np.random.default_rng(9)
    z = 0.8 * np.sqrt(rng.random(20)) * np.exp(2j * math.pi * rng.random(20))
    lhs = bal.potential(z)
    rhs = -np.log(np.abs(z - x)) + math.log(x)
    assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_balayage_far_atom_near_uniform():
    bal = cl.balayage_disk(cl.AtomicMeasure([1e9]), DISK)
    theta = np.linspace(0, 2 * math.pi, 32)
    assert np.allclose(bal.density(theta), 1.0 / (2 * math.pi), rtol=1e-6)


def test_balayage_boundary_atom_unchanged():
    z0 = np.exp(0.3j)
    bal = cl.balayage_disk(cl.AtomicMeasure([z0, 3.0], [0.4, 0.6]), DISK)
    assert bal.boundary_points.size == 1
    assert bal.boundary_points[0] == pytest.approx(z0)
    assert bal.boundary_weights[0] == pytest.approx(0.4)
    assert bal.mass() == pytest.approx(1.0, abs=1e-10)


def test_balayage_inside_atom_rejected():
    with pytest.raises(ValueError):
        cl.balayage_disk(cl.AtomicMeasure([0.5]), DISK)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("K", ALL_SETS)
def test_set_serialization_round_trip(K):
    K2 = cl.compact_set_from_dict(K.to_dict())
    assert K2 == K


def test_unknown_set_type_rejected():
    with pytest.raises(ValueError):
        cl.compact_set_from_dict({"type": "pentagon"})


def test_exterior_map_higher_coefficients():
    # perturbed map psi(w) = 1.2 w + 0.05/w + 0.04/w^3 (univalent)
    K = cl.ExteriorMap(1.2, (0.0, 0.05, 0.0, 0.04))
    theta = np.linspace(0, 2 * math.pi, 128)
    assert np.all(np.atleast_1d(K.green(K.boundary_point(theta))) <= MEMBERSHIP_TOL)
    z = 1e3 * np.exp(0.4j)
    assert float(np.atleast_1d(K.green(z))[0]) - math.log(abs(z)) == pytest.approx(
        -math.log(1.2), abs=1e-4)
    # interior classification: the origin is enclosed
    assert cl.contains(K, 0.0)
    # area formula against the shoelace integral of the boundary curve
    t = np.linspace(0, 2 * math.pi, 20001)
    b = K.boundary_point(t)
    shoelace = 0.5 * abs(np.trapezoid(b.real * np.gradient(b.imag, t)
                                      - b.imag * np.gradient(b.real, t), t))
    assert K.area() == pytest.approx(shoelace, rel=1e-4)


def _winding_number(curve, z):
    """Winding number of the closed polygon `curve` about each point of z,
    with the distance from each point to the polygon's vertices."""
    wind, dist = np.empty(z.size), np.empty(z.size)
    for lo in range(0, z.size, 64):
        d = curve[None, :] - z[lo:lo + 64, None]
        wind[lo:lo + 64] = np.sum(np.angle(d[:, 1:] / d[:, :-1]), axis=1) / (2 * math.pi)
        dist[lo:lo + 64] = np.min(np.abs(d), axis=1)
    return np.rint(wind), dist


@pytest.mark.parametrize("K", [cl.ExteriorMap(1.2, (0.0, 0.05, 0.0, 0.04)),
                               cl.ExteriorMap(1.0, (0.0, 0.0, 0.15))])
def test_exterior_map_membership_winding_oracle(K):
    curve = K.boundary_point(np.linspace(0, 2 * math.pi, 20001))
    x = np.linspace(-1.6, 1.6, 61)
    z = (x[:, None] + 1j * x[None, :]).ravel()
    wind, dist = _winding_number(curve, z)
    z, wind = z[dist > 1e-3], wind[dist > 1e-3]
    assert set(np.unique(wind)) == {0.0, 1.0}
    g = K.green(z)
    assert np.array_equal(g == 0.0, wind == 1.0)
    idx, w = K._preimage(z)
    assert np.array_equal(idx, np.flatnonzero(wind == 0.0))
    assert np.all(np.abs(w) > 1.0)
    assert np.max(np.abs(K.map(w) - z[idx])) <= 1e-12


def test_linear_exterior_map_equals_disk():
    disk = cl.Disk(0.2, 0.5)
    x = np.linspace(-1.0, 1.4, 49)
    z = np.concatenate([(x[:, None] + 1j * x[None, :]).ravel(), [0.2, 0.2 + 0.5j]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for K in (cl.ExteriorMap(0.5, (0.2,)), cl.ExteriorMap(0.5, (0.2, 0.0))):
            assert np.max(np.abs(K.green(z) - disk.green(z))) <= 1e-14
            assert K.green(0.2) == 0.0


def test_exterior_map_green_shapes():
    g = EXTMAP.green(2.5 + 1.0j)
    assert type(g) is float and g == pytest.approx(ELLIPSE.green(2.5 + 1.0j), abs=1e-15)
    assert type(EXTMAP.green(0.1)) is float
    z = np.array([[0.0, 3.0], [1j, 2.5 + 1j], [-4.0, 0.5]])
    assert EXTMAP.green(z).shape == (3, 2)
    assert np.array_equal(EXTMAP.green(z), EXTMAP.green(z.ravel()).reshape(3, 2))


class _ShiftedMap(cl.ExteriorMap):
    """A map that disagrees with its Laurent coefficients by 1e-6."""

    def map(self, w):
        return super().map(w) + 1e-6


def test_exterior_map_missed_residual_raises():
    K = _ShiftedMap(1.5, (0.0, 0.5))
    assert K.green(0.1 + 0.2j) == 0.0  # in K: no preimage is needed
    with pytest.raises(cl.InversionError, match="2 of 2 points outside K"):
        K.green(np.array([3.0, 0.1, 2.0j]))
    assert issubclass(cl.InversionError, ArithmeticError)


def test_exterior_map_field_integral_vs_cubature():
    K = cl.ExteriorMap(1.2, (0.0, 0.05, 0.0, 0.04))
    p = cl.EnsembleParams(1, 5.0, 2.0, 0.1)
    z = cl.partition_cubature(K, p)
    assert z == pytest.approx(K.field_integral(10.0), rel=1e-8)
