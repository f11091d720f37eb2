"""Potential-theoretic primitives against independent oracles."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

import coulomblab as cl
from coulomblab.potential import MEMBERSHIP_TOL, _power_sum, _snap

DISK = cl.Disk(0.0, 1.0)
SEGMENT = cl.Segment(-2.0, 2.0)
ELLIPSE = cl.Ellipse(0.0, 2.0, 1.0)
EXTMAP = cl.ExteriorMap(1.5, (0.0, 0.5))  # same set as ELLIPSE

ALL_SETS = [DISK, SEGMENT, ELLIPSE, EXTMAP]


# ---------------------------------------------------------------------------
# green function
# ---------------------------------------------------------------------------

def test_green_disk_values():
    assert DISK.green(0.3 + 0.2j) == 0.0
    assert DISK.green(1.0) == 0.0
    assert DISK.green(2.0) == pytest.approx(math.log(2), abs=1e-15)


def _disk_green_masked(K, z):
    """The masked Disk.green formula: log(max(r, R)/R) where r > R, else 0."""
    r = np.abs(np.asarray(z, dtype=complex) - K.center)
    with np.errstate(divide="ignore"):
        g = np.where(r > K.radius, np.log(np.maximum(r, K.radius) / K.radius), 0.0)
    return _snap(g)


def test_green_disk_equals_masked_formula():
    # bit for bit, at r = 0, r = R, just above R, r = inf and r = nan
    K = cl.Disk(0.25 - 0.5j, 1.5)
    R = K.radius
    radii = np.concatenate([[0.0, 0.3, R, np.nextafter(R, 0.0), np.nextafter(R, 3.0)],
                            R * (1 + np.array([1e-16, 4e-16, 1e-15, 3e-15, 1e-12, 1e-6])),
                            [2.0 * R, 1e300]])
    angles = np.exp(1j * np.linspace(0.0, 2 * math.pi, 7))
    special = [complex(math.inf, 1.0), complex(-math.inf, math.inf), complex(math.nan, 0.0),
               complex(0.0, math.nan)]
    z = np.concatenate([K.center + (radii[:, None] * angles[None, :]).ravel(), special])
    new, old = K.green(z), _disk_green_masked(K, z)
    assert new.tobytes() == old.tobytes()
    assert list(new[-4:]) == [math.inf, math.inf, 0.0, 0.0]
    for point in z:
        assert repr(K.green(point)) == repr(_disk_green_masked(K, point))


def _snap_where(g):
    """The former snap: a new array from np.where, a float for 0-d input."""
    g = np.where(g > 1e-15, g, 0.0)
    return g if g.ndim else float(g)


def test_snap_equals_where_formula():
    # bit for bit against np.where on +-0.0, float dust, the threshold, inf
    # and NaN, for arrays (snapped in place), 0-d arrays and numpy scalars
    values = [0.0, -0.0, 1e-16, 1e-15, np.nextafter(1e-15, 1.0), 2e-15, 0.5,
              math.inf, -math.inf, math.nan]
    arr = np.array(values)
    expected = _snap_where(arr)
    snapped = _snap(arr.copy())
    assert snapped.tobytes() == expected.tobytes()
    assert snapped.tobytes() == np.array([0.0] * 4 + values[4:7] + [math.inf, 0.0, 0.0]).tobytes()
    for shape in ((1,), (2, 5)):
        assert _snap(arr[:np.prod(shape)].reshape(shape).copy()).shape == shape
    for v in values:
        for g in (np.float64(v), np.array(v)):
            new, old = _snap(g), _snap_where(g)
            assert type(new) is float and repr(new) == repr(old)
            assert math.copysign(1.0, new) == 1.0


def test_green_segment_inverse_joukowski():
    # oracle: w = (z + sqrt(z^2 - 4)) / 2 on the |w| >= 1 branch
    z = 3.0
    w = (z + math.sqrt(z * z - 4)) / 2
    assert SEGMENT.green(z) == pytest.approx(math.log(w), abs=1e-14)
    assert SEGMENT.green(3.0) == pytest.approx(0.9624236501192069, abs=1e-12)
    assert SEGMENT.green(0.7) == 0.0
    assert SEGMENT.green(-2.0) == 0.0


def _quadratic_green_one_pass(z, c, cap, q):
    """The segment and ellipse green as one pass over all points, the form
    before it ran in chunks."""
    u = np.asarray(z, dtype=complex) - c
    sq = np.sqrt(u * u - 4.0 * cap * q)
    w = np.maximum(np.abs((u + sq) / (2 * cap)), np.abs((u - sq) / (2 * cap)))
    return _snap(np.log(np.maximum(w, 1.0)))


@pytest.mark.parametrize("K", [SEGMENT, cl.Ellipse(0.3 - 0.2j, 2.0, 1.0)])
def test_quadratic_green_chunks_bit_for_bit(K):
    # 2^17 points: scattered, on and near the boundary, and far away
    rng = np.random.default_rng(11)
    n = 1 << 17
    scattered = rng.uniform(-4, 4, n // 2) + 1j * rng.uniform(-3, 3, n // 2)
    boundary = K.boundary_point(rng.uniform(0, 2 * math.pi, n // 2))
    radial = np.repeat([1.0, 1 - 1e-12, 1 + 1e-12, 1e6], n // 8)
    z = np.concatenate([scattered, boundary * radial])
    cap, (c, q) = K.laurent()
    want = _quadratic_green_one_pass(z, c, cap, q)
    assert z.size == n and (want > 0).any() and (want == 0).any()
    assert K.green(z).tobytes() == want.tobytes()
    ragged = z[: n - 7]  # a last chunk shorter than the others
    assert K.green(ragged).tobytes() == want[: n - 7].tobytes()
    strided = z.reshape(256, 512)[:, ::3]  # shape kept, non-contiguous input
    assert K.green(strided).tobytes() == want.reshape(256, 512)[:, ::3].tobytes()
    assert K.green(z[:0]).shape == (0,)
    for i in range(0, n, n // 64):  # a scalar runs the array loop
        assert repr(K.green(z[i])) == repr(float(want[i]))


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
        assert np.max(np.abs(EXTMAP.green(z) - ELLIPSE.green(z))) <= 1e-14


def test_one_negative_power_map_equals_ellipse_bit_for_bit():
    # the quadratic root of ExteriorMap(1.5, (0, 0.5)) is the Ellipse's, bit
    # for bit, on the chain_exterior oracle grid and on 1e5 random points
    x, y = np.linspace(-3.0, 3.0, 61), np.linspace(-2.0, 2.0, 41)
    grid = (x[:, None] + 1j * y[None, :]).ravel()
    rng = np.random.default_rng(26)
    scattered = rng.uniform(-4, 4, 100_000) + 1j * rng.uniform(-3, 3, 100_000)
    for z in (grid, scattered):
        g = EXTMAP.green(z)
        assert (g > 0).any() and (g == 0).any()
        assert g.tobytes() == ELLIPSE.green(z).tobytes()


@pytest.mark.parametrize("phi", [0.3, 1.0, 2.5])
def test_rotated_ellipse_exterior_map(phi):
    # psi(w) = 1.5 w + 0.5 e^{2i phi}/w is the ellipse (2, 1) turned by phi:
    # psi(e^{i phi} v) = e^{i phi} (1.5 v + 0.5/v)
    K = cl.ExteriorMap(1.5, (0.0, 0.5 * np.exp(2j * phi)))
    rng = np.random.default_rng(7)
    z = np.concatenate([rng.uniform(-4, 4, 4000) + 1j * rng.uniform(-3, 3, 4000),
                        ELLIPSE.boundary_point(np.linspace(0, 2 * math.pi, 257)) * (1 + 1e-6)])
    assert np.max(np.abs(K.green(np.exp(1j * phi) * z) - ELLIPSE.green(z))) <= 1e-14


def _mp_green(K, z):
    """log|w| for psi(w) = z by Newton steps at 40 digits from (z - c0)/cap,
    which is already within (cap/z)^2 of w for these |z| >= 1e10."""
    import mpmath as mp
    cap, coeffs = K.laurent()
    with mp.workdps(40):
        z, cap, coeffs = mp.mpc(z), mp.mpf(cap), [mp.mpc(c) for c in coeffs]
        w = (z - coeffs[0]) / cap
        for _ in range(6):
            f = cap * w + sum(c * w ** -k for k, c in enumerate(coeffs)) - z
            df = cap - sum(k * c * w ** (-k - 1) for k, c in enumerate(coeffs))
            w -= f / df
        return float(mp.log(abs(w)))


FAR_SETS = {"disk": cl.Disk(0.2 - 0.1j, 1.3), "segment": SEGMENT, "ellipse": ELLIPSE,
            "map_m1": EXTMAP, "map_m2": cl.ExteriorMap(1.0, (0.0, 0.0, 0.15))}


@pytest.mark.parametrize("name", sorted(FAR_SETS))
def test_green_far_field_against_mpmath(name):
    # every set type and both inversion paths, past the float overflow of
    # u*u (from 1e155) and of the m = 2 Newton polish (by 1e200): finite
    # values, and no warning
    K = FAR_SETS[name]
    radii = [1e10, 1e155, 1e200, 1e300]
    phases = np.exp(1j * np.array([0.0, 0.7, math.pi / 4, 2.0, math.pi, 4.5]))
    z = (np.array(radii)[:, None] * phases[None, :]).ravel()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = K.green(z)
        for i, point in enumerate(z):
            want = _mp_green(K, point)
            assert g[i] == pytest.approx(want, rel=1e-12), point
            assert K.green(point) == pytest.approx(want, rel=1e-12), point


@pytest.mark.parametrize("name", sorted(FAR_SETS))
def test_green_at_infinite_and_nan_points(name):
    # an infinite point gives +inf and a NaN point the snapped 0.0, alone or
    # in a batch with finite points, and no root solve fails on either
    K = FAR_SETS[name]
    inf, nan = math.inf, math.nan
    special = [complex(inf, 0.0), complex(-inf, 1.0), complex(0.0, -inf), complex(inf, inf),
               complex(nan, 0.0), complex(0.0, nan), complex(nan, nan), complex(inf, nan)]
    want = [inf, inf, inf, inf, 0.0, 0.0, 0.0, inf]
    finite = np.array([0.0, 3.0 + 1.0j, 1e300])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = K.green(np.concatenate([finite, special]))
        assert list(g[finite.size:]) == want
        assert g[2] == pytest.approx(_mp_green(K, 1e300), rel=1e-12)
        assert g[1] == K.green(3.0 + 1.0j) > 0 and K.green(0.0) == 0.0
        assert [K.green(p) for p in special] == want
        assert not cl.contains(K, inf) and not cl.contains(K, 1e300)


@pytest.mark.parametrize("cap,coeffs", [(1.0, (0.3,)), (1.0, (0.0, 0.5)), (1.0, (0.0, 0.0, 0.15)),
                                        (0.5, (0.1,)), (0.5, (0.1, 0.2)), (0.5, (0.1, 0.0, 0.05))],
                         ids=["m0", "m1", "m2", "cap_m0", "cap_m1", "cap_m2"])
def test_exterior_map_green_past_float_max_modulus(cap, coeffs):
    # finite z whose preimage modulus |w| exceeds the float maximum, where
    # log|w| ~ 709.9 (710.6 at cap 0.5, where (z - c0)/cap itself overflows)
    # is finite: the one far field, no inf, no error and no warning
    K = cl.ExteriorMap(cap, coeffs)
    z = np.array([1.5e308 + 1.5e308j, -1.5e308 - 1.5e308j, -1.5e308 + 1.2e308j, 1.7e308j])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = K.green(z)
        for i, point in enumerate(z):
            want = _mp_green(K, point)
            assert g[i] == pytest.approx(want, rel=1e-12), point
            assert K.green(point) == pytest.approx(want, rel=1e-12), point
        if len(coeffs) > 2:
            # the far root's residual comes from the coefficients, but a
            # genuine miss at a moderate z in the same batch still raises
            shifted = _ShiftedMap(cap, coeffs)
            assert shifted.green(z).tobytes() == g.tobytes()
            with pytest.raises(cl.InversionError, match="1 of 5 points outside K"):
                shifted.green(np.append(z, 3.0))
    assert np.all(g > 709.0)


SCALAR_SETS = {"disk": cl.Disk(0.2 - 0.1j, 1.3), "segment": SEGMENT,
               "ellipse": cl.Ellipse(0.3 - 0.2j, 2.0, 1.0), "map_m0": cl.ExteriorMap(0.5, (0.2,)),
               "map_m1": cl.ExteriorMap(1.5, (0.1j, 0.5 * np.exp(0.6j))),
               "map_m2": cl.ExteriorMap(1.0, (0.0, 0.0, 0.15))}


@pytest.mark.parametrize("name", sorted(SCALAR_SETS))
def test_scalar_green_equals_array_value(name):
    # every set type: green of one point is bit for bit its value inside an
    # array, on a grid through K and on random points near and far
    K = SCALAR_SETS[name]
    x, y = np.linspace(-3.0, 3.0, 31), np.linspace(-2.0, 2.0, 21)
    grid = (x[:, None] + 1j * y[None, :]).ravel()
    rng = np.random.default_rng(28)
    scattered = rng.uniform(-4, 4, 1500) + 1j * rng.uniform(-3, 3, 1500)
    far = 10.0 ** rng.uniform(0, 300, 100) * np.exp(2j * math.pi * rng.random(100))
    assert (K.green(grid) == 0).any() and (K.green(far) > 0).all()
    for z in (grid, scattered, far):
        scalars = [K.green(point) for point in z]
        assert all(type(v) is float for v in scalars)
        assert np.array(scalars).tobytes() == K.green(z).tobytes()


@pytest.mark.parametrize("K", ALL_SETS + [FAR_SETS["map_m2"]])
def test_contains_is_false_at_nan_points(K):
    # green keeps its snapped 0.0 at a NaN point, but the point is not in K,
    # so a NaN atom counts as support meeting the complement
    nan = math.nan
    inside = K.boundary_point(0.3)
    assert cl.contains(K, [inside, K.laurent()[1][0]])
    for point in (complex(nan, 0.0), complex(0.0, nan), complex(nan, nan)):
        assert K.green(point) == 0.0
        assert not cl.contains(K, point)
        assert not cl.contains(K, [inside, point])
        assert cl.AtomicMeasure([inside, point]).support_meets_complement(K)


def _distance_to_set(K, z):
    """Euclidean distance to K (closed form for disk/segment, dense
    boundary sampling otherwise)."""
    if isinstance(K, cl.Disk):
        return np.abs(z - K.center) - K.radius
    if isinstance(K, cl.Segment):
        return np.hypot(np.maximum(np.maximum(K.a - z.real, z.real - K.b), 0.0), z.imag)
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
    assert DISK.capacity() == 1.0
    assert cl.Disk(1 + 1j, 0.5).capacity() == 0.5
    assert SEGMENT.capacity() == 1.0
    assert ELLIPSE.capacity() == 1.5
    assert EXTMAP.capacity() == 1.5


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
    assert np.allclose(np.abs(c), 1.0, atol=1e-12)
    mean = np.mean(cl.equilibrium_sample(DISK, 200_000, seed=2))
    assert abs(mean) < 0.01


def test_equilibrium_sample_segment_arcsine_moment():
    # oracle: int x^2 / (pi sqrt(4 - x^2)) dx = 2 by adaptive quadrature
    target, _ = quad(lambda x: x * x / (math.pi * math.sqrt(4 - x * x)), -2, 2)
    assert target == pytest.approx(2.0, abs=1e-9)
    x = cl.equilibrium_sample(SEGMENT, 400_000, seed=3).real
    assert np.mean(x**2) == pytest.approx(2.0, abs=0.02)


def test_equilibrium_integral_disk():
    assert cl.equilibrium_integral(DISK, lambda z: np.abs(z) ** 2) == pytest.approx(1.0, abs=1e-12)
    assert cl.equilibrium_integral(DISK, lambda z: np.ones_like(z.real)) == pytest.approx(1.0)


def test_equilibrium_integral_segment_moment():
    assert cl.equilibrium_integral(SEGMENT, lambda z: z.real**2) == pytest.approx(2.0, abs=1e-10)


def test_equilibrium_integral_reports_error():
    val = cl.equilibrium_integral(DISK, lambda z: np.exp(z.real))
    oracle, _ = quad(lambda t: math.exp(math.cos(t)) / (2 * math.pi), 0, 2 * math.pi)
    assert val == pytest.approx(oracle, abs=1e-10)


def test_equilibrium_integral_flags_nonconvergence():
    # noise never converges, so the quadrature runs to its fixed cap of 2^18 nodes
    rng = np.random.default_rng(0)
    with pytest.warns(UserWarning, match=r"stalled at 262144 nodes \(last"):
        cl.equilibrium_integral(DISK, lambda z: rng.random(z.shape))


# integrands of orders 1, 2 and 3 built from arithmetic alone, and their values
# at tol = 1e-9 on the disk, the segment [-2, 2], the ellipse (2, 1) and the
# ExteriorMap of cap 1 and c_2 = 0.15
_MATRIX_F = {
    1: (lambda z: (z * np.conj(z)).real,
        lambda z: 1 / (2.5 - z.real),
        lambda z: (z + 0.5) ** 2 * (1 + 0.3j * np.conj(z))),
    2: (lambda a, b: ((a - b) * np.conj(a - b)).real,
        lambda a, b: 1 / (20 - ((a - b) * np.conj(a - b)).real),
        lambda a, b: a * a * np.conj(b + 0.5) + 1),
    3: (lambda a, b, c: (a * np.conj(b)).real * (b * np.conj(c)).real + (a * np.conj(a)).real,
        lambda a, b, c: 1 / (40 - ((a - b) * np.conj(b - c)).real),
        lambda a, b, c: (a + 0.5) * (b - 0.25j) * np.conj(c + 1)),
}
_MATRIX_SETS = {"disk": DISK, "segment": SEGMENT, "ellipse": ELLIPSE,
                "exterior_map": cl.ExteriorMap(1.0, (0, 0, 0.15))}
_MATRIX_VALUES = {
    ("disk", 1): (1.0, 0.4364357804719847, 0.24999999999999994 + 0.29999999999999993j),
    ("disk", 2): (2.0, 0.05590169943749474, 1.0),
    ("disk", 3): (1.0, 0.02441152345829333, -2.168404344971009e-18 - 0.12499999999999999j),
    ("segment", 1): (2.0, 0.6666666666666665, 2.25 + 0.5999999999999999j),
    ("segment", 2): (4.0, 0.0718490770673792, 1.9999999999999998),
    ("segment", 3): (2.0, 0.02398089535978672, -3.7947076036992655e-17 - 0.12499999999999999j),
    ("ellipse", 1): (2.5, 0.6666666666666665, 1.75 + 0.7499999999999998j),
    ("ellipse", 2): (5.0, 0.07674635310916433, 1.75),
    ("ellipse", 3): (2.500000000000001, 0.023694796400523136,
                     3.469446951953614e-18 - 0.12499999999999994j),
    ("exterior_map", 1): (1.0225, 0.44156890427720763,
                          0.24999999999999983 + 0.30674999999999997j),
    ("exterior_map", 2): (2.045, 0.05607692704850807, 1.0),
    ("exterior_map", 3): (1.0225, 0.024399693271142095,
                          -2.7321894746634712e-17 - 0.12499999999999994j),
}


@pytest.mark.parametrize("name,n", sorted(_MATRIX_VALUES))
def test_equilibrium_integral_matrix(name, n):
    # n <= 2 values are bitwise those of the n = 1 loop and the former
    # separate n = 2, 3 loop; n = 3 sums its grid in row blocks, not row by row
    K = _MATRIX_SETS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # every integrand converges below the node cap
        values = [cl.equilibrium_integral(K, f, n, tol=1e-9) for f in _MATRIX_F[n]]
    for value, frozen in zip(values, _MATRIX_VALUES[name, n]):
        assert type(value) is type(frozen)
        if n <= 2:
            assert value == frozen
        else:
            assert abs(value - frozen) <= 1e-15 * max(1.0, abs(frozen))


def test_equilibrium_integral_tol_is_keyword_only():
    with pytest.raises(TypeError):
        cl.equilibrium_integral(DISK, lambda z: z, 1, 1e-9)
    with pytest.raises(ValueError, match="n in"):
        cl.equilibrium_integral(DISK, lambda z: z, 4)


@pytest.mark.parametrize("name", sorted(_MATRIX_SETS))
def test_equilibrium_integral_of_scalar_valued_f(name):
    # a constant returned as a scalar counts once at every grid point, and an
    # f that ignores an argument integrates that axis out
    K = _MATRIX_SETS[name]
    constants = {1: lambda a: 1.0, 2: lambda a, b: 1.0, 3: lambda a, b, c: 1.0}
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no stall at the node cap
        for n, f in constants.items():
            assert cl.equilibrium_integral(K, f, n) == 1.0
        one = cl.equilibrium_integral(K, lambda a: np.abs(a) ** 2)
        two = cl.equilibrium_integral(K, lambda a, b: np.abs(a) ** 2, 2)
    assert two == pytest.approx(one, rel=1e-12, abs=0)


def test_equilibrium_integral_log_singular_stalls():
    # the equilibrium average of log|z| on [-2, 2] is log cap = 0; the
    # log-singular integrand stalls the dyadic refinement, which is flagged
    with pytest.warns(UserWarning, match="stalled"):
        val = cl.equilibrium_integral(SEGMENT, lambda z: np.log(np.abs(z)), tol=1e-8)
    assert abs(val) < 1e-4


# ---------------------------------------------------------------------------
# geometry from the Laurent coefficients
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p", [2.5, 4.0, 10.0, 64.0])
def test_area_and_field_integral_closed_forms(p):
    # the per-set closed forms that the shared Laurent formulas replace
    R, a, b = 0.7, 2.0, 1.0
    disk, ellipse = cl.Disk(0.3j, R), cl.Ellipse(1.0, a, b)
    cap = SEGMENT.capacity()
    rel = dict(rel=1e-14, abs=0.0)
    assert disk.area() == pytest.approx(math.pi * R**2, **rel)
    assert disk.field_integral(p) == pytest.approx(math.pi * R**2 * p / (p - 2), **rel)
    assert ellipse.area() == pytest.approx(math.pi * a * b, **rel)
    assert ellipse.field_integral(math.inf) == pytest.approx(math.pi * a * b, **rel)
    assert SEGMENT.area() == 0.0 and SEGMENT.field_integral(math.inf) == 0.0
    assert SEGMENT.field_integral(p) == pytest.approx(
        2 * math.pi * cap**2 * (1.0 / (p - 2) + 1.0 / (p + 2)), **rel)


@pytest.mark.parametrize("K", ALL_SETS + [cl.Disk(1 + 2j, 0.5), cl.Segment(0.3, 1.7),
                                          cl.ExteriorMap(1.2, (0.1j, 0.05, 0.0, 0.04))])
def test_boundary_jet_matches_central_differences(K):
    theta = np.linspace(0.0, 2 * math.pi, 97)
    h = 1e-4
    b, db, d2b = K.boundary_jet(theta)
    plus, minus = K.boundary_point(theta + h), K.boundary_point(theta - h)
    assert np.array_equal(b, K.boundary_point(theta))
    scale = K.capacity()
    assert np.max(np.abs((plus - minus) / (2 * h) - db)) <= 1e-7 * scale
    assert np.max(np.abs((plus - 2 * b + minus) / h**2 - d2b)) <= 1e-5 * scale


def _power_sum_jet(K, theta):
    """The former boundary_jet: one _power_sum call for each order."""
    cap, coeffs = K.laurent()
    w = np.exp(1j * np.asarray(theta, dtype=float))
    u = w.conj()
    lead = cap * w
    return (lead + _power_sum(coeffs, u, 0), 1j * (lead - _power_sum(coeffs, u, 1)),
            -(lead + _power_sum(coeffs, u, 2)))


@pytest.mark.parametrize("K", [DISK, cl.Disk(1 + 2j, 0.5), SEGMENT, ELLIPSE,
                               cl.Ellipse(-1 + 0.5j, 3.0, 0.25), cl.ExteriorMap(1.3, (0.2 - 0.1j,)),
                               EXTMAP, cl.ExteriorMap(1.0, (0.0, 0.0, 0.15)),
                               cl.ExteriorMap(1.2, (0.1j, 0.05, -0.03j, 0.04))],
                         ids=["disk", "disk_off", "segment", "ellipse", "ellipse_off",
                              "map_m0", "map_m1", "map_m2", "map_m3"])
def test_boundary_jet_bit_for_bit_power_sums(K):
    # the shared powers give every bit of the three _power_sum calls, signed
    # zeros included
    theta = np.concatenate([[0.0, math.pi / 2, math.pi], np.linspace(0.0, 2 * math.pi, 257),
                            np.random.default_rng(7).uniform(-10.0, 10.0, 200)])
    for got, want in zip(K.boundary_jet(theta), _power_sum_jet(K, theta)):
        assert got.tobytes() == want.tobytes()


def _closed_form_jet(K, t):
    """The per-set boundary formulas the shared Laurent jet replaces."""
    if isinstance(K, cl.Disk):
        e = K.radius * np.exp(1j * t)
        return K.center + e, 1j * e, -e
    if isinstance(K, cl.Segment):
        mid, half = 0.5 * (K.a + K.b), 0.5 * (K.b - K.a)
        return mid + half * np.cos(t) + 0j, -half * np.sin(t) + 0j, -half * np.cos(t) + 0j
    a, b = K.semi_major, K.semi_minor
    return (K.center + a * np.cos(t) + 1j * b * np.sin(t),
            -a * np.sin(t) + 1j * b * np.cos(t), -a * np.cos(t) - 1j * b * np.sin(t))


@pytest.mark.parametrize("K", [DISK, cl.Disk(1 + 2j, 0.5), SEGMENT, cl.Segment(0.3, 1.7),
                               ELLIPSE, cl.Ellipse(-1 + 0.5j, 3.0, 0.25)])
def test_boundary_jet_matches_closed_forms(K):
    theta = np.linspace(0.0, 2 * math.pi, 257)
    scale = abs(K.laurent()[1][0]) + K.capacity()
    for got, want in zip(K.boundary_jet(theta), _closed_form_jet(K, theta)):
        assert np.max(np.abs(got - want)) <= 8 * np.finfo(float).eps * scale


@pytest.mark.parametrize("R", [1.0, 0.37, 2.5])
def test_centred_disk_jet_is_exact(R):
    theta = np.linspace(0.0, 2 * math.pi, 101)
    e = np.exp(1j * theta)
    b, db, d2b = cl.Disk(0.0, R).boundary_jet(theta)
    assert np.array_equal(b, R * e)
    assert np.array_equal(db, 1j * R * e)
    assert np.array_equal(d2b, -R * e)


@pytest.mark.parametrize("K", [SEGMENT, cl.Segment(0.3, 1.7), cl.Segment(-5.0, -1.25)])
def test_segment_boundary_is_real(K):
    theta = np.linspace(0.0, 2 * math.pi, 1001)
    b, db, d2b = K.boundary_jet(theta)
    assert np.all(K.boundary_point(theta).imag == 0.0)
    assert np.all(b.imag == 0.0) and np.all(db.imag == 0.0) and np.all(d2b.imag == 0.0)


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


class _NaNMap(cl.ExteriorMap):
    """A map whose psi is NaN everywhere, so every residual is NaN."""

    def map(self, w):
        return super().map(w) * math.nan


def test_exterior_map_missed_residual_raises():
    # the companion root (m >= 2) checks its residual at run time, and a NaN
    # residual counts as a miss
    for K in (_ShiftedMap(1.0, (0.0, 0.0, 0.15)), _NaNMap(1.0, (0.0, 0.0, 0.15))):
        assert K.green(0.1 + 0.2j) == 0.0  # in K: no preimage is needed
        with pytest.raises(cl.InversionError, match="2 of 2 points outside K"):
            K.green(np.array([3.0, 0.1, 2.0j]))
    assert issubclass(cl.InversionError, ArithmeticError)


@pytest.mark.parametrize("K", [SEGMENT, cl.Ellipse(0.3 - 0.2j, 2.0, 1.0), EXTMAP,
                               cl.ExteriorMap(1.2, (0.2 + 0.1j, 0.4 * np.exp(1.1j)))],
                         ids=["segment", "ellipse", "map_m1", "map_m1_turned"])
def test_quadratic_root_residual(K):
    # the closed form runs no residual test: here its larger root meets the
    # companion path's run-time bound |psi(w) - z| <= 1e-12 max(1, |z|) at
    # every grid point outside K, and its snapped log is green bit for bit
    x, y = np.linspace(-4.0, 4.0, 161), np.linspace(-3.0, 3.0, 121)
    z = (x[:, None] + 1j * y[None, :]).ravel()
    cap, (c, q) = K.laurent()
    u = z - c
    sq = np.sqrt(u * u - 4.0 * cap * q)
    w1, w2 = (u + sq) / (2 * cap), (u - sq) / (2 * cap)
    w = np.where(np.abs(w1) >= np.abs(w2), w1, w2)
    out = np.abs(w) > 1.0
    assert 0 < out.sum() < z.size
    assert np.all(np.abs(K.map(w[out]) - z[out]) <= 1e-12 * np.maximum(1.0, np.abs(z[out])))
    assert K.green(z).tobytes() == _snap(np.log(np.maximum(np.abs(w), 1.0))).tobytes()


def test_exterior_map_field_integral_vs_cubature():
    K = cl.ExteriorMap(1.2, (0.0, 0.05, 0.0, 0.04))
    p = cl.EnsembleParams(1, 5.0, 2.0, 0.1)
    z = cl.partition_cubature(K, p)
    assert z == pytest.approx(K.field_integral(10.0), rel=1e-8)
