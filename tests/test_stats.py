"""Linear statistics, symmetrizer, rate function, intensity histogram."""

import math
import warnings

import numpy as np
import pytest

import coulomblab as cl
from coulomblab import sampler
from coulomblab.stats import _batch_report, tensor_integral

DISK = cl.Disk(0.0, 1.0)


@pytest.fixture(scope="module")
def chain8():
    p = cl.EnsembleParams(8, 16.0, 2.0, 0.1)
    return cl.run_chain(p, DISK, cl.ChainConfig(steps=60_000, burn_in=10_000, thin=8),
                        seed=55)


# ---------------------------------------------------------------------------
# symmetrizer
# ---------------------------------------------------------------------------

def test_symmetrize_order_one_is_mean():
    pts = [1.0, 2.0, 3.0 + 1j]
    f = lambda z: np.abs(z) ** 2
    assert cl.symmetrize(f, pts, 1) == pytest.approx(float(np.mean(f(np.array(pts)))))


def test_symmetrize_constant_two():
    pts = np.arange(6) + 0j
    one = lambda a, b: np.ones(np.broadcast(a, b).shape)
    assert cl.symmetrize(one, pts, 2) == pytest.approx(1.0)
    # a constant returned as a scalar counts once at every tuple
    for n, f in ((1, lambda a: 2.0), (2, lambda a, b: 2.0), (3, lambda a, b, c_: 2.0)):
        assert cl.symmetrize(f, pts, n) == 2.0
        assert tensor_integral(f, pts, n) == 2.0


def test_symmetrize_brute_force_oracle():
    rng = np.random.default_rng(1)
    pts = rng.normal(size=6) + 1j * rng.normal(size=6)
    f2 = lambda a, b: (a * np.conj(b)).real + np.abs(a - b)
    brute = np.mean([f2(pts[i], pts[j]) for i in range(6) for j in range(6) if i != j])
    assert cl.symmetrize(f2, pts, 2) == pytest.approx(float(brute), abs=1e-12)
    f3 = lambda a, b, c_: np.cos(a.real) * np.sin(b.imag) * np.cos(c_.real + b.real)
    brute3 = np.mean([f3(pts[i], pts[j], pts[k])
                      for i in range(6) for j in range(6) for k in range(6)
                      if len({i, j, k}) == 3])
    assert cl.symmetrize(f3, pts, 3) == pytest.approx(float(brute3), abs=1e-12)


def test_symmetrize_permutation_invariant():
    rng = np.random.default_rng(2)
    pts = rng.normal(size=9) + 1j * rng.normal(size=9)
    f = lambda a, b: np.abs(a - b)
    v1 = cl.symmetrize(f, pts, 2)
    v2 = cl.symmetrize(f, pts[rng.permutation(9)], 2)
    assert v1 == pytest.approx(v2, abs=1e-13)


def test_symmetrize_deviation_identity_n2():
    # the n=2 deviation equals (tensor - diagonal mean)/(N-1) exactly
    rng = np.random.default_rng(3)
    for n in (4, 8, 16):
        pts = rng.normal(size=n) + 1j * rng.normal(size=n)
        f = lambda a, b: np.cos((a * np.conj(b)).real)
        sym = cl.symmetrize(f, pts, 2)
        tens = tensor_integral(f, pts, 2)
        diag = np.mean(f(pts, pts))
        assert sym - tens == pytest.approx((tens - diag) / (n - 1), abs=1e-13)
        assert abs(sym - tens) <= 2.0 / (n - 1) + 1e-13


def test_symmetrize_validation():
    pts = [1.0, 2.0]
    with pytest.raises(ValueError):
        cl.symmetrize(lambda a, b, c_: a, pts, 3)  # n > N
    with pytest.raises(ValueError):
        cl.symmetrize(lambda a: a, pts, 4)


# ---------------------------------------------------------------------------
# equilibrium targets
# ---------------------------------------------------------------------------

def test_equilibrium_tensor_targets():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # every target converges below the node cap
        assert cl.equilibrium_integral(DISK, lambda z: np.abs(z) ** 2, 1, tol=1e-9) == \
            pytest.approx(1.0)
        prod = cl.equilibrium_integral(DISK, lambda a, b: (a * np.conj(b)).real, 2, tol=1e-9)
        assert abs(prod) < 1e-12
        f3 = lambda a, b, c_: np.abs(a) * np.abs(b) * np.abs(c_)
        assert cl.equilibrium_integral(DISK, f3, 3, tol=1e-9) == pytest.approx(1.0, abs=1e-10)


def test_equilibrium_tensor_warns_at_node_cap():
    # the kink of |a - b| on the diagonal of the segment's arcsine measure
    # keeps the n = 2 quadrature above its tolerance up to 2048 nodes an axis
    with pytest.warns(UserWarning, match="stalled at 2048 nodes"):
        value = cl.equilibrium_integral(cl.Segment(-2.0, 2.0), lambda a, b: np.abs(a - b), 2,
                                        tol=1e-9)
    # E|a - b| = 16/pi^2 for two independent arcsine points on [-2, 2]
    assert value == pytest.approx(16 / math.pi ** 2, abs=1e-6)


# ---------------------------------------------------------------------------
# linear statistics and moments
# ---------------------------------------------------------------------------

def test_linear_statistic_constant_zero_variance(chain8):
    rep = cl.linear_statistic(chain8, lambda z: np.full(np.shape(z), 2.5), 1)
    assert rep.estimate == pytest.approx(2.5)
    assert rep.stderr == 0.0
    assert rep.zscore == 0.0


def test_linear_statistic_unbiased_symmetry(chain8):
    rep = cl.linear_statistic(chain8, lambda z: z, 1)
    assert abs(rep.target) < 1e-12
    assert abs(rep.zscore) <= 4.0


def test_linear_statistic_requires_length():
    p = cl.EnsembleParams(4, 8.0, 2.0, 0.1)
    tiny = cl.run_chain(p, DISK, cl.ChainConfig(steps=500, burn_in=100, thin=10), seed=1)
    with pytest.raises(ValueError):
        cl.linear_statistic(tiny, lambda z: z, 1)


def _symmetrize_one(f, pts, n):
    """symmetrize on one state, by the per-state formula."""
    N = pts.size
    if n == 1:
        return np.mean(f(pts))
    if n == 2:
        full = np.sum(f(pts[:, None], pts[None, :]))
        return (full - np.sum(f(pts, pts))) / (N * (N - 1))
    full = np.sum(f(pts[:, None, None], pts[None, :, None], pts[None, None, :]))
    s12 = np.sum(f(pts[:, None], pts[:, None], pts[None, :]))
    s13 = np.sum(f(pts[:, None], pts[None, :], pts[:, None]))
    s23 = np.sum(f(pts[None, :], pts[:, None], pts[:, None]))
    s123 = np.sum(f(pts, pts, pts))
    return (full - s12 - s13 - s23 + 2.0 * s123) / (N * (N - 1) * (N - 2))


def _assert_reports_match(rep, oracle):
    for key in ("estimate", "stderr", "ess", "target", "zscore"):
        assert getattr(rep, key) == pytest.approx(getattr(oracle, key), rel=1e-12, abs=1e-300)


STATISTICS = [(lambda z: np.abs(z) ** 2, 1), (lambda z: z, 1),
              (lambda a, b: (a * np.conj(b)).real, 2),
              (lambda a, b, c_: np.abs(a - b) * (c_ * np.conj(a)).real, 3)]


@pytest.mark.parametrize("chunk_elements", [sampler._CHUNK_ELEMENTS, 100])
def test_linear_statistic_matches_per_state_loop(chain8, monkeypatch, chunk_elements):
    monkeypatch.setattr(sampler, "_CHUNK_ELEMENTS", chunk_elements)
    for f, n in STATISTICS:
        rep = cl.linear_statistic(chain8, f, n)
        series = np.asarray([_symmetrize_one(f, s, n) for s in chain8.states])
        _assert_reports_match(rep, _batch_report(series, rep.target, n, ""))
    f = STATISTICS[0][0]
    rep = cl.moment_statistic(chain8, f, 2, 1)
    u = np.asarray([np.mean(f(s)) for s in chain8.states])
    _assert_reports_match(rep, _batch_report(u**2 * np.conj(u), rep.target, 3, ""))


@pytest.mark.parametrize("k,m", [(-1, 1), (1, -1), (0, 0)])
def test_moment_statistic_rejects_exponents(chain8, k, m):
    # a negative exponent reported a moment of 1/u, and k = m = 0 one of 1
    with pytest.raises(ValueError, match="k, m >= 0 and k [+] m >= 1"):
        cl.moment_statistic(chain8, lambda z: np.abs(z) ** 2, k, m)


def test_moment_statistic_exact_cases(chain8):
    rep = cl.moment_statistic(chain8, lambda z: np.ones(np.shape(z)), 2, 1)
    assert rep.estimate == pytest.approx(1.0)
    assert rep.stderr == 0.0
    rep_z = cl.moment_statistic(chain8, lambda z: z, 2, 0)
    assert abs(rep_z.target) < 1e-12
    assert abs(rep_z.zscore) <= 4.0


# ---------------------------------------------------------------------------
# rate function
# ---------------------------------------------------------------------------

def test_positivity_scan_closed_forms():
    circles = [("r=0.5", cl.CircleMeasure(0.0, 0.5)), ("r=2", cl.CircleMeasure(0.0, 2.0))]
    inner, outer = cl.positivity_scan(DISK, circles, (0.5,))
    assert inner.rate == pytest.approx(math.log(2), abs=1e-9)
    assert outer.rate == pytest.approx((2 / 0.5 - 1) * math.log(2), abs=1e-9)
    assert inner.robin == 0.0


def test_positivity_scan_equilibrium_argmin():
    eq = cl.equilibrium_discretization(DISK, 512)
    family = [(f"r={r}", cl.CircleMeasure(0.0, r)) for r in (0.25, 0.5, 2.0, 4.0)]
    *reports, eq_rep = cl.positivity_scan(DISK, family + [("equilibrium", eq)], (0.5,))
    assert abs(eq_rep.rate) <= 0.02  # discrete self-energy bias only
    assert all(abs(eq_rep.rate) < r.rate for r in reports)


def test_positivity_scan_table():
    family = [(f"r={r}", cl.CircleMeasure(0.0, r)) for r in (0.25, 0.5, 2.0, 4.0)]
    rows = cl.positivity_scan(DISK, family, (0.25, 0.5, 1.0))
    assert len(rows) == 12
    assert all(r.rate > 0 for r in rows)
    inf_rows = cl.positivity_scan(DISK, [("r=2", cl.CircleMeasure(0.0, 2.0))], (0.0,))
    assert inf_rows[0].rate == math.inf


# ---------------------------------------------------------------------------
# intensity histogram
# ---------------------------------------------------------------------------

def test_intensity_histogram_mass_and_symmetry(chain8):
    hist = cl.intensity_histogram(chain8, bins=48)
    assert hist.mass() == pytest.approx(1.0, abs=1e-9)
    pts = np.concatenate(chain8.states)
    angles = np.angle(pts)
    counts, _ = np.histogram(angles, bins=12, range=(-math.pi, math.pi))
    expected = pts.size / 12
    # angular flatness: all angular bins within a few standard errors
    assert np.all(np.abs(counts - expected) <= 6 * math.sqrt(expected))


def test_intensity_histogram_concentration(chain8):
    hist = cl.intensity_histogram(chain8, bins=64)
    xc, yc = hist.centers()
    r = np.abs(xc[:, None] + 1j * yc[None, :])
    ann = float(hist.density[(r >= 0.7) & (r <= 1.3)].sum() * hist.cell_area)
    assert ann >= 0.8  # N = 8 is small; the acceptance run checks 0.9 at N = 32


def test_intensity_histogram_csv(tmp_path, chain8):
    hist = cl.intensity_histogram(chain8, bins=16)
    path = tmp_path / "hist.csv"
    hist.to_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == "bin_center_re,bin_center_im,density"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape == (256, 3)
