"""Release acceptance criteria, each at its stated tolerance.

Criteria run once per session through a shared lab; every criterion prints
its pass/fail line (visible with `pytest -s` or on failure).  Clauses whose
stated tolerances are provably unattainable are asserted under
xfail(strict=True) with the measured-margin analysis in the reason string
and in docs/VERIFICATION.md; everything else must pass outright.
"""

from fractions import Fraction

import numpy as np
import pytest

from coulomblab import acceptance, partition, stats


@pytest.fixture(scope="session")
def lab():
    return acceptance.AcceptanceLab()


_RESULTS = {}


def _criterion(number, lab):
    if number not in _RESULTS:
        result = acceptance.run_criterion(number, lab)
        print()
        print(result.summary_line())
        for c in result.clauses:
            print(c.line())
        for d in result.diagnostics:
            print(f"  note: {d}")
        _RESULTS[number] = result
    return _RESULTS[number]


def _clause(result, name):
    for c in result.clauses:
        if c.name == name:
            return c
    raise AssertionError(f"clause {name!r} missing from criterion {result.number}")


def _assert_attainable_clauses(result):
    failures = [c for c in result.clauses if not c.ok and not c.expected_to_fail]
    assert not failures, "unexpected clause failures:\n" + "\n".join(
        c.line() for c in failures)


# -- criterion 1: exact beta=2 disk partition vs cubature -------------------

def test_criterion_1(lab):
    result = _criterion(1, lab)
    _assert_attainable_clauses(result)
    assert result.passed


# -- criterion 2: asymptote residuals ----------------------------------------

def test_criterion_2(lab):
    result = _criterion(2, lab)
    _assert_attainable_clauses(result)
    assert result.passed


# -- criterion 3: upper-bound trend ------------------------------------------

def test_criterion_3_trend_and_sandwich(lab):
    result = _criterion(3, lab)
    _assert_attainable_clauses(result)


@pytest.mark.xfail(strict=True, reason=(
    "stated tolerance is below the provable optimum: the extremal upper "
    "bound divided by N^2 equals log N/N + log(pi(1+1/N))/N = 0.0831 at "
    "N = 64 when the maximizer is exact (solver verified at the "
    "roots-of-unity optimum to 2e-13), so <= 0.05 cannot be met"))
def test_criterion_3_upper_bound_at_64(lab):
    assert _clause(_criterion(3, lab), "upper/N^2 within 0.05 at N=64").ok


# -- criterion 4: capacity estimates and containment --------------------------

def test_criterion_4_containment(lab):
    result = _criterion(4, lab)
    _assert_attainable_clauses(result)
    # per-start telemetry of the three N = 60 solves, eight starts each
    runs = [d for d in result.diagnostics if " starts (" in d]
    assert [d.split()[0] for d in runs] == ["disk", "segment", "ellipse"]
    assert all(d.count("gradient_tol") == 8 for d in runs)


@pytest.mark.xfail(strict=True, reason=(
    "the transfinite-diameter estimate at the exact optimizer is "
    "N^(1/(N-1)) = 1.0719 at N = 60 (7.2% above the disk capacity), so a "
    "2% tolerance cannot be met by any maximizer"))
def test_criterion_4_capacity_disk(lab):
    assert _clause(_criterion(4, lab), "capacity estimate disk").ok


@pytest.mark.xfail(strict=True, reason=(
    "the exact interval optimizer (Gauss-Lobatto points) gives estimate "
    "1.08484 (8.5% above capacity 1) at N = 60; 5% cannot be met"))
def test_criterion_4_capacity_segment(lab):
    assert _clause(_criterion(4, lab), "capacity estimate segment").ok


@pytest.mark.xfail(strict=True, reason=(
    "the converged optimizer value 1.60782 sits 7.2% above the ellipse "
    "capacity 1.5 at N = 60, matching the universal N^(1/(N-1)) excess; "
    "5% cannot be met"))
def test_criterion_4_capacity_ellipse(lab):
    assert _clause(_criterion(4, lab), "capacity estimate ellipse").ok


# -- criterion 5: rate function ----------------------------------------------

def test_criterion_5(lab):
    result = _criterion(5, lab)
    _assert_attainable_clauses(result)
    assert result.passed


# -- criterion 6: linear statistics ------------------------------------------

def test_criterion_6_unbiased_statistic_and_finite_n_check(lab):
    result = _criterion(6, lab)
    _assert_attainable_clauses(result)
    # the exact finite-N mean of |z|^2, from the mode-mass ratios
    assert " - 0.887775| = " in _clause(result, "chain matches exact finite-N values").detail


@pytest.mark.xfail(strict=True, reason=(
    "the exact finite-N expectation of the mean of |z|^2 at N=16, s=32, "
    "beta=2 is sum_n (n+1)(s-n-1)/((n+2)(s-n-2))/N = 0.887775 "
    "(orthonormal-monomial mode occupation), about 140 Monte Carlo "
    "standard errors below the weak-star target 1 at the mandated chain "
    "length; the chain itself matches the exact value within 4 standard "
    "errors (asserted separately)"))
def test_criterion_6_abs2_zscore(lab):
    assert _clause(_criterion(6, lab), "f=|z|^2 z-score").ok


@pytest.mark.xfail(strict=True, reason=(
    "the exact finite-N expectation of the two-point product statistic is "
    "-sum_{n<N-1} h_{n+1}/h_n/(N(N-1)) = -0.0550, with h_n the n-th "
    "monomial norm, hundreds of standard errors from the weak-star target 0"))
def test_criterion_6_pair_zscore(lab):
    assert _clause(_criterion(6, lab), "n=2 product z-score").ok


@pytest.mark.xfail(strict=True, reason=(
    "the squared linear statistic inherits the same finite-N bias "
    "(exact finite-N value 0.789538 vs target 1)"))
def test_criterion_6_moment_zscore(lab):
    assert _clause(_criterion(6, lab), "moment k=m=1 z-score").ok


def test_criterion_6_moment_matches_exact_finite_n(lab):
    # at beta = 2 on the disk the squared moduli of the N modes are
    # independent (Kostlan), with E|z_k|^(2m) = M(k + m)/M(k) for
    # M(a) = 1/(2a + 2) + 1/(2s - 2a - 2); the statistic is the mean of
    # (sum |z|^2 / N)^2 = (sum Var + (sum mean)^2) / N^2
    N, s = 16, 32
    M = lambda a: Fraction(1, 2 * a + 2) + Fraction(1, 2 * s - 2 * a - 2)
    mean = [M(k + 1) / M(k) for k in range(N)]
    var = [M(k + 2) / M(k) - mk**2 for k, mk in enumerate(mean)]
    exact = float((sum(var) + sum(mean) ** 2) / N**2)
    assert round(exact, 6) == 0.789538
    rep = stats.moment_statistic(lab.chain_16, lambda z: np.abs(z) ** 2, 1, 1)
    assert abs(rep.estimate.real - exact) <= 4 * rep.stderr


def test_criterion_6_mode_ratios_match_exact_fractions():
    # criterion 6's exact values take E|z_k|^2 = h_{k+1}/h_k from the mode
    # masses h_k = disk_mode_mass(k, s) = 2 pi M(k), M as above
    N, s = 16, 32
    M = lambda a: Fraction(1, 2 * a + 2) + Fraction(1, 2 * s - 2 * a - 2)
    k = np.arange(N)
    rho = partition.disk_mode_mass(k + 1, float(s)) / partition.disk_mode_mass(k, float(s))
    exact = [M(a + 1) / M(a) for a in range(N)]
    for r, e in zip(rho.tolist(), exact):
        assert abs(Fraction(r) - e) <= Fraction(1, 10**15) * e
    # the printed values of the documented failures and the finite-N clause
    assert round(float(sum(exact) / N), 6) == 0.887775
    assert round(float(-sum(exact[:-1]) / (N * (N - 1))), 4) == -0.0550


# -- criteria 7-11 -------------------------------------------------------------

def test_criterion_7(lab):
    result = _criterion(7, lab)
    _assert_attainable_clauses(result)
    assert result.passed


def test_criterion_8(lab):
    result = _criterion(8, lab)
    _assert_attainable_clauses(result)
    assert result.passed


def test_criterion_9(lab):
    result = _criterion(9, lab)
    _assert_attainable_clauses(result)
    assert result.passed
    # one exact BL solve per N, all against the 2048 sunflower nodes
    notes = [d for d in result.diagnostics if d.startswith("bl N=")]
    assert [d.split(":")[0] for d in notes] == ["bl N=64", "bl N=256", "bl N=1024"]
    assert all("assignment 2048x2048, optimal, " in d for d in notes)


def test_criterion_10(lab):
    result = _criterion(10, lab)
    _assert_attainable_clauses(result)
    assert result.passed


def test_criterion_11(lab):
    result = _criterion(11, lab)
    _assert_attainable_clauses(result)
    assert result.passed


def test_passed_forgives_documented_failures_only():
    def result(*clauses):
        return acceptance.CriterionResult(0, "hand-built", list(clauses))

    held = acceptance.Clause("held", True, "")
    documented = acceptance.Clause("documented", False, "", expected_to_fail=True)
    undocumented = acceptance.Clause("undocumented", False, "")
    assert result(held, documented).passed
    assert not result(held, documented, undocumented).passed
    # each clause keeps its own flag
    assert [c["ok"] for c in result(held, documented).to_dict()["clauses"]] == [True, False]


def test_all_clauses_reported(lab):
    # every criterion reports each clause exactly once in its JSON form
    for n in sorted(_RESULTS):
        d = _RESULTS[n].to_dict()
        names = [c["name"] for c in d["clauses"]]
        assert len(names) == len(set(names))
        assert d["number"] == n


def test_intensity_concentrates_near_boundary(lab):
    # single-particle intensity of the N = 32 chain puts at least 90% of
    # its mass in the annulus 0.8 <= |z| <= 1.2
    import numpy as np
    from coulomblab import stats

    hist = stats.intensity_histogram(lab.chain_32, bins=96)
    xc, yc = hist.centers()
    r = np.abs(xc[:, None] + 1j * yc[None, :])
    ann = float(hist.density[(r >= 0.8) & (r <= 1.2)].sum() * hist.cell_area)
    assert hist.mass() == pytest.approx(1.0, abs=1e-9)
    assert ann >= 0.9


def test_radial_law_matches_quadrature():
    # criterion 7's N = 1 CDF, the k = 0 mode mass within r over its norm,
    # against adaptive quadrature of the density r min(1, r^-beta s),
    # normalized over [0, inf); the weight exp(-beta s green) is the mode
    # masses' exp(-2 s' green) at s' = beta s / 2
    import math

    from scipy.integrate import quad

    for s, beta in ((4.0, 2.0), (3.5, 1.0), (8.0, 2.0)):
        p = beta * s

        def density(r):
            return r * min(1.0, r ** -p)

        total = quad(density, 0, 1)[0] + quad(density, 1, math.inf)[0]
        norm = partition.disk_mode_mass(0, p / 2)
        for r in (0.0, 0.3, 1.0, 1.2, 2.5, 6.0, 40.0):
            mass = quad(density, 0, min(r, 1.0))[0] + (quad(density, 1, r)[0] if r > 1 else 0.0)
            assert abs(partition.disk_mode_mass(0, p / 2, r) / norm - mass / total) <= 1e-12
