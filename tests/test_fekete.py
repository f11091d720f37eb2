"""Fekete configurations against brute-force and closed-form oracles."""

import math

import numpy as np
import pytest
from scipy.linalg.lapack import dpotrf, dpotrs
from scipy.special import roots_jacobi

import coulomblab as cl
from coulomblab.fekete import (_ascend, _candidate, _gradient, _hessian, _newton_step,
                               _stratified_angles)
from coulomblab.potential import _log_distances, _pair_distances, _pair_log_sum

DISK = cl.Disk(0.0, 1.0)
SEGMENT = cl.Segment(-2.0, 2.0)


# ---------------------------------------------------------------------------
# objective
# ---------------------------------------------------------------------------

def test_log_delta_examples():
    assert cl.log_delta(DISK, [1.0, -1.0]) == pytest.approx(math.log(2))
    # pair at distance 4 with green penalty (N-1)(log 2 + log 2)
    assert cl.log_delta(DISK, [2.0, -2.0]) == pytest.approx(0.0, abs=1e-12)
    assert cl.log_delta(DISK, [1.0, 1.0]) == -math.inf


@pytest.mark.parametrize("n", range(2, 13))
def test_log_delta_roots_of_unity(n):
    # oracle: direct product of pair distances is n^(n/2)
    roots = np.exp(2j * math.pi * np.arange(n) / n)
    prod = np.prod([abs(roots[i] - roots[j]) for i in range(n) for j in range(i + 1, n)])
    assert math.log(prod) == pytest.approx((n / 2) * math.log(n), abs=1e-9)
    assert cl.log_delta(DISK, roots) == pytest.approx((n / 2) * math.log(n), abs=1e-10)


# ---------------------------------------------------------------------------
# starts
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 7, 60])
def test_stratified_angles_one_per_arc(n):
    # exactly one start angle in each arc [2 pi k / N, 2 pi (k + 1) / N)
    rng = np.random.default_rng(n)
    for _ in range(20):
        theta = _stratified_angles(rng, n)
        arcs = np.floor(theta / (2.0 * math.pi / n)).astype(int)
        assert theta.shape == (n,)
        assert np.array_equal(np.sort(arcs), np.arange(n))


def test_verify_solves_converge_from_stratified_starts():
    # criterion 4's three solves, and the four disk solves criterion 3 made
    # before it took the closed form of max_log_delta, kept here as that
    # closed form's oracle on every disk job: every start reaches the
    # gradient tolerance at the same optimum, in at most 470 Newton
    # iterations in all (420 measured, the same per solve with the
    # eigen-step of _eigen_floor_step as with the shifted Cholesky step)
    jobs = [(DISK, n, 40 + n) for n in (8, 16, 32, 64)]
    jobs += [(DISK, 60, 81), (SEGMENT, 60, 82), (cl.Ellipse(0.0, 2.0, 1.0), 60, 83)]
    sums = []
    for K, n, seed in jobs:
        res = cl.solve(K, n, seed=seed)
        assert {rec["stop_reason"] for rec in res.starts} == {"gradient_tol"}
        values = np.array([rec["log_delta"] for rec in res.starts])
        assert np.ptp(values) <= 1e-12 * abs(res.log_delta)
        if K is DISK:
            exact = cl.max_log_delta(K, n)
            assert abs(res.log_delta - exact) <= 1e-12 * abs(exact)
        sums.append(sum(rec["iterations"] for rec in res.starts))
    assert sums == [44, 51, 57, 61, 60, 89, 58]
    assert sum(sums) <= 470


# ---------------------------------------------------------------------------
# Newton step
# ---------------------------------------------------------------------------

def _eigen_floor_step(hess, grad):
    """The former step: each eigenvalue of the negated Hessian replaced by
    its modulus, floored at 1e-8 of the largest."""
    lam, vecs = np.linalg.eigh(-hess)
    lam = np.abs(lam)
    lam = np.maximum(lam, 1e-8 * lam.max())
    return vecs @ ((vecs.T @ grad) / lam)


def _angle_derivatives(K, theta):
    """Boundary points b(theta), and the exact gradient and N x N Hessian in
    the angles of sum_{i<j} log|b(theta_i) - b(theta_j)|, from the ascent's
    own candidate, gradient and Hessian kernels.

    With d_ij = b_i - b_j, log|d_ij| = Re log d_ij, so the gradient is
    Re(b'_i sum_j 1/d_ij), the off-diagonal Hessian Re(b'_i b'_j / d_ij^2)
    and the diagonal Re(b''_i sum_j 1/d_ij - b'_i^2 sum_j 1/d_ij^2).
    """
    pts, vel, acc, diff, _ = _candidate(K, theta)
    grad, inv, inv_sum = _gradient(vel, diff)
    return pts, grad, _hessian(vel, acc, inv, inv_sum)


def _first_start(K, n, seed):
    child = np.random.SeedSequence(seed).spawn(8)[0]
    return _stratified_angles(np.random.default_rng(child), n)


def _shift(hess, shifts):
    return 1e-8 * np.max(np.sum(np.abs(hess), axis=1)) * 10.0**shifts


def _segment_iterates(starts=2, steps=11):
    """(hess, grad) along full Newton steps from the first starts of the
    segment's N = 60 solve at seed 82."""
    children = np.random.SeedSequence(82).spawn(8)[:starts]
    for child in children:
        theta = _stratified_angles(np.random.default_rng(child), 60)
        for _ in range(steps):
            _, grad, hess = _angle_derivatives(SEGMENT, theta)
            yield hess, grad
            theta = theta + _newton_step(hess, grad)[0]


def _step_cases():
    yield from _segment_iterates()
    for K, seed in ((cl.Ellipse(0.0, 2.0, 1.0), 83), (cl.ExteriorMap(1.0, (0.0, 0.0, 0.15)), 0),
                    (DISK, 81)):
        _, grad, hess = _angle_derivatives(K, _first_start(K, 60, seed))
        yield hess, grad


def test_newton_step_solves_shifted_system():
    # (A + tau I) p = g with A = -H and tau = 1e-8 ||A||_inf 10^shifts
    for hess, grad in _step_cases():
        step, shifts = _newton_step(hess, grad)
        shifted = -hess + _shift(hess, shifts) * np.eye(grad.size)
        assert np.linalg.norm(shifted @ step - grad) <= 1e-10 * np.linalg.norm(grad)


@pytest.mark.parametrize("K, seed", [(cl.Ellipse(0.0, 2.0, 1.0), 83),
                                     (cl.ExteriorMap(1.0, (0.0, 0.0, 0.15)), 0)])
def test_newton_step_ascends_on_indefinite_hessian(K, seed):
    # the Hessian at the first stratified start is indefinite; three tenfold
    # shift increases make A + tau I positive definite
    _, grad, hess = _angle_derivatives(K, _first_start(K, 60, seed))
    assert np.linalg.eigvalsh(-hess)[0] < 0.0
    step, shifts = _newton_step(hess, grad)
    assert shifts == 3
    assert grad @ step > 0.0
    assert np.all(np.linalg.eigvalsh(-hess + _shift(hess, shifts) * np.eye(60)) > 0.0)


def test_newton_step_matches_eigen_step_when_well_conditioned():
    # oracle: _eigen_floor_step, which is the exact Newton step where every
    # eigenvalue of A is above its floor.  The shift perturbs each eigen-
    # component by tau / (lambda + tau), so |p - q| <= (tau / lambda_min) |q|;
    # where lambda_min >= 1e-2 lambda_max that is about 1e-6 (2e-7 measured)
    tight = 0
    for hess, grad in _segment_iterates():
        lam = np.linalg.eigvalsh(-hess)
        if lam[0] < 1e-4 * lam[-1]:
            continue
        step, shifts = _newton_step(hess, grad)
        oracle = _eigen_floor_step(hess, grad)
        rel = np.linalg.norm(step - oracle) / np.linalg.norm(oracle)
        assert shifts == 0
        assert rel <= _shift(hess, 0) / lam[0] + 1e-12
        if lam[0] >= 1e-2 * lam[-1]:
            assert rel <= 1e-6
            tight += 1
    assert tight >= 10


def test_newton_step_rejects_nan_hessian(monkeypatch):
    # LAPACK passes a NaN pivot without error; the step still stops after
    # ten factorizations and raises what eigh raised
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    real = dpotrf
    monkeypatch.setattr("scipy.linalg.lapack.dpotrf", counting)
    _, grad, hess = _angle_derivatives(SEGMENT, _first_start(SEGMENT, 12, 82))
    for i, j in ((3, 3), (2, 5)):
        bad = hess.copy()
        bad[i, j] = bad[j, i] = np.nan
        calls.clear()
        with pytest.raises(np.linalg.LinAlgError):
            _newton_step(bad, grad)
        assert 1 <= len(calls) <= 10


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_solve_disk_pair_brute_force():
    # oracle: grid maximization over two boundary angles
    grid = np.linspace(0, 2 * math.pi, 721)
    t1, t2 = np.meshgrid(grid, grid)
    vals = np.log(np.maximum(np.abs(np.exp(1j * t1) - np.exp(1j * t2)), 1e-300))
    assert vals.max() == pytest.approx(math.log(2), abs=1e-5)
    res = cl.solve(DISK, 2, seed=1)
    assert res.log_delta == pytest.approx(math.log(2), abs=1e-9)
    assert res.converged


def test_solve_disk_matches_roots_of_unity():
    # oracle: the roots of unity are the disk's Fekete points, (N/2) log N
    for n, seed in ((5, 2), (9, 2), (16, 2), (60, 81), (64, 104)):
        res = cl.solve(DISK, n, seed=seed)
        assert abs(res.log_delta - (n / 2) * math.log(n)) <= 1e-13
        assert res.max_green_violation <= 1e-8


def test_max_log_delta_closed_form_on_disk_solve_elsewhere():
    # oracle on a shifted, scaled disk: the solver and the product over the
    # scaled roots of unity, (N/2) log N + N(N-1)/2 log R
    K, n = cl.Disk(0.3 - 0.2j, 0.5), 12
    exact = cl.max_log_delta(K, n)
    assert abs(cl.solve(K, n, seed=2).log_delta - exact) <= 1e-12 * abs(exact)
    roots = K.center + K.radius * np.exp(2j * math.pi * np.arange(n) / n)
    assert abs(cl.log_delta(K, roots) - exact) <= 1e-12 * abs(exact)
    # every other set takes the solve's value, bit for bit
    assert cl.max_log_delta(SEGMENT, 8, seed=3) == cl.solve(SEGMENT, 8, seed=3).log_delta
    with pytest.raises(ValueError, match="N >= 2"):
        cl.max_log_delta(K, 1)


def test_solve_segment_three_points():
    # oracle: 1-D brute force over interior point position with ends fixed
    xs = np.linspace(-1.999, 1.999, 20001)
    vals = np.log(xs + 2) + np.log(2 - xs) + math.log(4)
    assert xs[np.argmax(vals)] == pytest.approx(0.0, abs=1e-3)
    res = cl.solve(SEGMENT, 3, seed=3)
    assert np.allclose(np.sort(res.configuration.real), [-2.0, 0.0, 2.0], atol=1e-6)
    assert np.allclose(res.configuration.imag, 0.0, atol=1e-12)


def test_solve_containment():
    for K in (DISK, SEGMENT, cl.Ellipse(0.0, 2.0, 1.0)):
        res = cl.solve(K, 17, seed=4)
        assert res.max_green_violation <= 1e-8
        assert res.converged


def test_solve_segment_gauss_lobatto():
    # oracle: the Fekete points of [-1, 1] are the Gauss-Lobatto nodes, +-1
    # and the roots of P'_{N-1}, i.e. the Gauss-Jacobi(1, 1) nodes
    res = cl.solve(SEGMENT, 60, seed=82)
    inner, _ = roots_jacobi(58, 1.0, 1.0)
    nodes = 2.0 * np.concatenate([[-1.0], inner, [1.0]])
    assert np.max(np.abs(np.sort(res.configuration.real) - nodes)) <= 1e-10
    assert res.log_delta == pytest.approx(144.1321222047735, abs=1e-12)
    assert cl.capacity_estimate(res) == pytest.approx(1.084838, abs=1e-6)


@pytest.mark.parametrize("K, theta", [
    (cl.Ellipse(0.0, 2.0, 1.0), np.array([0.1, 0.9, 1.7, 2.6, 3.3, 4.4, 5.6])),
    (cl.ExteriorMap(1.2, (0.0, 0.05, 0.0, 0.04)), np.array([0.1, 0.9, 1.7, 2.6, 3.3, 4.4, 5.6])),
    (SEGMENT, np.array([0.0, 0.5, 1.1, 1.6, 2.1, 2.6, math.pi])),
])
def test_angle_derivatives_finite_differences(K, theta):
    # oracle: central differences of the pair-log sum along the boundary
    def f(t):
        return _pair_log_sum(K.boundary_point(t))

    _, grad, hess = _angle_derivatives(K, theta)
    n, h = theta.size, 1e-4
    eye = np.eye(n) * h
    fd_grad = np.array([(f(theta + eye[i]) - f(theta - eye[i])) / (2 * h) for i in range(n)])
    fd_hess = np.array([[(f(theta + eye[i] + eye[j]) - f(theta + eye[i] - eye[j])
                          - f(theta - eye[i] + eye[j]) + f(theta - eye[i] - eye[j])) / (4 * h * h)
                         for j in range(n)] for i in range(n)])
    assert np.max(np.abs(grad - fd_grad)) <= 1e-6 * np.max(np.abs(grad))
    assert np.max(np.abs(hess - fd_hess)) <= 1e-6 * np.max(np.abs(hess))


def test_exterior_map_converges():
    # the largest-log_delta start of this three-fold symmetric set used to stop
    # short on a failed line search; the Newton ascent reaches the tolerance
    res = cl.solve(cl.ExteriorMap(1.0, (0.0, 0.0, 0.15)), 60, seed=0)
    assert res.converged
    assert res.log_delta == pytest.approx(122.86522208685562, rel=1e-12)


def test_stop_reason_line_search():
    # a zero gradient tolerance is out of reach of floating point, so the
    # ascent ends when no step gains or, at the rounding level, lowers the
    # gradient, well short of the iteration cap
    rng = np.random.default_rng(15)
    theta0 = rng.uniform(0.0, 2.0 * math.pi, 20)
    _, trace, its, reason, _, _ = _ascend(cl.Ellipse(0.0, 2.0, 1.0), theta0, 200, 0.0)
    assert reason == "line_search"
    assert its < 50
    assert trace[-1] - trace[-4] == pytest.approx(0.0, abs=1e-12)


def test_stop_reason_max_iterations():
    for K in (DISK, SEGMENT):
        res = cl.solve(K, 12, max_iterations=1, seed=8)
        assert not res.converged
        assert (res.stop_reason, res.iterations) == ("max_iterations", 1)


def test_solve_rejects_fewer_than_one_start():
    # zero starts left nothing to return, and a negative count reached
    # SeedSequence.spawn
    for starts in (0, -1):
        with pytest.raises(ValueError, match="starts >= 1"):
            cl.solve(DISK, 8, starts=starts)
    assert len(cl.solve(DISK, 8, starts=1, seed=3).starts) == 1


def test_scaling_covariance():
    base = cl.solve(cl.Disk(0.0, 1.0), 12, seed=7)
    for r in (0.5, 2.0):
        scaled = cl.solve(cl.Disk(0.0, r), 12, seed=7)
        shift = (12 * 11 / 2) * math.log(r)
        assert scaled.log_delta - base.log_delta == pytest.approx(shift, abs=1e-6)


def test_rotation_invariance():
    res = cl.solve(DISK, 10, seed=8)
    rotated = np.exp(0.37j) * res.configuration
    assert abs(cl.log_delta(DISK, rotated) - res.log_delta) < 1e-12


def test_trace_monotone():
    res = cl.solve(DISK, 15, seed=9)
    trace = np.asarray(res.trace)
    assert np.all(np.diff(trace) >= 0)


# ---------------------------------------------------------------------------
# reference ascent
# ---------------------------------------------------------------------------

def _reference_angle_derivatives(K, theta):
    """The former _angle_derivatives: its own jet and difference matrix."""
    pts, vel, acc = K.boundary_jet(theta)
    diff = pts[:, None] - pts[None, :]
    np.fill_diagonal(diff, 1.0)
    inv = 1.0 / diff
    np.fill_diagonal(inv, 0.0)
    inv_sum = inv.sum(axis=1)
    inv2 = inv * inv
    grad = (vel * inv_sum).real
    hess = (vel[:, None] * vel[None, :] * inv2).real
    np.fill_diagonal(hess, (acc * inv_sum - vel**2 * inv2.sum(axis=1)).real)
    return pts, grad, hess


def _reference_newton_step(hess, grad):
    """The former _newton_step, with fill_diagonal and np.sum."""
    shifted = -hess
    diag = np.diagonal(shifted).copy()
    tau = 1e-8 * float(np.max(np.sum(np.abs(hess), axis=1)))
    for shifts in range(10):
        np.fill_diagonal(shifted, diag + tau)
        factor, info = dpotrf(shifted, lower=False, clean=False)
        if info == 0 and np.all(np.isfinite(np.diagonal(factor))):
            return dpotrs(factor, grad)[0], shifts
        tau *= 10.0
    raise np.linalg.LinAlgError("no factorization")


def _reference_ascend(K, theta0, max_iter, grad_tol):
    """The former _ascend, which evaluates an accepted candidate twice (its
    pair logs from boundary_point, then its derivatives from a second jet)
    and builds a Hessian at every iterate; it counts its candidates."""
    theta = theta0.copy()
    pts, grad, hess = _reference_angle_derivatives(K, theta)
    logs = _log_distances(_pair_distances(pts))
    obj = float(np.sum(logs))
    trace = [obj]
    reason = "max_iterations"
    it = shifted = evaluations = 0
    for it in range(1, max_iter + 1):
        grad_max = float(np.max(np.abs(grad)))
        if grad_max <= grad_tol:
            reason = "gradient_tol"
            break
        step, shifts = _reference_newton_step(hess, grad)
        shifted += shifts > 0
        rounding = np.finfo(float).eps * float(np.sum(np.abs(logs)))
        accepted = False
        for _ in range(60):
            cand = theta + step
            cand_logs = _log_distances(_pair_distances(K.boundary_point(cand)))
            evaluations += 1
            gain = float(np.sum(cand_logs - logs))
            if gain > 0 or abs(gain) <= rounding:
                accepted = True
                break
            step *= 0.5
        if accepted:
            cand_pts, cand_grad, cand_hess = _reference_angle_derivatives(K, cand)
            accepted = gain > 0 or float(np.max(np.abs(cand_grad))) < grad_max
        if not accepted:
            reason = "line_search"
            break
        theta, pts, grad, hess, logs = cand, cand_pts, cand_grad, cand_hess, cand_logs
        obj += gain
        trace.append(obj)
    return pts, trace, it, reason, shifted, evaluations


def _assert_same_ascent(K, theta0, max_iter, grad_tol):
    got = _ascend(K, theta0, max_iter, grad_tol)
    want = _reference_ascend(K, theta0, max_iter, grad_tol)
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1:] == want[1:]
    its, evaluations = got[2], got[5]
    assert its - 1 <= evaluations
    return got


# criterion 4's three solves and criterion 3's four former disk solves, then
# four more sets and sizes
ORACLE_SOLVES = [(DISK, n, 40 + n) for n in (8, 16, 32, 64)] + [
    (DISK, 60, 81), (SEGMENT, 60, 82), (cl.Ellipse(0.0, 2.0, 1.0), 60, 83),
    (cl.ExteriorMap(1.0, (0.0, 0.0, 0.15)), 60, 0), (cl.ExteriorMap(1.0, (0.0, 0.2, 0.1)), 40, 0),
    (cl.Ellipse(0.0, 20.0, 1.0), 60, 0), (SEGMENT, 12, 0)]


@pytest.mark.parametrize("K, n, seed", ORACLE_SOLVES,
                         ids=[f"{type(K).__name__}-{n}-{seed}" for K, n, seed in ORACLE_SOLVES])
def test_ascent_matches_reference_bit_for_bit(K, n, seed):
    # oracle: the former ascent, start by start: the same configuration
    # bytes, trace, iterations, stop reason, shifted steps and candidate count
    children = np.random.SeedSequence(seed).spawn(max(8, math.ceil(n / 8)))
    runs = [_assert_same_ascent(K, _stratified_angles(np.random.default_rng(child), n),
                                5000, 1e-8 * n) for child in children]
    res = cl.solve(K, n, seed=seed)
    assert [rec["evaluations"] for rec in res.starts] == [run[5] for run in runs]
    best = runs[res.start_index]
    assert res.configuration.tobytes() == best[0].tobytes()
    assert (res.trace, res.iterations, res.stop_reason) == tuple(best[1:4])


def test_ascent_matches_reference_at_other_stops():
    # max_iterations after one and after three steps, and a line_search stop
    for K in (DISK, SEGMENT, cl.ExteriorMap(1.0, (0.0, 0.0, 0.15))):
        for max_iter in (1, 3):
            run = _assert_same_ascent(K, _first_start(K, 12, 8), max_iter, 1e-8 * 12)
            assert run[2:4] == (max_iter, "max_iterations")
    theta0 = np.random.default_rng(15).uniform(0.0, 2.0 * math.pi, 20)
    run = _assert_same_ascent(cl.Ellipse(0.0, 2.0, 1.0), theta0, 200, 0.0)
    assert run[3] == "line_search"
    assert run[5] > run[2]  # the last, failed search halved its step


def test_angle_derivatives_match_reference_bit_for_bit():
    for K, n, seed in ORACLE_SOLVES:
        theta = _first_start(K, n, seed)
        for got, want in zip(_angle_derivatives(K, theta), _reference_angle_derivatives(K, theta)):
            assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# capacity estimate
# ---------------------------------------------------------------------------

def test_capacity_estimate_disk_closed_form():
    # the optimum is the roots-of-unity value exp(log N / (N - 1))
    for n in (8, 16, 24):
        est = cl.capacity_estimate(cl.solve(DISK, n, seed=10))
        assert est == pytest.approx(math.exp(math.log(n) / (n - 1)), rel=1e-8)


def test_capacity_estimate_decreasing():
    ests = [cl.capacity_estimate(cl.solve(DISK, n, seed=11)) for n in (8, 12, 16, 24, 32)]
    assert all(a > b for a, b in zip(ests[:-1], ests[1:]))


def test_capacity_estimate_scaled_disk():
    est = cl.capacity_estimate(cl.solve(cl.Disk(0.0, 2.0), 16, seed=12))
    assert est == pytest.approx(2.0 * math.exp(math.log(16) / 15), rel=1e-8)


def test_capacity_estimate_validation():
    with pytest.raises(ValueError):
        cl.capacity_estimate(cl.solve(DISK, 4))
    with pytest.raises(ValueError):
        cl.solve(DISK, 1)


def test_capacity_estimate_segment_trend():
    ests = [cl.capacity_estimate(cl.solve(SEGMENT, n, seed=14)) for n in (8, 16, 32)]
    assert all(a > b for a, b in zip(ests[:-1], ests[1:]))
    assert all(e > 1.0 for e in ests)  # converges to capacity 1 from above
    assert ests[-1] < 1.2
