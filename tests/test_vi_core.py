"""Inertial proximal engine tests.

Fixtures come with exact solutions from direct solves, so convergence
and rate checks compare against independent oracles rather than the
solver's own output. A step size is folded into the weighting: the
engine's only proximal parameter is ``G``. One step of the engine is
also pinned to hand-computed values on a one-dimensional problem. The
loop, which reuses the storage of the points it retires, is checked
bitwise against a reference loop that allocates every difference anew.
"""

import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from iprox import cpcp, prox, splitting, vi_core
from iprox.fixtures import (
    affine_vi,
    affine_vi_solution,
    random_qp,
    strongly_monotone_affine_vi,
)
from iprox.numkit import SeededRng
from iprox.vi_core import (
    InertialSchedule,
    MixedViProblem,
    ProbeSet,
    SolverTrace,
    WeightOperator,
    check_residual_rate_bound,
    gippa_slack,
    inertial_ppa_step,
    nesterov_ippa,
    run_inertial_ppa,
    stopping_residual,
)

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def eye_weight(n):
    return WeightOperator.from_matrix(np.eye(n))


def _prox_identity_vi(oracle, c):
    """Mixed VI with ``theta`` given by a prox oracle and ``F(w) = w - c``.

    The resolvent is closed form for identity weighting:
    ``w = prox_theta((c + z) / 2, 1/2)``.
    Returns ``(problem, w_star)`` where ``w_star = prox_theta(c, 1)``.
    """
    c = np.asarray(c, dtype=np.float64).ravel()
    n = c.size

    def F(w):
        return w - c

    def resolvent(z, G):
        if not np.allclose(G.matrix, np.eye(n), atol=1e-12):
            raise ValueError("closed form available for identity weighting only")
        return oracle.eval((c + np.asarray(z)) / 2.0, 0.5)[0]

    problem = MixedViProblem(
        dim=n,
        theta=lambda w: oracle.objective(w),
        F=F,
        resolvent=resolvent,
    )
    return problem, oracle.eval(c, 1.0)[0]


class TestWeightOperator:
    def test_from_matrix_consistency(self):
        rng = np.random.default_rng(0)
        R = rng.normal(size=(4, 4))
        Gm = R @ R.T
        G = WeightOperator.from_matrix(Gm)
        v = rng.normal(size=4)
        assert np.allclose(G.apply(v), Gm @ v)
        assert G.quad(v) == pytest.approx(v @ Gm @ v)
        assert np.array_equal(G.matrix, Gm)

    def test_from_matrix_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            WeightOperator.from_matrix(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            WeightOperator(np.zeros(3))


class TestInertialSchedule:
    def test_constant(self):
        s = InertialSchedule.constant(0.28)
        assert all(s.alpha(k) == 0.28 for k in range(5))
        assert s.guaranteed_regime

    def test_guaranteed_regime_boundary(self):
        assert not InertialSchedule.constant(1.0 / 3.0).guaranteed_regime
        assert InertialSchedule.constant(0.33).guaranteed_regime

    def test_validation(self):
        with pytest.raises(ValueError):
            InertialSchedule.constant(1.0)
        with pytest.raises(ValueError):
            InertialSchedule.constant(-0.1)


class TestEngineStep:
    def test_hand_computed_step(self):
        # F(w) = w, theta = 0, G = 1: w+ solves (1 + 1) w = wbar, so from
        # w_0 = 1.6 at alpha = 0.2 (the pre-iterate is w_0):
        #   w_1 = 1.6 / 2                                  = 0.8
        #   wbar_1 = 0.8 + 0.2 (0.8 - 1.6) = 0.64, w_2     = 0.32
        problem = affine_vi(np.array([[1.0]]), np.array([0.0]))
        w_next = inertial_ppa_step(problem, eye_weight(1), np.array([0.64]))
        assert w_next[0] == pytest.approx(0.32, abs=1e-15)
        trace = run_inertial_ppa(problem, eye_weight(1), InertialSchedule(0.2),
                                 np.array([1.6]), tol=0.0, max_iter=2)
        assert np.allclose(np.ravel(trace.iterates), [1.6, 0.8, 0.32], rtol=0, atol=1e-15)
        assert np.allclose(trace.step_residuals, [0.8**2, 0.32**2], rtol=1e-14)

    def test_step_solves_regularized_inequality(self):
        # a step size of 0.7 under the identity is the weighting I / 0.7
        rng = SeededRng(11)
        problem, _ = strongly_monotone_affine_vi(4, rng)
        G = WeightOperator.from_matrix(np.eye(4) / 0.7)
        wbar = np.array([0.3, -0.2, 0.9, 0.0]) * 1.25
        w_next = inertial_ppa_step(problem, G, wbar)
        probe_rng = np.random.default_rng(2)
        probes = ProbeSet.evaluate(problem, problem.theta,
                                   [probe_rng.uniform(-2, 2, 4) for _ in range(100)])
        assert gippa_slack(problem, G, wbar, w_next, probes) >= -1e-8


def _refused():
    """Solver calls the loop must refuse, by name: ``(call, message)``."""
    vi = affine_vi(np.eye(2), np.zeros(2))
    qp, _ = random_qp(4, 4, 3, SeededRng(20))
    params = splitting.LadmmParams(beta=1.0, tau=0.9 / qp.rho_ata, eta=0.9 / qp.rho_btb)
    # a schedule object may do what InertialSchedule refuses
    backwards = SimpleNamespace(alpha=lambda k: -0.1 if k == 2 else 0.1)
    return {
        "run_inertial_ppa-alpha": (lambda: run_inertial_ppa(
            vi, eye_weight(2), backwards, np.ones(2), tol=0.0, max_iter=5),
            r"alpha_2 = -0\.1 is negative"),
        "run_inertial_ppa-max_iter": (lambda: run_inertial_ppa(
            vi, eye_weight(2), InertialSchedule(0.1), np.ones(2), max_iter=-1),
            "max_iter must be nonnegative, got -1"),
        "run_iladmm-alpha": (lambda: splitting.run_iladmm(
            qp, params, backwards, tol=0.0, max_iter=5), r"alpha_2 = -0\.1 is negative"),
        "run_iladmm-max_iter": (lambda: splitting.run_iladmm(
            qp, params, InertialSchedule(0.1), max_iter=-1),
            "max_iter must be nonnegative, got -1"),
        "nesterov_ippa-max_iter": (lambda: nesterov_ippa(lambda z, lam: z, np.ones(2), -2,
                                                         lambda w: 0.0),
                                   "max_iter must be nonnegative, got -2"),
    }


def _misshapen():
    """Calls given a reference point of the wrong length, by name:
    ``(call, expected length)``."""
    vi, _ = strongly_monotone_affine_vi(8, SeededRng(6000))
    qp, star = random_qp(4, 4, 3, SeededRng(20240814))
    params = splitting.LadmmParams(beta=0.1, tau=0.9 / qp.rho_ata, eta=0.9 / qp.rho_btb)

    def ppa():
        return run_inertial_ppa(vi, eye_weight(8), InertialSchedule(0.28),
                                np.ones(8) * 2.0, tol=0.0, max_iter=5)

    def ladmm(w_star=None):
        return splitting.run_ladmm(qp, params, tol=0.0, max_iter=5, w_star=w_star)

    return {
        "check_residual_rate_bound": (lambda: check_residual_rate_bound(
            ppa(), eye_weight(8), np.array([0.5])), 8),
        "nonergodic_report": (lambda: splitting.nonergodic_report(
            ladmm(), qp, params, np.array([1.0])), 11),
        "run_ladmm": (lambda: ladmm(star[:5]), 11),
    }


class TestLoopValidation:
    @pytest.mark.parametrize("name", list(_refused()))
    def test_loop_refuses_negative_alpha_or_max_iter(self, name):
        call, message = _refused()[name]
        with pytest.raises(ValueError, match=message):
            call()

    @pytest.mark.parametrize("name", list(_misshapen()))
    def test_reference_point_of_wrong_length_is_refused(self, name):
        call, length = _misshapen()[name]
        with pytest.raises(ValueError, match=f"must have length {length}, got shape"):
            call()


class TestRunInertialPpa:
    def test_converges_to_direct_solution(self):
        rng = SeededRng(3)
        problem, w_star = strongly_monotone_affine_vi(5, rng)
        trace = run_inertial_ppa(
            problem,
            eye_weight(5),
            InertialSchedule.constant(0.28),
            np.zeros(5),
            tol=1e-10,
            max_iter=2000,
        )
        assert trace.converged
        assert np.abs(trace.iterates[-1] - w_star).max() < 1e-8

    def test_prox_identity_fixture(self):
        c = np.array([2.0, -0.4, 0.0, 1.5, -3.0])
        problem, w_star = _prox_identity_vi(prox.l1_oracle(), c)
        assert np.array_equal(w_star, prox.soft_threshold(c, 1.0))
        trace = run_inertial_ppa(
            problem,
            eye_weight(5),
            InertialSchedule.constant(0.28),
            np.zeros(5),
            tol=1e-12,
            max_iter=5000,
        )
        assert trace.converged
        assert np.abs(trace.iterates[-1] - w_star).max() < 1e-9

    def test_trace_lengths(self):
        problem = affine_vi(np.eye(3), np.ones(3))
        trace = run_inertial_ppa(
            problem,
            eye_weight(3),
            InertialSchedule.constant(0.1),
            np.zeros(3),
            tol=0.0,
            max_iter=20,
        )
        K = trace.iterations
        assert K == 20 and not trace.converged and trace.status == "max_iter"
        assert len(trace.iterates) == K + 1
        assert trace.objective == [] and trace.phi is None
        for seq in (trace.alphas, trace.step_residuals, trace.stop_residuals):
            assert len(seq) == K

    def test_stops_at_the_first_non_finite_step(self):
        vi, _ = strongly_monotone_affine_vi(4, SeededRng(6000))
        blowup = MixedViProblem(dim=4, theta=vi.theta, F=vi.F,
                                resolvent=lambda z, G: np.full(4, np.inf))
        # inf - inf and 0 * inf in the weighted norm are numpy's to warn about
        with np.errstate(invalid="ignore", over="ignore"):
            trace = run_inertial_ppa(blowup, eye_weight(4), InertialSchedule(0.28),
                                     np.ones(4), max_iter=50)
        assert trace.iterations == 1 and trace.status == "non_finite"
        assert not trace.converged and trace.stop_residuals == [math.inf]

    def test_plain_ppa_distance_nonincreasing(self):
        # alpha = 0 is the exact proximal point method: ||w_k - w*||_G
        # cannot increase
        rng = SeededRng(5)
        problem, w_star = strongly_monotone_affine_vi(6, rng)
        trace = run_inertial_ppa(
            problem,
            eye_weight(6),
            InertialSchedule.constant(0.0),
            np.ones(6) * 3.0,
            tol=0.0,
            max_iter=200,
        )
        phi = np.array([eye_weight(6).quad(w - w_star) for w in trace.iterates])
        assert np.all(np.diff(phi) <= 1e-12)

    def test_input_validation(self):
        problem = affine_vi(np.eye(2), np.zeros(2))
        with pytest.raises(ValueError):
            run_inertial_ppa(
                problem, eye_weight(2), InertialSchedule.constant(0.1),
                np.zeros(3),
            )
        with pytest.raises(ValueError):
            run_inertial_ppa(
                problem, eye_weight(2), InertialSchedule.constant(0.1),
                np.zeros(2), tol=-1.0,
            )

    @pytest.mark.parametrize("alpha", [0.0, 0.28])
    def test_one_weighted_norm_per_step(self, alpha):
        # G.quad weighs each step residual and nothing else, at any factor
        problem, _ = strongly_monotone_affine_vi(4, SeededRng(9))
        calls = []

        class CountingWeight(WeightOperator):
            def quad(self, v):
                calls.append(1)
                return super().quad(v)

        trace = run_inertial_ppa(
            problem, CountingWeight(np.eye(4)), InertialSchedule.constant(alpha),
            np.ones(4) * 5.0, tol=0.0, max_iter=30,
        )
        assert trace.iterations == 30
        assert len(calls) == 30


class TestResidualRateBound:
    def run_trace(self, alpha, seed=12, n=6, iters=400):
        rng = SeededRng(seed)
        problem, w_star = strongly_monotone_affine_vi(n, rng)
        trace = run_inertial_ppa(
            problem,
            eye_weight(n),
            InertialSchedule.constant(alpha),
            np.ones(n) * 2.0,
            tol=0.0,
            max_iter=iters,
        )
        return trace, w_star

    def test_envelope_holds_at_028(self):
        trace, w_star = self.run_trace(0.28)
        report = check_residual_rate_bound(trace, eye_weight(6), w_star)
        assert report.ok and report.violations == []
        assert report.constant == pytest.approx(13.5)
        assert np.all(report.min_residuals <= report.bounds + 1e-10)
        # o(1/k): the scaled running minimum dies off at the tail
        assert report.scaled[-1] < 0.01 * report.scaled[:20].max()

    def test_rejects_cap_at_one_third(self):
        trace, w_star = self.run_trace(1.0 / 3.0)
        with pytest.raises(ValueError):
            check_residual_rate_bound(trace, eye_weight(6), w_star)

    def test_rejects_decreasing_alphas(self):
        trace, w_star = self.run_trace(0.1)
        trace.alphas[5] = 0.3
        with pytest.raises(ValueError):
            check_residual_rate_bound(trace, eye_weight(6), w_star)

    def test_requires_iterates(self):
        trace, w_star = self.run_trace(0.1, iters=5)
        trace.iterates = None
        with pytest.raises(ValueError):
            check_residual_rate_bound(trace, eye_weight(6), w_star)


class TestNesterov:
    def test_t_sequence_values(self):
        prox_f = lambda z, lam: z
        trace = nesterov_ippa(prox_f, np.zeros(2), 3, lambda w: 0.0)
        t = trace.extras["t"]
        assert t[0] == 1.0
        assert t[1] == pytest.approx(GOLDEN, abs=1e-15)
        t2 = (1.0 + math.sqrt(1.0 + 4.0 * GOLDEN**2)) / 2.0
        assert t[2] == pytest.approx(t2, abs=1e-14)
        assert trace.alphas[0] == 0.0
        assert trace.alphas[1] == pytest.approx((GOLDEN - 1.0) / t2, abs=1e-15)

    def test_objective_rate_on_quadratic(self):
        # f(w) = ||w - c||^2 / 2, prox_f(z, lam) = (z + lam c) / (1 + lam)
        c = np.array([3.0, -1.0, 2.0, 0.5, -2.5, 1.0, 0.0, 4.0, -3.0, 0.2])
        w0 = np.zeros(10)

        def prox_f(z, lam):
            return (z + lam * c) / (1.0 + lam)

        def f(w):
            return 0.5 * float(np.sum((w - c) ** 2))

        trace = nesterov_ippa(prox_f, w0, 300, objective=f)
        assert trace.iterations == 300 and not trace.converged
        assert len(trace.objective) == len(trace.iterates) == 301
        for seq in (trace.alphas, trace.stop_residuals, trace.step_residuals):
            assert len(seq) == 300
        # the residuals are Euclidean: ||w_{k+1} - wbar_k||^2
        w1 = trace.iterates[1]
        assert trace.step_residuals[0] == pytest.approx(float(w1 @ w1), rel=1e-14)
        gaps = np.asarray(trace.objective)  # f* = 0
        bound = 2.0 * float(np.sum((w0 - c) ** 2))
        for k in range(1, 301):
            assert k * k * gaps[k] <= bound + 1e-10

    def test_objective_starts_at_the_caller_start_point(self):
        # the loop overwrites its own copy of w0, so f(w0) is taken before it
        w0 = np.linspace(-1.0, 1.0, 10)

        def f(w):
            return float(np.sum(w**3)) + 0.1

        trace = nesterov_ippa(lambda z, lam: z * 0.5 - lam * 0.01, w0, 6, objective=f)
        assert trace.objective == [f(w) for w in trace.iterates]
        assert trace.objective[0] == f(np.linspace(-1.0, 1.0, 10))


class TestAffineFixtures:
    def test_unboxed_solution_is_linear_solve(self):
        rng = np.random.default_rng(20)
        M = rng.normal(size=(4, 4)) + 4 * np.eye(4)
        q = rng.normal(size=4)
        w = affine_vi_solution(M, q)
        assert np.abs(M @ w + q).max() < 1e-10

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            affine_vi(np.eye(3), np.zeros(2))


def reference_loop(step, gquad, alpha, w, tol, max_iter, *, blocks=1,
                   keep_iterates=True, stop=stopping_residual):
    """``inertial_loop`` with every difference and extrapolated point in
    fresh arrays and ``w_{k-1}`` kept through the step: the reference for
    the loop that reuses the storage of the points it retires."""

    def pack(v):
        return np.concatenate(v[:blocks], axis=None)

    def sq(u):
        return float(np.vdot(u, u))

    trace = SolverTrace(iterates=[pack(w)] if keep_iterates else None)
    w_prev = w
    for k in range(max_iter):
        a, wbar = alpha(k), w
        if a:
            d = [u - v for u, v in zip(w, w_prev)]
            wbar = [u + a * du for u, du in zip(w, d)]
        nxt, obj = step(wbar)
        diff = [u - v for u, v in zip(nxt, wbar)]
        sqs = [sq(u) for u in diff[:blocks]]
        rel = stop(sum(sqs), sum(sq(u) for u in wbar[:blocks]))
        trace.step_residuals.append(gquad(diff, sqs))
        trace.alphas.append(a)
        trace.stop_residuals.append(rel)
        if obj is not None:
            trace.objective.append(obj)
        if trace.iterates is not None:
            trace.iterates.append(pack(nxt))
        w_prev, w = w, nxt
        trace.iterations = k + 1
        if rel < tol:
            trace.status = "converged"
            break
        if not math.isfinite(rel):
            trace.status = "non_finite"
            break
    return trace, w


def _bits(value):
    """A value with every float and array replaced by its bytes."""
    if isinstance(value, dict):
        return {k: _bits(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_bits(v) for v in value]
    if isinstance(value, (float, np.ndarray, np.floating)):
        a = np.asarray(value)
        return a.dtype.str, a.shape, a.tobytes()
    return value


# zero and nonzero factors in turn: a plain step followed by an inertial one
# must keep w_k, which the plain step may otherwise overwrite
SWITCHING = SimpleNamespace(alpha=lambda k: 0.0 if k % 3 == 0 else 0.28)


def _solves():
    """Solver calls on fixed data, by name: ``(starts, solve)``, where
    ``solve(*starts)`` returns a trace and must leave ``starts``, the
    caller's start or reference points, unchanged."""
    qp, star = random_qp(8, 8, 8, SeededRng(3000))
    params = splitting.LadmmParams(beta=1.0, tau=0.9 / qp.rho_ata, eta=0.9 / qp.rho_btb)
    vi, _ = strongly_monotone_affine_vi(8, SeededRng(6000))
    # a resolvent that returns its argument: only the step's copy keeps the
    # loop from writing w_{k+1} - wbar_k into w_{k+1}
    identity = MixedViProblem(dim=8, theta=vi.theta, F=vi.F, resolvent=lambda z, G: z)
    c = SeededRng(7000).normal(10) * 3.0
    inst = cpcp.generate_instance(32, 32, 2, 51, "wht", 819, 5)

    def iladmm(schedule):
        return [], lambda: splitting.run_iladmm(qp, params, schedule, tol=0.0, max_iter=60)

    def ppa(schedule, problem=vi):
        return [np.ones(8) * 2.0], lambda w0: run_inertial_ppa(
            problem, eye_weight(8), schedule, w0, tol=0.0, max_iter=60)

    def nesterov(prox_f, objective):
        return [np.linspace(-1.0, 1.0, 10)], lambda w0: nesterov_ippa(
            prox_f, w0, 40, objective=objective)

    def cpcp_solve(alpha):
        def solve():
            state, trace = cpcp.iladmm_cpcp(inst, alpha=alpha)
            trace.extras["state"] = (state.L, state.S, state.p)
            return trace
        return [], solve

    return {
        "run_ladmm": ([star], lambda ws: splitting.run_ladmm(qp, params, tol=0.0,
                                                             max_iter=60, w_star=ws)),
        "run_iladmm": iladmm(InertialSchedule(0.28)),
        "run_iladmm-switching": iladmm(SWITCHING),
        "run_inertial_ppa-plain": ppa(InertialSchedule(0.0)),
        "run_inertial_ppa": ppa(InertialSchedule(0.28)),
        "run_inertial_ppa-switching": ppa(SWITCHING),
        "run_inertial_ppa-identity-plain": ppa(InertialSchedule(0.0), identity),
        "run_inertial_ppa-identity": ppa(InertialSchedule(0.28), identity),
        "run_inertial_ppa-identity-switching": ppa(SWITCHING, identity),
        "nesterov_ippa": nesterov(lambda z, lam: (z + lam * c) / (1.0 + lam),
                                  lambda w: 0.5 * float(np.sum((w - c) ** 2))),
        "nesterov_ippa-identity": nesterov(lambda z, lam: z, lambda w: 0.0),
        # soft_threshold(z - 0.3, 1) is the prox of ||w||_1 + 0.3 sum(w)
        "nesterov_ippa-l1": nesterov(lambda z, lam: prox.soft_threshold(z - 0.3, lam),
                                     lambda w: float(np.abs(w).sum() + 0.3 * w.sum())),
        "cpcp-plain": cpcp_solve(0.0),
        "cpcp": cpcp_solve(0.28),
    }


class TestStorageReuse:
    @pytest.mark.parametrize("name", list(_solves()))
    def test_traces_match_the_reference_loop_bitwise(self, monkeypatch, name):
        starts, solve = _solves()[name]
        kept = [u.copy() for u in starts]
        trace = solve(*starts)
        assert _bits(starts) == _bits(kept)
        monkeypatch.setattr(vi_core, "inertial_loop", reference_loop)
        monkeypatch.setattr(splitting, "inertial_loop", reference_loop)
        want = solve(*kept)
        assert trace.iterations == want.iterations > 1
        assert _bits(vars(trace)) == _bits(vars(want))

    @pytest.mark.parametrize("alpha, points", [(0.28, 3), (0.0, 2)])
    def test_the_loop_holds_three_points_inertial_and_two_plain(self, alpha, points):
        # a step that allocates nothing but w_{k+1}, so the peak is the
        # loop's own: w_k, d_k turned wbar_k, and w_{k+1}
        n = 1 << 16

        def step(wbar):
            return [u * 0.5 for u in wbar], None

        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            # the loop owns its start point: no reference to it is kept here
            vi_core.inertial_loop(step, lambda d, sq: sum(sq),
                                  InertialSchedule(alpha).alpha,
                                  (np.ones(n), np.full(n, 2.0)), 0.0, 6,
                                  keep_iterates=False)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < (points + 0.25) * 2 * n * 8

    @pytest.mark.parametrize("alpha, points", [(0.28, 3), (0.0, 2)])
    def test_a_solve_holds_three_points_inertial_and_two_plain(self, alpha, points):
        # 64 x 64 WHT, q = 0.8 area: a point (L, S, p, A L, A S) is
        # 2 n^2 + 3 q floats. Allowed: the points plus five n x n arrays for
        # the SVT and the transforms; holding w_{k-1}, a fresh d_k and a
        # fresh w_{k+1} - wbar_k, as a loop that reuses no storage does,
        # takes two points more
        n, q = 64, 3276
        inst = cpcp.generate_instance(n, n, 2, 205, "wht", q, 0)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            state, _ = cpcp.iladmm_cpcp(inst, alpha=alpha)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert state.converged
        assert peak <= (points * (2 * n * n + 3 * q) + 5 * n * n) * 8
