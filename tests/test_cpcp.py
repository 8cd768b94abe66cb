"""Low-rank plus sparse recovery solver tests.

Instances carry their ground truth, so recovery checks compare against
known planted components. Update steps are validated through optimality
certificates (subgradient pairing, objective comparison against random
perturbations) rather than against the solver's own arithmetic.
"""

import dataclasses
import hashlib
import math

import numpy as np
import pytest

from iprox import cpcp, prox
from iprox.numkit import SeededRng, SvtWarmStart, make_measurement_op
from iprox.splitting import LadmmParams, SeparableProblem, _gquad, gladmm_operator


def small_instance(seed=3, m=16, n=16, r=1, nnz=5, q=100, kind="dct2"):
    return cpcp.generate_instance(m, n, r, nnz, kind, q, seed)


def desk_instance():
    """Seed 0 of the 256 x 256, rank 5, 5 % sparse, q = 0.6 area DCT-II
    workload."""
    return cpcp.generate_instance(256, 256, 5, 3277, "dct2", 39321, 0)


def _subgradient_certificate(Z, L1, kappa):
    """Optimality certificate of a thresholding step
    ``L1 = svt_with_values(Z, kappa)[0]``.

    Returns ``(spectral_excess, pairing_gap)`` for ``W = (Z - L1)/kappa``:
    a correct step has ``||W||_2 <= 1`` and ``<W, L1> = ||L1||_*``, so both
    numbers are nonpositive/zero up to rounding.
    """
    W = (np.asarray(Z, dtype=np.float64) - L1) / kappa
    spectral_excess = float(np.linalg.svd(W, compute_uv=False).max(initial=0.0)) - 1.0
    nuclear = float(np.linalg.svd(L1, compute_uv=False).sum())
    return spectral_excess, abs(float(np.sum(W * L1)) - nuclear)


def dense_measurement_matrix(meas, m, n):
    """Explicit matrix of the measurement map, column per image entry."""
    cols = []
    for j in range(m * n):
        e = np.zeros(m * n)
        e[j] = 1.0
        cols.append(meas.apply(e.reshape(m, n)))
    return np.column_stack(cols)


class TestCountsAndWeights:
    def test_penalty_weight_hand_value(self):
        assert cpcp.penalty_weight(1024) == 0.03125
        assert cpcp.penalty_weight(256) == 0.0625
        with pytest.raises(ValueError):
            cpcp.penalty_weight(0)

    def test_degrees_of_freedom_hand_value(self):
        assert cpcp.degrees_of_freedom(10, 10, 2, 5) == 41
        assert cpcp.degrees_of_freedom(256, 256, 5, 3277) == 5812
        with pytest.raises(ValueError):
            cpcp.degrees_of_freedom(4, 4, 5, 0)
        with pytest.raises(ValueError):
            cpcp.degrees_of_freedom(4, 4, 1, 17)

    def test_counts_from_ratios(self):
        q, nnz = cpcp.counts_from_ratios(256, 256, 0.6, 0.05)
        assert q == 39321  # floor of 39321.6
        assert nnz == 3277  # rounding of 3276.8
        # the float product 0.57 * 100 * 100 is 5699.999...
        assert cpcp.counts_from_ratios(100, 100, 0.57, 0.05)[0] == 5700
        # nnz rounds the exact products 23.5 and 26.5 half to even; the
        # float products 23.499... and 26.500...4 rounded to 23 and 27
        assert cpcp.counts_from_ratios(10, 10, 0.5, 0.235)[1] == 24
        assert cpcp.counts_from_ratios(10, 10, 0.5, 0.265)[1] == 26
        assert q / cpcp.degrees_of_freedom(256, 256, 5, nnz) == pytest.approx(
            6.7655, abs=1e-4
        )
        with pytest.raises(ValueError):
            cpcp.counts_from_ratios(16, 16, 0.0, 0.5)
        with pytest.raises(ValueError):
            cpcp.counts_from_ratios(16, 16, 0.5, 1.5)


class TestGenerateInstance:
    def test_deterministic_regeneration(self):
        a = small_instance()
        b = small_instance()
        assert np.array_equal(a.L0, b.L0)
        assert np.array_equal(a.S0, b.S0)
        assert np.array_equal(a.b, b.b)
        assert np.array_equal(a.meas.indices, b.meas.indices)

    def test_seed_changes_everything(self):
        a = small_instance(seed=3)
        b = small_instance(seed=4)
        assert not np.array_equal(a.L0, b.L0)
        assert not np.array_equal(a.b, b.b)

    def test_planted_structure(self):
        inst = small_instance(m=20, n=12, r=3, nnz=17, q=60)
        assert np.linalg.matrix_rank(inst.L0) == 3
        assert np.count_nonzero(inst.S0) == 17
        vals = inst.S0[inst.S0 != 0]
        assert np.all(np.abs(vals) <= 10.0)
        assert inst.lam == cpcp.penalty_weight(20)
        assert inst.dof == cpcp.degrees_of_freedom(20, 12, 3, 17)
        assert inst.q_over_dof == pytest.approx(60 / inst.dof)

    def test_measurements_match_truth(self):
        inst = small_instance()
        assert np.array_equal(inst.b, inst.meas.apply(inst.L0 + inst.S0))

    def test_truth_is_stored_as_drawn(self):
        inst = desk_instance()
        m, n, r, nnz = inst.m, inst.n, inst.r, inst.nnz
        arrays = [v for v in vars(inst).values() if isinstance(v, np.ndarray)]
        assert all(a.size != m * n for a in arrays)
        truth = (inst.left, inst.right, inst.support, inst.values)
        assert sum(a.nbytes for a in truth) <= ((m + n) * r + 2 * nnz) * 8
        assert np.linalg.matrix_rank(inst.L0) == r
        assert np.count_nonzero(inst.S0) == nnz

    def test_seed_0_truth_and_measurements_are_pinned(self):
        # the bits of the dense L0, S0 and b: how an instance stores its
        # truth must not move them
        inst = desk_instance()
        digest = hashlib.sha256()
        for a in (inst.L0, inst.S0, inst.b):
            digest.update(a.tobytes())
        assert digest.hexdigest() == (
            "df8cd2c88ce2398443a4494ff982b0f1a868c7561e8911bda69f9b731659dfa5")

    def test_truth_reads_are_copies(self):
        inst = small_instance()
        L0, S0 = inst.L0, inst.S0
        L0[:] = 1.0
        S0[:] = 1.0
        assert np.array_equal(inst.L0, small_instance().L0)
        assert np.array_equal(inst.S0, small_instance().S0)
        with pytest.raises(AttributeError):
            inst.L0 = L0

    def test_rank_validation(self):
        with pytest.raises(ValueError):
            cpcp.generate_instance(8, 8, 0, 2, "dct2", 10, 0)
        with pytest.raises(ValueError):
            cpcp.generate_instance(8, 8, 9, 2, "dct2", 10, 0)


class TestBetaController:
    def test_initial_penalty_scales_with_measurements(self):
        inst = small_instance()
        c = cpcp.BetaController.for_instance(inst)
        assert c.beta == pytest.approx(0.1 * inst.q / np.abs(inst.b).sum())
        assert cpcp.BetaController.for_instance(inst, beta0=2.5).beta == 2.5

    def test_snapshot_taken_at_first_call(self):
        c = cpcp.BetaController(beta=2.0, s_scale=10.0)
        c.apply_rule(4.0, 1.0)
        assert c.balance == pytest.approx(5.0)  # 2 * 10 * 1 / 4
        assert c.beta == 2.0  # ratio 2.5 sits inside [0.1, 5]
        # later calls keep comparing against the frozen snapshot
        c.apply_rule(1e-12, 1.0)
        assert c.balance == pytest.approx(5.0)

    def test_doubles_when_penalty_far_below_balance(self):
        c = cpcp.BetaController(beta=1.0)
        c.balance = 6.0
        assert c.apply_rule(1.0, 1.0) == 2.0

    def test_halves_when_penalty_far_above_balance(self):
        c = cpcp.BetaController(beta=1.0)
        c.balance = 0.05
        assert c.apply_rule(1.0, 1.0) == 0.5

    def test_holds_inside_band(self):
        c = cpcp.BetaController(beta=1.0)
        c.balance = 1.0
        assert c.apply_rule(1.0, 1.0) == 1.0

    def test_nonpositive_objective_backs_off(self):
        c = cpcp.BetaController(beta=4.0)
        assert c.apply_rule(1.0, 0.0) == 2.0
        assert c.balance is None
        c2 = cpcp.BetaController(beta=4.0)
        assert c2.apply_rule(0.0, 1.0) == 2.0

    def test_bounds_respected(self):
        c = cpcp.BetaController(beta=1.5e-3)
        c.balance = 1e-9
        assert c.apply_rule(1.0, 1.0) == 1e-3
        assert c.apply_rule(1.0, 1.0) == 1e-3
        c = cpcp.BetaController(beta=60.0)
        c.balance = 1e9
        assert c.apply_rule(1.0, 1.0) == 1e2
        assert c.apply_rule(1.0, 1.0) == 1e2

    def test_constructor_clamps_and_validates(self):
        assert cpcp.BetaController(beta=1e9).beta == 1e2
        assert cpcp.BetaController(beta=1e-9).beta == 1e-3
        with pytest.raises(ValueError):
            cpcp.BetaController(beta=0.0)
        with pytest.raises(ValueError):
            cpcp.BetaController(beta=1.0, s_scale=0.0)

    def test_active_window(self):
        c = cpcp.BetaController(beta=1.0)
        assert not c.active(0)
        assert c.active(1)
        assert c.active(30)
        assert not c.active(31)


def weighting(inst, beta, tau=0.99, eta=0.99):
    """The dense weighting G of the CPCP problem at one penalty, built by
    ``gladmm_operator`` from the explicit measurement matrix (A = B), so it
    shares no code with the loop's closed-form G-norm."""
    M = dense_measurement_matrix(inst.meas, inst.m, inst.n)
    prob = SeparableProblem(A=M, B=M, b=inst.b, f_prox=prox.nuclear_oracle(),
                            g_prox=prox.l1_oracle(inst.lam))
    return gladmm_operator(prob, LadmmParams(beta, tau, eta))


def packed(L, S, p):
    return np.concatenate([L.ravel(), S.ravel(), p])


class TestNorms:
    def test_stopping_residual_hand_value(self):
        # the step (ones(2, 2), zeros(2, 2), [3, 4]) has squared norm 4 + 0 + 25
        assert cpcp.stopping_residual(29.0, 0.0) == pytest.approx(math.sqrt(29.0))
        assert cpcp.stopping_residual(29.0, 29.0) == pytest.approx(
            math.sqrt(29.0) / (1.0 + math.sqrt(29.0)))
        assert cpcp.stopping_residual(0.0, 29.0) == 0.0

    def test_triple_gnorm_matches_dense_form(self):
        # the loop's closed form, fed the carried measurements, against the
        # dense quadratic form on a 16 x 16 instance
        inst = small_instance()
        beta, tau, eta = 1.7, 0.9, 0.8
        G = weighting(inst, beta, tau, eta)
        rng = np.random.default_rng(1)
        for _ in range(20):
            dL = rng.normal(size=(16, 16))
            dS = rng.normal(size=(16, 16))
            dp = rng.normal(size=inst.q)
            d = (dL, dS, dp, inst.meas.apply(dL), inst.meas.apply(dS))
            sq = [float(np.vdot(u, u)) for u in (dL, dS, dp)]
            assert _gquad(beta, tau, eta, d, sq) == pytest.approx(
                G.quad(packed(dL, dS, dp)), rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.0, 0.28])
    def test_recorded_gnorms_match_triple_gnorm(self, alpha):
        # the solver weights its steps with carried measurements; rebuild
        # the same triples from truncated runs and measure them afresh
        inst = small_instance()

        def run(k):
            return cpcp.iladmm_cpcp(inst, alpha=alpha, max_iter=k, tol=0.0)

        _, trace = run(12)
        for k in (2, 5, 11):
            G = weighting(inst, trace.extras["beta"][k])
            a = trace.alphas[k]
            prev, cur, nxt = run(k - 1)[0], run(k)[0], run(k + 1)[0]
            d = (cur.L - prev.L, cur.S - prev.S, cur.p - prev.p)
            Lb, Sb, pb = (x + a * dx for x, dx in zip((cur.L, cur.S, cur.p), d))
            step = G.quad(packed(nxt.L - Lb, nxt.S - Sb, nxt.p - pb))
            assert trace.step_residuals[k] == pytest.approx(step, rel=1e-12)

    def test_triple_gnorm_nonnegative_below_unit_steps(self):
        # below unit steps the dense G is positive definite, and a solve at
        # a fixed penalty records no negative step residual
        inst = small_instance()
        assert np.linalg.eigvalsh(weighting(inst, 2.0).matrix).min() > 0.0
        _, trace = cpcp.ladmm_cpcp(inst, controller=cpcp.BetaController(2.0, active_iters=0),
                                   max_iter=50, tol=0.0)
        assert min(trace.step_residuals) >= 0.0

    def test_operator_problem_has_no_dense_weighting(self):
        prob = cpcp.separable_problem(small_instance(), SvtWarmStart())
        with pytest.raises(TypeError, match="matrix data"):
            gladmm_operator(prob, LadmmParams(1.0, 0.99, 0.99))


class TestSolvers:
    def test_zero_measurements_terminate_at_zero(self):
        meas = make_measurement_op("dct2", 8, 8, 20, SeededRng(0).derive("m"))
        inst = cpcp.CpcpInstance(
            m=8, n=8, r=1, nnz=0, kind="dct2", q=20, seed=0,
            lam=cpcp.penalty_weight(8),
            dof=cpcp.degrees_of_freedom(8, 8, 1, 0),
            left=np.zeros((8, 1)), right=np.zeros((1, 8)),
            support=np.zeros(0, dtype=np.int64), values=np.zeros(0),
            meas=meas, b=np.zeros(20),
        )
        state, trace = cpcp.ladmm_cpcp(inst)
        assert state.converged and state.iters == 1
        assert not state.L.any() and not state.S.any() and not state.p.any()

    def test_recovers_planted_components(self):
        inst = cpcp.generate_instance(32, 32, 2, 51, "dct2", 819, 7)
        plain_state, plain_trace = cpcp.ladmm_cpcp(inst)
        inertial_state, inertial_trace = cpcp.iladmm_cpcp(inst, alpha=0.28)
        for state in (plain_state, inertial_state):
            metrics = cpcp.recovery_metrics(state, inst)
            assert state.converged
            assert metrics.rel_l <= 1e-4
            assert metrics.rel_s <= 1e-4
        assert inertial_state.iters < plain_state.iters

    def test_iteration_counts_off_power_of_four_sizes(self):
        # lam = 1/sqrt(m) is a power of two only when m is a power of four;
        # elsewhere the S threshold lam * (eta / beta) may round apart from
        # lam * eta / beta, the order of earlier releases, whose iteration
        # counts these are
        cases = [((32, 32, 2, 51, "dct2", 819, 7), 77, 73),
                 ((40, 24, 2, 48, "fft2", 300, 2), 76, 66)]
        for args, plain, inertial in cases:
            inst = cpcp.generate_instance(*args)
            assert cpcp.ladmm_cpcp(inst)[0].iters == plain
            assert cpcp.iladmm_cpcp(inst, alpha=0.28)[0].iters == inertial

    def test_iteration_counts_wht(self):
        # the WHT trajectories, pinned: the Kronecker-factored kernel rounds
        # unlike the butterflies before it, yet these counts did not move
        cases = [((64, 64, 2, 205, "wht", 1843, 2), 293, 304),
                 ((32, 32, 2, 51, "wht", 819, 5), 74, 76)]
        for args, plain, inertial in cases:
            inst = cpcp.generate_instance(*args)
            assert cpcp.ladmm_cpcp(inst)[0].iters == plain
            assert cpcp.iladmm_cpcp(inst, alpha=0.28)[0].iters == inertial

    @pytest.mark.parametrize("args", [(32, 32, 2, 51, "dct2", 819, 7),
                                      (64, 64, 2, 205, "fft2", 1843, 2)])
    @pytest.mark.parametrize("alpha", [0.0, 0.28])
    def test_certified_svts_match_the_full_svt(self, monkeypatch, args, alpha):
        # every SVT along the trajectory that did not run the full SVD,
        # against the thresholded full SVD (gesdd) of its input
        calls = []

        def spy(z, kappa, warm):
            # copies: the loop reuses the arrays of the points it retires
            out = prox.svt_with_values(z, kappa, warm)
            calls.append((z.copy(), kappa, (out[0].copy(), out[1]), warm.paths[-1]))
            return out

        monkeypatch.setattr(cpcp, "svt_with_values", spy)
        state, trace = cpcp.iladmm_cpcp(cpcp.generate_instance(*args), alpha=alpha)
        assert state.converged
        assert len(calls) == trace.iterations
        assert trace.extras["svt_path"] == [c[3] for c in calls]
        assert trace.extras["svt_rank"] == [int(np.count_nonzero(c[2][1])) for c in calls]
        paths = {c[3] for c in calls}
        assert "top" in paths and "gram" in paths
        for z, kappa, (W, shrunk), path in calls:
            if path == "full":
                continue
            U, s, Vt = np.linalg.svd(z, full_matrices=False)
            shrunk0 = np.maximum(s - kappa, 0.0)
            r = int(np.count_nonzero(shrunk0))
            W0 = (U[:, :r] * shrunk0[:r]) @ Vt[:r]
            assert int(np.count_nonzero(shrunk)) == r
            assert np.abs(shrunk - shrunk0).max() <= 1e-10 * max(shrunk0[0], 1e-300)
            assert np.linalg.norm(W - W0) <= 1e-10 * np.linalg.norm(W0)

    def test_zero_alpha_is_bitwise_plain(self):
        inst = small_instance()
        plain_state, plain_trace = cpcp.ladmm_cpcp(inst, max_iter=60, tol=0.0)
        zero_state, zero_trace = cpcp.iladmm_cpcp(
            inst, alpha=0.0, max_iter=60, tol=0.0
        )
        assert np.array_equal(plain_state.L, zero_state.L)
        assert np.array_equal(plain_state.S, zero_state.S)
        assert np.array_equal(plain_state.p, zero_state.p)
        assert plain_trace.stop_residuals == zero_trace.stop_residuals

    @pytest.mark.parametrize("kind,q", [("dct2", 819), ("wht", 819), ("fft2", 409)])
    @pytest.mark.parametrize("alpha", [0.0, 0.28])
    def test_carried_measurements_do_not_drift(self, kind, q, alpha):
        inst = cpcp.generate_instance(32, 32, 2, 51, kind, q, 5)
        state, trace = cpcp.iladmm_cpcp(inst, alpha=alpha)
        assert state.converged
        fresh = inst.meas.apply(state.L + state.S)
        drift = np.linalg.norm(trace.extras["measurement"] - fresh)
        assert drift <= 1e-12 * np.linalg.norm(fresh)
        assert trace.extras["feasibility"] == pytest.approx(
            np.linalg.norm(fresh - inst.b), rel=1e-6)

    def test_reruns_are_bitwise_identical(self):
        inst = small_instance()
        s1, _ = cpcp.ladmm_cpcp(inst, max_iter=80)
        s2, _ = cpcp.ladmm_cpcp(inst, max_iter=80)
        assert np.array_equal(s1.L, s2.L)
        assert np.array_equal(s1.S, s2.S)

    def test_first_step_solves_its_subproblems(self):
        # replicate the first update from the zero start and certify both
        # shrinkage solves independently
        inst = small_instance()
        controller = cpcp.BetaController.for_instance(inst)
        beta = controller.beta
        tau = eta = 0.99
        U = inst.meas.adjoint(-inst.b)
        Z = -tau * U
        kappa = tau / beta
        L1 = prox.svt_with_values(Z, kappa)[0]
        excess, pairing = _subgradient_certificate(Z, L1, kappa)
        assert excess <= 1e-10
        assert pairing <= 1e-8
        # objective-comparison oracle for the same prox problem
        def value(X):
            s = np.linalg.svd(X, compute_uv=False)
            return kappa * float(s.sum()) + 0.5 * float(np.sum((X - Z) ** 2))
        rng = np.random.default_rng(3)
        base = value(L1)
        for _ in range(50):
            probe = L1 + rng.normal(size=L1.shape) * rng.choice([1e-3, 0.1, 1.0])
            assert base <= value(probe) + 1e-10

    def test_trace_bookkeeping(self):
        inst = small_instance()
        state, trace = cpcp.ladmm_cpcp(inst, max_iter=50, tol=0.0)
        K = trace.iterations
        assert K == 50 and not trace.converged
        for field in (trace.extras["beta"], trace.objective, trace.step_residuals,
                      trace.stop_residuals, trace.alphas):
            assert len(field) == K
        assert all(g >= -1e-10 for g in trace.step_residuals)
        # the objective is read off the prox steps: ||L||_* + lam ||S||_1
        nuclear = float(np.linalg.svd(state.L, compute_uv=False).sum())
        assert trace.objective[-1] == pytest.approx(
            nuclear + inst.lam * float(np.abs(state.S).sum()), rel=1e-12)
        # the stopping residual: the step in the combined (L, S, p) norm,
        # relative to the point it starts from
        prev, _ = cpcp.ladmm_cpcp(inst, max_iter=K - 1, tol=0.0)
        ref = packed(prev.L, prev.S, prev.p)
        step = packed(state.L, state.S, state.p) - ref
        assert trace.stop_residuals[-1] == pytest.approx(
            np.linalg.norm(step) / (1.0 + np.linalg.norm(ref)), rel=1e-12)
        assert "feasibility" in trace.extras
        assert trace.extras["relative_feasibility"] <= trace.extras[
            "feasibility"
        ] / min(1.0, float(np.linalg.norm(inst.b)))
        assert state.iters == K

    def test_penalty_freezes_after_window(self):
        inst = small_instance()
        _, trace = cpcp.ladmm_cpcp(inst, max_iter=80, tol=0.0)
        betas = trace.extras["beta"]
        assert len(set(betas[30:])) == 1
        assert all(1e-3 <= b <= 1e2 for b in betas)

    def test_step_size_validation(self):
        inst = small_instance()
        with pytest.raises(ValueError):
            cpcp.ladmm_cpcp(inst, tau=0.0)
        with pytest.raises(ValueError):
            cpcp.iladmm_cpcp(inst, alpha=1.0)
        with pytest.warns(UserWarning, match="indefinite"):
            cpcp.ladmm_cpcp(inst, tau=1.5, max_iter=2, tol=0.0)


class TestRecoveryMetrics:
    def test_exact_recovery_scores_zero(self):
        inst = small_instance()
        state = cpcp.CpcpState(
            L=inst.L0.copy(), S=inst.S0.copy(),
            p=np.zeros(inst.meas.measurement_dim),
            iters=5, converged=True,
        )
        metrics = cpcp.recovery_metrics(state, inst)
        assert metrics.rel_l == 0.0 and metrics.rel_s == 0.0
        assert metrics.iters == 5 and metrics.converged
        assert set(vars(metrics)) == {"rel_l", "rel_s", "iters", "converged"}

    def test_relative_and_absolute_scaling(self):
        inst = small_instance()
        state = cpcp.CpcpState(
            L=2.0 * inst.L0, S=inst.S0.copy(),
            p=np.zeros(inst.meas.measurement_dim),
        )
        assert cpcp.recovery_metrics(state, inst).rel_l == pytest.approx(1.0)
        # zero truth: the error is reported unnormalized
        inst = dataclasses.replace(inst, support=inst.support[:0], values=inst.values[:0])
        state.S = np.full_like(inst.S0, 0.25)
        assert cpcp.recovery_metrics(state, inst).rel_s == pytest.approx(
            float(np.linalg.norm(state.S))
        )


class TestSubgradientCertificate:
    def test_certifies_true_thresholding(self):
        rng = np.random.default_rng(4)
        for kappa in (0.3, 1.0, 4.0):
            Z = rng.normal(size=(8, 6)) * 2.0
            L1 = prox.svt_with_values(Z, kappa)[0]
            excess, pairing = _subgradient_certificate(Z, L1, kappa)
            assert excess <= 1e-10
            assert pairing <= 1e-8

    def test_flags_wrong_answer(self):
        rng = np.random.default_rng(5)
        Z = rng.normal(size=(6, 6)) * 3.0
        excess, pairing = _subgradient_certificate(Z, np.zeros((6, 6)), 0.1)
        assert excess > 1.0  # spectral norm of Z/kappa is far above 1
