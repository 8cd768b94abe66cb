"""Alternating-direction solver tests.

The random QP fixture carries an exact KKT solution from a dense solve,
so fixed-point, convergence, and certificate checks all compare against
that independent oracle. The dense weighting G is pinned to a
hand-computed 3x3 matrix, and the solver's closed-form G-norms are checked
against it through the engine run on the mixed-VI form.
"""

import warnings

import numpy as np
import pytest

from iprox import checks, cpcp
from iprox import splitting as sp
from iprox.fixtures import random_qp
from iprox.numkit import SeededRng, SvtWarmStart
from iprox.prox import l1_oracle
from iprox.vi_core import (
    InertialSchedule,
    MixedViProblem,
    ProbeSet,
    WeightOperator,
    run_inertial_ppa,
)


def tiny_qp(seed=100, n1=3, n2=3, m=2):
    return random_qp(n1, n2, m, SeededRng(seed))


def safe_params(prob, beta=1.0, frac=0.9):
    return sp.LadmmParams(
        beta=beta, tau=frac / prob.rho_ata, eta=frac / prob.rho_btb
    )


def consensus_problem():
    # min |x|_1 + 2 |y|_1  s.t.  x + y = b, identity couplings
    return sp.SeparableProblem(
        A=np.eye(2),
        B=np.eye(2),
        b=np.array([1.0, -2.0]),
        f_prox=l1_oracle(1.0),
        g_prox=l1_oracle(2.0),
    )


class TestSeparableProblem:
    def test_dimensions_and_values(self):
        prob, _ = tiny_qp()
        assert (prob.n1, prob.n2, prob.m) == (3, 3, 2)
        x, y = np.ones(3), np.ones(3)
        assert np.allclose(
            prob.feasibility(x, y), prob.A @ x + prob.B @ y - prob.b
        )
        Pf, cf = prob.f_quad
        Pg, cg = prob.g_quad
        want = 0.5 * x @ Pf @ x + cf @ x + 0.5 * y @ Pg @ y + cg @ y
        assert prob.objective(x, y) == pytest.approx(want, abs=1e-12)

    def test_spectral_radii_match_singular_values(self):
        prob, _ = tiny_qp()
        assert prob.rho_ata == pytest.approx(
            np.linalg.svd(prob.A, compute_uv=False)[0] ** 2, abs=1e-12
        )
        assert prob.rho_btb == pytest.approx(
            np.linalg.svd(prob.B, compute_uv=False)[0] ** 2, abs=1e-12
        )

    def test_row_mismatch_rejected(self):
        with pytest.raises(ValueError):
            sp.SeparableProblem(
                A=np.zeros((2, 2)),
                B=np.zeros((3, 2)),
                b=np.zeros(2),
                f_prox=l1_oracle(),
                g_prox=l1_oracle(),
            )

    def test_split_gives_block_views(self):
        prob, _ = tiny_qp(n1=3, n2=2, m=4)
        w = np.arange(9.0)
        x, y, p = prob.split(w)
        assert (x.size, y.size, p.size) == (3, 2, 4)
        assert all(np.shares_memory(u, w) for u in (x, y, p))
        assert np.array_equal(np.concatenate([x, y, p]), w)

    def test_zeros_point(self):
        prob, _ = tiny_qp()
        z = sp.zeros_point(prob)
        assert z.shape == (prob.n1 + prob.n2 + prob.m,)
        assert not z.any()


class TestLadmmParams:
    def test_positivity(self):
        for bad in [(0.0, 1.0, 1.0), (1.0, -1.0, 1.0), (1.0, 1.0, 0.0)]:
            with pytest.raises(ValueError):
                sp.LadmmParams(*bad)


class TestWeightings:
    def test_hand_computed_matrix(self):
        # n1 = n2 = m = 1, A = B = [1], beta = 1, tau = eta = 1/2:
        # G = [[beta (1/tau - 1), 0, 0], [0, beta/eta, -1], [0, -1, 1/beta]]
        prob = sp.SeparableProblem(
            A=np.array([[1.0]]),
            B=np.array([[1.0]]),
            b=np.array([0.0]),
            f_prox=l1_oracle(),
            g_prox=l1_oracle(),
        )
        params = sp.LadmmParams(beta=1.0, tau=0.5, eta=0.5)
        G = sp.gladmm_operator(prob, params)
        want = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
        assert np.allclose(G.matrix, want, atol=1e-15)
        w = np.ones(3)
        assert G.quad(w) == pytest.approx(2.0, abs=1e-15)
        assert np.allclose(G.apply(w), want @ w, atol=1e-15)

    def test_weighting_is_built_once_per_problem_and_parameters(self):
        prob, _ = tiny_qp()
        params = safe_params(prob)
        G = sp.gladmm_operator(prob, params)
        assert sp.gladmm_operator(prob, sp.LadmmParams(params.beta, params.tau,
                                                       params.eta)) is G
        assert not G.matrix.flags.writeable
        other = sp.gladmm_operator(prob, safe_params(prob, beta=2.0))
        assert other is not G and not np.array_equal(other.matrix, G.matrix)
        # a problem with the same data has its own weightings
        twin = sp.SeparableProblem(prob.A, prob.B, prob.b, prob.f_prox, prob.g_prox)
        assert sp.gladmm_operator(twin, params) is not G

    def test_linearized_weighting_positive_definite(self):
        prob, _ = tiny_qp()
        G = sp.gladmm_operator(prob, safe_params(prob))
        eigs = np.linalg.eigvalsh(G.matrix)
        assert eigs.min() > 0

    def test_step_bound_warnings(self):
        prob, _ = tiny_qp()
        with pytest.warns(UserWarning, match="indefinite"):
            sp.run_ladmm(prob, sp.LadmmParams(1.0, 2.0 / prob.rho_ata, 0.5 / prob.rho_btb),
                         max_iter=1)
        with pytest.warns(UserWarning, match="semidefinite"):
            sp.run_ladmm(prob, sp.LadmmParams(1.0, 1.0 / prob.rho_ata, 0.5 / prob.rho_btb),
                         max_iter=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sp.run_ladmm(prob, safe_params(prob), max_iter=1)


class TestMixedViForm:
    def test_f_is_skew_monotone(self):
        prob, _ = tiny_qp()
        vi = prob.mixed_vi
        rng = np.random.default_rng(1)
        for _ in range(20):
            u = rng.normal(size=vi.dim)
            v = rng.normal(size=vi.dim)
            assert abs((u - v) @ (vi.F(u) - vi.F(v))) < 1e-10

    def test_saddle_point_solves_vi(self):
        prob, star = tiny_qp()
        vi = prob.mixed_vi
        # at the KKT point: theta(w) - theta(w*) + <w - w*, F(w*)> >= 0
        rng = np.random.default_rng(2)
        base = vi.F(star)
        for _ in range(50):
            w = star + rng.normal(size=vi.dim) * 2.0
            assert vi.theta(w) - vi.theta(star) + (w - star) @ base >= -1e-8

    def test_resolvent_needs_quadratic_data(self):
        vi = consensus_problem().mixed_vi
        with pytest.raises(sp.ExactSubproblemError):
            vi.resolvent(np.zeros(vi.dim), None)


class TestSteps:
    def test_fixed_point_of_linearized_step(self):
        prob, star = tiny_qp()
        out = sp.ladmm_step(prob, safe_params(prob), star)
        assert np.abs(out - star).max() < 1e-9

    def test_zero_alpha_is_bitwise_plain(self):
        prob, _ = tiny_qp()
        params = safe_params(prob)
        rng = np.random.default_rng(3)
        w, w_prev = rng.normal(size=8), rng.normal(size=8)
        plain = sp.ladmm_step(prob, params, w)
        wbar, inertial = sp.iladmm_step(prob, params, w, w_prev, 0.0)
        assert np.array_equal(wbar, w)
        assert np.array_equal(plain, inertial)

    def test_zero_start_blocks_share_no_memory(self):
        # the loop writes into the blocks of its start point
        blocks = sp._carried(tiny_qp()[0], None)
        assert all(not np.shares_memory(u, v)
                   for i, u in enumerate(blocks) for v in blocks[i + 1 :])

    def test_extrapolation_covers_all_blocks(self):
        prob, _ = tiny_qp()
        w = sp.zeros_point(prob)
        wbar, _ = sp.iladmm_step(prob, safe_params(prob), w, -np.ones(w.size), 0.5)
        for block in prob.split(wbar):
            assert np.allclose(block, 0.5)

    def test_negative_alpha_rejected(self):
        prob, _ = tiny_qp()
        w = sp.zeros_point(prob)
        with pytest.raises(ValueError):
            sp.iladmm_step(prob, safe_params(prob), w, w, -0.1)


class TestProximalEquivalence:
    def test_linearized_step_is_resolvent_step(self):
        # one linearized step from any point equals the exact resolvent of
        # the optimality VI under the linearized weighting
        prob, _ = tiny_qp()
        params = safe_params(prob)
        vi = prob.mixed_vi
        G = sp.gladmm_operator(prob, params)
        rng = np.random.default_rng(4)
        for _ in range(5):
            w = rng.normal(size=vi.dim)
            via_vi = vi.resolvent(w, G)
            via_step = sp.ladmm_step(prob, params, w)
            assert np.abs(via_vi - via_step).max() < 1e-10

    def test_trajectories_coincide(self):
        # the engine on the optimality VI and the inertial solver record
        # the same trace, up to rounding
        prob, _ = tiny_qp()
        params = safe_params(prob)
        vi = prob.mixed_vi
        G = sp.gladmm_operator(prob, params)
        for alpha in (0.0, 0.28):
            schedule = InertialSchedule.constant(alpha)
            engine = run_inertial_ppa(vi, G, schedule, np.zeros(vi.dim),
                                      tol=0.0, max_iter=50)
            direct = sp.run_iladmm(prob, params, schedule, tol=0.0, max_iter=50)
            worst = max(
                np.abs(a - b).max()
                for a, b in zip(engine.iterates, direct.iterates)
            )
            assert worst < 1e-10
            for name in ("step_residuals", "stop_residuals"):
                got, want = getattr(engine, name), getattr(direct, name)
                assert len(got) == len(want) == 50
                np.testing.assert_allclose(got, want, rtol=1e-8, atol=0.0)


class TestRuns:
    def test_plain_run_reaches_kkt_solution(self):
        prob, star = tiny_qp()
        trace = sp.run_ladmm(prob, safe_params(prob), tol=1e-10, max_iter=5000)
        assert trace.converged
        assert np.abs(trace.iterates[-1] - star).max() < 1e-7
        assert np.array_equal(trace.extras["final"], trace.iterates[-1])

    def test_inertial_run_reaches_kkt_solution(self):
        prob, star = tiny_qp()
        trace = sp.run_iladmm(
            prob, safe_params(prob), InertialSchedule.constant(0.28),
            tol=1e-10, max_iter=5000,
        )
        assert trace.converged
        assert np.abs(trace.iterates[-1] - star).max() < 1e-7

    def test_zero_alpha_run_is_bitwise_plain(self):
        prob, _ = tiny_qp()
        params = safe_params(prob)
        plain = sp.run_ladmm(prob, params, tol=0.0, max_iter=40)
        inertial = sp.run_iladmm(
            prob, params, InertialSchedule.constant(0.0), tol=0.0, max_iter=40,
        )
        for a, b in zip(plain.iterates, inertial.iterates):
            assert np.array_equal(a, b)
        for name in ("step_residuals", "stop_residuals", "objective"):
            assert np.array_equal(getattr(plain, name), getattr(inertial, name))

    def test_runs_follow_their_named_steps(self):
        # the runs carry A x and B y through the loop, where ladmm_step and
        # iladmm_step apply A and B again; at 0.28 the loop extrapolates the
        # carried products, so the iterates agree up to rounding
        prob, _ = random_qp(8, 8, 8, SeededRng(3000))  # criterion 2's first fixture
        params = safe_params(prob)
        plain = sp.run_ladmm(prob, params, tol=0.0, max_iter=50)
        inertial = sp.run_iladmm(prob, params, InertialSchedule.constant(0.28),
                                 tol=0.0, max_iter=50)
        assert len(plain.iterates) == len(inertial.iterates) == 51
        w = w_inertial = w_prev = sp.zeros_point(prob)
        for want_plain, want_inertial in zip(plain.iterates[1:], inertial.iterates[1:]):
            w = sp.ladmm_step(prob, params, w)
            assert np.abs(w - want_plain).max() <= 1e-12
            _, w_next = sp.iladmm_step(prob, params, w_inertial, w_prev, 0.28)
            w_prev, w_inertial = w_inertial, w_next
            assert np.abs(w_inertial - want_inertial).max() <= 1e-12

    def test_distance_contraction(self):
        # phi_{k+1} <= phi_k - ||w_{k+1} - w_k||_G^2 on the plain iteration
        prob, star = tiny_qp(seed=101)
        trace = sp.run_ladmm(
            prob, safe_params(prob), tol=0.0, max_iter=300, w_star=star,
        )
        phi = np.asarray(trace.phi)
        res = np.asarray(trace.step_residuals)
        assert np.all(phi[1:] <= phi[:-1] - res + 1e-10)

    def test_trace_lengths(self):
        prob, star = tiny_qp()
        trace = sp.run_ladmm(
            prob, safe_params(prob), tol=0.0, max_iter=15, w_star=star,
        )
        assert trace.iterations == 15
        assert len(trace.iterates) == 16
        assert len(trace.phi) == 16
        assert len(trace.step_residuals) == 15
        assert all(a == 0.0 for a in trace.alphas)

    def test_phi_is_the_dense_distance_over_the_iterates(self):
        prob, star = tiny_qp()
        params = safe_params(prob)
        trace = sp.run_ladmm(prob, params, tol=0.0, max_iter=15, w_star=star)
        G = sp.gladmm_operator(prob, params)
        assert trace.phi == [G.quad(w - star) for w in trace.iterates]

    def test_phi_needs_matrix_data(self):
        inst = cpcp.generate_instance(8, 8, 1, 3, "dct2", 40, 0)
        prob = cpcp.separable_problem(inst, SvtWarmStart())
        with pytest.raises(TypeError, match="matrix data"):
            sp.run_ladmm(prob, sp.LadmmParams(1.0, 0.99, 0.99), tol=0.0, max_iter=2,
                         w_star=np.zeros(2 * 64 + inst.q))

    def test_step_characterization_reads_the_run(self, monkeypatch):
        # criterion 1 checks the pairs of a run's trace, not a separate step
        def refuse(*args):
            raise AssertionError("ladmm_step called")

        monkeypatch.setattr(sp, "ladmm_step", refuse)
        assert checks.step_characterization(0.1).ok


class TestCertificates:
    def test_step_variational_slack(self):
        prob, star = tiny_qp()
        params = safe_params(prob)
        w = np.random.default_rng(5).normal(size=8)
        w1 = sp.ladmm_step(prob, params, w)
        probes = sp.sample_probes(prob, star, 3.0, 100, SeededRng(6))
        assert sp.vi_residual_check(prob, params, w, w1, probes) >= -1e-8

    def test_probes_are_block_draws_around_center(self):
        # one draw of length n1 + n2 + m per probe is the three block
        # draws x, y, p in a row
        prob, star = tiny_qp(n1=3, n2=2, m=4)
        probes = sp.sample_probes(prob, star, 1.5, 4, SeededRng(9))
        rng = SeededRng(9)
        for probe in probes:
            want = star + np.concatenate([rng.uniform(-1.5, 1.5, n)
                                          for n in (prob.n1, prob.n2, prob.m)])
            assert np.array_equal(probe, want)

    def test_ergodic_gap_certificate(self):
        prob, star = tiny_qp()
        params = safe_params(prob)
        trace = sp.run_ladmm(prob, params, tol=0.0, max_iter=220)
        probes = sp.sample_probes(prob, star, 2.0, 25, SeededRng(7))
        report = sp.ergodic_report(trace, prob, params, probes, ks=[50, 100, 200])
        assert report.ok and report.violations == []
        for k in report.ks:
            assert len(report.gaps[k]) == 25

    def test_ergodic_report_validation(self):
        prob, star = tiny_qp()
        params = safe_params(prob)
        trace = sp.run_ladmm(prob, params, tol=0.0, max_iter=10)
        probes = sp.sample_probes(prob, star, 1.0, 2, SeededRng(8))
        with pytest.raises(ValueError):
            sp.ergodic_report(trace, prob, params, probes, ks=[50])
        trace.iterates = None
        with pytest.raises(ValueError):
            sp.ergodic_report(trace, prob, params, probes, ks=[5])

    def test_probes_of_another_problem_are_refused(self):
        prob, star = tiny_qp()
        other, _ = tiny_qp()  # the same data, but another problem
        params = safe_params(prob)
        trace = sp.run_ladmm(prob, params, tol=0.0, max_iter=10)
        probes = sp.sample_probes(other, star, 1.0, 2, SeededRng(8))
        with pytest.raises(ValueError, match="another problem"):
            sp.ergodic_report(trace, prob, params, probes, ks=[5])
        w1 = sp.ladmm_step(prob, params, star)
        with pytest.raises(ValueError, match="another problem"):
            sp.vi_residual_check(prob, params, star, w1, probes)

    def test_nonergodic_certificate(self):
        # small penalty keeps the residual decay slow enough that the
        # whole trace stays above rounding noise
        prob, star = random_qp(4, 4, 3, SeededRng(20240814).derive("qp"))
        params = sp.LadmmParams(
            beta=0.1, tau=0.9 / prob.rho_ata, eta=0.9 / prob.rho_btb
        )
        trace = sp.run_ladmm(prob, params, tol=0.0, max_iter=500, w_star=star)
        report = sp.nonergodic_report(trace, prob, params, star)
        assert report.ok
        assert report.monotonicity_violations == []
        assert report.bound_violations == []
        assert np.all(report.scaled <= report.phi0 + 1e-8)
        # the scaled residual keeps falling: o(1/k), not just O(1/k)
        assert report.scaled[499] < report.scaled[49]

    def test_nonergodic_rejects_inertial_trace(self):
        prob, star = tiny_qp()
        params = safe_params(prob)
        trace = sp.run_iladmm(
            prob, params, InertialSchedule.constant(0.2), tol=0.0, max_iter=10,
        )
        with pytest.raises(ValueError):
            sp.nonergodic_report(trace, prob, params, star)


class TestLagrangians:
    def test_hand_values(self):
        prob = consensus_problem()
        x, y, p = np.array([1.0, 0.0]), np.array([0.0, -1.0]), np.array([2.0, 1.0])
        r = x + y - prob.b  # identity couplings
        want = 1.0 + 2.0 - float(p @ r)  # |x|_1 + 2 |y|_1 - <p, r>
        assert sp.lagrangian(prob, x, y, p) == pytest.approx(want, abs=1e-12)


def _qp_fixtures(count):
    # the 8 x 8 x 8 QP fixtures and probe streams of criterion 1
    return [(*random_qp(8, 8, 8, SeededRng(1000 + seed)), SeededRng(2000 + seed))
            for seed in range(count)]


def _close(got, want):
    return abs(got - want) <= 1e-12 * max(1.0, abs(want))


class TestProbeSets:
    def test_values_are_the_mixed_vi_objective_bitwise(self):
        prob, star = tiny_qp(n1=3, n2=2, m=4)
        probes = sp.sample_probes(prob, star, 1.5, 6, SeededRng(9))
        theta = prob.mixed_vi.theta
        assert probes.points.shape == (6, 9) and probes.theta.shape == (6,)
        for j, row in enumerate(probes):
            assert np.array_equal(row, probes.points[j])
            assert probes.theta[j] == theta(row)

    def test_batched_slacks_match_a_per_probe_loop(self):
        for prob, star, rng in _qp_fixtures(5):
            params = safe_params(prob)
            probes = sp.sample_probes(prob, star, 2.0, 100, rng)
            vi = prob.mixed_vi
            G = sp.gladmm_operator(prob, params)
            w = sp.zeros_point(prob)
            for _ in range(10):
                w1 = sp.ladmm_step(prob, params, w)
                base = vi.F(w1) + G.apply(w1 - w)
                want = [vi.theta(v) - vi.theta(w1) + float((v - w1) @ base)
                        for v in probes.points]
                for j in range(len(want)):
                    one = ProbeSet(probes.points[j : j + 1], probes.theta[j : j + 1], prob)
                    assert _close(sp.vi_residual_check(prob, params, w, w1, one), want[j])
                assert _close(sp.vi_residual_check(prob, params, w, w1, probes), min(want))
                w = w1

    def test_ergodic_gaps_match_a_per_probe_lagrangian(self):
        for prob, star, rng in _qp_fixtures(3):
            params = safe_params(prob)
            trace = sp.run_ladmm(prob, params, tol=0.0, max_iter=220)
            probes = sp.sample_probes(prob, star, 2.0, 50, rng)
            report = sp.ergodic_report(trace, prob, params, probes, ks=[50, 100, 200])
            G = sp.gladmm_operator(prob, params).matrix

            def lag(x, y, p):
                return prob.objective(x, y) - float(p @ (prob.A @ x + prob.B @ y - prob.b))

            for k in report.ks:
                xb, yb, pb = prob.split(np.mean(trace.iterates[1 : k + 2], axis=0))
                for j, v in enumerate(probes.points):
                    x, y, p = prob.split(v)
                    d = v - trace.iterates[0]
                    assert _close(report.gaps[k][j], lag(xb, yb, p) - lag(x, y, pb))
                    assert _close(report.bounds[k][j], float(d @ G @ d) / (2.0 * (k + 1)))

    def test_objective_is_evaluated_once_per_probe(self, monkeypatch):
        calls = []
        objective = sp.SeparableProblem.objective

        def counted(self, x, y):
            calls.append(1)
            return objective(self, x, y)

        monkeypatch.setattr(sp.SeparableProblem, "objective", counted)
        prob, star, rng = _qp_fixtures(1)[0]
        params = safe_params(prob)
        probes = sp.sample_probes(prob, star, 2.0, 100, rng)
        assert len(calls) == 100
        w = sp.zeros_point(prob)
        for _ in range(10):
            w1 = sp.ladmm_step(prob, params, w)
            sp.vi_residual_check(prob, params, w, w1, probes)
            w = w1
        assert len(calls) == 110  # one more per step, at the new iterate
        calls.clear()
        # criterion 1 at scale 1: 20 fixtures x 100 probes, plus one value
        # per step at 20 x 10 steps (not 20 x 10 x 101)
        assert checks.step_characterization(1.0).ok
        assert len(calls) == 20 * 100 + 20 * 10

    def test_criterion_1_builds_the_mixed_vi_form_once_per_fixture(self, monkeypatch):
        built = []

        def counted(**fields):
            built.append(fields)
            return MixedViProblem(**fields)

        monkeypatch.setattr(sp, "MixedViProblem", counted)
        # 20 fixtures x 10 steps: one build per fixture, not one per step
        assert checks.step_characterization(1.0).ok
        assert len(built) == 20

    def test_criterion_1_builds_the_dense_weighting_once_per_fixture(self, monkeypatch):
        built = []

        def counted(G):
            built.append(1)
            return WeightOperator(G)

        monkeypatch.setattr(sp, "WeightOperator", counted)
        # 20 fixtures x 10 steps at one parameter set each
        assert checks.step_characterization(1.0).ok
        assert len(built) == 20
