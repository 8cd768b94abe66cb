"""Shrinkage-operator and proximal-oracle tests.

Soft thresholding is checked against a brute-force scalar minimizer and
singular value thresholding against both its spectrum identity and an
objective-comparison oracle, keeping every check independent of the
implementation under test.
"""

import numpy as np
import pytest

from iprox import prox
from iprox.numkit import svd


def scalar_prox_oracle(v, kappa, width=3.0, points=200001):
    """Brute-force argmin of kappa |x| + 0.5 (x - v)^2 on a fine grid."""
    grid = np.linspace(v - width, v + width, points)
    vals = kappa * np.abs(grid) + 0.5 * (grid - v) ** 2
    return grid[np.argmin(vals)]


def nuclear_norm(M):
    return float(np.linalg.svd(M, compute_uv=False).sum())


class TestSoftThreshold:
    def test_matches_grid_search(self):
        for v in (-2.3, -0.4, 0.0, 0.7, 1.9):
            for kappa in (0.0, 0.3, 1.1):
                got = prox.soft_threshold(np.array([v]), kappa)[0]
                want = scalar_prox_oracle(v, kappa)
                assert abs(got - want) < 1e-4

    def test_exact_form(self):
        v = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
        out = prox.soft_threshold(v, 1.0)
        assert np.array_equal(out, np.array([-1.0, 0.0, 0.0, 0.0, 1.0]))

    def test_zero_threshold_is_identity(self):
        rng = np.random.default_rng(0)
        v = rng.normal(size=(4, 5))
        assert np.array_equal(prox.soft_threshold(v, 0.0), v)

    def test_shrinks_toward_zero(self):
        rng = np.random.default_rng(1)
        v = rng.normal(size=100)
        out = prox.soft_threshold(v, 0.4)
        assert np.all(np.abs(out) <= np.abs(v) + 1e-15)
        assert np.all(out * v >= 0.0)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            prox.soft_threshold(np.zeros(3), -0.1)


class TestSvt:
    def test_spectrum_identity(self):
        rng = np.random.default_rng(2)
        for shape in [(6, 6), (8, 5)]:
            M = rng.normal(size=shape)
            _, s_in, _ = svd(M)
            out = prox.svt(M, 0.8)
            _, s_out, _ = svd(out)
            want = prox.soft_threshold(s_in, 0.8)
            assert np.abs(np.sort(s_out) - np.sort(want)).max() < 1e-10

    def test_objective_comparison(self):
        # svt must beat random perturbations on kappa ||X||_* + 0.5 ||X-M||_F^2
        rng = np.random.default_rng(3)
        M = rng.normal(size=(7, 6))
        kappa = 0.9
        X = prox.svt(M, kappa)
        base = kappa * nuclear_norm(X) + 0.5 * np.sum((X - M) ** 2)
        for _ in range(50):
            Y = X + rng.normal(size=X.shape) * rng.choice([1e-3, 1e-1, 1.0])
            other = kappa * nuclear_norm(Y) + 0.5 * np.sum((Y - M) ** 2)
            assert base <= other + 1e-10

    def test_svt_with_values_returns_shrunk_spectrum(self):
        rng = np.random.default_rng(4)
        M = rng.normal(size=(5, 5))
        out, shrunk = prox.svt_with_values(M, 0.5)
        _, s_out, _ = svd(out)
        assert np.abs(np.sort(s_out) - np.sort(shrunk)).max() < 1e-10
        assert nuclear_norm(out) == pytest.approx(float(shrunk.sum()), abs=1e-10)

    def test_large_threshold_gives_zero(self):
        rng = np.random.default_rng(5)
        M = rng.normal(size=(4, 4))
        _, s, _ = svd(M)
        assert np.all(prox.svt(M, s[0] + 1.0) == 0.0)


class TestProjectBox:
    def test_clamps_and_broadcasts(self):
        v = np.array([-3.0, 0.5, 4.0])
        out = prox.project_box(v, -1.0, 1.0)
        assert np.array_equal(out, np.array([-1.0, 0.5, 1.0]))
        out = prox.project_box(v, np.array([-5.0, 0.8, 0.0]), 5.0)
        assert np.array_equal(out, np.array([-3.0, 0.8, 4.0]))

    def test_infeasible_box_rejected(self):
        with pytest.raises(ValueError):
            prox.project_box(np.zeros(2), 1.0, -1.0)


class TestOracles:
    def probe_gap(self, oracle, rng, n=6, trials=20):
        worst = np.inf
        for _ in range(trials):
            z = rng.normal(size=n)
            kappa = float(rng.uniform(0.1, 3.0))
            probe = rng.normal(size=n)
            worst = min(worst, prox.prox_objective_gap(oracle, z, kappa, probe))
        return worst

    def test_l1_oracle(self):
        rng = np.random.default_rng(6)
        oracle = prox.l1_oracle(weight=0.7)
        assert self.probe_gap(oracle, rng) >= -1e-10
        w = rng.normal(size=5)
        assert oracle.objective(w) == pytest.approx(0.7 * np.abs(w).sum())

    def test_quadratic_oracle_solves_stationarity(self):
        rng = np.random.default_rng(7)
        R = rng.normal(size=(5, 5))
        P = R @ R.T + np.eye(5)
        c = rng.normal(size=5)
        oracle = prox.quadratic_oracle(P, c)
        z = rng.normal(size=5)
        kappa = 0.8
        w, value = oracle.eval(z, kappa)
        # stationarity: P w + c + (w - z) / kappa = 0
        grad = P @ w + c + (w - z) / kappa
        assert np.abs(grad).max() < 1e-10
        assert oracle.objective(w) == pytest.approx(
            0.5 * w @ P @ w + c @ w, abs=1e-12
        )
        assert value == oracle.objective(w)

    def test_nuclear_oracle_matrix_shape(self):
        rng = np.random.default_rng(9)
        oracle = prox.nuclear_oracle(weight=1.2)
        Z = rng.normal(size=(5, 4))
        W, value = oracle.eval(Z, 0.5)
        assert W.shape == Z.shape
        assert value == pytest.approx(1.2 * nuclear_norm(W), abs=1e-10)
        assert oracle.objective(W) == pytest.approx(1.2 * nuclear_norm(W), abs=1e-10)


# property tests of the oracle contract: ``eval`` returns the point and
# the function value there, and the point minimizes the prox objective

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

seeds = st.integers(0, 2**32 - 1)
shapes = st.tuples(st.integers(1, 8), st.integers(1, 8))
kappas = st.floats(1e-3, 10.0)
weights = st.floats(0.0, 5.0)


def draw(seed, shape):
    rng = np.random.default_rng(seed)
    return rng.normal(size=shape) * 10.0 ** rng.uniform(-2.0, 2.0)


def make_oracle(kind, weight, seed, shape):
    if kind == "l1":
        return prox.l1_oracle(weight)
    if kind == "nuclear":
        return prox.nuclear_oracle(weight)
    n = shape[0] * shape[1]
    R = np.random.default_rng(seed + 1).normal(size=(n, n))
    return prox.quadratic_oracle(R @ R.T * weight, draw(seed + 2, n))


oracle_kinds = st.sampled_from(["l1", "nuclear", "quadratic"])


@settings(max_examples=150, deadline=None)
@given(kind=oracle_kinds, weight=weights, seed=seeds, shape=shapes, kappa=kappas)
def test_oracle_value_is_objective_at_point(kind, weight, seed, shape, kappa):
    oracle = make_oracle(kind, weight, seed, shape)
    z = draw(seed, shape if kind != "quadratic" else shape[0] * shape[1])
    w, value = oracle.eval(z, kappa)
    assert value == pytest.approx(oracle.objective(w), rel=1e-12, abs=1e-300)


@settings(max_examples=150, deadline=None)
@given(kind=oracle_kinds, weight=weights, seed=seeds, shape=shapes, kappa=kappas,
       step=st.sampled_from([1e-6, 1e-2, 1.0, 10.0]))
def test_prox_objective_gap_nonnegative(kind, weight, seed, shape, kappa, step):
    oracle = make_oracle(kind, weight, seed, shape)
    dims = shape if kind != "quadratic" else shape[0] * shape[1]
    z = draw(seed, dims)
    w, _ = oracle.eval(z, kappa)
    rng = np.random.default_rng(seed + 3)
    for probe in (w + step * rng.normal(size=np.shape(w)), draw(seed + 4, dims)):
        gap = prox.prox_objective_gap(oracle, z, kappa, probe)
        assert gap >= -1e-10


@settings(max_examples=150, deadline=None)
@given(seed=seeds, shape=shapes, kappa=kappas)
def test_svt_spectrum_is_thresholded_input_spectrum(seed, shape, kappa):
    M = draw(seed, shape)
    _, s_in, _ = svd(M)
    W, shrunk = prox.svt_with_values(M, kappa)
    assert np.array_equal(shrunk, prox.soft_threshold(s_in, kappa))
    _, s_out, _ = svd(W)
    assert np.allclose(np.sort(s_out), np.sort(shrunk), rtol=0.0,
                       atol=1e-12 * max(1.0, float(s_in.max(initial=0.0))))
