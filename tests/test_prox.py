"""Shrinkage-operator and proximal-oracle tests.

Soft thresholding is checked against a brute-force scalar minimizer and
singular value thresholding against both its spectrum identity and an
objective-comparison oracle, keeping every check independent of the
implementation under test.
"""

import contextlib
import inspect
import sys
from unittest import mock

import numpy as np
import pytest

from iprox import numkit, prox
from iprox.numkit import SvtWarmStart, svd


def scalar_prox_oracle(v, kappa, width=3.0, points=200001):
    """Brute-force argmin of kappa |x| + 0.5 (x - v)^2 on a fine grid."""
    grid = np.linspace(v - width, v + width, points)
    vals = kappa * np.abs(grid) + 0.5 * (grid - v) ** 2
    return grid[np.argmin(vals)]


def nuclear_norm(M):
    return float(np.linalg.svd(M, compute_uv=False).sum())


def _prox_values(oracle, z, kappa, probe):
    """The prox objective ``phi(u) + ||u - z||^2/(2 kappa)`` at a probe
    point and at ``eval(z, kappa)``; a correct oracle never puts the first
    below the second."""
    w, _ = oracle.eval(z, kappa)
    z = np.asarray(z, dtype=np.float64)
    probe = np.asarray(probe, dtype=np.float64)

    def val(u):
        return oracle.objective(u) + float(np.sum((u - z) ** 2)) / (2.0 * kappa)

    return val(probe), val(w)


def _prox_objective_gap(oracle, z, kappa, probe):
    """Slack of the prox optimality inequality at a probe point."""
    at_probe, at_prox = _prox_values(oracle, z, kappa, probe)
    return at_probe - at_prox


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
            out = prox.svt_with_values(M, 0.8)[0]
            _, s_out, _ = svd(out)
            want = prox.soft_threshold(s_in, 0.8)
            assert np.abs(np.sort(s_out) - np.sort(want)).max() < 1e-10

    def test_objective_comparison(self):
        # svt must beat random perturbations on kappa ||X||_* + 0.5 ||X-M||_F^2
        rng = np.random.default_rng(3)
        M = rng.normal(size=(7, 6))
        kappa = 0.9
        X = prox.svt_with_values(M, kappa)[0]
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
        assert np.all(prox.svt_with_values(M, s[0] + 1.0)[0] == 0.0)


class TestOracles:
    def probe_gap(self, oracle, rng, n=6, trials=20):
        worst = np.inf
        for _ in range(trials):
            z = rng.normal(size=n)
            kappa = float(rng.uniform(0.1, 3.0))
            probe = rng.normal(size=n)
            worst = min(worst, _prox_objective_gap(oracle, z, kappa, probe))
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
from hypothesis import example, given, settings  # noqa: E402
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
# the two values are about -2.1e5 and differ by -1.2e-10 in rounding
@example(kind="quadratic", weight=0.0, seed=2411, shape=(1, 7), kappa=6.0, step=1e-6)
def test_prox_objective_gap_nonnegative(kind, weight, seed, shape, kappa, step):
    oracle = make_oracle(kind, weight, seed, shape)
    dims = shape if kind != "quadratic" else shape[0] * shape[1]
    z = draw(seed, dims)
    w, _ = oracle.eval(z, kappa)
    rng = np.random.default_rng(seed + 3)
    for probe in (w + step * rng.normal(size=np.shape(w)), draw(seed + 4, dims)):
        at_probe, at_prox = _prox_values(oracle, z, kappa, probe)
        # rounding scales with the size of the compared values
        assert at_probe - at_prox >= -1e-12 * max(1.0, abs(at_probe), abs(at_prox))


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


# property tests of the warm-started SVT: whatever state it is handed, it
# returns the thresholded full SVD (gesdd) within 1e-10, or falls back to
# the paths tried without a state


def gesdd_svt(Z, kappa):
    U, s, Vt = np.linalg.svd(Z, full_matrices=False)
    shrunk = np.maximum(s - kappa, 0.0)
    r = int(np.count_nonzero(shrunk))
    return (U[:, :r] * shrunk[:r]) @ Vt[:r], shrunk


def spectral_matrix(seed, shape, top, kappa, tail=0.9):
    """A matrix with ``top`` singular values in [1.5, 10] kappa and the
    rest in [0, tail] kappa, so the threshold sits in a spectral gap; also
    returns its singular vectors on the Gram side, where the top path's
    basis lives (the right ones of a tall or square input, the left ones
    of a wide one), by singular value."""
    rng = np.random.default_rng(seed)
    m, n = shape
    p = min(m, n)
    U = np.linalg.qr(rng.normal(size=(m, p)))[0]
    V = np.linalg.qr(rng.normal(size=(n, p)))[0]
    s = np.sort(np.concatenate([rng.uniform(1.5, 10.0, top),
                                rng.uniform(0.0, tail, p - top)]))[::-1] * kappa
    return (U * s) @ V.T, (U if m < n else V)


@contextlib.contextmanager
def top_starts():
    """Log, per call of the top path, whether its start basis has the
    Gram matrix's size, so that the subspace iteration runs."""
    log, real = [], numkit._top_pairs

    def spy(g, k2, delta, warm):
        log.append(warm is not None and warm.basis is not None
                   and warm.basis.shape[0] == g.shape[0])
        return real(g, k2, delta, warm)

    with mock.patch.object(numkit, "_top_pairs", spy):
        yield log


def lines_run(func, call):
    """The line numbers of ``func`` that ran during ``call()``, and what
    ``call()`` returned."""
    ran, prior = set(), sys.gettrace()

    def local(frame, event, arg):
        if event == "line":
            ran.add(frame.f_lineno)
        return local

    sys.settrace(lambda frame, event, arg: local if frame.f_code is func.__code__ else None)
    try:
        out = call()
    finally:
        sys.settrace(prior)
    return ran, out


def line_of(func, text):
    """The number of the first line of ``func`` that contains ``text``."""
    lines, first = inspect.getsourcelines(func)
    return first + next(i for i, line in enumerate(lines) if text in line)


def assert_same_svt(got, want):
    (W, shrunk), (W0, shrunk0) = got, want
    r = int(np.count_nonzero(shrunk0))
    assert shrunk.shape == shrunk0.shape
    assert int(np.count_nonzero(shrunk)) == r
    if r == 0:
        assert not W.any()
        return
    assert np.abs(shrunk[:r] - shrunk0[:r]).max() <= 1e-10 * shrunk0[0]
    assert np.linalg.norm(W - W0) <= 1e-10 * np.linalg.norm(W0)


svt_shapes = st.tuples(st.integers(32, 48), st.integers(32, 48))


@settings(max_examples=60, deadline=None)
@given(seed=seeds, shape=svt_shapes, top=st.integers(0, 8),
       kappa=st.floats(0.1, 10.0),
       start=st.sampled_from(["nearby", "unrelated", "too_small"]))
def test_warm_svt_matches_full_svt(seed, shape, top, kappa, start):
    Z, gram_side = spectral_matrix(seed, shape, top, kappa)
    if start == "nearby":
        # the state of a solve whose iterates approach Z
        warm = SvtWarmStart()
        noise = np.random.default_rng(seed + 1).normal(size=shape)
        for scale in (1e-4, 1e-8):
            prox.svt_with_values(Z + scale * kappa * noise, kappa, warm)
    elif start == "unrelated":
        warm = SvtWarmStart()
        other, _ = spectral_matrix(seed + 1, shape, 8 - top, 2.0 * kappa)
        prox.svt_with_values(other, 2.0 * kappa, warm)
    else:
        # a predicted rank below the true one: k = rank + margin Ritz
        # values all exceed kappa
        rank = max(0, top - numkit._MARGIN)
        warm = SvtWarmStart(rank=rank, basis=gram_side[:, :top])
    with top_starts() as started:
        got = prox.svt_with_values(Z, kappa, warm)
    assert_same_svt(got, gesdd_svt(Z, kappa))
    assert warm.ranks[-1] == int(np.count_nonzero(got[1]))
    if start == "too_small":
        assert started == [True]
        if top >= numkit._MARGIN:
            assert warm.paths[-1] != "top"


@settings(max_examples=30, deadline=None)
@given(seed=seeds, shape=svt_shapes, kappa=st.floats(0.1, 10.0),
       above=st.floats(1e-9, 1e-2))
def test_warm_svt_falls_back_when_a_value_above_kappa_is_missed(seed, shape,
                                                                kappa, above):
    # a third singular value just above kappa whose vector the start
    # basis leaves out: the Ritz triplets are exact and below kappa past
    # the second, so only the Cholesky test can see the missed value
    Z, V = spectral_matrix(seed, shape, 2, kappa, tail=0.5)
    # V holds the right singular vectors of Z, or of Z' when Z is wide
    wide = shape[0] < shape[1]
    U = (Z.T if wide else Z) @ V
    U[:, 2] *= kappa * (1.0 + above) / np.linalg.norm(U[:, 2])
    Z = (V @ U.T) if wide else (U @ V.T)
    k = 2 + numkit._MARGIN
    warm = SvtWarmStart(rank=2, basis=np.delete(V, 2, axis=1)[:, :k])
    with top_starts() as started:
        got = prox.svt_with_values(Z, kappa, warm)
    assert started == [True]
    assert warm.paths == ["gram"]
    assert int(np.count_nonzero(got[1])) == 3
    assert_same_svt(got, gesdd_svt(Z, kappa))


@settings(max_examples=30, deadline=None)
@given(seed=seeds, shape=svt_shapes, bad=st.sampled_from([np.nan, np.inf, -np.inf]))
def test_warm_svt_rejects_non_finite_input_like_the_full_svt(seed, shape, bad):
    Z, _ = spectral_matrix(seed, shape, 2, 1.0)
    warm = SvtWarmStart()
    prox.svt_with_values(Z, 1.0, warm)
    Z[seed % shape[0], seed % shape[1]] = bad
    with pytest.raises(ValueError) as full:
        prox.svt_with_values(Z, 1.0)
    with pytest.raises(ValueError) as warm_started:
        prox.svt_with_values(Z, 1.0, warm)
    with pytest.raises(ValueError) as gesdd:
        svd(Z)
    with pytest.raises(ValueError) as gram:
        svd(Z, above=1.0)
    assert str(warm_started.value) == str(full.value) == str(gesdd.value) == str(gram.value)


def test_warm_svt_certifies_a_repeated_input():
    # tall and wide: the basis lives on the 40-long Gram side either way
    for shape in ((48, 40), (40, 48)):
        Z, _ = spectral_matrix(11, shape, 3, 1.0)
        warm = SvtWarmStart()
        first = prox.svt_with_values(Z, 1.0, warm)
        # without a usable state the SVT takes the path it takes without
        # a state, bit for bit
        plain = prox.svt_with_values(Z, 1.0)
        assert np.array_equal(first[0], plain[0]) and np.array_equal(first[1], plain[1])
        second = prox.svt_with_values(Z, 1.0, warm)
        assert warm.paths == ["gram", "top"]
        assert warm.ranks == [3, 3]
        assert warm.basis.shape == (40, 3 + numkit._MARGIN)
        assert_same_svt(second, plain)


# property tests of the Gram path: the SVT from eigh of the smaller Gram
# matrix is accepted only when it matches the thresholded full SVD
# (gesdd); near-threshold or badly scaled inputs go to the full SVD


def with_spectrum(seed, shape, s):
    rng = np.random.default_rng(seed)
    m, n = shape
    U = np.linalg.qr(rng.normal(size=(m, s.size)))[0]
    V = np.linalg.qr(rng.normal(size=(n, s.size)))[0]
    return (U * s) @ V.T


gram_shapes = st.sampled_from(["square", "tall", "wide"]).flatmap(
    lambda kind: st.integers(32, 48).flatmap(
        lambda a: st.integers(32, 48).map(
            lambda b: {"square": (a, a), "tall": (max(a, b) + 1, min(a, b)),
                       "wide": (min(a, b), max(a, b) + 1)}[kind])))


@settings(max_examples=60, deadline=None)
@given(seed=seeds, shape=gram_shapes, top=st.integers(0, 8),
       kappa=st.floats(0.1, 10.0))
def test_gram_svt_matches_gesdd(seed, shape, top, kappa):
    Z, _ = spectral_matrix(seed, shape, top, kappa)
    warm = SvtWarmStart()
    svd(Z, above=kappa, warm=warm)
    assert warm.paths == ["gram"]
    warm = SvtWarmStart()
    got = prox.svt_with_values(Z, kappa, warm)
    assert warm.paths == ["gram"]
    assert_same_svt(got, gesdd_svt(Z, kappa))
    assert got[0].shape == shape and got[1].shape == (min(shape),)


@settings(max_examples=40, deadline=None)
@given(seed=seeds, shape=gram_shapes, top=st.integers(1, 8),
       kappa=st.floats(0.1, 10.0), side=st.sampled_from([-1.0, 1.0]),
       warm_start=st.booleans())
def test_gram_svt_refuses_a_value_at_the_threshold(seed, shape, top, kappa, side,
                                                   warm_start):
    # a singular value at kappa (1 +- 1e-12) lies inside the gap test's
    # window, which s_1 = 10 kappa makes wider than 2e-12 kappa^2
    rng = np.random.default_rng(seed)
    p = min(shape)
    s = np.sort(np.concatenate([rng.uniform(1.5, 10.0, top - 1), [10.0],
                                rng.uniform(0.0, 0.9, p - top - 1)]))[::-1]
    s = np.insert(s, top, 1.0 + side * 1e-12) * kappa
    Z = with_spectrum(seed, shape, s)
    warm = SvtWarmStart()
    if warm_start:
        # the true top vectors of the Gram side, the value at the
        # threshold and the one below it among them: the top path sees
        # them exactly
        U, _, Vt = np.linalg.svd(Z, full_matrices=False)
        rank = max(top + 2 - numkit._MARGIN, 0)
        basis = (U if shape[0] < shape[1] else Vt.T)[:, :rank + numkit._MARGIN]
        warm = SvtWarmStart(rank=rank, basis=basis)
    got = prox.svt_with_values(Z, kappa, warm)
    assert warm.paths == ["full"]
    want = gesdd_svt(Z, kappa)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


@settings(max_examples=20, deadline=None)
@given(seed=seeds, shape=gram_shapes, top=st.integers(1, 8),
       ratio=st.floats(1e4, 1e8))
def test_gram_svt_refuses_a_large_ratio_to_kappa(seed, shape, top, ratio):
    # s_1 / kappa beyond the bound that the residual test could meet
    Z, _ = spectral_matrix(seed, shape, top, 1.0)
    kappa = float(np.linalg.norm(Z, 2)) / ratio
    warm = SvtWarmStart()
    got = prox.svt_with_values(Z, kappa, warm)
    assert warm.paths == ["full"]
    want = gesdd_svt(Z, kappa)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def test_gram_svt_reorders_near_equal_kept_values():
    # two equal kept values: the norms of W put them out of order by
    # rounding, and the path sorts the triplets
    Z = with_spectrum(0, (48, 40), np.array([5.0, 3.0, 3.0] + [0.5] * 37))
    warm = SvtWarmStart()
    ran, got = lines_run(numkit._accept, lambda: prox.svt_with_values(Z, 2.0, warm))
    assert line_of(numkit._accept, "s[:r], w, vr = s[order]") in ran
    assert warm.paths == ["gram"]
    assert_same_svt(got, gesdd_svt(Z, 2.0))


def test_gram_svt_refuses_when_only_the_residual_test_fails(monkeypatch):
    Z, _ = spectral_matrix(5, (36, 44), 3, 1.0)
    warm = SvtWarmStart()
    prox.svt_with_values(Z, 1.0, warm)
    assert warm.paths == ["gram"]
    # a tolerance no residual meets: checks 1 and 2 still pass, 3 refuses
    monkeypatch.setattr(numkit, "_GRAM_TOL", 1e-20)
    warm = SvtWarmStart()
    ran, got = lines_run(numkit._accept, lambda: prox.svt_with_values(Z, 1.0, warm))
    assert line_of(numkit._accept, "np.linalg.norm(omega * s[:r]) <= bound") + 1 in ran
    assert warm.paths == ["full"]
    want = gesdd_svt(Z, 1.0)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
