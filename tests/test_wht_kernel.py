"""Property tests: the Walsh-Hadamard kernel against the plain per-stage
butterfly loop kept below as the reference, within a derived bound.

``numkit.fwht`` forms ``H_n x`` as a product of Kronecker factors, one GEMM
per ``f``-entry Sylvester block, and the reference as ``L = log2 n``
butterfly stages; both then divide by ``fl(sqrt(n))``. They round in
different places, so each entry of the two results is held to

    |got - ref| <= (gamma_D + gamma_L + 2 eps) ||x||_1 / sqrt(n),

with ``D = sum(f_i - 1)`` over the factors, ``gamma_k = k eps / (1 - k eps)``
and ``eps`` the machine epsilon. Derivation, in the standard model
``fl(a op b) = (a op b)(1 + d)``, ``|d| <= u = eps / 2``, which holds here
since the drawn magnitudes stay far inside the normal range:

- Every Hadamard entry is +-1, so every product in the GEMMs, fused into
  an FMA or not, is exact. A GEMM output sums ``f`` terms ``+-a_j``; in
  whatever order BLAS adds them, each term meets at most ``f - 1``
  roundings. Through all factors an output is ``sum_j h_ij x_j (1 + t_j)``
  with each ``1 + t_j`` a product of at most ``D`` factors ``1 + d``.
- ``fl(sqrt(n)) = sqrt(n)(1 + d)`` and the division rounds once more, so
  ``got_i = sum_j h_ij x_j (1 + t_j) / sqrt(n)`` with every
  ``|t_j| <= g_(D+2)``, ``g_k = k u / (1 - k u)`` (Higham, *Accuracy and
  Stability of Numerical Algorithms*, Lemma 3.1, divisions included).
- Since ``|h_ij| = 1``, ``|got_i - exact_i| <= g_(D+2) ||x||_1 / sqrt(n)``.
  The reference adds or subtracts two values per stage, so likewise
  ``|ref_i - exact_i| <= g_(L+2) ||x||_1 / sqrt(n)``.
- In units of ``eps``: ``(k + 2) u <= k eps`` for ``k >= 2``, so
  ``g_(k+2) <= gamma_k``, and ``g_3 = 1.5 eps / (1 - 1.5 eps) <= gamma_1
  + eps``. Hence ``g_(D+2) + g_(L+2) <= gamma_D + gamma_L + 2 eps`` for
  ``n >= 2`` (then ``D, L >= 1``). For ``n = 1`` both results are ``x``.
"""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from iprox import numkit  # noqa: E402

MAX_LOG2 = 16
EPS = np.finfo(np.float64).eps


def fwht_reference(vec):
    """Natural-order butterflies, one stage per index bit, low bit first."""
    a = np.asarray(vec, dtype=np.float64).ravel().copy()
    n = a.size
    h = 1
    while h < n:
        a = a.reshape(-1, 2, h)
        s = a[:, 0, :] + a[:, 1, :]
        d = a[:, 0, :] - a[:, 1, :]
        a = np.stack((s, d), axis=1)
        h *= 2
    return a.ravel() / math.sqrt(n)


def gamma(k):
    return k * EPS / (1 - k * EPS)


def assert_within_bound(got, x):
    """``got`` is within the derived bound of the reference transform of
    ``x``, entry by entry."""
    x = x.ravel()
    n = x.size
    k = n.bit_length() - 1
    full, rest = divmod(k, numkit._FACTOR_BITS)
    d = full * ((1 << numkit._FACTOR_BITS) - 1) + ((1 << rest) - 1 if rest else 0)
    bound = (gamma(d) + gamma(k) + 2 * EPS) * np.abs(x).sum() / math.sqrt(n)
    err = np.abs(got.ravel() - fwht_reference(x))
    assert np.all(err <= bound), (err.max(), bound)


def draw(seed, shape, log_scale):
    rng = np.random.default_rng(seed)
    return rng.normal(size=shape) * 10.0 ** rng.uniform(-log_scale, log_scale, size=shape)


seeds = st.integers(0, 2**32 - 1)
scales = st.sampled_from([0.0, 3.0, 100.0])


@settings(max_examples=60, deadline=None)
@given(k=st.integers(0, MAX_LOG2), seed=seeds, log_scale=scales)
@example(k=MAX_LOG2, seed=0, log_scale=0.0)
@example(k=MAX_LOG2, seed=7, log_scale=100.0)
def test_fwht_matches_reference(k, seed, log_scale):
    v = draw(seed, 1 << k, log_scale)
    assert_within_bound(numkit.fwht(v), v)


@st.composite
def shapes(draw_):
    total = draw_(st.integers(0, MAX_LOG2))
    rows = draw_(st.integers(0, total))
    return 1 << rows, 1 << (total - rows)


@settings(max_examples=60, deadline=None)
@given(shape=shapes(), seed=seeds, log_scale=scales)
@example(shape=(1, 8), seed=1, log_scale=0.0)
@example(shape=(8, 1), seed=2, log_scale=0.0)
@example(shape=(4, 64), seed=3, log_scale=0.0)
@example(shape=(2, 512), seed=4, log_scale=0.0)
@example(shape=(64, 64), seed=5, log_scale=0.0)
@example(shape=(256, 256), seed=6, log_scale=0.0)
@example(shape=(128, 256), seed=8, log_scale=100.0)
def test_wht_transform_matches_reference(shape, seed, log_scale):
    X = draw(seed, shape, log_scale)
    for inverse in (False, True):
        got = numkit.orthonormal_transform(numkit.WHT, X, inverse=inverse)
        assert got.shape == shape
        assert_within_bound(got, X)
