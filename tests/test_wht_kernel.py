"""Property tests: the Walsh-Hadamard kernel is bitwise identical to the
plain per-stage butterfly loop kept below as the reference."""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from iprox import numkit  # noqa: E402

MAX_LOG2 = 16


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


def draw(seed, shape, log_scale):
    rng = np.random.default_rng(seed)
    return rng.normal(size=shape) * 10.0 ** rng.uniform(-log_scale, log_scale, size=shape)


seeds = st.integers(0, 2**32 - 1)
scales = st.sampled_from([0.0, 3.0, 100.0])


@settings(max_examples=60, deadline=None)
@given(k=st.integers(0, MAX_LOG2), seed=seeds, log_scale=scales)
@example(k=MAX_LOG2, seed=0, log_scale=0.0)
def test_fwht_matches_reference(k, seed, log_scale):
    v = draw(seed, 1 << k, log_scale)
    assert np.array_equal(numkit.fwht(v), fwht_reference(v))


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
def test_wht_transform_matches_reference(shape, seed, log_scale):
    X = draw(seed, shape, log_scale)
    want = fwht_reference(X.ravel()).reshape(shape)
    for inverse in (False, True):
        got = numkit.orthonormal_transform(numkit.WHT, X, inverse=inverse)
        assert got.shape == shape
        assert np.array_equal(got, want)
