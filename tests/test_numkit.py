"""Transform, measurement-operator, SVD, and RNG tests.

The DCT is checked against an explicitly constructed cosine matrix and
the Walsh-Hadamard transform against hand-computed 4-point values, so
the library implementations never certify themselves.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from iprox import numkit


def dct2_matrix(n):
    """Explicit orthonormal DCT-II matrix: C[k, j] = c_k cos(pi (2j+1) k / 2n)."""
    C = np.zeros((n, n))
    for k in range(n):
        ck = np.sqrt(1.0 / n) if k == 0 else np.sqrt(2.0 / n)
        for j in range(n):
            C[k, j] = ck * np.cos(np.pi * (2 * j + 1) * k / (2.0 * n))
    return C


def hadamard_matrix(n):
    H = np.array([[1.0]])
    while H.shape[0] < n:
        H = np.block([[H, H], [H, -H]])
    return H / np.sqrt(n)


class TestTransforms:
    def test_dct2_matches_cosine_matrix(self):
        rng = np.random.default_rng(0)
        for n, m in [(4, 4), (8, 8), (8, 6)]:
            X = rng.normal(size=(m, n))
            expect = dct2_matrix(m) @ X @ dct2_matrix(n).T
            got = numkit.orthonormal_transform(numkit.DCT2, X)
            assert np.abs(got - expect).max() < 1e-13

    def test_dct2_inverse_round_trip(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(8, 8))
        Y = numkit.orthonormal_transform(numkit.DCT2, X)
        back = numkit.orthonormal_transform(numkit.DCT2, Y, inverse=True)
        assert np.abs(back - X).max() < 1e-13

    def test_fwht_hand_values(self):
        # columns of the order-4 orthonormal Hadamard matrix
        out = numkit.fwht(np.array([1.0, 0.0, 0.0, 0.0]))
        assert np.abs(out - np.array([0.5, 0.5, 0.5, 0.5])).max() < 1e-15
        out = numkit.fwht(np.array([0.0, 1.0, 0.0, 0.0]))
        assert np.abs(out - np.array([0.5, -0.5, 0.5, -0.5])).max() < 1e-15

    def test_fwht_matches_hadamard_matrix(self):
        rng = np.random.default_rng(2)
        for n in (2, 8, 16):
            v = rng.normal(size=n)
            assert np.abs(numkit.fwht(v) - hadamard_matrix(n) @ v).max() < 1e-12

    def test_fwht_self_inverse_and_parseval(self):
        rng = np.random.default_rng(3)
        v = rng.normal(size=32)
        w = numkit.fwht(v)
        assert np.abs(numkit.fwht(w) - v).max() < 1e-12
        assert abs(w @ w - v @ v) < 1e-12

    def test_fwht_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            numkit.fwht(np.zeros(6))

    def test_wht_2d_round_trip(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(8, 4))
        Y = numkit.orthonormal_transform(numkit.WHT, X)
        back = numkit.orthonormal_transform(numkit.WHT, Y, inverse=True)
        assert np.abs(back - X).max() < 1e-12

    def test_wht_repeats_bitwise_across_calls_and_threads(self):
        # the factor order is fixed and the block is built once, so a
        # serial pass, a second one and the grid's two-thread pool agree
        rng = np.random.default_rng(5)
        images = [rng.normal(size=(s, s)) for s in (64, 256, 64, 256, 256, 64)]

        def wht(x):
            return numkit.orthonormal_transform(numkit.WHT, x)

        serial = [wht(x) for x in images]
        again = [wht(x) for x in images]
        with ThreadPoolExecutor(2) as pool:
            threaded = list(pool.map(wht, images * 3))
        assert all(np.array_equal(a, b) for a, b in zip(serial * 4, again + threaded))

    def test_fft2_unitary(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(8, 8))
        Y = numkit.orthonormal_transform(numkit.FFT2, X)
        assert abs(np.vdot(Y, Y).real - np.sum(X * X)) < 1e-10
        back = numkit.orthonormal_transform(numkit.FFT2, Y, inverse=True)
        assert np.abs(back.real - X).max() < 1e-12

    @pytest.mark.parametrize("kind", [numkit.DCT2, numkit.WHT])
    def test_real_transforms_reject_complex_input(self, kind):
        with pytest.raises(ValueError, match="takes real input, got complex128"):
            numkit.orthonormal_transform(kind, np.ones((4, 4)) + 1j * np.eye(4))


class TestFftHalfDomain:
    def test_small_grid_enumeration(self):
        # for 4x4 the self-conjugate cells are (0,0),(0,2),(2,0),(2,2)
        idx = numkit.fft2_half_domain(4, 4)
        assert idx.size == (16 - 4) // 2
        rows, cols = np.unravel_index(idx, (4, 4))
        for r, c in zip(rows, cols):
            rr, cc = (-r) % 4, (-c) % 4
            assert (r, c) < (rr, cc)

    def test_no_conjugate_pairs_and_no_self_conjugates(self):
        for m, n in [(4, 6), (8, 8), (2, 4)]:
            idx = numkit.fft2_half_domain(m, n)
            taken = set(int(i) for i in idx)
            rows, cols = np.unravel_index(idx, (m, n))
            for r, c in zip(rows, cols):
                rr, cc = (-r) % m, (-c) % n
                assert (rr, cc) != (r, c)
                assert int(rr * n + cc) not in taken


class TestMeasurementOp:
    def _ops(self, rng):
        return [
            numkit.make_measurement_op(numkit.DCT2, 8, 8, 20, rng.derive("d")),
            numkit.make_measurement_op(numkit.WHT, 8, 8, 20, rng.derive("w")),
            numkit.make_measurement_op(numkit.FFT2, 8, 8, 12, rng.derive("f")),
        ]

    def test_row_orthonormality(self):
        rng = numkit.SeededRng(10)
        for op in self._ops(rng):
            g = rng.derive("probe-" + op.kind)
            for _ in range(10):
                y = g.normal(op.measurement_dim)
                assert np.abs(op.apply(op.adjoint(y)) - y).max() < 1e-12

    def test_adjointness(self):
        rng = numkit.SeededRng(11)
        for op in self._ops(rng):
            g = rng.derive("pair-" + op.kind)
            for _ in range(10):
                x = g.normal(8, 8)
                y = g.normal(op.measurement_dim)
                lhs = float(op.apply(x) @ y)
                rhs = float(np.sum(x * op.adjoint(y)))
                assert abs(lhs - rhs) < 1e-10

    def test_measurement_dim(self):
        rng = numkit.SeededRng(12)
        d, w, f = self._ops(rng)
        assert d.measurement_dim == 20 and w.measurement_dim == 20
        assert f.q == 12 and f.measurement_dim == 24

    def test_energy_preserved_on_sampled_rows(self):
        rng = numkit.SeededRng(13)
        for op in self._ops(rng):
            g = rng.derive("energy-" + op.kind)
            x = g.normal(8, 8)
            # A A* = I makes A* A an orthogonal projector
            px = op.adjoint(op.apply(x))
            assert np.sum(px * px) <= np.sum(x * x) + 1e-10
            assert np.abs(op.adjoint(op.apply(px)) - px).max() < 1e-10

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            numkit.MeasurementOp(numkit.DCT2, 4, 4, np.array([3, 1]))
        with pytest.raises(ValueError):
            numkit.MeasurementOp(numkit.DCT2, 4, 4, np.array([0, 16]))
        with pytest.raises(ValueError):
            numkit.MeasurementOp(numkit.WHT, 6, 4, np.array([0, 1]))
        with pytest.raises(ValueError):
            numkit.MeasurementOp(numkit.DCT2, 4, 4, np.array([], dtype=int))
        # (1,1) is conjugate to (3,3); only one of them is representative
        bad = np.array([1 * 4 + 1, 3 * 4 + 3])
        with pytest.raises(ValueError):
            numkit.MeasurementOp(numkit.FFT2, 4, 4, bad)

    def test_apply_rejects_complex_image(self):
        for op in self._ops(numkit.SeededRng(15)):
            with pytest.raises(ValueError, match="real images"):
                op.apply(np.ones((8, 8)) + 1j * np.eye(8))

    def test_indices_read_only(self):
        op = numkit.MeasurementOp(numkit.DCT2, 4, 4, np.array([0, 5]))
        with pytest.raises(ValueError):
            op.indices[0] = 3

    def test_sampling_bounds_and_determinism(self):
        rng1 = numkit.SeededRng(14)
        rng2 = numkit.SeededRng(14)
        op1 = numkit.make_measurement_op(numkit.DCT2, 8, 8, 30, rng1)
        op2 = numkit.make_measurement_op(numkit.DCT2, 8, 8, 30, rng2)
        assert np.array_equal(op1.indices, op2.indices)
        with pytest.raises(ValueError):
            numkit.make_measurement_op(numkit.DCT2, 4, 4, 17, numkit.SeededRng(0))
        with pytest.raises(ValueError):
            # fft2 has only (16 - 4) / 2 = 6 usable rows on a 4x4 grid
            numkit.make_measurement_op(numkit.FFT2, 4, 4, 7, numkit.SeededRng(0))


@st.composite
def op_shapes(draw):
    """A kind, an image shape (any up to 17 x 17, powers of two up to
    16 x 32 for wht) and a measurement count the kind can sample."""
    kind = draw(st.sampled_from(numkit.KINDS))
    if kind == numkit.WHT:
        rows, cols = 1 << draw(st.integers(0, 4)), 1 << draw(st.integers(0, 5))
    else:
        rows, cols = draw(st.integers(1, 17)), draw(st.integers(1, 17))
    pool = (numkit.fft2_half_domain(rows, cols).size if kind == numkit.FFT2
            else rows * cols)
    assume(pool >= 1)
    return kind, rows, cols, draw(st.integers(1, pool))


@settings(max_examples=120, deadline=None)
@given(spec=op_shapes(), seed=st.integers(0, 2**32 - 1))
@example(spec=(numkit.DCT2, 5, 12, 31), seed=0)
@example(spec=(numkit.DCT2, 17, 9, 153), seed=1)
@example(spec=(numkit.FFT2, 7, 10, 34), seed=2)
@example(spec=(numkit.FFT2, 1, 17, 8), seed=3)
@example(spec=(numkit.WHT, 16, 32, 300), seed=4)
@example(spec=(numkit.WHT, 1, 8, 5), seed=5)
def test_measurement_identities_on_any_shape(spec, seed):
    kind, rows, cols, q = spec
    rng = numkit.SeededRng(seed)
    op = numkit.make_measurement_op(kind, rows, cols, q, rng.derive("op"))
    x = rng.derive("x").normal(rows, cols)
    y = rng.derive("y").normal(op.measurement_dim)
    # rows are orthonormal: A A* = I
    assert np.abs(op.apply(op.adjoint(y)) - y).max() < 1e-12
    # adjointness: <A x, y> = <x, A* y>
    assert abs(float(op.apply(x) @ y) - float(np.sum(x * op.adjoint(y)))) < 1e-10


class TestSvd:
    def test_reconstruction_and_orthogonality(self):
        rng = np.random.default_rng(20)
        for shape in [(6, 6), (9, 5), (4, 11)]:
            M = rng.normal(size=shape)
            # below the Gram path's size, every triplet comes from gesdd
            U, s, V = numkit.svd(M, above=0.0)
            k = min(shape)
            assert U.shape == (shape[0], k) and V.shape == (shape[1], k)
            assert np.abs((U * s) @ V.T - M).max() < 1e-12
            assert np.abs(U.T @ U - np.eye(k)).max() < 1e-12
            assert np.abs(V.T @ V - np.eye(k)).max() < 1e-12
            assert np.all(np.diff(s) <= 0) and np.all(s >= 0)

    def test_known_spectrum(self):
        M = np.diag([3.0, 2.0, 1.0])[:, ::-1]
        _, s, _ = numkit.svd(M, above=0.0)
        assert np.abs(s - np.array([3.0, 2.0, 1.0])).max() < 1e-13

    def test_rejects_non_finite(self):
        M = np.ones((3, 3))
        M[1, 1] = np.nan
        with pytest.raises(ValueError):
            numkit.svd(M, above=1.0)
        with pytest.raises(ValueError, match="non-finite"):
            numkit.singular_values(M)

    def test_singular_values_match_svd(self):
        rng = np.random.default_rng(21)
        for shape in [(6, 6), (9, 5), (4, 11)]:
            M = rng.normal(size=shape)
            s = numkit.singular_values(M)
            assert s.shape == (min(shape),)
            assert np.abs(s - numkit.svd(M, above=0.0)[1]).max() < 1e-12
        with pytest.raises(ValueError, match="2-D"):
            numkit.singular_values(np.ones(3))


class TestSeededRng:
    def test_determinism_and_stream_independence(self):
        a = numkit.SeededRng(7)
        b = numkit.SeededRng(7)
        assert np.array_equal(a.normal(5), b.normal(5))
        c = numkit.SeededRng(7).derive("one")
        d = numkit.SeededRng(7).derive("two")
        assert not np.array_equal(c.normal(5), d.normal(5))
        # deriving does not disturb the parent stream
        e = numkit.SeededRng(7)
        e.derive("anything")
        assert np.array_equal(e.normal(5), numkit.SeededRng(7).normal(5))

    def test_derive_same_label_same_stream(self):
        x = numkit.SeededRng(9).derive("sub").normal(4)
        y = numkit.SeededRng(9).derive("sub").normal(4)
        assert np.array_equal(x, y)

    def test_uniform_bounds(self):
        g = numkit.SeededRng(5)
        v = g.uniform(-10.0, 10.0, 1000)
        assert v.min() >= -10.0 and v.max() <= 10.0
        with pytest.raises(ValueError):
            g.uniform(1.0, 1.0, 3)

    def test_choice_without_replacement(self):
        g = numkit.SeededRng(6)
        picked = g.choice_without_replacement(10, 6)
        assert picked.size == 6
        assert np.all(np.diff(picked) > 0)
        assert picked.min() >= 0 and picked.max() < 10
        with pytest.raises(ValueError):
            g.choice_without_replacement(4, 5)

    def test_normal_shapes(self):
        g = numkit.SeededRng(8)
        assert g.normal(3).shape == (3,)
        assert g.normal(3, 2).shape == (3, 2)
