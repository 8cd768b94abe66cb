"""Dense numerical kernels shared by the solver modules.

Matrices are plain 2-D float64 numpy arrays throughout the package. This
module provides the singular value decomposition used by the shrinkage
operators, orthonormal 2-D transforms (DCT-II, Walsh-Hadamard, DFT),
partial measurement operators built from randomly selected transform
coefficients, and a seeded random source with named substreams.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np
from scipy import fft as _spfft

RNG_ALGORITHM = "pcg64"

DCT2 = "dct2"
WHT = "wht"
FFT2 = "fft2"
KINDS = (DCT2, WHT, FFT2)

_SQRT2 = math.sqrt(2.0)


class SvdError(RuntimeError):
    """Raised when the SVD backend fails to converge."""


def as_matrix(a, name="matrix"):
    """Coerce to a finite 2-D float64 array, copying only if needed."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} has non-finite entries")
    return m


def svd(mat, above=None):
    """Thin singular value decomposition ``mat = U @ diag(s) @ V.T``.

    Parameters
    ----------
    mat : (m, n) array_like
        Real matrix with finite entries.
    above : float, optional
        Only the triplets whose singular values exceed ``above`` are
        wanted, as by singular value thresholding at ``above``.

    Returns
    -------
    U : (m, k) ndarray
    s : (k,) ndarray
        Singular values in nonincreasing order, ``k = min(m, n)``.
    V : (n, k) ndarray
    path : str
        Only with ``above``: ``"gram"`` or ``"full"``, the path taken.

    ``U`` and ``V`` have orthonormal columns and the reconstruction error
    is at machine-precision scale relative to ``max(1, ||mat||_F)``.

    With ``above``, and at least ``_GRAM_MIN`` rows and columns, the
    decomposition is first tried from the Gram matrix (see
    :func:`_gram_svd`). If that path is accepted, the ``r`` singular
    values above ``above`` are exactly ``s[:r]``, and the first ``r``
    columns of ``U`` and ``V`` are their vectors, within ``2e-11 s[0]`` of
    the exact thresholded product. One of ``U`` and ``V`` then has only
    those ``r`` columns, and ``s[r:]`` are estimates. Otherwise the full
    SVD (LAPACK ``gesdd``) runs, exactly as without ``above``.
    """
    m = as_matrix(mat, "svd input")
    if above is not None and min(m.shape) >= _GRAM_MIN:
        out = _gram_svd(m, above)
        if out is not None:
            return out + ("gram",)
    try:
        u, s, vh = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise _svd_error(m) from exc
    if above is not None:
        return u, s, vh.T, "full"
    return u, s, vh.T


_EPS = float(np.finfo(np.float64).eps)
# Below 32 on the smaller side, the Gram path's dozen small array calls
# cost more than gesdd: with a third of the values kept, it took 1.1-3.1
# times as long at 4-24, 1.04 at 32, 0.77 at 48-64 and 0.5-0.6 at
# 128-256 (2 CPUs, OpenBLAS 0.3.31)
_GRAM_MIN = 32
# Gap multiplier c. The computed Gram eigenvalues are those of Z'Z + E:
# forming Z'Z adds an error at most m eps ||Z||_F^2 (the inner products are
# m long), and syevd is backward stable with an error of order n eps ||G||_2
# <= n eps ||Z||_F^2. So |lambda_i - sigma_i^2| <= (m + n) eps ||Z||_F^2
# up to the constants of those first-order bounds, which c = 10 covers. On
# the 389 SVT inputs of a 256^2 DCT2 solve pair, the eigenvalue nearest
# kappa^2 lay at least 19 such deltas (c = 10) away.
_GRAM_GAP = 10.0
# Tolerance T, relative to s_1, on ||R||_F and ||Omega S_r||_F (see
# _gram_svd); by the bound derived there, the thresholded output is then
# within 2 T s_1 of the exact one, 2e-11 s_1. On the same 389 inputs both
# norms stayed below 1.1e-12 s_1, a tenth of T.
_GRAM_TOL = 1e-11
# The residual of a kept triplet has a rounding floor of about
# rho eps s_1^2 / s_i <= rho eps (s_1 / kappa) s_1, rho <= 5 on CPCP inputs,
# so the residual test cannot pass for s_1 / kappa beyond about T / (5 eps).
# Past T / (8 eps), about 5.6e3, the path stops before recomposing.
_GRAM_RATIO = _GRAM_TOL / (8.0 * _EPS)


def _gram_svd(z, kappa):
    """The singular triplets of ``z`` above ``kappa`` from ``eigh(Z'Z)``,
    or ``None``.

    ``Z`` is the input, transposed when wide, so ``G = Z'Z`` is the
    smaller Gram. From ``lambda, V = eigh(G)``, the ``r`` eigenvalues
    above ``kappa^2`` are kept, ``W = Z V_r``, ``s_i = ||w_i||`` and
    ``U_r = W / s``. The result is accepted only if all three checks hold:

    1. *Gap test*: no eigenvalue lies within
       ``delta = c (m + n) eps ||Z||_F^2`` of ``kappa^2``, and every kept
       ``s_i`` exceeds ``kappa``. Each computed eigenvalue is within
       ``delta`` of a squared singular value (Weyl's inequality), so
       exactly ``r`` singular values exceed ``kappa``. The computed V is
       an eigenbasis of a ``G + F`` with ``||F||_2 <= delta`` (up to the
       rounding of its orthonormality), so also ``||Z x|| < kappa`` for
       every unit ``x`` orthogonal to ``V_r``.
    2. *Ratio bound*: ``s_1 / kappa <= _GRAM_RATIO``, past which the
       squaring has lost the accuracy that check 3 asks for.
    3. *Residual and orthonormality*: for ``R = Z'U_r - V_r S_r`` and
       ``Omega = U_r'U_r - I``, both ``||R||_F`` and ``||Omega S_r||_F``
       (column ``j`` of Omega scaled by ``s_j``) are at most
       ``T s_1``, ``T = _GRAM_TOL``.

    Why the output is then exact. Let ``Q = U_r H^-1`` be the orthonormal
    polar factor of ``U_r``, ``H = (U_r'U_r)^(1/2) = I + Omega/2 + ...``.
    ``Y = Q S_r V_r' + (I - QQ')Z(I - V_r V_r')`` has the triplets
    ``(q_i, s_i, v_i)`` and, by check 1, all its other singular values
    below ``kappa``, so its thresholding is ``Q D V_r'`` with
    ``D = S_r - kappa I``. Since ``Z V_r = U_r S_r`` and
    ``Q'Z(I - V_r V_r') = H^-1 R'(I - V_r V_r')``, to first order
    ``||Z - Y||_F <= ||Omega S_r||_F / 2 + ||R||_F``, and
    ``||U_r D V_r' - Q D V_r'||_F <= ||Omega D||_F / 2``. Thresholding is
    nonexpansive, so the output ``U_r D V_r'`` is within
    ``||R||_F + ||Omega S_r||_F <= 2 T s_1`` of the exact one. Check 3
    weights Omega by ``S_r`` because the loss of orthogonality between
    two columns is about ``eps s_1^2 / (s_i s_j)``: up to ``eps (s_1 /
    kappa)^2``, 2.4e-10 on a 256^2 DCT2 solve, where ``Omega S_r`` stays
    below 1e-12 ``s_1``.

    Returns ``(U, s, V)`` as :func:`svd` does, with ``s`` in
    nonincreasing order: the kept values first, then the square roots of
    the other eigenvalues, and the Gram side's full eigenbasis (``V`` of
    a tall input, ``U`` of a wide one).
    """
    m, n = z.shape
    wide = m < n
    t = z.T if wide else z
    g = t.T @ t
    # ||Z||_F^2 from the Gram's diagonal, each entry a sum of squares
    delta = _GRAM_GAP * (m + n) * _EPS * float(np.trace(g))
    try:
        lam, vecs = np.linalg.eigh(g)
    except np.linalg.LinAlgError:
        return None
    del g
    lam, vecs = lam[::-1], vecs[:, ::-1]
    k2 = kappa * kappa
    if not np.abs(lam - k2).min() > delta:
        return None
    if not lam[0] <= (_GRAM_RATIO * kappa) ** 2:
        return None
    r = int(np.count_nonzero(lam > k2))
    s = np.sqrt(np.maximum(lam, 0.0))
    vr = vecs[:, :r]
    w = t @ vr
    s[:r] = np.linalg.norm(w, axis=0)
    if not np.all(s[:r] > kappa):
        return None
    # the kept values come from W, not from the eigenvalues, and may fall
    # out of order by rounding where two of them nearly coincide
    order = np.argsort(-s[:r], kind="stable")
    if np.any(order != np.arange(r)):
        s[:r], w, vr = s[order], w[:, order], vr[:, order]
        vecs = np.hstack([vr, vecs[:, r:]])
    ur = w / s[:r]
    del w
    bound = _GRAM_TOL * s[0]
    res = t.T @ ur
    res -= vr * s[:r]
    omega = ur.T @ ur
    omega.flat[::r + 1] -= 1.0
    if not (np.linalg.norm(res) <= bound and np.linalg.norm(omega * s[:r]) <= bound):
        return None
    return (vecs, s, ur) if wide else (ur, s, vecs)


def singular_values(mat):
    """Singular values of ``mat`` in nonincreasing order, without the
    vectors; same input check and :class:`SvdError` as :func:`svd`."""
    m = as_matrix(mat, "svd input")
    try:
        return np.linalg.svd(m, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise _svd_error(m) from exc


def _svd_error(m):
    return SvdError(
        "SVD did not converge: shape=%s frobenius=%.6e max_abs=%.6e"
        % (m.shape, np.linalg.norm(m), np.abs(m).max(initial=0.0))
    )


def _row_butterflies(src, dst, rows, cols):
    """Walsh-Hadamard stages over the row-index bits of a ``rows x cols``
    block held flat in ``src``, lowest bit first, ping-ponging between the
    two buffers. Returns ``(result, scratch)``."""
    h = 1
    while h < rows:
        a = src.reshape(-1, 2, h * cols)
        b = dst.reshape(-1, 2, h * cols)
        np.add(a[:, 0], a[:, 1], out=b[:, 0])
        np.subtract(a[:, 0], a[:, 1], out=b[:, 1])
        src, dst = dst, src
        h *= 2
    return src, dst


def fwht(vec):
    """Orthonormal fast Walsh-Hadamard transform in natural order.

    The input length must be a power of two. The transform is scaled by
    ``1/sqrt(n)`` so it is orthonormal, hence also self-inverse.

    The length-``2^k`` input is viewed as a row-major
    ``2^floor(k/2) x 2^ceil(k/2)`` block, so the low index bits are its
    column bits. The butterflies run in the plain per-stage order, low bit
    first: the column-bit stages on the transposed block, then the row-bit
    stages on the block transposed back. Every stage thus adds and
    subtracts contiguous runs of at least ``2^floor(k/2)`` elements, and
    each output is the same sequence of floating-point operations as in the
    per-stage loop, so the result is bitwise identical to it.
    """
    v = np.asarray(vec, dtype=np.float64).ravel()
    n = v.size
    if n == 0 or n & (n - 1):
        raise ValueError(f"Walsh-Hadamard length must be a power of two, got {n}")
    k = n.bit_length() - 1
    rows, cols = 1 << (k // 2), 1 << (k - k // 2)
    a = np.empty(n)
    b = np.empty(n)
    a.reshape(cols, rows)[...] = v.reshape(rows, cols).T
    a, b = _row_butterflies(a, b, cols, rows)
    b.reshape(rows, cols)[...] = a.reshape(cols, rows).T
    b, a = _row_butterflies(b, a, rows, cols)
    b /= math.sqrt(n)
    return b


def orthonormal_transform(kind, image, inverse=False):
    """Apply an orthonormal 2-D transform, or its inverse, to ``image``.

    ``dct2`` is the orthonormal DCT-II along both axes. ``wht`` applies the
    orthonormal Walsh-Hadamard transform to the row-major vectorized image
    (the total size must be a power of two) and reshapes back; it is its
    own inverse. ``fft2`` is the orthonormal 2-D DFT with complex output.
    All three preserve the Euclidean norm.
    """
    a = np.asarray(image)
    if a.ndim != 2:
        raise ValueError(f"transform input must be 2-D, got shape {a.shape}")
    if kind == DCT2:
        if inverse:
            return _spfft.idctn(a, type=2, norm="ortho")
        return _spfft.dctn(a, type=2, norm="ortho")
    if kind == WHT:
        # self-inverse, so the flag is accepted but changes nothing
        return fwht(a.ravel()).reshape(a.shape)
    if kind == FFT2:
        if inverse:
            return np.fft.ifft2(a, norm="ortho")
        return np.fft.fft2(a, norm="ortho")
    raise ValueError(f"unknown transform kind {kind!r}")


def fft2_half_domain(image_rows, image_cols):
    """Flat indices of one representative per DFT conjugate pair.

    Keeps frequency (r, c) iff it is lexicographically smaller than its
    conjugate ((-r) mod rows, (-c) mod cols); self-conjugate frequencies
    are dropped. Restricting sampling to this set keeps the stacked
    real/imaginary measurement rows orthonormal.
    """
    r = np.arange(image_rows)[:, None]
    c = np.arange(image_cols)[None, :]
    rr = (-r) % image_rows
    cc = (-c) % image_cols
    keep = (r < rr) | ((r == rr) & (c < cc))
    return np.flatnonzero(keep.ravel())


@dataclass(frozen=True)
class MeasurementOp:
    """Partial orthonormal measurement operator on real images.

    Measures ``q`` coefficients, at fixed flat ``indices``, of an
    orthonormal 2-D transform of an ``image_rows x image_cols`` matrix.
    The rows of the operator are orthonormal, so ``apply(adjoint(b)) == b``
    and ``adjoint(apply(X))`` is an orthogonal projection of ``X``.

    For the complex DFT kind, each selected frequency contributes its real
    and imaginary part scaled by sqrt(2), giving a real measurement vector
    of length ``2 q``; the selectable frequencies are restricted to one
    representative per conjugate pair (see :func:`fft2_half_domain`).
    """

    kind: str
    image_rows: int
    image_cols: int
    indices: np.ndarray

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown measurement kind {self.kind!r}")
        if self.image_rows < 1 or self.image_cols < 1:
            raise ValueError("image dimensions must be positive")
        mn = self.image_rows * self.image_cols
        idx = np.asarray(self.indices, dtype=np.int64).ravel()
        if idx.size < 1:
            raise ValueError("at least one measurement index is required")
        if np.any(np.diff(idx) <= 0):
            raise ValueError("indices must be strictly increasing")
        if idx[0] < 0 or idx[-1] >= mn:
            raise ValueError("indices out of range")
        if self.kind == WHT and mn & (mn - 1):
            raise ValueError(f"wht needs a power-of-two image size, got {mn}")
        if self.kind == FFT2:
            valid = fft2_half_domain(self.image_rows, self.image_cols)
            if not np.all(np.isin(idx, valid)):
                raise ValueError(
                    "fft2 indices must each name one representative of a "
                    "conjugate frequency pair"
                )
        idx.setflags(write=False)
        object.__setattr__(self, "indices", idx)

    # the largest eigenvalue of A* A; the rows are orthonormal
    spectral_bound = 1.0

    @property
    def input_shape(self):
        return (self.image_rows, self.image_cols)

    @property
    def q(self):
        """Number of selected transform coefficients."""
        return int(self.indices.size)

    @property
    def complex_mode(self):
        return self.kind == FFT2

    @property
    def measurement_dim(self):
        """Length of the real measurement vector (``2 q`` for fft2)."""
        return 2 * self.q if self.complex_mode else self.q

    def apply(self, image):
        """Measure ``image``: transform, then subsample coefficients."""
        x = np.asarray(image, dtype=np.float64)
        if x.shape != (self.image_rows, self.image_cols):
            raise ValueError(
                f"expected image shape {(self.image_rows, self.image_cols)}, "
                f"got {x.shape}"
            )
        coef = orthonormal_transform(self.kind, x)
        flat = coef.ravel()[self.indices]
        if self.complex_mode:
            return _SQRT2 * np.concatenate([flat.real, flat.imag])
        return np.asarray(flat, dtype=np.float64)

    def adjoint(self, b):
        """Adjoint map: zero-fill coefficients, inverse transform."""
        v = np.asarray(b, dtype=np.float64).ravel()
        if v.size != self.measurement_dim:
            raise ValueError(
                f"expected measurement vector of length {self.measurement_dim}, "
                f"got {v.size}"
            )
        mn = self.image_rows * self.image_cols
        if self.complex_mode:
            z = np.zeros(mn, dtype=np.complex128)
            z[self.indices] = v[: self.q] + 1j * v[self.q :]
            full = orthonormal_transform(
                self.kind, z.reshape(self.image_rows, self.image_cols), inverse=True
            )
            return _SQRT2 * full.real
        z = np.zeros(mn, dtype=np.float64)
        z[self.indices] = v
        out = orthonormal_transform(
            self.kind, z.reshape(self.image_rows, self.image_cols), inverse=True
        )
        return np.asarray(out, dtype=np.float64)


def make_measurement_op(kind, image_rows, image_cols, q, rng):
    """Draw a :class:`MeasurementOp` with ``q`` indices sampled uniformly
    without replacement from the kind's valid coefficient set.

    Same ``rng`` seed, same operator. For ``fft2`` the valid set is one
    representative per conjugate pair, so ``q`` is capped at roughly half
    the image size; for ``wht`` the image size must be a power of two.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown measurement kind {kind!r}")
    mn = image_rows * image_cols
    if kind == FFT2:
        domain = fft2_half_domain(image_rows, image_cols)
    else:
        domain = np.arange(mn, dtype=np.int64)
    if not 1 <= q <= domain.size:
        raise ValueError(
            f"q={q} out of range [1, {domain.size}] for kind {kind!r} on a "
            f"{image_rows}x{image_cols} image"
        )
    idx = rng.choice_without_replacement(domain, q)
    return MeasurementOp(kind, image_rows, image_cols, idx)


class SeededRng:
    """Deterministic random source (PCG64) with named substreams.

    The same seed reproduces the same draws on any platform. Substreams
    are derived by name with :meth:`derive`, so for instance the stream
    that picks a sparse support never collides with the stream that picks
    measurement indices. Normal variates come from the generator's
    ziggurat sampler.
    """

    algorithm_id = RNG_ALGORITHM

    def __init__(self, seed, _path=()):
        self.seed = int(seed)
        self._path = tuple(int(k) for k in _path)
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=self._path)
        self.generator = np.random.Generator(np.random.PCG64(ss))

    def derive(self, label):
        """Independent substream keyed by ``label`` (and this stream's path)."""
        digest = hashlib.sha256(label.encode("utf8")).digest()
        words = (
            int.from_bytes(digest[:4], "big"),
            int.from_bytes(digest[4:8], "big"),
        )
        return SeededRng(self.seed, self._path + words)

    def normal(self, rows, cols=None):
        """Standard normal draws: a vector, or a ``rows x cols`` matrix."""
        if cols is None:
            return self.generator.standard_normal(int(rows))
        return self.generator.standard_normal((int(rows), int(cols)))

    def uniform(self, lo, hi, n):
        """n draws uniform on [lo, hi)."""
        if not lo < hi:
            raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
        return self.generator.uniform(lo, hi, size=int(n))

    def choice_without_replacement(self, pool, k):
        """Sorted sample of ``k`` distinct elements of ``pool``."""
        picked = self.generator.choice(pool, size=int(k), replace=False)
        return np.sort(picked)

    def __repr__(self):
        return f"SeededRng(seed={self.seed}, path={self._path})"
