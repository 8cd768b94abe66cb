"""Dense numerical kernels shared by the solver modules.

Matrices are plain 2-D float64 numpy arrays throughout the package. This
module provides the singular value decomposition used by the shrinkage
operators, orthonormal 2-D transforms (DCT-II, Walsh-Hadamard, DFT),
partial measurement operators built from randomly selected transform
coefficients, and a seeded random source with named substreams.

Only the DCT-II needs scipy, and of scipy only its compiled pocketfft
kernel: :func:`_dct_kernel` loads that one extension file on the first
DCT-II call, without importing ``scipy.fft``, whose package import also
loads ``scipy.special`` and scipy's own OpenBLAS. The Walsh-Hadamard
kernel is numpy's GEMM and the DFT is ``numpy.fft``, so a process that
imports the package holds no scipy module and no second OpenBLAS, and a
DCT-II process holds only the kernel. On 2 CPUs, medians of 10 runs,
that took the peak RSS of the benchmark's 256^2 WHT run from 85.8 to
67.4 MB, and of its 256^2 DCT2 run from 79.9 to 62.5 MB with its set-up
from 0.34 to 0.14 s.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import importlib.machinery
import importlib.util
import math
import os
from dataclasses import dataclass, field

import numpy as np

RNG_ALGORITHM = "pcg64"

DCT2 = "dct2"
WHT = "wht"
FFT2 = "fft2"
KINDS = (DCT2, WHT, FFT2)

_SQRT2 = math.sqrt(2.0)


class SvdError(RuntimeError):
    """Raised when the SVD backend fails to converge."""


def as_matrix(a):
    """Coerce to a finite 2-D float64 array, copying only if needed."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"svd input must be 2-D, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("svd input has non-finite entries")
    return m


# the paths an SVT may take, in the order they are tried
SVT_PATHS = ("top", "gram", "full")


@dataclass
class SvtWarmStart:
    """What one sequence of SVT calls (one solve) carries from call to call.

    ``rank`` is the last output rank and ``basis`` holds the leading
    eigenvectors of the last input's Gram matrix (the right singular
    vectors of a tall input, the left ones of a wide one), from which the
    next call's top path starts; it is ``None`` before the first call and
    while the rank is too large for the top path, so no unused vectors
    are held. ``gap`` is ``sigma_{k+1} / sigma_r`` of the last input for
    ``k = rank + _MARGIN``, as far as its spectrum is known, else 0.
    ``ranks`` and ``paths`` log each call's output rank and the path it
    took, one of :data:`SVT_PATHS`.
    """

    rank: int | None = None
    basis: np.ndarray | None = None
    gap: float = 0.0
    ranks: list = field(default_factory=list)
    paths: list = field(default_factory=list)

    def _record(self, rank, vecs, path, s):
        """Keep the rank, the first ``rank + _MARGIN`` columns of the
        Gram-side vectors ``vecs`` when the next call can use them, the
        gap of the spectrum ``s``, and the log entries."""
        k = rank + _MARGIN
        size = vecs.shape[0]
        self.rank = rank
        self.basis = vecs[:, :k].copy() if 4 * k <= size and size >= _GRAM_MIN else None
        self.gap = float(s[k] / s[rank - 1]) if rank and k < s.size else 0.0
        self.ranks.append(rank)
        self.paths.append(path)


def svd(mat, above=None, warm=None):
    """Thin singular value decomposition ``mat = U @ diag(s) @ V.T``.

    Parameters
    ----------
    mat : (m, n) array_like
        Real matrix with finite entries.
    above : float, optional
        Only the triplets whose singular values exceed ``above`` are
        wanted, as by singular value thresholding at ``above``.
    warm : SvtWarmStart, optional
        Only with ``above``: the state shared by one sequence of calls,
        from which the top path starts; each call logs its path and its
        rank ``r`` there.

    Returns
    -------
    U : (m, k) ndarray
    s : (p,) ndarray
        Singular values in nonincreasing order, ``p = min(m, n)``.
    V : (n, k) ndarray

    Without ``above`` this is the full SVD (LAPACK ``gesdd``), ``k = p``:
    ``U`` and ``V`` have orthonormal columns and the reconstruction error
    is at machine-precision scale relative to ``max(1, ||mat||_F)``.

    With ``above``, let ``r`` be the number of singular values above it.
    Then ``s[:r]`` are those values, the first ``r`` columns of ``U`` and
    ``V`` are their vectors, and every entry of ``s`` past ``r`` is
    certified to lie below ``above``. With at least ``_GRAM_MIN`` rows and
    columns the triplets are first sought from the Gram matrix (see
    :func:`_gram_svd`); if that is accepted, ``U`` and ``V`` have only the
    ``r`` columns, within ``2e-11 s[0]`` of the exact thresholded product,
    and ``s[r:]`` are estimates. Otherwise the full SVD runs, exactly as
    without ``above``.
    """
    if warm is not None and above is None:
        raise ValueError("svd: warm is only for calls with above")
    m = as_matrix(mat)
    if above is not None and min(m.shape) >= _GRAM_MIN:
        out = _gram_svd(m, above, warm)
        if out is not None:
            return out
    try:
        u, s, vh = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise _svd_error(m) from exc
    if warm is not None:
        warm._record(int(np.count_nonzero(s > above)),
                     u if m.shape[0] < m.shape[1] else vh.T, "full", s)
    return u, s, vh.T


_EPS = float(np.finfo(np.float64).eps)
# Below 32 on the smaller side, the Gram path's dozen small array calls
# cost more than gesdd: with a third of the values kept, it took 1.1-3.1
# times as long at 4-24, 1.04 at 32, 0.77 at 48-64 and 0.5-0.6 at
# 128-256 (2 CPUs, OpenBLAS 0.3.31). The top path forms the same Gram.
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
# The top path iterates on k = last rank + _MARGIN vectors, only while
# 4 k <= n, and gives up after _PASSES passes.
_MARGIN = 5
_PASSES = 6
# A pass shrinks the residual of the r-th pair by about
# (sigma_{k+1} / sigma_r)^2, so above this gap the _PASSES passes cannot
# gain one decimal digit, and an attempt succeeds only from a start basis
# already within a few times the tolerance. On 256^2 wht instances 1 and 2
# (plain and inertial solves) it cut the abandoned attempts from 15 + 13
# and 12 + 11 to 4 + 1 and 3 + 2, at the cost of one certified top call.
_GAP_SKIP = 0.1 ** (1.0 / (2 * _PASSES))


def _gram_svd(z, kappa, warm):
    """The singular triplets of ``z`` above ``kappa`` from its Gram matrix,
    as :func:`svd` returns them, or ``None``.

    ``T`` is the input, transposed when wide, and ``G = T'T`` the smaller
    Gram, ``n x n``, formed once. Eigenpairs ``(lambda_i, v_i)`` of G, in
    nonincreasing order, come from one of two paths, tried in turn:

    - *top*: with a usable ``warm`` state, ``k`` Ritz pairs of G from a
      subspace iteration (see :func:`_top_pairs`), which certifies on its
      own that no eigenvalue of G past the ``r``-th reaches
      ``kappa^2 - delta``;
    - *gram*: all ``n`` pairs from ``eigh(G)``.

    The ``r`` pairs with ``lambda_i > kappa^2`` are kept, ``W = T V_r``,
    ``s_i = ||w_i||`` and ``U_r = W / s``. Either path is accepted only if
    all three checks hold:

    1. *Gap test*: no ``lambda_i`` lies within
       ``delta = c (m + n) eps ||Z||_F^2`` of ``kappa^2``, and every kept
       ``s_i`` exceeds ``kappa``. Each computed eigenvalue is within
       ``delta`` of a squared singular value (Weyl's inequality), and a
       Ritz value never exceeds the eigenvalue of the same index (Cauchy
       interlacing), so at least ``r`` singular values exceed ``kappa``.
       The computed eigenbasis is one of a ``G + F`` with
       ``||F||_2 <= delta`` (up to the rounding of its orthonormality),
       and the top path's certificate bounds the Rayleigh quotient of G
       off ``V_r`` below ``kappa^2 - delta``, so either way
       ``||Z x|| < kappa`` for every unit ``x`` orthogonal to ``V_r``:
       exactly ``r`` singular values exceed ``kappa``.
    2. *Ratio bound*: ``lambda_1 <= (_GRAM_RATIO kappa)^2``, past which
       the squaring has lost the accuracy that check 3 asks for.
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

    ``s`` holds the kept values first, then the square roots of the other
    ``lambda_i``, then zeros up to length ``n``. The accepted path, its
    rank and the Gram-side pairs are recorded in ``warm``.
    """
    m, n = z.shape
    wide = m < n
    t = z.T if wide else z
    g = t.T @ t
    # ||Z||_F^2 from the Gram's diagonal, each entry a sum of squares
    delta = _GRAM_GAP * (m + n) * _EPS * float(np.trace(g))
    pairs = _top_pairs(g, kappa * kappa, delta, warm)
    out = None if pairs is None else _accept(t, kappa, delta, *pairs)
    path = "top"
    if out is None:
        try:
            lam, vecs = np.linalg.eigh(g)
        except np.linalg.LinAlgError:
            return None
        del g
        out, path = _accept(t, kappa, delta, lam[::-1], vecs[:, ::-1]), "gram"
        if out is None:
            return None
    ur, s, vr, vecs = out
    if warm is not None:
        warm._record(vr.shape[1], vecs, path, s)
    return (vr, s, ur) if wide else (ur, s, vr)


def _accept(t, kappa, delta, lam, vecs):
    """``(U_r, s, V_r, vecs)`` from the pairs ``(lam, vecs)`` of ``T'T``,
    with the kept columns of ``vecs`` reordered as ``V_r``, if checks 1-3
    of :func:`_gram_svd` hold, else ``None``."""
    k2 = kappa * kappa
    if not np.abs(lam - k2).min() > delta:
        return None
    if not lam[0] <= (_GRAM_RATIO * kappa) ** 2:
        return None
    r = int(np.count_nonzero(lam > k2))
    s = np.zeros(t.shape[1])
    s[:lam.size] = np.sqrt(np.maximum(lam, 0.0))
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
    return ur, s, vr, vecs


def _top_pairs(g, k2, delta, warm):
    """The top ``k = warm.rank + _MARGIN`` Ritz pairs of the Gram ``g``,
    as ``(theta, V)`` in nonincreasing order, or ``None``.

    Starts from ``warm.basis``, padded with fixed Gaussian columns to
    ``k``, and runs at most ``_PASSES`` passes of ``Y = G Q``, QR and
    Rayleigh-Ritz ``eigh(Q'GQ)``. It refuses when ``k`` Ritz values exceed
    ``k2 = kappa^2``, and stops once the ``r`` kept pairs would pass the
    residual test of :func:`_gram_svd`: column ``i`` of ``R`` there is
    ``(G v_i - theta_i v_i) / s_i``, with ``s_i^2 = theta_i`` up to
    rounding. It then certifies that no eigenvalue of G past the ``r``-th
    reaches ``kappa^2 - delta``: ``(kappa^2 - delta) I - (G - V_r Theta_r
    V_r')`` is positive definite (Cholesky), so by Courant-Fischer
    ``x'Gx < kappa^2 - delta`` for every unit ``x`` orthogonal to ``V_r``.

    It is not tried when the last spectrum's gap ``warm.gap`` exceeds
    ``_GAP_SKIP``, about 0.83: the passes would converge too slowly.
    """
    if warm is None or warm.basis is None or warm.gap > _GAP_SKIP:
        return None
    n = g.shape[0]
    k = warm.rank + _MARGIN
    if 4 * k > n or warm.basis.shape[0] != n:
        return None
    v = warm.basis[:, :k]
    if v.shape[1] < k:
        pad = np.random.default_rng(0).standard_normal((n, k))
        v = np.hstack([v, pad[:, v.shape[1]:]])
    y = g @ v
    err = np.inf
    for left in range(_PASSES - 1, -1, -1):
        q = np.linalg.qr(y)[0]
        gq = g @ q
        try:
            theta, x = np.linalg.eigh(q.T @ gq)
        except np.linalg.LinAlgError:
            return None
        theta, x = theta[::-1], x[:, ::-1]
        r = int(np.count_nonzero(theta > k2))
        if r >= k:
            return None
        v, y = q @ x, gq @ x
        res = (y[:, :r] - v[:, :r] * theta[:r]) / np.sqrt(theta[:r])
        last, err = err, (float(np.linalg.norm(res)) / math.sqrt(theta[0]) if r else 0.0)
        if err <= _GRAM_TOL:
            break
        # fail fast: at the rate of the last pass, the residual would not
        # reach the tolerance within the passes left
        if err * (err / last) ** left > _GRAM_TOL:
            return None
    # besides G, one Gram-sized array is alive, and the Cholesky factor
    c = (v[:, :r] * theta[:r]) @ v[:, :r].T
    c -= g
    c.flat[::n + 1] += k2 - delta
    try:
        np.linalg.cholesky(c)
    except np.linalg.LinAlgError:
        return None
    return theta, v


def singular_values(mat):
    """Singular values of ``mat`` in nonincreasing order, without the
    vectors; same input check and :class:`SvdError` as :func:`svd`."""
    m = as_matrix(mat)
    try:
        return np.linalg.svd(m, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise _svd_error(m) from exc


def _svd_error(m):
    return SvdError(
        "SVD did not converge: shape=%s frobenius=%.6e max_abs=%.6e"
        % (m.shape, np.linalg.norm(m), np.abs(m).max(initial=0.0))
    )


# Bits per factor, by measurement (2 CPUs, OpenBLAS 0.3.31): a 256^2 WHT took
# 0.48 ms with H_4 factors, 0.33 with H_8, 0.81 with H_16 and 0.39 with H_32.
_FACTOR_BITS = 3
# H_8 in Sylvester order, H_2n = H_2 (x) H_n, so its leading f x f block is
# H_f; read-only and built at import, so threads share it with no lazily
# filled cache (by numpy: importing scipy.linalg would add 6 MB of RSS)
_H = np.ones((1, 1))
for _ in range(_FACTOR_BITS):
    _H = np.kron([[1.0, 1.0], [1.0, -1.0]], _H)
_H.setflags(write=False)


def fwht(vec):
    """Orthonormal fast Walsh-Hadamard transform in natural order.

    The input length ``n = 2^k`` must be a power of two. The transform is
    scaled by ``1/sqrt(n)`` so it is orthonormal, hence also self-inverse.

    ``H_n`` is the Kronecker product of Sylvester blocks ``H_f``, one per
    group of index bits: ``_FACTOR_BITS`` bits at a time, then the 1 or 2
    bits left, in this fixed order. Each factor is one GEMM,
    ``a.reshape(f, n // f).T @ H_f``, which transforms the leading index
    bits and moves them last, so the index ends in natural order; one
    division by ``sqrt(n)`` follows. A GEMM output sums ``f`` terms
    ``+-a_j``, so each input term meets at most ``D = sum(f_i - 1)``
    roundings: each output lies within ``(gamma_D + eps) ||x||_1 /
    sqrt(n)`` of the exact one, ``gamma_D = D eps / (1 - D eps)``, and
    repeats bitwise from call to call, though not the per-stage loop's.
    """
    v = np.asarray(vec, dtype=np.float64).ravel()
    n = v.size
    if n == 0 or n & (n - 1):
        raise ValueError(f"Walsh-Hadamard length must be a power of two, got {n}")
    full, rest = divmod(n.bit_length() - 1, _FACTOR_BITS)
    for bits in [_FACTOR_BITS] * full + ([rest] if rest else []):
        f = 1 << bits
        v = v.reshape(f, -1).T @ _H[:f, :f]
    return v.ravel() / math.sqrt(n)


# where scipy keeps the pocketfft extension, relative to its package
_POCKETFFT_DIR = os.path.join("fft", "_pocketfft")
# the extension's full module name; its last part names its init function
_POCKETFFT = "scipy.fft._pocketfft.pypocketfft"


@functools.cache
def _dct_kernel():
    """scipy's pocketfft extension, the DCT-II kernel, loaded from its file
    on the first call; a later call returns the same module.

    Finding scipy's package directory imports nothing, and loading the one
    extension file imports no scipy module: ``import scipy.fft`` would add
    ``scipy.special`` and scipy's own OpenBLAS, about 21 MB of RSS and
    0.22-0.27 s on 2 CPUs, where the kernel alone takes 0.5 MB and under
    1 ms. Raises ImportError, and caches nothing, when the extension is
    not found.
    """
    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        raise ImportError("the dct2 transform needs scipy, which is not installed")
    dirs = [os.path.join(loc, _POCKETFFT_DIR) for loc in scipy.submodule_search_locations]
    for path in (os.path.join(d, "pypocketfft" + suffix) for d in dirs
                 for suffix in importlib.machinery.EXTENSION_SUFFIXES):
        if os.path.isfile(path):
            spec = importlib.util.spec_from_loader(
                _POCKETFFT, importlib.machinery.ExtensionFileLoader(_POCKETFFT, path))
            kernel = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(kernel)
            return kernel
    from importlib.metadata import version
    raise ImportError(f"no pocketfft extension (pypocketfft) in {os.pathsep.join(dirs)}; "
                      f"scipy {version('scipy')} keeps it elsewhere")


def orthonormal_transform(kind, image, inverse=False):
    """Apply an orthonormal 2-D transform, or its inverse, to ``image``.

    ``dct2`` is the orthonormal DCT-II along both axes. ``wht`` applies the
    orthonormal Walsh-Hadamard transform to the row-major vectorized image
    (the total size must be a power of two) and reshapes back; it is its
    own inverse. ``fft2`` is the orthonormal 2-D DFT with complex output.
    All three preserve the Euclidean norm. ``dct2`` and ``wht`` refuse
    complex input with a ValueError.
    """
    a = np.asarray(image)
    if a.ndim != 2:
        raise ValueError(f"transform input must be 2-D, got shape {a.shape}")
    if kind in (DCT2, WHT) and np.iscomplexobj(a):
        raise ValueError(f"the {kind} transform takes real input, got {a.dtype}")
    if kind == DCT2:
        # the call scipy.fft.dctn / idctn(type=2, norm="ortho") makes: type
        # 2 forward and 3 inverse, both axes, orthonormal scaling, no output
        # array, one thread, no orthogonalize override
        return _dct_kernel().dct(np.asarray(a, dtype=np.float64), 3 if inverse else 2,
                                 (0, 1), 1, None, 1, None)
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
        if self.image_rows < 1 or self.image_cols < 1:
            raise ValueError("image dimensions must be positive")
        mn = self.image_rows * self.image_cols
        idx = np.asarray(self.indices, dtype=np.int64).ravel()
        valid = measurement_domain(self.kind, self.image_rows, self.image_cols, idx.size)
        if np.any(np.diff(idx) <= 0):
            raise ValueError("indices must be strictly increasing")
        if idx[0] < 0 or idx[-1] >= mn:
            raise ValueError("indices out of range")
        if self.kind == FFT2 and not np.all(np.isin(idx, valid)):
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
        if np.iscomplexobj(image):
            raise ValueError("measurements are taken of real images, got a complex one")
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


def measurement_domain(kind, image_rows, image_cols, q):
    """The flat coefficient indices a ``kind`` operator draws its ``q``
    measurements from, after checking that it can take them.

    For ``fft2`` the set is one representative per conjugate pair, so
    ``q`` is capped at roughly half the image size; for ``wht`` the image
    size must be a power of two. Raises a ValueError unless
    ``1 <= q <= len(domain)``.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown measurement kind {kind!r}")
    mn = image_rows * image_cols
    if kind == WHT and mn & (mn - 1):
        raise ValueError(f"wht needs a power-of-two image size, got {mn}")
    if kind == FFT2:
        domain = fft2_half_domain(image_rows, image_cols)
    else:
        domain = np.arange(mn, dtype=np.int64)
    if not 1 <= q <= domain.size:
        raise ValueError(
            f"q={q} out of range [1, {domain.size}] for kind {kind!r} on a "
            f"{image_rows}x{image_cols} image"
        )
    return domain


def make_measurement_op(kind, image_rows, image_cols, q, rng):
    """Draw a :class:`MeasurementOp` with ``q`` indices sampled uniformly
    without replacement from :func:`measurement_domain`.

    Same ``rng`` seed, same operator.
    """
    domain = measurement_domain(kind, image_rows, image_cols, q)
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


# the OpenBLAS entry points that set the thread count: the scipy-openblas
# builds numpy (64-bit integers) and scipy (32-bit) wheels ship, then plain
_OPENBLAS_SET_THREADS = ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
                         "openblas_set_num_threads64_", "openblas_set_num_threads")


def _openblas_libraries():
    """ctypes handles of the OpenBLAS libraries this process has loaded."""
    try:
        with open("/proc/self/maps", encoding="utf8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return []
    return [ctypes.CDLL(path) for path in sorted(paths)]


def _one_blas_thread():
    """Set every OpenBLAS this process has loaded to one thread; does
    nothing where none is loaded. The thread count can move results in
    the last bits: a 256 x 256 DCT2 grid cell kept its iteration counts
    but its recovery errors moved by about 1e-11 relative.

    ``bench`` runs it in each grid worker process. On 2 CPUs (OpenBLAS
    0.3.31), a 64 x 64 grid of 3 cells and 2 seeds took 0.77-0.84 s in
    two workers at one BLAS thread each, and 2.3-17.6 s in two workers
    at the default 2 BLAS threads each, where four BLAS threads contend
    for two CPUs.
    """
    for lib in _openblas_libraries():
        for sym in _OPENBLAS_SET_THREADS:
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [ctypes.c_int], None
                fn(1)
                break
