"""Closed-form proximal maps and the shrinkage operators built on them."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .numkit import as_matrix, singular_values, svd


def soft_threshold(v, kappa):
    """Componentwise shrinkage ``sign(v) * max(|v| - kappa, 0)``.

    Exact proximal map of ``kappa * ||.||_1`` at ``v``; entries with
    ``|v| == kappa`` map to 0. Works on arrays of any shape.
    """
    if kappa < 0:
        raise ValueError(f"threshold must be nonnegative, got {kappa}")
    a = np.asarray(v, dtype=np.float64)
    return np.sign(a) * np.maximum(np.abs(a) - kappa, 0.0)


# the top-k SVT computes k = last rank + _MARGIN triplets, only while
# 4 k <= min(m, n), and gives up after _PASSES subspace iterations
_MARGIN = 5
_PASSES = 6
# largest accepted residual ||Z v - s u|| of a kept triplet, relative to s_1
_RESIDUAL_TOL = 1e-13
# A pass shrinks the residual of the r-th triplet by about
# (sigma_{k+1} / sigma_r)^2, so above this gap the _PASSES passes cannot
# gain one decimal digit, and an attempt succeeds only from a start basis
# already within a few times the tolerance. On wht seeds 0-2 (24 solves)
# 13 of 225 attempts above it succeeded and 212 were abandoned.
_GAP_SKIP = 0.1 ** (1.0 / (2 * _PASSES))

# the paths an SVT may take, in the order they are tried
SVT_PATHS = ("top", "gram", "full")


@dataclass
class SvtWarmStart:
    """What one sequence of SVT calls (one solve) carries from call to call.

    ``rank`` is the last output rank and ``basis`` holds the leading
    right singular vectors of the last input, from which the next call's
    subspace iteration starts; it is ``None`` before the first call and
    while the rank is too large for the top-k path, so no unused vectors
    are held through a full SVD. ``gap`` is ``sigma_{k+1} / sigma_r`` of
    the last input for ``k = rank + _MARGIN`` when its whole spectrum is
    known, else 0. ``ranks`` and ``paths`` log each call's output rank
    and the path it took, one of :data:`SVT_PATHS`.
    """

    rank: int | None = None
    basis: np.ndarray | None = None
    gap: float = 0.0
    ranks: list = field(default_factory=list)
    paths: list = field(default_factory=list)

    def _record(self, rank, v, size, path, s=None):
        """Keep the rank, the first ``rank + _MARGIN`` columns of ``v``
        when the next call can use them on a matrix whose smaller side is
        ``size``, the gap of the whole spectrum ``s`` when it is given,
        and the log entries."""
        k = rank + _MARGIN
        self.rank = rank
        self.basis = v[:, :k].copy() if 4 * k <= size else None
        self.gap = float(s[k] / s[rank - 1]) if s is not None and rank and k < s.size else 0.0
        self.ranks.append(rank)
        self.paths.append(path)


def _svt_top(mat, kappa, warm):
    """The SVT from the top ``k`` singular triplets only, or ``None``.

    Runs block subspace iteration from ``warm.basis`` (padded with fixed
    Gaussian columns to ``k``) and returns the thresholded Rayleigh-Ritz
    triplets only if all three checks hold: fewer than ``k`` Ritz values
    exceed ``kappa``; every kept triplet has residual
    ``||Z v_i - s_i u_i|| <= 1e-13 s_1``; and ``kappa^2 I - D'D`` is
    positive definite for ``D = Z - U_r S_r V_r'``. Ritz values never
    exceed the singular values they approximate, so the first ``r``
    singular values lie above ``kappa``; by Weyl's inequality the last
    check proves ``sigma_{r+1}(Z) <= ||D||_2 < kappa``, so no value above
    the threshold was missed (up to the rounding of ``D'D``, whose
    effect on the output lies far below the residual tolerance).

    It is not tried when the last spectrum's gap ``warm.gap`` exceeds
    ``_GAP_SKIP``, about 0.83: the passes would converge too slowly.
    """
    if warm.basis is None or warm.gap > _GAP_SKIP:
        return None
    z = as_matrix(mat, "svd input")
    m, n = z.shape
    k = warm.rank + _MARGIN
    if 4 * k > min(m, n) or warm.basis.shape[0] != n:
        return None
    v = warm.basis[:, :k]
    if v.shape[1] < k:
        pad = np.random.default_rng(0).standard_normal((n, k))
        v = np.hstack([v, pad[:, v.shape[1]:]])
    y = z @ v
    err = np.inf
    for left in range(_PASSES - 1, -1, -1):
        q = np.linalg.qr(y)[0]
        try:
            ub, s, vt = np.linalg.svd(q.T @ z, full_matrices=False)
        except np.linalg.LinAlgError:
            return None
        u, v = q @ ub, vt.T
        r = int(np.count_nonzero(s > kappa))
        if r >= k:
            return None
        y = z @ v
        last, err = err, (float(np.linalg.norm(y[:, :r] - u[:, :r] * s[:r], axis=0)
                                .max()) / s[0] if r else 0.0)
        if err <= _RESIDUAL_TOL:
            break
        # fail fast: at the rate of the last pass, the residual would not
        # reach the tolerance within the passes left
        if err * (err / last) ** left > _RESIDUAL_TOL:
            return None
    # certify: no singular value of Z beyond the r-th reaches kappa; at
    # most two arrays of the Gram's size are alive at a time
    d = (u[:, :r] * s[:r]) @ v[:, :r].T
    np.subtract(z, d, out=d)
    g = d.T @ d if m >= n else d @ d.T
    del d
    g *= -1.0
    g.flat[::g.shape[0] + 1] += kappa * kappa
    try:
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        return None
    del g
    shrunk = np.zeros(min(m, n))
    shrunk[:r] = s[:r] - kappa
    warm._record(r, v, min(m, n), "top")
    return (u[:, :r] * shrunk[:r]) @ v[:, :r].T, shrunk


def svt_with_values(mat, kappa, warm=None):
    """Singular value thresholding, also returning the shrunk spectrum.

    The spectrum is nonincreasing, so the nonzero shrunk values are a
    prefix; only those triplets are recomposed. ``shrunk`` keeps its full
    length.

    Three paths are tried in turn, each exact or refused:

    1. *top*: with a :class:`SvtWarmStart` whose last output rank is small
       against the matrix, only the top singular triplets, by subspace
       iteration, certified to hold every singular value above ``kappa``
       (see :func:`_svt_top`);
    2. *gram*: ``eigh`` of the smaller Gram matrix, accepted after a gap
       test, a bound on ``s_1 / kappa`` and a residual and orthonormality
       test (see :func:`iprox.numkit._gram_svd`);
    3. *full*: the full SVD.

    ``warm`` is an optional :class:`SvtWarmStart` shared by the calls of
    one solve; it logs each call's path. Without it, the top path is
    never tried.
    """
    if kappa < 0:
        raise ValueError(f"threshold must be nonnegative, got {kappa}")
    if warm is not None:
        out = _svt_top(mat, kappa, warm)
        if out is not None:
            return out
    u, s, v, path = svd(mat, above=kappa)
    shrunk = np.maximum(s - kappa, 0.0)
    r = int(np.count_nonzero(shrunk))
    if warm is not None:
        warm._record(r, v, s.size, path, s)
    return (u[:, :r] * shrunk[:r]) @ v[:, :r].T, shrunk


def svt(mat, kappa):
    """Singular value thresholding: prox of ``kappa * ||.||_*``.

    Applies :func:`soft_threshold` to the singular values and recomposes.
    """
    out, _ = svt_with_values(mat, kappa)
    return out


def project_box(v, lo, hi):
    """Euclidean projection onto the box ``[lo, hi]`` (componentwise)."""
    a = np.asarray(v, dtype=np.float64)
    lo_a = np.broadcast_to(np.asarray(lo, dtype=np.float64), a.shape)
    hi_a = np.broadcast_to(np.asarray(hi, dtype=np.float64), a.shape)
    if np.any(lo_a > hi_a):
        raise ValueError("infeasible box: lo > hi on some coordinate")
    return np.minimum(np.maximum(a, lo_a), hi_a)


@dataclass
class ProxOracle:
    """A convex function given through its proximal map.

    ``eval(z, kappa)`` returns ``(w, phi(w))`` for
    ``w = argmin_w phi(w) + ||w - z||^2 / (2 kappa)``, so a solver reads
    the value off the prox step, and ``objective(w)`` returns ``phi(w)``.
    Set constraints folded into the oracle are handled inside ``eval``;
    ``objective`` reports only the finite part.
    """

    eval: Callable[[np.ndarray, float], tuple]
    objective: Callable[[np.ndarray], float]


def l1_oracle(weight=1.0):
    """``phi(w) = weight * ||w||_1`` with soft-threshold prox."""
    if weight < 0:
        raise ValueError("weight must be nonnegative")

    def _obj(w):
        return weight * float(np.abs(w).sum())

    def _eval(z, kappa):
        w = soft_threshold(z, weight * kappa)
        return w, _obj(w)

    return ProxOracle(_eval, _obj)


def nuclear_oracle(weight=1.0):
    """``phi(W) = weight * ||W||_*`` with singular value thresholding."""
    if weight < 0:
        raise ValueError("weight must be nonnegative")

    def _eval(z, kappa):
        w, shrunk = svt_with_values(z, weight * kappa)
        return w, weight * float(shrunk.sum())

    def _obj(w):
        return weight * float(singular_values(w).sum())

    return ProxOracle(_eval, _obj)


def quadratic_oracle(P, c):
    """``phi(w) = w' P w / 2 + c' w`` for symmetric positive semidefinite P.

    The prox solves the linear system ``(P + I/kappa) w = z/kappa - c``.
    """
    P = np.asarray(P, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64).ravel()
    n = c.size
    if P.shape != (n, n):
        raise ValueError(f"P must be {n}x{n}, got {P.shape}")
    eye = np.eye(n)

    def _obj(w):
        ww = np.asarray(w, dtype=np.float64).ravel()
        return float(0.5 * ww @ P @ ww + c @ ww)

    def _eval(z, kappa):
        zz = np.asarray(z, dtype=np.float64).ravel()
        w = np.linalg.solve(P + eye / kappa, zz / kappa - c)
        return w, _obj(w)

    return ProxOracle(_eval, _obj)


def prox_objective_gap(oracle: ProxOracle, z, kappa, probe):
    """Slack of the prox optimality inequality at a probe point.

    Nonnegative for a correct oracle:
    ``phi(probe) + ||probe - z||^2/(2 kappa)`` minus the same expression
    at ``eval(z, kappa)``.
    """
    w, _ = oracle.eval(z, kappa)
    z = np.asarray(z, dtype=np.float64)
    probe = np.asarray(probe, dtype=np.float64)

    def val(u):
        return oracle.objective(u) + float(np.sum((u - z) ** 2)) / (2.0 * kappa)

    return val(probe) - val(w)
