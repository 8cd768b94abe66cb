"""Closed-form proximal maps and the shrinkage operators built on them."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .numkit import singular_values, svd


def soft_threshold(v, kappa):
    """Componentwise shrinkage ``sign(v) * max(|v| - kappa, 0)``.

    Exact proximal map of ``kappa * ||.||_1`` at ``v``; entries with
    ``|v| == kappa`` map to 0. Works on arrays of any shape.
    """
    if kappa < 0:
        raise ValueError(f"threshold must be nonnegative, got {kappa}")
    a = np.asarray(v, dtype=np.float64)
    # sign(a) * max(|a| - kappa, 0), bit for bit, formed in place in |a|
    # so that it takes two full-size arrays; [...] and [()] let a 0-d
    # input give a scalar, as the ufuncs do
    out = np.abs(a)[...]
    out -= kappa
    np.maximum(out, 0.0, out=out)
    out *= np.sign(a)
    return out[()]


def svt_with_values(mat, kappa, warm=None):
    """Singular value thresholding, the prox of ``kappa * ||.||_*``, and
    the shrunk spectrum: ``(out, shrunk)``.

    The spectrum is nonincreasing, so the nonzero shrunk values are a
    prefix; only those triplets are recomposed. ``shrunk`` keeps its full
    length.

    The triplets above ``kappa`` come from :func:`iprox.numkit.svd`, one
    Gram-matrix engine with two ways to the kept vectors, each certified
    exact or refused, and the full SVD behind them: *top*, a subspace
    iteration started from ``warm``; *gram*, ``eigh`` of the same Gram
    matrix; *full*, ``gesdd``. ``warm`` is an optional
    :class:`~iprox.numkit.SvtWarmStart` shared by the calls of one solve;
    it logs each call's path and rank. Without it, the top path is never
    tried.
    """
    if kappa < 0:
        raise ValueError(f"threshold must be nonnegative, got {kappa}")
    u, s, v = svd(mat, above=kappa, warm=warm)
    shrunk = np.maximum(s - kappa, 0.0)
    r = int(np.count_nonzero(shrunk))
    return (u[:, :r] * shrunk[:r]) @ v[:, :r].T, shrunk


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

