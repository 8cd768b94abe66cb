"""Small exactly solvable problem families used by tests and `verify`.

Every generator returns both the problem and an independently computed
solution (a dense linear solve, a KKT solve, or an active-set
enumeration), so solver output can be checked against an oracle that
shares no code with the iteration.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .prox import quadratic_oracle
from .splitting import SeparableProblem
from .vi_core import MixedViProblem

_ENUM_LIMIT = 10


def _box_vi_solve(Meff, qeff, lo, hi, tol=1e-9):
    """Exact affine box-VI solve by active-set enumeration.

    Finds w in [lo, hi] with r = Meff w + qeff satisfying r_i = 0 on free
    coordinates, r_i >= 0 where w_i = lo_i, r_i <= 0 where w_i = hi_i.
    Exponential in the dimension; intended for fixture sizes only.
    """
    n = qeff.size
    if n > _ENUM_LIMIT:
        raise ValueError(f"active-set enumeration limited to n <= {_ENUM_LIMIT}")
    lo = np.broadcast_to(np.asarray(lo, dtype=np.float64), (n,))
    hi = np.broadcast_to(np.asarray(hi, dtype=np.float64), (n,))
    for assignment in itertools.product((0, 1, 2), repeat=n):
        state = np.array(assignment)
        free = state == 0
        w = np.where(state == 1, lo, hi).astype(np.float64)
        if free.any():
            rhs = -qeff[free] - Meff[np.ix_(free, ~free)] @ w[~free]
            try:
                w[free] = np.linalg.solve(Meff[np.ix_(free, free)], rhs)
            except np.linalg.LinAlgError:
                continue
            if np.any(w[free] < lo[free] - tol) or np.any(w[free] > hi[free] + tol):
                continue
        r = Meff @ w + qeff
        if np.any(r[state == 1] < -tol) or np.any(r[state == 2] > tol):
            continue
        if free.any() and np.any(np.abs(r[free]) > math.sqrt(tol)):
            continue
        return np.clip(w, lo, hi)
    raise RuntimeError("no active set satisfied the optimality conditions")


def affine_vi(M, q, lo=None, hi=None):
    """Mixed VI with ``theta = 0`` and affine ``F(w) = M w + q``.

    Omega is all of space, or the box ``[lo, hi]``. The resolvent solves
    ``(M + G/lam) w = G z / lam - q`` directly (projected active-set
    enumeration in the box case), so it is exact.
    """
    M = np.asarray(M, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64).ravel()
    n = q.size
    if M.shape != (n, n):
        raise ValueError(f"M must be {n}x{n}, got {M.shape}")
    boxed = lo is not None or hi is not None
    lo_v = -np.inf if lo is None else lo
    hi_v = np.inf if hi is None else hi

    def F(w):
        return M @ w + q

    def resolvent(z, lam, G):
        Gm = G.materialize()
        Meff = M + Gm / lam
        qeff = q - Gm @ np.asarray(z, dtype=np.float64) / lam
        if not boxed:
            return np.linalg.solve(Meff, -qeff)
        return _box_vi_solve(Meff, qeff, lo_v, hi_v)

    return MixedViProblem(dim=n, theta=lambda w: 0.0, F=F, resolvent=resolvent)


def affine_vi_solution(M, q, lo=None, hi=None):
    """Exact solution of the affine VI (oracle route: direct solve or
    active-set enumeration, no proximal iterations involved)."""
    M = np.asarray(M, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64).ravel()
    if lo is None and hi is None:
        return np.linalg.solve(M, -q)
    lo_v = -np.inf if lo is None else lo
    hi_v = np.inf if hi is None else hi
    return _box_vi_solve(M, q, lo_v, hi_v)


def strongly_monotone_affine_vi(n, rng, mu=1.0, lo=None, hi=None):
    """Random affine VI whose symmetric part dominates ``mu * I``.

    Returns ``(problem, w_star)``. The linear part mixes a random positive
    semidefinite symmetric piece, a random skew piece, and ``mu * I``.
    """
    if mu <= 0:
        raise ValueError("mu must be positive")
    R = rng.normal(n, n) / math.sqrt(n)
    W = rng.normal(n, n)
    M = mu * np.eye(n) + R.T @ R + 0.5 * (W - W.T)
    q = rng.normal(n)
    problem = affine_vi(M, q, lo=lo, hi=hi)
    return problem, affine_vi_solution(M, q, lo=lo, hi=hi)


def random_qp(n1, n2, m, rng):
    """Random equality-constrained separable QP with its KKT solution.

    ``f`` and ``g`` are strongly convex quadratics, the coupling matrices
    are dense Gaussian. Returns ``(problem, w_star)`` with ``w_star`` the
    packed point ``(x, y, p)`` from one dense solve of the KKT system; the
    multiplier sign convention matches the Lagrangian
    ``f + g - <p, Ax + By - b>``.
    """
    if min(n1, n2, m) < 1:
        raise ValueError("dimensions must be positive")
    Rf = rng.normal(n1, n1) / math.sqrt(n1)
    Rg = rng.normal(n2, n2) / math.sqrt(n2)
    Pf = Rf.T @ Rf + np.eye(n1)
    Pg = Rg.T @ Rg + np.eye(n2)
    cf = rng.normal(n1)
    cg = rng.normal(n2)
    A = rng.normal(m, n1) / math.sqrt(max(m, n1))
    B = rng.normal(m, n2) / math.sqrt(max(m, n2))
    b = rng.normal(m)

    prob = SeparableProblem(
        A=A,
        B=B,
        b=b,
        f_prox=quadratic_oracle(Pf, cf),
        g_prox=quadratic_oracle(Pg, cg),
        f_quad=(Pf, cf),
        g_quad=(Pg, cg),
    )

    dim = n1 + n2 + m
    K = np.zeros((dim, dim))
    K[:n1, :n1] = Pf
    K[n1 : n1 + n2, n1 : n1 + n2] = Pg
    K[:n1, n1 + n2 :] = -A.T
    K[n1 : n1 + n2, n1 + n2 :] = -B.T
    K[n1 + n2 :, :n1] = A
    K[n1 + n2 :, n1 : n1 + n2] = B
    rhs = np.concatenate([-cf, -cg, b])
    return prob, np.linalg.solve(K, rhs)
