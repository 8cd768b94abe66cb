"""Small exactly solvable problem families used by tests and `verify`.

Every generator returns both the problem and an independently computed
solution (a dense linear solve of the VI or of the KKT system), so solver
output can be checked against an oracle that shares no code with the
iteration.
"""

from __future__ import annotations

import math

import numpy as np

from .prox import quadratic_oracle
from .splitting import SeparableProblem
from .vi_core import MixedViProblem


def affine_vi(M, q):
    """Mixed VI with ``theta = 0``, affine ``F(w) = M w + q`` and Omega all
    of space. The resolvent solves ``(M + G) w = G z - q`` directly, so it
    is exact.
    """
    M = np.asarray(M, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64).ravel()
    n = q.size
    if M.shape != (n, n):
        raise ValueError(f"M must be {n}x{n}, got {M.shape}")

    def F(w):
        return M @ w + q

    def resolvent(z, G):
        return np.linalg.solve(M + G.matrix, G.apply(z) - q)

    return MixedViProblem(dim=n, theta=lambda w: 0.0, F=F, resolvent=resolvent)


def affine_vi_solution(M, q):
    """Exact solution of the affine VI by a direct solve of ``M w = -q``,
    no proximal iterations involved."""
    M = np.asarray(M, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64).ravel()
    return np.linalg.solve(M, -q)


def strongly_monotone_affine_vi(n, rng):
    """Random affine VI whose symmetric part dominates the identity.

    Returns ``(problem, w_star)``. The linear part mixes a random positive
    semidefinite symmetric piece, a random skew piece, and ``I``.
    """
    R = rng.normal(n, n) / math.sqrt(n)
    W = rng.normal(n, n)
    M = np.eye(n) + R.T @ R + 0.5 * (W - W.T)
    q = rng.normal(n)
    return affine_vi(M, q), affine_vi_solution(M, q)


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
