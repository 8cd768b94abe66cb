"""Compressive principal component pursuit.

Recover a low-rank matrix ``L0`` plus a sparse matrix ``S0`` from partial
orthonormal measurements ``b = A(L0 + S0)`` by solving

    min ||L||_* + lam ||S||_1   s.t.   A(L + S) = b,

with ``lam = 1/sqrt(m)``. :func:`separable_problem` states it as a
two-block problem of :mod:`iprox.splitting` (``A = B =`` the measurement
operator, ``f = ||.||_*``, ``g = lam ||.||_1``) and the solvers run that
module's linearized ADMM loop on it: the L-update is singular value
thresholding, the S-update entrywise shrinkage, and a controller
rebalances the penalty during the first iterations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .numkit import SeededRng, SvtWarmStart, make_measurement_op
from .prox import ProxOracle, l1_oracle, nuclear_oracle, soft_threshold, svt_with_values
from .splitting import BetaController, SeparableProblem, _run, stopping_residual
from .vi_core import InertialSchedule


def penalty_weight(m):
    """Sparsity weight ``1/sqrt(m)`` for an ``m``-row image."""
    if m < 1:
        raise ValueError("m must be positive")
    return 1.0 / math.sqrt(m)


def degrees_of_freedom(m, n, r, nnz):
    """``(m + n - r) r + nnz``: parameters of a rank-r plus nnz-sparse pair."""
    if not 0 <= r <= min(m, n):
        raise ValueError(f"rank {r} out of range for {m}x{n}")
    if not 0 <= nnz <= m * n:
        raise ValueError(f"nnz {nnz} out of range for {m}x{n}")
    return (m + n - r) * r + nnz


def counts_from_ratios(m, n, q_ratio, nnz_ratio):
    """Measurement and support counts from area ratios.

    Both products are taken exactly, with each ratio read as the decimal
    it prints as. ``q`` is the floor of ``q_ratio * m * n`` (0.57 of
    100 x 100 is 5700, where the float product truncates to 5699), and
    ``nnz`` rounds ``nnz_ratio * m * n`` half to even (0.02 of 35 x 35 is
    24.5, which rounds to 24, where the float product rounds to 25). Both
    conventions are fixed so grids regenerate identically everywhere.
    """
    if not 0 < q_ratio <= 1 or not 0 < nnz_ratio <= 1:
        raise ValueError("ratios must lie in (0, 1]")
    q = math.floor(Fraction(repr(float(q_ratio))) * m * n)
    return q, round(Fraction(repr(float(nnz_ratio))) * m * n)


@dataclass
class CpcpInstance:
    """A generated recovery problem with its ground truth.

    The truth is held in the form it is drawn in: ``L0`` as the factors
    ``left`` (m x r) and ``right`` (r x n), ``S0`` as ``values`` at the
    sorted flat indices ``support``. The dense ``L0`` and ``S0`` are
    read-only properties, rebuilt on each read with the operations that
    drew them, so an instance holds no m x n array for its truth. ``b``
    holds the ``q`` measurements of ``L0 + S0``.
    """

    m: int
    n: int
    r: int
    nnz: int
    kind: str
    q: int
    seed: int
    lam: float
    dof: int
    left: np.ndarray
    right: np.ndarray
    support: np.ndarray
    values: np.ndarray
    meas: object
    b: np.ndarray

    @property
    def L0(self):
        """The low-rank truth ``left @ right``, a new array on each read."""
        return self.left @ self.right

    @property
    def S0(self):
        """The sparse truth, ``values`` scattered onto ``support`` of a
        zero m x n array, a new array on each read."""
        S0 = np.zeros(self.m * self.n)
        S0[self.support] = self.values
        return S0.reshape(self.m, self.n)

    @property
    def q_over_dof(self):
        return self.q / self.dof


def generate_instance(m, n, r, nnz, kind, q, seed):
    """Draw an instance deterministically from ``seed``.

    ``L0`` is a product of two standard normal factors (rank r almost
    surely), ``S0`` has ``nnz`` entries uniform on [-10, 10] at a support
    drawn without replacement, and the measurement indices are sampled
    uniformly from the kind's valid set. Separate named substreams feed
    each part, so the pieces stay independent and reproducible. The
    instance keeps the factors, the support and the values; ``b`` is
    measured once, from a transient ``L0 + S0``.
    """
    if not 1 <= r <= min(m, n):
        raise ValueError(f"rank {r} out of range for {m}x{n}")
    if not 0 <= nnz <= m * n:
        raise ValueError(f"nnz {nnz} out of range for {m}x{n}")
    rng = SeededRng(seed)
    low = rng.derive("lowrank")
    left = low.normal(m, r)
    right = low.normal(r, n)
    support = rng.derive("support").choice_without_replacement(m * n, nnz)
    values = rng.derive("values").uniform(-10.0, 10.0, nnz) if nnz else np.zeros(0)
    inst = CpcpInstance(
        m=m,
        n=n,
        r=r,
        nnz=int(nnz),
        kind=kind,
        q=int(q),
        seed=int(seed),
        lam=penalty_weight(m),
        dof=degrees_of_freedom(m, n, r, nnz),
        left=left,
        right=right,
        support=support,
        values=values,
        meas=make_measurement_op(kind, m, n, q, rng.derive("measurement")),
        b=None,
    )
    inst.b = inst.meas.apply(inst.L0 + inst.S0)
    return inst


@dataclass
class CpcpState:
    """Solver state: the primal pair, the multiplier, and bookkeeping; the
    penalties are the trace's ``extras["beta"]``."""

    L: np.ndarray
    S: np.ndarray
    p: np.ndarray
    iters: int = 0
    converged: bool = False


def separable_problem(inst, warm):
    """The instance as a :class:`~iprox.splitting.SeparableProblem`:
    ``A = B = inst.meas``, ``f = ||.||_*``, ``g = lam ||.||_1``.

    The nuclear norm is read off the shrunk spectrum, so the objective
    costs no second SVD. The oracles call this module's
    ``svt_with_values`` and ``soft_threshold`` by name, so wrappers
    installed on those attributes see each call. Every SVT of the problem
    shares ``warm``, a :class:`~iprox.numkit.SvtWarmStart`, so a problem
    serves one solve.
    """
    lam = inst.lam

    def nuclear(z, kappa):
        L, shrunk = svt_with_values(z, kappa, warm)
        return L, float(shrunk.sum())

    def sparse(z, kappa):
        S = soft_threshold(z, lam * kappa)
        return S, lam * float(np.abs(S).sum())

    return SeparableProblem(
        A=inst.meas, B=inst.meas, b=inst.b,
        f_prox=ProxOracle(nuclear, nuclear_oracle().objective),
        g_prox=ProxOracle(sparse, l1_oracle(lam).objective),
    )


def _run_cpcp(inst, tau, eta, alpha, controller, tol, max_iter):
    if controller is None:
        controller = BetaController.for_instance(inst)
    warm = SvtWarmStart()
    problem = separable_problem(inst, warm)
    trace = _run(problem, controller, tau, eta, InertialSchedule(alpha), tol,
                 max_iter, stop=stopping_residual)
    trace.extras["svt_rank"] = warm.ranks
    trace.extras["svt_path"] = warm.paths
    L, S, p = problem.split(trace.extras["final"])
    return CpcpState(L.reshape(inst.m, inst.n), S.reshape(inst.m, inst.n), p,
                     trace.iterations, trace.converged), trace


def ladmm_cpcp(inst, tau=0.99, eta=0.99, controller=None, tol=1e-5,
               max_iter=1000):
    """Plain linearized solver from the zero start.

    Stops when ``||w_{k+1} - w_k|| / (1 + ||w_k||) < tol`` in the combined
    norm, or at ``max_iter`` (then ``converged`` is False). The trace is
    the one the :mod:`iprox.splitting` loop fills; its ``extras`` hold the
    carried ``measurement`` ``A(L + S)``, the ``feasibility``, and per
    iteration the penalty (``beta``), the SVT output rank (``svt_rank``)
    and the path that SVT took (``svt_path``): ``"top"``, the certified
    subspace iteration on the Gram matrix while the rank is small;
    ``"gram"``, the certified eigh of the same Gram matrix, which serves
    the high-rank phase; or ``"full"``, the full SVD when neither is
    certified (see :func:`iprox.numkit.svd`).
    """
    return _run_cpcp(inst, tau, eta, 0.0, controller, tol, max_iter)


def iladmm_cpcp(inst, tau=0.99, eta=0.99, alpha=0.28, controller=None,
                tol=1e-5, max_iter=1000):
    """Inertial linearized solver from the zero start.

    ``alpha`` is the constant extrapolation factor, in [0, 1). All three
    blocks are extrapolated, the multiplier included, and the stopping rule
    compares against the extrapolated point. With ``alpha = 0`` the
    trajectory is bitwise identical to :func:`ladmm_cpcp`.
    """
    return _run_cpcp(inst, tau, eta, alpha, controller, tol, max_iter)


@dataclass
class RecoveryMetrics:
    rel_l: float
    rel_s: float
    iters: int
    converged: bool


def recovery_metrics(state, inst):
    """Relative recovery errors against the ground truth.

    Errors are relative in Frobenius norm, or absolute when the true
    component is zero. Each dense truth is rebuilt once per call.
    """
    L0, S0 = inst.L0, inst.S0
    l_den = float(np.linalg.norm(L0))
    s_den = float(np.linalg.norm(S0))
    rel_l = float(np.linalg.norm(state.L - L0)) / (l_den if l_den > 0 else 1.0)
    rel_s = float(np.linalg.norm(state.S - S0)) / (s_den if s_den > 0 else 1.0)
    return RecoveryMetrics(
        rel_l=rel_l,
        rel_s=rel_s,
        iters=state.iters,
        converged=state.converged,
    )

