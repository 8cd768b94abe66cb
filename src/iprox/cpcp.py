"""Compressive principal component pursuit.

Recover a low-rank matrix ``L0`` plus a sparse matrix ``S0`` from partial
orthonormal measurements ``b = A(L0 + S0)`` by solving

    min ||L||_* + lam ||S||_1   s.t.   A(L + S) = b,

with ``lam = 1/sqrt(m)``. The solvers are the linearized alternating
steps of :mod:`iprox.splitting` specialized to this problem: the L-update
is singular value thresholding, the S-update entrywise shrinkage, and the
measurement operator plays both coupling roles. An optional controller
rebalances the penalty during the first iterations.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .numkit import RNG_ALGORITHM, SeededRng, make_measurement_op, svd
from .prox import soft_threshold, svt_with_values
from .vi_core import InertialSchedule, SolverTrace, SUMMABLE


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
    """A generated recovery problem with its ground truth."""

    m: int
    n: int
    r: int
    nnz: int
    kind: str
    q: int
    seed: int
    lam: float
    dof: int
    L0: np.ndarray
    S0: np.ndarray
    meas: object
    b: np.ndarray

    @property
    def q_over_dof(self):
        return self.q / self.dof


def generate_instance(m, n, r, nnz, kind, q, seed):
    """Draw an instance deterministically from ``seed``.

    ``L0`` is a product of two standard normal factors (rank r almost
    surely), ``S0`` has ``nnz`` entries uniform on [-10, 10] at a support
    drawn without replacement, and the measurement indices are sampled
    uniformly from the kind's valid set. Separate named substreams feed
    each part, so the pieces stay independent and reproducible.
    """
    if not 1 <= r <= min(m, n):
        raise ValueError(f"rank {r} out of range for {m}x{n}")
    if not 0 <= nnz <= m * n:
        raise ValueError(f"nnz {nnz} out of range for {m}x{n}")
    rng = SeededRng(seed)
    low = rng.derive("lowrank")
    L0 = low.normal(m, r) @ low.normal(r, n)
    support = rng.derive("support").choice_without_replacement(m * n, nnz)
    values = rng.derive("values").uniform(-10.0, 10.0, nnz) if nnz else np.zeros(0)
    S0 = np.zeros(m * n)
    S0[support] = values
    S0 = S0.reshape(m, n)
    meas = make_measurement_op(kind, m, n, q, rng.derive("measurement"))
    b = meas.apply(L0 + S0)
    return CpcpInstance(
        m=m,
        n=n,
        r=r,
        nnz=int(nnz),
        kind=kind,
        q=int(q),
        seed=int(seed),
        lam=penalty_weight(m),
        dof=degrees_of_freedom(m, n, r, nnz),
        L0=L0,
        S0=S0,
        meas=meas,
        b=b,
    )


@dataclass
class CpcpState:
    """Solver state: the primal pair, the multiplier, and bookkeeping."""

    L: np.ndarray
    S: np.ndarray
    p: np.ndarray
    beta: float
    iters: int = 0
    converged: bool = False


@dataclass
class BetaController:
    """Penalty rebalancing during the first ``active_iters`` iterations.

    Starting from ``0.1 q / ||b||_1``, the penalty moves by factors of two
    (doubled when the tuning ratio exceeds 5, halved below 0.1), always
    kept inside ``[beta_min, beta_max]``, and freezes after the active
    window so the proximal weighting stops changing.

    The ratio compares the penalty against the balance point recorded at
    the first tuned iterate: ``balance = 2 * s_scale * obj_1 / feas_sq_1``
    is the penalty that would weight the quadratic infeasibility term to
    ``s_scale`` times the objective there, and ``ratio = balance / beta``.
    The infeasibility itself decays geometrically while the objective
    settles, so a ratio re-read from the current iterate has no stable
    landing point; the frozen snapshot turns the rule into a bounded
    geometric walk from the initial penalty to the balance zone.
    """

    beta: float
    s_scale: float = 10.0
    active_iters: int = 30
    beta_min: float = 1e-3
    beta_max: float = 1e2
    balance: Optional[float] = None

    def __post_init__(self):
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        if self.s_scale <= 0:
            raise ValueError("s_scale must be positive")
        self.beta = float(min(max(self.beta, self.beta_min), self.beta_max))

    @classmethod
    def for_instance(cls, inst, beta0=None, s_scale=10.0):
        if beta0 is None:
            b1 = float(np.abs(inst.b).sum())
            # all-zero measurements: any penalty works, the zero start is optimal
            beta0 = 0.1 * inst.q / b1 if b1 > 0 else 1.0
        return cls(beta=float(beta0), s_scale=float(s_scale))

    def active(self, k):
        """Whether the rule still applies before step ``k`` (0-based).

        Tuning starts at the first computed iterate (k = 1); the zero
        start carries no objective/infeasibility balance to read.
        """
        return 1 <= k <= self.active_iters

    def apply_rule(self, feas_sq, objective_value):
        """One rebalancing update from the current infeasibility and
        objective; a nonpositive objective or a feasible iterate is
        treated as ratio 0 (the penalty backs off)."""
        if objective_value > 0 and feas_sq > 0:
            if self.balance is None:
                self.balance = 2.0 * self.s_scale * objective_value / feas_sq
            ratio = self.balance / self.beta
        else:
            ratio = 0.0
        if ratio < 0.1:
            self.beta = max(0.5 * self.beta, self.beta_min)
        elif ratio > 5.0:
            self.beta = min(2.0 * self.beta, self.beta_max)
        return self.beta


def combined_norm(L, S, p):
    """Euclidean norm of the stacked triple."""
    return math.sqrt(
        float(np.sum(L * L)) + float(np.sum(S * S)) + float(np.sum(p * p))
    )


def _as_triple(state):
    if isinstance(state, CpcpState):
        return state.L, state.S, state.p
    L, S, p = state
    return np.asarray(L, dtype=np.float64), np.asarray(S, dtype=np.float64), np.asarray(p, dtype=np.float64)


def stopping_residual(state_next, state_ref):
    """Relative step size ``||next - ref|| / (1 + ||ref||)`` in the
    combined norm; both arguments are (L, S, p) triples or states."""
    L1, S1, p1 = _as_triple(state_next)
    L0, S0, p0 = _as_triple(state_ref)
    num = combined_norm(L1 - L0, S1 - S0, p1 - p0)
    return num / (1.0 + combined_norm(L0, S0, p0))


def triple_gnorm_sq(meas, beta, tau, eta, dL, dS, dp):
    """Squared proximal-weighting norm of a direction triple.

    ``beta (||dL||_F^2/tau - ||A dL||^2) + (beta/eta) ||dS||_F^2
    - 2 <A dS, dp> + ||dp||^2 / beta``; nonnegative whenever
    ``tau, eta <= 1`` since the measurement rows are orthonormal.
    """
    return _gnorm_sq(beta, tau, eta, dL, dS, dp, meas.apply(dL), meas.apply(dS))


def _gnorm_sq(beta, tau, eta, dL, dS, dp, adL, adS):
    # the formula of triple_gnorm_sq, given adL = A dL and adS = A dS
    return (
        beta * (float(np.sum(dL * dL)) / tau - float(adL @ adL))
        + (beta / eta) * float(np.sum(dS * dS))
        - 2.0 * float(adS @ dp)
        + float(dp @ dp) / beta
    )


def _alpha_fn(alpha):
    if isinstance(alpha, InertialSchedule):
        return alpha.alpha, alpha.kind == SUMMABLE
    a = float(alpha)
    if not 0.0 <= a < 1.0:
        raise ValueError(f"alpha must lie in [0, 1), got {a}")
    return (lambda k, dsq=0.0: a), False


def _solve(inst, tau, eta, alpha, controller, tol, max_iter, keep_gnorm):
    if tau <= 0 or eta <= 0:
        raise ValueError("tau and eta must be positive")
    if tau > 1.0 + 1e-12 or eta > 1.0 + 1e-12:
        warnings.warn(
            "step sizes above 1 make the proximal weighting indefinite "
            "for orthonormal measurement rows",
            stacklevel=3,
        )
    if controller is None:
        controller = BetaController.for_instance(inst)
    alpha_of, needs_dsq = _alpha_fn(alpha)
    meas, b, lam = inst.meas, inst.b, inst.lam

    # A is linear, so the measurements AL = A L and AS = A S are carried
    # with the iterates and extrapolated by the same combination; each
    # iteration then applies A twice (to L1 and S1) and its adjoint twice.
    L = np.zeros((inst.m, inst.n))
    S = np.zeros((inst.m, inst.n))
    p = np.zeros(meas.measurement_dim)
    AL = np.zeros(meas.measurement_dim)
    AS = np.zeros(meas.measurement_dim)
    L_prev, S_prev, p_prev, AL_prev, AS_prev = L, S, p, AL, AS
    nuclear = 0.0

    trace = SolverTrace(iterates=None)
    trace.extras["beta"] = []
    trace.extras["objective"] = []
    if keep_gnorm:
        trace.extras["gnorm_steps"] = []

    for k in range(max_iter):
        if controller.active(k):
            cur = AL + AS - b
            objective = nuclear + lam * float(np.abs(S).sum())
            controller.apply_rule(float(cur @ cur), objective)
        beta = controller.beta

        dsq = 0.0
        if needs_dsq or keep_gnorm:
            dsq = _gnorm_sq(beta, tau, eta, L - L_prev, S - S_prev, p - p_prev,
                            AL - AL_prev, AS - AS_prev)
        a = alpha_of(k, dsq)

        Lb = L + a * (L - L_prev)
        Sb = S + a * (S - S_prev)
        pb = p + a * (p - p_prev)
        ALb = AL + a * (AL - AL_prev)
        ASb = AS + a * (AS - AS_prev)

        # the adjoint pairs A*(r) - A*(p)/beta merge into one adjoint each
        r1 = ALb + ASb - b
        kappa = tau / beta
        L1, shrunk = svt_with_values(Lb - tau * meas.adjoint(r1 - pb / beta), kappa)
        AL1 = meas.apply(L1)
        r2 = AL1 + ASb - b
        p1 = pb - beta * r2
        S1 = soft_threshold(
            Sb - eta * meas.adjoint(r2 - p1 / beta), lam * eta / beta
        )
        AS1 = meas.apply(S1)

        rel = stopping_residual((L1, S1, p1), (Lb, Sb, pb))
        trace.alphas.append(a)
        trace.lambdas.append(1.0)
        trace.delta.append(2.0 * a * dsq)
        trace.stop_residuals.append(rel)
        trace.extras["beta"].append(beta)
        nuclear_next = float(shrunk.sum())
        trace.extras["objective"].append(
            nuclear_next + lam * float(np.abs(S1).sum())
        )
        if keep_gnorm:
            trace.extras["gnorm_steps"].append(_gnorm_sq(
                beta, tau, eta, L1 - Lb, S1 - Sb, p1 - pb, AL1 - ALb, AS1 - ASb
            ))

        L_prev, S_prev, p_prev, AL_prev, AS_prev = L, S, p, AL, AS
        L, S, p, AL, AS = L1, S1, p1, AL1, AS1
        nuclear = nuclear_next
        trace.iterations = k + 1
        if rel < tol:
            trace.converged = True
            break

    measured = AL + AS
    feas = float(np.linalg.norm(measured - b))
    bnorm = float(np.linalg.norm(b))
    trace.extras["measurement"] = measured
    trace.extras["feasibility"] = feas
    trace.extras["relative_feasibility"] = feas / bnorm if bnorm > 0 else feas
    state = CpcpState(
        L=L, S=S, p=p, beta=controller.beta,
        iters=trace.iterations, converged=trace.converged,
    )
    return state, trace


def ladmm_cpcp(inst, tau=0.99, eta=0.99, controller=None, tol=1e-5,
               max_iter=1000, keep_gnorm=False):
    """Plain linearized solver from the zero start.

    Stops when ``||w_{k+1} - w_k|| / (1 + ||w_k||) < tol`` in the combined
    norm, or at ``max_iter`` (then ``converged`` is False). Per-iteration
    squared weighting norms of the steps are recorded only when
    ``keep_gnorm`` is set; they reuse the measurements the iteration
    carries, so they cost no extra transform.

    ``trace.extras`` also holds ``measurement``, the solver's carried
    ``A(L + S)`` at the returned pair, from which ``feasibility``
    ``||A(L + S) - b||`` and ``relative_feasibility`` are computed.
    """
    return _solve(inst, tau, eta, 0.0, controller, tol, max_iter, keep_gnorm)


def iladmm_cpcp(inst, tau=0.99, eta=0.99, alpha=0.28, controller=None,
                tol=1e-5, max_iter=1000, keep_gnorm=False):
    """Inertial linearized solver from the zero start.

    ``alpha`` is a constant factor in [0, 1) or an
    :class:`~iprox.vi_core.InertialSchedule`. All three blocks are
    extrapolated, the multiplier included, and the stopping rule compares
    against the extrapolated point. With ``alpha = 0`` the trajectory is
    bitwise identical to :func:`ladmm_cpcp`.
    """
    return _solve(inst, tau, eta, alpha, controller, tol, max_iter, keep_gnorm)


@dataclass
class RecoveryMetrics:
    rel_l: float
    rel_s: float
    iters: int
    converged: bool
    q_over_dof: float


def recovery_metrics(state, inst):
    """Relative recovery errors against the ground truth.

    Errors are relative in Frobenius norm, or absolute when the true
    component is zero.
    """
    l_den = float(np.linalg.norm(inst.L0))
    s_den = float(np.linalg.norm(inst.S0))
    rel_l = float(np.linalg.norm(state.L - inst.L0)) / (l_den if l_den > 0 else 1.0)
    rel_s = float(np.linalg.norm(state.S - inst.S0)) / (s_den if s_den > 0 else 1.0)
    return RecoveryMetrics(
        rel_l=rel_l,
        rel_s=rel_s,
        iters=state.iters,
        converged=state.converged,
        q_over_dof=inst.q_over_dof,
    )


def subgradient_certificate(Z, L1, kappa):
    """Optimality certificate of a thresholding step ``L1 = svt(Z, kappa)``.

    Returns ``(spectral_excess, pairing_gap)`` for ``W = (Z - L1)/kappa``:
    a correct step has ``||W||_2 <= 1`` and ``<W, L1> = ||L1||_*``, so both
    numbers are nonpositive/zero up to rounding.
    """
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    W = (np.asarray(Z, dtype=np.float64) - L1) / kappa
    _, sw, _ = svd(W)
    _, sl, _ = svd(L1)
    spectral_excess = float(sw.max(initial=0.0)) - 1.0
    pairing_gap = abs(float(np.sum(W * L1)) - float(sl.sum()))
    return spectral_excess, pairing_gap


_FORMAT = "cpcp-instance-v1"


def save_instance(inst, path):
    """Dump the instance descriptor (seed, sizes, measurement indices).

    Matrix values are not stored; they are re-derived from the seed on
    load, and the stored indices guard against generator drift.
    """
    doc = {
        "format": _FORMAT,
        "m": inst.m,
        "n": inst.n,
        "r": inst.r,
        "nnz": inst.nnz,
        "kind": inst.kind,
        "q": inst.q,
        "seed": inst.seed,
        "rng_algorithm": RNG_ALGORITHM,
        "indices": inst.meas.indices.tolist(),
    }
    with open(path, "w", encoding="utf8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=0)
        fh.write("\n")


def load_instance(path):
    """Regenerate a saved instance; fails loudly if the stored indices no
    longer match what the seed regenerates."""
    with open(path, encoding="utf8") as fh:
        doc = json.load(fh)
    if doc.get("format") != _FORMAT:
        raise ValueError(f"unrecognized instance format {doc.get('format')!r}")
    if doc.get("rng_algorithm") != RNG_ALGORITHM:
        raise ValueError(
            "instance was written with generator "
            f"{doc.get('rng_algorithm')!r}, this build uses {RNG_ALGORITHM!r}"
        )
    inst = generate_instance(
        doc["m"], doc["n"], doc["r"], doc["nnz"], doc["kind"], doc["q"], doc["seed"]
    )
    if inst.meas.indices.tolist() != doc["indices"]:
        raise ValueError("regenerated measurement indices differ from the dump")
    return inst
