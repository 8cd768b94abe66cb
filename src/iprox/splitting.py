"""Linearized ADMM, its inertial variant, and their certificates.

The problem class: ``min f(x) + g(y)`` subject to ``A x + B y = b`` with
``x in X``, ``y in Y`` for closed convex sets. The solvers update in the
x, then multiplier, then y order; each primal subproblem linearizes the
quadratic coupling term, so only the proximal maps of f and g are needed.
Every step is a proximal point step under a fixed weighting G (see
:func:`gladmm_operator`), which is what the contraction, ergodic, and
nonergodic certificates below verify.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .prox import ProxOracle, project_box
from .vi_core import (
    SUMMABLE,
    InertialSchedule,
    MixedViProblem,
    SolverTrace,
    WeightOperator,
    gippa_slack,
)


class ExactSubproblemError(RuntimeError):
    """Raised when a step needs a subproblem with no closed form here."""


@dataclass
class SeparableProblem:
    """Two-block separable problem data.

    ``f_prox`` and ``g_prox`` must solve their prox subproblems exactly,
    with any set constraint on the block folded in; ``x_bounds`` and
    ``y_bounds`` (pairs ``(lo, hi)`` or None) describe the same sets for
    membership tests and probe projection. ``f_quad``/``g_quad`` optionally
    carry dense quadratic data ``(P, c)`` enabling exact (non-linearized)
    subproblem solves and the fixture resolvent.
    """

    A: np.ndarray
    B: np.ndarray
    b: np.ndarray
    f_prox: ProxOracle
    g_prox: ProxOracle
    x_bounds: Optional[tuple] = None
    y_bounds: Optional[tuple] = None
    f_quad: Optional[tuple] = None
    g_quad: Optional[tuple] = None

    def __post_init__(self):
        self.A = np.asarray(self.A, dtype=np.float64)
        self.B = np.asarray(self.B, dtype=np.float64)
        self.b = np.asarray(self.b, dtype=np.float64).ravel()
        if self.A.ndim != 2 or self.B.ndim != 2:
            raise ValueError("A and B must be matrices")
        if self.A.shape[0] != self.B.shape[0] or self.A.shape[0] != self.b.size:
            raise ValueError(
                f"row mismatch: A {self.A.shape}, B {self.B.shape}, b {self.b.shape}"
            )

    @property
    def n1(self):
        return self.A.shape[1]

    @property
    def n2(self):
        return self.B.shape[1]

    @property
    def m(self):
        return self.A.shape[0]

    @cached_property
    def rho_ata(self):
        """Largest eigenvalue of ``A' A`` (exact, dense)."""
        return float(np.linalg.eigvalsh(self.A.T @ self.A).max())

    @cached_property
    def rho_btb(self):
        return float(np.linalg.eigvalsh(self.B.T @ self.B).max())

    def feasibility(self, x, y):
        return self.A @ x + self.B @ y - self.b

    def objective(self, x, y):
        return self.f_prox.objective(x) + self.g_prox.objective(y)


@dataclass
class PrimalDualPoint:
    """A primal-dual triple ``(x, y, p)``; ``p`` is the multiplier."""

    x: np.ndarray
    y: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64).ravel()
        self.y = np.asarray(self.y, dtype=np.float64).ravel()
        self.p = np.asarray(self.p, dtype=np.float64).ravel()

    def pack(self):
        return np.concatenate([self.x, self.y, self.p])

    @staticmethod
    def unpack(w, n1, n2):
        w = np.asarray(w, dtype=np.float64).ravel()
        return PrimalDualPoint(w[:n1], w[n1 : n1 + n2], w[n1 + n2 :])

    def copy(self):
        return PrimalDualPoint(self.x.copy(), self.y.copy(), self.p.copy())


def zeros_point(prob):
    return PrimalDualPoint(
        np.zeros(prob.n1), np.zeros(prob.n2), np.zeros(prob.m)
    )


@dataclass
class LadmmParams:
    """Penalty and linearization step sizes.

    The weighting G is positive definite iff ``tau < 1/rho(A'A)`` and
    ``eta < 1/rho(B'B)``; the boundary is accepted with a warning (the
    certificates then hold only in the semidefinite seminorm).
    """

    beta: float
    tau: float
    eta: float

    def __post_init__(self):
        if self.beta <= 0 or self.tau <= 0 or self.eta <= 0:
            raise ValueError("beta, tau, eta must all be positive")


def _check_step_bounds(prob, params):
    margin = 1e-12
    if params.tau * prob.rho_ata > 1.0 + margin or params.eta * prob.rho_btb > 1.0 + margin:
        warnings.warn(
            "step sizes exceed 1/spectral-radius: the weighting is "
            "indefinite and no convergence certificate applies",
            stacklevel=3,
        )
    elif params.tau * prob.rho_ata > 1.0 - 1e-9 or params.eta * prob.rho_btb > 1.0 - 1e-9:
        warnings.warn(
            "boundary step size: the weighting is only positive "
            "semidefinite",
            stacklevel=3,
        )


def gladmm_operator(prob, params, check=True):
    """Weighting G under which one linearized step is one proximal step.

    Block form: ``diag(beta (I/tau - A'A), [beta/eta I, -B'; -B, I/beta])``
    acting on packed ``(x, y, p)``. Evaluation is matrix-free;
    ``materialize`` builds the dense matrix for small problems.
    """
    if check:
        _check_step_bounds(prob, params)
    A, B = prob.A, prob.B
    beta, tau, eta = params.beta, params.tau, params.eta
    n1, n2 = prob.n1, prob.n2

    def apply(w):
        pt = PrimalDualPoint.unpack(w, n1, n2)
        gx = beta * (pt.x / tau - A.T @ (A @ pt.x))
        gy = (beta / eta) * pt.y - B.T @ pt.p
        gp = -(B @ pt.y) + pt.p / beta
        return np.concatenate([gx, gy, gp])

    def quad(w):
        pt = PrimalDualPoint.unpack(w, n1, n2)
        ax = A @ pt.x
        by = B @ pt.y
        return (
            beta * (pt.x @ pt.x / tau - ax @ ax)
            + (beta / eta) * (pt.y @ pt.y)
            - 2.0 * float(by @ pt.p)
            + pt.p @ pt.p / beta
        )

    def materialize():
        m = prob.m
        G = np.zeros((n1 + n2 + m, n1 + n2 + m))
        G[:n1, :n1] = beta * (np.eye(n1) / tau - A.T @ A)
        G[n1 : n1 + n2, n1 : n1 + n2] = (beta / eta) * np.eye(n2)
        G[n1 : n1 + n2, n1 + n2 :] = -B.T
        G[n1 + n2 :, n1 : n1 + n2] = -B
        G[n1 + n2 :, n1 + n2 :] = np.eye(m) / beta
        return G

    return WeightOperator(apply, quad, psd=True, materialize=materialize)


def gadmm_operator(prob, beta):
    """Weighting induced by the exact (non-linearized) update order.

    Its x-block is zero, so the quadratic form is degenerate: it vanishes
    on every ``(x, 0, 0)``. This is why the exact method gets no uniform
    proximal certificate here while the linearized one does.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    B = prob.B
    n1, n2 = prob.n1, prob.n2

    def apply(w):
        pt = PrimalDualPoint.unpack(w, n1, n2)
        by = B @ pt.y
        gy = beta * (B.T @ by) - B.T @ pt.p
        gp = -by + pt.p / beta
        return np.concatenate([np.zeros(n1), gy, gp])

    def quad(w):
        pt = PrimalDualPoint.unpack(w, n1, n2)
        by = B @ pt.y
        return beta * float(by @ by) - 2.0 * float(by @ pt.p) + pt.p @ pt.p / beta

    def materialize():
        m = prob.m
        G = np.zeros((n1 + n2 + m, n1 + n2 + m))
        G[n1 : n1 + n2, n1 : n1 + n2] = beta * (B.T @ B)
        G[n1 : n1 + n2, n1 + n2 :] = -B.T
        G[n1 + n2 :, n1 : n1 + n2] = -B
        G[n1 + n2 :, n1 + n2 :] = np.eye(m) / beta
        return G

    return WeightOperator(apply, quad, psd=True, materialize=materialize)


def lagrangian(prob, x, y, p):
    """``f(x) + g(y) - <p, A x + B y - b>``."""
    return prob.objective(x, y) - float(np.dot(p, prob.feasibility(x, y)))


def to_mixed_vi(prob):
    """Mixed-VI form of the optimality system.

    ``theta(w) = f(x) + g(y)`` and
    ``F(w) = (-A'p, -B'p, A x + B y - b)`` on packed ``(x, y, p)``; F is
    affine with skew-symmetric linear part, hence monotone with modulus 0.
    The resolvent has a closed form (one dense linear solve) when both
    blocks carry quadratic data and no bounds; otherwise it raises
    :class:`ExactSubproblemError`.
    """
    n1, n2, m = prob.n1, prob.n2, prob.m
    dim = n1 + n2 + m
    A, B, b = prob.A, prob.B, prob.b

    def theta(w):
        pt = PrimalDualPoint.unpack(w, n1, n2)
        return prob.objective(pt.x, pt.y)

    def F(w):
        pt = PrimalDualPoint.unpack(w, n1, n2)
        return np.concatenate(
            [-(A.T @ pt.p), -(B.T @ pt.p), A @ pt.x + B @ pt.y - b]
        )

    def omega_contains(w, tol=1e-10):
        pt = PrimalDualPoint.unpack(w, n1, n2)
        for block, bounds in ((pt.x, prob.x_bounds), (pt.y, prob.y_bounds)):
            if bounds is None:
                continue
            lo, hi = bounds
            if np.any(block < lo - tol) or np.any(block > hi + tol):
                return False
        return True

    def project(w):
        pt = PrimalDualPoint.unpack(w, n1, n2)
        if prob.x_bounds is not None:
            pt.x = project_box(pt.x, *prob.x_bounds)
        if prob.y_bounds is not None:
            pt.y = project_box(pt.y, *prob.y_bounds)
        return pt.pack()

    closed_form = (
        prob.f_quad is not None
        and prob.g_quad is not None
        and prob.x_bounds is None
        and prob.y_bounds is None
    )

    if closed_form:
        Pf, cf = prob.f_quad
        Pg, cg = prob.g_quad
        K = np.zeros((dim, dim))
        K[:n1, n1 + n2 :] = -A.T
        K[n1 : n1 + n2, n1 + n2 :] = -B.T
        K[n1 + n2 :, :n1] = A
        K[n1 + n2 :, n1 : n1 + n2] = B
        Hq = np.zeros((dim, dim))
        Hq[:n1, :n1] = np.asarray(Pf, dtype=np.float64)
        Hq[n1 : n1 + n2, n1 : n1 + n2] = np.asarray(Pg, dtype=np.float64)
        shift = np.concatenate([-np.asarray(cf), -np.asarray(cg), b])

        def resolvent(z, lam, G):
            Gm = G.materialize()
            lhs = Hq + K + Gm / lam
            rhs = Gm @ np.asarray(z, dtype=np.float64) / lam + shift
            return np.linalg.solve(lhs, rhs)

    else:

        def resolvent(z, lam, G):
            raise ExactSubproblemError(
                "no closed-form resolvent: quadratic block data without "
                "bounds is required"
            )

    return MixedViProblem(
        dim=dim,
        theta=theta,
        F=F,
        resolvent=resolvent,
        H=None,
        omega_contains=omega_contains,
        project=project,
    )


def _ladmm_core(prob, params, xb, yb, pb):
    """The five updates from an (extrapolated or plain) base point."""
    A, B, b = prob.A, prob.B, prob.b
    beta, tau, eta = params.beta, params.tau, params.eta

    u = A.T @ (A @ xb + B @ yb - b)
    x1 = prob.f_prox.eval(xb - tau * u + (tau / beta) * (A.T @ pb), tau / beta)
    r = A @ x1 + B @ yb - b
    p1 = pb - beta * r
    v = B.T @ r
    y1 = prob.g_prox.eval(yb - eta * v + (eta / beta) * (B.T @ p1), eta / beta)
    return PrimalDualPoint(x1, y1, p1)


def ladmm_step(prob, params, w):
    """One linearized step from ``w``: x-update, multiplier, y-update.

    Both primal updates are proximal maps at gradient-style base points,
    e.g. the x-update is
    ``f_prox(x - tau u + (tau/beta) A'p, tau/beta)`` with
    ``u = A'(A x + B y - b)``.
    """
    return _ladmm_core(prob, params, w.x, w.y, w.p)


def iladmm_step(prob, params, w, w_prev, alpha):
    """One inertial linearized step.

    Extrapolates all three blocks, multiplier included,
    ``wbar = w + alpha (w - w_prev)``, then runs the plain step from
    ``wbar``. Returns ``(wbar, w_next)``. With ``alpha = 0``, ``wbar`` is
    ``w`` and the step is :func:`ladmm_step`.
    """
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    wbar = w
    if alpha:
        wbar = PrimalDualPoint(w.x + alpha * (w.x - w_prev.x),
                               w.y + alpha * (w.y - w_prev.y),
                               w.p + alpha * (w.p - w_prev.p))
    return wbar, _ladmm_core(prob, params, wbar.x, wbar.y, wbar.p)


def run_ladmm(prob, params, w0=None, tol=1e-5, max_iter=1000, w_star=None,
              keep_iterates=True):
    """Iterate :func:`ladmm_step` until the relative step rule fires.

    Stops when ``||w_{k+1} - w_k|| / (1 + ||w_k||) < tol``. The trace
    stores packed iterates, squared G-norm step residuals, and, when
    ``w_star`` (a :class:`PrimalDualPoint`) is given, the distances
    ``phi_k = ||w_k - w*||_G^2``. This is :func:`run_iladmm` at zero
    extrapolation, which reproduces the plain steps bitwise.
    """
    return _run(prob, params, InertialSchedule.constant(0.0), w0, tol,
                max_iter, w_star, keep_iterates)


def run_iladmm(prob, params, schedule, w0=None, tol=1e-5, max_iter=1000,
               w_star=None, keep_iterates=True):
    """Iterate :func:`iladmm_step` under an extrapolation schedule.

    The stopping rule compares against the extrapolated point:
    ``||w_{k+1} - wbar_k|| / (1 + ||wbar_k||) < tol``.
    """
    return _run(prob, params, schedule, w0, tol, max_iter, w_star, keep_iterates)


def _run(prob, params, schedule, w0, tol, max_iter, w_star, keep_iterates):
    G = gladmm_operator(prob, params)
    w = zeros_point(prob) if w0 is None else w0.copy()
    w_prev = w
    v = v_prev = w.pack()
    star = None if w_star is None else w_star.pack()
    reads_dsq = schedule.kind == SUMMABLE
    trace = SolverTrace(
        iterates=[v] if keep_iterates else None,
        phi=None if star is None else [G.quad(v - star)],
    )
    for k in range(max_iter):
        # the last step's G-norm costs a dense product: compute it only
        # when the schedule reads it or the inertia term is nonzero
        dw_sq = G.quad(v - v_prev) if reads_dsq else 0.0
        alpha_k = schedule.alpha(k, dw_sq)
        if alpha_k and not reads_dsq:
            dw_sq = G.quad(v - v_prev)
        wbar, w1 = iladmm_step(prob, params, w, w_prev, alpha_k)
        v1, vbar = w1.pack(), v if wbar is w else wbar.pack()
        trace.alphas.append(alpha_k)
        trace.lambdas.append(1.0)
        trace.delta.append(2.0 * alpha_k * dw_sq)
        trace.step_residuals.append(G.quad(v1 - vbar))
        rel = float(np.linalg.norm(v1 - vbar)) / (1.0 + float(np.linalg.norm(vbar)))
        trace.stop_residuals.append(rel)
        if trace.iterates is not None:
            trace.iterates.append(v1)
        if star is not None:
            trace.phi.append(G.quad(v1 - star))
        w_prev, w = w, w1
        v_prev, v = v, v1
        trace.iterations = k + 1
        if rel < tol:
            trace.converged = True
            break
    trace.extras["final"] = w
    return trace


def vi_residual_check(prob, params, w_k, w_kp1, probes):
    """Minimum slack of the step's variational characterization.

    For probes ``w in Omega`` evaluates
    ``theta(w) - theta(w+) + <w - w+, F(w+) + G (w+ - w_k)>`` with
    ``w+ = w_kp1``; a correct step keeps this nonnegative up to rounding
    for every probe.
    """
    vi = to_mixed_vi(prob)
    G = gladmm_operator(prob, params, check=False)
    packed = [pt.pack() if isinstance(pt, PrimalDualPoint) else pt for pt in probes]
    return gippa_slack(vi, G, w_k.pack(), w_kp1.pack(), 1.0, packed)


def sample_probes(prob, center, radius, count, rng):
    """Probe points uniform in a box around ``center``, projected onto
    the constraint sets (the multiplier block is unconstrained)."""
    out = []
    for _ in range(count):
        x = center.x + rng.uniform(-radius, radius, prob.n1)
        y = center.y + rng.uniform(-radius, radius, prob.n2)
        p = center.p + rng.uniform(-radius, radius, prob.m)
        if prob.x_bounds is not None:
            x = project_box(x, *prob.x_bounds)
        if prob.y_bounds is not None:
            y = project_box(y, *prob.y_bounds)
        out.append(PrimalDualPoint(x, y, p))
    return out


@dataclass
class ErgodicReport:
    """Saddle-gap certificate for averaged iterates.

    For each requested k, ``gaps[k][j]`` is the gap of probe j against
    the average of the first k+1 iterates and ``bounds[k][j]`` the
    guaranteed envelope ``||w_j - w_0||_G^2 / (2 (k + 1))``.
    """

    ks: list
    gaps: dict
    bounds: dict
    violations: list
    ok: bool


def ergodic_report(trace, prob, params, probes, ks, tol=1e-8):
    """Check the O(1/k) saddle-gap certificate on a plain-step trace."""
    if trace.iterates is None:
        raise ValueError("trace must carry iterates")
    G = gladmm_operator(prob, params, check=False)
    w0 = trace.iterates[0]
    n1, n2 = prob.n1, prob.n2
    gaps, bounds, violations = {}, {}, []
    for k in ks:
        if k + 1 >= len(trace.iterates):
            raise ValueError(f"trace too short for k={k}")
        avg = np.mean(trace.iterates[1 : k + 2], axis=0)
        bar = PrimalDualPoint.unpack(avg, n1, n2)
        gaps[k], bounds[k] = [], []
        for j, probe in enumerate(probes):
            gap = lagrangian(prob, bar.x, bar.y, probe.p) - lagrangian(
                prob, probe.x, probe.y, bar.p
            )
            bound = G.quad(probe.pack() - w0) / (2.0 * (k + 1))
            gaps[k].append(gap)
            bounds[k].append(bound)
            if gap > bound + tol:
                violations.append((k, j))
    return ErgodicReport(list(ks), gaps, bounds, violations, not violations)


@dataclass
class NonergodicReport:
    """Step-residual certificate for the last iterate.

    ``residuals[k-1] = ||w_k - w_{k-1}||_G``; the sequence must be
    nonincreasing and ``k * residuals[k-1]^2`` must stay below
    ``phi0 = ||w_0 - w*||_G^2``.
    """

    residuals: np.ndarray
    scaled: np.ndarray
    phi0: float
    monotonicity_violations: list
    bound_violations: list
    ok: bool


def nonergodic_report(trace, prob, params, w_star, mono_rtol=1e-12, tol=1e-8):
    """Check residual monotonicity and the O(1/k) envelope on a plain
    (non-extrapolated) trace."""
    if trace.iterates is None:
        raise ValueError("trace must carry iterates")
    if any(a != 0.0 for a in trace.alphas):
        raise ValueError("the nonergodic certificate needs a plain trace")
    G = gladmm_operator(prob, params, check=False)
    iters = trace.iterates
    res = np.array([G.norm(iters[k] - iters[k - 1]) for k in range(1, len(iters))])
    mono = [
        int(k + 1)
        for k in range(1, res.size)
        if res[k] > res[k - 1] * (1.0 + mono_rtol)
    ]
    phi0 = G.quad(iters[0] - w_star.pack())
    ks = np.arange(1, res.size + 1)
    scaled = ks * res**2
    bound = [int(k) for k, s in zip(ks, scaled) if s > phi0 + tol]
    return NonergodicReport(
        residuals=res,
        scaled=scaled,
        phi0=phi0,
        monotonicity_violations=mono,
        bound_violations=bound,
        ok=not mono and not bound,
    )
