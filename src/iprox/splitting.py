"""Linearized ADMM, its inertial variant, and their certificates.

The problem class: ``min f(x) + g(y)`` subject to ``A x + B y = b`` with
``x in X``, ``y in Y`` for closed convex sets. ``A`` and ``B`` are dense
matrices or linear operators, such as the partial transforms of
:mod:`iprox.numkit`. The solvers update in the x, then multiplier, then y
order; each primal subproblem linearizes the quadratic coupling term, so
only the proximal maps of f and g are needed. Every step is a proximal
point step under a weighting G (see :func:`gladmm_operator`), which is
what the contraction, ergodic, and nonergodic certificates below verify.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .prox import ProxOracle
from .vi_core import (
    MAX_ITER,
    TOL,
    InertialSchedule,
    MixedViProblem,
    ProbeSet,
    WeightOperator,
    _point,
    _sq,
    gippa_slack,
    inertial_loop,
    stopping_residual,
)


class ExactSubproblemError(RuntimeError):
    """Raised when a step needs a subproblem with no closed form here."""


class _MatrixOp:
    """A dense matrix as a linear operator on vectors."""

    def __init__(self, M):
        self.apply, self.adjoint = M.__matmul__, M.T.__matmul__
        self.input_shape = (M.shape[1],)
        # largest eigenvalue of M' M (exact, dense)
        self.spectral_bound = float(np.linalg.eigvalsh(M.T @ M).max())


@dataclass
class SeparableProblem:
    """Two-block separable problem data.

    ``A`` and ``B`` are dense matrices, or linear operators with
    ``apply``, ``adjoint``, the ``input_shape`` of their blocks and a
    ``spectral_bound`` on the largest eigenvalue of ``A* A`` (1 for a
    partial orthonormal transform). ``f_prox`` and ``g_prox`` must solve
    their prox subproblems exactly, with any set constraint on the block
    folded in.
    ``f_quad``/``g_quad`` optionally carry dense quadratic data ``(P, c)``
    enabling the resolvent of :attr:`mixed_vi`; the dense forms need
    matrices.
    """

    A: object
    B: object
    b: np.ndarray
    f_prox: ProxOracle
    g_prox: ProxOracle
    f_quad: Optional[tuple] = None
    g_quad: Optional[tuple] = None

    def __post_init__(self):
        self.b = np.asarray(self.b, dtype=np.float64).ravel()
        for name in ("A", "B"):
            M = getattr(self, name)
            if not hasattr(M, "apply"):
                M = np.asarray(M, dtype=np.float64)
                if M.ndim != 2 or M.shape[0] != self.b.size:
                    raise ValueError(f"{name} {M.shape} is not a matrix "
                                     f"with {self.b.size} rows")
                setattr(self, name, M)

    @cached_property
    def _weightings(self):
        """The dense weightings built so far, by ``(beta, tau, eta)``."""
        return {}

    @cached_property
    def _ops(self):
        return tuple(M if hasattr(M, "apply") else _MatrixOp(M)
                     for M in (self.A, self.B))

    @property
    def n1(self):
        return math.prod(self._ops[0].input_shape)

    @property
    def n2(self):
        return math.prod(self._ops[1].input_shape)

    @property
    def m(self):
        return self.b.size

    @property
    def rho_ata(self):
        """Largest eigenvalue of ``A' A``, or the operator's bound."""
        return self._ops[0].spectral_bound

    @property
    def rho_btb(self):
        return self._ops[1].spectral_bound

    def feasibility(self, x, y):
        A, B = self._ops
        return A.apply(x) + B.apply(y) - self.b

    def objective(self, x, y):
        return self.f_prox.objective(x) + self.g_prox.objective(y)

    def split(self, w):
        """The blocks ``(x, y, p)`` of a packed point ``w``, as views."""
        n1, n2 = self.n1, self.n2
        return w[:n1], w[n1 : n1 + n2], w[n1 + n2 :]

    def kkt_system(self):
        """The KKT matrix ``[[Pf, 0, -A'], [0, Pg, -B'], [A, B, 0]]`` and
        right-hand side ``(-cf, -cg, b)`` of matrix data with quadratic
        blocks ``(Pf, cf)`` and ``(Pg, cg)``, built anew on each call;
        raises :class:`ExactSubproblemError` without that data."""
        if self.f_quad is None or self.g_quad is None:
            raise ExactSubproblemError(
                "no closed-form resolvent: quadratic block data is required")
        (Pf, cf), (Pg, cg) = self.f_quad, self.g_quad
        n1, n2, m = self.n1, self.n2, self.m
        K = np.block([[Pf, np.zeros((n1, n2)), -self.A.T],
                      [np.zeros((n2, n1)), Pg, -self.B.T],
                      [self.A, self.B, np.zeros((m, m))]])
        return K, np.concatenate([-np.asarray(cf), -np.asarray(cg), self.b])

    @cached_property
    def mixed_vi(self):
        """Mixed-VI form of the optimality system, built on first use.

        ``theta(w) = f(x) + g(y)`` and
        ``F(w) = (-A'p, -B'p, A x + B y - b)`` on packed ``(x, y, p)``; F
        is affine with skew-symmetric linear part, hence monotone with
        modulus 0. The resolvent under a dense weighting has a closed form
        (one dense linear solve of the KKT matrix plus G) when both blocks
        carry quadratic data; otherwise it raises
        :class:`ExactSubproblemError`.
        """
        A, B, b = self.A, self.B, self.b

        def theta(w):
            x, y, _ = self.split(w)
            return self.objective(x, y)

        def F(w):
            x, y, p = self.split(w)
            return np.concatenate([-(A.T @ p), -(B.T @ p), A @ x + B @ y - b])

        def resolvent(z, G):
            # the KKT system is built per call, so the certificates, which
            # never call the resolvent, keep no dense matrix with the form
            K, shift = self.kkt_system()
            return np.linalg.solve(K + G.matrix, G.apply(z) + shift)

        return MixedViProblem(dim=self.n1 + self.n2 + self.m, theta=theta, F=F,
                              resolvent=resolvent)


def zeros_point(prob):
    """The packed zero point ``(x, y, p) = 0``, of length n1 + n2 + m."""
    return np.zeros(prob.n1 + prob.n2 + prob.m)


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


@dataclass
class BetaController:
    """The loop's penalty, rebalanced during the first ``active_iters``
    iterations and then frozen; ``active_iters = 0`` keeps it fixed.

    It moves by factors of two (doubled when the tuning ratio exceeds 5,
    halved below 0.1) inside ``[BETA_MIN, BETA_MAX]``, and freezes after
    the active window so the proximal weighting stops changing. The
    caller picks the start; :mod:`iprox.cpcp` starts its solves inside
    the same bounds.

    The ratio compares the penalty against ``balance``, run state recorded
    at the first tuned iterate: ``balance = 2 * S_SCALE * obj_1 / feas_sq_1``
    is the penalty that would weight the quadratic infeasibility term to
    ``S_SCALE`` times the objective there, and ``ratio = balance / beta``.
    The infeasibility itself decays geometrically while the objective
    settles, so a ratio re-read from the current iterate has no stable
    landing point; the frozen snapshot turns the rule into a bounded
    geometric walk from the initial penalty to the balance zone.
    """

    BETA_MIN, BETA_MAX, S_SCALE = 1e-3, 1e2, 10.0  # the rule's bounds and balance scale
    beta: float
    active_iters: int = 30
    balance: Optional[float] = field(default=None, init=False)

    def __post_init__(self):
        if self.beta <= 0:
            raise ValueError("beta must be positive")

    def active(self, k):
        """Whether the rule still applies before step ``k`` (0-based).

        Tuning starts at the first computed iterate (k = 1); the start
        point carries no objective/infeasibility balance to read.
        """
        return 1 <= k <= self.active_iters

    def apply_rule(self, feas_sq, objective_value):
        """One rebalancing update from the current infeasibility and
        objective; a nonpositive objective or a feasible iterate is
        treated as ratio 0 (the penalty backs off)."""
        if objective_value > 0 and feas_sq > 0:
            if self.balance is None:
                self.balance = 2.0 * self.S_SCALE * objective_value / feas_sq
            ratio = self.balance / self.beta
        else:
            ratio = 0.0
        if ratio < 0.1:
            self.beta = max(0.5 * self.beta, self.BETA_MIN)
        elif ratio > 5.0:
            self.beta = min(2.0 * self.beta, self.BETA_MAX)
        return self.beta


def _check_step_bounds(prob, tau, eta):
    scaled = max(tau * prob.rho_ata, eta * prob.rho_btb)
    if scaled > 1.0 + 1e-12:
        warnings.warn("step sizes exceed 1/spectral-radius: the weighting is "
                      "indefinite and no convergence certificate applies",
                      stacklevel=3)
    elif scaled > 1.0 - 1e-9:
        warnings.warn("boundary step size: the weighting is only positive "
                      "semidefinite", stacklevel=3)


def _gquad(beta, tau, eta, d, sq):
    """``<d, G d>`` for the G of :func:`gladmm_operator`, in closed form at
    ``d = (dx, dy, dp, A dx, B dy)``, so it needs no matrix; ``sq`` holds
    the squared block norms ``(|dx|^2, |dy|^2, |dp|^2)``."""
    _, _, dp, adx, bdy = d
    xx, yy, pp = sq
    return (beta * (xx / tau - float(adx @ adx)) + (beta / eta) * yy
            - 2.0 * float(bdy @ dp) + pp / beta)


def gladmm_operator(prob, params):
    """Weighting G under which one linearized step is one proximal step.

    The dense matrix
    ``diag(beta (I/tau - A'A), [beta/eta I, -B'; -B, I/beta])`` on packed
    ``(x, y, p)``, for the certificates on matrix problems; an operator
    problem raises TypeError. Solves weight their steps with the same
    norm in closed form, from carried ``A x`` and ``B y``. The matrix is
    built once per problem and ``(beta, tau, eta)`` and then shared, so
    it is read-only.
    """
    A, B = prob.A, prob.B
    if not (isinstance(A, np.ndarray) and isinstance(B, np.ndarray)):
        raise TypeError("the dense weighting G needs matrix data A and B")
    key = (float(params.beta), float(params.tau), float(params.eta))
    if key not in prob._weightings:
        beta, tau, eta = key
        n1, n2, m = prob.n1, prob.n2, prob.m
        # filled block by block: np.block takes twice as long at 8 x 8 x 8
        G = np.zeros((n1 + n2 + m, n1 + n2 + m))
        G[:n1, :n1] = beta * (np.eye(n1) / tau - A.T @ A)
        G[n1 : n1 + n2, n1 : n1 + n2] = (beta / eta) * np.eye(n2)
        G[n1 : n1 + n2, n1 + n2 :] = -B.T
        G[n1 + n2 :, n1 : n1 + n2] = -B
        G[n1 + n2 :, n1 + n2 :] = np.eye(m) / beta
        G.flags.writeable = False  # shared by every caller with these parameters
        prob._weightings[key] = WeightOperator(G)
    return prob._weightings[key]


def lagrangian(prob, x, y, p):
    """``f(x) + g(y) - <p, A x + B y - b>``; for a matrix ``p``, one value
    per row of multipliers."""
    return prob.objective(x, y) - p @ prob.feasibility(x, y)


def _step(prob, beta, tau, eta, xb, yb, pb, axb, byb):
    """The five updates from a base point, given ``axb = A xb`` and
    ``byb = B yb``; returns ``(x1, y1, p1, A x1, B y1, f(x1) + g(y1))``.

    Each adjoint pair ``A'r - A'p/beta`` is merged into one adjoint of
    ``r - p/beta``, so a step applies A and B once each and their
    adjoints once each.
    """
    opA, opB = prob._ops
    x1, fx = prob.f_prox.eval(xb - tau * opA.adjoint(axb + byb - prob.b - pb / beta),
                              tau / beta)
    ax1 = opA.apply(x1)
    r2 = ax1 + byb - prob.b
    p1 = pb - beta * r2
    y1, gy = prob.g_prox.eval(yb - eta * opB.adjoint(r2 - p1 / beta), eta / beta)
    return x1, y1, p1, ax1, opB.apply(y1), fx + gy


def _carried(prob, w):
    """``(x, y, p, A x, B y)`` at the packed point ``w``, or at zero when
    ``w`` is None (with no operator call); blocks take the operators'
    input shapes."""
    opA, opB = prob._ops
    if w is None:
        # distinct arrays: the loop writes into the blocks of its start point
        return (np.zeros(opA.input_shape), np.zeros(opB.input_shape),
                np.zeros(prob.m), np.zeros(prob.m), np.zeros(prob.m))
    x, y, p = prob.split(_point(w, prob.n1 + prob.n2 + prob.m, "a packed point"))
    x, y = x.reshape(opA.input_shape), y.reshape(opB.input_shape)
    return x, y, p, opA.apply(x), opB.apply(y)


def ladmm_step(prob, params, w):
    """One linearized step from the packed point ``w``: x-update,
    multiplier, y-update; returns the packed next point.

    Both primal updates are proximal maps at gradient-style base points,
    e.g. the x-update is
    ``f_prox(x - tau A'(A x + B y - b - p/beta), tau/beta)``.
    """
    x1, y1, p1, *_ = _step(prob, params.beta, params.tau, params.eta, *_carried(prob, w))
    return np.concatenate([x1, y1, p1], axis=None)


def iladmm_step(prob, params, w, w_prev, alpha):
    """One inertial linearized step on packed points.

    Extrapolates all three blocks, multiplier included,
    ``wbar = w + alpha (w - w_prev)``, then calls :func:`ladmm_step` from
    ``wbar``. Returns ``(wbar, w_next)``. With ``alpha = 0``, ``wbar`` is
    ``w`` itself.
    """
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    wbar = w + alpha * (w - w_prev) if alpha else w
    return wbar, ladmm_step(prob, params, wbar)


def run_ladmm(prob, params, tol=TOL, max_iter=MAX_ITER, w_star=None):
    """Run the plain linearized step at the fixed penalty ``params.beta``
    from the zero point until the relative step rule fires.

    The step is ``_step`` run through :func:`_run` in
    :func:`~iprox.vi_core.inertial_loop`, which carries ``A x`` and
    ``B y`` instead of applying A and B again. Stops when
    ``||w_{k+1} - w_k|| / (1 + ||w_k||) < tol``. The trace stores packed
    iterates, the last one the loop's final point, and squared G-norm
    step residuals. When the packed point ``w_star`` is given,
    ``trace.phi`` holds the distances ``phi_k = ||w_k - w*||_G^2`` over
    the iterates, formed after the run under :func:`gladmm_operator`'s
    G, so a problem given through operators raises its TypeError. This
    is :func:`run_iladmm` at zero extrapolation, bitwise.
    """
    trace, _ = _run(prob, BetaController(params.beta, active_iters=0), params.tau,
                    params.eta, InertialSchedule(0.0), tol, max_iter, keep_iterates=True)
    if w_star is not None:
        G = gladmm_operator(prob, params)
        w_star = _point(w_star, G.matrix.shape[0], "w_star")
        trace.phi = [G.quad(w - w_star) for w in trace.iterates]
    return trace


def run_iladmm(prob, params, schedule, tol=TOL, max_iter=MAX_ITER):
    """Run the inertial linearized step at the fixed penalty ``params.beta``
    from the zero point under an extrapolation schedule.

    :func:`~iprox.vi_core.inertial_loop` extrapolates the carried point
    ``(x, y, p, A x, B y)`` and runs ``_step`` from it (see :func:`_run`).
    :func:`iladmm_step` extrapolates ``(x, y, p)`` and applies A and B
    again, so its iterates follow these up to rounding, not bit for bit.
    The stopping rule compares against the extrapolated point:
    ``||w_{k+1} - wbar_k|| / (1 + ||wbar_k||) < tol``.
    """
    return _run(prob, BetaController(params.beta, active_iters=0), params.tau,
                params.eta, schedule, tol, max_iter, keep_iterates=True)[0]


def _run(prob, penalty, tau, eta, schedule, tol, max_iter, keep_iterates=False,
         stop=stopping_residual):
    """Linearized ADMM in :func:`~iprox.vi_core.inertial_loop` from the
    zero point, on points ``(x, y, p, A x, B y)``: ``A x`` and ``B y``
    are carried, so the weighted norms cost no operator call. ``penalty``
    is a :class:`BetaController`, which the step rebalances from ``w_k``
    and its objective before step k while its window is active.
    Returns the trace and the loop's last blocks ``(x, y, p)``, in the
    operators' input shapes. ``trace.extras`` holds the penalty per step
    (``beta``), the carried ``measurement`` ``A x + B y``, its
    ``feasibility`` and ``relative_feasibility``.
    """
    if tau <= 0 or eta <= 0:
        raise ValueError("tau and eta must be positive")
    _check_step_bounds(prob, tau, eta)
    betas, out = [], None  # out: the last _step output, w_k and its objective

    def step(wbar):
        nonlocal out
        if penalty.active(len(betas)):  # no residual is held through the step
            penalty.apply_rule(_sq(out[3] + out[4] - prob.b), out[5])
        betas.append(penalty.beta)
        out = _step(prob, penalty.beta, tau, eta, *wbar)
        return out[:5], out[5]

    trace, last = inertial_loop(
        step, lambda d, sq: _gquad(penalty.beta, tau, eta, d, sq), schedule.alpha,
        _carried(prob, None), tol, max_iter, blocks=3,
        keep_iterates=keep_iterates, stop=stop,
    )
    measured = last[3] + last[4]
    feas = float(np.linalg.norm(measured - prob.b))
    bnorm = float(np.linalg.norm(prob.b))
    trace.extras["beta"] = betas
    trace.extras["measurement"] = measured
    trace.extras["feasibility"] = feas
    trace.extras["relative_feasibility"] = feas / bnorm if bnorm > 0 else feas
    return trace, last[:3]


def vi_residual_check(prob, params, w_k, w_kp1, probes):
    """Minimum slack of the step's variational characterization.

    For packed probes ``w in Omega`` evaluates
    ``theta(w) - theta(w+) + <w - w+, F(w+) + G (w+ - w_k)>`` with
    ``w+ = w_kp1``; a correct step keeps this nonnegative up to rounding
    for every probe. ``probes`` is the :class:`~iprox.vi_core.ProbeSet`
    that :func:`sample_probes` drew for ``prob``, whose objective values
    are reused as they are; a set drawn for another problem raises
    ValueError.
    """
    return gippa_slack(prob.mixed_vi, gladmm_operator(prob, params), w_k, w_kp1,
                       probes.of(prob))


def sample_probes(prob, center, radius, count, rng):
    """Packed probe points uniform in a box around the packed ``center``.

    Returns a :class:`~iprox.vi_core.ProbeSet` drawn for ``prob``: row j
    of its ``points`` is ``center`` plus the j-th draw of ``n1 + n2 + m``
    uniforms from ``rng``, and ``theta[j]`` is ``f(x) + g(y)`` at that
    row, evaluated once here through ``prob.objective``.
    """
    dim = prob.n1 + prob.n2 + prob.m
    points = center + rng.uniform(-radius, radius, count * dim).reshape(count, dim)
    return ProbeSet.evaluate(prob, prob.mixed_vi.theta, points)


@dataclass
class ErgodicReport:
    """Saddle-gap certificate for averaged iterates.

    For each requested k, ``gaps[k][j]`` is the gap of probe j against
    the average of the first k+1 iterates and ``bounds[k][j]`` the
    guaranteed envelope ``||w_j - w_0||_G^2 / (2 (k + 1))``, both as
    arrays over the probes. Criterion 4 of :mod:`iprox.checks` gates them.
    """

    gaps: dict
    bounds: dict


def ergodic_report(trace, prob, params, probes, ks):
    """The O(1/k) saddle-gap certificate of a plain-step trace, against
    the ``probes`` :func:`sample_probes` drew for ``prob`` (a set
    drawn for another problem raises ValueError).

    The gap of probe ``w = (x, y, p)`` against the average ``wb`` is
    ``L(xb, yb, p) - L(x, y, pb)`` for the Lagrangian L of
    :func:`lagrangian`. The probes' objective values, feasibilities and
    envelope distances ``||w_j - w_0||_G^2`` are formed once per report;
    each k adds the objective and feasibility at its average and two
    matrix-vector products.
    """
    if trace.iterates is None:
        raise ValueError("trace must carry iterates")
    probes.of(prob)
    G = gladmm_operator(prob, params)
    w0 = trace.iterates[0]
    mult = probes.points[:, prob.n1 + prob.n2 :]
    feas = np.array([prob.feasibility(x, y) for x, y, _ in map(prob.split, probes)])
    dist = np.array([G.quad(w - w0) for w in probes])
    gaps, bounds = {}, {}
    for k in ks:
        if k + 1 >= len(trace.iterates):
            raise ValueError(f"trace too short for k={k}")
        xb, yb, pb = prob.split(np.mean(trace.iterates[1 : k + 2], axis=0))
        gaps[k] = lagrangian(prob, xb, yb, mult) - (probes.theta - feas @ pb)
        bounds[k] = dist / (2.0 * (k + 1))
    return ErgodicReport(gaps, bounds)


@dataclass
class NonergodicReport:
    """Step-residual certificate for the last iterate.

    The step norms ``||w_k - w_{k-1}||_G``, square roots of the trace's
    ``step_residuals``, must not rise by a relative 1e-12, and
    ``scaled[k-1]``, k times the k-th squared, must stay within 1e-8 of
    ``phi0 = ||w_0 - w*||_G^2``; the violation lists name the k that fail.
    """

    scaled: np.ndarray
    phi0: float
    monotonicity_violations: list
    bound_violations: list
    ok: bool


def nonergodic_report(trace, prob, params, w_star):
    """Check residual monotonicity and the O(1/k) envelope on a plain
    (non-extrapolated) trace.

    The residuals are read off the trace's ``step_residuals``, the squared
    G-norms of the steps under the run's own weighting, so ``params``
    must be the parameters of the run that made ``trace``; they weight
    ``phi0``, the distance from the first iterate to the packed
    ``w_star``.
    """
    if trace.iterates is None:
        raise ValueError("trace must carry iterates")
    if any(a != 0.0 for a in trace.alphas):
        raise ValueError("the nonergodic certificate needs a plain trace")
    G = gladmm_operator(prob, params)
    iters = trace.iterates
    # tiny negative squared norms from round-off are clipped to zero
    res = np.sqrt(np.maximum(trace.step_residuals, 0.0))
    mono = [
        int(k + 1)
        for k in range(1, res.size)
        if not res[k] <= res[k - 1] * (1.0 + 1e-12)
    ]
    phi0 = G.quad(iters[0] - _point(w_star, iters[0].size, "w_star"))
    ks = np.arange(1, res.size + 1)
    scaled = ks * res**2
    bound = [int(k) for k, s in zip(ks, scaled) if not s <= phi0 + 1e-8]
    return NonergodicReport(
        scaled=scaled,
        phi0=phi0,
        monotonicity_violations=mono,
        bound_violations=bound,
        ok=not mono and not bound,
    )
