"""Inertial proximal point engine for mixed variational inequalities.

The problem: find ``w* in Omega`` such that for all ``w in Omega``

    theta(w) - theta(w*) + <w - w*, F(w*)> >= 0,

with ``theta`` convex, ``F`` continuous and monotone, ``Omega`` closed
convex. Each iteration extrapolates ``wbar = w_k + alpha_k (w_k - w_km1)``
and asks the problem's resolvent oracle for the unique ``w`` solving the
regularized inequality

    theta(v) - theta(w) + <v - w, F(w) + G (w - wbar)> >= 0

for all ``v in Omega``, where ``G`` is a positive semidefinite weighting
matrix supplied by the caller. ``G`` is the only proximal parameter: a
constant step ``lambda`` is the weighting ``G / lambda``, and ``Omega``
enters only through the resolvent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

_GUARANTEED_CAP = 1.0 / 3.0
TOL, MAX_ITER = 1e-5, 1000  # every solver's default stopping rule and limit


class WeightOperator:
    """Positive semidefinite weighting ``G``, a dense square matrix.

    ``matrix`` is ``G`` itself, which resolvents read directly;
    ``apply(v)`` is ``G v`` and ``quad(v)`` the quadratic form
    ``<v, G v>``. Weightings here serve small fixtures and certificates;
    a solve weights its steps with a closed-form norm instead.
    """

    def __init__(self, G):
        G = np.asarray(G, dtype=np.float64)
        if G.ndim != 2 or G.shape[0] != G.shape[1]:
            raise ValueError("G must be square")
        self.matrix = G

    def apply(self, v):
        return self.matrix @ np.asarray(v, dtype=np.float64)

    def quad(self, v):
        v = np.asarray(v, dtype=np.float64)
        return float(v @ (self.matrix @ v))

    @classmethod
    def from_matrix(cls, G):
        """The same as ``WeightOperator(G)``."""
        return cls(G)


@dataclass
class MixedViProblem:
    """A mixed variational inequality given through oracles.

    ``resolvent(z, G)`` must return the exact solution of the
    regularized inequality above with ``wbar`` replaced by ``z``; closed
    forms for the shipped fixture families live in :mod:`iprox.fixtures`.
    """

    dim: int
    theta: Callable[[np.ndarray], float]
    F: Callable[[np.ndarray], np.ndarray]
    resolvent: Callable[[np.ndarray, WeightOperator], np.ndarray]


class InertialSchedule:
    """A constant extrapolation factor for the inertial engine.

    ``alpha(k)`` is the factor ``alpha_k`` of every iteration k. A factor
    below 1/3 is the regime under which the O(1/k) and o(1/k) residual
    guarantees hold; ``guaranteed_regime`` tells whether a schedule
    qualifies. Factors up to (but excluding) 1 are accepted so experiment
    sweeps can probe beyond the guaranteed range. The schedule sets no
    step size: a constant step ``lambda`` is folded into the weighting as
    ``G / lambda``.
    """

    def __init__(self, alpha):
        if not 0.0 <= alpha < 1.0:
            raise ValueError(f"alpha must lie in [0, 1), got {alpha}")
        self.value = float(alpha)

    @classmethod
    def constant(cls, alpha):
        """The same as ``InertialSchedule(alpha)``."""
        return cls(alpha)

    @property
    def guaranteed_regime(self):
        return self.value < _GUARANTEED_CAP

    def alpha(self, k):
        """Extrapolation factor for iteration ``k`` (0-based)."""
        return self.value


@dataclass
class SolverTrace:
    """Per-iteration diagnostics, filled by :func:`inertial_loop`.

    Lengths: with ``K = iterations``, ``iterates`` holds K + 1 entries
    starting at the initial point, while the per-step lists hold K
    entries. ``step_residuals`` are squared G-norms of
    ``w_{k+1} - wbar_k``; ``stop_residuals`` the relative stopping
    quantities. ``objective`` is always a list: K + 1 entries from
    :func:`nesterov_ippa`, f(w_0) first, K from :mod:`iprox.splitting`,
    and none from the VI engine. ``phi``,
    the distances ``||w_k - w*||_G^2`` over ``iterates``, is filled only
    by :func:`iprox.splitting.run_ladmm`, after the run. ``status`` tells
    why the run stopped: ``"converged"``, ``"max_iter"`` or
    ``"non_finite"`` (a stopping residual that is not finite).
    """

    iterates: Optional[list] = None
    alphas: list = field(default_factory=list)
    step_residuals: list = field(default_factory=list)
    stop_residuals: list = field(default_factory=list)
    phi: Optional[list] = None
    objective: list = field(default_factory=list)
    extras: dict = field(default_factory=dict)
    status: str = "max_iter"
    iterations: int = 0

    @property
    def converged(self):
        """Whether the stopping rule fired."""
        return self.status == "converged"


def stopping_residual(step_sq, ref_sq):
    """Relative step size ``||step|| / (1 + ||ref||)`` from the squared
    Euclidean norms of the step and of the reference point."""
    return math.sqrt(step_sq) / (1.0 + math.sqrt(ref_sq))


def _sq(u):
    return float(np.vdot(u, u))


def _point(w, dim, name):
    """``w`` as a float vector; ValueError unless it has length ``dim``."""
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (dim,):
        raise ValueError(f"{name} must have length {dim}, got shape {w.shape}")
    return w


def inertial_loop(step, gquad, alpha, w, tol, max_iter, *, blocks=1,
                  keep_iterates=True, stop=stopping_residual):
    """The iteration loop behind every solver of the package, from ``w``.

    Its callables are the method's four pieces: the step, the G-norm, the
    factor and the stopping rule. A point is a tuple of arrays whose first
    ``blocks`` entries form the iterate; the rest are carried data, such as
    the ``A x`` that the linearized ADMM step reads instead of applying A.
    Step k takes ``alpha_k = alpha(k)``, which must be nonnegative, forms
    ``wbar_k = w_k + alpha_k (w_k - w_{k-1})`` (``w_k`` itself when
    ``alpha_k`` is 0), and calls ``step(wbar_k)`` for ``(w_{k+1},
    objective at w_{k+1})``, recording the objective unless it is None. The
    step must not modify ``wbar_k``, may read ``w_k`` (intact until the
    step returns, as a penalty rule needs), and must return arrays that
    share memory with no point the loop holds. ``gquad(d, sq)`` is
    ``||d||_G^2``, ``sq`` being the squared norms of the first ``blocks``
    arrays of ``d``. ``keep_iterates`` records the packed iterates that
    certificates read; ``stop`` lets a wrapper on
    ``cpcp.stopping_residual`` see each call.

    The loop owns ``w`` and reuses the storage of the points it retires,
    so an inertial step holds three points (``w_k``, ``wbar_k``,
    ``w_{k+1}``) and a plain one two:

    - ``d_k = w_k - w_{k-1}`` is written into the arrays of ``w_{k-1}``
      (new arrays at k = 0, where ``w_{k-1}`` is ``w_0``) and turned into
      ``wbar_k`` there, in place;
    - ``w_{k+1} - wbar_k`` is written into the arrays of ``wbar_k``, once
      ``||wbar_k||^2`` is taken, unless they are ``w_k``'s and
      ``alpha_{k+1}`` is nonzero.

    Stops when ``stop(||w_{k+1} - wbar_k||^2, ||wbar_k||^2) < tol``, the
    norms taken over the blocks, at the first step where that value is
    not finite, or after ``max_iter`` steps. Returns the trace and the
    last point.
    """
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    if max_iter < 0:
        raise ValueError(f"max_iter must be nonnegative, got {max_iter}")

    def pack(w):
        return np.concatenate(w[:blocks], axis=None)

    prev = w  # w_{k-1}
    trace = SolverTrace(iterates=[pack(w)] if keep_iterates else None)
    for k in range(max_iter):
        a, wbar = alpha(k), w
        if a < 0:
            raise ValueError(f"alpha_{k} = {a} is negative")
        if a:
            # d_k, turned into wbar_k in place
            wbar = [np.subtract(u, v, out=v if k else None) for u, v in zip(w, prev)]
            for u, du in zip(w, wbar):
                du *= a
                du += u
        prev = None
        nxt, obj = step(wbar)
        wsq = sum(_sq(u) for u in wbar[:blocks])
        keep = wbar is w and k + 1 < max_iter and alpha(k + 1)
        diff = [np.subtract(u, v, out=None if keep else v) for u, v in zip(nxt, wbar)]
        del wbar
        sq = [_sq(u) for u in diff[:blocks]]
        rel = stop(sum(sq), wsq)
        trace.step_residuals.append(gquad(diff, sq))
        del diff
        trace.alphas.append(a)
        trace.stop_residuals.append(rel)
        if obj is not None:
            trace.objective.append(obj)
        if trace.iterates is not None:
            trace.iterates.append(pack(nxt))
        prev, w = w, nxt
        trace.iterations = k + 1
        if rel < tol:
            trace.status = "converged"
            break
        if not math.isfinite(rel):
            trace.status = "non_finite"
            break
    return trace, w


def inertial_ppa_step(problem, G, wbar):
    """One engine step: the solution of the regularized inequality at the
    extrapolated point ``wbar``, as a new array (never ``wbar`` itself,
    even when the resolvent returns its argument). ``wbar`` is not
    modified."""
    return np.array(problem.resolvent(wbar, G), dtype=np.float64)


def run_inertial_ppa(problem, G, schedule, w0, tol=TOL, max_iter=MAX_ITER):
    """Run the inertial engine from ``w0`` (the pre-iterate equals ``w0``).

    Each step is :func:`inertial_ppa_step` inside :func:`inertial_loop`,
    and each step residual one ``G.quad``. Stops when
    ``||w_next - wbar|| / (1 + ||wbar||) < tol``, at a step where that is
    not finite, or at ``max_iter``.
    ``w0`` is copied, not modified.
    """
    w = _point(w0, problem.dim, "w0").copy()

    def step(wbar):
        return (inertial_ppa_step(problem, G, wbar[0]),), None

    return inertial_loop(step, lambda d, sq: G.quad(d[0]), schedule.alpha, (w,), tol,
                         max_iter)[0]


@dataclass(frozen=True)
class ProbeSet:
    """Probe points with their objective values, evaluated once.

    ``points`` is the ``(count, dim)`` matrix of probes, one per row, and
    ``theta[j]`` the objective at row j. ``problem`` is the problem the
    values were evaluated for; :meth:`of` refuses the set for any other,
    so a cached value is never read against the wrong objective.
    Iterating a set yields its rows.
    """

    points: np.ndarray
    theta: np.ndarray
    problem: object

    @classmethod
    def evaluate(cls, problem, theta, points):
        """The set of ``points`` (a sequence of vectors or a matrix, which
        is copied) with ``theta`` called once per row, recorded as drawn
        for ``problem``."""
        points = np.array(points, dtype=np.float64)
        return cls(points, np.array([theta(w) for w in points], dtype=np.float64),
                   problem)

    def of(self, problem):
        """This set, when it was drawn for ``problem``; raises ValueError
        otherwise."""
        if self.problem is not problem:
            raise ValueError("the probe set was drawn for another problem")
        return self

    def __iter__(self):
        return iter(self.points)


def gippa_slack(problem, G, wbar, w_next, probes):
    """Minimum slack of the regularized inequality over probe points.

    For each probe ``w`` the slack is
    ``theta(w) - theta(w_next) + <w - w_next, F(w_next) + G(w_next - wbar)>``;
    the smallest is returned, nonnegative up to rounding when ``w_next``
    truly solves the subproblem. ``probes`` is a :class:`ProbeSet`, whose
    cached objective values are used as they are (:meth:`ProbeSet.evaluate`
    makes one from plain points), so the slacks take one matrix-vector
    product and one objective call, at ``w_next``.
    """
    w_next = np.asarray(w_next, dtype=np.float64)
    base = problem.F(w_next) + G.apply(w_next - np.asarray(wbar))
    slacks = probes.theta - problem.theta(w_next) + (probes.points - w_next) @ base
    return float(slacks.min())


@dataclass
class RateReport:
    """Outcome of the accelerated-rate residual check.

    ``min_residuals[k-1]`` is ``min_{0<=i<k} ||w_{i+1} - wbar_i||_G^2``,
    ``bounds[k-1]`` the guaranteed envelope ``constant * phi0 / k``, and
    ``scaled[k-1] = k * min_residuals[k-1]`` (should trail off when the
    rate is in fact o(1/k)). ``violations`` lists every k where the
    envelope failed by more than 1e-10.
    """

    ks: np.ndarray
    min_residuals: np.ndarray
    bounds: np.ndarray
    scaled: np.ndarray
    violations: list
    constant: float
    phi0: float
    ok: bool


def check_residual_rate_bound(trace, G, w_star):
    """Check the O(1/k) envelope on the best squared step residual.

    Requires a trace produced under a nondecreasing extrapolation schedule
    capped below 1/3; the envelope constant is ``1 + 2 / (1 - 3 alpha)``
    with ``alpha`` the largest recorded factor.
    """
    if trace.iterates is None or not trace.step_residuals:
        raise ValueError("trace must carry iterates and step residuals")
    alphas = np.asarray(trace.alphas, dtype=np.float64)
    if np.any(np.diff(alphas) < -1e-15):
        raise ValueError("extrapolation factors must be nondecreasing")
    alpha = float(alphas.max(initial=0.0))
    if not alpha < _GUARANTEED_CAP:
        raise ValueError(f"extrapolation cap must stay below 1/3, got {alpha}")

    constant = 1.0 + 2.0 / (1.0 - 3.0 * alpha)
    w0 = np.asarray(trace.iterates[0])
    phi0 = G.quad(w0 - _point(w_star, w0.size, "w_star"))
    res = np.asarray(trace.step_residuals, dtype=np.float64)
    running_min = np.minimum.accumulate(res)
    ks = np.arange(1, res.size + 1)
    bounds = constant * phi0 / ks
    violations = [int(k) for k, r, b in zip(ks, running_min, bounds) if not r <= b + 1e-10]
    return RateReport(
        ks=ks,
        min_residuals=running_min,
        bounds=bounds,
        scaled=ks * running_min,
        violations=violations,
        constant=constant,
        phi0=phi0,
        ok=not violations,
    )


def nesterov_ippa(prox_f, w0, n_iters, objective):
    """Accelerated proximal point iteration for minimizing a convex f.

    Uses the scalar sequence ``t_0 = 1``,
    ``t_{k+1} = (1 + sqrt(1 + 4 t_k^2)) / 2`` and extrapolation factor
    ``alpha_k = (t_k - 1) / t_{k+1}``; each step applies ``prox_f(z, 1.0)``
    at the extrapolated point ``z`` (a step ``lambda`` is the prox of
    ``lambda f``) and copies its output, which may be ``z`` itself. The
    objective gap decays as O(1/k^2). Runs all ``n_iters`` steps of
    :func:`inertial_loop`, whose residuals here are Euclidean.

    Returns a :class:`SolverTrace`; ``extras["t"]`` holds t_0..t_K, and
    ``objective`` K + 1 values from ``objective(w0)`` on.
    """
    w = np.asarray(w0, dtype=np.float64).copy()
    f0 = float(objective(w))  # the loop overwrites w
    t = [1.0]
    for _ in range(n_iters):
        t.append((1.0 + math.sqrt(1.0 + 4.0 * t[-1] * t[-1])) / 2.0)

    def step(wbar):
        w_next = np.array(prox_f(wbar[0], 1.0), dtype=np.float64)
        return (w_next,), float(objective(w_next))

    trace, _ = inertial_loop(
        step, lambda d, sq: sq[0],
        lambda k: (t[k] - 1.0) / t[k + 1], (w,), 0.0, n_iters,
    )
    trace.objective.insert(0, f0)
    trace.extras["t"] = t
    return trace
