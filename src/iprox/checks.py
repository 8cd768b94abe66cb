"""The solver guarantees as checks, one function per acceptance criterion.

 1. every step of a plain linearized run satisfies its variational
    characterization
 2. strict distance contraction toward the solution set
 3. nonergodic residual rate with monotone decay and an o(1/k) trend
 4. ergodic saddle-gap envelope for averaged iterates
 5. accelerated residual envelope under constant extrapolation 0.28
 6. O(1/k^2) objective decay of the accelerated proximal iteration
 7. compressive recovery by both solvers
 8. inertial speedup versus the plain solver, and 0.28 beating smaller
    factors
 9. exact coincidences: zero-extrapolation equality, measurement-row
    orthonormality, thresholded spectra

:data:`CRITERIA` maps each number to its check; ``iprox verify``
(:func:`iprox.bench.run_verification`) and the acceptance tests both run
the checks from it, in its order. Each check builds its fixtures from
fixed seeds and returns a :class:`CheckResult` named after the function
(``step_characterization`` gives ``step-characterization``). Criteria
1-4 read :func:`iprox.splitting.run_ladmm` traces, so they check the
iterates the solver's own loop produced. Criteria 1-6 and 9 take a
``scale`` that shrinks fixture counts and iteration limits: at
``scale=1`` a check is the acceptance gate, and ``iprox verify`` runs
the same checks at a smaller scale. Criteria 7 and 8
(:data:`RECORD_CRITERIA`) read instead the records of one sweep cell of
:func:`iprox.bench.run_grid` (the plain solve and each factor, over the
cell's seeds), whose size the caller picks.

The checks reach the package through module attributes
(``splitting.run_ladmm``, ``cpcp.ladmm_cpcp``), so a caller that wraps
those attributes sees every call.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import cpcp, fixtures, numkit, prox, splitting, vi_core

INERTIAL_ALPHA = cpcp.ALPHA


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str

    def __post_init__(self):
        self.ok = bool(self.ok)  # numpy comparisons give numpy booleans


def _count(n, scale):
    """``n`` shrunk by ``scale``, at least 1."""
    if not scale > 0:
        raise ValueError(f"scale must be positive, got {scale}")
    return max(1, round(n * scale))


def _params(prob, beta=1.0):
    return splitting.LadmmParams(beta=beta, tau=0.9 / prob.rho_ata,
                                 eta=0.9 / prob.rho_btb)


def step_characterization(scale=1.0):
    """Criterion 1 on 20 QP fixtures x 10 steps: the pairs ``(w_k,
    w_{k+1})`` of a plain run's trace, against 100 probes in a box of
    radius 2 around the solution and 100 within 1e-3 of each ``w_{k+1}``.
    The box probes lie far from the step, where a wrong step still scores
    well; the near ones tell a step at 1.01 tau from a right one."""
    t0 = time.perf_counter()
    n_fix, n_steps = _count(20, scale), _count(10, scale)
    box = near = np.inf
    for seed in range(n_fix):
        prob, star = fixtures.random_qp(8, 8, 8, numkit.SeededRng(1000 + seed))
        params = _params(prob)
        rng = numkit.SeededRng(2000 + seed)
        probes = splitting.sample_probes(prob, star, 2.0, 100, rng)
        w = splitting.run_ladmm(prob, params, tol=0.0, max_iter=n_steps).iterates
        for w_k, w_next in zip(w, w[1:]):
            box = np.minimum(box, splitting.vi_residual_check(prob, params, w_k,
                                                              w_next, probes))
            close = splitting.sample_probes(prob, w_next, 1e-3, 100, rng)
            near = np.minimum(near, splitting.vi_residual_check(prob, params, w_k,
                                                                w_next, close))
    elapsed = time.perf_counter() - t0
    return CheckResult(
        "step-characterization", np.minimum(box, near) >= -1e-8 and elapsed < 10.0,
        f"min slack {box:.2e} box, {near:.2e} near, over {n_fix} fixtures x "
        f"{n_steps} steps x 100 + 100 probes in {elapsed:.1f}s")


def distance_contraction(scale=1.0):
    """Criterion 2 on 3 QP fixtures x 500 steps.

    It passes runs that step at 0.5, 0.9, 1.01 and 1.1 tau, which only
    criterion 1 catches; it fails a step that flips the multiplier's
    sign (violation 1.2e20 at scale 0.1)."""
    n_fix, n_steps = _count(3, scale), _count(500, scale)
    worst = -np.inf
    for seed in range(n_fix):
        prob, star = fixtures.random_qp(8, 8, 8, numkit.SeededRng(3000 + seed))
        trace = splitting.run_ladmm(prob, _params(prob), tol=0.0,
                                    max_iter=n_steps, w_star=star)
        phi = np.asarray(trace.phi)
        res = np.asarray(trace.step_residuals)
        worst = np.maximum(worst, (phi[1:] - phi[:-1] + res).max())
    return CheckResult(
        "distance-contraction", worst <= 1e-10,
        f"max contraction violation {worst:.2e} over {n_fix} x {n_steps} steps")


def nonergodic_rate(scale=1.0):
    """Criterion 3 on one QP fixture over 500 steps; the small penalty
    keeps the residual decay slow enough to stay above rounding noise."""
    n = _count(500, scale)
    early = max(1, n // 10)
    prob, star = fixtures.random_qp(4, 4, 3, numkit.SeededRng(20240814).derive("qp"))
    params = _params(prob, beta=0.1)
    trace = splitting.run_ladmm(prob, params, tol=0.0, max_iter=n)
    rep = splitting.nonergodic_report(trace, prob, params, star)
    last, first = rep.scaled[n - 1], rep.scaled[early - 1]
    return CheckResult(
        "nonergodic-rate", rep.ok and last < first,
        f"monotone violations {len(rep.monotonicity_violations)}, "
        f"bound violations {len(rep.bound_violations)}, "
        f"k*res^2 at {n} / at {early} = {last / first:.2e}")


def ergodic_gap(scale=1.0):
    """Criterion 4 on 3 QP fixtures at k = 50, 100, 200 with 50 probes.

    It passes runs that step at a wrong tau: its max gap excess is -9.31
    for the right run and at 0.9, 1.01 and 1.1 tau, and -9.34 at 0.5
    tau, all far inside the 1e-8 gate. It fails a step that flips the
    multiplier's sign: 2.1e4 at scale 0.1, 9.2e75 at scale 1."""
    n_fix, n_steps = _count(3, scale), _count(220, scale)
    ks = [_count(k, scale) for k in (50, 100, 200)]
    worst = -np.inf
    for seed in range(n_fix):
        prob, star = fixtures.random_qp(8, 8, 8, numkit.SeededRng(4000 + seed))
        params = _params(prob)
        trace = splitting.run_ladmm(prob, params, tol=0.0, max_iter=n_steps)
        probes = splitting.sample_probes(prob, star, 2.0, 50,
                                         numkit.SeededRng(5000 + seed))
        rep = splitting.ergodic_report(trace, prob, params, probes, ks=ks)
        for k in ks:
            excess = np.asarray(rep.gaps[k]) - np.asarray(rep.bounds[k])
            worst = np.maximum(worst, excess.max())
    return CheckResult(
        "ergodic-gap", worst <= 1e-8,
        f"max gap excess {worst:.2e} at k in {ks}, 50 probes, {n_fix} fixtures")


def residual_envelope(scale=1.0):
    """Criterion 5 on 3 strongly monotone affine VIs x 500 steps: each run
    stays within its envelope, whose constant ``1 + 2 / (1 - 3 alpha)``
    at the largest recorded factor must be 13.5, that of 0.28."""
    ok = True
    measured = []
    for seed in range(_count(3, scale)):
        problem, w_star = fixtures.strongly_monotone_affine_vi(
            8, numkit.SeededRng(6000 + seed))
        G = vi_core.WeightOperator(np.eye(8))
        trace = vi_core.run_inertial_ppa(
            problem, G, vi_core.InertialSchedule(INERTIAL_ALPHA),
            np.ones(8) * 2.0, tol=0.0, max_iter=_count(500, scale),
        )
        rep = vi_core.check_residual_rate_bound(trace, G, w_star)
        ok = ok and rep.ok and abs(rep.constant - 13.5) <= 13.5e-12
        measured.append(f"{rep.constant:.12g}/{len(rep.violations)}")
    return CheckResult(
        "residual-envelope", ok,
        f"envelope constant/violations per fixture {', '.join(measured)} "
        f"(gate 13.5/0)")


def objective_rate(scale=1.0):
    """Criterion 6 on a 10-dimensional quadratic over 500 steps."""
    n = _count(500, scale)
    c = numkit.SeededRng(7000).normal(10) * 3.0
    w0 = np.zeros(10)

    def prox_f(z, lam):
        return (z + lam * c) / (1.0 + lam)

    def f(w):
        return 0.5 * float(np.sum((w - c) ** 2))

    trace = vi_core.nesterov_ippa(prox_f, w0, n, objective=f)
    gaps = np.asarray(trace.objective)  # f* = 0 at w = c
    ks = np.arange(1, n + 1)
    scaled = ks * ks * gaps[1:]
    bound = 4.0 * float(np.sum((w0 - c) ** 2))
    return CheckResult(
        "objective-rate", np.all(scaled <= bound + 1e-10),
        f"max k^2 gap {float(scaled.max()):.3f} vs bound {bound:.3f} over k <= {n}")


def _cell(records):
    """One grid cell's sweep records (:func:`iprox.bench.run_grid`), keyed
    by factor. Records of several cells, or with no 0.28 record, raise
    ValueError, and a cell error raises RuntimeError with the worker's
    traceback."""
    if len({(r.m, r.n, r.r, r.nnz_ratio, r.q_ratio, r.transform)
            for r in records}) != 1:
        raise ValueError("the records must cover exactly one cell")
    for rec in records:
        if rec.error is not None:
            raise RuntimeError(f"{rec.error}\n{rec.traceback}")
    by_alpha = {rec.alpha: rec for rec in records}
    if INERTIAL_ALPHA not in by_alpha:
        raise ValueError(f"the records hold no solve at {INERTIAL_ALPHA:g}")
    return by_alpha


def recovery(records):
    """Criterion 7: every plain and 0.28 solve in one cell's grid records
    converged with relative L and S errors within 1e-4."""
    rec = _cell(records)[INERTIAL_ALPHA]
    solves = [t[solver] for t in rec.trials for solver in ("ladmm", "iladmm")]
    worst_err = float(np.max([(s["rel_l"], s["rel_s"]) for s in solves]))
    ok = all(s["converged"] and s["iters"] <= 1000 for s in solves) and worst_err <= 1e-4
    done = sum(s["converged"] for s in solves)
    runs = len(solves) if done == len(solves) else f"{done} of {len(solves)}"
    return CheckResult(
        "recovery", ok,
        f"{runs} runs at {rec.m}x{rec.n} converged, "
        f"max iters {max(s['iters'] for s in solves)}, max rel err {worst_err:.2e}")


def inertial_speedup(records, ratio_gate=0.90):
    """Criterion 8 on one cell's grid records: mean 0.28 iterations over
    mean plain iterations within ``ratio_gate``, and 0.28 faster than each
    smaller factor in the records."""
    by_alpha = _cell(records)
    inertial = by_alpha[INERTIAL_ALPHA]
    smaller = [a for a in by_alpha if 0.0 < a < INERTIAL_ALPHA]
    ok = inertial.iter_ratio <= ratio_gate and all(
        inertial.mean_iter_iladmm < by_alpha[a].mean_iter_iladmm for a in smaller)
    detail = f"iter ratio {inertial.iter_ratio:.3f} (gate {ratio_gate:.2f})" + "".join(
        f"; mean iters {INERTIAL_ALPHA:g}: {inertial.mean_iter_iladmm:.1f} "
        f"vs {a:g}: {by_alpha[a].mean_iter_iladmm:.1f}" for a in smaller)
    return CheckResult("inertial-speedup", ok, detail)


def exact_identities(scale=1.0):
    """Criterion 9: 60 CPCP steps at zero extrapolation, the Gram matrices
    of two 16x16 measurement operators, and three thresholded spectra.

    The zero-extrapolation half compares ``ladmm_cpcp(inst)`` with
    ``iladmm_cpcp(inst, alpha=0.0)``, which are the same
    ``_run_cpcp(inst, TAU, ETA, 0.0, ...)`` call, so it can catch only
    nondeterminism within one process."""
    inst = cpcp.generate_instance(32, 32, 2, 51, "dct2", 819, 11)
    n = _count(60, scale)
    s_plain, _ = cpcp.ladmm_cpcp(inst, max_iter=n, tol=0.0)
    s_zero, _ = cpcp.iladmm_cpcp(inst, alpha=0.0, max_iter=n, tol=0.0)
    coincide = np.max([np.abs(a - b).max() for a, b in (
        (s_plain.L, s_zero.L), (s_plain.S, s_zero.S), (s_plain.p, s_zero.p))])

    gram_err = 0.0
    for kind in ("wht", "dct2"):
        meas = numkit.make_measurement_op(kind, 16, 16, 120,
                                          numkit.SeededRng(8000).derive(kind))
        gram = np.column_stack([
            meas.apply(meas.adjoint(e)) for e in np.eye(meas.measurement_dim)
        ])
        gram_err = np.maximum(gram_err, np.abs(gram - np.eye(120)).max())

    spec_err = 0.0
    rng = np.random.default_rng(9000)
    for kappa in (0.3, 1.0, 2.5):
        M = rng.normal(size=(30, 20)) * 2.0
        s_in = numkit.singular_values(M)
        s_out = numkit.singular_values(prox.svt_with_values(M, kappa)[0])
        want = prox.soft_threshold(s_in, kappa)
        spec_err = np.maximum(spec_err, np.abs(np.sort(s_out) - np.sort(want)).max())

    ok = coincide <= 1e-14 and gram_err <= 1e-12 and spec_err <= 1e-10
    return CheckResult(
        "exact-identities", ok,
        f"zero-alpha gap {coincide:.1e}, measurement gram error "
        f"{gram_err:.1e}, spectrum error {spec_err:.1e}")


CRITERIA = dict(enumerate((
    step_characterization, distance_contraction, nonergodic_rate, ergodic_gap,
    residual_envelope, objective_rate, recovery, inertial_speedup, exact_identities), 1))
RECORD_CRITERIA = (7, 8)
