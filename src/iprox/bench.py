"""Benchmark grid, result tables, self-verification, and the CLI.

The grid runner pairs the plain and inertial solvers on identical
instances (same seed, same measurement operator) over a cartesian grid of
problem shapes, aggregates per-cell iteration counts and recovery errors,
and writes a fixed-format CSV plus plot-ready data. Everything is
deterministic given the config and seeds; only wall times vary between
runs, and they never enter the tables.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np
import yaml

from . import __version__
from .cpcp import (
    BetaController,
    counts_from_ratios,
    generate_instance,
    iladmm_cpcp,
    ladmm_cpcp,
    recovery_metrics,
)
from .numkit import KINDS, RNG_ALGORITHM

_GUARANTEED_ALPHA_CAP = 1.0 / 3.0

CSV_COLUMNS = [
    "m", "n", "r", "nnz_ratio", "q_ratio", "transform", "q_over_dof",
    "relL_ladmm", "relS_ladmm", "iter1",
    "relL_iladmm", "relS_iladmm", "iter2", "ratio",
]
SENTINEL = "-"


@dataclass
class RunConfig:
    """Grid and solver settings for a benchmark run.

    ``sizes`` are square image sizes (m = n). ``alphas`` switches the run
    into sweep mode: every cell is solved once per listed factor, sharing
    the plain-solver baseline. With ``enforce_guaranteed_alpha`` set (the
    default for plain benchmarks), factors must stay below 1/3, the range
    with a convergence certificate; sweeps disable it to probe beyond.
    """

    sizes: tuple
    ranks: tuple
    nnz_ratios: tuple
    q_ratios: tuple
    transforms: tuple = ("dct2",)
    tau: float = 0.99
    eta: float = 0.99
    eps: float = 1e-5
    max_iter: int = 1000
    alpha: float = 0.28
    alphas: Optional[tuple] = None
    beta0: Optional[float] = None
    s_scale: float = 10.0
    seeds: tuple = (0, 1, 2, 3, 4)
    jobs: int = 1
    enforce_guaranteed_alpha: bool = True

    def validate(self):
        if not self.sizes or any(int(s) < 2 for s in self.sizes):
            raise ValueError("sizes must be integers >= 2")
        if not self.ranks or any(int(r) < 1 for r in self.ranks):
            raise ValueError("ranks must be positive integers")
        for name, ratios in (("nnz_ratios", self.nnz_ratios),
                             ("q_ratios", self.q_ratios)):
            if not ratios or any(not 0.0 < float(v) <= 1.0 for v in ratios):
                raise ValueError(f"{name} must lie in (0, 1]")
        for kind in self.transforms:
            if kind not in KINDS:
                raise ValueError(f"unknown transform {kind!r}")
        if not self.seeds:
            raise ValueError("at least one seed is required")
        if self.tau <= 0 or self.eta <= 0:
            raise ValueError("tau and eta must be positive")
        if self.eps < 0 or self.max_iter < 1:
            raise ValueError("eps must be >= 0 and max_iter >= 1")
        if self.s_scale <= 0:
            raise ValueError("s_scale must be positive")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        for a in self.alphas if self.alphas is not None else (self.alpha,):
            a = float(a)
            if not 0.0 <= a < 1.0:
                raise ValueError(f"alpha {a} outside [0, 1)")
            if self.enforce_guaranteed_alpha and a >= _GUARANTEED_ALPHA_CAP:
                raise ValueError(
                    f"alpha {a} is outside the guaranteed range [0, 1/3); "
                    "use sweep mode to probe larger factors"
                )
        return self

    @classmethod
    def default_grid(cls):
        return cls(
            sizes=(128, 256),
            ranks=(2, 5),
            nnz_ratios=(0.01, 0.05),
            q_ratios=(0.4, 0.6, 0.8),
        )

    @classmethod
    def from_dict(cls, doc):
        if not isinstance(doc, dict):
            raise ValueError("config root must be a mapping")
        grid = doc.get("grid", {})
        solver = doc.get("solver", {})
        kw = {}
        for key in ("sizes", "ranks", "nnz_ratios", "q_ratios", "transforms"):
            if key in grid:
                kw[key] = tuple(grid[key])
        for key in ("tau", "eta", "eps", "max_iter", "alpha", "beta0", "s_scale"):
            if key in solver and solver[key] is not None:
                kw[key] = solver[key]
        if "alphas" in solver and solver["alphas"] is not None:
            kw["alphas"] = tuple(float(a) for a in solver["alphas"])
            kw["enforce_guaranteed_alpha"] = False
        if "seeds" in doc:
            kw["seeds"] = tuple(int(s) for s in doc["seeds"])
        if "jobs" in doc:
            kw["jobs"] = int(doc["jobs"])
        missing = [k for k in ("sizes", "ranks", "nnz_ratios", "q_ratios")
                   if k not in kw]
        if missing:
            raise ValueError(f"config is missing grid keys: {', '.join(missing)}")
        return cls(**kw).validate()

    @classmethod
    def from_yaml(cls, path):
        with open(path, encoding="utf8") as fh:
            doc = yaml.safe_load(fh)
        return cls.from_dict(doc)


@dataclass
class RunRecord:
    """Aggregated outcome of one grid cell at one extrapolation factor."""

    m: int
    n: int
    r: int
    nnz_ratio: float
    q_ratio: float
    transform: str
    alpha: float
    q: int = 0
    nnz: int = 0
    dof: int = 0
    q_over_dof: float = 0.0
    trials: list = field(default_factory=list)
    mean_iter_ladmm: float = float("nan")
    mean_rel_l_ladmm: float = float("nan")
    mean_rel_s_ladmm: float = float("nan")
    all_converged_ladmm: bool = False
    mean_iter_iladmm: float = float("nan")
    mean_rel_l_iladmm: float = float("nan")
    mean_rel_s_iladmm: float = float("nan")
    all_converged_iladmm: bool = False
    iter_ratio: float = float("nan")
    environment: dict = field(default_factory=dict)
    error: Optional[str] = None


def _environment():
    return {
        "rng_algorithm": RNG_ALGORITHM,
        "numpy": np.__version__,
        "package": __version__,
    }


def _solver_outcome(state, trace, inst, wall):
    met = recovery_metrics(state, inst)
    return {
        "iters": int(met.iters),
        "rel_l": float(met.rel_l),
        "rel_s": float(met.rel_s),
        "converged": bool(met.converged),
        "wall_time": float(wall),
    }


def _run_trial(cell, seed, config, alphas):
    size, rank, nnz_ratio, q_ratio, kind = cell
    try:
        q, nnz = counts_from_ratios(size, size, q_ratio, nnz_ratio)
        inst = generate_instance(size, size, rank, nnz, kind, q, seed)

        t0 = time.perf_counter()
        state, trace = ladmm_cpcp(
            inst, tau=config.tau, eta=config.eta,
            controller=BetaController.for_instance(
                inst, beta0=config.beta0, s_scale=config.s_scale),
            tol=config.eps, max_iter=config.max_iter,
        )
        plain = _solver_outcome(state, trace, inst, time.perf_counter() - t0)

        inertial = {}
        for a in alphas:
            t0 = time.perf_counter()
            state, trace = iladmm_cpcp(
                inst, tau=config.tau, eta=config.eta, alpha=a,
                controller=BetaController.for_instance(
                    inst, beta0=config.beta0, s_scale=config.s_scale),
                tol=config.eps, max_iter=config.max_iter,
            )
            inertial[a] = _solver_outcome(state, trace, inst, time.perf_counter() - t0)
        return {
            "seed": seed,
            "q": inst.q,
            "nnz": inst.nnz,
            "dof": inst.dof,
            "ladmm": plain,
            "iladmm": inertial,
        }
    except Exception as exc:  # cell failures must not kill the grid
        return {"seed": seed, "error": f"{type(exc).__name__}: {exc}"}


def run_grid(config):
    """Run the full grid; returns one RunRecord per (cell, alpha).

    Both solvers see the same instance in every trial. Trials may run in
    ``config.jobs`` threads; records are assembled in deterministic grid
    order regardless of scheduling.
    """
    config.validate()
    alphas = tuple(config.alphas) if config.alphas is not None else (config.alpha,)
    cells = list(itertools.product(
        config.sizes, config.ranks, config.nnz_ratios,
        config.q_ratios, config.transforms,
    ))
    tasks = [(ci, seed) for ci in range(len(cells)) for seed in config.seeds]

    results = {}
    if config.jobs > 1:
        with ThreadPoolExecutor(max_workers=config.jobs) as pool:
            futs = {
                (ci, seed): pool.submit(_run_trial, cells[ci], seed, config, alphas)
                for ci, seed in tasks
            }
            for key, fut in futs.items():
                results[key] = fut.result()
    else:
        for ci, seed in tasks:
            results[(ci, seed)] = _run_trial(cells[ci], seed, config, alphas)

    env = _environment()
    records = []
    for ci, cell in enumerate(cells):
        size, rank, nnz_ratio, q_ratio, kind = cell
        per_seed = [results[(ci, seed)] for seed in config.seeds]
        errors = [t["error"] for t in per_seed if "error" in t]
        for a in alphas:
            rec = RunRecord(
                m=size, n=size, r=rank, nnz_ratio=float(nnz_ratio),
                q_ratio=float(q_ratio), transform=kind, alpha=float(a),
                environment=dict(env),
            )
            if errors:
                rec.error = errors[0]
                records.append(rec)
                continue
            rec.q = per_seed[0]["q"]
            rec.nnz = per_seed[0]["nnz"]
            rec.dof = per_seed[0]["dof"]
            rec.q_over_dof = rec.q / rec.dof
            rec.trials = [
                {"seed": t["seed"], "ladmm": t["ladmm"], "iladmm": t["iladmm"][a]}
                for t in per_seed
            ]
            plain = [t["ladmm"] for t in rec.trials]
            inert = [t["iladmm"] for t in rec.trials]
            rec.mean_iter_ladmm = float(np.mean([t["iters"] for t in plain]))
            rec.mean_rel_l_ladmm = float(np.mean([t["rel_l"] for t in plain]))
            rec.mean_rel_s_ladmm = float(np.mean([t["rel_s"] for t in plain]))
            rec.all_converged_ladmm = all(t["converged"] for t in plain)
            rec.mean_iter_iladmm = float(np.mean([t["iters"] for t in inert]))
            rec.mean_rel_l_iladmm = float(np.mean([t["rel_l"] for t in inert]))
            rec.mean_rel_s_iladmm = float(np.mean([t["rel_s"] for t in inert]))
            rec.all_converged_iladmm = all(t["converged"] for t in inert)
            rec.iter_ratio = rec.mean_iter_iladmm / rec.mean_iter_ladmm
            records.append(rec)
    return records


def emit_csv(records, path):
    """Write the aggregate table; iteration columns of cells with any
    non-converged trial render as the sentinel, as does their ratio."""
    if not records:
        raise ValueError("no records to write")
    lines = [",".join(CSV_COLUMNS)]
    for rec in records:
        head = [
            str(rec.m), str(rec.n), str(rec.r),
            f"{rec.nnz_ratio:g}", f"{rec.q_ratio:g}", rec.transform,
        ]
        if rec.error is not None:
            row = head + [SENTINEL] * 8
        else:
            iter1 = f"{rec.mean_iter_ladmm:.1f}" if rec.all_converged_ladmm else SENTINEL
            iter2 = f"{rec.mean_iter_iladmm:.1f}" if rec.all_converged_iladmm else SENTINEL
            both = rec.all_converged_ladmm and rec.all_converged_iladmm
            ratio = f"{rec.iter_ratio:.4f}" if both else SENTINEL
            row = head + [
                f"{rec.q_over_dof:.4f}",
                f"{rec.mean_rel_l_ladmm:.6e}", f"{rec.mean_rel_s_ladmm:.6e}", iter1,
                f"{rec.mean_rel_l_iladmm:.6e}", f"{rec.mean_rel_s_iladmm:.6e}", iter2,
                ratio,
            ]
        lines.append(",".join(row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf8")


def emit_plot_data(records, path, axis="q_ratio"):
    """Write (axis value, mean iterations per solver) rows, sorted by the
    axis; records are grouped when several share an axis value. As in
    :func:`emit_csv`, a solver's column renders as the sentinel when any
    trial of the group did not converge."""
    if not records:
        raise ValueError("no records to write")
    groups = {}
    for rec in records:
        if rec.error is not None:
            continue
        key = float(getattr(rec, axis))
        groups.setdefault(key, []).append(rec)
    if not groups:
        raise ValueError("no successful records to plot")
    lines = [f"{axis},iter_ladmm,iter_iladmm"]
    for key in sorted(groups):
        recs = groups[key]
        i1 = _group_mean([r.mean_iter_ladmm for r in recs],
                         all(r.all_converged_ladmm for r in recs))
        i2 = _group_mean([r.mean_iter_iladmm for r in recs],
                         all(r.all_converged_iladmm for r in recs))
        lines.append(f"{key:g},{i1},{i2}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf8")


def _group_mean(values, converged):
    return f"{float(np.mean(values)):.4f}" if converged else SENTINEL


def write_records_json(records, path):
    docs = [dataclasses.asdict(rec) for rec in records]
    Path(path).write_text(
        json.dumps(docs, sort_keys=True, indent=1) + "\n", encoding="utf8"
    )


# ---------------------------------------------------------------------------
# self-verification


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str


def _check(name, ok, detail):
    return CheckResult(name=name, ok=bool(ok), detail=detail)


def run_verification():
    """Fast fixture-level checks of the solver guarantees.

    Exercises the measurement identities, the shrinkage operators, the
    step characterizations, contraction and rate certificates, the
    plain/inertial coincidence at zero extrapolation, and a small
    end-to-end recovery. Returns a list of :class:`CheckResult`.
    """
    from . import cpcp as _cpcp
    from . import fixtures as _fx
    from . import numkit as _nk
    from . import prox as _prox
    from . import splitting as _sp
    from . import vi_core as _vi

    checks = []
    rng = _nk.SeededRng(20240814)

    # measurement rows orthonormal: A A* = identity
    worst = 0.0
    for kind, q in ((_nk.DCT2, 100), (_nk.WHT, 100), (_nk.FFT2, 60)):
        op = _nk.make_measurement_op(kind, 16, 16, q, rng.derive(f"meas-{kind}"))
        g = rng.derive(f"vec-{kind}")
        for _ in range(20):
            v = g.normal(op.measurement_dim)
            worst = max(worst, float(np.abs(op.apply(op.adjoint(v)) - v).max()))
    checks.append(_check("measurement-identity", worst <= 1e-12,
                         f"max |A A* b - b| = {worst:.3e}"))

    # svd contract
    mat = rng.derive("svd").normal(12, 7)
    u, s, v = _nk.svd(mat)
    rec_err = float(np.linalg.norm((u * s) @ v.T - mat))
    orth = max(
        float(np.abs(u.T @ u - np.eye(7)).max()),
        float(np.abs(v.T @ v - np.eye(7)).max()),
    )
    ok = rec_err <= 1e-10 * max(1.0, float(np.linalg.norm(mat))) and orth <= 1e-10
    checks.append(_check("svd-reconstruction", ok,
                         f"reconstruction {rec_err:.3e}, orthogonality {orth:.3e}"))

    # svt spectrum equals soft-thresholded spectrum
    mat = rng.derive("svt").normal(10, 8)
    _, s_in, _ = _nk.svd(mat)
    out = _prox.svt(mat, 0.7)
    _, s_out, _ = _nk.svd(out)
    gap = float(np.abs(s_out - _prox.soft_threshold(s_in, 0.7)).max())
    checks.append(_check("svt-spectrum", gap <= 1e-10, f"spectrum gap {gap:.3e}"))

    # hand-checked one-dimensional resolvent step
    prob1 = _fx.affine_vi(np.array([[1.0]]), np.array([0.0]))
    wbar, wn = _vi.inertial_ppa_step(
        prob1, _vi.WeightOperator.from_matrix(np.eye(1)),
        np.array([1.0]), np.array([0.0]), 0.28, 1.0,
    )
    ok = abs(wbar[0] - 1.28) <= 1e-12 and abs(wn[0] - 0.64) <= 1e-12
    checks.append(_check("resolvent-step-value", ok,
                         f"wbar {wbar[0]:.6f}, next {wn[0]:.6f}"))

    # best-residual envelope under constant extrapolation below 1/3
    vi_prob, w_star = _fx.strongly_monotone_affine_vi(6, rng.derive("rate"))
    G = _vi.WeightOperator.from_matrix(np.eye(6))
    tr = _vi.run_inertial_ppa(
        vi_prob, G, _vi.InertialSchedule.constant(0.28),
        np.ones(6), tol=0.0, max_iter=300, w_star=w_star,
    )
    rep = _vi.check_residual_rate_bound(tr, G, w_star)
    checks.append(_check("residual-rate-envelope", rep.ok,
                         f"violations {rep.violations[:3]}"))

    # step characterization slack on a QP fixture; the small penalty keeps
    # the residual decay slow enough to stay above rounding noise
    qp, qp_star = _fx.random_qp(4, 4, 3, rng.derive("qp"))
    params = _sp.LadmmParams(beta=0.1, tau=0.9 / qp.rho_ata, eta=0.9 / qp.rho_btb)
    w = _sp.zeros_point(qp)
    worst = math.inf
    prng = rng.derive("probes")
    for _ in range(3):
        w1 = _sp.ladmm_step(qp, params, w)
        probes = _sp.sample_probes(qp, w1, 10.0, 50, prng)
        worst = min(worst, _sp.vi_residual_check(qp, params, w, w1, probes))
        w = w1
    checks.append(_check("step-characterization", worst >= -1e-8,
                         f"min slack {worst:.3e}"))

    # distance contraction and residual certificates on one trace
    tr = _sp.run_ladmm(qp, params, tol=0.0, max_iter=300, w_star=qp_star)
    phi = np.asarray(tr.phi)
    res = np.asarray(tr.step_residuals)
    contraction_ok = bool(np.all(phi[1:] <= phi[:-1] - res + 1e-10))
    checks.append(_check("distance-contraction", contraction_ok,
                         f"max violation {float((phi[1:] - phi[:-1] + res).max()):.3e}"))

    ner = _sp.nonergodic_report(tr, qp, params, qp_star)
    checks.append(_check("nonergodic-residual", ner.ok,
                         f"monotonicity violations {len(ner.monotonicity_violations)}, "
                         f"bound violations {len(ner.bound_violations)}"))

    probes = _sp.sample_probes(qp, qp_star, 10.0, 20, rng.derive("ergodic"))
    erg = _sp.ergodic_report(tr, qp, params, probes, ks=[50])
    checks.append(_check("ergodic-gap", erg.ok, f"violations {erg.violations[:3]}"))

    # one linearized step is one proximal step under the induced weighting
    vi_form = _sp.to_mixed_vi(qp)
    Gop = _sp.gladmm_operator(qp, params)
    sched = _vi.InertialSchedule.constant(0.0)
    tr_vi = _vi.run_inertial_ppa(
        vi_form, Gop, sched, _sp.zeros_point(qp).pack(), tol=0.0, max_iter=50,
    )
    w = _sp.zeros_point(qp)
    gap = 0.0
    for k in range(50):
        w = _sp.ladmm_step(qp, params, w)
        gap = max(gap, float(np.abs(w.pack() - tr_vi.iterates[k + 1]).max()))
    checks.append(_check("proximal-equivalence", gap <= 1e-10,
                         f"max trajectory gap {gap:.3e}"))

    # zero extrapolation coincides with the plain solver exactly
    w_plain = _sp.zeros_point(qp)
    w_prev = _sp.zeros_point(qp)
    w_inert = _sp.zeros_point(qp)
    gap = 0.0
    for _ in range(40):
        w_plain = _sp.ladmm_step(qp, params, w_plain)
        _, w_next = _sp.iladmm_step(qp, params, w_inert, w_prev, 0.0)
        w_prev, w_inert = w_inert, w_next
        gap = max(gap, float(np.abs(w_plain.pack() - w_inert.pack()).max()))
    checks.append(_check("zero-alpha-coincidence", gap == 0.0,
                         f"max gap {gap:.3e}"))

    # accelerated objective rate on a quadratic
    c = rng.derive("nesterov").normal(10)
    w0 = np.zeros(10)

    def prox_f(z, lam):
        return (z + lam * c) / (1.0 + lam)

    def f(w):
        return 0.5 * float(np.sum((w - c) ** 2))

    tr_n = _vi.nesterov_ippa(prox_f, w0, 300, objective=f)
    gaps = np.asarray(tr_n.objective[1:])
    ks = np.arange(1, gaps.size + 1)
    bound = 4.0 * float(np.sum((w0 - c) ** 2))
    worst = float((ks**2 * gaps).max())
    checks.append(_check("accelerated-objective-rate", worst <= bound + 1e-10,
                         f"max k^2 gap {worst:.4f} vs {bound:.4f}"))

    # small end-to-end recovery, both solvers
    q, nnz = counts_from_ratios(32, 32, 0.8, 0.05)
    inst = generate_instance(32, 32, 2, nnz, "dct2", q, seed=7)
    st1, tr1 = ladmm_cpcp(inst)
    st2, tr2 = iladmm_cpcp(inst, alpha=0.28)
    m1 = recovery_metrics(st1, inst)
    m2 = recovery_metrics(st2, inst)
    ok = (m1.converged and m2.converged
          and max(m1.rel_l, m1.rel_s) <= 1e-4
          and max(m2.rel_l, m2.rel_s) <= 1e-4)
    checks.append(_check(
        "recovery-smoke", ok,
        f"plain {m1.iters} iters rel_l {m1.rel_l:.2e}; "
        f"inertial {m2.iters} iters rel_l {m2.rel_l:.2e}",
    ))

    # penalty freezes after its window and stays within bounds
    betas = np.asarray(tr1.extras["beta"])
    frozen = bool(np.all(betas[30:] == betas[30])) if betas.size > 30 else True
    in_bounds = bool(np.all((betas >= 1e-3) & (betas <= 1e2)))
    checks.append(_check("penalty-freeze", frozen and in_bounds,
                         f"distinct after window: {len(set(betas[30:].tolist()))}"))

    return checks


# ---------------------------------------------------------------------------
# command line


def _parse_float_list(text):
    return tuple(float(v) for v in text.split(",") if v.strip() != "")


def _parse_int_list(text):
    return tuple(int(v) for v in text.split(",") if v.strip() != "")


def _build_parser():
    p = argparse.ArgumentParser(
        prog="iprox",
        description="Inertial splitting solvers and a compressive "
                    "principal component pursuit benchmark.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("solve", help="solve one generated instance")
    s.add_argument("--size", type=int, default=64, help="rows (m), square by default")
    s.add_argument("--cols", type=int, default=None, help="columns (n), default size")
    s.add_argument("--rank", type=int, default=2)
    s.add_argument("--nnz-ratio", type=float, default=0.05)
    s.add_argument("--q-ratio", type=float, default=0.6)
    s.add_argument("--transform", choices=KINDS, default="dct2")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--alpha", type=float, default=0.28,
                   help="extrapolation factor; 0 gives the plain solver")
    s.add_argument("--tau", type=float, default=0.99)
    s.add_argument("--eta", type=float, default=0.99)
    s.add_argument("--eps", type=float, default=1e-5)
    s.add_argument("--max-iter", type=int, default=1000)
    s.add_argument("--beta0", type=float, default=None)
    s.add_argument("--s-scale", type=float, default=10.0)
    s.add_argument("--json", type=str, default=None, metavar="PATH")

    b = sub.add_parser("bench", help="run the benchmark grid")
    b.add_argument("--config", type=str, default=None,
                   help="YAML config; the built-in desk grid when omitted")
    b.add_argument("--out", type=str, default="results")
    b.add_argument("--jobs", type=int, default=None)

    w = sub.add_parser("sweep-alpha", help="sweep the extrapolation factor")
    w.add_argument("--size", type=int, default=128)
    w.add_argument("--rank", type=int, default=2)
    w.add_argument("--nnz-ratio", type=float, default=0.05)
    w.add_argument("--q-ratio", type=float, default=0.6)
    w.add_argument("--transform", choices=KINDS, default="dct2")
    w.add_argument("--seeds", type=str, default="0,1,2")
    w.add_argument("--alphas", type=str,
                   default="0.05,0.1,0.15,0.2,0.25,0.3,0.35")
    w.add_argument("--eps", type=float, default=1e-5)
    w.add_argument("--max-iter", type=int, default=1000)
    w.add_argument("--out", type=str, default="results")

    sub.add_parser("verify", help="run the fixture-level certificate checks")
    return p


def _cmd_solve(args):
    n = args.cols if args.cols is not None else args.size
    q, nnz = counts_from_ratios(args.size, n, args.q_ratio, args.nnz_ratio)
    inst = generate_instance(args.size, n, args.rank, nnz, args.transform, q,
                             args.seed)
    controller = BetaController.for_instance(inst, beta0=args.beta0,
                                             s_scale=args.s_scale)
    solver = "iladmm" if args.alpha > 0 else "ladmm"
    state, trace = iladmm_cpcp(
        inst, tau=args.tau, eta=args.eta, alpha=args.alpha,
        controller=controller, tol=args.eps, max_iter=args.max_iter,
    )
    met = recovery_metrics(state, inst)
    print(f"instance: m={inst.m} n={inst.n} r={inst.r} nnz={inst.nnz} "
          f"q={inst.q} transform={inst.kind} seed={inst.seed} "
          f"q/dof={inst.q_over_dof:.4f}")
    print(f"solver: {solver} alpha={args.alpha:g} tau={args.tau:g} "
          f"eta={args.eta:g} eps={args.eps:g}")
    status = "converged" if met.converged else "max iterations reached"
    print(f"iterations: {met.iters} ({status})")
    print(f"rel_l={met.rel_l:.6e} rel_s={met.rel_s:.6e} "
          f"final_beta={state.beta:.6g} "
          f"relative_feasibility={trace.extras['relative_feasibility']:.3e}")
    if args.json:
        doc = {
            "instance": {"m": inst.m, "n": inst.n, "r": inst.r,
                         "nnz": inst.nnz, "q": inst.q, "kind": inst.kind,
                         "seed": inst.seed, "q_over_dof": inst.q_over_dof},
            "solver": {"name": solver, "alpha": args.alpha, "tau": args.tau,
                       "eta": args.eta, "eps": args.eps,
                       "max_iter": args.max_iter},
            "result": {"iters": met.iters, "converged": met.converged,
                       "rel_l": met.rel_l, "rel_s": met.rel_s,
                       "final_beta": state.beta},
            "environment": _environment(),
        }
        Path(args.json).write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n",
                                   encoding="utf8")
    return 0 if met.converged else 1


def _cmd_bench(args):
    if args.config is not None:
        config = RunConfig.from_yaml(args.config)
    else:
        config = RunConfig.default_grid()
    if args.jobs is not None:
        config.jobs = int(args.jobs)
        config.validate()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    records = run_grid(config)
    emit_csv(records, out / "results.csv")
    emit_plot_data(records, out / "plot.csv", axis="q_ratio")
    write_records_json(records, out / "records.json")
    failed = [r for r in records if r.error is not None]
    print(f"wrote {len(records)} records to {out} "
          f"({len(failed)} cell failures)")
    for rec in failed:
        print(f"  failed cell m={rec.m} r={rec.r} nnz_ratio={rec.nnz_ratio:g} "
              f"q_ratio={rec.q_ratio:g} {rec.transform}: {rec.error}")
    return 0


def _cmd_sweep(args):
    config = RunConfig(
        sizes=(args.size,),
        ranks=(args.rank,),
        nnz_ratios=(args.nnz_ratio,),
        q_ratios=(args.q_ratio,),
        transforms=(args.transform,),
        alphas=_parse_float_list(args.alphas),
        seeds=_parse_int_list(args.seeds),
        eps=args.eps,
        max_iter=args.max_iter,
        enforce_guaranteed_alpha=False,
    ).validate()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    records = run_grid(config)
    emit_plot_data(records, out / "alpha_sweep.csv", axis="alpha")
    write_records_json(records, out / "alpha_records.json")
    print("alpha  iter_plain  iter_inertial  ratio")
    for rec in records:
        if rec.error is not None:
            print(f"{rec.alpha:>5.2f}  failed: {rec.error}")
            continue
        print(f"{rec.alpha:>5.2f}  {rec.mean_iter_ladmm:>10.1f}  "
              f"{rec.mean_iter_iladmm:>13.1f}  {rec.iter_ratio:>5.3f}")
    return 0


def _cmd_verify(_args):
    checks = run_verification()
    width = max(len(c.name) for c in checks)
    bad = 0
    for c in checks:
        mark = "ok  " if c.ok else "FAIL"
        print(f"{mark} {c.name:<{width}}  {c.detail}")
        bad += 0 if c.ok else 1
    print(f"{len(checks) - bad}/{len(checks)} checks passed")
    return 0 if bad == 0 else 1


def main(argv=None):
    """CLI entry; returns an exit code (0 ok, 1 failure, 2 bad usage)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 2
    try:
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "bench":
            return _cmd_bench(args)
        if args.command == "sweep-alpha":
            return _cmd_sweep(args)
        if args.command == "verify":
            return _cmd_verify(args)
    except (OSError, ValueError, yaml.YAMLError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    parser.error(f"unknown command {args.command!r}")
    return 2


def cli_entry():
    sys.exit(main())


if __name__ == "__main__":
    cli_entry()
