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
import numbers
import sys
import time
import traceback
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np
import yaml

from . import __version__, checks
from .cpcp import (
    BetaController,
    counts_from_ratios,
    generate_instance,
    iladmm_cpcp,
    ladmm_cpcp,
    recovery_metrics,
)
from .numkit import KINDS, RNG_ALGORITHM, SVT_PATHS, _one_blas_thread
from .vi_core import InertialSchedule

CSV_COLUMNS = [
    "m", "n", "r", "nnz_ratio", "q_ratio", "transform", "q_over_dof",
    "relL_ladmm", "relS_ladmm", "iter1",
    "relL_iladmm", "relS_iladmm", "iter2", "ratio",
]
SENTINEL = "-"
# the keys of a config file's two sections
_CONFIG_KEYS = {
    "grid": ("sizes", "ranks", "nnz_ratios", "q_ratios", "transforms"),
    "solver": ("tau", "eta", "eps", "max_iter", "alpha", "alphas", "beta0", "s_scale"),
}
# RunConfig fields that hold a list, and those whose values must be integers
# or finite numbers (entrywise for a list; None stands for an unset option)
_LIST_FIELDS = ("sizes", "ranks", "nnz_ratios", "q_ratios", "transforms", "alphas", "seeds")
_INTEGER_FIELDS = ("sizes", "ranks", "seeds", "max_iter", "jobs")
_NUMBER_FIELDS = ("nnz_ratios", "q_ratios", "alphas", "tau", "eta", "eps", "alpha",
                  "beta0", "s_scale")


@dataclass
class RunConfig:
    """Grid and solver settings for a benchmark run.

    ``sizes`` are square image sizes (m = n). ``alphas`` switches the run
    into sweep mode: every cell is solved once per listed factor, sharing
    the plain-solver baseline. Outside sweep mode the factor must stay
    below 1/3, the range with a convergence certificate; sweeps may probe
    beyond.
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

    def validate(self):
        """Check every setting; raises a ValueError naming the first bad
        field, and returns the config otherwise."""
        for name in _LIST_FIELDS:
            value = getattr(self, name)
            if not isinstance(value, tuple) and value is not None:
                raise ValueError(f"{name} must be a list, got {value!r}")
        for names, kind, what in ((_INTEGER_FIELDS, numbers.Integral, "an integer"),
                                  (_NUMBER_FIELDS, numbers.Real, "a finite number")):
            for name in names:
                value = getattr(self, name)
                if value is None:
                    continue
                for v in value if name in _LIST_FIELDS else (value,):
                    if isinstance(v, bool) or not isinstance(v, kind) or not math.isfinite(v):
                        raise ValueError(f"{name}: {v!r} is not {what}")
        if not self.sizes or any(s < 2 for s in self.sizes):
            raise ValueError("sizes must be integers >= 2")
        if not self.ranks or any(r < 1 for r in self.ranks):
            raise ValueError("ranks must be positive integers")
        for name, ratios in (("nnz_ratios", self.nnz_ratios),
                             ("q_ratios", self.q_ratios)):
            if not ratios or any(not 0.0 < v <= 1.0 for v in ratios):
                raise ValueError(f"{name} must lie in (0, 1]")
        for kind in self.transforms:
            if kind not in KINDS:
                raise ValueError(f"unknown transform {kind!r}")
        if not self.seeds or any(s < 0 for s in self.seeds):
            raise ValueError("seeds must be a nonempty list of integers >= 0")
        if self.tau <= 0 or self.eta <= 0:
            raise ValueError("tau and eta must be positive")
        if self.eps < 0 or self.max_iter < 1:
            raise ValueError("eps must be >= 0 and max_iter >= 1")
        if self.s_scale <= 0:
            raise ValueError("s_scale must be positive")
        if self.beta0 is not None and self.beta0 <= 0:
            raise ValueError("beta0 must be positive")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        for a in self.alphas if self.alphas is not None else (self.alpha,):
            if not 0.0 <= a < 1.0:
                raise ValueError(f"alpha {a} outside [0, 1)")
            if (self.alphas is None
                    and not InertialSchedule.constant(a).guaranteed_regime):
                raise ValueError(
                    f"alpha {a} is outside the guaranteed range [0, 1/3); "
                    "probe larger factors with `iprox sweep-alpha` or solver.alphas"
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
        unknown = [str(k) for k in doc if k not in ("grid", "solver", "seeds", "jobs")]
        for name in ("grid", "solver"):
            if not isinstance(doc.get(name, {}), dict):
                raise ValueError(f"config section {name} must be a mapping")
            unknown += [f"{name}.{k}" for k in doc.get(name, {})
                        if k not in _CONFIG_KEYS[name]]
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        grid = doc.get("grid", {})
        solver = doc.get("solver", {})
        kw = {key: grid[key] for key in _CONFIG_KEYS["grid"] if key in grid}
        kw.update((key, solver[key]) for key in _CONFIG_KEYS["solver"]
                  if solver.get(key) is not None)
        kw.update((key, doc[key]) for key in ("seeds", "jobs") if key in doc)
        kw = {key: tuple(v) if isinstance(v, list) else v for key, v in kw.items()}
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
    traceback: Optional[str] = None


def _environment():
    return {
        "rng_algorithm": RNG_ALGORITHM,
        "numpy": np.__version__,
        "package": __version__,
    }


def _solver_outcome(state, trace, inst, wall):
    """A solve's summary for ``records.json``: the recovery metrics, the
    wall time, and how its SVTs ran: the number of calls per path
    (``svt_paths``) and the output rank of the last one (``svt_rank``)."""
    met = recovery_metrics(state, inst)
    paths = trace.extras["svt_path"]
    ranks = trace.extras["svt_rank"]
    return {
        "iters": int(met.iters),
        "rel_l": float(met.rel_l),
        "rel_s": float(met.rel_s),
        "converged": bool(met.converged),
        "wall_time": float(wall),
        "svt_paths": {p: paths.count(p) for p in SVT_PATHS},
        "svt_rank": int(ranks[-1]) if ranks else 0,
    }


def _solve(inst, settings, alpha=None):
    """Solve ``inst`` plainly, or inertially at ``alpha``, as ``settings``
    (a validated :class:`RunConfig`) set the solver up;
    returns the state, the trace and the :func:`_solver_outcome` summary."""
    solver, kw = (ladmm_cpcp, {}) if alpha is None else (iladmm_cpcp, {"alpha": alpha})
    t0 = time.perf_counter()
    state, trace = solver(
        inst, tau=settings.tau, eta=settings.eta,
        controller=BetaController.for_instance(
            inst, beta0=settings.beta0, s_scale=settings.s_scale),
        tol=settings.eps, max_iter=settings.max_iter, **kw,
    )
    return state, trace, _solver_outcome(state, trace, inst, time.perf_counter() - t0)


def _run_trial(cell, seed, config, alphas):
    size, rank, nnz_ratio, q_ratio, kind = cell
    try:
        q, nnz = counts_from_ratios(size, size, q_ratio, nnz_ratio)
        inst = generate_instance(size, size, rank, nnz, kind, q, seed)
        return {
            "seed": seed,
            "q": inst.q,
            "nnz": inst.nnz,
            "dof": inst.dof,
            "ladmm": _solve(inst, config)[2],
            "iladmm": {a: _solve(inst, config, alpha=a)[2] for a in alphas},
        }
    except Exception as exc:  # cell failures must not kill the grid
        return _trial_error(seed, exc)


def _trial_error(seed, exc):
    return {"seed": seed, "error": f"{type(exc).__name__}: {exc}",
            "traceback": traceback.format_exc()}


def _trial_result(fut, seed):
    """The outcome of a submitted trial; a worker that died (a crash or an
    exit) fails its trial and every one still pending, as trial errors."""
    try:
        return fut.result()
    except BrokenExecutor as exc:
        return _trial_error(seed, exc)


def _worker_pool(jobs):
    """The grid's executor: ``jobs`` forked worker processes, each with
    one BLAS thread (see :func:`iprox.numkit._one_blas_thread`)."""
    # imported here: only a grid run needs them, and at module level they
    # added about 0.5 MB to the peak RSS of every process importing iprox
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=jobs,
                               mp_context=multiprocessing.get_context("fork"),
                               initializer=_one_blas_thread)


def run_grid(config):
    """Run the full grid; returns one RunRecord per (cell, alpha).

    Both solvers see the same instance in every trial. Trials run in
    ``config.jobs`` worker processes, one BLAS thread each; a thread
    pool made ``jobs=2`` slower than serial, since the trials hold the
    GIL and each thread drove a 2-thread BLAS (on 2 CPUs, a 64 x 64 grid
    of 3 cells and 2 seeds took 2.0-2.2 s at 2 threads, 1.4 s at 1, and
    takes 0.8 s in 2 workers). A trial whose worker died is
    recorded as a cell error. Records are assembled in deterministic
    grid order regardless of scheduling.
    """
    config.validate()
    alphas = tuple(config.alphas) if config.alphas is not None else (config.alpha,)
    cells = list(itertools.product(
        config.sizes, config.ranks, config.nnz_ratios,
        config.q_ratios, config.transforms,
    ))
    with _worker_pool(config.jobs) as pool:
        futs = {
            (ci, seed): pool.submit(_run_trial, cells[ci], seed, config, alphas)
            for ci in range(len(cells)) for seed in config.seeds
        }
    results = {key: _trial_result(fut, key[1]) for key, fut in futs.items()}

    env = _environment()
    records = []
    for ci, cell in enumerate(cells):
        size, rank, nnz_ratio, q_ratio, kind = cell
        per_seed = [results[(ci, seed)] for seed in config.seeds]
        failed = [t for t in per_seed if "error" in t]
        for a in alphas:
            rec = RunRecord(
                m=size, n=size, r=rank, nnz_ratio=float(nnz_ratio),
                q_ratio=float(q_ratio), transform=kind, alpha=float(a),
                environment=dict(env),
            )
            if failed:
                rec.error = failed[0]["error"]
                rec.traceback = failed[0]["traceback"]
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
    axis; records are grouped when several share an axis value. ``axis``
    is a record field or a tuple of them, one column each. As in
    :func:`emit_csv`, a solver's column renders as the sentinel when any
    trial of the group did not converge."""
    if not records:
        raise ValueError("no records to write")
    fields = (axis,) if isinstance(axis, str) else tuple(axis)
    groups = {}
    for rec in records:
        if rec.error is not None:
            continue
        key = tuple(getattr(rec, f) for f in fields)
        groups.setdefault(key, []).append(rec)
    if not groups:
        raise ValueError("no successful records to plot")
    lines = [",".join(fields) + ",iter_ladmm,iter_iladmm"]
    for key in sorted(groups):
        recs = groups[key]
        i1 = _group_mean([r.mean_iter_ladmm for r in recs],
                         all(r.all_converged_ladmm for r in recs))
        i2 = _group_mean([r.mean_iter_iladmm for r in recs],
                         all(r.all_converged_iladmm for r in recs))
        head = ",".join(v if isinstance(v, str) else f"{v:g}" for v in key)
        lines.append(f"{head},{i1},{i2}")
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

# fixture scale of the criteria 1-6 and 9 that ``iprox verify`` runs
VERIFY_SCALE = 0.1


def run_verification():
    """Acceptance criteria 1-9 of :mod:`iprox.checks` at fixture scale.

    Criteria 1-6 and 9 run at ``VERIFY_SCALE``. Criteria 7 and 8 share
    one 32x32 instance solved plainly and at 0.28; one instance that
    small converges in under 80 iterations, where extrapolation saves
    about 5 %, so criterion 8 here only asks the inertial solve not to
    be slower. Returns one :class:`~iprox.checks.CheckResult` per
    criterion, in order.
    """
    scaled = (checks.step_characterization, checks.distance_contraction,
              checks.nonergodic_rate, checks.ergodic_gap,
              checks.residual_envelope, checks.objective_rate)
    results = [check(VERIFY_SCALE) for check in scaled]
    batch = checks.recovery_batch(32, 2, 0.8, seeds=(7,),
                                  alphas=(checks.INERTIAL_ALPHA,))
    results.append(checks.recovery(batch))
    results.append(checks.inertial_speedup(batch, ratio_gate=1.0))
    results.append(checks.exact_identities(VERIFY_SCALE))
    return results


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
    s.set_defaults(func=_cmd_solve)
    s.add_argument("--size", type=int, default=64, help="rows (m), square by default")
    s.add_argument("--cols", type=int, default=None, help="columns (n), default size")
    s.add_argument("--rank", type=int, default=2)
    s.add_argument("--nnz-ratio", type=float, default=0.05)
    s.add_argument("--q-ratio", type=float, default=0.6)
    s.add_argument("--transform", choices=KINDS, default="dct2")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--alpha", type=float, default=RunConfig.alpha,
                   help="extrapolation factor; 0 gives the plain solver")
    s.add_argument("--tau", type=float, default=RunConfig.tau)
    s.add_argument("--eta", type=float, default=RunConfig.eta)
    s.add_argument("--eps", type=float, default=RunConfig.eps)
    s.add_argument("--max-iter", type=int, default=RunConfig.max_iter)
    s.add_argument("--beta0", type=float, default=RunConfig.beta0)
    s.add_argument("--s-scale", type=float, default=RunConfig.s_scale)
    s.add_argument("--json", type=str, default=None, metavar="PATH")

    b = sub.add_parser("bench", help="run the benchmark grid")
    b.set_defaults(func=_cmd_bench)
    b.add_argument("--config", type=str, default=None,
                   help="YAML config; the built-in desk grid when omitted")
    b.add_argument("--out", type=str, default="results")
    b.add_argument("--jobs", type=int, default=None)

    w = sub.add_parser("sweep-alpha", help="sweep the extrapolation factor")
    w.set_defaults(func=_cmd_sweep)
    w.add_argument("--size", type=int, default=128)
    w.add_argument("--rank", type=int, default=2)
    w.add_argument("--nnz-ratio", type=float, default=0.05)
    w.add_argument("--q-ratio", type=float, default=0.6)
    w.add_argument("--transform", choices=KINDS, default="dct2")
    w.add_argument("--seeds", type=str, default="0,1,2")
    w.add_argument("--alphas", type=str,
                   default="0.05,0.1,0.15,0.2,0.25,0.3,0.35")
    w.add_argument("--eps", type=float, default=RunConfig.eps)
    w.add_argument("--max-iter", type=int, default=RunConfig.max_iter)
    w.add_argument("--out", type=str, default="results")

    v = sub.add_parser("verify", help="run acceptance criteria 1-9 at fixture scale")
    v.set_defaults(func=_cmd_verify)
    return p


def _cmd_solve(args):
    config = RunConfig(
        sizes=(args.size,), ranks=(args.rank,), nnz_ratios=(args.nnz_ratio,),
        q_ratios=(args.q_ratio,), transforms=(args.transform,), tau=args.tau,
        eta=args.eta, eps=args.eps, max_iter=args.max_iter, alpha=args.alpha,
        beta0=args.beta0, s_scale=args.s_scale, seeds=(args.seed,),
    ).validate()
    n = args.cols if args.cols is not None else args.size
    q, nnz = counts_from_ratios(args.size, n, args.q_ratio, args.nnz_ratio)
    inst = generate_instance(args.size, n, args.rank, nnz, args.transform, q,
                             args.seed)
    state, trace, met = _solve(inst, config, alpha=args.alpha)
    solver = "iladmm" if args.alpha > 0 else "ladmm"
    print(f"instance: m={inst.m} n={inst.n} r={inst.r} nnz={inst.nnz} "
          f"q={inst.q} transform={inst.kind} seed={inst.seed} "
          f"q/dof={inst.q_over_dof:.4f}")
    print(f"solver: {solver} alpha={args.alpha:g} tau={args.tau:g} "
          f"eta={args.eta:g} eps={args.eps:g}")
    status = "converged" if met["converged"] else "max iterations reached"
    print(f"iterations: {met['iters']} ({status})")
    print(f"rel_l={met['rel_l']:.6e} rel_s={met['rel_s']:.6e} "
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
            "result": {"iters": met["iters"], "converged": met["converged"],
                       "rel_l": met["rel_l"], "rel_s": met["rel_s"],
                       "final_beta": state.beta},
            "environment": _environment(),
        }
        Path(args.json).write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n",
                                   encoding="utf8")
    return 0 if met["converged"] else 1


def _cmd_bench(args):
    if args.config is not None:
        config = RunConfig.from_yaml(args.config)
    else:
        config = RunConfig.default_grid()
    if args.jobs is not None:
        config.jobs = int(args.jobs)
        config.validate()
    return _run_and_write(config, Path(args.out))


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
    ).validate()
    return _run_and_write(config, Path(args.out))


def _run_and_write(config, out):
    """Run the grid of ``config`` and write its tables to ``out``: per
    cell for a plain run, per factor for a sweep (``alphas`` set). The
    records and failed cells are written before the plot table, which
    raises when every cell failed."""
    out.mkdir(parents=True, exist_ok=True)
    records = run_grid(config)
    if config.alphas is not None:
        write_records_json(records, out / "alpha_records.json")
        print("   m    r  nnz_ratio  q_ratio  transform  alpha  iter_plain  "
              "iter_inertial  ratio")
        for rec in records:
            row = (f"{rec.m:>4}  {rec.r:>3}  {rec.nnz_ratio:>9g}  {rec.q_ratio:>7g}  "
                   f"{rec.transform:>9}  {rec.alpha:>5.2f}")
            if rec.error is not None:
                print(f"{row}  failed: {rec.error}")
                continue
            print(f"{row}  {rec.mean_iter_ladmm:>10.1f}  "
                  f"{rec.mean_iter_iladmm:>13.1f}  {rec.iter_ratio:>5.3f}")
        # one row per cell (square, so m = n) and factor
        emit_plot_data(records, out / "alpha_sweep.csv",
                       axis=("m", "r", "nnz_ratio", "q_ratio", "transform", "alpha"))
        return 0
    emit_csv(records, out / "results.csv")
    write_records_json(records, out / "records.json")
    failed = [r for r in records if r.error is not None]
    print(f"wrote {len(records)} records to {out} "
          f"({len(failed)} cell failures)")
    for rec in failed:
        print(f"  failed cell m={rec.m} r={rec.r} nnz_ratio={rec.nnz_ratio:g} "
              f"q_ratio={rec.q_ratio:g} {rec.transform}: {rec.error}")
    emit_plot_data(records, out / "plot.csv", axis="q_ratio")
    return 0


def _cmd_verify(_args):
    results = run_verification()
    width = max(len(c.name) for c in results)
    bad = 0
    for num, c in enumerate(results, 1):
        mark = "ok  " if c.ok else "FAIL"
        print(f"{mark} {num} {c.name:<{width}}  {c.detail}")
        bad += 0 if c.ok else 1
    print(f"{len(results) - bad}/{len(results)} checks passed")
    return 0 if bad == 0 else 1


def main(argv=None):
    """CLI entry; returns an exit code (0 ok, 1 failure, 2 bad usage)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 2
    try:
        return args.func(args)
    except (OSError, ValueError, yaml.YAMLError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def cli_entry():
    sys.exit(main())
