"""Run settings, benchmark grid, result tables, and self-verification.

The grid runner pairs the plain and inertial solvers on identical
instances (same seed, same measurement operator) over a cartesian grid of
problem shapes, aggregates per-cell iteration counts and recovery errors,
and writes a fixed-format CSV plus plot-ready data. Everything is
deterministic given the config and seeds; only wall times vary between
runs, and they never enter the tables. The command line is :mod:`iprox.cli`.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import numbers
import time
import traceback
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__, checks
from .cpcp import (
    BetaController,
    counts_from_ratios,
    generate_instance,
    iladmm_cpcp,
    ladmm_cpcp,
    recovery_metrics,
)
from .numkit import (
    DCT2,
    KINDS,
    RNG_ALGORITHM,
    SVT_PATHS,
    _dct_kernel,
    _one_blas_thread,
    measurement_domain,
)
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
# or finite numbers (entrywise for a list); only _UNSET_FIELDS may be None
_LIST_FIELDS = ("sizes", "ranks", "nnz_ratios", "q_ratios", "transforms", "alphas", "seeds")
_INTEGER_FIELDS = ("sizes", "ranks", "seeds", "max_iter", "jobs")
_NUMBER_FIELDS = ("nnz_ratios", "q_ratios", "alphas", "tau", "eta", "eps", "alpha",
                  "beta0", "s_scale")
_UNSET_FIELDS = ("alphas", "beta0")


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

    def validate(self, cols=None):
        """Check every setting; raises a ValueError naming the first bad
        field, and returns the config otherwise. No list may repeat a
        value, which would solve a cell or trial twice. Each cell's
        measurement count is checked on its square image, or on a
        ``size x cols`` one when ``cols`` is given, as ``iprox solve
        --cols`` solves."""
        for name in _LIST_FIELDS:
            value = getattr(self, name)
            if not isinstance(value, tuple) and not (value is None and name in _UNSET_FIELDS):
                raise ValueError(f"{name} must be a list, got {value!r}")
        for names, kind, what in ((_INTEGER_FIELDS, numbers.Integral, "an integer"),
                                  (_NUMBER_FIELDS, numbers.Real, "a finite number")):
            for name in names:
                value = getattr(self, name)
                if value is None and name in _UNSET_FIELDS:
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
        if not self.transforms:
            raise ValueError("transforms must be a nonempty list")
        for kind in self.transforms:
            if kind not in KINDS:
                raise ValueError(f"unknown transform {kind!r}")
        for name in _LIST_FIELDS:
            value = getattr(self, name) or ()
            if len(set(value)) < len(value):
                raise ValueError(f"{name} repeats a value: {list(value)!r}")
        for size, q_ratio, kind in itertools.product(self.sizes, self.q_ratios, self.transforms):
            n = size if cols is None else cols
            # q does not depend on the sparse ratio, so any valid one stands in
            q, _ = counts_from_ratios(size, n, q_ratio, 1.0)
            try:
                measurement_domain(kind, size, n, q)
            except ValueError as exc:
                shape = size if n == size else f"{size}x{n}"
                raise ValueError(
                    f"{kind} at size {shape} cannot take q_ratio {q_ratio:g}: {exc}") from None
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
        if self.alphas == ():
            raise ValueError("alphas must be a nonempty list when set")
        for a in self.alphas if self.alphas is not None else (self.alpha,):
            if not 0.0 <= a < 1.0:
                raise ValueError(f"alpha {a} outside [0, 1)")
            if (self.alphas is None
                    and not InertialSchedule(a).guaranteed_regime):
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
        import yaml  # here, so that importing iprox does not load PyYAML
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


def _run_solve(cell, seed, config, alpha):
    """One grid task: ``cell``'s instance at ``seed``, generated afresh and
    solved plainly (``alpha`` None) or inertially at ``alpha``; returns
    the instance's counts and the solve's :func:`_solver_outcome`, or the
    error with its traceback."""
    size, rank, nnz_ratio, q_ratio, kind = cell
    try:
        q, nnz = counts_from_ratios(size, size, q_ratio, nnz_ratio)
        inst = generate_instance(size, size, rank, nnz, kind, q, seed)
        return {"q": inst.q, "nnz": inst.nnz, "dof": inst.dof,
                "outcome": _solve(inst, config, alpha)[2]}
    except Exception as exc:  # cell failures must not kill the grid
        return _task_error(exc)


def _task_error(exc):
    return {"error": f"{type(exc).__name__}: {exc}", "traceback": traceback.format_exc()}


def _task_result(fut):
    """The outcome of a submitted task; a worker that died (a crash or an
    exit) fails its task and every one still pending, as task errors."""
    try:
        return fut.result()
    except BrokenExecutor as exc:
        return _task_error(exc)


def _worker_pool(jobs):
    """The grid's executor: ``jobs`` forked worker processes, each with
    one BLAS thread (see :func:`iprox.numkit._one_blas_thread`).

    The initializer sets the OpenBLAS libraries loaded at the fork; the
    grid's transforms load no other (numpy's is the only one, and the
    DCT-II kernel, which :func:`run_grid` loads before the fork, brings
    none)."""
    # imported here: only a grid run needs them, and at module level they
    # added about 0.5 MB to the peak RSS of every process importing iprox
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=jobs,
                               mp_context=multiprocessing.get_context("fork"),
                               initializer=_one_blas_thread)


def run_grid(config):
    """Run the full grid; returns one RunRecord per (cell, alpha).

    Both solvers see the same instance in every trial. Each solve is one
    task: it generates its trial's instance from the seed, so a trial's
    plain and inertial solves can run side by side. Tasks run in
    ``config.jobs`` worker processes (no more than there are solves), one
    BLAS thread each; a thread pool made ``jobs=2`` slower than serial,
    since the solves hold the GIL and each thread drove a 2-thread BLAS
    (on 2 CPUs, a 64 x 64 grid of 3 cells and 2 seeds took 2.0-2.2 s at 2
    threads, 1.4 s at 1, and takes 0.8 s in 2 workers). A failed solve,
    or one whose worker died, is recorded as a cell error. Records are
    assembled in deterministic grid order regardless of scheduling.

    A grid with DCT-II cells loads the DCT-II kernel (see
    :func:`iprox.numkit._dct_kernel`) before the workers fork, so every
    worker inherits it instead of loading it itself; no process of a grid
    imports a scipy module.
    """
    config.validate()
    if DCT2 in config.transforms:
        _dct_kernel()
    alphas = tuple(config.alphas) if config.alphas is not None else (config.alpha,)
    labels = (None, *alphas)  # None: the plain solve
    cells = list(itertools.product(
        config.sizes, config.ranks, config.nnz_ratios,
        config.q_ratios, config.transforms,
    ))
    tasks = [(ci, seed, a) for ci in range(len(cells)) for seed in config.seeds
             for a in labels]
    # a forked pool starts all its workers at the first submit: no more than tasks
    with _worker_pool(min(config.jobs, len(tasks))) as pool:
        futs = [pool.submit(_run_solve, cells[ci], seed, config, a) for ci, seed, a in tasks]
    results = dict(zip(tasks, map(_task_result, futs)))

    env = _environment()
    records = []
    for ci, cell in enumerate(cells):
        size, rank, nnz_ratio, q_ratio, kind = cell
        per_seed = [[results[(ci, seed, a)] for a in labels] for seed in config.seeds]
        failed = [s for solves in per_seed for s in solves if "error" in s]
        for i, a in enumerate(alphas, 1):
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
            first = per_seed[0][0]
            rec.q, rec.nnz, rec.dof = first["q"], first["nnz"], first["dof"]
            rec.q_over_dof = rec.q / rec.dof
            rec.trials = [
                {"seed": seed, "ladmm": solves[0]["outcome"], "iladmm": solves[i]["outcome"]}
                for seed, solves in zip(config.seeds, per_seed)
            ]
            for solver in ("ladmm", "iladmm"):
                runs = [t[solver] for t in rec.trials]
                for name, key in (("iter", "iters"), ("rel_l", "rel_l"), ("rel_s", "rel_s")):
                    setattr(rec, f"mean_{name}_{solver}", float(np.mean([r[key] for r in runs])))
                setattr(rec, f"all_converged_{solver}", all(r["converged"] for r in runs))
            rec.iter_ratio = rec.mean_iter_iladmm / rec.mean_iter_ladmm
            records.append(rec)
    return records


def _iter_cells(rec, ratio_format):
    """A record's mean iterations per solver and their ratio as table
    cells, each the sentinel unless every trial it averages converged."""
    plain, inertial = rec.all_converged_ladmm, rec.all_converged_iladmm
    return (f"{rec.mean_iter_ladmm:.1f}" if plain else SENTINEL,
            f"{rec.mean_iter_iladmm:.1f}" if inertial else SENTINEL,
            format(rec.iter_ratio, ratio_format) if plain and inertial else SENTINEL)


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
            iter1, iter2, ratio = _iter_cells(rec, ".4f")
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


def _finite_or_null(doc):
    """``doc`` with every non-finite float, such as the NaN aggregates of a
    failed cell, replaced by None, which JSON writes as ``null``."""
    if isinstance(doc, float):
        return doc if math.isfinite(doc) else None
    if isinstance(doc, dict):
        return {k: _finite_or_null(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_finite_or_null(v) for v in doc]
    return doc


def write_records_json(records, path):
    """Write the records as strict JSON: a non-finite number is ``null``."""
    docs = _finite_or_null([dataclasses.asdict(rec) for rec in records])
    Path(path).write_text(
        json.dumps(docs, sort_keys=True, indent=1, allow_nan=False) + "\n", encoding="utf8"
    )


# ---------------------------------------------------------------------------
# self-verification

# fixture scale of the criteria 1-6 and 9 that ``iprox verify`` runs
VERIFY_SCALE = 0.1


def run_verification():
    """Acceptance criteria 1-9 of :mod:`iprox.checks` at fixture scale.

    Criteria 1-6 and 9 run at ``VERIFY_SCALE``. Criteria 7 and 8 read one
    :func:`run_grid` sweep cell of a single 32x32 instance, solved plainly
    and at 0.28 in two worker processes; one instance that small
    converges in under 80 iterations, where extrapolation saves about
    5 %, so criterion 8 here only asks the inertial solve not to be
    slower. Returns one :class:`~iprox.checks.CheckResult` per criterion,
    in order.
    """
    scaled = (checks.step_characterization, checks.distance_contraction,
              checks.nonergodic_rate, checks.ergodic_gap,
              checks.residual_envelope, checks.objective_rate)
    results = [check(VERIFY_SCALE) for check in scaled]
    records = run_grid(RunConfig(sizes=(32,), ranks=(2,), nnz_ratios=(0.05,),
                                 q_ratios=(0.8,), seeds=(7,),
                                 alphas=(checks.INERTIAL_ALPHA,), jobs=2))
    results.append(checks.recovery(records))
    results.append(checks.inertial_speedup(records, ratio_gate=1.0))
    results.append(checks.exact_identities(VERIFY_SCALE))
    return results
