"""The ``iprox`` command line: ``solve``, ``bench``, ``sweep-alpha`` and
``verify``. Its solver flags are generated from the solver keys of
:class:`~iprox.bench.RunConfig`, with their names, types and defaults.
``import iprox`` does not import this module, so PyYAML stays off its path.
"""

import argparse
import json
import sys
from pathlib import Path

import yaml

from . import bench
from .cpcp import counts_from_ratios, generate_instance
from .numkit import KINDS


def _parse_list(text, kind):
    return tuple(kind(v) for v in text.split(",") if v.strip() != "")


def _cell_flags(parser, size, solver_keys):
    """The flags of one grid cell, ``size`` wide by default, and one flag per
    solver key in ``solver_keys``, typed and defaulted as in RunConfig."""
    parser.add_argument("--size", type=int, default=size)
    parser.add_argument("--rank", type=int, default=2)
    parser.add_argument("--nnz-ratio", type=float, default=0.05)
    parser.add_argument("--q-ratio", type=float, default=0.6)
    parser.add_argument("--transform", choices=KINDS, default="dct2")
    for name in solver_keys:
        parser.add_argument(
            "--" + name.replace("_", "-"),
            type=int if name in bench._INTEGER_FIELDS else float,
            default=getattr(bench.RunConfig, name),
            help="extrapolation factor; 0 gives the plain solver" if name == "alpha" else None,
        )


def _build_parser():
    p = argparse.ArgumentParser(
        prog="iprox",
        description="Inertial splitting solvers and a compressive "
                    "principal component pursuit benchmark.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("solve", help="solve one generated instance")
    s.set_defaults(func=_cmd_solve)
    _cell_flags(s, 64, [k for k in bench._CONFIG_KEYS["solver"] if k != "alphas"])
    s.add_argument("--cols", type=int, default=None, help="columns (n), default --size")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--json", type=str, default=None, metavar="PATH")

    b = sub.add_parser("bench", help="run the benchmark grid")
    b.set_defaults(func=_cmd_bench)
    b.add_argument("--config", type=str, default=None,
                   help="YAML config; the default grid when omitted")
    b.add_argument("--out", type=str, default="results")
    b.add_argument("--jobs", type=int, default=None)

    w = sub.add_parser("sweep-alpha", help="sweep the extrapolation factor")
    w.set_defaults(func=_cmd_sweep)
    _cell_flags(w, 128, ("eps", "max_iter"))
    w.add_argument("--seeds", type=str, default="0,1,2")
    w.add_argument("--alphas", type=str,
                   default="0.05,0.1,0.15,0.2,0.25,0.3,0.35")
    w.add_argument("--out", type=str, default="results")

    v = sub.add_parser("verify", help="run acceptance criteria 1-9 at fixture scale")
    v.set_defaults(func=_cmd_verify)
    return p


def _cell_config(args, cols=None, **settings):
    """The config of the cell and solver flags in ``args``, and ``settings``,
    validated on a ``size x cols`` image when ``cols`` is given."""
    kw = {k: v for k, v in vars(args).items() if k in bench._CONFIG_KEYS["solver"]}
    kw.update(settings)
    return bench.RunConfig(
        sizes=(args.size,), ranks=(args.rank,), nnz_ratios=(args.nnz_ratio,),
        q_ratios=(args.q_ratio,), transforms=(args.transform,), **kw,
    ).validate(cols)


def _cmd_solve(args):
    if args.cols is not None and args.cols < 2:
        raise ValueError(f"--cols must be an integer >= 2, got {args.cols}")
    config = _cell_config(args, cols=args.cols, seeds=(args.seed,))
    n = args.cols if args.cols is not None else args.size
    q, nnz = counts_from_ratios(args.size, n, args.q_ratio, args.nnz_ratio)
    inst = generate_instance(args.size, n, args.rank, nnz, args.transform, q,
                             args.seed)
    _, trace, met = bench._solve(inst, config, alpha=args.alpha)
    solver = "iladmm" if args.alpha > 0 else "ladmm"
    print(f"instance: m={inst.m} n={inst.n} r={inst.r} nnz={inst.nnz} "
          f"q={inst.q} transform={inst.kind} seed={inst.seed} "
          f"q/dof={inst.q_over_dof:.4f}")
    print(f"solver: {solver} alpha={args.alpha:g} tau={args.tau:g} "
          f"eta={args.eta:g} eps={args.eps:g}")
    status = {"converged": "converged", "max_iter": "max iterations reached",
              "non_finite": "non-finite iterate"}[met["status"]]
    print(f"iterations: {met['iters']} ({status})")
    print(f"rel_l={met['rel_l']:.6e} rel_s={met['rel_s']:.6e} "
          f"final_beta={trace.extras['beta'][-1]:.6g} "
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
                       "status": met["status"], "rel_l": met["rel_l"],
                       "rel_s": met["rel_s"], "final_beta": trace.extras["beta"][-1]},
            "environment": bench._environment(),
        }
        Path(args.json).write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n",
                                   encoding="utf8")
    return 0 if met["converged"] else 1


def _cmd_bench(args):
    if args.config is not None:
        config = bench.RunConfig.from_yaml(args.config)
    else:
        config = bench.RunConfig.default_grid()
    if args.jobs is not None:
        config.jobs = int(args.jobs)
        config.validate()
    return _run_and_write(config, Path(args.out))


def _cmd_sweep(args):
    config = _cell_config(args, alphas=_parse_list(args.alphas, float),
                          seeds=_parse_list(args.seeds, int))
    return _run_and_write(config, Path(args.out))


def _run_and_write(config, out):
    """Run the grid of ``config`` and write its tables to ``out``: per
    cell for a plain run, per factor for a sweep (``alphas`` set). The
    records and failed cells are written before the plot table, which
    raises when every cell failed."""
    out.mkdir(parents=True, exist_ok=True)
    records = bench.run_grid(config)
    if config.alphas is not None:
        bench.write_records_json(records, out / "alpha_records.json")
        print("   m    r  nnz_ratio  q_ratio  transform  alpha  iter_plain  "
              "iter_inertial  ratio")
        for rec in records:
            row = (f"{rec.m:>4}  {rec.r:>3}  {rec.nnz_ratio:>9g}  {rec.q_ratio:>7g}  "
                   f"{rec.transform:>9}  {rec.alpha:>5.2f}")
            if rec.error is not None:
                print(f"{row}  failed: {rec.error}")
                continue
            iter1, iter2, ratio = bench._iter_cells(rec, ".3f")
            print(f"{row}  {iter1:>10}  {iter2:>13}  {ratio:>5}")
        # one row per cell (square, so m = n) and factor
        bench.emit_plot_data(records, out / "alpha_sweep.csv",
                             axis=("m", "r", "nnz_ratio", "q_ratio", "transform", "alpha"))
        return 0
    bench.emit_csv(records, out / "results.csv")
    bench.write_records_json(records, out / "records.json")
    failed = [r for r in records if r.error is not None]
    print(f"wrote {len(records)} records to {out} "
          f"({len(failed)} cell failures)")
    for rec in failed:
        print(f"  failed cell m={rec.m} r={rec.r} nnz_ratio={rec.nnz_ratio:g} "
              f"q_ratio={rec.q_ratio:g} {rec.transform}: {rec.error}")
    bench.emit_plot_data(records, out / "plot.csv", axis="q_ratio")
    return 0


def _cmd_verify(_args):
    results = bench.run_verification()
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
