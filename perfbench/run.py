"""Benchmark of the iprox package: run one workload, check it, report it.

    python3 perfbench/run.py --workload desk --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0    # every workload in turn
    python3 perfbench/run.py --write-definition         # regenerate BENCHMARK.json

Run it from the root of a checkout: it imports ``iprox`` from ``src/``
there and nowhere else. After set-up, passes over the workload's inputs
repeat until another pass would end past ``--seconds`` (at least one
pass; a traced run alternates untraced and traced passes, at least one
of each). The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``spec.END_TO_END`` with ``--trace 0``, the per-layer metrics
of ``spec.PER_LAYER`` with ``--trace 1``. The exit code is 0 only when
every correctness check passed. Results, spans and the grid tables go
to ``perfbench/out/``.
"""

import time

_T0 = time.perf_counter()  # set-up is timed from here, before any import

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import spec  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
EXPECTED = HERE / "expected.json"
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 170


def _import_package():
    """Import iprox from this checkout's ``src/``, or exit nonzero."""
    pkg = SRC / "iprox"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"error: no iprox package at {pkg}; run from a checkout "
                         "of the repository")
    sys.path.insert(0, str(SRC))
    import iprox

    if Path(iprox.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"error: iprox was imported from {iprox.__file__}, "
                         f"not from {pkg}")


# ---------------------------------------------------------------------------
# machine context


def _blas_libraries():
    """Loaded OpenBLAS libraries and the thread count each will use."""
    libs = {}
    try:
        with open("/proc/self/maps", encoding="utf8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return libs
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        threads = None
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                threads = int(fn())
                break
        libs[Path(path).name] = threads
    return libs


def _source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "iprox").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_rev():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def machine_context(seed):
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _blas_libraries()},
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "git_rev": _git_rev(),
        "src_sha256": _source_digest(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# one workload


def _median(values):
    return float(statistics.median(values))


def _setup_probes(args):
    """Set-up seconds of fresh processes that import and build the inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--toy"] if args.toy else [])
    times = []
    for _ in range(SETUP_REPEATS - 1):
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def _check_deterministic(args, context, fields):
    """Errors found comparing the run's deterministic fields against the
    pinned seed-0 values and against an earlier run of the same code."""
    errors = []
    if args.seed == 0 and not args.toy:
        pinned = json.loads(EXPECTED.read_text(encoding="utf8")).get(args.workload, {})
        for key, want in pinned.items():
            got = fields.get(key)
            if isinstance(want, list) and isinstance(got, list):
                got = got[:len(want)]
            if got != want:
                errors.append(f"seed-0 field {key!r} is {got!r}, pinned {want!r}")
    # same code: the package source and the workload definitions
    code = hashlib.sha256((context["src_sha256"]).encode()
                          + (HERE / "workloads.py").read_bytes()).hexdigest()
    threads = "-".join(str(t) for t in context["blas"]["threads"].values())
    name = (f"{args.workload}-seed{args.seed}{'-toy' if args.toy else ''}"
            f"-blas{threads}-{code[:16]}.json")
    path = OUT / "deterministic" / name
    if path.exists():
        earlier = json.loads(path.read_text(encoding="utf8"))
        if earlier != fields:
            errors.append(f"deterministic fields differ from an earlier run of the "
                          f"same code ({path.name})")
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(fields, sort_keys=True) + "\n", encoding="utf8")
    return errors


def run_workload(args):
    _import_package()
    import spans
    import workloads
    from iprox import bench, cpcp, fixtures, numkit, prox, splitting, vi_core

    OUT.mkdir(exist_ok=True)
    wl = workloads.make(args.workload, OUT, toy=args.toy)
    recorder = None
    if args.trace:
        recorder = spans.SpanRecorder({
            "bench": bench, "cpcp": cpcp, "fixtures": fixtures, "numkit": numkit,
            "prox": prox, "splitting": splitting, "vi_core": vi_core,
        })
        recorder.install()
    inputs = wl.setup(args.seed)
    setup_s = time.perf_counter() - _T0
    if recorder is not None:
        recorder.uninstall()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    # passes: (phase label, traced, seconds, PassResult)
    passes, failures = [], []
    start = time.perf_counter()
    while True:
        traced = recorder is not None and len(passes) % 2 == 1
        label = f"pass-{len(passes)}"
        if traced:
            recorder.phase = label
            recorder.install()
        t0 = time.perf_counter()
        try:
            res = wl.run_pass(inputs)
        except Exception:  # a program defect: report it with its traceback
            failures.append(f"{label} raised:\n{traceback.format_exc()}")
            break
        finally:
            if traced:
                recorder.uninstall()
        passes.append((label, traced, time.perf_counter() - t0, res))
        if recorder is not None and len({p[1] for p in passes}) < 2:
            continue
        typical = _median([p[2] for p in passes])
        if time.perf_counter() - start + typical > args.seconds:
            break

    if failures:  # a pass raised: no metrics to report
        print(f"workload {args.workload} seed {args.seed}: FAILED {failures[0]}")
        return 1
    context = machine_context(args.seed)
    attempted = sum(len(p[3].ops) for p in passes)
    for label, _, _, res in passes:
        failures += [f"{label} {op.name}: {op.error}" for op in res.ops if not op.ok]
    fields = passes[0][3].deterministic
    for label, _, _, res in passes[1:]:
        if res.deterministic != fields:
            failures.append(f"{label}: deterministic fields differ from pass-0")
    failures += _check_deterministic(args, context, fields)
    attempted += 1  # the determinism check counts as one operation
    correct = not failures

    plain = [p for p in passes if not p[1]]
    report = {"workload": args.workload, "toy": args.toy, "context": context,
              "deterministic": fields, "failures": failures,
              "passes": [{"phase": p[0], "traced": p[1], "seconds": p[2]} for p in passes]}
    if not args.trace:
        setups = [setup_s] + _setup_probes(args)
        values = {
            "setup_s": (_median(setups), len(setups)),
            "iter_ms": (_median([1e3 * p[2] / p[3].iters for p in plain]), len(plain)),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        }
        units = {n: u for n, u, _, _ in spec.END_TO_END}
    else:
        traced_labels = [p[0] for p in passes if p[1]]
        recorder.write(OUT / f"spans-{args.workload}.jsonl")
        missing = wl.spans - recorder.names_hit({"setup", *traced_labels})
        if missing:
            raise spans.TraceError(
                f"workload {args.workload} never reached {sorted(missing)}")
        layer = spans.layer_metrics(
            recorder.spans, traced_labels,
            _median([p[2] for p in plain]),
            _median([p[2] for p in passes if p[1]]),
        )
        values = {n: (v, len(traced_labels)) for n, v in layer.items()}
        units = {n: u for n, u, _, _ in spec.PER_LAYER}

    # readable report: every metric with its unit and sample count
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}"
          f"{' (toy)' if args.toy else ''}: {len(passes)} passes")
    blas = context["blas"]
    print(f"  context: nproc {context['nproc']}, {blas['name']} {blas['version']} "
          f"threads {blas['threads']}, python {context['python']}, numpy "
          f"{context['numpy']}, scipy {context['scipy']}, git {context['git_rev']}")
    for name, (value, n) in values.items():
        print(f"  {name:<30} {value:>14.6g} {units[name]:<10} n={n}")
    if not args.trace:
        print(f"  {'pass_s':<30} {_median([p[2] for p in plain]):>14.6g} {'s':<10} "
              f"n={len(plain)}")
        for name in plain[0][3].extra:
            vals = [p[3].extra[name][0] for p in plain]
            print(f"  {name:<30} {_median(vals):>14.6g} {plain[0][3].extra[name][1]:<10} "
                  f"n={len(vals)}")
    print(f"  {'fail_frac':<30} {len(failures) / max(attempted, 1):>14.6g} "
          f"{'fraction':<10} n={attempted}")
    for line in failures:
        print(f"  FAILED {line}")

    report["metrics"] = {n: {"value": v, "unit": units[n], "samples": k}
                         for n, (v, k) in values.items()}
    out_name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-toy' if args.toy else ''}"
    (OUT / f"{out_name}.json").write_text(json.dumps(report, indent=1) + "\n",
                                         encoding="utf8")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {n: {"value": v, "unit": units[n]} for n, (v, _) in values.items()},
    }))
    return 0 if correct else 1


# ---------------------------------------------------------------------------
# all workloads, and the definition file


def run_all(args):
    """Each workload in its own process, so set-up and peak memory are its own."""
    results, code = {}, 0
    for name in spec.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--toy"] if args.toy else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=CHILD_TIMEOUT_S)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        try:
            results[name] = json.loads(lines[-1]) if lines else None
        except json.JSONDecodeError:
            results[name] = None
        if proc.returncode != 0 or results[name] is None:
            code = 1
    done = [r for r in results.values() if r is not None]
    print(json.dumps({
        "correct": code == 0 and all(r["correct"] for r in done),
        "attempted": sum(r["attempted"] for r in done),
        "failed": sum(r["failed"] for r in done),
        "metrics": {n: r["metrics"] if r else None for n, r in results.items()},
    }))
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*spec.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="tiny inputs, for the self-test of the wiring")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--write-definition", action="store_true",
                        help="write BENCHMARK.json from spec.py and exit")
    args = parser.parse_args(argv)
    if args.write_definition:
        (ROOT / "BENCHMARK.json").write_text(
            json.dumps(spec.definition(), indent=2) + "\n", encoding="utf8")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
