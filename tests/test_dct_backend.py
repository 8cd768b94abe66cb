"""Only a process that runs a DCT-II loads scipy.

``numkit`` imports ``scipy.fft`` on the first DCT-II call, and
``bench.run_grid`` imports it before its workers fork when the grid has
DCT-II cells. Each check runs in a fresh interpreter, since the test
process itself may already hold scipy from earlier tests.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import iprox

SRC = Path(iprox.__file__).resolve().parent.parent

# reads the thread count of every OpenBLAS the calling process has loaded
BLAS_THREADS = """
import ctypes
from iprox import numkit

def blas_threads():
    counts = {}
    for lib in numkit._openblas_libraries():
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                counts[lib._name] = int(fn())
                break
    return counts
"""

# runs a grid in which each worker, after each trial, reports the scipy
# modules and the BLAS thread counts it holds
GRID = BLAS_THREADS + """
import json, os, sys
from iprox import bench

run_trial = bench._run_trial

def reporting_trial(cell, seed, config, alphas):
    out = run_trial(cell, seed, config, alphas)
    report = {"error": out.get("error"), "blas": blas_threads(),
              "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}
    with open(os.path.join(sys.argv[1], f"{os.getpid()}-{seed}.json"), "w") as fh:
        json.dump(report, fh)
    return out

bench._run_trial = reporting_trial
config = bench.RunConfig(sizes=(16,), ranks=(1,), nnz_ratios=(0.05,), q_ratios=(0.8,),
                         transforms=(sys.argv[2],), eps=1e-4, seeds=(0, 1), jobs=2)
records = bench.run_grid(config)
print(json.dumps({"errors": [r.error for r in records],
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def run_python(code, *args):
    """Run ``code`` in a fresh interpreter with the package on its path;
    returns its stdout's last line parsed as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code), *map(str, args)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


LOADED_SCIPY = 'json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))'


def test_importing_the_package_loads_no_scipy():
    assert run_python(f"import json, sys, iprox, iprox.cli\nprint({LOADED_SCIPY})") == []


@pytest.mark.parametrize("kind, q_ratio", [("wht", 0.8), ("fft2", 0.45)])
def test_wht_and_fft2_solves_load_no_scipy(kind, q_ratio):
    code = f"""
        import contextlib, io, json, sys
        from iprox import cli
        with contextlib.redirect_stdout(io.StringIO()) as out:
            rc = cli.main(["solve", "--size", "32", "--rank", "1", "--transform", "{kind}",
                           "--q-ratio", "{q_ratio}", "--eps", "1e-4"])
        assert rc in (0, 1) and "iterations:" in out.getvalue(), (rc, out.getvalue())
        print({LOADED_SCIPY})
    """
    assert run_python(code) == []


def test_dct2_loads_scipy_fft_and_matches_it_bitwise():
    code = """
        import json, sys
        import numpy as np
        from iprox import cpcp, numkit
        before = "scipy.fft" in sys.modules
        x = np.random.default_rng(3).standard_normal((24, 40))
        fwd = numkit.orthonormal_transform("dct2", x)
        inv = numkit.orthonormal_transform("dct2", x, inverse=True)
        import scipy.fft
        q, nnz = cpcp.counts_from_ratios(16, 16, 0.8, 0.05)
        inst = cpcp.generate_instance(16, 16, 1, nnz, "dct2", q, 0)
        state, trace = cpcp.ladmm_cpcp(inst, tol=1e-4)
        print(json.dumps({
            "before": before,
            "after": "scipy.fft" in sys.modules,
            "fwd": fwd.tobytes() == scipy.fft.dctn(x, type=2, norm="ortho").tobytes(),
            "inv": inv.tobytes() == scipy.fft.idctn(x, type=2, norm="ortho").tobytes(),
            "converged": bool(trace.converged),
        }))
    """
    assert run_python(code) == {"before": False, "after": True, "fwd": True, "inv": True,
                                "converged": True}


def grid_reports(tmp_path, kind):
    parent = run_python(GRID, tmp_path, kind)
    assert parent["errors"] == [None]
    reports = [json.loads(p.read_text()) for p in sorted(tmp_path.glob("*.json"))]
    assert len(reports) == 2 and all(r["error"] is None for r in reports)
    return parent, reports


def test_dct2_grid_workers_run_one_thread_in_every_blas(tmp_path):
    """The DCT backend brings its own OpenBLAS; the grid loads it before
    the fork, so the workers' initializer sets it to one thread too."""
    parent, reports = grid_reports(tmp_path, "dct2")
    if not any(r["blas"] for r in reports):
        pytest.skip("no OpenBLAS loaded")
    for r in reports:
        assert set(r["blas"].values()) == {1}, r["blas"]
        assert "scipy.fft" in r["scipy"]
    assert "scipy.fft" in parent["scipy"]


def test_wht_grid_loads_no_scipy(tmp_path):
    parent, reports = grid_reports(tmp_path, "wht")
    assert parent["scipy"] == []
    assert [r["scipy"] for r in reports] == [[], []]
