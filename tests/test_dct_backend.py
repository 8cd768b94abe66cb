"""The DCT-II runs on scipy's pocketfft kernel alone.

``numkit._dct_kernel`` loads that one extension file on the first DCT-II
call, without importing ``scipy.fft`` (which would also import
``scipy.special`` and load scipy's own OpenBLAS), and ``bench.run_grid``
loads it before its workers fork when the grid has DCT-II cells. The
checks of what a process loads each run in a fresh interpreter, since the
test process itself may already hold scipy from earlier tests.
"""

import importlib.util
import json
import os
import subprocess
import sys
import textwrap
from importlib.metadata import version
from pathlib import Path

import numpy as np
import pytest

import iprox
from iprox import numkit

SRC = Path(iprox.__file__).resolve().parent.parent

# what the calling process holds: its scipy modules, and each OpenBLAS
# library it has mapped with that library's thread count
HOLDINGS = """
import ctypes, sys
from iprox import numkit

def holdings():
    blas = {}
    for lib in numkit._openblas_libraries():
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                blas[lib._name] = int(fn())
                break
    return {"scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
            "blas": blas}
"""

# runs a grid in which each worker, after each solve, reports what it holds
GRID = HOLDINGS + """
import json, os
from iprox import bench

run_solve = bench._run_solve

def reporting_solve(cell, seed, config, alpha):
    out = run_solve(cell, seed, config, alpha)
    with open(os.path.join(sys.argv[1], f"{os.getpid()}-{seed}-{alpha}.json"), "w") as fh:
        json.dump({"error": out.get("error"), **holdings()}, fh)
    return out

bench._run_solve = reporting_solve
before = holdings()
config = bench.RunConfig(sizes=(16,), ranks=(1,), nnz_ratios=(0.05,), q_ratios=(0.8,),
                         transforms=(sys.argv[2],), eps=1e-4, seeds=(0, 1), jobs=2)
records = bench.run_grid(config)
print(json.dumps({"errors": [r.error for r in records], "before": before, "after": holdings()}))
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


def test_importing_the_package_loads_no_scipy():
    code = HOLDINGS + "\nimport json, iprox.cli\nprint(json.dumps(holdings()['scipy']))"
    assert run_python(code) == []


@pytest.mark.parametrize("kind, q_ratio", [("dct2", 0.8), ("wht", 0.8), ("fft2", 0.45)])
def test_solve_loads_no_scipy_module_and_no_other_blas(kind, q_ratio):
    code = HOLDINGS + f"""
import contextlib, io, json
from iprox import cli
before = holdings()
with contextlib.redirect_stdout(io.StringIO()) as out:
    rc = cli.main(["solve", "--size", "32", "--rank", "1", "--transform", "{kind}",
                   "--q-ratio", "{q_ratio}", "--eps", "1e-4"])
assert rc in (0, 1) and "iterations:" in out.getvalue(), (rc, out.getvalue())
print(json.dumps({{"before": before, "after": holdings()}}))
"""
    got = run_python(code)
    assert got["after"] == got["before"]
    assert got["after"]["scipy"] == []


@pytest.mark.parametrize("kind", ["dct2", "wht"])
def test_grid_loads_no_scipy_module_and_no_other_blas(tmp_path, kind):
    """Neither the grid's parent nor its two workers import a scipy
    module or map an OpenBLAS beyond numpy's, and the workers run that
    one at one thread."""
    parent = run_python(GRID, tmp_path, kind)
    assert parent["errors"] == [None]
    assert parent["after"] == parent["before"]
    assert parent["after"]["scipy"] == []
    reports = [json.loads(p.read_text()) for p in sorted(tmp_path.glob("*.json"))]
    assert len(reports) == 4  # 2 seeds, plain and inertial
    for r in reports:
        assert r["error"] is None and r["scipy"] == []
        assert r["blas"] == {lib: 1 for lib in parent["before"]["blas"]}


# inputs of several shapes and layouts, and their DCT-II through scipy.fft
# and through the kernel, compared byte for byte with their dtype, shape
# and strides; argv[1] names what is loaded first
BITWISE = """
import json, sys
import numpy as np
if sys.argv[1] == "scipy.fft":
    import scipy.fft
from iprox import numkit

rng = np.random.default_rng(7)
wide = rng.standard_normal((40, 66))
inputs = {
    "256x256": rng.standard_normal((256, 256)),
    "24x40": rng.standard_normal((24, 40)),
    "40x24": rng.standard_normal((40, 24)),
    "17x33": rng.standard_normal((17, 33)),
    "fortran": np.asfortranarray(rng.standard_normal((24, 40))),
    "strided": wide[::2, 1::3],
    "integer": rng.integers(-255, 256, (24, 40)),
}
ours = {(name, inv): numkit.orthonormal_transform("dct2", x, inverse=inv)
        for name, x in inputs.items() for inv in (False, True)}
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
import scipy.fft
out = {}
for (name, inv), got in ours.items():
    ref = (scipy.fft.idctn if inv else scipy.fft.dctn)(inputs[name], type=2, norm="ortho")
    out[f"{name}-{'inverse' if inv else 'forward'}"] = (
        (got.dtype, got.shape, got.strides, got.tobytes())
        == (ref.dtype, ref.shape, ref.strides, ref.tobytes()))
print(json.dumps({"loaded": loaded, "equal": out}))
"""


@pytest.mark.parametrize("first", ["kernel", "scipy.fft"])
def test_dct2_matches_scipy_fft_bitwise(first):
    got = run_python(BITWISE, first)
    assert got["equal"] == dict.fromkeys(got["equal"], True)
    assert len(got["equal"]) == 14
    if first == "kernel":
        assert got["loaded"] == []


def test_missing_kernel_is_an_import_error_and_is_not_cached(monkeypatch):
    """A kernel that is not where the loader looks, or no scipy at all,
    fails the DCT with an ImportError and leaves the cache empty, so a
    later call with the kernel in place loads it."""
    scipy_dir = importlib.util.find_spec("scipy").submodule_search_locations[0]
    numkit._dct_kernel.cache_clear()
    monkeypatch.setattr(numkit, "_POCKETFFT_DIR", os.path.join("fft", "_moved"))
    with pytest.raises(ImportError) as err:
        numkit.orthonormal_transform("dct2", np.eye(4))
    assert os.path.join(scipy_dir, "fft", "_moved") in str(err.value)
    assert f"scipy {version('scipy')}" in str(err.value)
    assert numkit._dct_kernel.cache_info().currsize == 0
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: None)
    with pytest.raises(ImportError, match="needs scipy, which is not installed"):
        numkit.orthonormal_transform("dct2", np.eye(4))
    assert numkit._dct_kernel.cache_info().currsize == 0
    monkeypatch.undo()
    got = numkit.orthonormal_transform("dct2", np.eye(4))
    assert np.allclose(numkit.orthonormal_transform("dct2", got, inverse=True), np.eye(4))
    assert numkit._dct_kernel.cache_info().currsize == 1
