"""How the ``iprox`` command line is wired: its entry points, the flags it
derives from the run settings, and what ``import iprox`` leaves unloaded.

The commands themselves are tested in ``tests/test_bench.py::TestCli``.
"""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import iprox
from iprox import bench, cli

SRC = Path(iprox.__file__).resolve().parent.parent


def test_import_iprox_does_not_load_yaml():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, iprox; print('yaml' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_script_target_is_the_cli_entry():
    pyproject = (SRC.parent / "pyproject.toml").read_text(encoding="utf8")
    scripts = pyproject.split("[project.scripts]")[1].split("\n[")[0]
    module, func = re.search(r'^iprox\s*=\s*"([\w.]+):(\w+)"', scripts, re.M).groups()
    entry = getattr(importlib.import_module(module), func)
    assert callable(entry)
    assert entry is cli.cli_entry


def test_solve_flags_are_the_solver_keys():
    args = vars(cli._build_parser().parse_args(["solve"]))
    instance = {"command", "func", "size", "cols", "rank", "nnz_ratio", "q_ratio",
                "transform", "seed", "json"}
    solver = set(args) - instance
    assert solver == set(bench._CONFIG_KEYS["solver"]) - {"alphas"}
    assert {k: args[k] for k in solver} == {k: getattr(bench.RunConfig, k) for k in solver}


@pytest.mark.parametrize("flags, codes, needle", [
    # q = 115 of the 4 x 64 half domain's 126 frequencies; the 4 x 4 one has 6
    (["--size", "4", "--cols", "64", "--transform", "fft2", "--q-ratio", "0.45"], (0, 1), None),
    (["--size", "4", "--cols", "64", "--transform", "fft2", "--q-ratio", "0.99"], (2,),
     "fft2 at size 4x64 cannot take q_ratio 0.99"),
    (["--size", "4", "--cols", "48", "--transform", "wht"], (2,),
     "wht at size 4x48 cannot take q_ratio 0.6"),
    (["--size", "4", "--transform", "fft2", "--q-ratio", "0.45"], (2,),
     "fft2 at size 4 cannot take q_ratio 0.45"),
    (["--size", "16", "--cols", "16", "--transform", "fft2", "--q-ratio", "0.45"], (0, 1), None),
    # a column count below 2 is refused as a size below 2 is
    (["--size", "4", "--cols", "1"], (2,), "--cols must be an integer >= 2, got 1"),
    (["--size", "4", "--cols", "0"], (2,), "--cols must be an integer >= 2, got 0"),
    (["--size", "4", "--cols", "-3"], (2,), "--cols must be an integer >= 2, got -3"),
], ids=["fft2-4x64", "fft2-4x64-q.99", "wht-4x48", "fft2-4x4", "fft2-16x16",
        "cols-1", "cols-0", "cols-neg3"])
def test_solve_checks_the_measurements_of_the_rectangle_it_solves(capsys, flags, codes, needle):
    rc = cli.main(["solve", "--rank", "1", "--eps", "1e-4", *flags])
    out, err = capsys.readouterr()
    assert rc in codes, err
    if needle is None:
        assert "iterations:" in out and err == ""
    else:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert needle in err


def test_sweep_with_no_factors_is_refused_before_any_solve(tmp_path, capsys):
    out = tmp_path / "sweep"
    rc = cli.main(["sweep-alpha", "--size", "16", "--rank", "1", "--seeds", "0",
                   "--alphas", "", "--out", str(out)])
    stdout, err = capsys.readouterr()
    assert rc == 2
    assert stdout == "" and err.startswith("error: ") and err.count("\n") == 1
    assert "alphas must be a nonempty list" in err
    assert not out.exists()
