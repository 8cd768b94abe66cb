"""End-to-end guarantee gates: acceptance criteria 1-9 as the
:mod:`iprox.checks` docstring lists them, at scale 1, and criterion 10,
byte-identical rerun determinism of the benchmark pipeline (the
full-size grid is beyond this budget, so the pipeline itself is pinned
instead).

Each test prints exactly one PASS/FAIL line (run with ``-s`` to see them
all) and checks one guarantee at its stated tolerance. The checks come
from ``checks.CRITERIA``, as ``iprox verify`` takes them. Criteria 7 and
8 share one batch of 256 x 256 runs, solved in two worker processes;
expect the module to take about half a minute.
"""

import json

import pytest

from iprox import bench, checks, cli

SCALED = [(num, check) for num, check in checks.CRITERIA.items()
          if num not in checks.RECORD_CRITERIA]


def report(num, result):
    print(f"criterion {num:>2}: {'PASS' if result.ok else 'FAIL'}  [{result.detail}]")
    assert result.ok, f"criterion {num}: {result.detail}"


@pytest.fixture(scope="module")
def desk_batch():
    """The grid records of 256 x 256, rank 5, q = 0.6 area, seeds 0-4:
    plain, 0.28 and 0.05, solved in the grid's two worker processes at
    one BLAS thread each."""
    config = bench.RunConfig(sizes=(256,), ranks=(5,), nnz_ratios=(0.05,),
                             q_ratios=(0.6,), seeds=tuple(range(5)),
                             alphas=(0.28, 0.05), jobs=2)
    return bench.run_grid(config)


@pytest.mark.parametrize("num, check", SCALED,
                         ids=[f"{num:02d}-{check.__name__.replace('_', '-')}"
                              for num, check in SCALED])
def test_criterion(num, check):
    report(num, check())


def test_criterion_07_desk_scale_recovery(desk_batch):
    report(7, checks.CRITERIA[7](desk_batch))


def test_criterion_08_inertial_speedup(desk_batch):
    report(8, checks.CRITERIA[8](desk_batch))


def test_criterion_10_bench_determinism(tmp_path):
    config = tmp_path / "config.yaml"
    config.write_text(
        "grid:\n"
        "  sizes: [32]\n"
        "  ranks: [2]\n"
        "  nnz_ratios: [0.05]\n"
        "  q_ratios: [0.8]\n"
        "  transforms: [dct2]\n"
        "solver:\n"
        "  eps: 1.0e-5\n"
        "  max_iter: 400\n"
        "seeds: [7, 8]\n"
    )
    outs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        rc = cli.main(["bench", "--config", str(config), "--out", str(out)])
        assert rc == 0
        outs.append(out)

    def strip(doc):
        if isinstance(doc, dict):
            return {k: strip(v) for k, v in doc.items() if k != "wall_time"}
        if isinstance(doc, list):
            return [strip(v) for v in doc]
        return doc

    csv_same = (outs[0] / "results.csv").read_bytes() == (outs[1] / "results.csv").read_bytes()
    plot_same = (outs[0] / "plot.csv").read_bytes() == (outs[1] / "plot.csv").read_bytes()
    rec_same = strip(json.loads((outs[0] / "records.json").read_text())) == strip(
        json.loads((outs[1] / "records.json").read_text())
    )
    ok = csv_same and plot_same and rec_same
    report(10, checks.CheckResult(
        "bench-determinism", ok,
        "grid rerun byte-identical (tables csv/plot; records up to wall "
        "times); full-size grid substituted by this gate"))
