"""End-to-end guarantee gates.

Each test prints exactly one PASS/FAIL line (run with ``-s`` to see them
all) and checks one documented guarantee at its stated tolerance:

 1. every linearized step satisfies its variational characterization
 2. strict distance contraction toward the solution set
 3. nonergodic residual rate with monotone decay and an o(1/k) trend
 4. ergodic saddle-gap envelope for averaged iterates
 5. accelerated residual envelope under constant extrapolation 0.28
 6. O(1/k^2) objective decay of the accelerated proximal iteration
 7. desk-scale compressive recovery at 256 x 256 over five seeds
 8. inertial speedup versus the plain solver, and 0.28 beating 0.05
 9. exact coincidences: zero-extrapolation equality, measurement-row
    orthonormality, thresholded spectra
10. byte-identical rerun determinism of the benchmark pipeline (the
    full-size grid is beyond this budget, so the pipeline itself is
    pinned instead)

The checks themselves live in :mod:`iprox.checks`; these gates run them
at full scale, where ``iprox verify`` runs them at fixture scale.
Criteria 7 and 8 share one batch of 256 x 256 runs, solved in two worker
processes; expect the module to take about half a minute.
"""

import json

import pytest

from iprox import bench, checks, cli


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


def test_criterion_01_step_characterization():
    report(1, checks.step_characterization())


def test_criterion_02_distance_contraction():
    report(2, checks.distance_contraction())


def test_criterion_03_nonergodic_rate():
    report(3, checks.nonergodic_rate())


def test_criterion_04_ergodic_gap():
    report(4, checks.ergodic_gap())


def test_criterion_05_accelerated_residual_envelope():
    report(5, checks.residual_envelope())


def test_criterion_06_accelerated_objective_rate():
    report(6, checks.objective_rate())


def test_criterion_07_desk_scale_recovery(desk_batch):
    report(7, checks.recovery(desk_batch))


def test_criterion_08_inertial_speedup(desk_batch):
    report(8, checks.inertial_speedup(desk_batch))


def test_criterion_09_exact_identities():
    report(9, checks.exact_identities())


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
