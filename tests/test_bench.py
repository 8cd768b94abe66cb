"""Benchmark runner, table writer, and CLI tests.

Grid runs here use tiny instances so the full file stays in the second
range; determinism checks compare complete artifacts byte for byte.
"""

import copy
import ctypes
import dataclasses
import inspect
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import iprox
from iprox import bench, checks, cli, cpcp, numkit
from iprox.cpcp import counts_from_ratios, degrees_of_freedom


def tiny_config(**overrides):
    kw = dict(
        sizes=(32,),
        ranks=(2,),
        nnz_ratios=(0.05,),
        q_ratios=(0.8,),
        transforms=("dct2",),
        eps=1e-5,
        max_iter=400,
        seeds=(7, 8),
    )
    kw.update(overrides)
    return bench.RunConfig(**kw).validate()


def strip_wall_times(doc):
    if isinstance(doc, dict):
        return {k: strip_wall_times(v) for k, v in doc.items() if k != "wall_time"}
    if isinstance(doc, list):
        return [strip_wall_times(v) for v in doc]
    return doc


def record_docs(records):
    return strip_wall_times([dataclasses.asdict(r) for r in records])


def _reject_constant(name):
    raise ValueError(f"not strict JSON: {name}")


def strict_json(path):
    """The JSON document at ``path``, refusing NaN and Infinity as a strict
    parser does."""
    return json.loads(path.read_text(), parse_constant=_reject_constant)


TINY_YAML = """\
grid:
  sizes: [16]
  ranks: [1]
  nnz_ratios: [0.05]
  q_ratios: [0.8]
  transforms: [dct2]
solver:
  eps: 1.0e-4
  max_iter: 400
seeds: [0, 1]
"""


class TestRunConfig:
    def test_default_grid_is_valid(self):
        config = bench.RunConfig.default_grid().validate()
        assert config.sizes == (128, 256)
        assert config.alpha == 0.28
        assert config.alphas is None  # so alpha must stay below 1/3

    def test_validation_failures(self):
        bad_cases = [
            dict(sizes=()),
            dict(sizes=(1,)),
            dict(ranks=(0,)),
            dict(nnz_ratios=(0.0,)),
            dict(q_ratios=(1.5,)),
            dict(transforms=("hough",)),
            dict(seeds=()),
            dict(seeds=(-1,)),
            dict(tau=0.0),
            dict(eta=-1.0),
            dict(eps=-1e-6),
            dict(max_iter=0),
            dict(jobs=0),
            dict(alpha=1.0),
            dict(alpha=0.4),  # outside the guaranteed range
        ]
        for overrides in bad_cases:
            with pytest.raises(ValueError):
                tiny_config(**overrides)
        # the start penalty and the balance scale are cpcp's, not settings
        for name in ("beta0", "s_scale"):
            with pytest.raises(TypeError):
                tiny_config(**{name: 1.0})

    def test_rank_must_fit_the_image(self):
        # every cell's rank fits its image, checked before any solve
        for overrides, shape in ((dict(ranks=(33,)), "32x32"),
                                 (dict(sizes=(16, 32), ranks=(1, 17)), "16x16")):
            with pytest.raises(ValueError, match=f"rank {overrides['ranks'][-1]} "
                                                 f"out of range for a {shape} image"):
                tiny_config(**overrides)
        assert tiny_config(ranks=(32,)).ranks == (32,)
        config = bench.RunConfig(sizes=(32,), ranks=(5,), nnz_ratios=(0.05,),
                                 q_ratios=(0.8,))
        assert config.validate(cols=5) is config
        with pytest.raises(ValueError, match="rank 5 out of range for a 32x4 image"):
            config.validate(cols=4)

    def test_solver_defaults_agree(self):
        # `bench` and `solve` take RunConfig's defaults, while criteria 7-8
        # and the benchmark solve with cpcp's
        def defaults(fn):
            return {k: p.default for k, p in inspect.signature(fn).parameters.items()
                    if p.default is not inspect.Parameter.empty}

        run = defaults(bench.RunConfig)
        plain, inertial = defaults(cpcp.ladmm_cpcp), defaults(cpcp.iladmm_cpcp)
        for solver in (plain, inertial):
            assert (solver["tau"], solver["eta"], solver["tol"], solver["max_iter"]) == (
                run["tau"], run["eta"], run["eps"], run["max_iter"])
        assert inertial["alpha"] == run["alpha"] == checks.INERTIAL_ALPHA
        # the solvers take the steps, tolerances and factor, and nothing else
        for solver in (plain, inertial):
            assert set(solver) <= {"tau", "eta", "alpha", "tol", "max_iter"}

    def test_sweep_mode_allows_large_alpha(self):
        config = tiny_config(alphas=(0.1, 0.35))
        assert config.alphas == (0.1, 0.35)
        with pytest.raises(ValueError):
            tiny_config(alphas=(0.1, 1.0))

    def test_from_dict(self):
        config = bench.RunConfig.from_dict(
            {
                "grid": {
                    "sizes": [16],
                    "ranks": [1],
                    "nnz_ratios": [0.05],
                    "q_ratios": [0.8],
                    "transforms": ["wht"],
                },
                "solver": {"tau": 0.9, "eps": 1e-4, "alphas": [0.1, 0.35]},
                "seeds": [3],
                "jobs": 2,
            }
        )
        assert config.transforms == ("wht",)
        assert config.tau == 0.9
        assert config.alphas == (0.1, 0.35)
        assert config.seeds == (3,)
        assert config.jobs == 2

    def test_from_dict_missing_grid_keys(self):
        with pytest.raises(ValueError, match="missing grid keys"):
            bench.RunConfig.from_dict({"grid": {"sizes": [16]}})
        with pytest.raises(ValueError, match="mapping"):
            bench.RunConfig.from_dict([1, 2])
        # misspelt or misplaced keys are errors, not silently dropped
        good = yaml.safe_load(TINY_YAML)
        for section, key, name in (("solver", "max_iters", "solver.max_iters"),
                                   ("solver", "beta0", "solver.beta0"),
                                   ("solver", "s_scale", "solver.s_scale"),
                                   ("grid", "transfroms", "grid.transfroms"),
                                   (None, "seed", "seed"),
                                   (None, "tau", "tau")):
            doc = yaml.safe_load(TINY_YAML)
            (doc[section] if section else doc)[key] = 5
            with pytest.raises(ValueError, match=f"unknown config keys: {name}$"):
                bench.RunConfig.from_dict(doc)
        for section, value in (("solver", [1, 2]), ("grid", "sizes"), ("solver", None)):
            with pytest.raises(ValueError, match=f"section {section} must be a mapping"):
                bench.RunConfig.from_dict(dict(good, **{section: value}))

    def test_readme_schema_is_accepted(self):
        # the schema the README documents, commented-out keys included
        readme = Path(__file__).resolve().parent.parent / "README.md"
        block = readme.read_text(encoding="utf8").split("```yaml\n")[1].split("```")[0]
        config = bench.RunConfig.from_dict(yaml.safe_load(block))
        assert config.sizes == (128, 256) and config.seeds == (0, 1, 2, 3, 4)
        every_key = re.sub(r"^( *)# (\w+:)", r"\1\2", block, flags=re.M)
        config = bench.RunConfig.from_dict(yaml.safe_load(every_key))
        assert config.alphas == (0.1, 0.2, 0.3)
        # every solver key the schema lists is one a config may set
        assert re.findall(r"^  #? ?(\w+):", block.split("solver:\n")[1].split("seeds:")[0],
                          flags=re.M) == list(bench._CONFIG_KEYS["solver"])

    def test_from_yaml(self, tmp_path):
        path = tmp_path / "config.yaml"
        path.write_text(TINY_YAML)
        config = bench.RunConfig.from_yaml(path)
        assert config.sizes == (16,)
        assert config.eps == 1e-4
        assert config.seeds == (0, 1)

    def test_from_yaml_rejects_malformed(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("grid: [unclosed\n")
        with pytest.raises(yaml.YAMLError):
            bench.RunConfig.from_yaml(path)


_RUN_SOLVE = bench._run_solve
_WORKER_POOL = bench._worker_pool


def _exit_on_wht_seed_one(cell, seed, config, alpha):
    """``bench._run_solve``, except that the worker running a solve of the
    wht cell's seed 1 exits at once, as a crashed worker would."""
    if cell[-1] == "wht" and seed == 1:
        os._exit(1)
    return _RUN_SOLVE(cell, seed, config, alpha)


def _generate_at_rank_40(m, n, r, nnz, kind, q, seed):
    """``bench.generate_instance`` asked for rank 40, which no image of the
    tests holds: it raises the generator's own ValueError. Forked grid
    workers inherit the patch."""
    return cpcp.generate_instance(m, n, 40, nnz, kind, q, seed)


@pytest.fixture
def failing_cells(monkeypatch):
    """Every grid solve fails, in the generator, as a cell error."""
    monkeypatch.setattr(bench, "generate_instance", _generate_at_rank_40)


def _blas_threads():
    """The thread count of each OpenBLAS this process has loaded, read
    through the library's getter."""
    counts = []
    for lib in numkit._openblas_libraries():
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                counts.append(int(fn()))
                break
    return counts


@pytest.fixture(scope="module")
def records():
    return bench.run_grid(tiny_config())


class TestRunGrid:
    def test_record_invariants(self, records):
        assert len(records) == 1
        rec = records[0]
        q, nnz = counts_from_ratios(32, 32, 0.8, 0.05)
        assert (rec.q, rec.nnz) == (q, nnz)
        assert rec.dof == degrees_of_freedom(32, 32, 2, nnz)
        assert rec.q_over_dof == pytest.approx(q / rec.dof)
        assert rec.alpha == 0.28
        assert len(rec.trials) == 2
        assert rec.error is None
        assert rec.all_converged_ladmm and rec.all_converged_iladmm
        assert rec.iter_ratio == pytest.approx(
            rec.mean_iter_iladmm / rec.mean_iter_ladmm, abs=1e-12
        )
        assert rec.mean_rel_l_ladmm < 1e-4
        assert rec.mean_rel_s_iladmm < 1e-4
        assert rec.environment["rng_algorithm"]

    def test_trials_record_svt_paths(self, records):
        trial = records[0].trials[0]
        q, nnz = counts_from_ratios(32, 32, 0.8, 0.05)
        inst = cpcp.generate_instance(32, 32, 2, nnz, "dct2", q, trial["seed"])
        _, trace = cpcp.ladmm_cpcp(inst, max_iter=400)
        paths = trace.extras["svt_path"]
        assert trial["ladmm"]["svt_paths"] == {"top": paths.count("top"),
                                               "gram": paths.count("gram"),
                                               "full": paths.count("full")}
        assert trial["ladmm"]["svt_rank"] == trace.extras["svt_rank"][-1]
        for trial in records[0].trials:
            for solve in (trial["ladmm"], trial["iladmm"]):
                assert sum(solve["svt_paths"].values()) == solve["iters"]

    def test_mean_aggregation(self, records):
        rec = records[0]
        assert rec.mean_iter_ladmm == pytest.approx(
            np.mean([t["ladmm"]["iters"] for t in rec.trials])
        )
        assert rec.mean_rel_s_ladmm == pytest.approx(
            np.mean([t["ladmm"]["rel_s"] for t in rec.trials])
        )

    def test_deterministic_rerun(self, records):
        again = bench.run_grid(tiny_config())
        assert record_docs(again) == record_docs(records)

    def test_worker_processes_match_in_process_trials(self, records):
        config = tiny_config(jobs=2)
        assert record_docs(bench.run_grid(config)) == record_docs(records)
        cell = (32, 2, 0.05, 0.8, "dct2")
        trials = [{"seed": seed,
                   "ladmm": bench._run_solve(cell, seed, config, None)["outcome"],
                   "iladmm": bench._run_solve(cell, seed, config, config.alpha)["outcome"]}
                  for seed in config.seeds]
        assert strip_wall_times(trials) == record_docs(records)[0]["trials"]

    def test_workers_run_one_blas_thread(self):
        loaded = _blas_threads()
        if not loaded:
            pytest.skip("no OpenBLAS loaded")
        with bench._worker_pool(2) as pool:
            counts = [pool.submit(_blas_threads).result() for _ in range(2)]
        assert counts == [[1] * len(loaded)] * 2

    def test_no_more_workers_than_solves(self, monkeypatch):
        # one trial is two solves, one task each
        asked = []

        def recording_pool(jobs):
            asked.append(jobs)
            return _WORKER_POOL(jobs)

        monkeypatch.setattr(bench, "_worker_pool", recording_pool)
        bench.run_grid(tiny_config(sizes=(16,), ranks=(1,), seeds=(0,), eps=1e-4, jobs=3))
        assert asked == [2]

    def test_dead_worker_fails_its_cell_not_the_grid(self, monkeypatch):
        config = tiny_config(sizes=(16,), ranks=(1,), transforms=("dct2", "wht"),
                             seeds=(0, 1), eps=1e-4, jobs=1)
        intact = bench.run_grid(config)
        monkeypatch.setattr(bench, "_run_solve", _exit_on_wht_seed_one)
        records = bench.run_grid(config)
        assert record_docs(records[:1]) == record_docs(intact[:1])
        assert records[1].error.startswith("BrokenProcessPool: ")
        assert "BrokenProcessPool" in records[1].traceback
        assert math.isnan(records[1].mean_iter_ladmm)

    def test_sweep_mode_shares_baseline(self):
        records = bench.run_grid(
            tiny_config(
                sizes=(16,), ranks=(1,), seeds=(0,),
                alphas=(0.0, 0.28),
                eps=1e-4,
            )
        )
        assert [r.alpha for r in records] == [0.0, 0.28]
        zero, inertial = records
        assert zero.mean_iter_ladmm == inertial.mean_iter_ladmm
        # zero extrapolation reproduces the plain solver exactly
        assert zero.mean_iter_iladmm == zero.mean_iter_ladmm
        assert zero.iter_ratio == 1.0
        assert zero.mean_rel_l_iladmm == zero.mean_rel_l_ladmm

    def test_failing_cell_is_recorded_not_raised(self, failing_cells):
        records = bench.run_grid(
            tiny_config(sizes=(16,), ranks=(1,), seeds=(0,), max_iter=5)
        )
        assert len(records) == 1
        assert records[0].error is not None
        assert "rank" in records[0].error
        assert "generate_instance" in records[0].traceback
        assert math.isnan(records[0].mean_iter_ladmm)


class TestRecordCriteria:
    """Criteria 7 and 8 read the records of one grid cell."""

    CHECKS = (checks.recovery, checks.inertial_speedup)

    def test_one_cell_with_a_solve_at_0_28(self, records):
        rec = records[0]
        for bad in ([rec, dataclasses.replace(rec, m=16, n=16)], []):
            for check in self.CHECKS:
                with pytest.raises(ValueError, match="exactly one cell"):
                    check(bad)
        for check in self.CHECKS:
            with pytest.raises(ValueError, match="no solve at 0.28"):
                check([dataclasses.replace(rec, alpha=0.1)])

    def test_failed_cell_raises_with_the_worker_traceback(self, failing_cells):
        failed = bench.run_grid(tiny_config(sizes=(16,), ranks=(1,), seeds=(0,)))
        for check in self.CHECKS:
            with pytest.raises(RuntimeError, match="generate_instance"):
                check(failed)

    def test_an_unconverged_trial_fails_recovery(self, records):
        result = checks.recovery(records)
        assert result.ok and result.detail.startswith("4 runs at 32x32 converged, ")
        for solver in ("ladmm", "iladmm"):
            rec = copy.deepcopy(records[0])
            rec.trials[1][solver]["converged"] = False
            assert not checks.recovery([rec]).ok
        short = bench.run_grid(tiny_config(seeds=(7,), max_iter=20))
        assert not short[0].all_converged_ladmm and not checks.recovery(short).ok

    def test_inertial_speedup_reads_the_record_means(self, records):
        rec = records[0]
        assert checks.inertial_speedup(records, ratio_gate=rec.iter_ratio).ok
        assert not checks.inertial_speedup(records, ratio_gate=rec.iter_ratio - 1e-3).ok
        mean = rec.mean_iter_iladmm

        def at(alpha, iters):
            return dataclasses.replace(rec, alpha=alpha, mean_iter_iladmm=iters)

        slower = checks.inertial_speedup([rec, at(0.1, mean + 1)], ratio_gate=1.0)
        assert slower.ok and slower.detail.endswith(
            f"; mean iters 0.28: {mean:.1f} vs 0.1: {mean + 1:.1f}")
        assert not checks.inertial_speedup([rec, at(0.1, mean)], ratio_gate=1.0).ok
        # neither a larger factor nor zero extrapolation is held against 0.28
        assert checks.inertial_speedup([at(0.0, 1.0), rec, at(0.35, 1.0)],
                                       ratio_gate=1.0).ok


class TestEmitters:
    def good_record(self, **overrides):
        rec = bench.RunRecord(
            m=32, n=32, r=2, nnz_ratio=0.05, q_ratio=0.8,
            transform="dct2", alpha=0.28, q=819, nnz=51, dof=175,
            q_over_dof=819 / 175,
            mean_iter_ladmm=100.0, mean_rel_l_ladmm=1e-5,
            mean_rel_s_ladmm=2e-5, all_converged_ladmm=True,
            mean_iter_iladmm=75.0, mean_rel_l_iladmm=3e-6,
            mean_rel_s_iladmm=4e-6, all_converged_iladmm=True,
            iter_ratio=0.75,
        )
        for key, val in overrides.items():
            setattr(rec, key, val)
        return rec

    def test_csv_layout(self, tmp_path):
        path = tmp_path / "results.csv"
        bench.emit_csv([self.good_record()], path)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(bench.CSV_COLUMNS)
        assert lines[1] == (
            "32,32,2,0.05,0.8,dct2,4.6800,"
            "1.000000e-05,2.000000e-05,100.0,"
            "3.000000e-06,4.000000e-06,75.0,0.7500"
        )

    def test_csv_sentinel_for_unconverged(self, tmp_path):
        path = tmp_path / "results.csv"
        bench.emit_csv(
            [self.good_record(all_converged_iladmm=False)], path
        )
        row = path.read_text().splitlines()[1].split(",")
        cols = dict(zip(bench.CSV_COLUMNS, row))
        assert cols["iter1"] == "100.0"
        assert cols["iter2"] == bench.SENTINEL
        assert cols["ratio"] == bench.SENTINEL
        assert cols["relL_iladmm"] == "3.000000e-06"  # errors still reported

    def test_csv_error_row(self, tmp_path):
        path = tmp_path / "results.csv"
        bench.emit_csv([self.good_record(error="ValueError: boom")], path)
        row = path.read_text().splitlines()[1].split(",")
        assert row[:6] == ["32", "32", "2", "0.05", "0.8", "dct2"]
        assert row[6:] == [bench.SENTINEL] * 8

    def test_csv_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            bench.emit_csv([], tmp_path / "results.csv")

    def test_plot_data_grouping(self, tmp_path):
        recs = [
            self.good_record(q_ratio=0.8, mean_iter_ladmm=100.0, mean_iter_iladmm=80.0),
            self.good_record(q_ratio=0.4, mean_iter_ladmm=200.0, mean_iter_iladmm=150.0),
            self.good_record(q_ratio=0.8, mean_iter_ladmm=120.0, mean_iter_iladmm=90.0),
        ]
        path = tmp_path / "plot.csv"
        bench.emit_plot_data(recs, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "q_ratio,iter_ladmm,iter_iladmm"
        assert lines[1] == "0.4,200.0000,150.0000"
        assert lines[2] == "0.8,110.0000,85.0000"

    def test_plot_data_sentinel_for_unconverged(self, tmp_path):
        recs = [
            self.good_record(q_ratio=0.8, all_converged_ladmm=False),
            self.good_record(q_ratio=0.8, mean_iter_iladmm=85.0),
            self.good_record(q_ratio=0.4, all_converged_iladmm=False),
        ]
        path = tmp_path / "plot.csv"
        bench.emit_plot_data(recs, path)
        lines = path.read_text().splitlines()
        assert lines[1] == f"0.4,100.0000,{bench.SENTINEL}"
        assert lines[2] == f"0.8,{bench.SENTINEL},80.0000"

    def test_plot_data_skips_errors(self, tmp_path):
        ok = self.good_record()
        bad = self.good_record(error="ValueError: boom")
        path = tmp_path / "plot.csv"
        bench.emit_plot_data([ok, bad], path)
        assert len(path.read_text().splitlines()) == 2
        with pytest.raises(ValueError):
            bench.emit_plot_data([bad], path)
        with pytest.raises(ValueError):
            bench.emit_plot_data([], path)

    def test_records_json(self, tmp_path):
        path = tmp_path / "records.json"
        rec = self.good_record()
        bench.write_records_json([rec], path)
        docs = strict_json(path)
        assert docs[0]["m"] == 32
        assert docs[0]["iter_ratio"] == 0.75
        # finite records are written exactly as json.dumps writes them
        assert path.read_text() == json.dumps(
            [dataclasses.asdict(rec)], sort_keys=True, indent=1) + "\n"

    def test_records_json_of_a_failed_cell_is_strict(self, tmp_path, failing_cells):
        records = bench.run_grid(tiny_config(sizes=(16,), ranks=(1,), seeds=(0,)))
        path = tmp_path / "records.json"
        bench.write_records_json(records, path)
        (doc,) = strict_json(path)
        assert "rank" in doc["error"]
        for key in ("mean_iter_ladmm", "mean_rel_l_ladmm", "mean_rel_s_ladmm",
                    "mean_iter_iladmm", "mean_rel_l_iladmm", "mean_rel_s_iladmm",
                    "iter_ratio"):
            assert doc[key] is None


class TestVerification:
    def test_all_checks_pass(self):
        results = bench.run_verification()
        assert [c.name for c in results if not c.ok] == []
        assert all(type(c.ok) is bool for c in results)
        # one result per criterion, in the table's order
        assert [c.name for c in results] == [
            check.__name__.replace("_", "-") for check in checks.CRITERIA.values()]


class TestCli:
    def test_solve_converged(self, tmp_path, capsys):
        out = tmp_path / "solve.json"
        rc = cli.main([
            "solve", "--size", "16", "--rank", "1", "--nnz-ratio", "0.05",
            "--q-ratio", "0.8", "--seed", "0", "--eps", "1e-4",
            "--json", str(out),
        ])
        assert rc == 0
        text = capsys.readouterr().out
        assert "iterations:" in text and "converged" in text
        doc = json.loads(out.read_text())
        assert doc["result"]["converged"] is True
        assert doc["instance"]["m"] == 16

    def test_solve_reports_the_last_penalty_of_the_trace(self, tmp_path, capsys,
                                                         monkeypatch):
        traces = []

        def recording_solve(*args, **kw):
            result = solve(*args, **kw)
            traces.append(result[1])
            return result

        solve = bench._solve
        monkeypatch.setattr(bench, "_solve", recording_solve)
        out = tmp_path / "solve.json"
        cli.main(["solve", "--size", "16", "--rank", "1", "--max-iter", "5",
                  "--json", str(out)])
        (trace,) = traces
        final = trace.extras["beta"][-1]
        assert json.loads(out.read_text())["result"]["final_beta"] == final
        assert f"final_beta={final:.6g} " in capsys.readouterr().out

    def test_solve_exit_one_without_convergence(self, tmp_path, capsys):
        out = tmp_path / "solve.json"
        rc = cli.main([
            "solve", "--size", "16", "--rank", "1", "--max-iter", "3",
            "--json", str(out),
        ])
        assert rc == 1
        assert "max iterations reached" in capsys.readouterr().out
        assert json.loads(out.read_text())["result"]["status"] == "max_iter"

    def test_solve_exit_one_at_a_non_finite_iterate(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cpcp, "stopping_residual", lambda step_sq, ref_sq: math.inf)
        out = tmp_path / "solve.json"
        rc = cli.main(["solve", "--size", "16", "--rank", "1", "--json", str(out)])
        assert rc == 1
        assert "iterations: 1 (non-finite iterate)" in capsys.readouterr().out
        assert json.loads(out.read_text())["result"]["status"] == "non_finite"

    def test_solve_bad_ratio_is_usage_error(self, capsys):
        rc = cli.main(["solve", "--size", "16", "--q-ratio", "0"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_arguments(self, capsys):
        assert cli.main(["bogus"]) == 2
        assert cli.main([]) == 2
        assert cli.main(["solve", "--no-such-flag"]) == 2
        capsys.readouterr()

    def test_verify_runs_clean(self, capsys, monkeypatch):
        monkeypatch.setattr(bench, "run_verification",
                            lambda: [checks.CheckResult("first", True, "fine")])
        assert cli.main(["verify"]) == 0
        assert capsys.readouterr().out == "ok   1 first  fine\n1/1 checks passed\n"

    def test_verify_exits_1_when_a_check_fails(self, capsys, monkeypatch):
        monkeypatch.setattr(bench, "run_verification", lambda: [
            checks.CheckResult("first", True, "fine"),
            checks.CheckResult("second", False, "slack -1e-3")])
        assert cli.main(["verify"]) == 1
        assert capsys.readouterr().out.splitlines()[1:] == [
            "FAIL 2 second  slack -1e-3", "1/2 checks passed"]

    def test_bench_writes_artifacts(self, tmp_path, capsys):
        config = tmp_path / "config.yaml"
        config.write_text(TINY_YAML)
        out = tmp_path / "run1"
        rc = cli.main(["bench", "--config", str(config), "--out", str(out)])
        assert rc == 0
        for name in ("results.csv", "plot.csv", "records.json"):
            assert (out / name).exists()
        assert "wrote 1 records" in capsys.readouterr().out
        (doc,) = strict_json(out / "records.json")
        assert [t[s]["status"] for t in doc["trials"] for s in ("ladmm", "iladmm")] == [
            "converged"] * 2 * len(doc["trials"])

        # reruns are byte-identical apart from wall times
        out2 = tmp_path / "run2"
        assert cli.main(["bench", "--config", str(config), "--out", str(out2)]) == 0
        capsys.readouterr()
        assert (out / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()
        assert (out / "plot.csv").read_bytes() == (out2 / "plot.csv").read_bytes()
        a = strip_wall_times(json.loads((out / "records.json").read_text()))
        b = strip_wall_times(json.loads((out2 / "records.json").read_text()))
        assert a == b

    def test_bench_keeps_records_when_every_cell_fails(self, tmp_path, capsys, failing_cells):
        doc = yaml.safe_load(TINY_YAML)
        config = tmp_path / "config.yaml"
        config.write_text(yaml.safe_dump(doc))
        out = tmp_path / "out"
        rc = cli.main(["bench", "--config", str(config), "--out", str(out)])
        stdout, err = capsys.readouterr()
        assert rc != 0
        assert "no successful records" in err
        (doc,) = strict_json(out / "records.json")
        assert "generate_instance" in doc["traceback"]
        assert "failed cell m=16 r=1 nnz_ratio=0.05 q_ratio=0.8 dct2: ValueError" in stdout

        rc = cli.main(["sweep-alpha", "--size", "16", "--rank", "1", "--seeds", "0",
                       "--alphas", "0.1", "--out", str(out)])
        stdout, _ = capsys.readouterr()
        assert rc != 0
        (doc,) = strict_json(out / "alpha_records.json")
        assert "generate_instance" in doc["traceback"]
        assert "failed: ValueError" in stdout

    def test_bench_missing_config(self, tmp_path, capsys):
        rc = cli.main([
            "bench", "--config", str(tmp_path / "absent.yaml"),
            "--out", str(tmp_path / "out"),
        ])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("changes, needle", [
        ({"grid.sizes": 32}, "sizes"),  # a scalar where a list goes
        ({"seeds": 3}, "seeds"),
        ({"solver.alphas": 0.1}, "alphas"),
        ({"solver.tau": "abc"}, "tau"),  # not a number
        ({"solver.max_iter": 2.5}, "max_iter"),  # not an integer
        ({"grid.sizes": [32.5]}, "sizes"),
        ({"grid.ranks": [1.5]}, "ranks"),
        ({"seeds": [0.5]}, "seeds"),
        ({"jobs": 1.5}, "jobs"),
        ({"grid.transforms": None}, "transforms"),  # only alphas may be unset
        ({"jobs": None}, "jobs"),
        ({"grid.transforms": []}, "transforms must be a nonempty list"),
        ({"solver.alphas": []}, "alphas must be a nonempty list"),
        ({"seeds": [0, 0]}, "seeds repeats a value"),
        ({"solver.alphas": [0.1, 0.1]}, "alphas repeats a value"),
        # cells the measurement operator cannot take
        ({"grid.transforms": ["fft2"]}, "fft2 at size 16 cannot take q_ratio 0.8"),
        ({"grid.transforms": ["wht"], "grid.sizes": [24]}, "wht at size 24 cannot take q_ratio 0.8"),
        ({"grid.sizes": [4], "grid.q_ratios": [0.01]}, "dct2 at size 4 cannot take q_ratio 0.01"),
    ], ids=["sizes-scalar", "seeds-scalar", "alphas-scalar", "tau-text", "max_iter-float",
            "sizes-float", "ranks-float", "seeds-float", "jobs-float", "transforms-null",
            "jobs-null", "transforms-empty", "alphas-empty", "seeds-duplicate",
            "alphas-duplicate", "fft2-q-above-half",
            "wht-not-power-of-two", "q-zero"])
    def test_bench_malformed_config_is_usage_error(self, tmp_path, capsys, changes, needle):
        doc = yaml.safe_load(TINY_YAML)
        for dotted, value in changes.items():
            *section, key = dotted.split(".")
            (doc[section[0]] if section else doc)[key] = value
        config = tmp_path / "config.yaml"
        config.write_text(yaml.safe_dump(doc))
        rc = cli.main(["bench", "--config", str(config), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert needle in err

    @pytest.mark.parametrize("flags, needle", [
        (["--max-iter", "0"], "max_iter"),
        (["--alpha", "0.5"], "sweep-alpha"),
        (["--alpha", repr(1.0 / 3.0)], "sweep-alpha"),
    ], ids=["max-iter-0", "alpha-0.5", "alpha-1/3"])
    def test_solve_validates_like_bench(self, capsys, flags, needle):
        rc = cli.main(["solve", "--size", "16", "--rank", "1", *flags])
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert needle in err

    def test_sweep_validates_the_measurement_count(self, tmp_path, capsys):
        # 0.8 of a 128 x 128 image is more than the fft2 half domain holds
        rc = cli.main(["sweep-alpha", "--transform", "fft2", "--q-ratio", "0.8",
                       "--out", str(tmp_path / "out")])
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == "" and err.count("\n") == 1
        assert "fft2 at size 128 cannot take q_ratio 0.8" in err
        assert not (tmp_path / "out").exists()

    def test_sweep_refuses_a_rank_the_image_cannot_hold(self, tmp_path, capsys):
        rc = cli.main(["sweep-alpha", "--size", "16", "--rank", "17",
                       "--out", str(tmp_path / "out")])
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == "" and err == "error: rank 17 out of range for a 16x16 image\n"
        assert not (tmp_path / "out").exists()
        rc = cli.main(["solve", "--size", "16", "--cols", "4", "--rank", "5"])
        assert rc == 2
        assert capsys.readouterr().err == "error: rank 5 out of range for a 16x4 image\n"

    @pytest.mark.parametrize("flag", ["--beta0", "--s-scale"])
    def test_solve_has_no_penalty_flags(self, capsys, flag):
        # cpcp starts the penalty, and its rule's balance scale is fixed
        assert cli.main(["solve", "--size", "16", "--rank", "1", flag, "3"]) == 2
        assert f"unrecognized arguments: {flag} 3" in capsys.readouterr().err

    def test_sweep_alpha(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        rc = cli.main([
            "sweep-alpha", "--size", "16", "--rank", "1",
            "--nnz-ratio", "0.05", "--q-ratio", "0.8",
            "--seeds", "0", "--alphas", "0.0,0.28",
            "--eps", "1e-4", "--out", str(out),
        ])
        assert rc == 0
        assert (out / "alpha_sweep.csv").exists()
        assert {t[s]["status"] for r in strict_json(out / "alpha_records.json")
                for t in r["trials"] for s in ("ladmm", "iladmm")} == {"converged"}
        text = capsys.readouterr().out
        assert "alpha" in text and "0.28" in text

        # a bench config with factors is the same run, with the same tables
        doc = yaml.safe_load(TINY_YAML)
        doc["solver"] = {"eps": 1e-4, "alphas": [0.0, 0.28]}
        doc["seeds"] = [0]
        config = tmp_path / "sweep.yaml"
        config.write_text(yaml.safe_dump(doc))
        out2 = tmp_path / "bench"
        assert cli.main(["bench", "--config", str(config), "--out", str(out2)]) == 0
        assert capsys.readouterr().out == text
        assert sorted(p.name for p in out2.iterdir()) == ["alpha_records.json",
                                                          "alpha_sweep.csv"]
        assert (out2 / "alpha_sweep.csv").read_bytes() == (out / "alpha_sweep.csv").read_bytes()
        a = strip_wall_times(json.loads((out / "alpha_records.json").read_text()))
        b = strip_wall_times(json.loads((out2 / "alpha_records.json").read_text()))
        assert a == b

    def test_sweep_table_averages_only_converged_trials(self, tmp_path, capsys):
        # seed 0 takes 360 plain and 234 inertial steps, so at 300 only the
        # inertial solve converges: the table shows what alpha_sweep.csv does
        out = tmp_path / "sweep"
        assert cli.main(["sweep-alpha", "--size", "16", "--rank", "1", "--seeds", "0",
                         "--alphas", "0.28", "--max-iter", "300", "--out", str(out)]) == 0
        row = capsys.readouterr().out.splitlines()[1]
        assert row == ("  16    1       0.05      0.6       dct2   0.28"
                       "           -          234.0      -")
        assert (out / "alpha_sweep.csv").read_text().splitlines()[1] == (
            "16,1,0.05,0.6,dct2,0.28,-,234.0000")

    def test_sweep_keeps_cells_apart(self, tmp_path, capsys):
        # two cells, two factors: four table rows, each with its own cell
        doc = yaml.safe_load(TINY_YAML)
        doc["grid"]["ranks"] = [1, 2]
        doc["solver"] = {"eps": 1e-4, "alphas": [0.0, 0.28]}
        doc["seeds"] = [0]
        config = tmp_path / "sweep.yaml"
        config.write_text(yaml.safe_dump(doc))
        out = tmp_path / "out"
        assert cli.main(["bench", "--config", str(config), "--out", str(out)]) == 0
        recs = json.loads((out / "alpha_records.json").read_text())
        assert len(recs) == 4
        rows = [
            f"{r['m']},{r['r']},{r['nnz_ratio']:g},{r['q_ratio']:g},{r['transform']},"
            f"{r['alpha']:g},{r['mean_iter_ladmm']:.4f},{r['mean_iter_iladmm']:.4f}"
            for r in recs
        ]
        lines = (out / "alpha_sweep.csv").read_text().splitlines()
        assert lines == ["m,r,nnz_ratio,q_ratio,transform,alpha,iter_ladmm,iter_iladmm"] + rows
        assert recs[0]["mean_iter_ladmm"] != recs[2]["mean_iter_ladmm"]
        table = capsys.readouterr().out.splitlines()[1:]
        assert [line.split()[:6] for line in table] == [
            [str(r["m"]), str(r["r"]), f"{r['nnz_ratio']:g}", f"{r['q_ratio']:g}",
             r["transform"], f"{r['alpha']:.2f}"] for r in recs]

    def test_module_entry_point(self):
        # ``python -m iprox`` runs the CLI, loading each module once
        src = str(Path(iprox.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-m", "iprox", "--help"],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        assert "verify" in proc.stdout

    def test_list_parsers(self):
        assert cli._parse_list("0.1, 0.2,", float) == (0.1, 0.2)
        assert cli._parse_list("1,2, 3", int) == (1, 2, 3)
