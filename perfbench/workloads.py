"""The benchmark workloads: desk, wht and grid-small.

Each workload builds its inputs from the run seed in ``setup`` (timed as
set-up) and then runs ``run_pass`` repeatedly on the same inputs. A pass
returns a :class:`PassResult`: one :class:`Op` per checked operation (a
CPCP solve, a grid cell, a certificate), the solver iterations the pass
ran, and the fields that must repeat exactly.

Workloads reach the package only through its public modules, by module
attribute (``cpcp.ladmm_cpcp``, not an imported name), so the traced run
sees every call.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from iprox import bench, cpcp, fixtures, numkit, splitting, vi_core

# criterion 7's tolerance on the relative L and S recovery errors
REL_TOL = 1e-4
INERTIAL_ALPHA = 0.28

# span names (see spans.TARGETS) a traced run of each workload must record
CPCP_SPANS = frozenset({
    "numkit.svd", "numkit.apply", "numkit.adjoint", "numkit.make_measurement_op",
    "prox.svt", "prox.soft_threshold", "cpcp.solve", "cpcp.stopping_residual",
    "cpcp.generate_instance",
})


@dataclass
class Op:
    name: str
    ok: bool
    error: str = ""


@dataclass
class PassResult:
    ops: list = field(default_factory=list)
    iters: int = 0
    deterministic: dict = field(default_factory=dict)
    # workload-specific figures for the readable report, name -> (value, unit)
    extra: dict = field(default_factory=dict)


def _solve_op(name, converged, iters, err=0.0):
    """A CPCP solve passes when it converged and its worst relative
    recovery error ``err`` is within ``REL_TOL``."""
    if not converged:
        return Op(name, False, f"not converged after {iters} iterations")
    if not err <= REL_TOL:
        return Op(name, False, f"relative error {err:.3e} above {REL_TOL:g}")
    return Op(name, True)


# ---------------------------------------------------------------------------
# desk and wht: one CPCP instance set, both solvers


@dataclass
class CpcpPair:
    """Plain (alpha = 0) then inertial (alpha = 0.28) solves, default
    tau/eta/eps, on ``count`` instances with seeds ``count*seed + i``."""

    size: int
    rank: int
    nnz_ratio: float
    q_ratio: float
    kind: str
    count: int
    spans = CPCP_SPANS

    def setup(self, seed):
        q, nnz = cpcp.counts_from_ratios(self.size, self.size, self.q_ratio,
                                         self.nnz_ratio)
        return [cpcp.generate_instance(self.size, self.size, self.rank, nnz,
                                       self.kind, q, self.count * seed + i)
                for i in range(self.count)]

    def run_pass(self, instances):
        res = PassResult()
        plain_s, inertial_s, plain_it, inertial_it, det = [], [], [], [], []
        for inst in instances:
            t0 = time.perf_counter()
            st1, _ = cpcp.ladmm_cpcp(inst)
            t1 = time.perf_counter()
            st2, _ = cpcp.iladmm_cpcp(inst, alpha=INERTIAL_ALPHA)
            t2 = time.perf_counter()
            for label, state in (("plain", st1), ("inertial", st2)):
                met = cpcp.recovery_metrics(state, inst)
                res.ops.append(_solve_op(f"seed {inst.seed} {label}", met.converged,
                                         met.iters, max(met.rel_l, met.rel_s)))
            plain_s.append(t1 - t0)
            inertial_s.append(t2 - t1)
            plain_it.append(st1.iters)
            inertial_it.append(st2.iters)
            det.append({"seed": inst.seed, "q": inst.q, "nnz": inst.nnz,
                        "plain_iters": st1.iters, "inertial_iters": st2.iters})
        res.iters = sum(plain_it) + sum(inertial_it)
        res.deterministic = {"instances": det}
        res.extra = {
            "plain_s": (float(np.median(plain_s)), "s"),
            "inertial_s": (float(np.median(inertial_s)), "s"),
            "plain_iters": (float(np.median(plain_it)), "count"),
            "inertial_iters": (float(np.median(inertial_it)), "count"),
        }
        return res


# ---------------------------------------------------------------------------
# the certificate checks: run_verification plus acceptance criteria 1-6


class Certs:
    """``bench.run_verification()`` and the certificate computations of
    acceptance criteria 1-6, on the criteria's own fixtures and seeds
    (which fix the inputs: the run seed does not change them). ``scale``
    shrinks the fixture counts and iteration limits for the self-test.

    ``iters`` of its pass counts the criteria's solver iterations."""

    # run_verification's recovery smoke test also solves a small CPCP instance
    spans = CPCP_SPANS | {
        "splitting.step", "splitting.run", "splitting.reports", "vi_core.run",
        "vi_core.step", "vi_core.rate_check", "fixtures.build",
        "bench.run_verification",
    }

    def __init__(self, scale=1.0):
        self.scale = scale

    def _n(self, count):
        return max(1, int(count * self.scale))

    def setup(self, seed):
        rng = numkit.SeededRng
        step_fix = [fixtures.random_qp(8, 8, 8, rng(1000 + s))
                    for s in range(self._n(20))]
        contraction_fix = [fixtures.random_qp(8, 8, 8, rng(3000 + s))
                           for s in range(3)]
        rate_fix = fixtures.random_qp(4, 4, 3, rng(20240814).derive("qp"))
        ergodic_fix = [fixtures.random_qp(8, 8, 8, rng(4000 + s)) for s in range(3)]
        vi_fix = [fixtures.strongly_monotone_affine_vi(8, rng(6000 + s))
                  for s in range(3)]
        return {
            "step": step_fix, "contraction": contraction_fix, "rate": rate_fix,
            "ergodic": ergodic_fix, "vi": vi_fix,
            "quad_c": rng(7000).normal(10) * 3.0,
        }

    @staticmethod
    def _params(prob, beta=1.0):
        return splitting.LadmmParams(beta=beta, tau=0.9 / prob.rho_ata,
                                     eta=0.9 / prob.rho_btb)

    def run_pass(self, fx):
        res = PassResult()
        rng = numkit.SeededRng
        t_all = time.perf_counter()
        for check in bench.run_verification():
            res.ops.append(Op(f"verify {check.name}", check.ok,
                              "" if check.ok else check.detail))
        crit = {}
        n_steps = self._n(10)
        n_long = self._n(500)

        # 1: every linearized step satisfies its variational characterization
        worst = np.inf
        for s, (prob, star) in enumerate(fx["step"]):
            params = self._params(prob)
            probes = splitting.sample_probes(prob, star, 2.0, 100, rng(2000 + s))
            w = splitting.zeros_point(prob)
            for _ in range(n_steps):
                w1 = splitting.ladmm_step(prob, params, w)
                worst = min(worst, splitting.vi_residual_check(prob, params, w, w1, probes))
                w = w1
            res.iters += n_steps
        crit[1] = (worst >= -1e-8, f"min slack {worst:.2e}")

        # 2: strict distance contraction toward the solution
        worst = -np.inf
        for prob, star in fx["contraction"]:
            params = self._params(prob)
            tr = splitting.run_ladmm(prob, params, tol=0.0, max_iter=n_long, w_star=star)
            phi, step = np.asarray(tr.phi), np.asarray(tr.step_residuals)
            worst = max(worst, float((phi[1:] - phi[:-1] + step).max()))
            res.iters += tr.iterations
        crit[2] = (worst <= 1e-10, f"max contraction violation {worst:.2e}")

        # 3: nonergodic residual rate, monotone, with an o(1/k) trend
        prob, star = fx["rate"]
        params = self._params(prob, beta=0.1)
        tr = splitting.run_ladmm(prob, params, tol=0.0, max_iter=n_long, w_star=star)
        rep = splitting.nonergodic_report(tr, prob, params, star)
        trend = rep.scaled[-1] < rep.scaled[max(0, n_long // 10 - 1)]
        res.iters += tr.iterations
        crit[3] = (rep.ok and trend,
                   f"violations {len(rep.monotonicity_violations)}"
                   f"/{len(rep.bound_violations)}, trend {trend}")

        # 4: ergodic saddle-gap envelope for averaged iterates
        ks = [50, 100, 200] if self.scale == 1.0 else [self._n(220) // 2]
        worst = -np.inf
        for s, (prob, star) in enumerate(fx["ergodic"]):
            params = self._params(prob)
            tr = splitting.run_ladmm(prob, params, tol=0.0, max_iter=self._n(220))
            probes = splitting.sample_probes(prob, star, 2.0, 50, rng(5000 + s))
            rep = splitting.ergodic_report(tr, prob, params, probes, ks=ks)
            for k in ks:
                worst = max(worst, float((np.asarray(rep.gaps[k])
                                          - np.asarray(rep.bounds[k])).max()))
            res.iters += tr.iterations
        crit[4] = (worst <= 1e-8, f"max gap excess {worst:.2e}")

        # 5: accelerated residual envelope under constant extrapolation 0.28
        ok5 = True
        for problem, w_star in fx["vi"]:
            G = vi_core.WeightOperator.from_matrix(np.eye(8))
            tr = vi_core.run_inertial_ppa(
                problem, G, vi_core.InertialSchedule.constant(INERTIAL_ALPHA),
                np.ones(8) * 2.0, tol=0.0, max_iter=n_long,
            )
            rep = vi_core.check_residual_rate_bound(tr, G, w_star)
            ok5 = ok5 and rep.ok and abs(rep.constant - 13.5) <= 13.5e-12
            res.iters += tr.iterations
        crit[5] = (ok5, "envelope constant 13.5")

        # 6: O(1/k^2) objective decay of the accelerated proximal iteration
        c = fx["quad_c"]
        w0 = np.zeros(10)
        tr = vi_core.nesterov_ippa(lambda z, lam: (z + lam * c) / (1.0 + lam), w0,
                                   n_long, objective=lambda w: 0.5 * float(np.sum((w - c) ** 2)))
        ks6 = np.arange(1, n_long + 1)
        scaled = ks6 * ks6 * np.asarray(tr.objective)[1:]
        bound = 4.0 * float(np.sum((w0 - c) ** 2))
        res.iters += tr.iterations
        crit[6] = (bool(np.all(scaled <= bound + 1e-10)),
                   f"max k^2 gap {float(scaled.max()):.3f} vs {bound:.3f}")

        for num, (ok, detail) in crit.items():
            res.ops.append(Op(f"criterion {num}", bool(ok), "" if ok else detail))
        res.deterministic = {
            "checks": [[op.name, op.ok] for op in res.ops],
            "criteria_iters": res.iters,
        }
        res.extra = {"certs_s": (time.perf_counter() - t_all, "s")}
        return res


# ---------------------------------------------------------------------------
# grid-small: the `iprox bench` and `iprox verify` paths


@dataclass
class GridSmall:
    """``bench.run_grid`` over 64x64, rank 2, 5% sparse, q = 0.45 and the
    three transforms, both solvers, ``jobs=2``, grid seeds
    ``seeds*seed + i``; the tables are written as ``iprox bench`` writes
    them. Then the :class:`Certs` checks, as ``iprox verify`` and the
    acceptance criteria run them.

    The checks ride along here rather than forming a workload of their
    own: alone, their pure-Python small-array work spread 21-28 % between
    runs on the 2-CPU development machine, beyond any bound the benchmark
    may set. Here they add about 0.8 s to a pass of about 8 s.
    ``iters`` counts the grid's CPCP iterations only."""

    seeds: int
    out_dir: Path
    certs: Certs
    spans = Certs.spans | {"bench.run_grid", "bench.emit"}

    def setup(self, seed):
        fixtures_ = self.certs.setup(seed)
        config = bench.RunConfig(
            sizes=(64,), ranks=(2,), nnz_ratios=(0.05,), q_ratios=(0.45,),
            transforms=("dct2", "wht", "fft2"),
            seeds=tuple(self.seeds * seed + i for i in range(self.seeds)),
            jobs=2,
        ).validate()
        self.out_dir.mkdir(parents=True, exist_ok=True)
        return config, fixtures_

    def run_pass(self, inputs):
        config, fixtures_ = inputs
        res = PassResult()
        t0 = time.perf_counter()
        records = bench.run_grid(config)
        csv = self.out_dir / "results.csv"
        bench.emit_csv(records, csv)
        bench.emit_plot_data(records, self.out_dir / "plot.csv", axis="q_ratio")
        bench.write_records_json(records, self.out_dir / "records.json")
        wall = time.perf_counter() - t0
        solves, misses, cells = 0, 0, []
        for rec in records:
            cell = f"{rec.transform} m={rec.m} q={rec.q_ratio:g}"
            if rec.error is not None:
                res.ops.append(Op(f"cell {cell}", False, rec.error))
                continue
            res.ops.append(Op(f"cell {cell}", True))
            iters = []
            for trial in rec.trials:
                for label in ("ladmm", "iladmm"):
                    out = trial[label]
                    # q = 0.45 sits near the recovery threshold: about 0.7 % of
                    # instances converge to a pair other than the planted one,
                    # an outcome the grid exists to tabulate, so a recovery
                    # miss is counted and reported but does not fail the run
                    res.ops.append(_solve_op(f"{cell} seed {trial['seed']} {label}",
                                             out["converged"], out["iters"]))
                    misses += max(out["rel_l"], out["rel_s"]) > REL_TOL
                    res.iters += out["iters"]
                    iters.append(out["iters"])
                    solves += 1
            cells.append({"cell": cell, "q": rec.q, "nnz": rec.nnz, "iters": iters})
        data = csv.read_bytes()
        res.deterministic = {
            "cells": cells,
            "recovery_misses": misses,
            "results_csv_sha256": hashlib.sha256(data).hexdigest(),
            "results_csv_bytes": len(data),
        }
        plain = sum(sum(c["iters"][0::2]) for c in cells)
        res.extra = {
            "grid_solves_per_s": (solves / wall, "1/s"),
            "plain_iters": (float(plain), "count"),
            "inertial_iters": (float(res.iters - plain), "count"),
            "recovery_misses": (float(misses), "count"),
        }
        checks = self.certs.run_pass(fixtures_)
        res.ops += checks.ops
        res.deterministic["certs"] = checks.deterministic
        res.extra.update(checks.extra)
        return res


def make(name, out_dir, toy=False):
    """The workload called ``name``; ``toy`` shrinks it for the self-test."""
    if name == "desk":
        return CpcpPair(32 if toy else 256, 2 if toy else 5, 0.05, 0.6, "dct2",
                        1 if toy else 2)
    if name == "wht":
        return CpcpPair(32 if toy else 256, 2 if toy else 5, 0.05, 0.8, "wht",
                        1 if toy else 4)
    if name == "grid-small":
        return GridSmall(1 if toy else 2, out_dir / f"grid-small{'-toy' if toy else ''}",
                         Certs(scale=0.1 if toy else 1.0))
    raise KeyError(name)
