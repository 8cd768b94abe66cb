"""What the benchmark measures: its workloads and metrics.

``BENCHMARK.json`` at the repository root is generated from this module
(``python3 perfbench/run.py --write-definition``) and the self-test checks
that the committed file still matches, so this is the one place where a
workload's reason or a metric's unit, direction, bound or layer is stated.
"""

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 30

# name -> one-line reason it was chosen (the definition is in workloads.py)
WORKLOADS = {
    "desk": "256x256 r5 5% q=0.6 DCT2, plain and alpha=0.28 solves on 2 instances: "
            "the ROADMAP yardstick, full-SVD bound with SVT rank above 10 for most iterations",
    "wht": "256x256 r5 5% q=0.8 WHT, both solvers on 4 instances: transforms take about "
           "half the time and SVT rank is at most 10 in about half the iterations",
    "grid-small": "run_grid 64x64 r2 5% q=0.45 dct2/wht/fft2 jobs=2, then run_verification and "
                  "criteria 1-6: small calls, fft2, the thread pool, splitting, vi_core, fixtures",
}

# name, unit, better, bound.  Every workload reports all of them (see README.md).
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("iter_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

# name, unit, better, layer.  Read from the traced run only.
PER_LAYER = [
    ("numkit.svd.calls", "count", "lower", "numkit"),
    ("numkit.svd.s", "s", "lower", "numkit"),
    ("numkit.apply.calls", "count", "lower", "numkit"),
    ("numkit.apply.s", "s", "lower", "numkit"),
    ("numkit.adjoint.calls", "count", "lower", "numkit"),
    ("numkit.adjoint.s", "s", "lower", "numkit"),
    ("numkit.transforms_per_iter", "1/iter", "lower", "numkit"),
    ("numkit.transform_bytes", "B.computed", "lower", "numkit"),
    ("numkit.make_measurement_op.s", "s", "lower", "numkit"),
    ("prox.svt.calls", "count", "lower", "prox"),
    ("prox.svt.s", "s", "lower", "prox"),
    ("prox.svt.self_s", "s", "lower", "prox"),
    ("prox.svt.rank_mean", "rank", "lower", "prox"),
    ("prox.svt.low_rank_frac", "fraction", "higher", "prox"),
    ("prox.svt.first_low_rank_iter", "iter", "lower", "prox"),
    ("prox.soft_threshold.s", "s", "lower", "prox"),
    ("cpcp.solve.s", "s", "lower", "cpcp"),
    ("cpcp.self_s", "s", "lower", "cpcp"),
    ("cpcp.stopping_residual.s", "s", "lower", "cpcp"),
    ("cpcp.iter_ms", "ms", "lower", "cpcp"),
    ("cpcp.generate_instance.s", "s", "lower", "cpcp"),
    ("splitting.step.calls", "count", "lower", "splitting"),
    ("splitting.step.s", "s", "lower", "splitting"),
    ("splitting.run.s", "s", "lower", "splitting"),
    ("splitting.reports.s", "s", "lower", "splitting"),
    ("vi_core.run.s", "s", "lower", "vi_core"),
    ("vi_core.step.calls", "count", "lower", "vi_core"),
    ("vi_core.rate_check.s", "s", "lower", "vi_core"),
    ("fixtures.build.s", "s", "lower", "fixtures"),
    ("bench.run_grid.s", "s", "lower", "bench"),
    ("bench.busy_frac", "fraction", "higher", "bench"),
    ("bench.idle_s", "s", "lower", "bench"),
    ("bench.emit.s", "s", "lower", "bench"),
    ("bench.run_verification.s", "s", "lower", "bench"),
    ("trace_overhead_frac", "fraction", "lower", "trace"),
]


def definition():
    """The contents of ``BENCHMARK.json``."""
    return {
        "command": list(COMMAND),
        "paths": list(PATHS),
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b, _ in PER_LAYER
        ],
    }
