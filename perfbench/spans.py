"""Span tracing of calls into the iprox layers, from outside the package.

Each traced function is replaced, during set-up and each traced pass, by a
wrapper that records one span: ``(id, name, start, end, parent, thread,
phase, attrs)``. A wrapper is installed at the attribute its caller
resolves at call time. ``cpcp`` and ``bench`` import most of these names
with ``from ... import``, so patching only the defining module would miss
their calls; that is why several functions appear once per importing
module below. Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict

# an SVT output of at most this rank is "low rank": the regime where a
# rank-adaptive SVT could skip most of the full SVD
LOW_RANK = 10

# span name -> (holder, attribute) pairs that carry it; a holder is an
# iprox module, or ``numkit.MeasurementOp`` for the operator's methods.
TARGETS = {
    "numkit.svd": [("prox", "svd"), ("numkit", "svd")],
    "numkit.apply": [("numkit.MeasurementOp", "apply")],
    "numkit.adjoint": [("numkit.MeasurementOp", "adjoint")],
    "numkit.make_measurement_op": [("cpcp", "make_measurement_op"),
                                   ("numkit", "make_measurement_op")],
    "prox.svt": [("cpcp", "svt_with_values")],
    "prox.soft_threshold": [("cpcp", "soft_threshold")],
    "cpcp.solve": [("cpcp", "ladmm_cpcp"), ("cpcp", "iladmm_cpcp"),
                   ("bench", "ladmm_cpcp"), ("bench", "iladmm_cpcp")],
    "cpcp.stopping_residual": [("cpcp", "stopping_residual")],
    "cpcp.generate_instance": [("cpcp", "generate_instance"),
                               ("bench", "generate_instance")],
    "splitting.step": [("splitting", "ladmm_step"), ("splitting", "iladmm_step")],
    "splitting.run": [("splitting", "run_ladmm"), ("splitting", "run_iladmm")],
    "splitting.reports": [("splitting", "vi_residual_check"),
                          ("splitting", "sample_probes"),
                          ("splitting", "ergodic_report"),
                          ("splitting", "nonergodic_report")],
    "vi_core.run": [("vi_core", "run_inertial_ppa"), ("vi_core", "nesterov_ippa")],
    "vi_core.step": [("vi_core", "inertial_ppa_step")],
    "vi_core.rate_check": [("vi_core", "check_residual_rate_bound")],
    "fixtures.build": [("fixtures", "random_qp"),
                       ("fixtures", "strongly_monotone_affine_vi")],
    "bench.run_grid": [("bench", "run_grid")],
    "bench.emit": [("bench", "emit_csv"), ("bench", "emit_plot_data"),
                   ("bench", "write_records_json")],
    "bench.run_verification": [("bench", "run_verification")],
}


def _svt_attrs(args, kwargs, out):
    _, shrunk = out
    return {"rank": int((shrunk > 0).sum())}


def _solve_attrs(args, kwargs, out):
    state, _ = out
    return {"iters": int(state.iters)}


def _run_grid_attrs(args, kwargs, out):
    config = args[0] if args else kwargs["config"]
    return {"jobs": int(config.jobs)}


def _coef_bytes(op):
    return op.image_rows * op.image_cols * (16 if op.complex_mode else 8)


def _apply_attrs(args, kwargs, out):
    # computed, not measured: image read, dense coefficient image, output
    op = args[0]
    return {"bytes": op.image_rows * op.image_cols * 8 + _coef_bytes(op)
            + op.measurement_dim * 8}


def _adjoint_attrs(args, kwargs, out):
    # computed: input vector, zero-filled and transformed coefficient
    # images, real output image
    op = args[0]
    return {"bytes": op.measurement_dim * 8 + 2 * _coef_bytes(op)
            + op.image_rows * op.image_cols * 8}


ATTRS = {
    "prox.svt": _svt_attrs,
    "cpcp.solve": _solve_attrs,
    "bench.run_grid": _run_grid_attrs,
    "numkit.apply": _apply_attrs,
    "numkit.adjoint": _adjoint_attrs,
}


class TraceError(RuntimeError):
    """A traced name is missing, or a workload never reached it."""


class SpanRecorder:
    """Installs the wrappers and collects spans from any thread."""

    def __init__(self, modules):
        self._modules = modules
        self._lock = threading.Lock()
        self._local = threading.local()
        self._installed = []
        self._next_id = 0
        self.spans = []
        self.phase = "setup"

    def _holder(self, path):
        mod, _, cls = path.partition(".")
        holder = self._modules[mod]
        return getattr(holder, cls) if cls else holder

    def _wrap(self, name, fn):
        attrs_of = ATTRS.get(name)
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(rec._local, "stack", None)
            if stack is None:
                stack = rec._local.stack = []
            with rec._lock:
                sid = rec._next_id
                rec._next_id += 1
            parent = stack[-1] if stack else None
            stack.append(sid)
            out, done = None, False
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                done = True
                return out
            finally:
                end = time.perf_counter()
                stack.pop()
                attrs = attrs_of(args, kwargs, out) if attrs_of and done else None
                span = (sid, name, start, end, parent, threading.get_ident(),
                        rec.phase, attrs)
                with rec._lock:
                    rec.spans.append(span)

        return wrapper

    def install(self):
        if self._installed:
            raise TraceError("wrappers are already installed")
        for name, sites in TARGETS.items():
            for path, attr in sites:
                holder = self._holder(path)
                if attr not in vars(holder):
                    self.uninstall()
                    raise TraceError(f"traced name iprox.{path}.{attr} no longer exists")
                original = vars(holder)[attr]
                setattr(holder, attr, self._wrap(name, original))
                self._installed.append((holder, attr, original))

    def uninstall(self):
        while self._installed:
            holder, attr, original = self._installed.pop()
            setattr(holder, attr, original)

    def names_hit(self, phases):
        return {s[1] for s in self.spans if s[6] in phases}

    def write(self, path):
        with open(path, "w", encoding="utf8") as fh:
            for sid, name, start, end, parent, thread, phase, attrs in self.spans:
                fh.write(json.dumps([sid, name, start, end, parent, thread,
                                     phase, attrs]) + "\n")


def _self_times(spans):
    """Span id -> duration minus the durations of its direct children.

    Children run on their parent's thread, nested inside it, so their
    durations do not overlap and can be summed.
    """
    child_sum = {}
    for sid, _, start, end, parent, *_ in spans:
        if parent is not None:
            child_sum[parent] = child_sum.get(parent, 0.0) + (end - start)
    return {s[0]: (s[3] - s[2]) - child_sum.get(s[0], 0.0) for s in spans}


def layer_metrics(spans, traced_passes, untraced_s, traced_s):
    """Per-layer metrics from the spans of a traced run.

    ``traced_passes`` is the list of phase labels of the traced passes;
    time and call metrics are totals per traced pass. The construction
    metrics (instance, operator and fixture building) add the set-up
    phase, since that is where most of them happen: they read as set-up
    plus one pass.
    """
    n = len(traced_passes)
    phases = set(traced_passes)
    in_pass = [s for s in spans if s[6] in phases]
    selfs = _self_times(in_pass)
    of, of_setup = defaultdict(list), defaultdict(list)
    for s in in_pass:
        of[s[1]].append(s)
    for s in spans:
        if s[6] == "setup":
            of_setup[s[1]].append(s)

    def secs(name):
        return sum(s[3] - s[2] for s in of[name]) / n

    def calls(name):
        return len(of[name]) / n

    def build_secs(name):
        return sum(s[3] - s[2] for s in of_setup[name]) + secs(name)

    # spans of calls that raised carry no attributes
    solves = [s for s in of["cpcp.solve"] if s[7]]
    solve_ids = {s[0] for s in solves}
    iters = sum(s[7]["iters"] for s in solves)
    transforms = [s for s in of["numkit.apply"] + of["numkit.adjoint"] if s[7]]
    transforms_in_solves = sum(1 for s in transforms if s[4] in solve_ids)
    svts = [s for s in of["prox.svt"] if s[7]]
    ranks = [s[7]["rank"] for s in svts]

    # SVT calls in start order within each solve: one per iteration
    svts_of = defaultdict(list)
    for s in sorted(svts, key=lambda s: s[2]):
        svts_of[s[4]].append(s)
    first_low = []
    for solve in solves:
        hit = [k for k, s in enumerate(svts_of[solve[0]], 1) if s[7]["rank"] <= LOW_RANK]
        first_low.append(hit[0] if hit else solve[7]["iters"])
    first_low.sort()

    busy, idle = [], []
    for grid in (s for s in of["bench.run_grid"] if s[7]):
        jobs = grid[7]["jobs"]
        wall = grid[3] - grid[2]
        solve_s = sum(s[3] - s[2] for s in solves
                      if s[2] >= grid[2] and s[3] <= grid[3])
        busy.append(solve_s / (jobs * wall))
        idle.append(jobs * wall - solve_s)

    transform_bytes = sum(s[7]["bytes"] for s in transforms)
    return {
        "numkit.svd.calls": calls("numkit.svd"),
        "numkit.svd.s": secs("numkit.svd"),
        "numkit.apply.calls": calls("numkit.apply"),
        "numkit.apply.s": secs("numkit.apply"),
        "numkit.adjoint.calls": calls("numkit.adjoint"),
        "numkit.adjoint.s": secs("numkit.adjoint"),
        "numkit.transforms_per_iter": transforms_in_solves / iters if iters else 0.0,
        "numkit.transform_bytes": transform_bytes / n,
        "numkit.make_measurement_op.s": build_secs("numkit.make_measurement_op"),
        "prox.svt.calls": calls("prox.svt"),
        "prox.svt.s": secs("prox.svt"),
        "prox.svt.self_s": sum(selfs[s[0]] for s in svts) / n,
        "prox.svt.rank_mean": sum(ranks) / len(ranks) if ranks else 0.0,
        "prox.svt.low_rank_frac":
            sum(1 for r in ranks if r <= LOW_RANK) / len(ranks) if ranks else 0.0,
        "prox.svt.first_low_rank_iter":
            float(first_low[len(first_low) // 2]) if first_low else 0.0,
        "prox.soft_threshold.s": secs("prox.soft_threshold"),
        "cpcp.solve.s": secs("cpcp.solve"),
        "cpcp.self_s": sum(selfs[s[0]] for s in solves) / n,
        "cpcp.stopping_residual.s": secs("cpcp.stopping_residual"),
        "cpcp.iter_ms": 1e3 * sum(s[3] - s[2] for s in solves) / iters if iters else 0.0,
        "cpcp.generate_instance.s": build_secs("cpcp.generate_instance"),
        "splitting.step.calls": calls("splitting.step"),
        "splitting.step.s": secs("splitting.step"),
        "splitting.run.s": secs("splitting.run"),
        "splitting.reports.s": secs("splitting.reports"),
        "vi_core.run.s": secs("vi_core.run"),
        "vi_core.step.calls": calls("vi_core.step"),
        "vi_core.rate_check.s": secs("vi_core.rate_check"),
        "fixtures.build.s": build_secs("fixtures.build"),
        "bench.run_grid.s": secs("bench.run_grid"),
        "bench.busy_frac": sum(busy) / len(busy) if busy else 0.0,
        "bench.idle_s": sum(idle) / n,
        "bench.emit.s": secs("bench.emit"),
        "bench.run_verification.s": secs("bench.run_verification"),
        "trace_overhead_frac": traced_s / untraced_s - 1.0,
    }
