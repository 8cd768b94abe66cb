"""Fast self-test of the benchmark's wiring, at toy sizes.

    python3 -m pytest perfbench/test_wiring.py -q

It checks the definition file against ``spec.py``, that every workload
reports exactly the declared metrics in both modes, that deterministic
fields repeat, that the tracer refuses a missing name and records spans
from several threads, and that the benchmark refuses to run without the
package source next to it.
"""

import json
import shutil
import subprocess
import sys
import threading
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import spec  # noqa: E402


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=170)


def test_definition_file_matches_spec():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf8"))
    assert doc == spec.definition()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in doc["workloads"])
    assert all(m["bound"] <= 0.25 for m in doc["end_to_end"])
    assert max(m["bound"] for m in doc["end_to_end"]) == dict(
        (m["name"], m["bound"]) for m in doc["end_to_end"])["setup_s"]


@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_reports_declared_metrics(workload, trace):
    proc = _run("--workload", workload, "--seed", "0", "--seconds", "0.1",
                "--trace", str(trace), "--toy")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    table = spec.PER_LAYER if trace else spec.END_TO_END
    assert {n: u for n, u, *_ in table} == {
        n: m["unit"] for n, m in result["metrics"].items()}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    report = json.loads((HERE / "out" / f"{workload}-seed0-trace{trace}-toy.json")
                        .read_text(encoding="utf8"))
    assert report["context"]["nproc"] >= 1 and report["context"]["seed"] == 0


def test_deterministic_fields_repeat():
    fields = []
    for _ in range(2):
        proc = _run("--workload", "desk", "--seed", "3", "--seconds", "0.1", "--toy")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        report = json.loads((HERE / "out" / "desk-seed3-trace0-toy.json")
                            .read_text(encoding="utf8"))
        fields.append(report["deterministic"])
    assert fields[0] == fields[1]
    assert fields[0]["instances"][0]["seed"] == 3


def test_pinned_and_repeated_fields_are_checked(tmp_path, monkeypatch):
    import run

    monkeypatch.setattr(run, "OUT", tmp_path)
    args = types.SimpleNamespace(workload="desk", seed=0, toy=False)
    context = {"src_sha256": "0" * 64, "blas": {"threads": {"lib": 2}}}
    pinned = json.loads(run.EXPECTED.read_text(encoding="utf8"))["desk"]
    assert pinned["instances"][0]["plain_iters"] == 281
    good = {"instances": pinned["instances"] + [{"seed": 1}]}
    assert run._check_deterministic(args, context, good) == []
    assert run._check_deterministic(args, context, good) == []  # repeats
    moved = json.loads(json.dumps(good))
    moved["instances"][0]["plain_iters"] = 280
    errors = run._check_deterministic(args, context, moved)
    assert len(errors) == 2 and "pinned" in errors[0] and "earlier run" in errors[1]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "desk",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, cwd=tmp_path, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _double(x):
    return 2 * x


def _fake_modules():
    mods = {name: types.SimpleNamespace() for name in
            ("bench", "cpcp", "fixtures", "numkit", "prox", "splitting", "vi_core")}
    mods["numkit"].MeasurementOp = type("MeasurementOp", (), {})
    for sites in spans.TARGETS.values():
        for path, attr in sites:
            mod, _, cls = path.partition(".")
            holder = getattr(mods[mod], cls) if cls else mods[mod]
            setattr(holder, attr, _double)
    return mods


def test_tracer_refuses_a_missing_name():
    mods = _fake_modules()
    del mods["vi_core"].nesterov_ippa
    rec = spans.SpanRecorder(mods)
    with pytest.raises(spans.TraceError, match="nesterov_ippa"):
        rec.install()
    assert mods["splitting"].ladmm_step is _double  # rolled back


def test_tracer_records_spans_from_threads():
    mods = _fake_modules()
    rec = spans.SpanRecorder(mods)
    rec.install()
    calls_per_thread, threads = 2000, 4
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=lambda: [
            mods["splitting"].ladmm_step(k) for k in range(calls_per_thread)])
            for _ in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
        assert not any(w.is_alive() for w in workers)
    finally:
        sys.setswitchinterval(interval)
        rec.uninstall()
    assert len(rec.spans) == calls_per_thread * threads
    assert len({s[0] for s in rec.spans}) == len(rec.spans)
    assert all(s[4] is None for s in rec.spans)
    assert mods["splitting"].ladmm_step is _double


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
