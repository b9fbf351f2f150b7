"""Tests of the benchmark itself, at the tiny study scale.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from proctree import TreeSampler  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int, seconds: float = 1.0) -> tuple:
    """One tiny run; returns (result line, every stdout line)."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", str(seconds), "--trace", str(trace), "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines


# study-save is runnable by hand, though BENCHMARK.json leaves it out
@pytest.mark.parametrize("workload", ["study-save"] + [w["name"] for w in SPEC["workloads"]])
def test_smoke_reports_every_end_to_end_metric(workload):
    result, lines = bench(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    metrics = result["metrics"]
    for metric in SPEC["end_to_end"]:
        assert metrics[metric["name"]]["unit"] == metric["unit"]
        assert metrics[metric["name"]]["value"] > 0, metric["name"]
    meta = json.loads(next(line for line in lines if line.startswith("meta: "))[6:])
    assert meta["visible_cpus"] >= 1 and meta["seed"] == 3 and meta["study_config"]


def test_stream_live_traced_matches_batch_digest_and_sees_workers():
    result, lines = bench("stream-live", trace=1)
    # the run compares its finalized dataset with a study-save build
    assert result["correct"], [line for line in lines if line.startswith("check failed")]
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert metrics["core.worker_cpu_s"] > 0
    assert metrics["data.chunks_sealed"] >= 2
    assert metrics["dnssec.transfers_sealed"] > 0 and metrics["vantage.rows"] > 0
    timed = {k: v for k, v in metrics.items() if k in traced_layers(lines, "timed")}
    assert sum(timed.values()) + metrics["trace.unaccounted_s"] == pytest.approx(
        metrics["trace.wall_s"], rel=1e-6
    )


def test_serve_query_traced_reports_each_load_step():
    result, lines = bench("serve-query", trace=1)
    assert result["correct"], [line for line in lines if line.startswith("check failed")]
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    for load in ("load10", "load25", "load50"):
        assert 0 < metrics[f"answers.p50_ms.{load}"] <= metrics[f"answers.p99_ms.{load}"]
    assert metrics["serving.closed_loop_s"] > 0 and metrics["serving.cache_hits"] > 0
    # the overhead compares a traced with an untraced dataset build
    assert metrics["trace.overhead_ratio"] != 0.0
    timed = {k: v for k, v in metrics.items() if k in traced_layers(lines, "timed")}
    assert sum(timed.values()) + metrics["trace.unaccounted_s"] == pytest.approx(
        metrics["trace.wall_s"], rel=1e-6
    )


def traced_layers(lines, group):
    """Metric names of the layers the run reported for *group*."""
    layers = json.loads(next(l for l in lines if l.startswith("trace layers: "))[14:])
    return {f"{name}_s" for name in layers[group] if not name.startswith(("(", "__"))}


def test_digest_agrees_between_batch_and_streamed_children(tmp_path):
    def child(kind, out):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--child", kind, "--seed", "5",
             "--scale", "tiny", "--out", str(out), "--trace", "0", "--build-only", "1"],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        assert proc.returncode == 0, proc.stderr[-3000:]
        return json.loads(proc.stdout.strip().splitlines()[-1])

    batch = child("study-save", tmp_path / "batch")
    streamed = child("stream-live", tmp_path / "streamed")
    assert batch["digest"] == streamed["digest"]
    assert batch["rows"] == streamed["rows"] > 0
    assert streamed["checks"]["failed"] == 0


def test_self_times_add_up_to_the_root():
    spans = [
        ["timed", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 2.0, 3.0, 1],
        ["a", 5.0, 9.0, 0],
    ]
    out = self_times(spans, 0)
    assert out == {"": 3.0, "a": 6.0, "b": 1.0}
    assert sum(out.values()) == 10.0


def test_disabled_tracer_records_nothing():
    tracer = Tracer(enabled=False)
    with tracer.span("x"):
        tracer.count("n")
    tracer.wrap(json, "dumps", "json.dumps")
    assert tracer.spans == [] and tracer.counters == {}
    assert json.dumps.__module__ == "json"


def test_sampler_sees_grandchild_cpu():
    code = (
        "import subprocess, sys;"
        "subprocess.run([sys.executable, '-c', 'import time\\nt=time.process_time()\\n"
        "while time.process_time() - t < 0.5: pass\\ntime.sleep(0.3)'])"
    )
    proc = subprocess.Popen([sys.executable, "-c", code])
    with TreeSampler(proc.pid, interval=0.01) as sampler:
        proc.wait(timeout=30)
        time.sleep(0.05)
    assert sampler.cpu_seconds(exclude=(proc.pid,)) >= 0.4
    assert sampler.peak_rss_mb() > 0


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "study-save", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
