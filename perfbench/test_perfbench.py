"""Tests of the kernel benchmark itself (smoke sizes).

Run from the repository root::

    python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
from spans import Tracer, layer_metrics, self_times  # noqa: E402
from workloads import WORKLOADS, matrix_digest, run_rep  # noqa: E402


def _bench(*argv):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *argv],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    return out, json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_reports_every_end_to_end_metric(workload):
    out, result = _bench("--workload", workload, "--seed", "3",
                         "--seconds", "0", "--trace", "0", "--smoke")
    assert result["correct"], out.stderr
    assert result["failed"] == 0
    assert result["attempted"] >= run.MIN_REPS + 1
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_smoke_traced_run_reports_every_per_layer_metric():
    out, result = _bench("--workload", "newscast-faults", "--seed", "3",
                         "--seconds", "0", "--trace", "1", "--smoke")
    assert result["correct"], out.stderr
    assert set(result["metrics"]) == set(run.PER_LAYER)
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert metrics["messages.partials"] > 0
    assert metrics["messages.delay_calls"] > 0
    assert metrics["checkpoint.bytes"] > 0
    assert metrics["invariants.observe_s"] > 0
    assert metrics["backend.view_merge_s"] > 0
    assert metrics["lifecycle.joins"] > 0


def test_self_times_cover_the_traced_run(tmp_path):
    workload = WORKLOADS["newscast-faults"]
    inputs = workload.inputs(workload.smoke_n, 5)
    tracer = Tracer().install()
    try:
        result = run_rep(workload, inputs, tmp_path, tracer)
    finally:
        tracer.uninstall()
    assert not result["failures"]
    layers = layer_metrics(tracer.spans, tracer.counts)
    run_span = next(s for s in tracer.spans if s[0] == "run")
    duration = run_span[2] - run_span[1]
    under_run = sum(
        own for span, own in zip(tracer.spans, self_times(tracer.spans))
        if span[3] != -1 and _root_of(tracer.spans, span) == "run"
    )
    assert under_run + layers["trace.unattributed_frac"] * duration == (
        pytest.approx(duration, rel=1e-9)
    )
    assert duration <= result["metrics"]["run_s"] * 1.01
    assert layers["backend.view_merge_s"] > 0
    assert layers["lifecycle.joins"] > 0


def _root_of(spans, span):
    while span[3] != -1:
        span = spans[span[3]]
    return span[0]


def test_self_time_arithmetic_on_a_hand_built_tree():
    spans = [
        ["run", 0.0, 10.0, -1, 0],
        ["engine.self_s", 1.0, 9.0, 0, 0],
        ["backend.batch_s", 2.0, 5.0, 1, 30],
        ["backend.tail_s", 4.0, 6.0, 1, 10],    # overlaps the batch span
        ["backend.conflict_s", 2.5, 3.0, 2, 40],
        ["backend.view_merge_s", 6.5, 8.0, 1, 0],
        ["backend.conflict_s", 7.0, 7.5, 5, 99],  # absorbed by the view merge
        ["resume", 11.0, 12.0, -1, 0],
        ["checkpoint.read_s", 11.2, 11.6, 7, 0],
        ["resume", 13.0, 14.0, -1, 0],           # averaged with the first
        ["checkpoint.read_s", 13.0, 13.2, 9, 0],
    ]
    assert self_times(spans) == pytest.approx(
        [2.0, 2.5, 2.5, 2.0, 0.5, 1.0, 0.5, 0.6, 0.4, 0.8, 0.2]
    )
    metrics = layer_metrics(spans, {"lifecycle.joins": 7})
    assert metrics["engine.self_s"] == pytest.approx(2.5)
    assert metrics["backend.batch_s"] == pytest.approx(2.5)
    assert metrics["backend.conflict_s"] == pytest.approx(0.5)
    assert metrics["backend.view_merge_s"] == pytest.approx(1.5)
    assert metrics["checkpoint.read_s"] == pytest.approx(0.3)
    assert metrics["trace.unattributed_frac"] == pytest.approx(0.2)
    assert metrics["backend.batch_share"] == pytest.approx(0.75)
    assert metrics["backend.scan_steps_per_exchange"] == pytest.approx(1.0)
    assert metrics["engine.cycle_s_p50"] == pytest.approx(8.0)
    assert metrics["lifecycle.joins"] == 7


def test_digest_check_fails_when_a_digest_is_perturbed():
    matrix = np.linspace(0.0, 1.0, 12).reshape(6, 2)
    alive = np.ones(6, dtype=bool)
    digest = matrix_digest(matrix, alive)
    nudged = matrix.copy()
    nudged[3, 1] = np.nextafter(nudged[3, 1], 2.0)
    assert matrix_digest(nudged, alive) != digest
    assert run.digest_errors([digest, digest], [digest, digest]) == []
    perturbed = digest[:-1] + ("0" if digest[-1] != "0" else "1")
    assert run.digest_errors([digest, perturbed], None)
    assert run.digest_errors([digest], [digest, perturbed])


def test_benchmark_json_matches_the_code():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == [
        (name, run.UNITS[name]) for name in run.END_TO_END
    ]
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(
        run.PER_LAYER.items()
    )


def test_a_torn_last_rep_line_is_dropped(tmp_path):
    path = tmp_path / "reps.jsonl"
    path.write_text('{"failures": []}\n{"failures": [], "metr')
    assert run._read_lines(path) == [{"failures": []}]
    assert run._read_lines(tmp_path / "missing.jsonl") == []
