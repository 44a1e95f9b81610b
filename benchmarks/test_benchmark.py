"""Self-tests of the benchmark, run from the repository root with

    python3 -m pytest benchmarks -q

They use shrunken copies of the three workload shapes so that every
worker call takes a second or two; the full shapes are checked by every
benchmark run itself (commit count, oracle, fingerprint agreement).
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import histories
import tracing
from run import END_TO_END_UNITS, ROOT, Runner
from worker import PROBE_REFERENCE_S, scaled_times

TINY = {
    "edit-heavy": dict(files=4, methods=3, commits=14),
    "graph-heavy": dict(files=12, methods=4, commits=10),
    "fork-heavy": dict(files=8, methods=3, commits=30, forks=5),
}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    shapes = {name: dataclasses.replace(histories.WORKLOADS[name], **sizes)
              for name, sizes in TINY.items()}
    monkeypatch.setattr(histories, "WORKLOADS", shapes)

    def make(workload: str, seed: int = 7, name: str = "data") -> Path:
        return histories.generate(workload, seed, tmp_path / f"{workload}-{seed}-{name}")

    return make


def test_same_seed_same_commit_ids_and_oracle(tiny):
    for workload in TINY:
        first = tiny(workload, name="a") / "oracle.json"
        second = tiny(workload, name="b") / "oracle.json"
        assert first.read_bytes() == second.read_bytes()
        other = tiny(workload, seed=8) / "oracle.json"
        assert json.loads(other.read_text())["commit_ids"] != \
            json.loads(first.read_text())["commit_ids"]


def test_oracle_shapes(tiny):
    edit = json.loads((tiny("edit-heavy") / "oracle.json").read_text())
    assert edit["commits"] == TINY["edit-heavy"]["commits"] + 1
    assert edit["merges"] == 0 and edit["entries"]
    fork = json.loads((tiny("fork-heavy") / "oracle.json").read_text())
    assert fork["commits"] == TINY["fork-heavy"]["commits"] + 1
    assert fork["merges"] == TINY["fork-heavy"]["forks"]
    reasons = {e[3] for e in fork["entries"]}
    assert {histories.DROP_NON_ASCII, histories.DROP_SYNTAX} <= reasons


@pytest.mark.parametrize("workload", sorted(TINY))
def test_traced_run_matches_untraced(tiny, workload):
    runner = Runner(tiny(workload), time.perf_counter())
    untraced, traced, again = runner.call("analyze"), runner.call("trace"), runner.call("trace")
    assert runner.check([untraced, traced, again]) == []
    assert untraced["commits"] == runner.oracle["commits"]
    assert untraced["fingerprint"] == traced["fingerprint"] == again["fingerprint"]
    known = sum(1 for e in runner.oracle["entries"] if e[3])
    assert untraced["misses"] == known == (workload == "fork-heavy") * known

    layers, repeat = traced["layers"], again["layers"]
    assert set(layers) | {"pipeline.trace_overhead_ratio"} == set(tracing.metric_units())
    counts = [k for k in layers if k.endswith("_calls")] + [
        "syntax.parse_unique_texts", "astdiff.actions", "callgraph.nodes_final",
        "callgraph.edges_final", "callgraph.checkpoints_live_peak", "pipeline.records"]
    assert {k: layers[k] for k in counts} == {k: repeat[k] for k in counts}

    self_total = sum(layers[span + "_s"] for span in tracing.SPANS) + layers["pipeline.self_s"]
    assert self_total == pytest.approx(layers["pipeline.traced_analyze_s"], abs=1e-6)
    assert layers["repo.changed_files_calls"] == runner.oracle["commits"]
    forked = workload == "fork-heavy"
    assert (layers["callgraph.checkpoint_calls"] > 0) == forked
    assert (layers["callgraph.restore_calls"] > 0) == forked
    assert (layers["repo.binary_blobs"] > 0) == forked
    assert (layers["syntax.parse_errors"] > 0) == forked


def test_scaled_times_follow_the_probes():
    times = {"a": 0.010, "b": 0.020, "c": 4.0}

    def probes(speeds):
        out, now = [], 0.0
        for speed, t in zip(speeds, [*times.values(), 0.0]):
            now += 0.005
            out.append((speed, 0.005, now))
            now += t
        return out

    ref = PROBE_REFERENCE_S
    commit_ms, total = scaled_times(times, 4.1, probes([ref] * 4))
    assert commit_ms == pytest.approx([10, 20, 4000]) and total == pytest.approx(4.1)
    commit_ms, total = scaled_times(times, 4.1, probes([2 * ref] * 4))
    assert commit_ms == pytest.approx([5, 10, 2000]) and total == pytest.approx(2.05)
    # a short commit sees only its two ends; the long last one sees all four
    commit_ms, _ = scaled_times(times, 4.1, probes([ref, ref, 3 * ref, 3 * ref]))
    assert commit_ms == pytest.approx([10, 10, 4000 / 2])
    with pytest.raises(RuntimeError):
        scaled_times(times, 4.1, probes([ref] * 3))


def test_refuses_to_run_without_sources(tmp_path):
    bench = tmp_path / "benchmarks"
    bench.mkdir()
    for path in Path(__file__).parent.glob("*.py"):
        shutil.copy(path, bench / path.name)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        [sys.executable, *command[1:], "--workload", "edit-heavy", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_names_every_reported_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == tracing.metric_units()
    assert [w["name"] for w in bench["workloads"]] == list(histories.WORKLOADS)
