"""Toy-size smoke test of the benchmark: result schema and span tree, no timings.

Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracing  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)

OWN_METRICS = {
    "train-b1": {"train_windows_per_s", "train_final_nll"},
    "map-scene": {"map_scene_s", "map_pr_auc", "map_logratio_pr_auc"},
    "prepare-corpus": {"prepare_sequences_per_s"},
}
ENV_KEYS = {"nproc", "threads_flag", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
            "python", "numpy", "blas", "commit"}


def run_bench(workload, trace, out_dir, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--toy",
         "--out-dir", str(out_dir)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def test_self_time_subtracts_union_of_concurrent_children():
    parent = tracing.Span(1, "inference.sweep_estimate", 0.0, None, 0, "main")
    parent.end = 10.0
    kids = []
    for i, (start, end) in enumerate([(1.0, 5.0), (2.0, 4.0), (4.5, 8.0), (9.5, 12.0)]):
        kid = tracing.Span(2 + i, "model.Model.forward", start, 1, 0, f"worker-{i % 2}")
        kid.end = end
        kids.append(kid)
    own = tracing.self_times([parent, *kids])
    assert own[1] == 10.0 - 7.5   # [1, 8] and [9.5, 10] covered
    assert own[2] == 4.0


def test_layer_table_matches_benchmark_json():
    assert [(m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]] == \
        [(name, unit, better) for name, unit, better, _ in tracing.LAYER_METRICS]
    assert {w["name"] for w in BENCH["workloads"]} == set(OWN_METRICS)


@pytest.mark.parametrize("workload", sorted(OWN_METRICS))
@pytest.mark.parametrize("trace", [0, 1])
def test_result_schema(workload, trace, tmp_path):
    proc = run_bench(workload, trace, tmp_path)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {n: m["unit"] for n, m in last["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    for metric in last["metrics"].values():
        assert set(metric) == {"value", "unit"}
        assert isinstance(metric["value"], (int, float))

    with open(tmp_path / f"result-{workload}-trace{trace}.json", encoding="utf-8") as fh:
        result = json.load(fh)
    assert ENV_KEYS <= set(result["env"])
    expected = set(last["metrics"]) | {"fail_ratio"} | (set() if trace else OWN_METRICS[workload])
    assert set(result["metrics"]) == expected
    for metric in result["metrics"].values():
        assert metric["unit"] and metric["samples"] >= 1
    assert result["digests"]["ops"] and result["digests"]["setup"]
    assert all(len(d) == 64 for d in result["digests"]["ops"] + result["digests"]["setup"])

    if trace:
        with open(tmp_path / f"spans-{workload}.json", encoding="utf-8") as fh:
            spans = {s["id"]: s for s in json.load(fh)}
        assert any(s["name"] == "cli.main" for s in spans.values())
        for span in spans.values():
            root = span
            while root["parent"] is not None:
                root = spans[root["parent"]]
                assert root["op"] == span["op"]
            assert root["name"] in ("op", "check")
            assert root["start"] <= span["start"] <= span["end"] <= root["end"]


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("prepare-corpus", 0, tmp_path / "out", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
