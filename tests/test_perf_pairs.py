"""Smoke tests of scripts/perf_pairs.py, the alternating perfbench pair runner."""

import importlib.util
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "scripts", "perf_pairs.py")
TOY = ["--workload", "prepare-corpus", "--seed", "0", "--pairs", "1", "--toy", "--seconds", "1"]


def run(parent: str, change: str, *extra: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, SCRIPT, parent, change, *TOY, *extra],
                          capture_output=True, text=True, timeout=600)


def test_repo_against_itself(tmp_path):
    proc = run(ROOT, ROOT, "--keep", str(tmp_path / "runs"))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split()[:3] for line in lines[:2]] == [["pair", "1", "parent"],
                                                        ["pair", "1", "change"]]
    # both sides ran the same code, so the same first op digest
    assert lines[0].split()[-1] == lines[1].split()[-1]
    rows = {line.split()[0]: line.split()[1:] for line in lines[3:]}
    assert set(rows) == {"setup_s", "op_s", "peak_rss_mb"}
    assert all(len(row) == 4 and row[3] in ("0/1", "1/1") for row in rows.values())
    for side in ("parent", "change"):
        assert os.path.isfile(tmp_path / "runs" / f"{side}-1" / "result-prepare-corpus-trace0.json")


def test_outputs_differ_compares_within_each_side():
    proc = run(ROOT, ROOT, "--outputs-differ")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "digests that differ between sides: none"


def test_failed_run_exits_one_and_says_why(tmp_path):
    proc = run(str(tmp_path), ROOT)
    assert proc.returncode == 1
    assert proc.stdout.startswith("pair 1 parent FAILED exit 2: ")
    assert proc.stdout.splitlines()[-1] == "1 run(s) not correct"


def load_script():
    spec = importlib.util.spec_from_file_location("perf_pairs", SCRIPT)
    perf_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(perf_pairs)
    return perf_pairs


def test_digest_mismatch_named():
    perf_pairs = load_script()
    same = {"digests": {"setup": ["s"], "ops": ["a", "b"]}}
    assert perf_pairs.digest_mismatches([same, same]) == []
    # a longer run adds ops the shorter one lacks, which is no mismatch
    other = {"digests": {"setup": ["s", "t"], "ops": ["a", "c", "d"]}}
    assert perf_pairs.digest_mismatches([same, other]) == [
        "set-up: 2 distinct digests", "op 1: 2 distinct digests"]


def test_digests_that_differ_between_sides_fail_only_without_the_flag():
    report = load_script().digest_report
    parent = {"digests": {"setup": ["s"], "ops": ["a", "b", "x", "y"]}}
    change = {"digests": {"setup": ["s"], "ops": ["a", "c", "x", "y"]}}
    good = {"parent": [parent, parent], "change": [change, change]}
    assert report(good, False) == (["digest mismatch: op 1: 2 distinct digests"], True)
    assert report(good, True) == (["digests that differ between sides: op 1: 2 distinct digests"],
                                  False)
    # under the flag the runs of one side must still agree; past three, the
    # digests that differ between the sides are counted
    good["change"].append({"digests": {"setup": ["t"], "ops": ["a", "c", "e", "f"]}})
    assert report(good, True) == (
        ["digest mismatch in change: set-up: 2 distinct digests",
         "digest mismatch in change: op 2: 2 distinct digests",
         "digest mismatch in change: op 3: 2 distinct digests",
         "digests that differ between sides: set-up: 2 distinct digests; "
         "op 1: 2 distinct digests; op 2: 2 distinct digests; 1 more"], True)


def test_probe_times_print_next_to_each_run_and_stay_with_keep(tmp_path, monkeypatch, capsys):
    perf_pairs = load_script()
    calls = []

    def fake_run_once(tree, out_dir, args):
        calls.append(out_dir)
        return {"correct": True, "digests": {"setup": ["s"], "ops": ["0123456789abcdef00"]},
                "metrics": {m: {"value": 1.0} for m in perf_pairs.METRICS}}

    monkeypatch.setattr(perf_pairs, "run_once", fake_run_once)
    keep = tmp_path / "runs"
    assert perf_pairs.main(["parent", "change", "--workload", "train-b1", "--seed", "0",
                            "--pairs", "2", "--seconds", "1", "--keep", str(keep)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:3] for line in lines[:4]] == [
        ["pair", "1", "parent"], ["pair", "1", "change"],
        ["pair", "2", "change"], ["pair", "2", "parent"]]
    for line, out_dir in zip(lines[:4], calls):
        words = line.split()
        assert words[3] == "sgemm" and words[5] == "stream" and words[-1] == "0123456789abcdef"
        with open(os.path.join(out_dir, "probe.json"), encoding="utf-8") as fh:
            probe = json.load(fh)
        # the printed times are the kept ones, each a real (positive) timing
        assert [f"{probe['sgemm_s']:.3f}", f"{probe['stream_s']:.3f}"] == [words[4], words[6]]
        assert probe["sgemm_s"] > 0 and probe["stream_s"] > 0
    assert sorted(os.listdir(keep)) == ["change-1", "change-2", "parent-1", "parent-2"]
