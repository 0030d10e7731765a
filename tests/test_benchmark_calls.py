"""Every CLI call that the full-size benchmarks make resolves, without running it.

The toy-size smoke tests cannot see a declared bound that rejects a value only a
full-size call passes. A config checks itself when it is made, so each call here is
parsed, its flags resolved and every config of its subcommand built, and the call
stops at its first read or write of a file. The calls are recorded by stubbing the
benchmark's CLI runner; nothing under perfbench/ or scripts/ is edited.
"""

import importlib.util
import os
import sys

import pytest

from sardist import cli

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import workloads  # noqa: E402


class Reached(Exception):
    """The call built its configs and came to its first file."""


def reached(*args, **kwargs):
    raise Reached


# every function through which a subcommand first reads or writes a file
FIRST_FILE = ("generate_scene", "generate_training_corpus", "read_corpus_manifest",
              "load_corpus", "read_stack", "read_metric_map")


def resolve(monkeypatch, argv: list[str]) -> None:
    """Run `argv` through cli.main up to its first file; a bad flag or config fails."""
    with monkeypatch.context() as m:
        for name in FIRST_FILE:
            m.setattr(cli, name, reached)
        with pytest.raises(Reached):
            code = cli.main(argv)
            pytest.fail(f"{argv[0]} exited {code} before it reached a file: {argv}")


def workload_calls(monkeypatch, tmp_path, name: str) -> list[list[str]]:
    """The CLI calls of one set-up, prepare and op of a full-size perfbench workload."""
    calls = []
    monkeypatch.setattr(workloads.Workload, "cli",
                        lambda self, *argv: calls.append([str(a) for a in argv]))
    monkeypatch.setattr(workloads, "digest", lambda *paths: "")
    monkeypatch.setattr(workloads, "corpus_files", lambda directory: [])
    workload = workloads.WORKLOADS[name](str(tmp_path), 7, workloads.SIZES["full"],
                                         len(os.sched_getaffinity(0)))
    workload.setup()
    workload.prepare(0)
    workload.op(0)
    return calls


def benchmark_calls(monkeypatch, tmp_path) -> list[list[str]]:
    """The CLI calls of scripts/run_benchmark.py at its default settings."""
    spec = importlib.util.spec_from_file_location(
        "run_benchmark", os.path.join(ROOT, "scripts", "run_benchmark.py"))
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    calls = []
    monkeypatch.setattr(script, "step", lambda label, argv: calls.append(argv))
    monkeypatch.setattr(sys, "argv", ["run_benchmark.py"])
    monkeypatch.setattr("sardist.raster.read_json", lambda path: {"pr_auc": 1.0, "best_f1": 1.0})
    monkeypatch.setattr("sardist.raster.write_json", lambda path, value: None)
    monkeypatch.chdir(tmp_path)
    script.main()
    return calls


@pytest.mark.parametrize("source", [*workloads.WORKLOADS, "run_benchmark"])
def test_full_size_calls_resolve(monkeypatch, tmp_path, capsys, source):
    calls = (benchmark_calls(monkeypatch, tmp_path) if source == "run_benchmark"
             else workload_calls(monkeypatch, tmp_path, source))
    commands = {argv[0] for argv in calls}
    assert commands >= ({"synth", "despeckle", "train", "estimate", "metric", "eval"}
                        if source == "run_benchmark" else {"synth", "despeckle"}), commands
    capsys.readouterr()
    for argv in calls:
        resolve(monkeypatch, argv)
    assert capsys.readouterr().err == ""
