"""Tests of the built-in invariant checks (`sardist selftest`)."""

import ast
import glob
import os
import subprocess
import sys

import sardist
from sardist.selftest import run_selftest

SRC = os.path.dirname(os.path.dirname(os.path.abspath(sardist.__file__)))
ROOT = os.path.dirname(SRC)


def _names(path: str) -> set[str]:
    """Every name that the Python file at `path` uses, imports or reads as an attribute."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    return {getattr(node, attr) for node in ast.walk(tree)
            for attr in ("id", "attr", "name") if isinstance(getattr(node, attr, None), str)
            and not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}


def test_no_assert_statements_in_the_package():
    # python -O strips asserts, so no check in src/ may be one
    found = []
    for path in sorted(glob.glob(os.path.join(SRC, "sardist", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        found += [f"{os.path.basename(path)}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_every_module_level_def_has_a_caller_outside_selftest_and_tests():
    # a function or class that only the self-checks and tests name is code
    # without a production caller; src/ (its own module too), scripts/ and
    # perfbench/ are callers, a definition does not name itself
    modules = sorted(glob.glob(os.path.join(SRC, "sardist", "*.py")))
    callers = [p for p in modules if os.path.basename(p) != "selftest.py"]
    callers += sorted(glob.glob(os.path.join(ROOT, "scripts", "*.py")))
    callers += sorted(glob.glob(os.path.join(ROOT, "perfbench", "*.py")))
    named = set().union(*map(_names, callers))
    uncalled = []
    for path in modules:
        with open(path, encoding="utf-8") as fh:
            body = ast.parse(fh.read(), filename=path).body
        uncalled += [f"{os.path.basename(path)}:{node.name}" for node in body
                     if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                     and node.name not in named | _names(path)]
    assert uncalled == []


def test_all_checks_pass(capsys):
    assert run_selftest() == 0
    assert capsys.readouterr().out.splitlines()[-1] == "all 13 checks passed"


def test_broken_check_fails_under_optimize():
    # python -O strips bare asserts, so a failed check must raise on its own
    code = ("import sys, sardist.selftest as s\n"
            "assert False, 'asserts are not stripped'\n"
            "s.lower_median = lambda values, axis=0: -1.0\n"
            "sys.exit(s.run_selftest())\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "FAIL lower median tie-break" in proc.stdout
    assert "1 of 13 checks failed" in proc.stdout
