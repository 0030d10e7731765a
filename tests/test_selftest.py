"""Tests of the built-in invariant checks (`sardist selftest`)."""

import os
import subprocess
import sys

import sardist
from sardist.selftest import run_selftest

SRC = os.path.dirname(os.path.dirname(os.path.abspath(sardist.__file__)))


def test_all_checks_pass(capsys):
    assert run_selftest() == 0
    assert capsys.readouterr().out.splitlines()[-1] == "all 12 checks passed"


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
    assert "1 of 12 checks failed" in proc.stdout
