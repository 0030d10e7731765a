"""Smoke test of scripts/counts.py, the size counts each change reports."""

import os
import subprocess
import sys

SCRIPT = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "counts.py")


def test_counts_prints_one_integer_per_name():
    out = subprocess.run([sys.executable, SCRIPT], capture_output=True, text=True,
                         check=True).stdout
    counts = dict(line.split(" ") for line in out.splitlines())
    assert {"src_lines", "cli_options", "env_vars_read", "config_fields",
            "public_defs"} <= set(counts)
    assert all(value.isdigit() for value in counts.values()), out
