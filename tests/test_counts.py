"""Smoke test of scripts/counts.py, the size counts each change reports."""

import importlib.util
import os
import subprocess
import sys

SCRIPT = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "counts.py")


def test_counts_prints_one_integer_per_name():
    out = subprocess.run([sys.executable, SCRIPT], capture_output=True, text=True,
                         check=True).stdout
    counts = dict(line.split(" ") for line in out.splitlines())
    assert {"src_lines", "code_lines", "cli_options", "env_vars_read", "config_fields",
            "public_defs"} <= set(counts)
    assert all(value.isdigit() for value in counts.values()), out


def load_counts_script():
    spec = importlib.util.spec_from_file_location("counts", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: 7 code lines: the import, the def and class lines, the two lines of `text`, the return
#: and `y = 1`; the docstrings, comments and blank lines are not code
FIXTURE = '''"""A module docstring,
over two lines."""

import os  # a trailing comment


def f(x):
    """A function's docstring."""
    # a comment line
    text = """a string that is a value,
    not a docstring"""
    return os.sep + text + x


class C:
    """A class docstring."""

    y = 1
'''


def test_code_lines_leave_out_blanks_comments_and_docstrings():
    counts = load_counts_script()
    assert counts.code_lines(FIXTURE) == 7
    assert counts.code_lines("") == 0
    totals = counts.counts()
    assert 0 < totals["code_lines"] < totals["src_lines"]
