"""Fixtures and helpers that several test modules share."""

import os
import subprocess
import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest

import sardist
from sardist.autodiff import Tensor

SRC = os.path.dirname(os.path.dirname(os.path.abspath(sardist.__file__)))
TESTS = os.path.dirname(os.path.abspath(__file__))


@pytest.fixture
def started(monkeypatch):
    """Every `threading.Thread` started from now on."""
    threads, start = [], threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda t: (threads.append(t), start(t))[1])
    return threads


class ConstantStub:
    """Model stand-in that forecasts a constant everywhere."""

    def __init__(self, size: int, mu_value: float = 1.0, sigma_value: float = 1.0):
        self.cfg = SimpleNamespace(input_size=size)
        self.mu_value = mu_value
        self.sigma_value = sigma_value
        self.windows_seen = 0
        self.forward_sizes = []

    def forward(self, x, train=False, rng=None):
        b, t, c, h, w = x.shape
        self.windows_seen += b
        self.forward_sizes.append(b)
        mu = Tensor(np.full((b, c, h, w), self.mu_value, dtype=np.float32))
        sigma = Tensor(np.full((b, c, h, w), self.sigma_value, dtype=np.float32))
        return mu, sigma


def run_under_optimize(code: str) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of `code` run by python -O (no asserts) -W error (any
    warning raises), with the package and the test modules importable."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC, TESTS, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-O", "-W", "error", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def payload_offset(blob: bytes) -> int:
    """Where the payload of container bytes `blob` starts: past magic, length and header."""
    return 8 + int.from_bytes(blob[4:8], "little")


def edit_header(path, edit) -> None:
    """Replace the JSON header of the container file `path` (a pathlib.Path) by
    `edit(header bytes)`, with the length field to match; the payload stays."""
    blob = path.read_bytes()
    start = payload_offset(blob)
    header = edit(blob[8:start])
    path.write_bytes(blob[:4] + len(header).to_bytes(4, "little") + header + blob[start:])
