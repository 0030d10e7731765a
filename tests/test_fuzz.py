"""Fuzz every artifact kind through the command line.

Each example copies a small set of valid artifacts, truncates, bit-flips or
garbles one file, and runs the command that reads it. The CLI contract must
hold whatever the bytes: exit 0, or exit 1 or 2 with exactly one stderr line
starting with ``error:`` or ``i/o error:``, and never an uncaught exception.
A truncated file is always malformed, so truncation must exit 1 or 2. A
flipped or garbled byte can leave a valid file (a mantissa bit of a weight,
a digit of a seed), so exit 0 is allowed there, with nothing on stderr. A
warning would reach stderr too, so none may be raised.
"""

import contextlib
import io
import json
import os
import shutil
import tempfile
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sardist.cli import main
from sardist.model import Model, ModelConfig, save_checkpoint

from conftest import payload_offset

MAHALANOBIS = ["metric", "--kind", "mahalanobis", "--stack", "{r}/s.rts", "--mu", "{r}/mu.rts",
               "--sigma", "{r}/sigma.rts", "--out", "{r}/o.rts"]
EVAL = ["eval", "--method", "mahalanobis", "--stack", "{r}/s.rts", "--truth", "{r}/m.rts",
        "--mu", "{r}/mu.rts", "--sigma", "{r}/sigma.rts", "--out-dir", "{r}/report"]
ESTIMATE = ["estimate", "--checkpoint", "{r}/ckpt", "--input", "{r}/s.rts",
            "--out-mu", "{r}/a.rts", "--out-sigma", "{r}/b.rts"]
# (target file, a command that reads it); {r} is the artifact root. A target
# ending in "#header" has its magic, length and JSON header mutated; the
# checkpoint's weights.bin target has its payload mutated.
CASES = [
    ("s.rts", ["metric", "--kind", "logratio", "--stack", "{r}/s.rts", "--out", "{r}/o.rts"]),
    ("m.rts", ["eval", "--method", "logratio", "--stack", "{r}/s.rts",
               "--truth", "{r}/m.rts", "--out-dir", "{r}/report"]),
    ("d.rts", ["delineate", "--metric", "{r}/d.rts", "--tau", "1", "--out", "{r}/o.rts"]),
    ("mu.rts", MAHALANOBIS),
    ("sigma.rts", MAHALANOBIS),
    ("mu.rts", EVAL),
    ("sigma.rts", EVAL),
    ("ckpt/weights.bin#header", ESTIMATE),
    ("ckpt/weights.bin", ESTIMATE),
    ("corpus/corpus.json", ["despeckle", "--manifest", "{r}/corpus/corpus.json",
                            "--out-dir", "{r}/den", "--tv-iterations", "2"]),
    ("cfg.json", ["metric", "--config", "{r}/cfg.json", "--out", "{r}/o.rts"]),
]
CASE_IDS = [f"{target}-eval" if argv is EVAL else target for target, argv in CASES]


def run_cli(root, argv):
    """Run the CLI inside `root`; returns (exit code, stderr text).

    Warnings are recorded: run as a process, they would print to stderr."""
    argv = [a.format(r=root) for a in argv]
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        code = main(argv)
    assert not caught, [str(w.message) for w in caught]
    return code, err.getvalue()


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """One valid file of each kind, built through the CLI."""
    root = str(tmp_path_factory.mktemp("fuzz"))
    save_checkpoint(Model(ModelConfig(d_model=8, num_heads=2, num_layers=1, ff_dim=8),
                          seed=0), os.path.join(root, "ckpt"))
    # one value of each flag type, so that mutations reach every converter
    with open(os.path.join(root, "cfg.json"), "w") as fh:
        fh.write(json.dumps({"allow-raw": False, "baseline-frames": 2, "frame": -1,
                             "kind": "logratio", "stack": os.path.join(root, "s.rts")}) + "\n")
    for argv in (
        ["synth", "--kind", "scene", "--seed", "1", "--height", "16", "--width", "16",
         "--steps", "4", "--out", "{r}/s.rts", "--mask", "{r}/m.rts"],
        ["synth", "--kind", "corpus", "--count", "2", "--seed", "3", "--height", "16",
         "--width", "16", "--steps", "4", "--out-dir", "{r}/corpus"],
        ["estimate", "--checkpoint", "{r}/ckpt", "--input", "{r}/s.rts", "--drop-last", "2",
         "--out-mu", "{r}/mu.rts", "--out-sigma", "{r}/sigma.rts"],
        MAHALANOBIS[:-1] + ["{r}/d.rts"],
    ):
        assert run_cli(root, argv) == (0, "")
    for target, argv in CASES:  # every command passes on the valid files
        assert run_cli(root, argv) == (0, ""), target
    return root


def mutate(blob, mutation, lo=0, hi=None):
    """`blob` with `mutation` applied at a position in blob[lo:hi], the whole blob by default."""
    hi = len(blob) if hi is None else hi
    kind, pos = mutation[0], lo + mutation[1] % (hi - lo)
    if kind == "truncate":
        # JSON files end in a newline, so drop at least two bytes
        return blob[:lo + (pos - lo) % (hi - lo - 1)]
    if kind == "flip":
        return blob[:pos] + bytes([blob[pos] ^ (1 << mutation[2])]) + blob[pos + 1:]
    return blob[:pos] + mutation[2] + blob[pos + len(mutation[2]):]


MUTATIONS = st.one_of(
    st.tuples(st.just("truncate"), st.integers(0, 1 << 20)),
    st.tuples(st.just("flip"), st.integers(0, 1 << 20), st.integers(0, 7)),
    st.tuples(st.just("garble"), st.integers(0, 1 << 20), st.binary(min_size=1, max_size=8)),
)


@pytest.mark.parametrize("target, argv", CASES, ids=CASE_IDS)
@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(mutation=MUTATIONS)
# byte 11 of a checkpoint header is a letter of its first key, "config": a
# renamed key and a byte that is not UTF-8
@example(mutation=("flip", 11, 0))
@example(mutation=("flip", 11, 7))
# bit 6 of payload byte 3 is the top exponent bit of the first weight: a huge
# but finite weight that overflows inside layer norm
@example(mutation=("flip", 3, 6))
def test_malformed_artifact_is_one_error_line(artifacts, target, argv, mutation):
    with tempfile.TemporaryDirectory() as root:
        shutil.copytree(artifacts, root, dirs_exist_ok=True)
        name, _, part = target.partition("#")
        path = os.path.join(root, name)
        with open(path, "rb") as fh:
            blob = fh.read()
        if part == "header":
            region = 0, payload_offset(blob)
        elif name.endswith(".bin"):   # the checkpoint's payload
            region = payload_offset(blob), len(blob)
        else:
            region = 0, len(blob)
        with open(path, "wb") as fh:
            fh.write(mutate(blob, mutation, *region))
        code, err = run_cli(root, argv)
    if mutation[0] == "truncate":
        assert code in (1, 2), err
    if code == 0:
        assert err == ""
    else:
        assert code in (1, 2)
        assert err.count("\n") == 1 and err.endswith("\n"), err
        assert err.startswith(("error: ", "i/o error: ")), err
