"""End-to-end tests of the command line interface."""

import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import sardist
from sardist import cli, native, preprocess
from sardist.errors import FormatError
from sardist.cli import _build_parser, main
from sardist.disturbance import lower_median
from sardist.evaluation import run_experiment
from sardist.inference import SweepConfig
from sardist.model import Model, ModelConfig, save_checkpoint
from sardist.raster import (
    RasterStack,
    read_array,
    read_delineation,
    read_estimate,
    read_mask,
    read_metric_map,
    read_stack,
    write_array,
    write_stack,
)
from sardist.synth import SynthConfig, generate_training_corpus
from sardist.training import TrainConfig

from conftest import edit_header, payload_offset

TINY_MODEL_FLAGS = [
    "--model", "transformer", "--input-size", "16", "--patch-size", "8",
    "--d-model", "8", "--heads", "2", "--layers", "1", "--ff", "8",
    "--dropout", "0.0",
]


def run(*argv) -> int:
    return main(list(argv))


def tree_bytes(root, exclude_manifests=True):
    """Map of relative path -> file bytes for determinism comparisons."""
    out = {}
    for dirpath, _, names in os.walk(root):
        for name in sorted(names):
            if exclude_manifests and name.endswith("manifest.json"):
                continue
            full = os.path.join(dirpath, name)
            with open(full, "rb") as fh:
                out[os.path.relpath(full, root)] = fh.read()
    return out


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A tiny corpus and checkpoint shared by the slower CLI tests."""
    root = tmp_path_factory.mktemp("cli_train")
    corpus = str(root / "corpus")
    ckpt = str(root / "ckpt")
    assert run("synth", "--kind", "corpus", "--count", "4", "--seed", "3",
               "--out-dir", corpus) == 0
    assert run("train", "--corpus", os.path.join(corpus, "corpus.json"),
               "--out", ckpt, *TINY_MODEL_FLAGS,
               "--epochs", "1", "--batch-size", "2", "--lr", "1e-4",
               "--seed", "0") == 0
    return root


# ---------------------------------------------------------------------------
# exit codes and plumbing
# ---------------------------------------------------------------------------

class TestPlumbing:
    def test_no_command_exits_1(self):
        assert run() == 1

    def test_repeated_calls_in_one_process(self, tmp_path, capsys):
        # the parser is built once per process: a usage error (exit 2) or a
        # validation error (exit 1) between good calls leaves nothing behind
        raw, den = str(tmp_path / "raw.rts"), str(tmp_path / "den.rts")
        calls = [
            ["synth", "--kind", "scene", "--seed", "9", "--height", "8", "--width", "8",
             "--steps", "3", "--out", raw, "--mask", str(tmp_path / "m.rts")],
            ["despeckle", "--input", raw, "--bogus"],
            ["despeckle", "--input", raw, "--out", den],
            ["despeckle", "--input", raw, "--out", den, "--tv-step", "0.3"],
            ["synth", "--kind", "cube"],
            ["despeckle", "--input", raw, "--out", den, "--tv-iterations", "3"],
        ]

        def call(argv):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            return code, capsys.readouterr().err

        alone = []
        for argv in calls:
            _build_parser.cache_clear()
            alone.append(call(argv))
        assert [code for code, _ in alone] == [0, 2, 0, 1, 1, 0]
        assert [call(argv) for argv in calls] == alone

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            run("--version")
        assert info.value.code == 0
        assert capsys.readouterr().out.strip()

    def test_validation_failure_exits_1(self, tmp_path, capsys):
        # synth scene without --out/--mask
        assert run("synth", "--kind", "scene", "--seed", "1") == 1
        # malformed config JSON, a non-numeric or infinite config value: one
        # error line naming the file or key
        bad_json = tmp_path / "bad.json"
        bad_json.write_text('{"stride": 4,')
        bad_value = tmp_path / "value.json"
        bad_value.write_text('{"stride": "abc"}')
        bad_number = tmp_path / "number.json"
        bad_number.write_text('{"stride": Infinity}')
        # each is caught before any input file is opened
        estimate = ["estimate", "--checkpoint", str(tmp_path / "ckpt"),
                    "--input", str(tmp_path / "s.rts"), "--out-mu", str(tmp_path / "mu.rts"),
                    "--out-sigma", str(tmp_path / "sigma.rts")]
        capsys.readouterr()
        for config, named in ((bad_json, "bad.json"), (bad_value, "stride"),
                              (bad_number, "stride")):
            assert run(*estimate, "--config", str(config)) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and named in err and err.count("\n") == 1
        # a checkpoint whose header config carries an unknown key
        cfg = ModelConfig(d_model=8, num_heads=2, num_layers=1, ff_dim=8)
        save_checkpoint(Model(cfg, seed=0), str(tmp_path / "ckpt"))
        weights = tmp_path / "ckpt" / "weights.bin"

        def add_bogus(blob):
            meta = json.loads(blob)
            meta["config"]["bogus"] = 1
            return json.dumps(meta).encode()
        edit_header(weights, add_bogus)
        assert run("synth", "--kind", "scene", "--seed", "1", "--height", "16",
                   "--width", "16", "--steps", "3", "--out", str(tmp_path / "s.rts"),
                   "--mask", str(tmp_path / "m.rts")) == 0
        capsys.readouterr()
        assert run(*estimate) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "bogus" in err and err.count("\n") == 1
        # a TV weight that is not a finite number would write the input back unchanged
        for weight in ("nan", "inf"):
            assert run("despeckle", "--input", str(tmp_path / "s.rts"), "--tv-weight", weight,
                       "--out", str(tmp_path / "den.rts")) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "tv_weight_db" in err and err.count("\n") == 1
        assert not os.path.exists(tmp_path / "den.rts")
        # an infinite disturbance would saturate the disturbed pixels at the clip bound
        assert run("synth", "--kind", "scene", "--delta-db", "inf", "--out",
                   str(tmp_path / "inf.rts"), "--mask", str(tmp_path / "inf_mask.rts")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "disturbance_delta_db" in err and err.count("\n") == 1
        assert not os.path.exists(tmp_path / "inf.rts")
        # a checkpoint header that is not UTF-8
        edit_header(weights, lambda blob: b'{"config": "\xff"}')
        assert run(*estimate) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "weights.bin" in err and err.count("\n") == 1
        # a path flag whose config value is not a string, for a write and a read
        out_int = tmp_path / "out.json"
        out_int.write_text('{"out": 7}')
        stack_int = tmp_path / "stack.json"
        stack_int.write_text('{"stack": 5}')
        metric = ["metric", "--kind", "logratio"]
        for args, config, key in (
                (["--stack", str(tmp_path / "s.rts")], out_int, "out"),
                (["--out", str(tmp_path / "l.rts")], stack_int, "stack")):
            assert run(*metric, *args, "--config", str(config)) == 1
            err = capsys.readouterr().err
            assert (err.startswith("error: ") and config.name in err and key in err
                    and err.count("\n") == 1)
        assert not os.path.exists(tmp_path / "l.rts")

    def test_allow_raw_keeps_structural_checks(self, tmp_path, capsys):
        # timestamps out of order: --allow-raw skips only the (0,1) range check
        stack = str(tmp_path / "s.rts")
        write_array(stack, np.full((3, 2, 4, 4), 0.25, np.float32),
                    ["2024-03-01", "2024-01-01", "2024-01-01"])
        capsys.readouterr()
        for flags in ((), ("--allow-raw",)):
            assert run("metric", "--kind", "logratio", "--stack", stack,
                       "--out", str(tmp_path / "l.rts"), *flags) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "increasing" in err and err.count("\n") == 1
        assert not os.path.exists(tmp_path / "l.rts")

    def test_missing_input_exits_2(self, tmp_path):
        out = str(tmp_path / "o.rts")
        missing = str(tmp_path / "missing.rts")
        assert run("despeckle", "--input", missing, "--out", out) == 2

    def test_bad_flag_value_exits_1(self, tmp_path):
        out = str(tmp_path / "s.rts")
        mask = str(tmp_path / "m.rts")
        assert run("synth", "--kind", "scene", "--steps", "1",
                   "--out", out, "--mask", mask) == 1

    def test_config_file_and_flag_precedence(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"height": 20, "width": 20, "steps": 4}))
        out_a = str(tmp_path / "a.rts")
        out_b = str(tmp_path / "b.rts")
        # config alone
        assert run("synth", "--kind", "scene", "--config", str(cfg_path),
                   "--out", out_a, "--mask", str(tmp_path / "ma.rts")) == 0
        assert read_stack(out_a).values.shape[2] == 20
        # flag beats config
        assert run("synth", "--kind", "scene", "--config", str(cfg_path),
                   "--height", "24", "--width", "24",
                   "--out", out_b, "--mask", str(tmp_path / "mb.rts")) == 0
        assert read_stack(out_b).values.shape[2] == 24

    def test_manifest_written_next_to_output(self, tmp_path):
        out = str(tmp_path / "s.rts")
        mask = str(tmp_path / "m.rts")
        assert run("synth", "--kind", "scene", "--seed", "5", "--height", "16",
                   "--width", "16", "--steps", "4", "--out", out,
                   "--mask", mask) == 0
        manifest = json.loads((tmp_path / "s.rts.manifest.json").read_text())
        assert manifest["subcommand"] == "synth"
        assert manifest["seed"] == 5
        assert manifest["outputs"] == [out, mask]
        assert manifest["config"]["height"] == 16


@pytest.fixture(scope="module")
def scored(tmp_path_factory):
    """A 6-frame scene, an untrained checkpoint, its --drop-last 2 estimate and a
    Mahalanobis map of the last frame."""
    root = tmp_path_factory.mktemp("cli_scored")
    save_checkpoint(Model(ModelConfig(d_model=8, num_heads=2, num_layers=1, ff_dim=8),
                          seed=0), str(root / "ckpt"))
    for argv in (
        ["synth", "--kind", "scene", "--seed", "1", "--height", "16", "--width", "16",
         "--steps", "6", "--out", "{r}/s.rts", "--mask", "{r}/m.rts"],
        ["estimate", "--checkpoint", "{r}/ckpt", "--input", "{r}/s.rts", "--drop-last", "2",
         "--out-mu", "{r}/mu.rts", "--out-sigma", "{r}/sigma.rts"],
        ["metric", "--kind", "mahalanobis", "--stack", "{r}/s.rts", "--mu", "{r}/mu.rts",
         "--sigma", "{r}/sigma.rts", "--out", "{r}/d.rts"],
    ):
        assert run(*(a.format(r=root) for a in argv)) == 0
    return root


ESTIMATE = ["estimate", "--checkpoint", "{r}/ckpt", "--input", "{r}/s.rts",
            "--out-mu", "{o}/mu.rts", "--out-sigma", "{o}/sigma.rts"]
SCENE = ["synth", "--kind", "scene", "--height", "16", "--width", "16", "--steps", "4",
         "--out", "{o}/s.rts", "--mask", "{o}/m.rts"]
MAHALANOBIS = ["metric", "--kind", "mahalanobis", "--stack", "{r}/s.rts", "--mu", "{r}/mu.rts",
               "--sigma", "{r}/sigma.rts", "--out", "{o}/d.rts"]
DELINEATE = ["delineate", "--metric", "{r}/d.rts", "--out", "{o}/b.rts"]
METRIC = ["metric", "--stack", "{r}/s.rts", "--out", "{o}/l.rts"]
LOGRATIO = ["metric", "--kind", "logratio", "--stack", "{r}/s.rts"]
ABLATE = ["ablate", "--grid", "learning-rate", "--corpus-size", "1", "--epochs", "1",
          "--batch-size", "1", "--out-dir", "{o}/a"]
# (source, flag type, argv, config file contents, flag or key the error names); a
# command line cannot give a switch a value, and any argv word is a path string
VALUE_CASES = [
    ("argv", "int", ESTIMATE + ["--stride", "abc"], None, "--stride"),
    ("config", "int", ESTIMATE, {"stride": 2.9}, "stride"),
    ("config", "int", SCENE, {"seed": True}, "seed"),
    ("config", "int", MAHALANOBIS, {"frame": 1.7}, "frame"),
    ("argv", "float", DELINEATE + ["--tau", "abc"], None, "--tau"),
    ("config", "float", DELINEATE, {"tau": "3"}, "tau"),
    ("config", "switch", LOGRATIO + ["--out", "{o}/l.rts"], {"allow-raw": "no"}, "allow-raw"),
    ("argv", "choice", METRIC + ["--kind", "median"], None, "--kind"),
    ("config", "choice", METRIC, {"kind": "median"}, "kind"),
    ("config", "path", LOGRATIO, {"out": 7}, "out"),
    ("config", "seed", SCENE, {"seed": -1}, "seed"),
    # a scene is at least one model window, but the manifest records the given size
    ("argv", "range", ABLATE + ["--scene-size", "-5"], None, "--scene-size"),
    # run_experiment checks the config fields these set before it writes a corpus
    ("argv", "range", ABLATE + ["--scene-size", "16", "--threads", "0"], None, "threads"),
    ("argv", "range", ABLATE + ["--scene-size", "16", "--epochs", "0"], None, "epochs"),
    ("argv", "range", ABLATE + ["--scene-size", "16", "--batch-size", "0"], None, "batch_size"),
    # argparse would read a negative number in exponent form, or -inf, as a flag
    ("argv", "range", SCENE + ["--fraction", "-1e-3"], None, "disturbance_fraction"),
    ("argv", "float", SCENE + ["--delta-db", "-inf"], None, "disturbance_delta_db"),
]
# a bad setting next to a missing input, and its message: the setting fails first
BAD_SETTING_MISSING_INPUT = {
    "train-epochs": (["train", "--epochs", "0", "--corpus", "{o}/missing/corpus.json",
                      "--out", "{o}/ckpt"], "epochs must be >= 1, got 0"),
    "train-heads": (["train", "--d-model", "30", "--corpus", "{o}/missing/corpus.json",
                     "--out", "{o}/ckpt"], "num_heads 4 must divide d_model 30"),
    "estimate-stride": (["estimate", "--stride", "0", "--checkpoint", "{o}/missing",
                         "--input", "{o}/missing.rts", "--out-mu", "{o}/mu.rts",
                         "--out-sigma", "{o}/sigma.rts"], "stride must be >= 1, got 0"),
    "despeckle-tv-step": (["despeckle", "--input", "{o}/missing.rts", "--tv-step", "0.3",
                           "--out", "{o}/den.rts"], "tv_step must be in (0, 0.25], got 0.3"),
}
# every command that reads --seed, with tiny sizes and outputs under {o}
SEED_COMMANDS = {
    "synth-scene": SCENE,
    "synth-corpus": ["synth", "--kind", "corpus", "--count", "1", "--out-dir", "{o}/c"],
    "train": ["train", "--corpus", "{r}/corpus/corpus.json", "--out", "{o}/ckpt",
              *TINY_MODEL_FLAGS, "--epochs", "1", "--batch-size", "1"],
    "ablate": ABLATE + ["--scene-size", "16"],
}


class TestFlagValues:
    """Flags and config values are converted by one rule per flag type."""

    @pytest.mark.parametrize("source, kind, argv, config, named", VALUE_CASES,
                             ids=[f"{c[0]}-{c[1]}-{c[4].lstrip('-')}" for c in VALUE_CASES])
    def test_malformed_value_is_one_error_line(self, scored, tmp_path, capsys, source, kind,
                                               argv, config, named):
        out = tmp_path / "out"
        out.mkdir()
        argv = [a.format(r=scored, o=out) for a in argv]
        if config is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(config))
            argv += ["--config", str(tmp_path / "cfg.json")]
        capsys.readouterr()
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert f": {named} must be" in err and (config is None or "cfg.json: " in err), err
        assert os.listdir(out) == []

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    @pytest.mark.parametrize("command", sorted(SEED_COMMANDS))
    def test_out_of_range_seed_is_one_error_line(self, trained, tmp_path, capsys, command,
                                                 seed):
        # a negative seed fails inside numpy, and 2**64 would alias seed 0 in
        # every splitmix64 child stream
        argv = [a.format(r=trained, o=tmp_path) for a in SEED_COMMANDS[command]]
        capsys.readouterr()
        assert run(*argv, "--seed", seed) == 1
        err = capsys.readouterr().err
        assert err == f"error: --seed must be an integer in [0, 2**64), got {seed!r}\n", err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("case", sorted(BAD_SETTING_MISSING_INPUT))
    def test_bad_setting_fails_before_any_file(self, tmp_path, capsys, case):
        # each config is built, and so checked, before an input is read: a missing
        # input used to win with exit 2
        argv, message = BAD_SETTING_MISSING_INPUT[case]
        capsys.readouterr()
        assert run(*(a.format(o=tmp_path) for a in argv)) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert os.listdir(tmp_path) == []

    def test_negative_number_in_exponent_form_is_a_value(self, tmp_path):
        # argparse reads -1e1 as a flag unless the CLI joins it to its own
        for value in ("-10", "-1e1"):
            (tmp_path / value).mkdir()
            assert run(*(a.format(o=tmp_path / value) for a in SCENE), "--delta-db", value) == 0
        for name in ("s.rts", "m.rts"):
            assert (tmp_path / "-1e1" / name).read_bytes() == (tmp_path / "-10" / name).read_bytes()

    def test_unknown_config_key_is_one_error_line(self, scored, tmp_path, capsys):
        # a misspelt key must not be ignored: "fram" would leave --frame at -1
        config = tmp_path / "typo.json"
        config.write_text(json.dumps({"baseline-frame": 2, "fram": 0}))
        out = tmp_path / "out"
        out.mkdir()
        capsys.readouterr()
        assert run("metric", "--kind", "logratio", "--stack", str(scored / "s.rts"),
                   "--out", str(out / "l.rts"), "--config", str(config)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "typo.json: " in err and "'baseline-frame', 'fram'" in err, err
        assert os.listdir(out) == []

    def test_manifest_records_converted_values(self, scored, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"tau": 3, "allow-raw": False, "baseline-frames": 2}))
        stack, out = str(scored / "s.rts"), str(tmp_path / "l.rts")
        for switch, expected in (((), False), (("--allow-raw",), True)):
            assert run("metric", "--kind", "logratio", "--stack", stack, "--frame", "-1",
                       "--out", out, *switch, "--config", str(config)) == 0
            recorded = json.loads((tmp_path / "l.rts.manifest.json").read_text())["config"]
            assert recorded["allow-raw"] is expected
            assert (recorded["frame"], recorded["baseline-frames"]) == (-1, 2)
            assert (recorded["kind"], recorded["stack"], recorded["out"]) == \
                ("logratio", stack, out)
        # a float flag given as a JSON integer is recorded as the float it is used as
        assert run("delineate", "--metric", str(scored / "d.rts"), "--out", out,
                   "--config", str(config)) == 0
        tau = json.loads((tmp_path / "l.rts.manifest.json").read_text())["config"]["tau"]
        assert type(tau) is float and tau == 3.0


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

class TestSynthCommand:
    def test_scene_roundtrip_and_determinism(self, tmp_path):
        args = ["synth", "--kind", "scene", "--seed", "7", "--height", "24",
                "--width", "24", "--steps", "5"]
        a_out, a_mask = str(tmp_path / "a.rts"), str(tmp_path / "a_mask.rts")
        b_out, b_mask = str(tmp_path / "b.rts"), str(tmp_path / "b_mask.rts")
        assert run(*args, "--out", a_out, "--mask", a_mask) == 0
        assert run(*args, "--out", b_out, "--mask", b_mask) == 0
        with open(a_out, "rb") as fh_a, open(b_out, "rb") as fh_b:
            assert fh_a.read() == fh_b.read()
        with open(a_mask, "rb") as fh_a, open(b_mask, "rb") as fh_b:
            assert fh_a.read() == fh_b.read()
        stack = read_stack(a_out)
        assert stack.num_steps == 5 and stack.values.shape[2] == 24
        mask = read_mask(a_mask)
        assert mask.dtype == bool and mask.any()

    def test_corpus_generation(self, tmp_path):
        a_dir, b_dir = str(tmp_path / "a"), str(tmp_path / "b")
        for d in (a_dir, b_dir):
            assert run("synth", "--kind", "corpus", "--count", "3",
                       "--seed", "11", "--out-dir", d) == 0
        assert tree_bytes(a_dir) == tree_bytes(b_dir)
        manifest = json.loads(open(os.path.join(a_dir, "corpus.json")).read())
        assert len(manifest["entries"]) == 3

    def test_corpus_config_regenerates_the_corpus(self, tmp_path):
        # corpus.json records the config, seed included, that produced it; JSON
        # gives class_gamma0 back as lists
        cli_dir, lib_dir = tmp_path / "cli", tmp_path / "lib"
        assert run("synth", "--kind", "corpus", "--count", "2", "--seed", "5",
                   "--height", "8", "--width", "8", "--classes", "2",
                   "--class-gamma0", "[[0.3, 0.05], [0.2, 0.04]]",
                   "--out-dir", str(cli_dir)) == 0
        manifest = json.loads((cli_dir / "corpus.json").read_text())
        assert manifest["config"]["seed"] == manifest["master_seed"] == 5
        generate_training_corpus(SynthConfig(**manifest["config"]), 2, str(lib_dir))
        assert tree_bytes(cli_dir) == tree_bytes(lib_dir)

    def test_class_gamma0_flag(self, tmp_path):
        out = str(tmp_path / "s.rts")
        levels = "[[0.3, 0.05], [0.2, 0.04], [0.25, 0.06]]"
        assert run("synth", "--kind", "scene", "--seed", "2", "--height", "16",
                   "--width", "16", "--steps", "4", "--classes", "3",
                   "--class-gamma0", levels, "--fraction", "0.1",
                   "--out", out, "--mask", str(tmp_path / "m.rts")) == 0
        stack = read_stack(out)
        assert stack.values.shape == (4, 2, 16, 16)
        assert run("synth", "--kind", "scene", "--class-gamma0", "[[0.3, 0.05],",
                   "--out", out, "--mask", str(tmp_path / "m.rts")) == 1


# ---------------------------------------------------------------------------
# despeckle / metric / delineate
# ---------------------------------------------------------------------------

class TestProcessingCommands:
    def test_despeckle_roundtrip(self, tmp_path):
        raw = str(tmp_path / "raw.rts")
        assert run("synth", "--kind", "scene", "--seed", "9", "--height", "16",
                   "--width", "16", "--steps", "4", "--out", raw,
                   "--mask", str(tmp_path / "m.rts")) == 0
        a, b = str(tmp_path / "a.rts"), str(tmp_path / "b.rts")
        assert run("despeckle", "--input", raw, "--out", a) == 0
        assert run("despeckle", "--input", raw, "--out", b) == 0
        with open(a, "rb") as fh_a, open(b, "rb") as fh_b:
            assert fh_a.read() == fh_b.read()
        den = read_stack(a)
        assert den.values.shape == (4, 2, 16, 16)

    @pytest.mark.parametrize("text", ['{"master_seed": 1}',
                                      '{"entries": [{"path": "../seq.rts"}]}'])
    def test_despeckle_malformed_manifest_exits_1(self, tmp_path, capsys, text):
        manifest = tmp_path / "corpus.json"
        manifest.write_text(text)
        assert run("despeckle", "--manifest", str(manifest),
                   "--out-dir", str(tmp_path / "den")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "corpus.json" in err
        assert not os.path.exists(tmp_path / "den")

    def test_despeckle_bad_setting_writes_nothing(self, tmp_path, capsys):
        manifest = generate_training_corpus(SynthConfig(), 1, str(tmp_path / "c"))
        assert run("despeckle", "--manifest", manifest, "--tv-step", "0.3",
                   "--out-dir", str(tmp_path / "den")) == 1
        assert capsys.readouterr().err == "error: tv_step must be in (0, 0.25], got 0.3\n"
        assert not os.path.exists(tmp_path / "den")

    @staticmethod
    def _corpus(root, shapes):
        """A corpus.json listing one random (T, 2, H, W) sequence per shape."""
        rng = np.random.default_rng(len(shapes))
        os.makedirs(root, exist_ok=True)
        names = [f"seq_{i:03d}.rts" for i in range(len(shapes))]
        for name, shape in zip(names, shapes):
            write_stack(RasterStack(rng.uniform(0.01, 0.6, size=shape).astype(np.float32),
                                    [f"2024-01-{d:02d}" for d in range(1, shape[0] + 1)]),
                        os.path.join(root, name))
        with open(os.path.join(root, "corpus.json"), "w", encoding="utf-8") as fh:
            json.dump({"entries": [{"path": name} for name in names]}, fh)
        return os.path.join(root, "corpus.json"), names

    def test_despeckle_manifest_groups_keep_bytes_and_order(self, tmp_path, monkeypatch):
        # two frame shapes interleaved, one sequence shorter: 12 sequences fill
        # the first call (64,512 px), then one call per change of shape
        a, b = (11, 2, 16, 16), (11, 2, 12, 20)
        shapes = [a] * 13 + [b, a, b, b]
        shapes[3] = (5, 2, 16, 16)
        manifest, names = self._corpus(str(tmp_path / "raw"), shapes)
        written = []

        def recording_write(stack, path):
            written.append(path)
            write_stack(stack, path)
        monkeypatch.setattr(cli, "write_stack", recording_write)
        solve, frames = preprocess.despeckle_values, []

        def recording_solve(values, cfg):
            frames.append(len(values))
            return solve(values, cfg)
        monkeypatch.setattr(preprocess, "despeckle_values", recording_solve)
        den = str(tmp_path / "den")
        assert run("despeckle", "--manifest", manifest, "--out-dir", den) == 0
        assert written == [os.path.join(den, name) for name in names]
        assert frames == [11 * 11 + 5, 11, 11, 11, 22]
        for name in names:
            alone = str(tmp_path / f"alone_{name}")
            assert run("despeckle", "--input", str(tmp_path / "raw" / name), "--out", alone) == 0
            with open(alone, "rb") as fh_a, open(os.path.join(den, name), "rb") as fh_b:
                assert fh_a.read() == fh_b.read(), name

    def test_despeckle_manifest_peak_does_not_grow_with_corpus(self, tmp_path):
        peaks = {}
        for count in (16, 64):
            manifest, _ = self._corpus(str(tmp_path / f"raw{count}"), [(11, 2, 16, 16)] * count)
            tracemalloc.start()
            try:
                assert run("despeckle", "--manifest", manifest,
                           "--out-dir", str(tmp_path / f"den{count}")) == 0
                _, peaks[count] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peaks[64] <= 1.1 * peaks[16]

    def test_logratio_of_median_frame_is_zero(self, tmp_path):
        # post frame equal to the per-pixel lower median of the baseline
        rng = np.random.default_rng(0)
        baseline = rng.uniform(0.05, 0.6, size=(4, 2, 8, 8)).astype(np.float32)
        post = lower_median(baseline, axis=0)
        values = np.concatenate([baseline, post[None]], axis=0)
        stack_path = str(tmp_path / "stack.rts")
        write_stack(RasterStack(values, [f"2024-01-{d:02d}" for d in range(1, 6)]),
                    stack_path)
        out = str(tmp_path / "metric.rts")
        assert run("metric", "--kind", "logratio", "--stack", stack_path,
                   "--frame", "4", "--baseline-frames", "4", "--out", out) == 0
        dmap = read_metric_map(out)
        assert dmap.units == "log10_ratio"
        np.testing.assert_array_equal(dmap.values, np.zeros((8, 8), np.float32))

    def test_metric_frame_out_of_range(self, tmp_path):
        stack_path = str(tmp_path / "stack.rts")
        rng = np.random.default_rng(1)
        values = rng.uniform(0.1, 0.5, size=(3, 2, 8, 8)).astype(np.float32)
        write_stack(RasterStack(values, ["2024-01-01", "2024-01-13", "2024-01-25"]),
                    stack_path)
        assert run("metric", "--kind", "logratio", "--stack", stack_path,
                   "--frame", "7", "--out", str(tmp_path / "o.rts")) == 1

    def test_delineate_counts(self, tmp_path):
        stack_path = str(tmp_path / "stack.rts")
        rng = np.random.default_rng(2)
        values = rng.uniform(0.1, 0.5, size=(4, 2, 8, 8)).astype(np.float32)
        write_stack(RasterStack(values, [f"2024-02-{d:02d}" for d in range(1, 5)]),
                    stack_path)
        metric_path = str(tmp_path / "metric.rts")
        assert run("metric", "--kind", "logratio", "--stack", stack_path,
                   "--frame", "-1", "--baseline-frames", "3",
                   "--out", metric_path) == 0
        mask_path = str(tmp_path / "mask.rts")
        assert run("delineate", "--metric", metric_path, "--tau", "0.05",
                   "--out", mask_path) == 0
        delineation = read_delineation(mask_path)
        dmap = read_metric_map(metric_path)
        np.testing.assert_array_equal(delineation.mask, dmap.values > 0.05)


# ---------------------------------------------------------------------------
# train / estimate / eval
# ---------------------------------------------------------------------------

class TestModelCommands:
    def test_train_outputs(self, trained):
        ckpt = trained / "ckpt"
        for name in ("weights.bin", "loss.csv"):
            assert (ckpt / name).exists()
        loss_lines = (ckpt / "loss.csv").read_text().splitlines()
        assert loss_lines[0] == "epoch,mean_nll,lr"
        assert len(loss_lines) == 2  # one epoch
        manifest = json.loads((ckpt / "run.manifest.json").read_text())
        assert manifest["completed_epochs"] == 1
        assert manifest["diverged"] is False
        facts = manifest["training"]
        assert sorted(facts) == ["blas_capped", "cpu_s", "epoch_step_seconds", "malloc_pinned",
                                 "subnormals_flushed"]
        assert isinstance(facts["malloc_pinned"], bool)
        assert facts["blas_capped"] is False and facts["cpu_s"] > 0   # batch 2 keeps threads
        assert facts["subnormals_flushed"] is (native._FENV is not None)
        assert len(facts["epoch_step_seconds"]) == 1 and facts["epoch_step_seconds"][0] > 0

    def test_estimate_and_mahalanobis_chain(self, trained, tmp_path):
        scene = str(tmp_path / "scene.rts")
        assert run("synth", "--kind", "scene", "--seed", "21", "--height", "16",
                   "--width", "16", "--steps", "6", "--out", scene,
                   "--mask", str(tmp_path / "m.rts")) == 0
        mu, sigma = str(tmp_path / "mu.rts"), str(tmp_path / "sigma.rts")
        assert run("estimate", "--checkpoint", str(trained / "ckpt"),
                   "--input", scene, "--out-mu", mu, "--out-sigma", sigma,
                   "--stride", "8", "--drop-last", "2") == 0
        est = read_estimate(mu, sigma)
        assert est.mu.shape == (2, 16, 16)
        assert np.all(est.sigma > 0)
        out = str(tmp_path / "d.rts")
        assert run("metric", "--kind", "mahalanobis", "--stack", scene,
                   "--frame", "-1", "--mu", mu, "--sigma", sigma,
                   "--out", out) == 0
        dmap = read_metric_map(out)
        assert dmap.units == "standard_deviations"
        assert dmap.values.shape == (16, 16)

    def test_estimate_threads_bitwise(self, trained, tmp_path):
        scene = str(tmp_path / "scene.rts")
        assert run("synth", "--kind", "scene", "--seed", "22", "--height", "16",
                   "--width", "16", "--steps", "6", "--out", scene,
                   "--mask", str(tmp_path / "m.rts")) == 0
        single = [str(tmp_path / "mu1.rts"), str(tmp_path / "s1.rts")]
        multi = [str(tmp_path / "mu4.rts"), str(tmp_path / "s4.rts")]
        base = ["estimate", "--checkpoint", str(trained / "ckpt"),
                "--input", scene, "--stride", "4", "--drop-last", "1"]
        assert run(*base, "--threads", "1", "--out-mu", single[0],
                   "--out-sigma", single[1]) == 0
        assert run(*base, "--threads", "4", "--out-mu", multi[0],
                   "--out-sigma", multi[1]) == 0
        for a, b in zip(single, multi):
            with open(a, "rb") as fh_a, open(b, "rb") as fh_b:
                assert fh_a.read() == fh_b.read()
        for mu in (single[0], multi[0]):   # one 16-px window covers the scene
            sweep = json.loads(open(mu + ".manifest.json").read())["sweep"]
            assert {k: v for k, v in sweep.items() if k != "mallopt_pinned"} == {
                "windows": 1, "windows_per_forward": 1}
            assert isinstance(sweep["mallopt_pinned"], bool)

    def test_eval_logratio(self, tmp_path):
        scene = str(tmp_path / "scene.rts")
        mask = str(tmp_path / "mask.rts")
        assert run("synth", "--kind", "scene", "--seed", "33", "--height", "16",
                   "--width", "16", "--steps", "6", "--fraction", "0.1",
                   "--out", scene, "--mask", mask) == 0
        out_dir = str(tmp_path / "report")
        assert run("eval", "--method", "logratio", "--stack", scene,
                   "--truth", mask, "--out-dir", out_dir) == 0
        for name in ("pr_curve.csv", "f1_vs_tau.csv", "pr_curve.svg",
                     "f1_vs_tau.svg", "summary.json"):
            assert os.path.exists(os.path.join(out_dir, name))
        summary = json.loads(open(os.path.join(out_dir, "summary.json")).read())
        assert 0.0 <= summary["pr_auc"] <= 1.0
        assert 0.0 <= summary["best_f1"] <= 1.0

    def _scene_and_estimate(self, trained, tmp_path, seed, drop_last=2, tag=""):
        """A scene, its truth mask and the estimate of `estimate --drop-last`."""
        scene = str(tmp_path / "scene.rts")
        mask = str(tmp_path / "mask.rts")
        if not os.path.exists(scene):
            assert run("synth", "--kind", "scene", "--seed", str(seed), "--height", "16",
                       "--width", "16", "--steps", "6", "--fraction", "0.1",
                       "--out", scene, "--mask", mask) == 0
        mu, sigma = str(tmp_path / f"mu{tag}.rts"), str(tmp_path / f"sigma{tag}.rts")
        assert run("estimate", "--checkpoint", str(trained / "ckpt"), "--input", scene,
                   "--out-mu", mu, "--out-sigma", sigma, "--stride", "8",
                   "--drop-last", str(drop_last)) == 0
        return scene, mask, mu, sigma

    def test_eval_transformer(self, trained, tmp_path):
        # eval scores the estimate that estimate --drop-last 2 wrote
        scene, mask, mu, sigma = self._scene_and_estimate(trained, tmp_path, 44)
        assert read_estimate(mu, sigma).timestamp == read_stack(scene).timestamps[-3]
        out_dir = str(tmp_path / "report")
        assert run("eval", "--method", "mahalanobis", "--stack", scene, "--truth", mask,
                   "--mu", mu, "--sigma", sigma, "--out-dir", out_dir) == 0
        summary = json.loads(open(os.path.join(out_dir, "summary.json")).read())
        assert 0.0 <= summary["pr_auc"] <= 1.0
        manifest = json.loads(open(os.path.join(out_dir, "run.manifest.json")).read())
        assert manifest["inputs"] == [scene, mask, mu, sigma]

    def test_eval_rejects_estimate_of_other_frames(self, trained, tmp_path, capsys):
        # a --drop-last 1 estimate forecasts the post frame, not the held-out pair
        scene, mask, mu, sigma = self._scene_and_estimate(trained, tmp_path, 55, drop_last=1)
        capsys.readouterr()
        assert run("eval", "--stack", scene, "--truth", mask, "--mu", mu, "--sigma", sigma,
                   "--out-dir", str(tmp_path / "r")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "mu.rts" in err and err.count("\n") == 1
        assert not os.path.exists(tmp_path / "r")

    def test_eval_rejects_estimate_pair_from_two_runs(self, trained, tmp_path, capsys):
        scene, mask, mu, _ = self._scene_and_estimate(trained, tmp_path, 56, tag="2")
        _, _, _, sigma = self._scene_and_estimate(trained, tmp_path, 56, drop_last=1,
                                                  tag="1")
        capsys.readouterr()
        assert run("eval", "--stack", scene, "--truth", mask, "--mu", mu, "--sigma", sigma,
                   "--out-dir", str(tmp_path / "r")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "disagree" in err and err.count("\n") == 1
        assert not os.path.exists(tmp_path / "r")

    @pytest.mark.parametrize("command", ["metric", "eval"])
    def test_estimate_files_of_two_models_rejected(self, tmp_path, capsys, command):
        # two models forecast one scene: the files agree in shape, timestamp and
        # source, and the mixed pair used to score with exit 0
        r = str(tmp_path)
        assert run("synth", "--kind", "scene", "--seed", "11", "--height", "32", "--width",
                   "32", "--steps", "6", "--fraction", "0.1", "--out", f"{r}/s.rts",
                   "--mask", f"{r}/m.rts") == 0
        for seed in (0, 1):
            save_checkpoint(Model(ModelConfig(d_model=8, num_heads=2, num_layers=1, ff_dim=8),
                                  seed=seed), f"{r}/ckpt{seed}")
            assert run("estimate", "--checkpoint", f"{r}/ckpt{seed}", "--input", f"{r}/s.rts",
                       "--drop-last", "2", "--out-mu", f"{r}/mu{seed}.rts",
                       "--out-sigma", f"{r}/sigma{seed}.rts") == 0
        mu, sigma = f"{r}/mu1.rts", f"{r}/sigma0.rts"
        with pytest.raises(FormatError, match="not one estimate.s pair"):
            read_estimate(mu, sigma)
        argv = {"metric": ["metric", "--kind", "mahalanobis", "--stack", f"{r}/s.rts",
                           "--out", f"{r}/d.rts"],
                "eval": ["eval", "--stack", f"{r}/s.rts", "--truth", f"{r}/m.rts",
                         "--out-dir", f"{r}/report"]}[command]
        capsys.readouterr()
        assert run(*argv, "--mu", mu, "--sigma", sigma) == 1
        err = capsys.readouterr().err
        assert err == f"error: {mu}, {sigma}: mu and sigma are not one estimate's pair\n"
        assert not os.path.exists(f"{r}/d.rts") and not os.path.exists(f"{r}/report")
        assert run(*argv, "--mu", f"{r}/mu1.rts", "--sigma", f"{r}/sigma1.rts") == 0

    @pytest.mark.parametrize("damage", ["truncated", "padded", "version", "unknown-key",
                                        "mistyped-key", "nan-weight", "three-file"])
    def test_malformed_checkpoint_is_one_error_line(self, scored, tmp_path, capsys, damage):
        ckpt = tmp_path / "ckpt"
        save_checkpoint(Model(ModelConfig(d_model=8, num_heads=2, num_layers=1, ff_dim=8),
                              seed=0), str(ckpt))
        weights = ckpt / "weights.bin"
        blob = weights.read_bytes()
        start = payload_offset(blob)

        def config(**change):
            return lambda header: json.dumps(
                {**json.loads(header), "config": {**json.loads(header)["config"], **change}}
            ).encode()
        if damage == "truncated":
            weights.write_bytes(blob[:-4])
        elif damage == "padded":
            weights.write_bytes(blob + bytes(4))
        elif damage == "version":
            edit_header(weights, lambda header: header.replace(b'"version":2', b'"version":1'))
        elif damage == "unknown-key":
            edit_header(weights, config(bogus=1))
        elif damage == "mistyped-key":
            edit_header(weights, config(d_model="8"))
        elif damage == "nan-weight":
            weights.write_bytes(blob[:start] + np.float32(np.nan).tobytes() + blob[start + 4:])
        else:   # the three-file layout: raw weights, index.json and model.json
            weights.write_bytes(blob[start:])
            (ckpt / "index.json").write_text("[]")
            (ckpt / "model.json").write_text(json.dumps({"version": 1, "config": {}}))
        capsys.readouterr()
        assert run("estimate", "--checkpoint", str(ckpt), "--input", str(scored / "s.rts"),
                   "--out-mu", str(tmp_path / "mu.rts"),
                   "--out-sigma", str(tmp_path / "sigma.rts")) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {weights}: ") and err.count("\n") == 1, err
        assert not os.path.exists(tmp_path / "mu.rts")

    def test_metric_scores_only_frames_after_the_forecast(self, scored, tmp_path, capsys):
        # the --drop-last 2 estimate saw frames 0..3 of 6: it can score frames 4 and 5
        argv = ["metric", "--kind", "mahalanobis", "--stack", str(scored / "s.rts"),
                "--mu", str(scored / "mu.rts"), "--sigma", str(scored / "sigma.rts")]
        for frame in ("0", "3", "-3"):
            capsys.readouterr()
            assert run(*argv, "--frame", frame, "--out", str(tmp_path / "d.rts")) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "mu.rts" in err and err.count("\n") == 1
            assert not os.path.exists(tmp_path / "d.rts")
        for frame in ("4", "-1"):
            assert run(*argv, "--frame", frame, "--out", str(tmp_path / "d.rts")) == 0

    @pytest.mark.parametrize("other", ["another scene", "despeckled"])
    def test_metric_rejects_estimate_of_other_content(self, scored, tmp_path, capsys, other):
        # scenes of one length share their timestamps, and despeckling keeps
        # them, so only the frames' content tells these estimates apart
        if other == "another scene":
            assert run("synth", "--kind", "scene", "--seed", "2", "--height", "16", "--width",
                       "16", "--steps", "6", "--out", f"{tmp_path}/s.rts",
                       "--mask", f"{tmp_path}/m.rts") == 0
            scored_stack, estimated = f"{tmp_path}/s.rts", f"{scored}/s.rts"
        else:
            assert run("despeckle", "--input", f"{scored}/s.rts",
                       "--out", f"{tmp_path}/den.rts") == 0
            scored_stack, estimated = f"{scored}/s.rts", f"{tmp_path}/den.rts"
        assert run("estimate", "--checkpoint", f"{scored}/ckpt", "--input", estimated,
                   "--drop-last", "2", "--out-mu", f"{tmp_path}/mu.rts",
                   "--out-sigma", f"{tmp_path}/sigma.rts") == 0
        argv = ["metric", "--kind", "mahalanobis", "--frame", "-1", "--mu", f"{tmp_path}/mu.rts",
                "--sigma", f"{tmp_path}/sigma.rts", "--out", f"{tmp_path}/d.rts"]
        capsys.readouterr()
        assert run(*argv, "--stack", scored_stack) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {tmp_path}/mu.rts: estimate was not forecast from this "
                              "stack's frames") and err.count("\n") == 1, err
        assert not os.path.exists(tmp_path / "d.rts")
        assert run(*argv, "--stack", estimated) == 0

    def test_metric_names_the_estimate_file_that_holds_a_nan(self, scored, tmp_path, capsys):
        # it used to print "error: estimate contains non-finite values", naming no file
        values, header = read_array(str(scored / "mu.rts"))
        values[0, 1, 2, 3] = np.nan
        mu, sigma = str(tmp_path / "mu.rts"), str(scored / "sigma.rts")
        write_array(mu, values, header["timestamps"], header["pol_names"],
                    {"units": header["units"], "source": header["source"], "pair": header["pair"]})
        capsys.readouterr()
        assert run("metric", "--kind", "mahalanobis", "--stack", str(scored / "s.rts"),
                   "--mu", mu, "--sigma", sigma, "--out", str(tmp_path / "d.rts")) == 1
        err = capsys.readouterr().err
        assert err == f"error: {mu}, {sigma}: mu contains non-finite values\n", err
        assert not os.path.exists(tmp_path / "d.rts")

    @pytest.mark.parametrize("baseline, code", [("3", 0), ("4", 1)])
    def test_logratio_baseline_excludes_the_scored_frame(self, scored, tmp_path, capsys,
                                                         baseline, code):
        out = tmp_path / "l.rts"
        capsys.readouterr()
        assert run("metric", "--kind", "logratio", "--stack", str(scored / "s.rts"),
                   "--frame", "3", "--baseline-frames", baseline, "--out", str(out)) == code
        err = capsys.readouterr().err
        if code:
            assert err == "error: baseline of 4 frames includes scored frame 3\n", err
        assert out.exists() == (code == 0)

    @pytest.mark.parametrize("drop_last", ["-1", "-3"])
    def test_negative_drop_last_is_one_error_line(self, scored, tmp_path, capsys, drop_last):
        # [:-(-3)] would keep the first 3 frames and stamp the estimate with frame 2
        capsys.readouterr()
        assert run(*(a.format(r=scored, o=tmp_path) for a in ESTIMATE),
                   "--drop-last", drop_last) == 1
        err = capsys.readouterr().err
        assert err == f"error: drop-last must be >= 0, got {drop_last}\n", err
        assert os.listdir(tmp_path) == []

    def test_eval_missing_estimate_flag(self, tmp_path):
        scene = str(tmp_path / "scene.rts")
        mask = str(tmp_path / "mask.rts")
        assert run("synth", "--kind", "scene", "--seed", "66", "--height", "16",
                   "--width", "16", "--steps", "6", "--fraction", "0.1",
                   "--out", scene, "--mask", mask) == 0
        assert run("eval", "--method", "mahalanobis", "--stack", scene,
                   "--truth", mask, "--out-dir", str(tmp_path / "r")) == 1

    @pytest.mark.parametrize("command", ["despeckle", "estimate", "metric", "delineate",
                                         "eval"])
    def test_seed_only_where_it_is_read(self, command, capsys):
        with pytest.raises(SystemExit) as info:
            run(command, "--seed", "1")
        assert info.value.code == 2
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_overflowing_weight_leaves_stderr_empty(self, tmp_path, threads):
        # one huge but finite weight overflows inside layer norm; numpy's
        # warning must not reach stderr, in the main thread or a sweep worker
        ckpt = tmp_path / "ckpt"
        save_checkpoint(Model(ModelConfig(d_model=8, num_heads=2, num_layers=1, ff_dim=8),
                              seed=0), str(ckpt))
        weights = bytearray((ckpt / "weights.bin").read_bytes())
        weights[payload_offset(weights) + 3] ^= 0x40
        (ckpt / "weights.bin").write_bytes(bytes(weights))
        scene = str(tmp_path / "s.rts")
        assert run("synth", "--kind", "scene", "--seed", "1", "--height", "16",
                   "--width", "16", "--steps", "4", "--out", scene,
                   "--mask", str(tmp_path / "m.rts")) == 0
        mu, sigma = str(tmp_path / "mu.rts"), str(tmp_path / "sigma.rts")
        src = os.path.dirname(os.path.dirname(sardist.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "sardist.cli", "estimate", "--checkpoint", str(ckpt),
             "--input", scene, "--out-mu", mu, "--out-sigma", sigma, "--drop-last", "2",
             "--threads", threads], env=env, capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "")
        est = read_estimate(mu, sigma)
        assert np.all(np.isfinite(est.mu)) and np.all(est.sigma > 0)


def test_python_m_sardist_runs_the_cli(tmp_path):
    # the CLI runs from a checkout with no installed `sardist` script
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(sardist.__file__)))

    def python_m_sardist(*argv):
        return subprocess.run([sys.executable, "-m", "sardist", *argv], env=env, cwd=tmp_path,
                              capture_output=True, text=True, timeout=120)

    proc = python_m_sardist("--version")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"{sardist.__version__}\n", "")
    proc = python_m_sardist("synth", "--kind", "scene", "--height", "0", "--out", "s.rts",
                            "--mask", "m.rts")
    assert (proc.returncode, proc.stderr) == (1, "error: height must be >= 1, got 0\n")
    assert os.listdir(tmp_path) == []


class TestAblateCommand:
    def test_toy_grid_is_finite_and_deterministic(self, tmp_path):
        summaries = []
        for name in ("a", "b"):
            out_dir = tmp_path / name
            assert run("ablate", "--grid", "learning-rate", "--corpus-size", "2",
                       "--epochs", "1", "--scene-size", "16", "--batch-size", "2",
                       "--out-dir", str(out_dir)) == 0
            summaries.append((out_dir / "ablation_summary.csv").read_bytes())
        assert summaries[0] == summaries[1]
        header, *rows = summaries[0].decode().splitlines()
        assert header == "grid,preset,parameters,pr_auc,best_f1"
        assert len(rows) == 3
        for row in rows:
            assert row.startswith("learning-rate,lr")
            assert np.isfinite(float(row.split(",")[3]))

    def test_experiment_is_the_cli_chain(self, tmp_path):
        # ablate and criterion 7 run `run_experiment`; its curves must be the
        # bits of the documented chain run file by file through the CLI
        r = str(tmp_path)
        for argv in (
            ["synth", "--kind", "corpus", "--count", "4", "--seed", "3", "--out-dir", "{r}/c"],
            ["despeckle", "--manifest", "{r}/c/corpus.json", "--out-dir", "{r}/cd"],
            ["train", "--corpus", "{r}/cd/corpus.json", "--out", "{r}/ckpt", *TINY_MODEL_FLAGS,
             "--epochs", "1", "--batch-size", "2", "--lr", "1e-4", "--seed", "0"],
            ["synth", "--kind", "scene", "--seed", "21", "--height", "16", "--width", "16",
             "--steps", "6", "--fraction", "0.1", "--out", "{r}/s.rts", "--mask", "{r}/m.rts"],
            ["despeckle", "--input", "{r}/s.rts", "--out", "{r}/sd.rts"],
            ["estimate", "--checkpoint", "{r}/ckpt", "--input", "{r}/sd.rts", "--out-mu",
             "{r}/mu.rts", "--out-sigma", "{r}/sigma.rts", "--stride", "4", "--drop-last", "2"],
            ["eval", "--method", "mahalanobis", "--stack", "{r}/sd.rts", "--truth", "{r}/m.rts",
             "--mu", "{r}/mu.rts", "--sigma", "{r}/sigma.rts", "--out-dir", "{r}/forecast"],
            ["eval", "--method", "logratio", "--stack", "{r}/sd.rts", "--truth", "{r}/m.rts",
             "--out-dir", "{r}/logratio"],
        ):
            assert run(*(a.format(r=r) for a in argv)) == 0
        model_cfg = ModelConfig(input_size=16, patch_size=8, d_model=8, num_heads=2,
                                num_layers=1, ff_dim=8, dropout=0.0)
        result, *curves = run_experiment(
            SynthConfig(seed=3), 4, str(tmp_path / "lib"), model_cfg,
            TrainConfig(batch_size=2, epochs=1, lr_initial=1e-4, seed=0),
            SynthConfig(height=16, width=16, num_steps=6, disturbance_fraction=0.1, seed=21),
            SweepConfig(stride=4))
        assert not result.diverged
        for name, curve in zip(("forecast", "logratio"), curves):
            summary = json.loads((tmp_path / name / "summary.json").read_text())
            assert (summary["pr_auc"], summary["best_f1"]) == (curve.auc, curve.best_f1), name


# ---------------------------------------------------------------------------
# full deterministic pipeline rerun
# ---------------------------------------------------------------------------

class TestPipelineDeterminism:
    def test_rerun_produces_identical_artifacts(self, tmp_path):
        def pipeline(root: str):
            os.makedirs(root, exist_ok=True)
            scene = os.path.join(root, "scene.rts")
            mask = os.path.join(root, "mask.rts")
            den = os.path.join(root, "den.rts")
            metric = os.path.join(root, "metric.rts")
            binary = os.path.join(root, "binary.rts")
            report = os.path.join(root, "report")
            assert run("synth", "--kind", "scene", "--seed", "77",
                       "--height", "16", "--width", "16", "--steps", "6",
                       "--fraction", "0.1", "--out", scene, "--mask", mask) == 0
            assert run("despeckle", "--input", scene, "--out", den) == 0
            assert run("metric", "--kind", "logratio", "--stack", den,
                       "--frame", "-1", "--baseline-frames", "4",
                       "--out", metric) == 0
            assert run("delineate", "--metric", metric, "--tau", "0.2",
                       "--out", binary) == 0
            assert run("eval", "--method", "logratio", "--stack", den,
                       "--truth", mask, "--out-dir", report) == 0

        a_root = str(tmp_path / "a")
        b_root = str(tmp_path / "b")
        pipeline(a_root)
        pipeline(b_root)
        a_tree = tree_bytes(a_root)
        b_tree = tree_bytes(b_root)
        assert set(a_tree) == set(b_tree)
        assert all(a_tree[k] == b_tree[k] for k in a_tree)

    def test_artifacts_equal_pinned_to_one_and_two_cores(self, tmp_path):
        # Real affinity, not a patched core count: numpy's OpenBLAS, the despeckle
        # workers, the Adam split (1.49 M parameter floats at --ff 512 --layers 2, batch
        # 1) and the sweep all see the pinned cores.
        if not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2:
            pytest.skip("fewer than two usable cores: one-core and two-core runs are the same")
        chain = [
            ["synth", "--kind", "corpus", "--count", "8", "--seed", "3", "--out-dir", "corpus"],
            ["despeckle", "--manifest", os.path.join("corpus", "corpus.json"),
             "--out-dir", "den"],
            ["train", "--corpus", os.path.join("den", "corpus.json"), "--out", "ckpt",
             "--ff", "512", "--layers", "2", "--batch-size", "1", "--epochs", "1",
             "--steps-per-epoch", "6", "--lr", "5e-4"],
            ["synth", "--kind", "scene", "--seed", "4", "--height", "32", "--width", "32",
             "--fraction", "0.1", "--out", "scene.rts", "--mask", "mask.rts"],
            ["despeckle", "--input", "scene.rts", "--out", "den.rts"],
            ["estimate", "--checkpoint", "ckpt", "--input", "den.rts", "--out-mu", "mu.rts",
             "--out-sigma", "sigma.rts", "--stride", "4", "--threads", "2",
             "--drop-last", "2"],
            ["metric", "--kind", "mahalanobis", "--stack", "den.rts", "--frame", "-1",
             "--mu", "mu.rts", "--sigma", "sigma.rts", "--out", "d.rts"],
        ]
        code = ("import json, os, sys\n"
                "os.sched_setaffinity(0, json.loads(sys.argv[1]))   # before numpy loads\n"
                "from sardist import native\n"
                "from sardist.cli import main\n"
                "print(native.usable_cores())\n"
                "for argv in json.loads(sys.argv[2]):\n"
                "    if main(argv) != 0:\n"
                "        sys.exit(f'{argv[0]} failed')\n")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(sardist.__file__)))
        trees = []
        for cores in sorted(os.sched_getaffinity(0))[:1], sorted(os.sched_getaffinity(0))[:2]:
            root = tmp_path / str(len(cores))
            root.mkdir()
            proc = subprocess.run([sys.executable, "-c", code, json.dumps(cores),
                                   json.dumps(chain)], env=env, cwd=root,
                                  capture_output=True, text=True, timeout=300)
            assert (proc.returncode, proc.stderr) == (0, "")
            assert proc.stdout.startswith(f"{len(cores)}\n")   # the cores the chain saw
            trees.append({k: v for k, v in tree_bytes(str(root)).items()
                          if not k.endswith(".json")})
        assert "d.rts" in trees[0] and os.path.join("ckpt", "weights.bin") in trees[0]
        assert trees[1] == trees[0]
