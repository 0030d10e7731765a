"""End-to-end tests of the command line interface."""

import json
import os

import numpy as np
import pytest

from sardist.cli import main
from sardist.disturbance import lower_median
from sardist.raster import (
    RasterStack,
    read_delineation,
    read_estimate,
    read_mask,
    read_metric_map,
    read_stack,
    write_stack,
)

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

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            run("--version")
        assert info.value.code == 0
        assert capsys.readouterr().out.strip()

    def test_validation_failure_exits_1(self, tmp_path, capsys, monkeypatch):
        # synth scene without --out/--mask
        assert run("synth", "--kind", "scene", "--seed", "1") == 1
        # malformed config JSON, a non-numeric config value, a bad thread
        # variable: one error line naming the file, key or variable
        bad_json = tmp_path / "bad.json"
        bad_json.write_text('{"stride": 4,')
        bad_value = tmp_path / "value.json"
        bad_value.write_text('{"stride": "abc"}')
        # each is caught before any input file is opened
        estimate = ["estimate", "--checkpoint", str(tmp_path / "ckpt"),
                    "--input", str(tmp_path / "s.rts"), "--out-mu", str(tmp_path / "mu.rts"),
                    "--out-sigma", str(tmp_path / "sigma.rts")]
        capsys.readouterr()
        for config, named in ((bad_json, "bad.json"), (bad_value, "stride")):
            assert run(*estimate, "--config", str(config)) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and named in err and err.count("\n") == 1
        monkeypatch.setenv("SARDIST_THREADS", "abc")
        assert run(*estimate) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: SARDIST_THREADS") and err.count("\n") == 1

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
        assert read_stack(out_a).height == 20
        # flag beats config
        assert run("synth", "--kind", "scene", "--config", str(cfg_path),
                   "--height", "24", "--width", "24",
                   "--out", out_b, "--mask", str(tmp_path / "mb.rts")) == 0
        assert read_stack(out_b).height == 24

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
        assert stack.num_steps == 5 and stack.height == 24
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
        assert dmap.units == "decibels"
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
        for name in ("model.json", "weights.bin", "index.json", "loss.csv"):
            assert (ckpt / name).exists()
        loss_lines = (ckpt / "loss.csv").read_text().splitlines()
        assert loss_lines[0] == "epoch,mean_nll,lr"
        assert len(loss_lines) == 2  # one epoch
        manifest = json.loads((ckpt / "run.manifest.json").read_text())
        assert manifest["completed_epochs"] == 1
        assert manifest["diverged"] is False

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

    def test_eval_transformer(self, trained, tmp_path):
        scene = str(tmp_path / "scene.rts")
        mask = str(tmp_path / "mask.rts")
        assert run("synth", "--kind", "scene", "--seed", "44", "--height", "16",
                   "--width", "16", "--steps", "6", "--fraction", "0.1",
                   "--out", scene, "--mask", mask) == 0
        out_dir = str(tmp_path / "report")
        assert run("eval", "--method", "transformer", "--stack", scene,
                   "--truth", mask, "--checkpoint", str(trained / "ckpt"),
                   "--out-dir", out_dir, "--stride", "8") == 0
        summary = json.loads(open(os.path.join(out_dir, "summary.json")).read())
        assert 0.0 <= summary["pr_auc"] <= 1.0

    def test_eval_method_checkpoint_mismatch(self, trained, tmp_path):
        scene = str(tmp_path / "scene.rts")
        mask = str(tmp_path / "mask.rts")
        assert run("synth", "--kind", "scene", "--seed", "55", "--height", "16",
                   "--width", "16", "--steps", "6", "--fraction", "0.1",
                   "--out", scene, "--mask", mask) == 0
        assert run("eval", "--method", "gru", "--stack", scene, "--truth", mask,
                   "--checkpoint", str(trained / "ckpt"),
                   "--out-dir", str(tmp_path / "r")) == 1

    def test_eval_missing_checkpoint_flag(self, tmp_path):
        scene = str(tmp_path / "scene.rts")
        mask = str(tmp_path / "mask.rts")
        assert run("synth", "--kind", "scene", "--seed", "66", "--height", "16",
                   "--width", "16", "--steps", "6", "--fraction", "0.1",
                   "--out", scene, "--mask", mask) == 0
        assert run("eval", "--method", "transformer", "--stack", scene,
                   "--truth", mask, "--out-dir", str(tmp_path / "r")) == 1


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
