"""The benchmark's three closed-loop workloads, each driven through `sardist.cli.main`.

One client runs one op at a time; the next op starts only after the previous
one and its check have finished. Every op's inputs derive from the workload
seed and the op index, so one seed gives one sequence of inputs.

    train-b1        `train` of the frozen benchmark model at batch size 1 on a
                    despeckled corpus built in set-up
    map-scene       despeckle -> estimate -> metric (frames -2, -1) -> delineate
                    of a new scene, with a checkpoint trained in set-up
    prepare-corpus  synth --kind corpus -> despeckle --manifest
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import shutil
import traceback

import numpy as np

from sardist import cli, disturbance, evaluation, raster
from sardist.errors import SardistError

SEASONAL = ["--seasonal-amplitude-db", "1.5", "--seasonal-period", "24"]
FROZEN_MODEL = ["--model", "transformer", "--ff", "512", "--layers", "2"]

#: op sizes; "toy" exists for the smoke test and gates no quality floor,
#: because a two-step checkpoint cannot reach one
SIZES = {
    "full": {"train_corpus": 16, "train_steps": 64, "scene_px": 128,
             "ckpt_corpus": 64, "ckpt_epochs": 4, "ckpt_steps": 256,
             "prepare_count": 16, "model": FROZEN_MODEL, "auc_floor": 0.85},
    "toy": {"train_corpus": 2, "train_steps": 2, "scene_px": 32,
            "ckpt_corpus": 2, "ckpt_epochs": 2, "ckpt_steps": 1,
            "prepare_count": 2, "model": ["--model", "transformer", "--ff", "32",
                                          "--layers", "1"], "auc_floor": None},
}


class OpFailed(Exception):
    """A CLI call exited non-zero or raised."""


def op_seed(seed: int, index: int) -> int:
    return seed * 100_003 + index


def digest(*paths: str) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def corpus_files(directory: str) -> list[str]:
    """The corpus manifest and sequences; run manifests carry timings and are left out."""
    names = sorted(n for n in os.listdir(directory) if n.endswith(".rts"))
    return [os.path.join(directory, n) for n in ["corpus.json", *names]]


class Workload:
    """Set-up, one timed op and its check; CLI calls are counted for fail_ratio."""

    name = ""
    setup_repeats = 1

    def __init__(self, work_dir: str, seed: int, size: dict, threads: int):
        self.dir, self.seed, self.size, self.threads = work_dir, seed, size, threads
        self.attempted = 0
        self.failed = 0
        self.check_root = lambda index: contextlib.nullcontext()

    def path(self, *parts: str) -> str:
        return os.path.join(self.dir, *parts)

    def cli(self, *argv: str) -> None:
        self.attempted += 1
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([str(a) for a in argv])
        except Exception:   # a traceback is a failed call, not a crashed benchmark
            traceback.print_exc()
            code = -1
        if code != 0:
            self.failed += 1
            raise OpFailed(f"sardist {argv[0]} exited with {code}")

    def clear(self, *names: str) -> None:
        for name in names:
            shutil.rmtree(self.path(name), ignore_errors=True)

    def synth_corpus(self, count: int, seed: int, raw: str, den: str) -> None:
        self.cli("synth", "--kind", "corpus", "--count", count, "--seed", seed,
                 *SEASONAL, "--out-dir", raw)
        self.cli("despeckle", "--manifest", os.path.join(raw, "corpus.json"),
                 "--out-dir", den)

    def setup(self) -> str:
        """Build the op inputs; returns their digest."""
        raise NotImplementedError

    def prepare(self, index: int) -> None:
        """Untimed per-op input generation."""

    def op(self, index: int) -> None:
        raise NotImplementedError

    def check(self, index: int) -> dict:
        """Validate the op's outputs; returns its digest and quality values."""
        raise NotImplementedError

    def verify(self, index: int) -> dict:
        """check(), with a missing or invalid output reported as a failed check."""
        try:
            return self.check(index)
        except (SardistError, OSError, ValueError) as exc:
            raise OpFailed(f"op {index}: {exc}") from exc

    def report(self, walls: list, checks: list) -> dict:
        """Workload-specific metrics: name -> (samples, unit)."""
        raise NotImplementedError


class TrainB1(Workload):
    name = "train-b1"
    setup_repeats = 5

    def setup(self) -> str:
        self.clear("corpus", "corpus_den")
        self.synth_corpus(self.size["train_corpus"], self.seed,
                          self.path("corpus"), self.path("corpus_den"))
        return digest(*corpus_files(self.path("corpus_den")))

    def op(self, index: int) -> None:
        self.cli("train", "--corpus", self.path("corpus_den", "corpus.json"),
                 "--out", self.path("ckpt"), *self.size["model"],
                 "--epochs", 1, "--steps-per-epoch", self.size["train_steps"],
                 "--batch-size", 1, "--lr", "5e-4", "--lr-after-decay", "5e-4",
                 "--t-min", 2, "--t-max", 10, "--seed", 0)

    def check(self, index: int) -> dict:
        loss, weights = self.path("ckpt", "loss.csv"), self.path("ckpt", "weights.bin")
        with open(loss, encoding="utf-8") as fh:
            rows = fh.read().split()
        nll = float(rows[-1].split(",")[1])
        if not math.isfinite(nll):
            raise OpFailed(f"train op {index}: final nll {nll} is not finite")
        return {"digest": digest(loss, weights), "nll": nll}

    def report(self, walls, checks):
        windows = self.size["train_steps"]   # batch size 1
        return {"train_windows_per_s": ([windows / w for w in walls], "windows/s"),
                "train_final_nll": ([c["nll"] for c in checks], "nats")}


class MapScene(Workload):
    name = "map-scene"
    # one set-up trains a checkpoint, which costs as much as a whole op
    setup_repeats = 1

    def setup(self) -> str:
        # The checkpoint is the fixed model under test, so its corpus seed is
        # fixed; the scenes vary with the workload seed. Cheaper recipes (fewer
        # steps, larger batches, no decay) fell below the 0.85 PR-AUC floor on
        # some scenes; the last epoch at a tenth of the rate steadies it.
        self.clear("corpus", "corpus_den", "ckpt")
        self.synth_corpus(self.size["ckpt_corpus"], 2024, self.path("corpus"),
                          self.path("corpus_den"))
        epochs = self.size["ckpt_epochs"]
        self.cli("train", "--corpus", self.path("corpus_den", "corpus.json"),
                 "--out", self.path("ckpt"), *self.size["model"],
                 "--epochs", epochs, "--steps-per-epoch", self.size["ckpt_steps"],
                 "--decay-epoch", epochs - 1, "--batch-size", 1,
                 "--lr", "5e-4", "--lr-after-decay", "5e-5", "--seed", 0)
        return digest(self.path("ckpt", "weights.bin"))

    def prepare(self, index: int) -> None:
        px = self.size["scene_px"]
        self.cli("synth", "--kind", "scene", "--seed", op_seed(self.seed, index),
                 "--height", px, "--width", px, "--steps", 11, *SEASONAL,
                 "--fraction", "0.05", "--out", self.path("scene.rts"),
                 "--mask", self.path("truth.rts"))

    def op(self, index: int) -> None:
        p = self.path
        self.cli("despeckle", "--input", p("scene.rts"), "--out", p("scene_den.rts"))
        self.cli("estimate", "--checkpoint", p("ckpt"), "--input", p("scene_den.rts"),
                 "--out-mu", p("mu.rts"), "--out-sigma", p("sigma.rts"),
                 "--stride", 2, "--batch-size", 64, "--drop-last", 2,
                 "--threads", self.threads)
        for frame, out in ((-2, "d_pre.rts"), (-1, "d_post.rts")):
            self.cli("metric", "--kind", "mahalanobis", "--stack", p("scene_den.rts"),
                     "--frame", frame, "--mu", p("mu.rts"), "--sigma", p("sigma.rts"),
                     "--out", p(out))
        self.cli("delineate", "--metric", p("d_post.rts"), "--tau", "3.0",
                 "--out", p("mask.rts"))

    def check(self, index: int) -> dict:
        p = self.path
        est = raster.read_estimate(p("mu.rts"), p("sigma.rts"))
        pre, post = raster.read_metric_map(p("d_pre.rts")), raster.read_metric_map(p("d_post.rts"))
        raster.read_delineation(p("mask.rts"))
        for name, values in (("mu", est.mu), ("sigma", est.sigma), ("d_pre", pre.values),
                             ("d_post", post.values)):
            if not np.all(np.isfinite(values)):
                raise OpFailed(f"map-scene op {index}: {name} map is not finite")
        truth = raster.read_mask(p("truth.rts"))
        frames = raster.read_stack(p("scene_den.rts")).values
        baseline = frames[:-2]
        lr_pre = disturbance.log_ratio_map(baseline, frames[-2])
        lr_post = disturbance.log_ratio_map(baseline, frames[-1])
        with self.check_root(index):
            auc = evaluation.pr_curve(evaluation.build_labeled_set(pre, post, truth)).auc
            lr_auc = evaluation.pr_curve(
                evaluation.build_labeled_set(lr_pre, lr_post, truth)).auc
        floor = self.size["auc_floor"]
        if floor is not None and not auc >= floor:
            raise OpFailed(f"map-scene op {index}: transformer PR-AUC {auc:.4f} < {floor}")
        files = [p(n) for n in ("mu.rts", "sigma.rts", "d_pre.rts", "d_post.rts", "mask.rts")]
        return {"digest": digest(*files), "auc": auc, "logratio_auc": lr_auc}

    def report(self, walls, checks):
        return {"map_scene_s": (walls, "s"),
                "map_pr_auc": ([c["auc"] for c in checks], "auc"),
                "map_logratio_pr_auc": ([c["logratio_auc"] for c in checks], "auc")}


class PrepareCorpus(Workload):
    name = "prepare-corpus"
    setup_repeats = 5

    def setup(self) -> str:
        # warm-up: one sequence through both calls, so the first op pays no
        # first-call costs
        self.clear("warm", "warm_den")
        self.synth_corpus(1, self.seed, self.path("warm"), self.path("warm_den"))
        return digest(*corpus_files(self.path("warm_den")))

    def prepare(self, index: int) -> None:
        self.clear("corpus", "corpus_den")

    def op(self, index: int) -> None:
        self.synth_corpus(self.size["prepare_count"], op_seed(self.seed, index),
                          self.path("corpus"), self.path("corpus_den"))

    def check(self, index: int) -> dict:
        files = corpus_files(self.path("corpus_den"))
        sequences = files[1:]
        if len(sequences) != self.size["prepare_count"]:
            raise OpFailed(f"prepare op {index}: {len(sequences)} sequences written")
        for path in sequences:
            raster.read_stack(path)   # full validation: shape, timestamps, (0,1) range
        return {"digest": digest(*files)}

    def report(self, walls, checks):
        count = self.size["prepare_count"]
        return {"prepare_sequences_per_s": ([count / w for w in walls], "sequences/s")}


WORKLOADS = {w.name: w for w in (TrainB1, MapScene, PrepareCorpus)}
