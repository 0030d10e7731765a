"""Command-line interface.

Subcommands: synth, despeckle, train, estimate, metric, delineate, eval,
ablate, selftest. Every run writes exactly one JSON manifest alongside its
outputs recording the resolved configuration, inputs, outputs, seed, tool
version and wall-clock duration.

The CLI only resolves flags, reads and writes; the library forecasts
(`inference.forecast`), picks and checks the scored frames (`score_frame`,
`two_image_scores`) and runs each `ablate` preset (`run_experiment`). `eval`
scores the estimate `estimate --drop-last 2` wrote.

Each flag is declared once, in `COMMANDS` or a dataclass table, with its type.
Flag precedence: explicit flags > --config JSON file > built-in defaults. A
config value must have the flag's JSON type: an integer for int flags, a number
for float flags, a string for paths and choices, true or false for switches and
a list of (vv, vh) number pairs for --class-gamma0, and 0 <= seed < 2**64. A
flag's text is read into that type, so both sources are checked by the same
rule. A config key that is not a flag of any subcommand is a validation error.
Threads resolve as --threads > --config > 1; one thread is the bitwise
reference path, and N > 1 sweep workers run BLAS single-threaded.

Exit codes: 0 success (stderr empty), 1 validation error (bad values,
malformed files, diverged training), 2 I/O error; stderr then holds one line.
An unknown flag is a usage error (exit 2).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import warnings
from dataclasses import replace

from . import __version__
from .errors import ProvenanceError, ValidationError, check_seed
from .evaluation import REPORT_FILES, default_tau_grid, emit_report, f1_vs_threshold, \
    pr_curve, run_experiment, two_image_scores
from .disturbance import score_frame, threshold_map
from .inference import _FORWARD_WINDOWS, SweepConfig, forecast
from .model import Model, ModelConfig, load_checkpoint, preset_input_patch, \
    preset_model_size, save_checkpoint
from .preprocess import PreprocessConfig, despeckle_stack, to_logit
from .raster import (read_estimate, read_json, read_mask, read_metric_map, read_stack,
                     write_delineation, write_estimate, write_json, write_mask,
                     write_metric_map, write_stack, write_text)
from .synth import SynthConfig, generate_scene, generate_training_corpus, load_corpus, \
    read_corpus_manifest, splitmix64
from .training import TrainConfig, train


def _class_gamma0(value) -> tuple[tuple[float, ...], ...]:
    """Per-class (vv, vh) mean backscatter from a JSON list of number pairs."""
    if not isinstance(value, list):
        raise ValueError(value)
    return tuple(tuple(_convert(float, v) for v in entry) for entry in value)


def _seed(value) -> int:
    """An integer seed that the library accepts (`check_seed`)."""
    return check_seed(_convert(int, value))


# A flag's type is int, float, str (every str flag names a file), bool (a switch),
# a tuple of choices, or a converter of JSON values such as _class_gamma0 or _seed.
# (flag, config field, type): each table declares its flags and resolves them
# into the fields of its dataclass, whose values are the defaults
SYNTH_FLAGS = (
    ("height", "height", int), ("width", "width", int), ("steps", "num_steps", int),
    ("classes", "num_classes", int), ("looks", "looks", float),
    ("seasonal-amplitude-db", "seasonal_amplitude_db", float),
    ("seasonal-period", "seasonal_period", float),
    ("delta-db", "disturbance_delta_db", float),
    ("fraction", "disturbance_fraction", float),
    ("class-gamma0", "class_gamma0", _class_gamma0),
)
PREPROCESS_FLAGS = (
    ("tv-weight", "tv_weight_db", float), ("tv-iterations", "tv_iterations", int),
    ("tv-step", "tv_step", float),
)
MODEL_FLAGS = (
    ("input-size", "input_size", int), ("patch-size", "patch_size", int),
    ("d-model", "d_model", int), ("heads", "num_heads", int), ("layers", "num_layers", int),
    ("ff", "ff_dim", int), ("head-hidden", "head_hidden", int), ("dropout", "dropout", float),
    ("max-t", "max_t", int), ("sigma-floor", "sigma_floor", float),
)
TRAIN_FLAGS = (
    ("batch-size", "batch_size", int), ("epochs", "epochs", int), ("lr", "lr_initial", float),
    ("lr-after-decay", "lr_after_decay", float), ("decay-epoch", "decay_epoch", int),
    ("t-min", "t_min", int), ("t-max", "t_max", int),
    ("steps-per-epoch", "steps_per_epoch", int),
)
SWEEP_FLAGS = (
    ("stride", "stride", int), ("batch-size", "batch_size", int), ("threads", "threads", int),
)
ABLATE_GRIDS = ("input-patch", "model-size", "learning-rate")

#: what a value of each flag type must be, for error messages
_EXPECTED = {int: "an integer", float: "a number", str: "a string", bool: "true or false",
             _class_gamma0: "a JSON list of (vv, vh) number pairs",
             _seed: "an integer in [0, 2**64)"}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 1
    func, _, rows, tables = COMMANDS[args.command]
    try:
        with warnings.catch_warnings():
            # stderr holds at most one error line, so outputs are checked for
            # finiteness instead; unlike np.errstate, this reaches sweep workers
            warnings.simplefilter("ignore", RuntimeWarning)
            return func(_Resolver(args, rows, tables))
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------

def _convert(kind, value, text: bool = False):
    """`value` as a flag of type `kind`, from a config file or, if `text`, from argv.

    Argv text is first read into the JSON value a config file would hold, then
    both are checked alike; raises ValueError, TypeError or OverflowError."""
    if isinstance(kind, tuple):
        if not (isinstance(value, str) and value in kind):
            raise ValueError(value)
        return value
    if kind not in (int, float, str, bool):
        return kind(json.loads(value) if text else value)
    if text and kind in (int, float):
        value = kind(value)
    if kind is float and type(value) is int:
        value = float(value)
    if type(value) is not kind:  # bool is not an int here
        raise TypeError(value)
    return value


def _flag_types(rows, tables) -> dict:
    """flag -> type for a command's own (flag, type, default) rows and its dataclass tables."""
    return {**{flag: kind for flag, kind, _ in rows},
            **{flag: kind for table in tables for flag, _, kind in table}}


class _Resolver:
    """flag > config file > default, with flag names in kebab-case.

    Every value given, by flag or config file, is converted when the resolver is
    built, so a malformed one fails before any file is read or written. A config
    key that no subcommand declares is an error; one file may serve them all."""

    def __init__(self, args, rows, tables):
        self.t0 = time.time()
        self.command = args.command
        path = getattr(args, "config", None)
        file = {} if path is None else read_json(path)
        if not isinstance(file, dict):
            raise ValidationError(f"{path}: config file must hold a JSON object")
        unknown = set(file) - {flag for _, _, own, dataclass_tables in COMMANDS.values()
                               for flag in _flag_types(own, dataclass_tables)}
        if unknown:
            raise ValidationError(f"{path}: no subcommand has a flag named "
                                  + ", ".join(map(repr, sorted(unknown))))
        self.defaults = {flag: default for flag, _, default in rows}
        self.given: dict = {}
        self.resolved: dict = {}
        for name, kind in _flag_types(rows, tables).items():
            flag = getattr(args, name.replace("-", "_"))
            if flag is not None:
                value, source = flag, f"--{name}"
            elif name in file:
                value, source = file[name], f"{path}: {name}"
            else:
                continue
            try:
                self.given[name] = _convert(kind, value, text=flag is not None)
            except (TypeError, ValueError, OverflowError):
                expected = ("one of " + ", ".join(kind) if isinstance(kind, tuple)
                            else _EXPECTED[kind])
                raise ValidationError(f"{source} must be {expected}, got {value!r}") from None

    def get(self, name: str):
        """The value of flag `name`."""
        return self._take(name, self.defaults[name])

    def require(self, what: str, *names: str) -> list:
        """The values of flags `names`, without which `what` cannot run."""
        values = [self.get(name) for name in names]
        if None in values:
            flags = [f"--{name}" for name in names]
            listed = ", ".join(flags[:-1]) + " and " if len(flags) > 1 else ""
            raise ValidationError(f"{what} needs {listed}{flags[-1]}")
        return values

    def config(self, base, table, **fixed):
        """`base` with every flag of `table` resolved into its field."""
        return replace(base, **{field: self._take(flag, getattr(base, field))
                                for flag, field, _ in table}, **fixed)

    def _take(self, name: str, default):
        value = self.given.get(name, default)
        self.resolved[name] = value
        return value


def _score_estimate(r: _Resolver, command: str, score, *args):
    """score(*args, est) and the --mu/--sigma paths; a provenance error names mu."""
    paths = r.require(f"{command} mahalanobis", "mu", "sigma")
    try:
        return score(*args, read_estimate(*paths)), paths
    except ProvenanceError as exc:
        raise ProvenanceError(f"{paths[0]}: {exc}") from None


def _write_manifest(r: _Resolver, target: str, inputs: list[str], outputs: list[str],
                    seed: int | None = None, extra: dict | None = None) -> None:
    manifest = {
        "subcommand": r.command,
        "version": __version__,
        "config": r.resolved,
        "inputs": inputs,
        "outputs": outputs,
        "seed": seed,
        "duration_seconds": time.time() - r.t0,
        **(extra or {}),
    }
    path = (os.path.join(target, "run.manifest.json") if os.path.isdir(target)
            else target + ".manifest.json")
    write_json(path, manifest)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_synth(r: _Resolver) -> int:
    cfg = r.config(SynthConfig(), SYNTH_FLAGS)
    seed = r.get("seed")
    if r.get("kind") == "corpus":
        count = r.get("count")
        out_dir, = r.require("synth corpus", "out-dir")
        manifest = generate_training_corpus(cfg, count, seed, out_dir)
        _write_manifest(r, out_dir, [], [manifest], seed)
        print(f"wrote {count} sequences to {out_dir}")
        return 0
    out, truth_out = r.require("synth scene", "out", "mask")
    stack, mask = generate_scene(cfg, seed)
    write_stack(stack, out)
    write_mask(mask, truth_out)
    _write_manifest(r, out, [], [out, truth_out], seed)
    print(f"wrote scene {out} ({stack.num_steps} frames) and truth {truth_out}")
    return 0


def _cmd_despeckle(r: _Resolver) -> int:
    cfg = r.config(PreprocessConfig(), PREPROCESS_FLAGS)
    allow_raw = r.get("allow-raw")
    manifest_in = r.get("manifest")
    if manifest_in is not None:
        out_dir, = r.require("despeckle --manifest", "out-dir")
        os.makedirs(out_dir, exist_ok=True)
        corpus = read_corpus_manifest(manifest_in)
        base = os.path.dirname(manifest_in)
        outputs = []
        for entry in corpus["entries"]:
            stack = read_stack(os.path.join(base, entry["path"]), allow_raw=allow_raw)
            out_path = os.path.join(out_dir, entry["path"])
            write_stack(despeckle_stack(stack, cfg), out_path)
            outputs.append(out_path)
        write_json(os.path.join(out_dir, "corpus.json"), corpus)
        _write_manifest(r, out_dir, [manifest_in], outputs)
        print(f"despeckled {len(outputs)} sequences into {out_dir}")
        return 0
    inp, out = r.require("despeckle without --manifest", "input", "out")
    stack = read_stack(inp, allow_raw=allow_raw)
    write_stack(despeckle_stack(stack, cfg), out)
    _write_manifest(r, out, [inp], [out])
    print(f"despeckled {inp} -> {out}")
    return 0


def _cmd_train(r: _Resolver) -> int:
    corpus_path, out_dir = r.require("train", "corpus", "out")
    seed = r.get("seed")
    kind = r.get("model")
    base = ModelConfig.gru_default() if kind == "gru" else ModelConfig.transformer_default()
    model_cfg = r.config(base, MODEL_FLAGS, kind=kind)
    train_cfg = r.config(TrainConfig(), TRAIN_FLAGS, seed=seed)
    frames = to_logit(load_corpus(corpus_path))
    model = Model(model_cfg, seed=seed)
    stats = {}
    result = train(model, train_cfg, frames, stats)
    save_checkpoint(result.model, out_dir)
    loss_path = os.path.join(out_dir, "loss.csv")
    write_text(loss_path, result.loss_csv())
    _write_manifest(r, out_dir, [corpus_path], [out_dir, loss_path], seed,
                    extra={"diverged": result.diverged,
                           "completed_epochs": result.completed_epochs,
                           "parameters": result.model.parameter_count(),
                           "training": stats})
    if result.diverged:
        print(f"error: training diverged after epoch {result.completed_epochs}; "
              f"checkpoint holds the last finished epoch", file=sys.stderr)
        return 1
    print(f"trained {model_cfg.kind} ({result.model.parameter_count()} params), "
          f"final nll {result.loss_rows[-1][1]:.6g}")
    return 0


def _cmd_estimate(r: _Resolver) -> int:
    ckpt, inp, out_mu, out_sigma = r.require("estimate", "checkpoint", "input", "out-mu",
                                             "out-sigma")
    sweep = r.config(SweepConfig(), SWEEP_FLAGS)
    stack = read_stack(inp, allow_raw=r.get("allow-raw"))
    stats = {}
    est = forecast(load_checkpoint(ckpt), stack, sweep, r.get("drop-last"), stats)
    write_estimate(est, out_mu, out_sigma)
    _write_manifest(r, out_mu, [ckpt, inp], [out_mu, out_sigma],
                    extra={"sweep": stats})
    print(f"estimated {inp} -> {out_mu}, {out_sigma}")
    return 0


def _cmd_metric(r: _Resolver) -> int:
    kind, stack_path, out = r.require("metric", "kind", "stack", "out")
    stack = read_stack(stack_path, allow_raw=r.get("allow-raw"))
    frame = r.get("frame")
    if kind == "mahalanobis":
        dmap, est_paths = _score_estimate(r, "metric --kind", score_frame, stack, frame)
    else:
        dmap, est_paths = score_frame(stack, frame, baseline=r.get("baseline-frames")), []
    write_metric_map(dmap, out)
    _write_manifest(r, out, [stack_path, *est_paths], [out])
    print(f"wrote {kind} map {out} (units {dmap.units})")
    return 0


def _cmd_delineate(r: _Resolver) -> int:
    metric_path, tau, out = r.require("delineate", "metric", "tau", "out")
    dmap = read_metric_map(metric_path)
    delineation = threshold_map(dmap, tau)
    write_delineation(delineation, out)
    _write_manifest(r, out, [metric_path], [out])
    frac = float(delineation.mask.mean())
    print(f"delineated {out}: {delineation.mask.sum()} pixels ({frac:.2%}) above {tau}")
    return 0


def _cmd_eval(r: _Resolver) -> int:
    stack_path, truth_path, out_dir = r.require("eval", "stack", "truth", "out-dir")
    method = r.get("method")
    max_points = r.get("max-points")
    stack = read_stack(stack_path, allow_raw=r.get("allow-raw"))
    truth = read_mask(truth_path)
    if method == "mahalanobis":
        labeled, est_paths = _score_estimate(r, "eval --method", two_image_scores, stack, truth)
    else:
        labeled, est_paths = two_image_scores(stack, truth), []
    curve = pr_curve(labeled, max_points=max_points)
    summary = emit_report(out_dir, curve, f1_vs_threshold(labeled, default_tau_grid(labeled)))
    outputs = [os.path.join(out_dir, name) for name in REPORT_FILES]
    _write_manifest(r, out_dir, [stack_path, truth_path, *est_paths], outputs,
                    extra={"method": method})
    print(f"{method}: pr_auc={summary['pr_auc']:.4f} best_f1={summary['best_f1']:.4f} "
          f"best_tau={summary['best_tau']:.4f}")
    return 0


def _cmd_ablate(r: _Resolver) -> int:
    out_dir, = r.require("ablate", "out-dir")
    grid = r.get("grid")
    seed = r.get("seed")
    corpus_size, epochs, scene_size, batch_size, threads = (
        r.get(name) for name in ("corpus-size", "epochs", "scene-size", "batch-size", "threads"))
    for flag in ("scene-size", "epochs", "batch-size", "threads"):
        if r.get(flag) < 1:   # before the first preset writes its corpus
            raise ValidationError(f"--{flag} must be >= 1, got {r.get(flag)}")
    rows, runs = [], {}   # equal presets (input16_patch8, ff512_layers2) run once
    for g in ABLATE_GRIDS if grid == "all" else (grid,):
        for label, model_cfg, lr in _ablate_presets(g):
            if (model_cfg, lr) not in runs:
                # the 32-pixel presets need 32-pixel sequences and scenes
                size, scene = max(model_cfg.input_size, 16), max(scene_size, model_cfg.input_size)
                corpus_cfg = SynthConfig(height=size, width=size, seasonal_amplitude_db=2.0,
                                         seed=seed)
                tc = TrainConfig(batch_size=batch_size, epochs=epochs, seed=seed, lr_initial=lr,
                                 lr_after_decay=lr / 10.0, decay_epoch=max(1, epochs))
                result, curve, _ = run_experiment(
                    corpus_cfg, corpus_size, os.path.join(out_dir, f"{g}_{label}", "corpus"),
                    model_cfg, tc, replace(corpus_cfg, height=scene, width=scene,
                                           seed=splitmix64(seed, 0xAB1A7E)),
                    SweepConfig(stride=model_cfg.patch_size, batch_size=64, threads=threads))
                runs[model_cfg, lr] = result.model.parameter_count(), curve.auc, curve.best_f1
            rows.append((g, label, *runs[model_cfg, lr]))
            print(f"{g} {label}: params={rows[-1][2]} pr_auc={rows[-1][3]:.4f}")
    csv_path = os.path.join(out_dir, "ablation_summary.csv")
    write_text(csv_path, "grid,preset,parameters,pr_auc,best_f1\n" + "".join(
        f"{g},{label},{params},{auc:.6g},{f1:.6g}\n" for g, label, params, auc, f1 in rows))
    _write_manifest(r, out_dir, [], [csv_path], seed)
    print(f"wrote {csv_path}")
    return 0


def _ablate_presets(grid: str):
    if grid == "input-patch":
        for input_size, patch in ((16, 8), (32, 8), (32, 16)):
            yield f"input{input_size}_patch{patch}", \
                replace(preset_input_patch(input_size, patch), ff_dim=512,
                        num_layers=2), 1e-3
    elif grid == "model-size":
        for ff, layers in ((512, 2), (768, 4), (1024, 8)):
            yield f"ff{ff}_layers{layers}", preset_model_size(ff, layers), 1e-3
    else:
        for lr in (1e-4, 1e-5, 1e-6):
            yield f"lr{lr:g}", preset_model_size(512, 2), lr


def _cmd_selftest(r: _Resolver) -> int:
    from .selftest import run_selftest

    return run_selftest()


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

_ALLOW_RAW = ("allow-raw", bool, False)
_ESTIMATE = (("mu", str, None), ("sigma", str, None))

#: subcommand -> (handler, help, own (flag, type, default) rows, dataclass tables)
COMMANDS = {
    "synth": (_cmd_synth, "generate synthetic scenes or training corpora", (
        ("kind", ("scene", "corpus"), "scene"), ("out", str, None), ("mask", str, None),
        ("out-dir", str, None), ("count", int, 64), ("seed", _seed, 0)), (SYNTH_FLAGS,)),
    "despeckle": (_cmd_despeckle, "TV-despeckle a stack or a whole corpus", (
        ("input", str, None), ("out", str, None), ("manifest", str, None),
        ("out-dir", str, None), _ALLOW_RAW), (PREPROCESS_FLAGS,)),
    "train": (_cmd_train, "train a forecasting model on a corpus", (
        ("corpus", str, None), ("out", str, None), ("seed", _seed, 0),
        ("model", ("transformer", "gru"), "transformer")), (MODEL_FLAGS, TRAIN_FLAGS)),
    "estimate": (_cmd_estimate, "sliding-window forecast of a scene; --batch-size is the most "
                 f"windows per forward pass, capped at {_FORWARD_WINDOWS}", (
        ("checkpoint", str, None), ("input", str, None), ("out-mu", str, None),
        ("out-sigma", str, None), ("drop-last", int, 0), _ALLOW_RAW), (SWEEP_FLAGS,)),
    "metric": (_cmd_metric, "compute a disturbance metric map", (
        ("kind", ("mahalanobis", "logratio"), None), ("stack", str, None), *_ESTIMATE,
        ("out", str, None), ("frame", int, -1), ("baseline-frames", int, None),
        _ALLOW_RAW), ()),
    "delineate": (_cmd_delineate, "threshold a metric map to a binary mask", (
        ("metric", str, None), ("out", str, None), ("tau", float, None)), ()),
    "eval": (_cmd_eval, "two-image evaluation against a truth mask", (
        ("stack", str, None), ("truth", str, None), *_ESTIMATE, ("out-dir", str, None),
        ("method", ("mahalanobis", "logratio"), "mahalanobis"), ("max-points", int, 512),
        _ALLOW_RAW), ()),
    "ablate": (_cmd_ablate, "run preset ablation grids at desk scale", (
        ("grid", (*ABLATE_GRIDS, "all"), "all"), ("out-dir", str, None),
        ("corpus-size", int, 64), ("epochs", int, 2), ("scene-size", int, 64),
        ("batch-size", int, 32), ("threads", int, 1), ("seed", _seed, 0)), ()),
    "selftest": (_cmd_selftest, "run the built-in invariant checks", (), ()),
}


def _build_parser() -> argparse.ArgumentParser:
    """Value flags reach the resolver as raw text, switches as True; unset is None."""
    parser = argparse.ArgumentParser(
        prog="sardist",
        description="Self-supervised disturbance mapping from dual-pol "
                    "backscatter time series.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.set_defaults(command=None)
    sub = parser.add_subparsers(dest="command")
    for name, (_, help_text, rows, tables) in COMMANDS.items():
        sp = sub.add_parser(name, help=help_text, description=help_text)
        flags = _flag_types(rows, tables)
        if flags:
            sp.add_argument("--config", help="JSON file with flag defaults")
        for flag, kind in flags.items():
            if kind is bool:
                sp.add_argument(f"--{flag}", action="store_const", const=True)
            else:
                sp.add_argument(f"--{flag}", metavar="{%s}" % ",".join(kind)
                                if isinstance(kind, tuple) else None)
    return parser


if __name__ == "__main__":
    sys.exit(main())
