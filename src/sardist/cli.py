"""Command-line interface.

Subcommands: synth, despeckle, train, estimate, metric, delineate, eval,
ablate, selftest. Every run writes exactly one JSON manifest alongside its
outputs recording the resolved configuration, inputs, outputs, seed, tool
version and wall-clock duration.

The CLI only resolves flags, reads inputs and writes outputs; forecasting
(`inference.forecast`) and two-image scoring (`evaluation.two_image_scores`)
live in the library.

Flag precedence: explicit flags > --config JSON file > built-in defaults.
Thread count resolves as --threads > SARDIST_THREADS > 1; one thread is the
bitwise reference path.

Exit codes: 0 success, 1 validation error (bad values, malformed files,
diverged training), 2 I/O error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import replace

from . import __version__
from .errors import ValidationError
from .evaluation import default_tau_grid, emit_report, f1_vs_threshold, pr_curve, \
    two_image_scores
from .disturbance import log_ratio_map, mahalanobis_map, threshold_map
from .inference import SweepConfig, forecast
from .model import Model, ModelConfig, load_checkpoint, preset_input_patch, \
    preset_model_size, save_checkpoint
from .preprocess import PreprocessConfig, despeckle_stack, to_logit
from .raster import (read_estimate, read_mask, read_metric_map, read_stack,
                     write_delineation, write_estimate, write_mask,
                     write_metric_map, write_stack)
from .synth import SynthConfig, generate_scene, generate_training_corpus, load_corpus, \
    read_corpus_manifest, splitmix64
from .training import TrainConfig, train

# (flag, config field, type): the parser declares each flag from these tables
# and _config resolves it into the field
SYNTH_FLAGS = (
    ("height", "height", int), ("width", "width", int), ("steps", "num_steps", int),
    ("classes", "num_classes", int), ("looks", "looks", float),
    ("seasonal-amplitude-db", "seasonal_amplitude_db", float),
    ("seasonal-period", "seasonal_period", float),
    ("delta-db", "disturbance_delta_db", float),
    ("fraction", "disturbance_fraction", float),
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


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 1
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------

def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:
            raise ValidationError(f"{path}: config file is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ValidationError(f"{path}: config file must hold a JSON object")
    return data


class _Resolver:
    """flag > config file > default, with flag names in kebab-case."""

    def __init__(self, args):
        self.args = args
        self.path = getattr(args, "config", None)
        self.file = _load_config_file(self.path)
        self.resolved: dict = {}

    def get(self, name: str, default, kind=None):
        """The resolved value, converted by `kind` unless it is None."""
        flag = getattr(self.args, name.replace("-", "_"), None)
        if flag is not None:
            value = flag
        elif name in self.file:
            value = self.file[name]
        else:
            value = default
        self.resolved[name] = value
        if kind is None or value is None:
            return value
        try:
            return kind(value)
        except (TypeError, ValueError):
            # flags are parsed by type and defaults are typed: the file is at fault
            raise ValidationError(f"{self.path}: {name} must be {kind.__name__}, "
                                  f"got {value!r}") from None


def _config(r: _Resolver, base, table, **fixed):
    """`base` with every flag of `table` resolved into its field."""
    values = {field: r.get(flag, getattr(base, field), kind) for flag, field, kind in table}
    return replace(base, **values, **fixed)


def _env_threads() -> int:
    env = os.environ.get("SARDIST_THREADS")
    try:
        return int(env) if env else 1
    except ValueError:
        raise ValidationError(f"SARDIST_THREADS must be an integer, got {env!r}") from None


def _sweep_config(r: _Resolver) -> SweepConfig:
    return _config(r, SweepConfig(threads=_env_threads()), SWEEP_FLAGS)


def _write_manifest(target: str, subcommand: str, resolver: _Resolver,
                    inputs: list[str], outputs: list[str], seed: int | None,
                    t0: float, extra: dict | None = None) -> None:
    manifest = {
        "subcommand": subcommand,
        "version": __version__,
        "config": resolver.resolved,
        "inputs": inputs,
        "outputs": outputs,
        "seed": seed,
        "duration_seconds": time.time() - t0,
    }
    if extra:
        manifest.update(extra)
    if os.path.isdir(target):
        path = os.path.join(target, "run.manifest.json")
    else:
        path = target + ".manifest.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_synth(args) -> int:
    t0 = time.time()
    r = _Resolver(args)
    gamma0 = r.get("class-gamma0", None)
    try:
        if isinstance(gamma0, str):
            gamma0 = json.loads(gamma0)
        if gamma0 is not None:
            gamma0 = tuple(tuple(float(v) for v in entry) for entry in gamma0)
    except (TypeError, ValueError):
        raise ValidationError(f"class-gamma0 must be a JSON list of (vv, vh) pairs, "
                              f"got {gamma0!r}") from None
    cfg = _config(r, SynthConfig(), SYNTH_FLAGS, class_gamma0=gamma0)
    seed = r.get("seed", 0, int)
    kind = r.get("kind", "scene")
    if kind == "corpus":
        count = r.get("count", 64, int)
        out_dir = r.get("out-dir", None)
        if out_dir is None:
            raise ValidationError("synth corpus needs --out-dir")
        manifest = generate_training_corpus(cfg, count, seed, out_dir)
        _write_manifest(out_dir, "synth", r, [], [manifest], seed, t0)
        print(f"wrote {count} sequences to {out_dir}")
        return 0
    if kind != "scene":
        raise ValidationError(f"synth kind must be scene or corpus, got {kind!r}")
    out = r.get("out", None)
    truth_out = r.get("mask", None)
    if out is None or truth_out is None:
        raise ValidationError("synth scene needs --out and --mask")
    stack, mask = generate_scene(cfg, seed)
    write_stack(stack, out)
    write_mask(mask, truth_out)
    _write_manifest(out, "synth", r, [], [out, truth_out], seed, t0)
    print(f"wrote scene {out} ({stack.num_steps} frames) and truth {truth_out}")
    return 0


def _cmd_despeckle(args) -> int:
    t0 = time.time()
    r = _Resolver(args)
    cfg = _config(r, PreprocessConfig(), PREPROCESS_FLAGS)
    allow_raw = bool(r.get("allow-raw", False))
    manifest_in = r.get("manifest", None)
    if manifest_in is not None:
        out_dir = r.get("out-dir", None)
        if out_dir is None:
            raise ValidationError("despeckle --manifest needs --out-dir")
        os.makedirs(out_dir, exist_ok=True)
        corpus = read_corpus_manifest(manifest_in)
        base = os.path.dirname(manifest_in)
        outputs = []
        for entry in corpus["entries"]:
            stack = read_stack(os.path.join(base, entry["path"]), allow_raw=allow_raw)
            out_path = os.path.join(out_dir, entry["path"])
            write_stack(despeckle_stack(stack, cfg), out_path)
            outputs.append(out_path)
        out_manifest = os.path.join(out_dir, "corpus.json")
        with open(out_manifest, "w", encoding="utf-8") as fh:
            json.dump(corpus, fh, indent=2, sort_keys=True)
            fh.write("\n")
        _write_manifest(out_dir, "despeckle", r, [manifest_in], outputs, None, t0)
        print(f"despeckled {len(outputs)} sequences into {out_dir}")
        return 0
    inp = r.get("input", None)
    out = r.get("out", None)
    if inp is None or out is None:
        raise ValidationError("despeckle needs --input and --out (or --manifest/--out-dir)")
    stack = read_stack(inp, allow_raw=allow_raw)
    write_stack(despeckle_stack(stack, cfg), out)
    _write_manifest(out, "despeckle", r, [inp], [out], None, t0)
    print(f"despeckled {inp} -> {out}")
    return 0


def _cmd_train(args) -> int:
    t0 = time.time()
    r = _Resolver(args)
    corpus_path = r.get("corpus", None)
    out_dir = r.get("out", None)
    if corpus_path is None or out_dir is None:
        raise ValidationError("train needs --corpus and --out")
    seed = r.get("seed", 0, int)
    kind = r.get("model", "transformer", str)
    base = ModelConfig.gru_default() if kind == "gru" else ModelConfig.transformer_default()
    model_cfg = _config(r, base, MODEL_FLAGS, kind=kind)
    train_cfg = _config(r, TrainConfig(), TRAIN_FLAGS, seed=seed)
    frames = to_logit(load_corpus(corpus_path))
    model = Model(model_cfg, seed=seed)
    result = train(model, train_cfg, frames)
    save_checkpoint(result.model, out_dir)
    loss_path = os.path.join(out_dir, "loss.csv")
    with open(loss_path, "w", encoding="utf-8") as fh:
        fh.write(result.loss_csv())
    _write_manifest(out_dir, "train", r, [corpus_path],
                    [out_dir, loss_path], seed, t0,
                    extra={"diverged": result.diverged,
                           "completed_epochs": result.completed_epochs,
                           "parameters": result.model.parameter_count()})
    if result.diverged:
        print(f"training diverged after epoch {result.completed_epochs}; "
              f"checkpoint holds the last finished epoch", file=sys.stderr)
        return 1
    print(f"trained {model_cfg.kind} ({result.model.parameter_count()} params), "
          f"final nll {result.loss_rows[-1][1]:.6g}")
    return 0


def _cmd_estimate(args) -> int:
    t0 = time.time()
    r = _Resolver(args)
    ckpt = r.get("checkpoint", None)
    inp = r.get("input", None)
    out_mu = r.get("out-mu", None)
    out_sigma = r.get("out-sigma", None)
    if None in (ckpt, inp, out_mu, out_sigma):
        raise ValidationError("estimate needs --checkpoint, --input, --out-mu, --out-sigma")
    sweep = _sweep_config(r)
    drop_last = r.get("drop-last", 0, int)
    stack = read_stack(inp, allow_raw=bool(r.get("allow-raw", False)))
    frames = stack.values if drop_last == 0 else stack.values[:-drop_last]
    if frames.shape[0] < 2:
        raise ValidationError(f"only {frames.shape[0]} frames left after --drop-last")
    est = forecast(load_checkpoint(ckpt), frames, sweep)
    write_estimate(est, out_mu, out_sigma)
    _write_manifest(out_mu, "estimate", r, [ckpt, inp], [out_mu, out_sigma], None, t0)
    print(f"estimated {inp} -> {out_mu}, {out_sigma}")
    return 0


def _cmd_metric(args) -> int:
    t0 = time.time()
    r = _Resolver(args)
    kind = r.get("kind", None)
    stack_path = r.get("stack", None)
    out = r.get("out", None)
    if kind not in ("mahalanobis", "logratio"):
        raise ValidationError("metric --kind must be mahalanobis or logratio")
    if stack_path is None or out is None:
        raise ValidationError("metric needs --stack and --out")
    stack = read_stack(stack_path, allow_raw=bool(r.get("allow-raw", False)))
    frame = r.get("frame", -1, int)
    count = stack.num_steps
    frame = frame if frame >= 0 else count + frame
    if not 0 <= frame < count:
        raise ValidationError(f"frame {frame} outside stack of {count} frames")
    if kind == "mahalanobis":
        mu_path = r.get("mu", None)
        sigma_path = r.get("sigma", None)
        if mu_path is None or sigma_path is None:
            raise ValidationError("metric --kind mahalanobis needs --mu and --sigma")
        est = read_estimate(mu_path, sigma_path)
        dmap = mahalanobis_map(est, to_logit(stack.values[frame]))
        inputs = [stack_path, mu_path, sigma_path]
    else:
        baseline = r.get("baseline-frames", frame, int)
        if baseline < 2:
            raise ValidationError(f"log ratio needs >= 2 baseline frames, got {baseline}")
        if baseline > count:
            raise ValidationError(f"baseline {baseline} exceeds stack of {count} frames")
        dmap = log_ratio_map(stack.values[:baseline], stack.values[frame])
        inputs = [stack_path]
    write_metric_map(dmap, out)
    _write_manifest(out, "metric", r, inputs, [out], None, t0)
    print(f"wrote {kind} map {out} (units {dmap.units})")
    return 0


def _cmd_delineate(args) -> int:
    t0 = time.time()
    r = _Resolver(args)
    metric_path = r.get("metric", None)
    out = r.get("out", None)
    tau = r.get("tau", None, float)
    if metric_path is None or out is None or tau is None:
        raise ValidationError("delineate needs --metric, --tau and --out")
    dmap = read_metric_map(metric_path)
    delineation = threshold_map(dmap, tau)
    write_delineation(delineation, out)
    _write_manifest(out, "delineate", r, [metric_path], [out], None, t0)
    frac = float(delineation.mask.mean())
    print(f"delineated {out}: {delineation.mask.sum()} pixels ({frac:.2%}) above {tau}")
    return 0


def _cmd_eval(args) -> int:
    t0 = time.time()
    r = _Resolver(args)
    stack_path = r.get("stack", None)
    truth_path = r.get("truth", None)
    out_dir = r.get("out-dir", None)
    method = r.get("method", "transformer")
    if None in (stack_path, truth_path, out_dir):
        raise ValidationError("eval needs --stack, --truth and --out-dir")
    sweep = _sweep_config(r)
    max_points = r.get("max-points", 512, int)
    stack = read_stack(stack_path, allow_raw=bool(r.get("allow-raw", False)))
    truth = read_mask(truth_path)
    checkpoint = r.get("checkpoint", None)
    model = None
    if method in ("transformer", "gru"):
        if checkpoint is None:
            raise ValidationError(f"method {method} needs --checkpoint")
        model = load_checkpoint(checkpoint)
        if model.cfg.kind != method:
            raise ValidationError(f"checkpoint holds a {model.cfg.kind}, but method is {method}")
    elif method != "logratio":
        raise ValidationError(f"unknown method {method!r}")
    labeled = two_image_scores(stack.values, truth, model, sweep)
    curve = pr_curve(labeled, max_points=max_points)
    os.makedirs(out_dir, exist_ok=True)
    summary = emit_report(out_dir, curve, f1_vs_threshold(labeled, default_tau_grid(labeled)))
    outputs = [os.path.join(out_dir, name) for name in
               ("pr_curve.csv", "f1_vs_tau.csv", "pr_curve.svg", "f1_vs_tau.svg",
                "summary.json")]
    _write_manifest(out_dir, "eval", r, [stack_path, truth_path], outputs, None, t0,
                    extra={"method": method})
    print(f"{method}: pr_auc={summary['pr_auc']:.4f} best_f1={summary['best_f1']:.4f} "
          f"best_tau={summary['best_tau']:.4f}")
    return 0


def _cmd_ablate(args) -> int:
    t0 = time.time()
    r = _Resolver(args)
    out_dir = r.get("out-dir", None)
    if out_dir is None:
        raise ValidationError("ablate needs --out-dir")
    grid = r.get("grid", "all")
    seed = r.get("seed", 0, int)
    corpus_size = r.get("corpus-size", 64, int)
    epochs = r.get("epochs", 2, int)
    scene_size = r.get("scene-size", 64, int)
    batch_size = r.get("batch-size", 32, int)
    threads = r.get("threads", _env_threads(), int)
    grids = ("input-patch", "model-size", "learning-rate")
    chosen = grids if grid == "all" else (grid,)
    for g in chosen:
        if g not in grids:
            raise ValidationError(f"unknown grid {g!r}; choose from {grids} or all")

    os.makedirs(out_dir, exist_ok=True)
    rows = []
    for g in chosen:
        for label, model_cfg, lr in _ablate_presets(g):
            row = _run_ablate_case(
                g, label, model_cfg, lr, seed, corpus_size, epochs,
                scene_size, batch_size, threads, out_dir)
            rows.append(row)
            print(f"{g} {label}: params={row[2]} pr_auc={row[3]:.4f}")
    csv_path = os.path.join(out_dir, "ablation_summary.csv")
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("grid,preset,parameters,pr_auc,best_f1\n")
        for g, label, params, auc, f1 in rows:
            fh.write(f"{g},{label},{params},{auc:.6g},{f1:.6g}\n")
    _write_manifest(out_dir, "ablate", r, [], [csv_path], seed, t0)
    print(f"wrote {csv_path}")
    return 0


def _ablate_presets(grid: str):
    if grid == "input-patch":
        for input_size, patch in ((16, 8), (32, 8), (32, 16)):
            yield f"input{input_size}_patch{patch}", \
                replace(preset_input_patch(input_size, patch), ff_dim=512,
                        num_layers=2), None
    elif grid == "model-size":
        for ff, layers in ((512, 2), (768, 4), (1024, 8)):
            yield f"ff{ff}_layers{layers}", preset_model_size(ff, layers), None
    else:
        for lr in (1e-4, 1e-5, 1e-6):
            yield f"lr{lr:g}", preset_model_size(512, 2), lr


def _run_ablate_case(grid, label, model_cfg, lr, seed, corpus_size, epochs,
                     scene_size, batch_size, threads, out_dir):
    case_dir = os.path.join(out_dir, f"{grid}_{label}")
    os.makedirs(case_dir, exist_ok=True)
    synth_cfg = SynthConfig(height=max(model_cfg.input_size, 16),
                            width=max(model_cfg.input_size, 16),
                            seasonal_amplitude_db=2.0)
    corpus_manifest = generate_training_corpus(
        synth_cfg, corpus_size, seed, os.path.join(case_dir, "corpus"))
    frames = to_logit(load_corpus(corpus_manifest))
    lr = lr if lr is not None else 1e-3
    tc = TrainConfig(batch_size=batch_size, epochs=epochs, seed=seed, lr_initial=lr,
                     lr_after_decay=lr / 10.0, decay_epoch=max(1, epochs))
    result = train(Model(model_cfg, seed=seed), tc, frames)
    scene_cfg = replace(synth_cfg, height=max(scene_size, model_cfg.input_size),
                        width=max(scene_size, model_cfg.input_size))
    stack, truth = generate_scene(scene_cfg, splitmix64(seed, 0xAB1A7E))
    sweep = SweepConfig(stride=model_cfg.patch_size, batch_size=64, threads=threads)
    curve = pr_curve(two_image_scores(stack.values, truth, result.model, sweep))
    return (grid, label, result.model.parameter_count(), curve.auc, curve.best_f1)


def _cmd_selftest(args) -> int:
    from .selftest import run_selftest

    return run_selftest()


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add(sp, *names: str, kind=None) -> None:
    for name in names:
        sp.add_argument(f"--{name}", type=kind)


def _add_table(sp, table) -> None:
    for flag, _, kind in table:
        _add(sp, flag, kind=kind)


def _subparser(sub, name: str, func, help_text: str):
    sp = sub.add_parser(name, help=help_text)
    sp.add_argument("--config", help="JSON file with flag defaults")
    sp.add_argument("--seed", type=int)
    sp.set_defaults(func=func)
    return sp


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sardist",
        description="Self-supervised disturbance mapping from dual-pol "
                    "backscatter time series.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.set_defaults(command=None)
    sub = parser.add_subparsers(dest="command")

    sp = _subparser(sub, "synth", _cmd_synth, "generate synthetic scenes or training corpora")
    sp.add_argument("--kind", choices=("scene", "corpus"))
    _add(sp, "out", "mask", "out-dir")
    _add(sp, "count", kind=int)
    _add_table(sp, SYNTH_FLAGS)
    sp.add_argument("--class-gamma0",
                    help="JSON list of per-class (vv, vh) mean backscatter")

    sp = _subparser(sub, "despeckle", _cmd_despeckle, "TV-despeckle a stack or a whole corpus")
    _add(sp, "input", "out", "manifest", "out-dir")
    _add_table(sp, PREPROCESS_FLAGS)
    sp.add_argument("--allow-raw", action="store_const", const=True)

    sp = _subparser(sub, "train", _cmd_train, "train a forecasting model on a corpus")
    _add(sp, "corpus", "out")
    sp.add_argument("--model", choices=("transformer", "gru"))
    _add_table(sp, MODEL_FLAGS)
    _add_table(sp, TRAIN_FLAGS)

    sp = _subparser(sub, "estimate", _cmd_estimate, "sliding-window forecast of a scene")
    _add(sp, "checkpoint", "input", "out-mu", "out-sigma")
    _add_table(sp, SWEEP_FLAGS)
    _add(sp, "drop-last", kind=int)
    sp.add_argument("--allow-raw", action="store_const", const=True)

    sp = _subparser(sub, "metric", _cmd_metric, "compute a disturbance metric map")
    sp.add_argument("--kind", choices=("mahalanobis", "logratio"))
    _add(sp, "stack", "mu", "sigma", "out")
    _add(sp, "frame", "baseline-frames", kind=int)
    sp.add_argument("--allow-raw", action="store_const", const=True)

    sp = _subparser(sub, "delineate", _cmd_delineate, "threshold a metric map to a binary mask")
    _add(sp, "metric", "out")
    _add(sp, "tau", kind=float)

    sp = _subparser(sub, "eval", _cmd_eval, "two-image evaluation against a truth mask")
    _add(sp, "stack", "truth", "checkpoint", "out-dir")
    sp.add_argument("--method", choices=("transformer", "gru", "logratio"))
    _add_table(sp, SWEEP_FLAGS)
    _add(sp, "max-points", kind=int)
    sp.add_argument("--allow-raw", action="store_const", const=True)

    sp = _subparser(sub, "ablate", _cmd_ablate, "run preset ablation grids at desk scale")
    sp.add_argument("--grid", choices=("input-patch", "model-size", "learning-rate", "all"))
    _add(sp, "out-dir")
    _add(sp, "corpus-size", "epochs", "scene-size", "batch-size", "threads", kind=int)

    sp = sub.add_parser("selftest", help="run the built-in invariant checks")
    sp.set_defaults(func=_cmd_selftest)

    return parser


if __name__ == "__main__":
    sys.exit(main())
