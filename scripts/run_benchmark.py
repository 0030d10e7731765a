#!/usr/bin/env python3
"""Run the end-to-end synthetic benchmark through the command line interface.

Drives the full artifact chain with the frozen benchmark configuration:

    synth corpus -> despeckle -> train (FF=512, L=2, 5 epochs)
    synth scene  -> despeckle -> estimate -> metric -> eval (both methods)

and compares the forecast-based metric against the log-ratio baseline on the
same scene; eval scores the estimate that the estimate step wrote, so the
window sweep runs once. Everything is seeded; reruns reproduce the same
artifacts. The script exits 0 iff the transformer reaches PR-AUC >= 0.85 and
is at least as good as the log-ratio baseline.

The scene carries a per-class seasonal cycle (1.5 dB, period 24 steps) longer
than the 10-frame model window: a forecaster tracks the drift into the
post-event frame, while a static temporal median mis-centers by up to the
full amplitude. That is the regime the learned metric exists for, and it
separates the methods structurally rather than by seed luck.
"""

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

CORPUS_SEED = 2024
TRAIN_SEED = 0
SCENE_SEED = 303
SEASONAL = ["--seasonal-amplitude-db", "1.5", "--seasonal-period", "24"]


def step(label: str, argv: list) -> None:
    from sardist.cli import main as cli

    t0 = time.time()
    code = cli(argv)
    if code != 0:
        print(f"FAIL {label}: exit code {code}", file=sys.stderr)
        raise SystemExit(code)
    print(f"  [{time.time() - t0:6.1f}s] {label}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", default="benchmark_out")
    parser.add_argument("--stride", type=int, default=2)
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--corpus-size", type=int, default=512)
    parser.add_argument("--epochs", type=int, default=5)
    args = parser.parse_args()
    print(f"threads: --threads {args.threads}, {os.cpu_count()} cores")

    out = args.out_dir
    os.makedirs(out, exist_ok=True)
    corpus = os.path.join(out, "corpus")
    corpus_den = os.path.join(out, "corpus_den")
    ckpt = os.path.join(out, "checkpoint")
    scene = os.path.join(out, "scene.rts")
    truth = os.path.join(out, "truth.rts")
    scene_den = os.path.join(out, "scene_den.rts")
    mu, sigma = os.path.join(out, "mu.rts"), os.path.join(out, "sigma.rts")

    print("benchmark pipeline:")
    step("synth corpus", ["synth", "--kind", "corpus", "--count", str(args.corpus_size),
                          "--seed", str(CORPUS_SEED), *SEASONAL, "--out-dir", corpus])
    step("despeckle corpus", ["despeckle", "--manifest", os.path.join(corpus, "corpus.json"),
                              "--out-dir", corpus_den])
    step("train transformer", ["train", "--corpus", os.path.join(corpus_den, "corpus.json"),
                               "--out", ckpt, "--model", "transformer",
                               "--ff", "512", "--layers", "2",
                               "--epochs", str(args.epochs), "--batch-size", "1",
                               "--lr", "5e-4", "--lr-after-decay", "5e-4",
                               "--decay-epoch", str(args.epochs),
                               "--seed", str(TRAIN_SEED)])
    step("synth scene", ["synth", "--kind", "scene", "--seed", str(SCENE_SEED),
                         "--height", "128", "--width", "128", *SEASONAL,
                         "--fraction", "0.05", "--out", scene, "--mask", truth])
    step("despeckle scene", ["despeckle", "--input", scene, "--out", scene_den])
    step("estimate", ["estimate", "--checkpoint", ckpt, "--input", scene_den,
                      "--out-mu", mu, "--out-sigma", sigma,
                      "--stride", str(args.stride), "--batch-size", "64",
                      "--threads", str(args.threads), "--drop-last", "2"])
    step("metric (forecast, post frame)",
         ["metric", "--kind", "mahalanobis", "--stack", scene_den, "--frame", "-1",
          "--mu", mu, "--sigma", sigma, "--out", os.path.join(out, "d_post.rts")])
    step("metric (log ratio, post frame)",
         ["metric", "--kind", "logratio", "--stack", scene_den, "--frame", "-1",
          "--baseline-frames", "9", "--out", os.path.join(out, "l_post.rts")])
    for method, report in (("mahalanobis", "transformer"), ("logratio", "logratio")):
        argv = ["eval", "--method", method, "--stack", scene_den, "--truth", truth,
                "--out-dir", os.path.join(out, f"report_{report}")]
        if method == "mahalanobis":
            argv += ["--mu", mu, "--sigma", sigma]
        step(f"eval {report}", argv)

    from sardist.raster import read_json, write_json

    t_summary = read_json(os.path.join(out, "report_transformer", "summary.json"))
    l_summary = read_json(os.path.join(out, "report_logratio", "summary.json"))
    t_auc, l_auc = t_summary["pr_auc"], l_summary["pr_auc"]
    comparison = {
        "transformer_pr_auc": t_auc,
        "logratio_pr_auc": l_auc,
        "margin": t_auc - l_auc,
        "transformer_best_f1": t_summary["best_f1"],
        "logratio_best_f1": l_summary["best_f1"],
        "gate": "pr_auc >= 0.85 and transformer >= logratio",
    }
    write_json(os.path.join(out, "benchmark_summary.json"), comparison)

    print(f"\ntransformer pr_auc={t_auc:.5f} best_f1={t_summary['best_f1']:.4f}")
    print(f"log ratio   pr_auc={l_auc:.5f} best_f1={l_summary['best_f1']:.4f}")
    ok = t_auc >= 0.85 and t_auc >= l_auc
    print(f"benchmark {'PASS' if ok else 'FAIL'} "
          f"(margin {t_auc - l_auc:+.5f}; curve at {out}/report_transformer/pr_curve.csv)")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
