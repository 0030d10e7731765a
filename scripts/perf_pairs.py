#!/usr/bin/env python3
"""Run alternating perfbench pairs of two source trees and compare them.

    python scripts/perf_pairs.py PARENT CHANGE --workload W --seed S --pairs N
        [--seconds S] [--toy] [--keep DIR] [--outputs-differ]

Each pair runs `perfbench/run.py --trace 0` once in each tree, each in a new
process with its own `--out-dir`. Odd pairs run PARENT first and even pairs
CHANGE first: the second run of a pair can read slower whichever side it is.
`--seconds` defaults to BENCHMARK.json's `run_seconds`. The out-dirs are
temporary unless `--keep DIR` puts them, as DIR/<side>-<pair>, where they stay.

Before each run it times a fixed numpy probe in this process: a loop of
256x256 float32 sgemms and a streaming copy of 32 MB, each about 0.2 s on a
2-vCPU Xeon. Sessions on a shared machine run at different speeds; the probe
shows a pair whose sides did, and lets BENCH files of different sessions be
read as ratios to it. `--keep` keeps it as DIR/<side>-<pair>/probe.json.

Prints one line per run (the two probe times in seconds, setup_s, op_s,
peak_rss_mb and the first op digest), then for each metric both medians,
PARENT's interquartile range and how many pairs CHANGE won (lower is better;
a tie counts for neither side). Exits 1 when a run is not `correct`, or when
a set-up or op digest differs between runs, so between the two sides; a
failed run's exit code and last stderr lines are printed. With `--outputs-differ`, for a change that moves output bits,
digests need only agree between the runs of each side, and the first three
that differ between the sides are printed, not failed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import subprocess
import sys
import tempfile
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
METRICS = ("setup_s", "op_s", "peak_rss_mb")
PROBE_GEMM = 256, 800          # square float32 sgemm size, loops
PROBE_STREAM = 1 << 23, 25     # float32 values copied (32 MB, past the caches), passes


def probe() -> dict:
    """Seconds this machine takes now for a fixed sgemm loop and a fixed streaming copy."""
    n, loops = PROBE_GEMM
    a = np.full((n, n), 0.5, dtype=np.float32)
    product = np.empty_like(a)
    start = time.perf_counter()
    for _ in range(loops):
        np.matmul(a, a, out=product)
    sgemm_s = time.perf_counter() - start
    size, passes = PROBE_STREAM
    src = np.ones(size, dtype=np.float32)
    dst = np.empty_like(src)
    start = time.perf_counter()
    for _ in range(passes):
        np.copyto(dst, src)
    return {"sgemm_s": sgemm_s, "stream_s": time.perf_counter() - start}


def run_once(tree: str, out_dir: str, args) -> dict:
    """One untraced perfbench run in `tree`; its result record, or the failure."""
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0", "--out-dir", out_dir]
    proc = subprocess.run(cmd + ["--toy"] * args.toy, cwd=tree, capture_output=True, text=True)
    try:
        with open(os.path.join(out_dir, f"result-{args.workload}-trace0.json"),
                  encoding="utf-8") as fh:
            result = json.load(fh)
    except (OSError, ValueError):
        result = {"correct": False}
    result["exit_code"], result["stderr"] = proc.returncode, proc.stderr
    return result


def describe(pair: int, side: str, r: dict) -> str:
    if not r["correct"]:
        tail = " | ".join(r["stderr"].strip().splitlines()[-5:])
        return f"pair {pair} {side:<6} FAILED exit {r['exit_code']}: {tail}"
    speed = f"sgemm {r['probe']['sgemm_s']:.3f} stream {r['probe']['stream_s']:.3f}"
    values = "  ".join(f"{m} {r['metrics'][m]['value']:.6g}" for m in METRICS)
    ops = r["digests"]["ops"]
    return f"pair {pair} {side:<6} {speed}  {values}  op digest {ops[0][:16] if ops else '-'}"


def digest_mismatches(runs: list[dict]) -> list[str]:
    """Each set-up, or op index, whose digest is not the same in every run."""
    setups = {d for r in runs for d in r["digests"]["setup"]}
    found = [f"set-up: {len(setups)} distinct digests"] if len(setups) > 1 else []
    by_op: dict[int, set] = {}
    for r in runs:
        for i, d in enumerate(r["digests"]["ops"]):
            by_op.setdefault(i, set()).add(d)
    return found + [f"op {i}: {len(ds)} distinct digests" for i, ds in by_op.items() if len(ds) > 1]


def digest_report(good: dict[str, list[dict]], outputs_differ: bool) -> tuple[list[str], bool]:
    """The digest lines to print for each side's correct runs, and whether they fail the
    comparison: any mismatch does, except one between the sides under `outputs_differ`."""
    both = digest_mismatches(good["parent"] + good["change"])
    if not outputs_differ:
        return [f"digest mismatch: {line}" for line in both], bool(both)
    lines = [f"digest mismatch in {side}: {line}"
             for side, runs in good.items() for line in digest_mismatches(runs)]
    between = "; ".join(both[:3] + [f"{len(both) - 3} more"] * (len(both) > 3)) or "none"
    return lines + [f"digests that differ between sides: {between}"], bool(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="source tree of the parent commit")
    parser.add_argument("change", help="source tree of the change")
    parser.add_argument("--workload", required=True,
                        choices=("train-b1", "map-scene", "prepare-corpus"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--toy", action="store_true", help="perfbench's minimal op sizes")
    parser.add_argument("--keep", metavar="DIR", help="keep each run's out-dir under DIR")
    parser.add_argument("--outputs-differ", action="store_true",
                        help="the change moves output bits: compare digests within each side")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    if args.seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            args.seconds = json.load(fh)["run_seconds"]
    trees = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}

    runs = {"parent": [], "change": []}
    with (contextlib.nullcontext(args.keep) if args.keep
          else tempfile.TemporaryDirectory(prefix="perf_pairs-")) as tmp:
        for pair in range(1, args.pairs + 1):
            order = ("parent", "change") if pair % 2 else ("change", "parent")
            for side in order:
                out_dir = os.path.join(tmp, f"{side}-{pair}")
                speed = probe()
                r = run_once(trees[side], out_dir, args)
                r["probe"] = speed
                if args.keep:
                    os.makedirs(out_dir, exist_ok=True)
                    with open(os.path.join(out_dir, "probe.json"), "w", encoding="utf-8") as fh:
                        json.dump(speed, fh)
                runs[side].append(r)
                print(describe(pair, side, r), flush=True)

    good = {side: [r for r in rs if r["correct"]] for side, rs in runs.items()}
    print(f"{'metric':<12} {'parent median':>14} {'change median':>14} "
          f"{'parent IQR':>11} {'change won':>11}")
    for m in METRICS:
        values = {side: [r["metrics"][m]["value"] for r in rs if r["correct"]]
                  for side, rs in runs.items()}
        if not values["parent"] or not values["change"]:
            continue
        p = np.asarray(values["parent"])
        iqr = np.percentile(p, 75) - np.percentile(p, 25)
        won = sum(a["correct"] and b["correct"] and
                  b["metrics"][m]["value"] < a["metrics"][m]["value"]
                  for a, b in zip(runs["parent"], runs["change"]))
        print(f"{m:<12} {np.median(p):>14.6g} {np.median(values['change']):>14.6g} "
              f"{iqr:>11.3g} {f'{won}/{args.pairs}':>11}")
    lines, mismatched = digest_report(good, args.outputs_differ)
    for line in lines:
        print(line)
    failed = 2 * args.pairs - len(good["parent"]) - len(good["change"])
    if failed:
        print(f"{failed} run(s) not correct")
    return 1 if failed or mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
