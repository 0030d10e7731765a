#!/usr/bin/env python3
"""sardist benchmark: one workload, closed loop, one client, in-process CLI calls.

Usage, from the repository root:

    python3 perfbench/run.py --workload {train-b1,map-scene,prepare-corpus}
        --seed N --seconds S --trace {0,1} [--toy] [--out-dir DIR]

Untraced (--trace 0): set up `setup_repeats` times, then run ops until S
seconds have passed. The last stdout line is a JSON object whose metrics are
the end-to-end metrics of BENCHMARK.json: setup_s (median set-up), op_s
(median op wall time) and peak_rss_mb.

Traced (--trace 1): set up once, run untraced ops for S/2 seconds, then wrap
the sardist modules (tracing.py) and run traced ops for S/2 seconds. The
metrics are the per-layer metrics of BENCHMARK.json, each the median over the
traced ops, plus proc.cpu_per_wall of the untraced ops and the traced over
untraced median op time. Spans go to <out-dir>/spans-<workload>.json.

Both modes check every op's outputs, print every metric and the workload's
own metrics with unit and sample count, and write the environment, output
digests and all samples to <out-dir>/result-<workload>-trace<T>.json. The
exit code is 1 when a CLI call fails or a check does not hold, and 2 when the
sardist sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
E2E_UNITS = {"setup_s": "s", "op_s": "s", "peak_rss_mb": "MB"}


def env_record(threads: int) -> dict:
    import numpy as np

    import sardist

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    sources = hashlib.sha256()
    for name in sorted(os.listdir(os.path.join(SRC, "sardist"))):
        if name.endswith(".py"):
            with open(os.path.join(SRC, "sardist", name), "rb") as fh:
                sources.update(fh.read())
    try:
        # the ceiling keeps git from reporting an enclosing repository's commit
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)},
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "threads_flag": threads,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "sardist": sardist.__version__,
        "commit": commit,
        "src_sha256": sources.hexdigest(),
        "machine": platform.machine(),
    }


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


class Run:
    """One benchmark run: its samples, whatever part of it completed."""

    def __init__(self, workload, seconds: float, out_dir: str):
        self.workload, self.seconds, self.out_dir = workload, seconds, out_dir
        self.setups, self.setup_digests = [], []
        self.walls, self.checks = [], []
        self.metrics, self.units, self.samples = {}, {}, {}
        self.extra = {}

    def setup(self, repeats: int) -> None:
        for _ in range(repeats):
            t0 = time.perf_counter()
            self.setup_digests.append(self.workload.setup())
            self.setups.append(time.perf_counter() - t0)

    def run_ops(self, seconds: float, tracer=None) -> tuple[list, list]:
        """Closed loop: prepare, time and check ops until `seconds` have passed."""
        walls, cpus = [], []
        start = time.perf_counter()
        while not walls or time.perf_counter() - start < seconds:
            index = len(self.walls)
            self.workload.prepare(index)
            c0, t0 = os.times(), time.perf_counter()
            if tracer is None:
                self.workload.op(index)
            else:
                with tracer.root("op", index):
                    self.workload.op(index)
            wall = time.perf_counter() - t0
            c1 = os.times()
            self.walls.append(wall)
            walls.append(wall)
            cpus.append((c1.user - c0.user + c1.system - c0.system) / wall)
            self.checks.append(self.workload.verify(index))
        return walls, cpus

    def untraced(self) -> None:
        self.setup(self.workload.setup_repeats)
        walls, _ = self.run_ops(self.seconds)
        self.units = E2E_UNITS
        self.metrics = {"setup_s": median(self.setups), "op_s": median(walls),
                        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        self.samples = {"setup_s": len(self.setups), "op_s": len(walls), "peak_rss_mb": 1}

    def traced(self) -> None:
        import tracing

        self.setup(1)
        base_walls, base_cpus = self.run_ops(self.seconds / 2)
        tracer = tracing.Tracer()
        tracer.install()
        self.workload.check_root = lambda index: tracer.root("check", index)
        try:
            walls, _ = self.run_ops(self.seconds / 2, tracer)
        finally:
            tracer.uninstall()
            tracer.dump(os.path.join(self.out_dir, f"spans-{self.workload.name}.json"))
        ops = range(len(base_walls), len(base_walls) + len(walls))
        by_op = {op: [] for op in ops}
        for span in tracer.spans:
            by_op[span.op].append(span)
        per_op = [tracing.op_layer_metrics(by_op[op], tracer.grad_nodes[op]) for op in ops]
        self.metrics = {name: median([m[name] for m in per_op]) for name in per_op[0]}
        self.metrics["proc.cpu_per_wall"] = median(base_cpus)
        self.metrics["trace.overhead_ratio"] = median(walls) / median(base_walls)
        self.units = {name: unit for name, unit, _, _ in tracing.LAYER_METRICS}
        self.samples = dict.fromkeys(self.metrics, len(walls))
        self.samples["proc.cpu_per_wall"] = len(base_walls)
        self.extra["overhead_base"] = {
            "ratio": "median traced op wall time / median untraced op wall time",
            "untraced_median_op_s": median(base_walls), "untraced_ops": len(base_walls),
            "traced_median_op_s": median(walls), "traced_ops": len(walls)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("train-b1", "map-scene", "prepare-corpus"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="minimal op sizes for the smoke test; no quality floor")
    parser.add_argument("--out-dir", default=os.path.join(ROOT, ".perfbench_out"))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(SRC, "sardist", "cli.py")):
        print(f"error: no sardist sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import sardist
    if not os.path.abspath(sardist.__file__).startswith(SRC + os.sep):
        print(f"error: sardist imported from {sardist.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import SIZES, WORKLOADS, OpFailed

    out_dir = os.path.abspath(args.out_dir)
    work_dir = os.path.join(out_dir, f"work-{args.workload}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    threads = len(os.sched_getaffinity(0))
    workload = WORKLOADS[args.workload](work_dir, args.seed,
                                        SIZES["toy" if args.toy else "full"], threads)
    run = Run(workload, args.seconds, out_dir)
    error = None
    try:
        run.traced() if args.trace else run.untraced()
    except OpFailed as exc:
        error = str(exc)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    correct = error is None and workload.failed == 0
    rows = [(n, v, run.units[n], run.samples[n]) for n, v in run.metrics.items()]
    if not args.trace and correct:
        rows += [(n, median(vals), unit, len(vals))
                 for n, (vals, unit) in workload.report(run.walls, run.checks).items()]
    rows.append(("fail_ratio", workload.failed / max(workload.attempted, 1),
                 "failed/attempted", workload.attempted))
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {len(run.walls)} ops, "
          f"{workload.attempted} CLI calls, {workload.failed} failed")
    for name, value, unit, n in rows:
        print(f"  {name:<26} {value:>14.6g} {unit:<16} n={n}")
    if error:
        print(f"check failed: {error}", file=sys.stderr)
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "toy": args.toy, "env": env_record(threads),
        "correct": correct, "error": error,
        "attempted": workload.attempted, "failed": workload.failed,
        "metrics": {n: {"value": v, "unit": u, "samples": k} for n, v, u, k in rows},
        "setup_s": run.setups, "op_s": run.walls,
        "digests": {"setup": run.setup_digests, "ops": [c["digest"] for c in run.checks]},
        **run.extra,
    }
    path = os.path.join(out_dir, f"result-{args.workload}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    print(f"result: {path}")
    print(json.dumps({"correct": correct, "attempted": workload.attempted,
                      "failed": workload.failed,
                      "metrics": {n: {"value": v, "unit": run.units[n]}
                                  for n, v in run.metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    sys.exit(main())
