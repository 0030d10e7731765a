"""Spans around the public functions of each sardist module, from outside it.

`Tracer.install()` replaces selected functions and methods of the sardist
modules with wrappers that record a span (name, start, end, parent, op id,
thread) for every call made while an op root is open. Calls outside a root
pass straight through. Spans stay in memory; `Tracer.dump()` writes them at
the end of the run, and `uninstall()` puts the original functions back.

A layer's self time is its span's duration minus the union of its child
spans' intervals. The union matters in `inference.sweep_estimate`, whose
`Model.forward` children run concurrently in worker threads.
"""

from __future__ import annotations

import collections
import functools
import itertools
import json
import os
import sys
import threading
import time
from contextlib import contextmanager


def _path_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _despeckle_px(args, kwargs, result):
    return {"px": int(args[0].values.size)}


def _forward_windows(args, kwargs, result):
    return {"windows": int(args[1].shape[0])}


def _matmul_flop(args, kwargs, result):
    # 2*M*N*K per product: every output element is a K-long dot product
    return {"flop": 2 * int(result.data.size) * int(args[0].data.shape[-1])}


#: (module, attribute, span attributes) for module-level functions
FUNCTIONS = (
    ("cli", "main", None),
    ("synth", "generate_training_corpus", None),
    ("synth", "generate_scene", None),
    ("synth", "load_corpus", None),
    ("raster", "read_array", _path_bytes),
    ("raster", "write_array", _path_bytes),
    ("preprocess", "despeckle_stack", _despeckle_px),
    ("autodiff", "layer_norm", None),
    ("training", "nll_loss", None),
    ("training", "sample_batch", None),
    ("inference", "sweep_estimate", None),
    ("disturbance", "mahalanobis_map", None),
    ("disturbance", "log_ratio_map", None),
    ("disturbance", "threshold_map", None),
    ("evaluation", "build_labeled_set", None),
    ("evaluation", "pr_curve", None),
)

#: (module, class, method, span attributes)
METHODS = (
    ("model", "Model", "forward", _forward_windows),
    ("autodiff", "Tensor", "__matmul__", _matmul_flop),
    ("autodiff", "Tensor", "softmax", None),
    ("autodiff", "Tensor", "backward", None),
    ("training", "Adam", "step", None),
)

#: name, unit, better, the end-to-end metric and workload it should move
LAYER_METRICS = (
    ("cli.self_s", "s", "lower",
     "op_s on every workload, a little: parsing, config, manifests, model "
     "construction and checkpoint files"),
    ("cli.calls", "count", "lower", "op_s on every workload, a little"),
    ("synth.generate_s", "s", "lower", "op_s on prepare-corpus"),
    ("synth.load_corpus_s", "s", "lower", "op_s on train-b1"),
    ("raster.read_s", "s", "lower",
     "op_s on train-b1 (many small reads) and map-scene (few large reads)"),
    ("raster.write_s", "s", "lower",
     "op_s on prepare-corpus (many small writes) and map-scene (few large writes)"),
    ("raster.files_read", "count", "lower", "op_s on train-b1"),
    ("raster.files_written", "count", "lower", "op_s on prepare-corpus"),
    ("raster.bytes_read", "bytes", "lower", "op_s on train-b1 and map-scene"),
    ("raster.bytes_written", "bytes", "lower", "op_s on prepare-corpus and map-scene"),
    ("preprocess.despeckle_s", "s", "lower",
     "op_s on prepare-corpus (small slices) and map-scene (large slices); "
     "nothing on train-b1"),
    ("preprocess.px_frames", "px", "higher", "a size check: fixed per op"),
    ("preprocess.mpix_per_s", "Mpx/s", "higher", "op_s on prepare-corpus and map-scene"),
    ("model.forward_s", "s", "lower", "op_s on map-scene and train-b1"),
    ("model.forward_calls", "count", "lower", "op_s on map-scene and train-b1"),
    ("model.windows", "count", "higher", "a size check: fixed per op"),
    ("autodiff.matmul_s", "s", "lower",
     "op_s on map-scene (batch 64) and train-b1 (batch 1)"),
    ("autodiff.matmul_gflop", "GFLOP", "lower", "op_s on map-scene and train-b1"),
    ("autodiff.softmax_s", "s", "lower", "op_s on map-scene and train-b1"),
    ("autodiff.layer_norm_s", "s", "lower", "op_s on map-scene and train-b1"),
    ("autodiff.backward_s", "s", "lower", "op_s on train-b1; zero on map-scene"),
    ("autodiff.grad_nodes", "count", "lower",
     "op_s on map-scene, where an inference mode removes the graph"),
    ("training.adam_s", "s", "lower", "op_s on train-b1; absent from map-scene"),
    ("training.steps", "count", "higher", "a size check: fixed per op"),
    ("training.nll_s", "s", "lower", "op_s on train-b1"),
    ("training.sample_batch_s", "s", "lower", "op_s on train-b1"),
    ("inference.sweep_s", "s", "lower",
     "op_s on map-scene: window gather, accumulation and pool wait"),
    ("inference.windows", "count", "higher", "a size check: fixed per op"),
    ("inference.batches", "count", "lower", "op_s on map-scene"),
    ("disturbance.metric_s", "s", "lower", "op_s on map-scene, a little"),
    ("evaluation.pr_s", "s", "lower",
     "no timed metric: runs in the map-scene check only"),
    ("proc.cpu_per_wall", "ratio", "higher",
     "op_s on map-scene: whether extra workers buy cores or only contention"),
    ("trace.overhead_ratio", "ratio", "lower",
     "none: traced over untraced median op wall time of the same run"),
    ("trace.uncovered_share", "share", "lower",
     "none: share of an op's traced wall time under no layer span below cli.main"),
)


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "op", "thread", "attrs")

    def __init__(self, span_id, name, start, parent, op, thread):
        self.id, self.name, self.start, self.parent = span_id, name, start, parent
        self.op, self.thread = op, thread
        self.end = start
        self.attrs = None


class Tracer:
    """Records spans while a root is open; one tracer per traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.grad_nodes: collections.Counter = collections.Counter()
        self.op = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root_stack: list[Span] = []
        self._lock = threading.Lock()
        self._restore: list = []
        self._t0 = time.perf_counter()

    # -- spans ------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        # A thread with no open span is a worker started by the op's thread,
        # which waits inside its innermost open span until the worker is done.
        parent = (stack or self._root_stack)[-1].id
        span = Span(next(self._ids), name, time.perf_counter(), parent, self.op,
                    threading.current_thread().name)
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    @contextmanager
    def root(self, name: str, op: int):
        """Open a root span for op `op`; spans are recorded only inside one."""
        stack = self._stack()
        span = Span(next(self._ids), name, time.perf_counter(), None, op,
                    threading.current_thread().name)
        stack.append(span)
        self._root_stack, self.op = stack, op
        try:
            yield span
        finally:
            self.op = None
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)

    # -- installation ----------------------------------------------------------

    def _wrap(self, original, name, attrs):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return original(*args, **kwargs)
            span = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(span)
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every function in FUNCTIONS and METHODS, wherever it is bound."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "sardist" or n.startswith("sardist.")]
        for mod, attr, attrs in FUNCTIONS:
            original = getattr(sys.modules[f"sardist.{mod}"], attr)
            traced = self._wrap(original, f"{mod}.{attr}", attrs)
            # modules bind imported names themselves, so patch every binding
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)
                        self._restore.append((module, key, original))
        for mod, cls_name, attr, attrs in METHODS:
            cls = getattr(sys.modules[f"sardist.{mod}"], cls_name)
            original = cls.__dict__[attr]
            setattr(cls, attr, self._wrap(original, f"{mod}.{cls_name}.{attr}", attrs))
            self._restore.append((cls, attr, original))
        tensor = sys.modules["sardist.autodiff"].Tensor
        init = tensor.__init__
        tracer = self

        def counting_init(node, *args, **kwargs):
            init(node, *args, **kwargs)
            op = tracer.op
            if op is not None and node.requires_grad:
                with tracer._lock:   # forward passes create nodes on worker threads
                    tracer.grad_nodes[op] += 1

        tensor.__init__ = counting_init
        self._restore.append((tensor, "__init__", init))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- output ----------------------------------------------------------------

    def dump(self, path: str) -> None:
        rows = [{"id": s.id, "name": s.name, "start": s.start - self._t0,
                 "end": s.end - self._t0, "parent": s.parent, "op": s.op,
                 "thread": s.thread, **(s.attrs or {})} for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh)
            fh.write("\n")


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def covered(lo: float, hi: float, intervals) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the union of its children's intervals."""
    children = collections.defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.id: (s.end - s.start) - covered(s.start, s.end, children[s.id])
            for s in spans}


def op_layer_metrics(spans, grad_nodes: int) -> dict:
    """Layer metrics of one op from all its spans (op and check roots included)."""
    own = self_times(spans)
    by_name = collections.defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def self_s(*names):
        return sum(own[s.id] for n in names for s in by_name[n])

    def total(name, key):
        return sum(s.attrs[key] for s in by_name[name])

    root = by_name["op"][0]
    # the check root runs after the op root, so clipping to it leaves it out
    below_cli = [(s.start, s.end) for s in spans
                 if s.parent is not None and s.name != "cli.main"]
    sweep_ids = {s.id for s in by_name["inference.sweep_estimate"]}
    swept = [s for s in by_name["model.Model.forward"] if s.parent in sweep_ids]
    despeckle_s = self_s("preprocess.despeckle_stack")
    px = total("preprocess.despeckle_stack", "px")
    return {
        "cli.self_s": self_s("cli.main"),
        "cli.calls": len(by_name["cli.main"]),
        "synth.generate_s": self_s("synth.generate_training_corpus", "synth.generate_scene"),
        "synth.load_corpus_s": self_s("synth.load_corpus"),
        "raster.read_s": self_s("raster.read_array"),
        "raster.write_s": self_s("raster.write_array"),
        "raster.files_read": len(by_name["raster.read_array"]),
        "raster.files_written": len(by_name["raster.write_array"]),
        "raster.bytes_read": total("raster.read_array", "bytes"),
        "raster.bytes_written": total("raster.write_array", "bytes"),
        "preprocess.despeckle_s": despeckle_s,
        "preprocess.px_frames": px,
        "preprocess.mpix_per_s": px / 1e6 / despeckle_s if despeckle_s > 0 else 0.0,
        "model.forward_s": self_s("model.Model.forward"),
        "model.forward_calls": len(by_name["model.Model.forward"]),
        "model.windows": total("model.Model.forward", "windows"),
        "autodiff.matmul_s": self_s("autodiff.Tensor.__matmul__"),
        "autodiff.matmul_gflop": total("autodiff.Tensor.__matmul__", "flop") / 1e9,
        "autodiff.softmax_s": self_s("autodiff.Tensor.softmax"),
        "autodiff.layer_norm_s": self_s("autodiff.layer_norm"),
        "autodiff.backward_s": self_s("autodiff.Tensor.backward"),
        "autodiff.grad_nodes": grad_nodes,
        "training.adam_s": self_s("training.Adam.step"),
        "training.steps": len(by_name["training.Adam.step"]),
        "training.nll_s": self_s("training.nll_loss"),
        "training.sample_batch_s": self_s("training.sample_batch"),
        "inference.sweep_s": self_s("inference.sweep_estimate"),
        "inference.windows": sum(s.attrs["windows"] for s in swept),
        "inference.batches": len(swept),
        "disturbance.metric_s": self_s("disturbance.mahalanobis_map",
                                       "disturbance.log_ratio_map",
                                       "disturbance.threshold_map"),
        "evaluation.pr_s": self_s("evaluation.build_labeled_set", "evaluation.pr_curve"),
        "trace.uncovered_share":
            1.0 - covered(root.start, root.end, below_cli) / (root.end - root.start),
    }

