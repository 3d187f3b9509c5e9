"""Spans and counters recorded around calls into the program.

The benchmark never edits the program: it replaces functions with timing
wrappers in every fakereal module that binds them by name (fusion, for one,
imports stack_apply from slcnn), and restores them afterwards.

Two levels:
  * plain  - only pipeline.prepare_data, train and evaluate, a handful of
             calls per run; the end-to-end metrics come from here.
  * traced - every public function of corpus, social, slcnn, fusion,
             nncore and pipeline, Tensor.backward, and the backward closure
             of every Tensor an nncore op returns; the per-layer metrics.

A span is (name, start, end, parent).  Spans stay in memory in compact
arrays until the benchmark writes them out.  A span's self time is its
duration minus the time its child spans cover.  Bookkeeping that the
traced level adds (counting padding rows, say) runs inside a
`trace.bookkeeping` span, so it is not charged to the caller's self time.
"""

import functools
import inspect
import sys
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("corpus", "social", "slcnn", "fusion", "nncore", "pipeline")
ENTRY_POINTS = ("prepare_data", "train", "evaluate")   # what the end-to-end figures time

# graph ops: each returns a new Tensor whose backward closure gets a span
OPS = ("conv1x2_full", "conv1x2_depthwise", "maxpool_pairs", "linear", "relu",
       "dropout_t", "softmax_xent_batch", "reshape", "transpose", "concat")
OP_GROUPS = {
    "conv1x2_full.text": ("conv1x2_full.text",),
    "conv1x2_full.integrator": ("conv1x2_full.integrator",),
    "conv1x2_depthwise": ("conv1x2_depthwise",),
    "maxpool_pairs": ("maxpool_pairs",),
    "linear": ("linear",),
    "relu": ("relu",),
    "dropout_t": ("dropout_t",),
    "softmax_xent_batch": ("softmax_xent_batch",),
    "shape_ops": ("reshape", "transpose", "concat"),
}
BOOKKEEPING = "trace.bookkeeping"


class Tracer:
    """Span and counter store for one repetition of a workload."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self.open_count = Counter()
        self.counts = Counter()
        self.work = {"train": [], "evaluate": []}   # articles per call, in call order
        self.step_ms = []
        self.influence_users = set()
        self.step_start = None
        self.train_nodes = None

    def open(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.open_count[name] += 1
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx, name):
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        self.open_count[name] -= 1

    def table(self):
        """(names, name ids, parent ids, durations, self times) as arrays."""
        nid = np.frombuffer(self.name_id, dtype=np.int32).astype(np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int32).astype(np.int64)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return list(self.names), nid, parent, dur, dur - child

    def save(self, path):
        """Write the spans out: one row per span, names by index."""
        np.savez(path, names=np.array(self.names),
                 name_id=np.frombuffer(self.name_id, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64))


class Patch:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo = []

    def rebind(self, original, replacement):
        """Replace `original` wherever a fakereal module binds it by name."""
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "fakereal" and not mod_name.startswith("fakereal."):
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def set(self, obj, attr, value):
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def undo(self):
        while self._undo:
            obj, attr, value = self._undo.pop()
            setattr(obj, attr, value)


def _wrap(tracer, fn, name, before=None, after=None):
    """fn as a span.  `name` is a string or a function of the tracer that
    picks the span name at call time; before(args) and after(span, args,
    result) run outside the span."""
    fixed = None if callable(name) else name

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = fixed or name(tracer)
        if before is not None:
            before(args)
        idx = tracer.open(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx, span)
        if after is not None:
            after(span, args, result)
        return result
    return wrapper


def _timed_closure(tracer, inner, span, after=None):
    def timed():
        idx = tracer.open(span)
        try:
            inner()
        finally:
            tracer.close(idx, span)
        if after is not None:
            after()
    return timed


def _count_nodes(root):
    seen = {id(root)}
    stack = [root]
    while stack:
        for p in stack.pop()._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


def instrument(tracer, fr, traced):
    """Install the wrappers for one repetition; returns the Patch to undo."""
    patch = Patch()
    pipeline, nncore = fr.pipeline, fr.nncore
    Tensor = nncore.Tensor

    def on_train_enter(args):
        tracer.train_nodes = None

    def on_train_exit(span, args, result):
        # workloads run a fixed epoch count, so every train article is fit
        tracer.work["train"].append(result.epochs_run * result.bundle.train_x.shape[0])

    def on_evaluate_exit(span, args, result):
        tracer.work["evaluate"].append(result.total)

    hooks = {
        "pipeline.train": (on_train_enter, on_train_exit),
        "pipeline.evaluate": (None, on_evaluate_exit),
    }
    names = {}

    if traced:
        def on_op_exit(span, args, result):
            out = result[1] if isinstance(result, tuple) else result
            if isinstance(out, Tensor) and out._backward is not None and \
                    all(out is not a for a in args):
                out._backward = _timed_closure(tracer, out._backward, span + ".bwd")

        def on_conv_full_exit(span, args, result):
            x, w = args[0], args[1]
            b, rows, width, depth = x.data.shape
            macs = b * rows * (width - 1) * w.data.shape[0] * depth
            idx = tracer.open(BOOKKEEPING)
            pad_share = float(np.count_nonzero(~x.data.any(axis=(2, 3)))) / (b * rows)
            tracer.close(idx, BOOKKEEPING)
            # two einsums forward; two for dW and, when x needs it, two for dx
            fwd = 4.0 * macs
            bwd = (8.0 if x.requires_grad else 4.0) * macs
            tracer.counts["conv_full.flops"] += fwd
            tracer.counts["conv_full.pad_flops"] += fwd * pad_share

            def on_bwd():
                tracer.counts["conv_full.flops"] += bwd
                tracer.counts["conv_full.pad_flops"] += bwd * pad_share
            if result._backward is not None:
                result._backward = _timed_closure(tracer, result._backward, span + ".bwd", on_bwd)

        def on_build_tensor_exit(span, args, result):
            idx = tracer.open(BOOKKEEPING)
            data = result.data
            tracer.counts["corpus.input_bytes"] += data.nbytes
            tracer.counts["corpus.rows"] += data.shape[0]
            tracer.counts["corpus.pad_rows"] += int(np.count_nonzero(~data.any(axis=(1, 2))))
            if tracer.open_count["pipeline.evaluate"]:
                tracer.counts["evaluate.tensors"] += 1
            tracer.close(idx, BOOKKEEPING)

        def on_influence_enter(args):
            tracer.influence_users.add(args[1])

        def on_zero_grads_enter(args):
            if tracer.open_count["pipeline.train"]:
                tracer.step_start = time.perf_counter()

        def on_adam_exit(span, args, result):
            tracer.counts["adam.tensors"] += len(args[0])
            if tracer.step_start is not None:
                tracer.step_ms.append((time.perf_counter() - tracer.step_start) * 1000.0)
                tracer.step_start = None

        def on_backward_enter(args):
            if tracer.train_nodes is None:
                tracer.train_nodes = _count_nodes(args[0])
            tracer.counts["backward.nodes"] += tracer.train_nodes

        hooks.update({
            "corpus.build_tensor": (None, on_build_tensor_exit),
            "social.user_influence": (on_influence_enter, None),
            "nncore.zero_grads": (on_zero_grads_enter, None),
            "nncore.adam_step": (None, on_adam_exit),
            "nncore.conv1x2_full": (None, on_conv_full_exit),
        })
        for op in OPS:
            hooks.setdefault(f"nncore.{op}", (None, on_op_exit))
        names["nncore.conv1x2_full"] = lambda t: (
            "nncore.conv1x2_full.integrator" if t.open_count["fusion.integrator_apply"]
            else "nncore.conv1x2_full.text")
        names["fusion.predict_batch"] = lambda t: (
            "fusion.predict_batch.train_pass" if t.open_count["pipeline.train"]
            else "fusion.predict_batch.eval")

        targets = []
        for layer in LAYERS:
            mod = getattr(fr, layer)
            for attr, val in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(val)
                        and val.__module__ == mod.__name__):
                    targets.append((f"{layer}.{attr}", val))
        patch.set(Tensor, "backward", _wrap(tracer, Tensor.backward, "nncore.Tensor.backward",
                                            before=on_backward_enter))
    else:
        targets = [(f"pipeline.{fn}", getattr(pipeline, fn)) for fn in ENTRY_POINTS]

    for qualname, fn in targets:
        before, after = hooks.get(qualname, (None, None))
        patch.rebind(fn, _wrap(tracer, fn, names.get(qualname, qualname), before, after))
    return patch


# ---------------------------------------------------------------------------
# metrics from one repetition


class _Summary:
    def __init__(self, tracer):
        names, nid, parent, dur, self_t = tracer.table()
        self.ids = {name: i for i, name in enumerate(names)}
        n = len(names)
        self.nid, self.parent, self.dur = nid, parent, dur
        self.calls = np.bincount(nid, minlength=n)
        self.incl = np.bincount(nid, weights=dur, minlength=n)
        self.self_t = np.bincount(nid, weights=self_t, minlength=n)

    def get(self, arr, name):
        i = self.ids.get(name)
        return 0.0 if i is None else float(arr[i])

    def child_time(self, child, parent):
        """Summed duration of `child` spans opened directly under `parent`."""
        c, p = self.ids.get(child), self.ids.get(parent)
        if c is None or p is None:
            return 0.0
        mask = (self.nid == c) & (self.parent >= 0)
        mask[mask] = self.nid[self.parent[mask]] == p
        return float(self.dur[mask].sum())


def _ratio(num, den):
    return float(num) / den if den else 0.0


def end_to_end(tracer, wall_s):
    """Per-repetition entry-point timings: (seconds, articles) for each call
    in call order, so run.py can take each call's median over the
    repetitions.  Train time excludes the prepare_data call train makes."""
    names, nid, parent, dur, _ = tracer.table()
    ids = {name: i for i, name in enumerate(names)}

    def spans(name):
        i = ids.get(name)
        return [] if i is None else np.flatnonzero(nid == i).tolist()

    prepare = spans("pipeline.prepare_data")
    train = []
    for idx, work in zip(spans("pipeline.train"), tracer.work["train"]):
        inner = sum(dur[j] for j in prepare if parent[j] == idx)
        train.append((float(dur[idx] - inner), work))
    return {
        "wall_s": wall_s,
        "prepare_data": [(float(dur[j]), 1) for j in prepare],
        "train": train,
        "evaluate": [(float(dur[j]), n)
                     for j, n in zip(spans("pipeline.evaluate"), tracer.work["evaluate"])],
    }


def per_layer(tracer, wall_s):
    """Per-repetition per-layer figures from a traced repetition."""
    s = _Summary(tracer)
    c = tracer.counts
    out = {}
    for name in ("corpus.build_tensor", "corpus.split_article", "corpus.load_embeddings",
                 "social.user_influence", "social.load_edge_list", "social.tally_credit",
                 "slcnn.slcnn_apply", "slcnn.hcb_apply", "fusion.integrator_apply",
                 "fusion.head_apply", "fusion.loss_batch", "nncore.adam_step",
                 "nncore.save_checkpoint", "nncore.load_checkpoint", "pipeline.prepare_data"):
        out[f"{name}.s"] = s.get(s.self_t, name)
    for name in ("slcnn.slcnn_apply", "slcnn.hcb_apply", "fusion.integrator_apply",
                 "fusion.head_apply", "fusion.loss_batch", "pipeline.prepare_data"):
        out[f"{name}.incl_s"] = s.get(s.incl, name)
    for name in ("social.user_influence", "slcnn.hcb_apply", "pipeline.prepare_data"):
        out[f"{name}.calls"] = s.get(s.calls, name)

    out["corpus.input_bytes"] = float(c["corpus.input_bytes"])
    out["corpus.pad_row_share"] = _ratio(c["corpus.pad_rows"], c["corpus.rows"])
    influence_calls = s.get(s.calls, "social.user_influence")
    out["social.user_influence.unique_ratio"] = _ratio(len(tracer.influence_users), influence_calls)
    out["social.user_influence.wall_share"] = _ratio(s.get(s.incl, "social.user_influence"), wall_s)
    out["fusion.predict_batch.train_pass_s"] = s.get(s.incl, "fusion.predict_batch.train_pass")
    out["fusion.predict_batch.eval_s"] = s.get(s.incl, "fusion.predict_batch.eval")

    fwd_total, fwd_calls = 0.0, 0.0
    for group, members in OP_GROUPS.items():
        fwd = sum(s.get(s.self_t, f"nncore.{m}") for m in members)
        calls = sum(s.get(s.calls, f"nncore.{m}") for m in members)
        out[f"nncore.{group}.fwd_s"] = fwd
        out[f"nncore.{group}.bwd_s"] = sum(s.get(s.self_t, f"nncore.{m}.bwd") for m in members)
        out[f"nncore.{group}.calls"] = calls
        fwd_total += fwd
        fwd_calls += calls
    out["nncore.op_call_ms.mean"] = _ratio(fwd_total * 1000.0, fwd_calls)
    out["nncore.conv1x2_full.flops"] = float(c["conv_full.flops"])
    out["nncore.conv1x2_full.pad_flops_share"] = _ratio(c["conv_full.pad_flops"], c["conv_full.flops"])
    backward_calls = s.get(s.calls, "nncore.Tensor.backward")
    out["nncore.Tensor.backward.self_s"] = s.get(s.self_t, "nncore.Tensor.backward")
    out["nncore.nodes_per_step"] = _ratio(c["backward.nodes"], backward_calls)
    out["nncore.adam_step.tensors"] = _ratio(c["adam.tensors"], s.get(s.calls, "nncore.adam_step"))

    steps = np.array(tracer.step_ms)
    out["pipeline.train_step_ms.p50"] = float(np.percentile(steps, 50)) if steps.size else 0.0
    out["pipeline.train_step_ms.p90"] = float(np.percentile(steps, 90)) if steps.size else 0.0
    out["pipeline.train_step_ms.samples"] = float(steps.size)
    out["pipeline.evaluate.prepare_s"] = s.child_time("pipeline.prepare_data", "pipeline.evaluate")
    out["pipeline.evaluate.useful_tensor_share"] = _ratio(sum(tracer.work["evaluate"]),
                                                          c["evaluate.tensors"])
    return out
