"""Thread-aware span recorder installed around fedsplit's public functions.

The traced run replaces selected functions and methods of the ``fedsplit``
modules with timing wrappers, from outside the package, and restores the
originals afterwards. Each span records its name, the thread it ran on, the
span that was open on that thread when it started (its parent), its start
and end on the ``perf_counter`` clock, and the benchmark stage the run loop
had declared at its start. Trunk-server threads therefore keep their own
span trees, and their spans are attributed to the stage the client was in.

Spans stay in memory while the run measures and are written out once, when
it ends. A span's self time is its duration minus the durations of its
direct children on the same thread.
"""

from __future__ import annotations

import gzip
import sys
import threading
from collections import defaultdict
from time import perf_counter

# Tensor ops timed individually: each forward call is one span named
# ``tensor.<op>``, and the backward closure it records is wrapped as
# ``tensor.<op>.bwd`` so per-op backward time lands under Tensor.backward.
TENSOR_OPS = (
    "add", "mul", "scale", "matmul", "linear", "silu", "rms_norm", "embedding",
    "split_heads", "merge_heads", "reshape", "apply_rope", "attend",
    "softmax_cross_entropy",
)


class Tracer:
    """Collects spans from every thread into per-thread lists."""

    def __init__(self):
        self.stage = "idle"
        self.main_thread = threading.get_ident()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[tuple[int, list]] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _state(self):
        loc = self._local
        try:
            return loc.spans, loc.stack
        except AttributeError:
            loc.spans, loc.stack = [], []
            with self._lock:
                self._threads.append((threading.get_ident(), loc.spans))
            return loc.spans, loc.stack

    def timed(self, name, fn):
        """Wrap ``fn`` so every call records one span.

        ``name`` is a string or a callable taking the call's arguments and
        returning the span name (used to split spans by segment role or
        message type).
        """
        tracer = self

        def wrapper(*args, **kwargs):
            spans, stack = tracer._state()
            label = name if isinstance(name, str) else name(*args, **kwargs)
            rec = [label, stack[-1] if stack else -1, perf_counter(), 0.0, tracer.stage]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                stack.pop()

        return wrapper

    def _timed_op(self, op, fn):
        fwd = self.timed(f"tensor.{op}", fn)
        bwd_name = f"tensor.{op}.bwd"

        def wrapper(*args, **kwargs):
            out = fwd(*args, **kwargs)
            # softmax_cross_entropy returns (loss, grad); its loss carries the backward
            node = out[0] if isinstance(out, tuple) else out
            if getattr(node, "_backward_fn", None) is not None:
                node._backward_fn = self.timed(bwd_name, node._backward_fn)
            return out

        return wrapper

    # -- installation ---------------------------------------------------------

    def _patch_function(self, module, attr, wrapper_for):
        """Replace a module-level function everywhere fedsplit bound it.

        Modules import some names directly (``from .tensor import reshape``),
        so every fedsplit module attribute holding the original is swapped.
        """
        original = getattr(module, attr)
        wrapper = wrapper_for(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("fedsplit"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, key, value))
                    setattr(mod, key, wrapper)

    def _patch_method(self, cls, attr, name):
        original = cls.__dict__[attr]
        self._restore.append((cls, attr, original))
        setattr(cls, attr, self.timed(name, original))

    def install(self) -> None:
        """Wrap the layer boundaries of every fedsplit module."""
        from fedsplit import corpus, experiment, inference, model, scoring, strategies
        from fedsplit import tensor, training, transport, wire

        for op in TENSOR_OPS:
            self._patch_function(tensor, op, lambda fn, op=op: self._timed_op(op, fn))
        self._patch_method(tensor.Tensor, "backward", "tensor.backward")

        self._patch_method(model.SegmentModel, "forward", lambda seg, *a, **k: f"model.{seg.role}.fwd")
        self._patch_method(model.SegmentModel, "backward", lambda seg, *a, **k: f"model.{seg.role}.bwd")
        self._patch_method(model.SegmentModel, "collect_grads", "model.collect_grads")
        for attr, name in (("apply_sgd_step", "model.sgd"), ("fedavg_merge", "model.merge")):
            self._patch_function(model, attr, lambda fn, name=name: self.timed(name, fn))

        self._patch_method(training.TrainingClient, "train_step", "training.client.step")
        self._patch_method(training.TrainingServer, "handle", "training.server.handle")

        self._patch_function(wire, "encode_message", lambda fn: self.timed("wire.encode", fn))
        self._patch_function(wire, "decode_message", lambda fn: self.timed("wire.decode", fn))

        for cls in (transport.LoopbackChannel, transport.TcpChannel):
            self._patch_method(cls, "send_frame", "transport.send")
            self._patch_method(cls, "recv_frame", "transport.recv")
        self._patch_function(transport, "tcp_pair", lambda fn: self.timed("transport.connect", fn))

        self._patch_function(strategies, "collect_barrier", lambda fn: self.timed("strategies.barrier", fn))
        self._patch_method(strategies.ClientBatchServer, "batch_forward", "strategies.batch_fwd")
        self._patch_method(strategies.ClientBatchServer, "batch_backward", "strategies.batch_bwd")
        self._patch_method(strategies.HierarchicalTrainer, "run_phase", "strategies.phase")
        self._patch_method(strategies.HierarchicalTrainer, "merge", "strategies.merge")

        self._patch_method(inference.GenerationSession, "prefill", "inference.prefill")
        self._patch_method(inference.GenerationSession, "decode_step", "inference.decode")
        self._patch_method(
            inference.InferenceServer, "handle",
            lambda srv, msg: "inference.server.decode"
            if isinstance(msg, wire.CacheStepMsg) else "inference.server.prefill",
        )
        self._patch_method(inference.InferenceStack, "__init__", "inference.stack_open")
        self._patch_method(inference.InferenceStack, "close", "inference.stack_close")

        self._patch_method(corpus.BatchSampler, "batch_for", "corpus.batch")
        self._patch_function(scoring, "score_single_token", lambda fn: self.timed("scoring.score", fn))
        self._patch_function(experiment, "write_report", lambda fn: self.timed("experiment.report", fn))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- results ----------------------------------------------------------------

    def threads(self) -> list[tuple[int, list]]:
        with self._lock:
            return list(self._threads)

    def aggregate(self) -> "SpanTable":
        """Per (stage, name) totals of inclusive time, self time and calls."""
        table = SpanTable()
        for tid, spans in self.threads():
            child_time = [0.0] * len(spans)
            for rec in spans:
                if rec[1] >= 0:
                    child_time[rec[1]] += rec[3] - rec[2]
            on_main = tid == self.main_thread
            for i, (name, parent, start, end, stage) in enumerate(spans):
                dur = end - start
                table.add(stage, name, dur, dur - child_time[i], on_main, parent < 0)
        return table

    def top_level_main(self) -> list[tuple[float, float]]:
        """(start, end) of spans with no parent on the driving thread."""
        for tid, spans in self.threads():
            if tid == self.main_thread:
                return [(rec[2], rec[3]) for rec in spans if rec[1] < 0]
        return []

    def write(self, path) -> int:
        """Write every span as one tab-separated line; returns the count."""
        count = 0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("thread\tindex\tparent\tname\tstage\tstart_s\tend_s\n")
            for tid, spans in self.threads():
                for i, (name, parent, start, end, stage) in enumerate(spans):
                    fh.write(f"{tid}\t{i}\t{parent}\t{name}\t{stage}\t{start:.9f}\t{end:.9f}\n")
                    count += 1
        return count


class SpanTable:
    """Aggregated span times keyed by (stage, name)."""

    def __init__(self):
        self.incl = defaultdict(float)
        self.self_ = defaultdict(float)
        self.calls = defaultdict(int)
        self.main_incl = defaultdict(float)
        self.other_top = defaultdict(float)

    def add(self, stage, name, dur, self_time, on_main, top) -> None:
        key = (stage, name)
        self.incl[key] += dur
        self.self_[key] += self_time
        self.calls[key] += 1
        if on_main:
            self.main_incl[key] += dur
        elif top:
            self.other_top[key] += dur

    @staticmethod
    def _match(stages, stage) -> bool:
        return any(stage == s or stage.startswith(s + ".") for s in stages)

    def total(self, stages, names, kind="incl"):
        """Sum over spans whose stage is one of ``stages`` (or a sub-stage).

        ``kind``: inclusive seconds, ``self`` seconds, ``main`` (inclusive,
        driving thread only), ``other_top`` (top-level spans of other
        threads) or ``calls`` (span count).
        """
        source = {"incl": self.incl, "self": self.self_, "main": self.main_incl,
                  "other_top": self.other_top, "calls": self.calls}[kind]
        stages = (stages,) if isinstance(stages, str) else stages
        names = (names,) if isinstance(names, str) else names
        return sum(v for (st, nm), v in source.items()
                   if nm in names and self._match(stages, st))
