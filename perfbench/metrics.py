"""Metric definitions: names, units, and how each is computed.

End-to-end metrics are what a user of fedsplit sees: set-up time, memory,
training throughput and round latency, time to first token and per output
token, and scoring throughput. Every run reports all of them, because every
run executes all four stages (see ``run.py``); the workload decides which
stage fills the run's time and so which metrics carry the most samples.

Per-layer metrics come from the traced run. Each is measured in the stage
named in its definition ("home" stage) and divided by that stage's operation
count, so its meaning does not change with the workload. ``LAYER_MOVES``
records, per layer metric, which end-to-end metric it should move and on which
workload that stage dominates; later changes cite these predictions.
"""

from __future__ import annotations

import bisect
import math
import statistics

from stages import NEW_TOKENS
from tracer import TENSOR_OPS

# name -> unit, in BENCHMARK.json order
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "train_tokens_per_s": "1/s",
    "round_ms_p50": "ms",
    "round_ms_tail": "ms",
    "round_ms_p50.sequential": "ms",
    "round_ms_p50.client_batch": "ms",
    "round_ms_p50.hierarchical": "ms",
    "ttft_ms_p50": "ms",
    "ttft_ms_tail": "ms",
    "tpot_ms_p50": "ms",
    "tpot_ms_tail": "ms",
    "tpot_uncached_ms_p50": "ms",
    "output_tokens_per_s": "1/s",
    "eval_items_per_s": "1/s",
}

TENSOR_OP_METRICS = ("linear", "attend", "rms_norm", "silu", "apply_rope", "softmax_cross_entropy")

# name -> (unit, what it should move: "end-to-end metric (workload)")
LAYER_MOVES = {
    "tensor.fwd_ms": ("ms", "round_ms_p50 (train)"),
    "tensor.fwd_ms_per_token": ("ms", "tpot_ms_p50 (generate)"),
    "tensor.bwd_ms": ("ms", "round_ms_p50 (train), round_ms_p50.* (federate)"),
    "tensor.ops_per_round": ("count", "round_ms_p50 (train)"),
    "tensor.ops_per_token": ("count", "tpot_ms_p50 (generate)"),
    **{f"tensor.{op}.ms": ("ms", "round_ms_p50 (train)") for op in TENSOR_OP_METRICS},
    "tensor.bwd_calls_inference": ("count", "none: 0 expected on generate and score stages"),
    "model.front.fwd_ms": ("ms", "round_ms_p50 (train)"),
    "model.middle.fwd_ms": ("ms", "round_ms_p50 (train)"),
    "model.back.fwd_ms": ("ms", "round_ms_p50 (train)"),
    "model.front.bwd_ms": ("ms", "round_ms_p50 (train)"),
    "model.middle.bwd_ms": ("ms", "round_ms_p50 (train)"),
    "model.collect_grads_ms": ("ms", "round_ms_p50 (train)"),
    "model.sgd_ms": ("ms", "round_ms_p50 (train)"),
    "model.fwd_ms_per_token": ("ms", "tpot_ms_p50 (generate)"),
    "model.merge_ms": ("ms", "round_ms_p50.hierarchical (federate)"),
    "training.client.step_ms": ("ms", "round_ms_p50 (train, federate)"),
    "training.server.busy_ms": ("ms", "round_ms_p50 (train, federate)"),
    "training.client.wait_ms": ("ms", "round_ms_p50 (train, federate)"),
    "training.relay_overhead_ms": ("ms", "round_ms_p50 (train)"),
    "wire.encode_ms": ("ms", "round_ms_p50.* (federate)"),
    "wire.decode_ms": ("ms", "round_ms_p50.* (federate)"),
    "wire.encode_ms_per_token": ("ms", "tpot_ms_p50 (generate)"),
    "wire.frames_per_round": ("count", "exact count"),
    "wire.bytes_per_round": ("B", "exact count"),
    "wire.bytes_per_token": ("B", "exact count"),
    "wire.bytes_per_token_uncached": ("B", "exact count"),
    "transport.send_ms": ("ms", "tpot_ms_p50 (generate)"),
    "transport.recv_wait_ms": ("ms", "tpot_ms_p50 (generate)"),
    "transport.round_trips_per_token": ("count", "tpot_ms_p50 (generate)"),
    "transport.handoff_ms": ("ms", "tpot_ms_p50 (generate); near 0 share on train"),
    "transport.handoff_ms_train": ("ms", "round_ms_p50 (train)"),
    "transport.connect_ms": ("ms", "eval_items_per_s (score), ttft_ms_p50, setup_s"),
    "strategies.barrier_wait_ms": ("ms", "round_ms_p50.client_batch (federate)"),
    "strategies.batch_fwd_ms": ("ms", "round_ms_p50.client_batch (federate)"),
    "strategies.batch_bwd_ms": ("ms", "round_ms_p50.client_batch (federate)"),
    "strategies.client_idle_share": ("ratio", "round_ms_p50.client_batch (federate)"),
    "strategies.phase_ms": ("ms", "round_ms_p50.hierarchical (federate)"),
    "strategies.merge_ms": ("ms", "round_ms_p50.hierarchical (federate)"),
    "inference.prefill_ms": ("ms", "ttft_ms_p50 (generate), eval_items_per_s (score)"),
    "inference.decode_ms": ("ms", "tpot_ms_p50 (generate)"),
    "inference.server.busy_ms": ("ms", "tpot_ms_p50 (generate)"),
    "inference.stack_open_ms": ("ms", "eval_items_per_s (score), ttft_ms_p50 (generate)"),
    "inference.stack_close_ms": ("ms", "eval_items_per_s (score), ttft_ms_p50 (generate)"),
    "inference.live_sessions": ("count", "peak_rss_mb (generate)"),
    "corpus.batch_ms": ("ms", "round_ms_p50 (train)"),
    "scoring.ms_per_item": ("ms", "eval_items_per_s (score)"),
    "experiment.item_overhead_ms": ("ms", "eval_items_per_s (score)"),
    "experiment.report_ms": ("ms", "eval_items_per_s (score)"),
    "trace.coverage": ("ratio", "share of each primary operation covered by top-level spans"),
    "trace.overhead_pct": ("%", "traced against untraced primary operations"),
}

PER_LAYER = {name: unit for name, (unit, _) in LAYER_MOVES.items()}


def median(values) -> float:
    return float(statistics.median(values))


def tail(values) -> tuple[float, float, int]:
    """The 90th percentile (nearest rank), from at least 100 samples.

    With fewer samples it is the highest percentile with at least ten
    samples beyond it, and with ten or fewer the maximum. Higher percentiles
    of a few thousand samples measure host scheduling bursts more than the
    program. Returns (value, percentile, sample count).
    """
    ordered = sorted(values)
    n = len(ordered)
    rank = min(n - 10, math.ceil(0.9 * n)) if n > 10 else n
    return float(ordered[rank - 1]), 100.0 * rank / n, n


def end_to_end(setup_runs, rss_mb, train, federate, generate, score) -> tuple[dict, dict]:
    """Every end-to-end metric from the stages' samples, plus sample details."""
    ms = 1e3
    round_tail = tail(train.round_s)
    ttft_tail = tail(generate.ttft_s)
    tpot_tail = tail(generate.tpot_s)
    values = {
        "setup_s": median(setup_runs),
        "peak_rss_mb": rss_mb,
        "train_tokens_per_s": (train.tokens + federate.tokens) / (sum(train.round_s) + federate.step_s),
        "round_ms_p50": ms * median(train.round_s),
        "round_ms_tail": ms * round_tail[0],
        "round_ms_p50.sequential": ms * median(federate.round_s["sequential"]),
        "round_ms_p50.client_batch": ms * median(federate.round_s["client_batch"]),
        "round_ms_p50.hierarchical": ms * median(federate.round_s["hierarchical"]),
        "ttft_ms_p50": ms * median(generate.ttft_s),
        "ttft_ms_tail": ms * ttft_tail[0],
        "tpot_ms_p50": ms * median(generate.tpot_s),
        "tpot_ms_tail": ms * tpot_tail[0],
        "tpot_uncached_ms_p50": ms * median(generate.tpot_uncached_s),
        "output_tokens_per_s": NEW_TOKENS * len(generate.session_s) / sum(generate.session_s),
        "eval_items_per_s": median([score.items_per_call / t for t in score.call_s]),
    }
    details = {
        "samples": {
            "setup_s": len(setup_runs),
            "round_ms": len(train.round_s),
            **{f"round_ms.{k}": len(v) for k, v in federate.round_s.items()},
            "ttft_ms": len(generate.ttft_s),
            "tpot_ms": len(generate.tpot_s),  # each the mean of TPOT_GROUP decode steps
            "tpot_uncached_ms": len(generate.tpot_uncached_s),
            "eval_calls": len(score.call_s),
        },
        "steal_removed_s": {
            name: stage.steal_s for name, stage in
            (("train", train), ("federate", federate), ("generate", generate), ("score", score))
        },
        "tail_percentiles": {
            "round_ms_tail": round_tail[1],
            "ttft_ms_tail": ttft_tail[1],
            "tpot_ms_tail": tpot_tail[1],
        },
    }
    return values, details


def coverage(windows, top_spans) -> float:
    """Median share of each operation window covered by top-level spans.

    Top-level spans on one thread never overlap, so the covered time of a
    window is the sum of its intersections with them.
    """
    top_spans = sorted(top_spans)
    starts = [s for s, _ in top_spans]
    shares = []
    for w0, w1 in windows:
        i = max(bisect.bisect_right(starts, w0) - 1, 0)
        covered = 0.0
        while i < len(top_spans) and top_spans[i][0] < w1:
            s, e = top_spans[i]
            covered += max(0.0, min(e, w1) - max(s, w0))
            i += 1
        shares.append(covered / (w1 - w0))
    return median(shares)


def overhead_pct(untraced: dict, traced: dict) -> float:
    """Traced against untraced median operation time, geometric mean over kinds."""
    ratios = [median(traced[k]) / median(untraced[k]) for k in untraced]
    product = 1.0
    for r in ratios:
        product *= r
    return 100.0 * (product ** (1.0 / len(ratios)) - 1.0)


def per_layer(table, train, federate, generate, score, cover: float, overhead: float) -> dict:
    """Every per-layer metric from the traced run's span table."""
    ms = 1e3
    fwd = [f"tensor.{op}" for op in TENSOR_OPS]
    rounds = len(train.round_s)
    tokens = NEW_TOKENS * len(generate.sessions)
    cb_rounds = len(federate.round_s["client_batch"])
    fed_steps = federate.steps
    items = score.items_per_call * len(score.call_s)
    score_wall = sum(end - start for start, end in score.windows)
    item_parts = table.total("score", ["inference.stack_open", "inference.stack_close",
                                       "inference.prefill", "scoring.score"])
    hier = "federate.hierarchical"
    cb = "federate.client_batch"
    dec = "generate.decode"
    server_busy = ["wire.decode", "wire.encode", "transport.send", "training.server.handle",
                   "inference.server.decode", "inference.server.prefill"]

    def per(total, n):
        return ms * total / n

    def mean_of(stage, name):
        return per(table.total(stage, name), table.total(stage, name, "calls"))

    uncached = [rec["uncached_bytes_per_token"] for rec in generate.sessions if rec["uncached"] is not None]
    values = {
        "tensor.fwd_ms": per(table.total("train", fwd, "self"), rounds),
        "tensor.fwd_ms_per_token": per(table.total(dec, fwd, "self"), tokens),
        "tensor.bwd_ms": per(table.total("train", "tensor.backward"), rounds),
        "tensor.ops_per_round": table.total("train", fwd, "calls") / rounds,
        "tensor.ops_per_token": table.total(dec, fwd, "calls") / tokens,
        **{
            f"tensor.{op}.ms": per(table.total("train", [f"tensor.{op}", f"tensor.{op}.bwd"], "self"), rounds)
            for op in TENSOR_OP_METRICS
        },
        "tensor.bwd_calls_inference": table.total(("generate", "score"), "tensor.backward", "calls"),
        **{f"model.{role}.fwd_ms": per(table.total("train", f"model.{role}.fwd"), rounds)
           for role in ("front", "middle", "back")},
        **{f"model.{role}.bwd_ms": per(table.total("train", f"model.{role}.bwd"), rounds)
           for role in ("front", "middle")},
        "model.collect_grads_ms": per(table.total("train", "model.collect_grads"), rounds),
        "model.sgd_ms": per(table.total("train", "model.sgd"), rounds),
        "model.fwd_ms_per_token": per(
            table.total(dec, ["model.front.fwd", "model.middle.fwd", "model.back.fwd"]), tokens),
        "model.merge_ms": mean_of(hier, "model.merge"),
        "training.client.step_ms": per(table.total("train", "training.client.step"), rounds),
        "training.server.busy_ms": per(table.total("train", "training.server.handle"), rounds),
        "training.client.wait_ms": per(table.total("train", "transport.recv", "main"), rounds),
        "training.relay_overhead_ms": ms * (median(train.split_s) - median(train.mono_s)),
        "wire.encode_ms": per(table.total("federate", "wire.encode", "self"), fed_steps),
        "wire.decode_ms": per(table.total("federate", "wire.decode", "self"), fed_steps),
        "wire.encode_ms_per_token": per(table.total(dec, "wire.encode", "self"), tokens),
        "wire.frames_per_round": train.wire_frames / rounds,
        "wire.bytes_per_round": train.wire_bytes / rounds,
        "wire.bytes_per_token": median([rec["bytes_per_token"] for rec in generate.sessions]),
        "wire.bytes_per_token_uncached": sum(uncached) / len(uncached),
        "transport.send_ms": per(table.total(dec, "transport.send"), tokens),
        "transport.recv_wait_ms": per(table.total(dec, "transport.recv", "main"), tokens),
        "transport.round_trips_per_token": median(
            [rec["round_trips_per_token"] for rec in generate.sessions]),
        "transport.handoff_ms": per(
            table.total(dec, "transport.recv", "main") - table.total(dec, server_busy, "other_top"), tokens),
        "transport.handoff_ms_train": per(
            table.total("train", "transport.recv", "main")
            - table.total("train", server_busy, "other_top"), 2 * rounds),
        "transport.connect_ms": mean_of("score", "transport.connect"),
        "strategies.barrier_wait_ms": per(table.total(cb, "strategies.barrier"), cb_rounds),
        "strategies.batch_fwd_ms": per(table.total(cb, "strategies.batch_fwd"), cb_rounds),
        "strategies.batch_bwd_ms": per(table.total(cb, "strategies.batch_bwd"), cb_rounds),
        "strategies.client_idle_share": (
            (table.total(cb, "transport.recv") - table.total(cb, "transport.recv", "main"))
            / table.total(cb, "training.client.step")),
        "strategies.phase_ms": mean_of(hier, "strategies.phase"),
        "strategies.merge_ms": mean_of(hier, "strategies.merge"),
        "inference.prefill_ms": mean_of("generate.prefill", "inference.prefill"),
        "inference.decode_ms": per(table.total(dec, "inference.decode"), tokens),
        "inference.server.busy_ms": per(table.total(dec, "inference.server.decode"), tokens),
        "inference.stack_open_ms": mean_of("score", "inference.stack_open"),
        "inference.stack_close_ms": mean_of("score", "inference.stack_close"),
        "inference.live_sessions": generate.live_sessions(),
        "corpus.batch_ms": per(table.total("train", "corpus.batch"), rounds),
        "scoring.ms_per_item": per(table.total("score", "scoring.score"), items),
        "experiment.item_overhead_ms": per(score_wall - item_parts, items),
        "experiment.report_ms": mean_of("score", "experiment.report"),
        "trace.coverage": cover,
        "trace.overhead_pct": overhead,
    }
    return values
