"""Acceptance gate: eleven numbered end-to-end criteria for the package.

Each test prints exactly one `criterion NN PASS/FAIL ...` line (outside
pytest's capture, so it shows in normal runs) with the measured values and
the stated tolerances. A criterion passes only at its stated tolerance; the
printed line and the test verdict always agree.
"""

import contextlib
import time
from dataclasses import replace

import numpy as np

from fedsplit.attack import AttackerConfig, run_attack
from fedsplit.corpus import BatchSampler, make_copy_corpus, make_lm_corpus, shard_corpus
from fedsplit.inference import GenerationConfig, InferenceStack
from fedsplit.model import (
    LoraConfig,
    ModelConfig,
    PartitionSpec,
    build_monolithic,
    build_partitioned,
    fedavg_merge,
)
from fedsplit.strategies import ClientBatchServer
from fedsplit.tensor import (
    Tensor,
    add,
    apply_rope,
    attend,
    attention_sublayer,
    causal_attention,
    causal_mask,
    embedding,
    linear,
    matmul,
    merge_heads,
    mlp_sublayer,
    mul,
    no_grad,
    reshape,
    rms_norm,
    rope_angles,
    scale,
    silu,
    softmax_cross_entropy,
    split_heads,
)
from fedsplit.training import (
    NoiseConfig,
    SequentialTrainer,
    connect_pair,
    noise_gradient_propagation_check,
    sequence_loss,
    train_monolithic,
)
from fedsplit.transport import LoopbackChannel, MessageChannel
from fedsplit.wire import (
    GradMsg,
    HiddenStateMsg,
    MaskMeta,
    compress_mask,
    encode_message,
    reconstruct_mask,
)

CFG = ModelConfig(vocab_size=32, hidden_size=16, num_heads=2, num_blocks=4, mlp_hidden=24)
PART = PartitionSpec(1, 2, 1)


@contextlib.contextmanager
def verdict(capsys, number, title):
    """Print one pass/fail line for a numbered criterion, whatever happens."""
    info = {"detail": ""}
    try:
        yield info
    except BaseException as exc:
        with capsys.disabled():
            print(f"\ncriterion {number:02d} FAIL  {title} [{type(exc).__name__}: {exc}]")
        raise
    detail = f" [{info['detail']}]" if info["detail"] else ""
    with capsys.disabled():
        print(f"\ncriterion {number:02d} PASS  {title}{detail}")


def rel_norm(a, b):
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if max(na, nb) == 0.0:
        return 0.0
    return float(np.linalg.norm(a - b) / max(na, nb))


def trainable_state(segments):
    out = {}
    for seg in segments:
        for name in seg.trainable_parameters():
            out[name] = seg.named_parameters()[name].data.copy()
    return out


# ---------------------------------------------------------------------------
# 1. split forward equals monolithic forward on every partition


def test_criterion_01_split_forward_matches_monolithic(capsys):
    with verdict(capsys, 1, "split forward equals monolithic on all partitions of a 6-block model") as info:
        started = time.perf_counter()
        cfg = ModelConfig(vocab_size=32, hidden_size=16, num_heads=2, num_blocks=6, mlp_hidden=24)
        rng = np.random.default_rng(11)
        tokens = rng.integers(0, cfg.vocab_size, size=(3, 12))
        pads = (0, 2, 5)

        mono = build_monolithic(cfg, LoraConfig(), seed=4)
        with no_grad():
            reference = mono.forward(tokens, pad_lens=pads).data

        partitions = [
            (p, k, q)
            for p in range(1, 7)
            for k in range(1, 7)
            for q in range(1, 7)
            if p + k + q == 6
        ]
        assert len(partitions) == 10

        worst = 0.0
        for p, k, q in partitions:
            front, middle, back = build_partitioned(cfg, PartitionSpec(p, k, q), LoraConfig(), seed=4)
            with no_grad():
                h = front.forward(tokens, pad_lens=pads)
                h = middle.forward(h.data, pad_lens=pads)
                logits = back.forward(h.data, pad_lens=pads)
            worst = max(worst, float(np.max(np.abs(logits.data - reference))))

        elapsed = time.perf_counter() - started
        info["detail"] = f"10 partitions, max abs diff {worst:.2e} < 1e-12; {elapsed:.1f} s < 10 s"
        assert worst < 1e-12
        assert elapsed < 10.0


# ---------------------------------------------------------------------------
# 2. relayed gradients equal monolithic gradients


def test_criterion_02_relayed_gradients_match_monolithic(capsys):
    with verdict(capsys, 2, "relayed adapter gradients equal monolithic gradients on 20 seeds") as info:
        lr = 0.5
        worst = 0.0
        zero_params = 0
        for seed in range(20):
            corpus = make_copy_corpus(8, payload_len=4, vocab_size=CFG.vocab_size, seed=seed)
            sampler = BatchSampler(corpus, 4, seed=100 + seed)
            batch = sampler.batch_for(0)

            mono = build_monolithic(CFG, LoraConfig(), seed=seed)
            logits = mono.forward(batch.tokens, pad_lens=batch.pad_lens)
            loss, _ = sequence_loss(logits, batch.targets)
            loss.backward()
            mono.discard_pending()
            mono_grads = mono.collect_grads()

            segments = build_partitioned(CFG, PART, LoraConfig(), seed=seed)
            before = trainable_state(segments)
            client, server, channel = connect_pair(*segments, 0, lr=lr, noise=None)
            with SequentialTrainer([client], server, [channel]) as trainer:
                trainer.run(lambda cid, r: sampler.batch_for(r), rounds=1)
            after = trainable_state(segments)

            assert set(before) == set(mono_grads)
            for name in before:
                relayed = (before[name] - after[name]) / lr
                if max(np.linalg.norm(mono_grads[name]), np.linalg.norm(relayed)) == 0.0:
                    np.testing.assert_array_equal(mono_grads[name], relayed)
                    zero_params += 1
                    continue
                worst = max(worst, rel_norm(mono_grads[name], relayed))

        info["detail"] = (
            f"worst per-parameter rel err {worst:.2e} < 1e-10; "
            f"{zero_params} zero-gradient parameters matched exactly"
        )
        assert worst < 1e-10


# ---------------------------------------------------------------------------
# 3. finite-difference check of every autodiff op

_FD_STEP = 1e-5


def _loss_value(build, arrays, proj):
    with no_grad():
        out = build(*[Tensor(a) for a in arrays])
    return float(np.sum(out.data * proj))


def _fd_grads(build, arrays, proj):
    grads = []
    for i in range(len(arrays)):
        g = np.zeros_like(arrays[i])
        it = np.nditer(arrays[i], flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            plus = [a.copy() for a in arrays]
            minus = [a.copy() for a in arrays]
            plus[i][idx] += _FD_STEP
            minus[i][idx] -= _FD_STEP
            g[idx] = (_loss_value(build, plus, proj) - _loss_value(build, minus, proj)) / (
                2.0 * _FD_STEP
            )
        grads.append(g)
    return grads


def _analytic_grads(build, arrays, proj):
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    out = build(*tensors)
    out.backward(proj)
    return [t.grad for t in tensors]


def _max_rel(a, b):
    denom = max(np.max(np.abs(a)), np.max(np.abs(b)), 1.0)
    return float(np.max(np.abs(a - b)) / denom)


def _op_instance(name, rng):
    """One random (build, arrays, out_shape) instance of the named op."""
    if name == "add":
        return add, [rng.standard_normal((3, 4)), rng.standard_normal((3, 4))], (3, 4)
    if name == "mul":
        return mul, [rng.standard_normal((3, 4)), rng.standard_normal((3, 4))], (3, 4)
    if name == "scale":
        factor = float(rng.standard_normal())
        return (lambda t: scale(t, factor)), [rng.standard_normal((3, 4))], (3, 4)
    if name == "matmul":
        return matmul, [rng.standard_normal((3, 4)), rng.standard_normal((4, 2))], (3, 2)
    if name == "linear":
        return linear, [rng.standard_normal((2, 3, 4)), rng.standard_normal((5, 4))], (2, 3, 5)
    if name == "silu":
        return silu, [rng.standard_normal((3, 4))], (3, 4)
    if name == "rms_norm":
        return rms_norm, [rng.standard_normal((2, 3, 6)), rng.standard_normal(6)], (2, 3, 6)
    if name == "embedding":
        ids = rng.integers(0, 7, size=(2, 3))
        return (lambda tbl: embedding(tbl, ids)), [rng.standard_normal((7, 5))], (2, 3, 5)
    if name == "split_heads":
        return (lambda t: split_heads(t, 2)), [rng.standard_normal((2, 4, 6))], (2, 2, 4, 3)
    if name == "merge_heads":
        return merge_heads, [rng.standard_normal((2, 2, 4, 3))], (2, 4, 6)
    if name == "reshape":
        return (lambda t: reshape(t, (4, 6))), [rng.standard_normal((2, 3, 4))], (4, 6)
    if name == "apply_rope":
        start = int(rng.integers(0, 8))
        positions = tuple(range(start, start + 4))
        return (
            (lambda t: apply_rope(t, positions)),
            [rng.standard_normal((1, 2, 4, 6))],
            (1, 2, 4, 6),
        )
    if name == "attend":
        allowed = causal_mask(1, 3, pad_lens=(int(rng.integers(0, 2)),))
        return (
            (lambda q, k, v: attend(q, k, v, allowed)),
            [rng.standard_normal((1, 2, 3, 4)) for _ in range(3)],
            (1, 2, 3, 4),
        )
    if name == "causal_attention":
        start = int(rng.integers(0, 4))
        positions = tuple(range(start, start + 3))
        pad = (int(rng.integers(0, 2)),)
        return (
            (lambda q, k, v: causal_attention(q, k, v, positions, pad_lens=pad)),
            [rng.standard_normal((1, 2, 3, 4)) for _ in range(3)],
            (1, 2, 3, 4),
        )
    if name == "attention_sublayer":
        # two rows, one left-padded; x, the norm gain, then (weight, lora_a,
        # lora_b) for query, key, value and out
        start = int(rng.integers(0, 4))
        allowed = causal_mask(2, 3, pad_lens=(0, int(rng.integers(1, 3))))
        tables = rope_angles(np.arange(start, start + 3), 2, 10000.0)
        shapes = [(2, 3, 4), (4,)] + [(4, 4), (2, 4), (4, 2)] * 4

        def build(x, norm, *weights):
            projections = [weights[i: i + 3] for i in range(0, 12, 3)]
            return attention_sublayer(x, norm, projections, 1.5, 2, allowed, tables)

        return build, [rng.standard_normal(shape) for shape in shapes], (2, 3, 4)
    if name == "mlp_sublayer":
        shapes = [(2, 3, 4), (4,), (5, 4), (5, 4), (4, 5)]
        return mlp_sublayer, [rng.standard_normal(shape) for shape in shapes], (2, 3, 4)
    if name == "softmax_cross_entropy":
        targets = rng.integers(0, 6, size=4)
        targets[0] = -1
        return (
            (lambda t: softmax_cross_entropy(t, targets)[0]),
            [rng.standard_normal((4, 6)) * 2.0],
            (),
        )
    raise AssertionError(f"unknown op {name}")


_OPS = (
    "add",
    "mul",
    "scale",
    "matmul",
    "linear",
    "silu",
    "rms_norm",
    "embedding",
    "split_heads",
    "merge_heads",
    "reshape",
    "apply_rope",
    "attend",
    "causal_attention",
    "softmax_cross_entropy",
    "attention_sublayer",
    "mlp_sublayer",
)


def test_criterion_03_finite_difference_suite(capsys):
    with verdict(capsys, 3, "every autodiff op passes central differences on 100 random instances") as info:
        worst_by_op = {}
        for op_index, name in enumerate(_OPS):
            worst = 0.0
            for instance in range(100):
                rng = np.random.default_rng(1000 * op_index + instance)
                build, arrays, out_shape = _op_instance(name, rng)
                proj = rng.standard_normal(out_shape)
                analytic = _analytic_grads(build, arrays, proj)
                numeric = _fd_grads(build, arrays, proj)
                for a, n in zip(analytic, numeric):
                    worst = max(worst, _max_rel(a, n))
            worst_by_op[name] = worst
        overall = max(worst_by_op.values())
        loudest = max(worst_by_op, key=worst_by_op.get)
        info["detail"] = (
            f"{len(_OPS)} ops x 100 instances, worst rel err {overall:.2e} < 1e-5 ({loudest})"
        )
        assert overall < 1e-5, worst_by_op


# ---------------------------------------------------------------------------
# 4. client-batch trunk equals solo forwards and summed gradients


def test_criterion_04_client_batch_equivalence(capsys):
    with verdict(capsys, 4, "batched trunk equals solo forwards and summed solo gradients") as info:
        batch, seq = 2, 6
        positions = tuple(range(seq))
        fwd_worst, grad_worst = 0.0, 0.0
        for group_size in (2, 4, 8):
            _, middle, _ = build_partitioned(CFG, PART, LoraConfig(), seed=21)
            server = ClientBatchServer(middle, lr=0.1)
            rng = np.random.default_rng(50 + group_size)
            hiddens = [rng.standard_normal((batch, seq, CFG.hidden_size)) for _ in range(group_size)]
            pads = [tuple(int(p) for p in rng.integers(0, 3, size=batch)) for _ in range(group_size)]
            upstream = [rng.standard_normal((batch, seq, CFG.hidden_size)) for _ in range(group_size)]

            replies = server.batch_forward(
                [
                    HiddenStateMsg(hiddens[i], MaskMeta(seq, pads[i], batch), positions, 7, i)
                    for i in range(group_size)
                ]
            )

            solo_grads = []
            for i in range(group_size):
                _, clone, _ = build_partitioned(CFG, PART, LoraConfig(), seed=21)
                out = clone.forward(hiddens[i], pad_lens=pads[i], positions=positions)
                fwd_worst = max(fwd_worst, float(np.max(np.abs(replies[i].payload - out.data))))
                clone.backward(upstream[i])
                solo_grads.append(clone.collect_grads())

            server.batch_backward(
                [GradMsg(upstream[i], step_id=7, client_id=i) for i in range(group_size)]
            )
            for name, batched in server.last_grads.items():
                summed = sum(g[name] for g in solo_grads)
                grad_worst = max(grad_worst, rel_norm(batched, summed))

        info["detail"] = (
            f"M in (2, 4, 8): forward max abs diff {fwd_worst:.2e} < 1e-12, "
            f"trunk-gradient rel err {grad_worst:.2e} < 1e-10"
        )
        assert fwd_worst < 1e-12
        assert grad_worst < 1e-10


# ---------------------------------------------------------------------------
# 5. adapter merge is the exact weighted mean and idempotent


def _randomize_adapters(segment, seed):
    rng = np.random.default_rng(seed)
    for name in segment.lora_parameters():
        param = segment.named_parameters()[name]
        param.data = rng.standard_normal(param.data.shape)


def test_criterion_05_merge_weighted_mean_and_idempotent(capsys):
    with verdict(capsys, 5, "adapter merge is the exact weighted mean and idempotent") as info:
        branches = []
        for seed in range(3):
            _, middle, _ = build_partitioned(CFG, PART, LoraConfig(), seed=0)
            _randomize_adapters(middle, 100 + seed)
            branches.append(middle)

        weights = [1.0, 2.0, 5.0]
        merged = fedavg_merge(branches, weights)
        normalized = np.asarray(weights) / np.asarray(weights).sum()
        for name in branches[0].lora_parameters():
            expected = np.zeros_like(branches[0].named_parameters()[name].data)
            for w, branch in zip(normalized, branches):
                expected = expected + w * branch.named_parameters()[name].data
            np.testing.assert_array_equal(merged.named_parameters()[name].data, expected)

        base = branches[0]
        reference = {n: base.named_parameters()[n].data for n in base.lora_parameters()}
        for group, group_weights in (
            ([base], None),
            ([base, base], None),
            ([base, base, base, base], None),
            ([base, base, base], [1.0, 1.0, 2.0]),
        ):
            again = fedavg_merge(group, group_weights)
            for name, expected in reference.items():
                np.testing.assert_array_equal(again.named_parameters()[name].data, expected)

        thirds = fedavg_merge([base, base, base])
        ulp_scale = np.finfo(np.float64).eps
        worst_thirds = 0.0
        for name, expected in reference.items():
            diff = np.max(np.abs(thirds.named_parameters()[name].data - expected))
            bound = 4.0 * ulp_scale * max(1.0, float(np.max(np.abs(expected))))
            worst_thirds = max(worst_thirds, float(diff))
            assert diff <= bound

        info["detail"] = (
            "weighted mean bitwise-identical to mirrored arithmetic; identical-branch merge "
            f"bitwise for dyadic weights, {worst_thirds:.1e} (<= 4 ulp) for thirds"
        )


# ---------------------------------------------------------------------------
# 6. cached decode equals uncached decode token for token


def test_criterion_06_cached_decode_identity(capsys):
    with verdict(capsys, 6, "cached greedy decode equals uncached on 100 prompts x 64 tokens") as info:
        started = time.perf_counter()
        cfg = ModelConfig(
            vocab_size=32, hidden_size=16, num_heads=2, num_blocks=3, mlp_hidden=24, max_context=80
        )
        front, middle, back = build_partitioned(cfg, PartitionSpec(1, 1, 1), LoraConfig(), seed=2)
        gen = GenerationConfig(max_new_tokens=64, mode="greedy")

        rng = np.random.default_rng(0)
        prompts = [
            [int(t) for t in rng.integers(0, cfg.vocab_size, size=int(rng.integers(4, 13)))]
            for _ in range(100)
        ]

        for prompt in prompts:
            results = {}
            for use_cache in (True, False):
                with InferenceStack(front, middle, back, use_cache=use_cache) as stack:
                    results[use_cache] = stack.session.generate(prompt, gen)
                assert results[use_cache].error is None
                assert len(results[use_cache].tokens) == 64
            assert results[True].tokens == results[False].tokens

        elapsed = time.perf_counter() - started
        info["detail"] = f"100/100 prompts identical over 64 tokens; {elapsed:.1f} s < 60 s"
        assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 7. communication properties


def test_criterion_07_communication_properties(capsys):
    with verdict(capsys, 7, "mask metadata tiny and decode bytes scale as expected") as info:
        batch, seq, width = 2, 128, 8
        j = np.arange(seq)
        allowed = (j[None, :] <= j[:, None])[None, :, :] & (
            j[None, None, :] >= np.zeros((batch, 1, 1))
        )
        dense = np.where(allowed, 0.0, -np.inf)
        meta = compress_mask(dense)
        assert np.array_equal(reconstruct_mask(meta), dense)
        dense_bytes = batch * seq * seq * width
        assert meta.wire_size() <= 32
        assert meta.dense_mask_bytes(width) == dense_bytes == 262144

        payload = np.zeros((batch, 4, 8))
        uniform = HiddenStateMsg(payload, MaskMeta(seq, 0, batch), tuple(range(4)), 0, 0)
        ragged = HiddenStateMsg(payload, MaskMeta(seq, (0, 3), batch), tuple(range(4)), 0, 0)
        frame = encode_message(uniform)
        assert len(encode_message(ragged)) - len(frame) == 8 * batch

        sender_end, receiver_end = LoopbackChannel.pair()
        sender, receiver = MessageChannel(sender_end), MessageChannel(receiver_end)
        try:
            sender.send(uniform)
            receiver.recv()
            counted = sender.stats.snapshot()["classes"]["hidden_state"]["sent_bytes"]
            assert counted == len(frame)
        finally:
            sender.close()
            receiver.close()

        cfg = ModelConfig(
            vocab_size=32, hidden_size=16, num_heads=2, num_blocks=3, mlp_hidden=24, max_context=520
        )
        front, middle, back = build_partitioned(cfg, PartitionSpec(1, 1, 1), LoraConfig(), seed=3)

        def decode_bytes(context, use_cache, steps=4):
            prompt = [i % cfg.vocab_size for i in range(context)]
            with InferenceStack(front, middle, back, use_cache=use_cache) as stack:
                logits = stack.session.prefill(prompt)
                totals_before = stack.session.channel.stats.snapshot()["totals"]
                token = int(np.argmax(logits))
                for _ in range(steps):
                    logits = stack.session.decode_step(token)
                    token = int(np.argmax(logits))
                totals_after = stack.session.channel.stats.snapshot()["totals"]
            return (totals_after["sent_bytes"] + totals_after["recv_bytes"]) - (
                totals_before["sent_bytes"] + totals_before["recv_bytes"]
            )

        contexts = (128, 256, 512)
        cached = [decode_bytes(c, True) for c in contexts]
        uncached = [decode_bytes(c, False) for c in contexts]
        assert cached[0] == cached[1] == cached[2]
        assert uncached[0] < uncached[1] < uncached[2]
        second_difference = (uncached[2] - uncached[1]) - 2 * (uncached[1] - uncached[0])
        assert second_difference == 0

        info["detail"] = (
            f"mask meta {meta.wire_size()} B <= 32 B vs {dense_bytes} B dense "
            f"(ratio {dense_bytes / meta.wire_size():.0f}x); cached step bytes {cached[0]} "
            f"at contexts {contexts}; uncached bytes {uncached} exactly linear"
        )


# ---------------------------------------------------------------------------
# 8. noise propagation into trunk weight gradients


def test_criterion_08_noise_gradient_propagation(capsys):
    with verdict(capsys, 8, "zero noise leaves gradients untouched; perturbation grows with scale") as info:
        corpus = make_copy_corpus(8, payload_len=4, vocab_size=CFG.vocab_size, seed=3)
        sampler = BatchSampler(corpus, 4, seed=103)

        traces = {}
        states = {}
        for label, noise in (
            ("off", None),
            ("zero", NoiseConfig(scale=0.0, target="forward_hidden", seed=5)),
        ):
            segments = build_partitioned(CFG, PART, LoraConfig(), seed=3)
            client, server, channel = connect_pair(*segments, 0, lr=0.1, noise=noise)
            with SequentialTrainer([client], server, [channel]) as trainer:
                records = trainer.run(lambda cid, r: sampler.batch_for(r), rounds=3)
            traces[label] = [r.loss for r in records]
            states[label] = trainable_state(segments)
        assert traces["off"] == traces["zero"]
        for name in states["off"]:
            np.testing.assert_array_equal(states["off"][name], states["zero"][name])

        probe = noise_gradient_propagation_check(
            ModelConfig(vocab_size=32, hidden_size=16, num_heads=2, num_blocks=3, mlp_hidden=24),
            deltas=(0.0, 0.02, 0.05, 0.1),
            draws=100,
            seed=0,
        )
        means = dict(zip(probe["deltas"], probe["mean_grad_perturbation"]))
        assert means[0.0] == 0.0
        assert 0.0 < means[0.02] < means[0.05] < means[0.1]

        info["detail"] = (
            "zero-scale run bitwise equal to noise-free run; mean perturbation of the last "
            f"trunk weight over 100 draws: {means[0.02]:.1e} < {means[0.05]:.1e} < {means[0.1]:.1e}"
        )


# ---------------------------------------------------------------------------
# 9. convergence on a memorizable corpus


def test_criterion_09_convergence_and_bitwise_trace(capsys):
    with verdict(capsys, 9, "noisy split training converges; zero-noise trace is bitwise monolithic") as info:
        corpus = make_copy_corpus(32, payload_len=4, vocab_size=CFG.vocab_size, seed=9)
        steps, lr = 200, 0.2

        sampler = BatchSampler(corpus, 8, seed=109)
        segments = build_partitioned(CFG, PART, LoraConfig(), seed=9)
        client, server, channel = connect_pair(
            *segments, 0, lr=lr, noise=NoiseConfig(scale=0.02, target="forward_hidden", seed=5)
        )
        with SequentialTrainer([client], server, [channel]) as trainer:
            records = trainer.run(lambda cid, r: sampler.batch_for(r), rounds=steps)
        noisy = [r.loss for r in records]
        ratio = noisy[-1] / noisy[0]
        assert ratio < 0.5

        clean_sampler = BatchSampler(corpus, 8, seed=109)
        mono = build_monolithic(CFG, LoraConfig(), seed=9)
        mono_losses = train_monolithic(mono, clean_sampler.batch_for, steps=steps, lr=lr)

        split_segments = build_partitioned(CFG, PART, LoraConfig(), seed=9)
        client2, server2, channel2 = connect_pair(*split_segments, 0, lr=lr, noise=None)
        with SequentialTrainer([client2], server2, [channel2]) as trainer:
            clean_records = trainer.run(lambda cid, r: clean_sampler.batch_for(r), rounds=steps)
        assert [r.loss for r in clean_records] == mono_losses

        mono_state = mono.state_dict()
        for seg in split_segments:
            for name, value in seg.state_dict().items():
                np.testing.assert_array_equal(value, mono_state[name])

        info["detail"] = (
            f"32-item corpus, noise scale 0.02: loss {noisy[0]:.3f} -> {noisy[-1]:.3f} "
            f"(ratio {ratio:.2f} < 0.5) in {steps} steps; zero-noise 200-step trace and "
            "final parameters bitwise equal to monolithic"
        )


# ---------------------------------------------------------------------------
# 10. reconstruction attack ordering


def test_criterion_10_attack_ordering(capsys):
    with verdict(capsys, 10, "embedding-cut attack succeeds; deep noisy cut stays near chance") as info:
        cfg = ModelConfig(
            vocab_size=16,
            hidden_size=32,
            num_heads=4,
            num_blocks=5,
            mlp_hidden=48,
            init_scale=0.002,
            rms_eps=1e-8,
        )
        shards = shard_corpus(make_lm_corpus(96, length=11, vocab_size=16, seed=3), 3)

        shallow = run_attack(
            cfg,
            shards[:2],
            shards[2],
            steps=8,
            attacker=AttackerConfig(depth=0, attacker_lr=0.2, replay_epochs=20),
            lr=1e-4,
            batch_size=4,
            seed=3,
        )
        assert shallow.token_accuracy > 0.9

        deep = run_attack(
            cfg,
            shards[:2],
            shards[2],
            steps=8,
            attacker=AttackerConfig(depth=1, attacker_lr=0.2, replay_epochs=20),
            noise=NoiseConfig(0.02, "forward_hidden", 7),
            lr=1e-4,
            batch_size=4,
            seed=3,
        )
        chance = 1.0 / cfg.vocab_size
        assert deep.token_accuracy <= 3.0 * chance

        auditor = AttackerConfig(depth=1, attacker_lr=0.2, replay_epochs=0)
        audit_kwargs = dict(
            steps=4,
            noise=NoiseConfig(0.02, "forward_hidden", 7),
            lr=1e-4,
            batch_size=4,
            seed=3,
            record_frames=True,
        )
        observed = run_attack(cfg, shards[:2], shards[2], attacker=auditor, **audit_kwargs)
        unobserved = run_attack(
            cfg, shards[:2], shards[2], attacker=replace(auditor, enabled=False), **audit_kwargs
        )
        assert observed.honest_losses == unobserved.honest_losses
        assert len(observed.frame_log) == len(unobserved.frame_log) > 0
        assert all(a == b for a, b in zip(observed.frame_log, unobserved.frame_log))

        info["detail"] = (
            f"embedding cut: held-out token accuracy {shallow.token_accuracy:.2f} > 0.9; "
            f"one-block cut at noise 0.02: {deep.token_accuracy:.3f} <= {3 * chance:.4f} "
            "(3x chance); honest losses and every wire frame identical with the observer on/off"
        )


# ---------------------------------------------------------------------------
# 11. transport invariance


def test_criterion_11_transport_invariance(capsys):
    with verdict(capsys, 11, "wire frames and loss records identical on loopback and tcp") as info:
        cfg = ModelConfig(
            vocab_size=32, hidden_size=16, num_heads=2, num_blocks=3, mlp_hidden=24, max_context=80
        )
        front, middle, back = build_partitioned(cfg, PartitionSpec(1, 1, 1), LoraConfig(), seed=2)
        gen = GenerationConfig(max_new_tokens=64, mode="greedy")
        rng = np.random.default_rng(0)
        prompts = [
            [int(t) for t in rng.integers(0, cfg.vocab_size, size=int(rng.integers(4, 13)))]
            for _ in range(8)
        ]

        runs = {}
        for transport in ("loopback", "tcp"):
            frames, tokens = [], []
            for prompt in prompts:
                with InferenceStack(
                    front,
                    middle,
                    back,
                    transport=transport,
                    use_cache=True,
                ) as stack:
                    stack.session.channel.sent_log, stack.session.channel.recv_log = [], []
                    result = stack.session.generate(prompt, gen)
                    assert result.error is None
                    tokens.append(result.tokens)
                    frames.append(
                        (
                            list(stack.session.channel.sent_log),
                            list(stack.session.channel.recv_log),
                        )
                    )
            runs[transport] = (frames, tokens)

        message_count = sum(len(sent) + len(received) for sent, received in runs["loopback"][0])
        assert message_count >= 1000
        assert runs["loopback"][1] == runs["tcp"][1]
        assert runs["loopback"][0] == runs["tcp"][0]

        corpus = make_copy_corpus(8, payload_len=4, vocab_size=CFG.vocab_size, seed=6)
        losses = {}
        for transport in ("loopback", "tcp"):
            sampler = BatchSampler(corpus, 4, seed=106)
            segments = build_partitioned(CFG, PART, LoraConfig(), seed=6)
            client, server, channel = connect_pair(
                *segments, 0, lr=0.1, noise=None, transport=transport
            )
            with SequentialTrainer([client], server, [channel]) as trainer:
                records = trainer.run(lambda cid, r: sampler.batch_for(r), rounds=6)
            losses[transport] = [r.loss for r in records]
        assert losses["loopback"] == losses["tcp"]

        info["detail"] = (
            f"{message_count} generative messages byte-identical across transports; "
            "equal-seed training loss records identical"
        )
