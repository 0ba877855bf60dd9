"""The buffer pool of a model cut: grad-mode passes reuse their full-size
arrays without changing a bit, the pool holds one step's working set, and
inference never touches it."""

import statistics
import sys
import tracemalloc

import numpy as np
import pytest
from test_kernels import assert_bits, composed_block_forward

from fedsplit import model as model_mod
from fedsplit import tensor
from fedsplit.corpus import BatchSampler, make_lm_corpus, shard_corpus
from fedsplit.errors import BarrierTimeoutError, ProtocolError
from fedsplit.inference import InferenceStack
from fedsplit.model import (
    LoraConfig,
    ModelConfig,
    PartitionSpec,
    SegmentModel,
    apply_sgd_step,
    build_monolithic,
    build_partitioned,
    init_parameter_set,
)
from fedsplit.strategies import (
    ClientBatchServer,
    ClientBatchTrainer,
    HierarchicalTrainer,
    StrategyConfig,
    build_hierarchical_session,
    build_shared_trunk_session,
)
from fedsplit.training import (
    Batch,
    SequentialTrainer,
    TrainingServer,
    connect_pair,
    local_loss_step,
    train_monolithic,
)
from fedsplit.wire import GradMsg, HiddenStateMsg, MaskMeta

CFG = ModelConfig(vocab_size=32, hidden_size=16, num_heads=2, num_blocks=4, mlp_hidden=24)
PART = PartitionSpec(1, 2, 1)
LORA = LoraConfig(rank=4, alpha=8.0)
# the benchmark's federate shapes: default model, 2/2/2, batch 8, 49 positions
FEDERATE_PART = PartitionSpec(2, 2, 2)


def held_bytes(pool) -> int:
    return sum(buf.nbytes for bufs in pool._free.values() for buf in bufs)


def random_batch(rng, width, rows=3, vocab=CFG.vocab_size):
    tokens = rng.integers(4, vocab, (rows, width))
    targets = rng.integers(4, vocab, (rows, width))
    return Batch(tokens, targets, tuple(int(p) for p in rng.integers(0, 2, rows)))


def lm_samplers(clients, seed=5):
    corpus = make_lm_corpus(64, length=48, vocab_size=256, seed=seed + 1)
    return [BatchSampler(shard, 8, seed=seed + 17 * c)
            for c, shard in enumerate(shard_corpus(corpus, clients))]


# ---------------------------------------------------------------------------
# who owns a pool


def test_a_cut_and_its_clones_share_one_pool():
    front, middle, back = build_partitioned(CFG, PART, LORA, seed=0)
    assert front.pool is middle.pool is back.pool
    assert front.clone().pool is front.pool
    assert not front.pool._free  # filled on the first grad-mode pass, not at construction
    other = build_partitioned(CFG, PART, LORA, seed=0)[0]
    assert other.pool is not front.pool
    assert build_monolithic(CFG, LORA, seed=0).pool is not front.pool


# ---------------------------------------------------------------------------
# a second grad-mode forward


def test_a_second_grad_forward_is_refused_before_it_runs(monkeypatch):
    """The refused pass builds no Tensor and takes no buffer, and the
    pending backward gives bitwise the gradients of a run without it."""
    rng = np.random.default_rng(3)
    x, other = rng.normal(size=(2, 6, CFG.hidden_size)), rng.normal(size=(2, 6, CFG.hidden_size))
    upstream = rng.normal(size=x.shape)

    def step(refuse):
        middle = build_partitioned(CFG, PART, LORA, seed=4)[1]
        middle.forward(x, pad_lens=[0, 1])
        if refuse:
            taken = []
            monkeypatch.setattr(middle.pool, "take", lambda shape: taken.append(shape))
            start = next(tensor._creation_counter)
            with pytest.raises(ProtocolError, match="forward twice without a backward"):
                middle.forward(other)
            assert next(tensor._creation_counter) == start + 1 and taken == []
            monkeypatch.undo()
        return middle.backward(upstream), middle.collect_grads()

    want_input, want = step(refuse=False)
    got_input, got = step(refuse=True)
    assert_bits(got_input, want_input)
    assert list(got) == list(want)
    for name in want:
        assert_bits(got[name], want[name])


# ---------------------------------------------------------------------------
# reuse hazards: pooled passes are bitwise the op graph, which uses no pool


def nonzero_adapter_params(cfg, lora, seed):
    """A parameter set whose ``lora_b`` is nonzero, so the low-rank paths
    carry signal from the first step."""
    params = init_parameter_set(cfg, lora, seed)
    rng = np.random.default_rng(seed + 1)
    for name in params:
        if name.endswith("lora_b"):
            params[name] = rng.standard_normal(params[name].shape) * 0.1
    return params


@pytest.mark.parametrize("trainable_base", [False, True])
def test_three_pooled_steps_are_bitwise_the_op_graph(monkeypatch, trainable_base):
    params = nonzero_adapter_params(CFG, LORA, seed=21)
    rng = np.random.default_rng(22)
    batches = [random_batch(rng, 9) for _ in range(3)]

    def run():
        model = SegmentModel("full", CFG, LORA, params, 0, CFG.num_blocks, trainable_base)
        trace = []
        for batch in batches:
            loss, _ = local_loss_step(model, batch.tokens, batch.targets, batch.pad_lens)
            grads = model.collect_grads()
            trace.append((loss, grads))
            apply_sgd_step(model.trainable_parameters(), grads, 0.1)
        return trace, model

    fused, model = run()
    assert model.pool._free  # the fused steps did reuse pooled buffers
    monkeypatch.setattr(model_mod.Block, "forward", composed_block_forward)
    composed, _ = run()
    for (loss, grads), (want_loss, want_grads) in zip(fused, composed):
        assert loss == want_loss
        assert list(grads) == list(want_grads)
        for name in grads:
            assert_bits(grads[name], want_grads[name])


def test_a_front_pass_that_tapes_nothing_gives_every_buffer_back(monkeypatch):
    """Without LoRA the front's blocks are frozen and fed by a frozen
    embedding, so its pooled forward tapes nothing: each sublayer gives its
    buffers back in the same pass, and the split steps stay bitwise the
    monolithic ones."""
    rng = np.random.default_rng(80)
    batches = [random_batch(rng, 7) for _ in range(3)]
    want = train_monolithic(build_monolithic(CFG, None, seed=81), batches.__getitem__, 3, lr=0.1)

    front, middle, back = build_partitioned(CFG, PART, None, seed=81)
    pool, passes, current = front.pool, [], []
    take, give, forward = pool.take, pool.give, front.forward

    def counted_take(shape):
        for counts in current:
            counts["take"] += 1
        return take(shape)

    def counted_give(*buffers):
        for counts in current:
            counts["give"] += sum(buf is not None for buf in buffers)
        give(*buffers)

    def counted_forward(*args, **kwargs):
        current.append({"take": 0, "give": 0})
        try:
            return forward(*args, **kwargs)
        finally:
            passes.append(current.pop())

    monkeypatch.setattr(pool, "take", counted_take)
    monkeypatch.setattr(pool, "give", counted_give)
    front.forward = counted_forward
    client, server, channel = connect_pair(front, middle, back, 0, lr=0.1)
    with SequentialTrainer([client], server, [channel]) as trainer:
        records = trainer.run(lambda cid, r: batches[r], rounds=3)
    assert [r.loss for r in records] == want
    assert len(passes) == 3
    for counted in passes:
        assert counted["take"] > 0 and counted["give"] == counted["take"], counted


def run_strategy(strategy, transport, rounds=4):
    """Loss records and final parameters of two clients sharing one pool
    across their threads."""
    samplers = [BatchSampler(shard, 3, seed=40 + c) for c, shard in enumerate(
        shard_corpus(make_lm_corpus(16, length=10, vocab_size=CFG.vocab_size, seed=41), 2))]
    if strategy == "hierarchical":
        central, clients, subs, channels = build_hierarchical_session(
            CFG, PART, 2, 0.1, lora=LORA, seed=42, transport=transport
        )
        config = StrategyConfig(mode="server_hierarchical", num_clients=2, sync_interval=2)
        trainer = HierarchicalTrainer(central, clients, subs, channels, config)
        segments = [s.middle for s in subs]
    else:
        clients, middle, channels = build_shared_trunk_session(
            CFG, PART, 2, 0.1, lora=LORA, seed=42, transport=transport
        )
        trainer = ClientBatchTrainer(clients, ClientBatchServer(middle, 0.1), channels)
        segments = [middle]
    segments += [seg for c in clients for seg in (c.front, c.back)]
    assert all(seg.pool is segments[0].pool for seg in segments)
    with trainer:
        records = trainer.run(lambda cid, r: samplers[cid].batch_for(r), rounds=rounds)
    losses = [(r.step, r.client_id, r.loss) for r in records]
    return losses, [seg.state_dict() for seg in segments]


@pytest.mark.parametrize("transport", ["loopback", "tcp"])
@pytest.mark.parametrize("strategy", ["client_batch", "hierarchical"])
def test_threads_sharing_a_pool_train_bitwise_as_the_op_graph(monkeypatch, strategy, transport):
    losses, states = run_strategy(strategy, transport)
    monkeypatch.setattr(model_mod.Block, "forward", composed_block_forward)
    want_losses, want_states = run_strategy(strategy, transport)
    assert losses == want_losses
    for state, want in zip(states, want_states):
        for name in want:
            assert_bits(state[name], want[name])


def test_a_round_after_a_rejected_gradient_is_bitwise_a_fresh_sessions_round():
    """The rejected group's trunk tape never gives its buffers back; the
    next round still matches a fresh trunk at the same parameters."""
    rng = np.random.default_rng(50)

    def msgs(step):
        return [HiddenStateMsg(rng.normal(size=(2, 6, CFG.hidden_size)), MaskMeta(6, (0, 1), 2),
                               tuple(range(6)), step_id=step, client_id=c) for c in range(2)]

    def grads(group):
        return [GradMsg(rng.normal(size=m.payload.shape), step_id=m.step_id, client_id=m.client_id)
                for m in group]

    def round_of(server, group, grad_group):
        replies = server.batch_forward(group)
        back = server.batch_backward(grad_group)
        return [r.payload for r in replies + back], dict(server.last_grads)

    server = ClientBatchServer(build_partitioned(CFG, PART, LORA, seed=51)[1], 0.1)
    first = msgs(0)
    round_of(server, first, grads(first))
    rejected = msgs(1)
    server.batch_forward(rejected)
    with pytest.raises(BarrierTimeoutError):
        server.batch_backward(grads(rejected)[:1])
    state = server.middle.state_dict()
    group = msgs(2)
    grad_group = grads(group)
    payloads, last = round_of(server, group, grad_group)

    fresh = ClientBatchServer(build_partitioned(CFG, PART, LORA, seed=51)[1], 0.1)
    fresh.middle.load_state_dict(state)
    want_payloads, want_last = round_of(fresh, group, grad_group)
    for got, want in zip(payloads, want_payloads):
        assert_bits(got, want)
    assert list(last) == list(want_last)
    for name in want_last:
        assert_bits(last[name], want_last[name])


# ---------------------------------------------------------------------------
# bounds


def test_the_pool_holds_one_steps_working_set_over_ten_widths():
    """Each round leaves only its own width's buffers, no more than a fresh
    session holds after one round at that width; a repeated width reuses
    every buffer it holds."""
    rng = np.random.default_rng(60)
    widths = [int(w) for w in rng.permutation(np.arange(5, 15))]
    batches = {w: random_batch(rng, w) for w in widths}

    def session():
        client, server, channel = connect_pair(*build_partitioned(CFG, PART, LORA, seed=61), 0, lr=0.1)
        return SequentialTrainer([client], server, [channel])

    alone = {}
    for w in widths:
        with session() as trainer:
            trainer.run_round([batches[w]], 0)
            alone[w] = held_bytes(trainer.clients[0].front.pool)
    with session() as trainer:
        pool = trainer.clients[0].front.pool
        for step, w in enumerate(widths):
            trainer.run_round([batches[w]], step)
            assert 0 < held_bytes(pool) <= alone[w], (w, held_bytes(pool), alone[w])
            assert all(shape[-2] == w for shape in pool._free), (w, list(pool._free))
        kept = {id(buf) for bufs in pool._free.values() for buf in bufs}
        trainer.run_round([batches[widths[-1]]], len(widths))
        assert {id(buf) for bufs in pool._free.values() for buf in bufs} == kept


@pytest.mark.parametrize("strategy, limit_mb", [("sequential", 10.0), ("client_batch", 20.0)])
def test_a_warm_federate_round_allocates_little(strategy, limit_mb):
    """Traced allocations of a warm round at the benchmark's federate shapes,
    over loopback. Without the pool a round allocated about 35 MB
    (sequential) and 64 MB (client batch)."""
    clients, middle, channels = build_shared_trunk_session(
        ModelConfig(), FEDERATE_PART, 2, 0.05, lora=LoraConfig(rank=8, alpha=16.0), seed=5
    )
    if strategy == "sequential":
        trainer = SequentialTrainer(clients, TrainingServer(middle, 0.05), channels)
    else:
        trainer = ClientBatchTrainer(clients, ClientBatchServer(middle, 0.05), channels)
    samplers = lm_samplers(2)
    with trainer:
        for step in range(3):
            trainer.run_round([s.batch_for(step) for s in samplers], step)
        tracemalloc.start()
        try:
            trainer.run_round([s.batch_for(3) for s in samplers], 3)
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            trainer.run_round([s.batch_for(4) for s in samplers], 4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert (peak - before) / 2**20 <= limit_mb


# ---------------------------------------------------------------------------
# inference stays off the pool


def test_inference_never_takes_from_the_pool(monkeypatch):
    segments = build_partitioned(CFG, PART, LORA, seed=70)

    def refuse(shape):
        raise AssertionError(f"inference took a {shape} buffer")

    monkeypatch.setattr(segments[0].pool, "take", refuse)
    for use_cache in (True, False):
        with InferenceStack(*segments, use_cache=use_cache) as stack:
            token = int(np.argmax(stack.session.prefill([1, 2, 3, 4, 5])))
            stack.session.decode_step(token)


def test_a_cached_decode_token_makes_few_client_thread_calls():
    """Python and C calls on the client thread per cached decode token,
    after a 5-token prefill, default model, loopback."""
    segments = build_partitioned(ModelConfig(), FEDERATE_PART, seed=0)
    counts = []

    def count(event_frame, event, arg):
        if event in ("call", "c_call"):
            counts[-1] += 1

    with InferenceStack(*segments) as stack:
        token = int(np.argmax(stack.session.prefill([1, 2, 3, 4, 5])))
        for _ in range(6):
            counts.append(0)
            sys.setprofile(count)
            try:
                logits = stack.session.decode_step(token)
            finally:
                sys.setprofile(None)
            token = int(np.argmax(logits))
    assert statistics.median(counts) <= 475, counts
