"""Client-batch concatenation and hierarchical sub-server training."""

import dataclasses
import struct
import sys
import threading
import time

import numpy as np
import pytest

from fedsplit.corpus import BatchSampler, make_copy_corpus, shard_corpus
from fedsplit.errors import (
    BarrierTimeoutError,
    BatchIncompatibilityError,
    ConfigError,
    ProtocolError,
    ShapeError,
)
from fedsplit.model import (
    LORA_SUFFIXES,
    ModelConfig,
    PartitionSpec,
    build_partitioned,
    fedavg_merge,
)
from fedsplit.strategies import (
    ClientBatchServer,
    ClientBatchTrainer,
    HierarchicalTrainer,
    StrategyConfig,
    align_batches,
    build_hierarchical_session,
    build_shared_trunk_session,
    collect_barrier,
)
from fedsplit.training import (
    Batch,
    SequentialTrainer,
    TrainingServer,
)
from fedsplit.transport import LoopbackChannel, MessageChannel, channel_pair
from fedsplit.wire import (
    GradMsg,
    HiddenStateMsg,
    MaskMeta,
    decode_message,
    encode_message,
    parse_header,
)

CFG = ModelConfig(vocab_size=32, hidden_size=16, num_heads=2, num_blocks=4, mlp_hidden=24)
PART = PartitionSpec(1, 2, 1)


def rel_err(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = max(np.max(np.abs(a)), np.max(np.abs(b)), 1.0)
    return float(np.max(np.abs(a - b))) / scale


def sampler_for(seed=0, n=8, batch=2):
    corpus = make_copy_corpus(n, payload_len=4, vocab_size=CFG.vocab_size, seed=seed)
    return BatchSampler(corpus, batch, seed=seed + 100)


def hidden_msgs(num_clients, seed=0, seq=6, batch=2, step_id=0):
    """Synthetic per-client trunk inputs with distinct payloads and pads."""
    rng = np.random.default_rng(seed)
    msgs = []
    for cid in range(num_clients):
        payload = rng.normal(size=(batch, seq, CFG.hidden_size))
        pads = tuple(int(p) for p in rng.integers(0, 3, size=batch))
        msgs.append(
            HiddenStateMsg(
                payload,
                MaskMeta(seq, pads, batch),
                tuple(range(seq)),
                step_id=step_id,
                client_id=cid,
            )
        )
    return msgs


def fresh_middle(seed=0):
    return build_partitioned(CFG, PART, seed=seed)[1]


# ---------------------------------------------------------------------------
# config and barrier


def test_strategy_config_validation():
    with pytest.raises(ConfigError):
        StrategyConfig(mode="fan_out")
    with pytest.raises(ConfigError):
        StrategyConfig(num_clients=0)
    with pytest.raises(ConfigError):
        StrategyConfig(sync_interval=0)
    with pytest.raises(ConfigError):
        StrategyConfig(barrier_timeout=0.0)
    with pytest.raises(ConfigError):
        StrategyConfig(num_clients=2, merge_weights=(1.0,))
    with pytest.raises(ConfigError):
        StrategyConfig(num_clients=2, merge_weights=(1.0, -1.0))
    cfg = StrategyConfig(mode="client_batch", num_clients=2, merge_weights=(1, 3))
    assert cfg.merge_weights == (1.0, 3.0)


def test_collect_barrier_times_out_naming_the_silent_client():
    server0, client0 = LoopbackChannel.pair()
    server1, _client1 = LoopbackChannel.pair()
    channels = {0: MessageChannel(server0), 1: MessageChannel(server1)}
    MessageChannel(client0).send(hidden_msgs(1)[0])
    with pytest.raises(BarrierTimeoutError, match="client 1"):
        collect_barrier(channels, timeout=0.1)


def test_collect_barrier_times_out_naming_the_silent_tcp_client():
    pairs = [channel_pair("tcp") for _ in range(2)]
    try:
        pairs[0][1].send(hidden_msgs(1)[0])
        with pytest.raises(BarrierTimeoutError, match="client 1 missed the barrier"):
            collect_barrier({cid: server for cid, (server, _) in enumerate(pairs)}, timeout=0.2)
    finally:
        for server, client in pairs:
            server.close()
            client.close()


def test_collect_barrier_is_arrival_order_independent():
    server0, client0 = LoopbackChannel.pair()
    server1, client1 = LoopbackChannel.pair()
    channels = {0: MessageChannel(server0), 1: MessageChannel(server1)}
    msgs = hidden_msgs(2)
    MessageChannel(client1).send(msgs[1])
    MessageChannel(client0).send(msgs[0])
    assert [m.client_id for m in collect_barrier(channels, timeout=1.0)] == [0, 1]


def test_collect_barrier_rejects_a_message_stamped_with_another_client():
    server0, client0 = LoopbackChannel.pair()
    server1, client1 = LoopbackChannel.pair()
    channels = {0: MessageChannel(server0), 1: MessageChannel(server1)}
    msgs = hidden_msgs(2)
    MessageChannel(client0).send(msgs[0])
    MessageChannel(client1).send(msgs[0])
    with pytest.raises(ProtocolError, match="channel for client 1 delivered a message from client 0"):
        collect_barrier(channels, timeout=1.0)


# ---------------------------------------------------------------------------
# client-batch forward


@pytest.mark.parametrize("num_clients", [2, 4, 8])
def test_batch_forward_slices_match_solo_forwards(num_clients):
    msgs = hidden_msgs(num_clients, seed=num_clients)
    server = ClientBatchServer(fresh_middle(), lr=0.1)
    replies = server.batch_forward(msgs)
    assert [r.client_id for r in replies] == list(range(num_clients))
    for msg, reply in zip(msgs, replies):
        solo = fresh_middle().forward(
            msg.payload, pad_lens=msg.mask_meta.pads, positions=msg.positions
        )
        assert rel_err(reply.payload, solo.data) < 1e-12
        assert reply.step_id == msg.step_id


def test_batch_forward_single_client_degenerates_to_sequential():
    msg = hidden_msgs(1)[0]
    batch_server = ClientBatchServer(fresh_middle(), lr=0.1)
    reply = batch_server.batch_forward([msg])[0]
    solo_server = TrainingServer(fresh_middle(), lr=0.1)
    solo_reply = solo_server.handle(msg)
    np.testing.assert_array_equal(reply.payload, solo_reply.payload)


def test_batch_forward_rejects_mixed_seq_lens():
    short, long = hidden_msgs(1, seq=5)[0], hidden_msgs(2, seq=7)[1]
    server = ClientBatchServer(fresh_middle(), lr=0.1)
    with pytest.raises(BatchIncompatibilityError):
        server.batch_forward([short, long])


@pytest.mark.parametrize("change,message", [
    (lambda m: dataclasses.replace(m, payload=m.payload[..., :8]), "hidden shape"),
    (lambda m: dataclasses.replace(m, positions=tuple(range(1, 6))), "rotary positions"),
], ids=["width", "positions"])
def test_batch_forward_rejects_a_client_that_differs_from_the_first(change, message):
    msgs = hidden_msgs(2, seq=5)
    server = ClientBatchServer(fresh_middle(), lr=0.1)
    with pytest.raises(BatchIncompatibilityError, match=message):
        server.batch_forward([msgs[0], change(msgs[1])])
    assert len(server.batch_forward(msgs)) == 2  # the rejection left no step in flight


@pytest.mark.parametrize("bad_id", [0, 1], ids=["bad_first", "bad_second"])
def test_batch_forward_rejects_a_payload_that_is_not_3d(bad_id):
    """A frame carries a 1-D hidden payload (the wire checks only its first
    dimension against the mask's batch); the group is refused with a typed
    error naming that client, whether it sorts first or second."""
    msgs = hidden_msgs(2, seq=5, batch=1)
    bad = decode_message(encode_message(dataclasses.replace(msgs[bad_id], payload=np.ones(1))))
    assert bad.payload.shape == (1,)
    group = [bad if m.client_id == bad_id else m for m in msgs]
    server = ClientBatchServer(fresh_middle(), lr=0.1)
    with pytest.raises(ShapeError, match=rf"client {bad_id} payload is not 3-D: \(1,\)"):
        server.batch_forward(group)
    assert len(server.batch_forward(msgs)) == 2  # nothing was left in flight


def test_batch_forward_rejects_duplicates_and_overlap():
    msgs = hidden_msgs(2)
    server = ClientBatchServer(fresh_middle(), lr=0.1)
    with pytest.raises(ProtocolError):
        server.batch_forward([msgs[0], msgs[0]])
    server.batch_forward(msgs)
    with pytest.raises(ProtocolError):
        server.batch_forward(msgs)


def test_batch_forward_rejects_an_empty_group():
    server = ClientBatchServer(fresh_middle(), lr=0.1)
    with pytest.raises(ProtocolError, match="batch forward needs at least one message"):
        server.batch_forward([])
    assert len(server.batch_forward(hidden_msgs(1))) == 1  # nothing was left in flight


def test_batch_results_ignore_arrival_order():
    msgs = hidden_msgs(3, seed=5)
    grads = [
        GradMsg(np.full_like(m.payload, 0.01 * (i + 1)), step_id=m.step_id, client_id=m.client_id)
        for i, m in enumerate(msgs)
    ]
    fwd, bwd = {}, {}
    for order in ([0, 1, 2], [2, 0, 1]):
        server = ClientBatchServer(fresh_middle(), lr=0.1)
        fwd[tuple(order)] = server.batch_forward([msgs[i] for i in order])
        bwd[tuple(order)] = server.batch_backward([grads[i] for i in order])
    for a, b in zip(fwd[(0, 1, 2)], fwd[(2, 0, 1)]):
        assert a.client_id == b.client_id
        np.testing.assert_array_equal(a.payload, b.payload)
    for a, b in zip(bwd[(0, 1, 2)], bwd[(2, 0, 1)]):
        assert a.client_id == b.client_id
        np.testing.assert_array_equal(a.payload, b.payload)


# ---------------------------------------------------------------------------
# client-batch backward


def solo_step_grads(msg, grad, seed=0):
    """Forward plus backward of one client's payload on a fresh trunk."""
    middle = fresh_middle(seed)
    middle.forward(msg.payload, pad_lens=msg.mask_meta.pads, positions=msg.positions)
    input_grad = middle.backward(grad)
    return input_grad, middle.collect_grads()


@pytest.mark.parametrize("num_clients", [2, 4, 8])
def test_batch_backward_grads_are_sum_of_solo_grads(num_clients):
    msgs = hidden_msgs(num_clients, seed=10 + num_clients)
    rng = np.random.default_rng(99)
    grads = [
        GradMsg(rng.normal(size=m.payload.shape), step_id=m.step_id, client_id=m.client_id)
        for m in msgs
    ]
    server = ClientBatchServer(fresh_middle(), lr=0.1)
    server.batch_forward(msgs)
    replies = server.batch_backward(grads)

    summed = {}
    for msg, grad, reply in zip(msgs, grads, replies):
        input_grad, solo = solo_step_grads(msg, grad.payload)
        assert rel_err(reply.payload, input_grad) < 1e-10
        for name, g in solo.items():
            summed[name] = summed.get(name, 0.0) + g
    assert set(summed) == set(server.last_grads)
    for name in summed:
        assert rel_err(server.last_grads[name], summed[name]) < 1e-10


def test_batch_backward_zero_grad_client_contributes_nothing():
    msgs = hidden_msgs(2, seed=3)
    rng = np.random.default_rng(4)
    live_grad = rng.normal(size=msgs[0].payload.shape)
    grads = [
        GradMsg(live_grad, step_id=0, client_id=0),
        GradMsg(np.zeros_like(msgs[1].payload), step_id=0, client_id=1),
    ]
    server = ClientBatchServer(fresh_middle(), lr=0.1)
    server.batch_forward(msgs)
    replies = server.batch_backward(grads)
    np.testing.assert_array_equal(replies[1].payload, np.zeros_like(msgs[1].payload))
    _, solo = solo_step_grads(msgs[0], live_grad)
    for name, g in solo.items():
        assert rel_err(server.last_grads[name], g) < 1e-10


def test_batch_backward_protocol_errors():
    msgs = hidden_msgs(2)
    server = ClientBatchServer(fresh_middle(), lr=0.1)
    grads = [
        GradMsg(np.zeros_like(m.payload), step_id=m.step_id, client_id=m.client_id)
        for m in msgs
    ]
    with pytest.raises(ProtocolError):
        server.batch_backward(grads)
    server.batch_forward(msgs)
    with pytest.raises(BarrierTimeoutError):
        server.batch_backward(grads[:1])
    server.batch_forward(msgs)
    with pytest.raises(ProtocolError, match="client 1 sent a gradient for step 9"):
        server.batch_backward(
            [grads[0], GradMsg(grads[1].payload, step_id=9, client_id=1)]
        )


@pytest.mark.parametrize("bad", ["step_id", "rows", "seq", "width", "group"])
def test_a_rejected_gradient_group_leaves_the_trunk_ready(bad):
    """A rejected group ends the steps in flight: no SGD step, no tape left
    behind, and client 1's next solo forward and backward go through."""
    msgs = hidden_msgs(2, seed=8)
    server = ClientBatchServer(fresh_middle(), lr=0.1)
    before = server.middle.state_dict()
    server.batch_forward(msgs)
    grads = [
        GradMsg(np.ones_like(m.payload), step_id=m.step_id, client_id=m.client_id)
        for m in msgs
    ]
    wrong = {
        "step_id": GradMsg(grads[0].payload, step_id=9, client_id=0),
        "rows": GradMsg(grads[0].payload[:1], step_id=0, client_id=0),
        "seq": GradMsg(grads[0].payload[:, :-1], step_id=0, client_id=0),
        "width": GradMsg(grads[0].payload[..., :-1], step_id=0, client_id=0),
    }
    group = grads[1:] if bad == "group" else [wrong[bad], grads[1]]
    with pytest.raises(ProtocolError, match=None if bad == "group" else "client 0"):
        server.batch_backward(group)
    for name, value in server.middle.state_dict().items():
        np.testing.assert_array_equal(value, before[name])
    assert server.handle(msgs[1]).client_id == 1
    reply = server.handle(grads[1])
    assert reply.client_id == 1 and reply.payload.shape == msgs[1].payload.shape
    assert server.last_grad_norm > 0




# ---------------------------------------------------------------------------
# batch alignment


def test_align_batches_left_pads_to_longest():
    a = Batch(np.array([[5, 6]]), np.array([[6, 3]]), (0,))
    b = Batch(np.array([[1, 7, 8, 2]]), np.array([[-1, -1, 8, 3]]), (0,))
    aligned = align_batches([a, b])
    assert aligned[1] is b
    np.testing.assert_array_equal(aligned[0].tokens, [[0, 0, 5, 6]])
    np.testing.assert_array_equal(aligned[0].targets, [[-1, -1, 6, 3]])
    assert aligned[0].pad_lens == (2,)
    assert align_batches([]) == []


# ---------------------------------------------------------------------------
# end-to-end client-batch training


def test_client_batch_trainer_end_to_end():
    clients, middle, server_channels = build_shared_trunk_session(
        CFG, PART, num_clients=3, lr=0.1, seed=1
    )
    server = ClientBatchServer(middle, lr=0.1)
    samplers = {c.client_id: sampler_for(seed=c.client_id) for c in clients}
    with ClientBatchTrainer(clients, server, server_channels) as trainer:
        records = trainer.run(lambda cid, r: samplers[cid].batch_for(r), rounds=4)
    assert len(records) == 12
    assert all(np.isfinite(r.loss) for r in records)
    assert all(r.extra["strategy"] == "client_batch" for r in records)
    by_round = [r for r in records if r.step == 2]
    assert sorted(rec.client_id for rec in by_round) == [0, 1, 2]
    assert all(rec.comm["round_trips"] == 2 for rec in records)


def test_client_batch_single_client_matches_sequential_trace():
    def losses_for(trainer_kind):
        clients, middle, channels = build_shared_trunk_session(
            CFG, PART, num_clients=1, lr=0.1, seed=7
        )
        sampler = sampler_for(seed=7)
        source = lambda cid, r: sampler.batch_for(r)
        if trainer_kind == "batch":
            with ClientBatchTrainer(clients, ClientBatchServer(middle, 0.1), channels) as tr:
                return [rec.loss for rec in tr.run(source, rounds=5)]
        with SequentialTrainer(clients, TrainingServer(middle, 0.1), channels) as tr:
            return [rec.loss for rec in tr.run(source, rounds=5)]

    assert losses_for("batch") == losses_for("sequential")


def test_client_batch_barrier_timeout_when_a_client_stalls():
    clients, middle, server_channels = build_shared_trunk_session(
        CFG, PART, num_clients=2, lr=0.1, seed=2
    )
    server = ClientBatchServer(middle, lr=0.1)
    trainer = ClientBatchTrainer(clients, server, server_channels, barrier_timeout=0.2)
    sampler = sampler_for()

    stalled = clients[1]
    stalled.front.forward = lambda *args, **kwargs: (_ for _ in ()).throw(RuntimeError("down"))
    try:
        with pytest.raises((BarrierTimeoutError, RuntimeError)):
            trainer.run_round([sampler.batch_for(0), sampler.batch_for(0)], 0)
    finally:
        trainer.shutdown()


@pytest.mark.parametrize("kind", ["loopback", "tcp"])
def test_client_batch_raises_a_client_error_without_waiting_for_the_barrier(kind):
    clients, middle, server_channels = build_shared_trunk_session(
        CFG, PART, num_clients=2, lr=0.1, seed=2, transport=kind
    )
    trainer = ClientBatchTrainer(
        clients, ClientBatchServer(middle, lr=0.1), server_channels, barrier_timeout=30.0
    )
    good = sampler_for().batch_for(0)
    bad = Batch(good.tokens.copy(), good.targets, good.pad_lens)
    bad.tokens[0, -1] = 99  # outside the 32-token vocabulary
    start = time.monotonic()
    try:
        with pytest.raises(ShapeError):
            trainer.run_round([good, bad], 0)
        assert time.monotonic() - start < 5.0
    finally:
        trainer.shutdown()


@pytest.mark.parametrize("kind", ["loopback", "tcp"])
@pytest.mark.parametrize("hop", ["forward", "backward"])
def test_client_batch_names_a_client_stalled_in_its_step(kind, hop):
    """A client stuck in its front forward (before the first barrier) or its
    front backward (after the last reply) is a barrier timeout naming it,
    within the timeout: nothing waits on the stalled thread."""
    clients, middle, server_channels = build_shared_trunk_session(
        CFG, PART, num_clients=2, lr=0.1, seed=2, transport=kind
    )
    timeout = 0.5
    trainer = ClientBatchTrainer(
        clients, ClientBatchServer(middle, lr=0.1), server_channels, barrier_timeout=timeout
    )
    batch = sampler_for().batch_for(0)
    release = threading.Event()
    segment = clients[1].front
    run = getattr(segment, hop)

    def stalled(*args, **kwargs):
        release.wait(30.0)
        return run(*args, **kwargs)

    setattr(segment, hop, stalled)
    start = time.monotonic()
    try:
        with pytest.raises(BarrierTimeoutError, match="client 1 "):
            trainer.run_round([batch, batch], 0)
        assert time.monotonic() - start < timeout + 1.0
    finally:
        release.set()
        trainer.shutdown()


@pytest.mark.parametrize("kind", ["loopback", "tcp"])
def test_client_batch_reraises_a_client_that_fails_after_the_last_reply(kind):
    """Client 1's front backward raises once both replies are out: the round
    raises that same error within the barrier timeout, and shutdown leaves
    no thread running."""
    before = set(threading.enumerate())
    clients, middle, server_channels = build_shared_trunk_session(
        CFG, PART, num_clients=2, lr=0.1, seed=2, transport=kind
    )
    timeout = 5.0
    trainer = ClientBatchTrainer(
        clients, ClientBatchServer(middle, lr=0.1), server_channels, barrier_timeout=timeout
    )
    batch = sampler_for().batch_for(0)
    failure = RuntimeError("client 1 lost its front gradient")

    def broken_backward(*args, **kwargs):
        raise failure

    clients[1].front.backward = broken_backward
    start = time.monotonic()
    try:
        with pytest.raises(RuntimeError, match="client 1 ") as raised:
            trainer.run_round([batch, batch], 0)
        assert raised.value is failure
        assert time.monotonic() - start < timeout
    finally:
        trainer.shutdown()
    assert set(threading.enumerate()) - before == set()


@pytest.mark.parametrize("trainer_kind", ["sequential", "client_batch"])
def test_run_round_rejects_a_wrong_batch_count(trainer_kind):
    clients, middle, server_channels = build_shared_trunk_session(
        CFG, PART, num_clients=2, lr=0.1, seed=2
    )
    kind = SequentialTrainer if trainer_kind == "sequential" else ClientBatchTrainer
    batch = sampler_for().batch_for(0)
    with kind(clients, TrainingServer(middle, lr=0.1), server_channels) as trainer:
        with pytest.raises(ProtocolError, match="expected 2 batches, got 1"):
            trainer.run_round([batch], 0)
        assert len(trainer.run_round([batch, batch], 0)) == 2


def close_session(clients, server_channels):
    for ch in server_channels:
        ch.close()
    for c in clients:
        c.channel.close()


@pytest.mark.parametrize(
    "wiring, message",
    [
        ("channel_short", "one server channel per client is required"),
        ("duplicate_ids", r"duplicate client ids: \[0, 0\]"),
    ],
)
def test_trainer_rejects_a_miswired_client_set(wiring, message):
    clients, middle, server_channels = build_shared_trunk_session(
        CFG, PART, num_clients=2, lr=0.1, seed=2
    )
    channels = server_channels[:1] if wiring == "channel_short" else server_channels
    if wiring == "duplicate_ids":
        clients[1].client_id = 0
    with pytest.raises(ProtocolError, match=message):
        SequentialTrainer(clients, TrainingServer(middle, lr=0.1), channels)
    close_session(clients, server_channels)


def test_no_wire_frame_carries_raw_tokens():
    clients, middle, server_channels = build_shared_trunk_session(
        CFG, PART, num_clients=2, lr=0.1, seed=3
    )
    for ch in server_channels:
        ch.sent_log, ch.recv_log = [], []
    server = ClientBatchServer(middle, lr=0.1)
    sampler = sampler_for(seed=3)
    batches = {}

    def source(cid, r):
        batch = sampler.batch_for(10 * cid + r)
        batches[(cid, r)] = batch
        return batch

    with ClientBatchTrainer(clients, server, server_channels) as trainer:
        trainer.run(source, rounds=3)

    frames = []
    for ch in server_channels:
        frames.extend(ch.recv_log)
        frames.extend(ch.sent_log)
    assert frames
    token_blobs = [
        b"".join(struct.pack("<Q", int(t)) for t in row)
        for batch in batches.values()
        for row in batch.tokens
    ]
    for frame in frames:
        wire_class, _ = parse_header(frame[:14])
        assert wire_class in (1, 2, 3)
        for blob in token_blobs:
            assert blob not in frame


# ---------------------------------------------------------------------------
# hierarchical training


def hierarchical_session(num_clients, seed=0, lr=0.1, **kwargs):
    return build_hierarchical_session(CFG, PART, num_clients=num_clients, lr=lr, seed=seed, **kwargs)


def test_hierarchical_single_pipeline_matches_sequential():
    central, clients, subs, channels = hierarchical_session(1, seed=11)
    sampler = sampler_for(seed=11)
    cfg = StrategyConfig(mode="server_hierarchical", num_clients=1, sync_interval=3)
    with HierarchicalTrainer(central, clients, subs, channels, cfg) as trainer:
        records = trainer.run(lambda cid, s: sampler.batch_for(s), 6)

    seq_clients, middle, seq_channels = build_shared_trunk_session(
        CFG, PART, num_clients=1, lr=0.1, seed=11
    )
    seq_sampler = sampler_for(seed=11)
    with SequentialTrainer(seq_clients, TrainingServer(middle, 0.1), seq_channels) as tr:
        seq_records = tr.run(lambda cid, s: seq_sampler.batch_for(s), rounds=6)
    assert [r.loss for r in records] == [r.loss for r in seq_records]


def test_hierarchical_identical_branches_merge_to_either():
    central, clients, subs, channels = hierarchical_session(2, seed=4)
    sampler = sampler_for(seed=4)
    cfg = StrategyConfig(mode="server_hierarchical", num_clients=2, sync_interval=4)
    with HierarchicalTrainer(central, clients, subs, channels, cfg) as trainer:
        trainer.run_phase(lambda cid, s: sampler.batch_for(s), 0, 4)
        branch = {n: p.data.copy() for n, p in subs[0].middle.lora_parameters().items()}
        other = {n: p.data.copy() for n, p in subs[1].middle.lora_parameters().items()}
        for name in branch:
            np.testing.assert_array_equal(branch[name], other[name])
        trainer.merge(at_step=4)
        for name, p in central.lora_parameters().items():
            np.testing.assert_array_equal(p.data, branch[name])


def test_hierarchical_disjoint_shards_merge_to_snapshot_mean():
    corpus = make_copy_corpus(8, payload_len=4, vocab_size=CFG.vocab_size, seed=9)
    shards = shard_corpus(corpus, 2)
    samplers = [BatchSampler(s, 2, seed=50 + i) for i, s in enumerate(shards)]

    central, clients, subs, channels = hierarchical_session(2, seed=9)
    cfg = StrategyConfig(mode="server_hierarchical", num_clients=2, sync_interval=4)
    with HierarchicalTrainer(central, clients, subs, channels, cfg) as trainer:
        trainer.run_phase(lambda cid, s: samplers[cid].batch_for(s), 0, 4)
        snaps = [
            {n: p.data.copy() for n, p in sub.middle.lora_parameters().items()}
            for sub in subs
        ]
        assert any(
            not np.array_equal(snaps[0][n], snaps[1][n]) for n in snaps[0]
        )
        trainer.merge(at_step=4)
        for name, p in central.lora_parameters().items():
            np.testing.assert_array_equal(p.data, 0.5 * snaps[0][name] + 0.5 * snaps[1][name])
        for sub in subs:
            for name, p in sub.middle.lora_parameters().items():
                np.testing.assert_array_equal(p.data, central.lora_parameters()[name].data)


def test_hierarchical_between_syncs_is_pure_per_shard():
    corpus = make_copy_corpus(8, payload_len=4, vocab_size=CFG.vocab_size, seed=21)
    shards = shard_corpus(corpus, 2)
    samplers = [BatchSampler(s, 2, seed=70 + i) for i, s in enumerate(shards)]

    central, clients, subs, channels = hierarchical_session(2, seed=21)
    cfg = StrategyConfig(mode="server_hierarchical", num_clients=2, sync_interval=5)
    with HierarchicalTrainer(central, clients, subs, channels, cfg) as trainer:
        trainer.run_phase(lambda cid, s: samplers[cid].batch_for(s), 0, 5)
        concurrent = [sub.middle.state_dict() for sub in subs]

    for cid in range(2):
        solo_clients, middle, solo_channels = build_shared_trunk_session(
            CFG, PART, num_clients=1, lr=0.1, seed=21
        )
        sampler = BatchSampler(shards[cid], 2, seed=70 + cid)
        with SequentialTrainer(solo_clients, TrainingServer(middle, 0.1), solo_channels) as tr:
            tr.run(lambda _cid, s: sampler.batch_for(s), rounds=5)
        solo_state = middle.state_dict()
        assert set(solo_state) == set(concurrent[cid])
        for name in solo_state:
            np.testing.assert_array_equal(concurrent[cid][name], solo_state[name])


def test_hierarchical_weighted_merge_hand_check():
    central, clients, subs, channels = hierarchical_session(2, seed=13)
    samplers = {cid: sampler_for(seed=30 + cid) for cid in range(2)}
    cfg = StrategyConfig(
        mode="server_hierarchical", num_clients=2, sync_interval=2, merge_weights=(3.0, 1.0)
    )
    with HierarchicalTrainer(central, clients, subs, channels, cfg) as trainer:
        trainer.run_phase(lambda cid, s: samplers[cid].batch_for(s), 0, 2)
        snaps = [
            {n: p.data.copy() for n, p in sub.middle.lora_parameters().items()}
            for sub in subs
        ]
        record = trainer.merge(at_step=2)
        assert record.weights == (0.75, 0.25)
        for name, p in central.lora_parameters().items():
            np.testing.assert_allclose(
                p.data, 0.75 * snaps[0][name] + 0.25 * snaps[1][name], rtol=0, atol=1e-15
            )


def test_hierarchical_merge_clients_averages_client_adapters():
    central, clients, subs, channels = hierarchical_session(2, seed=17)
    samplers = {cid: sampler_for(seed=40 + cid) for cid in range(2)}
    cfg = StrategyConfig(
        mode="server_hierarchical", num_clients=2, sync_interval=2, merge_clients=True
    )
    with HierarchicalTrainer(central, clients, subs, channels, cfg) as trainer:
        trainer.run_phase(lambda cid, s: samplers[cid].batch_for(s), 0, 2)
        snaps = [
            {n: p.data.copy() for n, p in c.front.lora_parameters().items()}
            for c in clients
        ]
        trainer.merge(at_step=2)
        for c in clients:
            for name, p in c.front.lora_parameters().items():
                np.testing.assert_allclose(
                    p.data, 0.5 * snaps[0][name] + 0.5 * snaps[1][name], rtol=0, atol=1e-15
                )
        front_a = clients[0].front.lora_parameters()
        front_b = clients[1].front.lora_parameters()
        for name in front_a:
            np.testing.assert_array_equal(front_a[name].data, front_b[name].data)


@pytest.mark.parametrize("merge_clients", [False, True])
def test_hierarchical_merge_writes_adapters_only(merge_clients):
    """Every frozen base Tensor keeps its array object through a merge, and
    every merged adapter is bitwise ``fedavg_merge``'s."""
    central, clients, subs, channels = hierarchical_session(2, seed=23)
    samplers = {cid: sampler_for(seed=80 + cid) for cid in range(2)}
    cfg = StrategyConfig(
        mode="server_hierarchical", num_clients=2, sync_interval=2,
        merge_weights=(1.0, 3.0), merge_clients=merge_clients,
    )
    with HierarchicalTrainer(central, clients, subs, channels, cfg) as trainer:
        trainer.run_phase(lambda cid, s: samplers[cid].batch_for(s), 0, 2)
        sides = {
            "middle": [central] + [s.middle for s in subs],
            "front": [c.front for c in clients],
            "back": [c.back for c in clients],
        }
        expected = {
            side: fedavg_merge(segments[-2:], (1.0, 3.0)).lora_parameters()
            for side, segments in sides.items()
        }
        before = {
            id(seg): {n: p.data for n, p in seg.named_parameters().items()}
            for segments in sides.values() for seg in segments
        }
        trainer.merge(at_step=2)
    for side, segments in sides.items():
        merged = side == "middle" or merge_clients
        for seg in segments:
            for name, p in seg.named_parameters().items():
                if not name.endswith(LORA_SUFFIXES):
                    assert p.data is before[id(seg)][name], name
                elif merged:
                    np.testing.assert_array_equal(p.data, expected[side][name].data)
                else:
                    assert p.data is before[id(seg)][name], name


def test_hierarchical_failed_pipeline_is_excluded_and_reported():
    central, clients, subs, channels = hierarchical_session(2, seed=19)
    samplers = {cid: sampler_for(seed=60 + cid) for cid in range(2)}

    def source(cid, step):
        if cid == 1 and step >= 2:
            raise RuntimeError("client 1 lost its shard")
        return samplers[cid].batch_for(step)

    cfg = StrategyConfig(mode="server_hierarchical", num_clients=2, sync_interval=2)
    with HierarchicalTrainer(central, clients, subs, channels, cfg) as trainer:
        records = trainer.run(source, 4)
        log = trainer.merge_log
    assert log[0].merged_clients == (0, 1) and log[0].excluded_clients == ()
    assert log[1].merged_clients == (0,) and log[1].excluded_clients == (1,)
    assert log[1].weights == (1.0,)
    assert 1 in trainer.failed and "lost its shard" in trainer.failed[1]
    assert sorted({r.client_id for r in records if r.step >= 2}) == [0]


def test_hierarchical_stalled_pipeline_times_out_and_is_excluded():
    central, clients, subs, channels = hierarchical_session(2, seed=21)
    samplers = {cid: sampler_for(seed=70 + cid) for cid in range(2)}
    release, returned = threading.Event(), threading.Event()
    late = {}

    def source(cid, step):
        if cid == 1 and step == 1:
            release.wait(30.0)
        return samplers[cid].batch_for(step)

    stalled_step = clients[1].train_step

    def train_step(batch, step):
        rec = stalled_step(batch, step=step)
        if step == 1:
            late["thread"] = threading.current_thread()
            returned.set()
        return rec

    clients[1].train_step = train_step
    cfg = StrategyConfig(
        mode="server_hierarchical", num_clients=2, sync_interval=3, barrier_timeout=0.5
    )
    result = {}
    with HierarchicalTrainer(central, clients, subs, channels, cfg) as trainer:
        phase = threading.Thread(
            target=lambda: result.update(records=trainer.run_phase(source, 0, 3)), daemon=True
        )
        try:
            phase.start()
            phase.join(15.0)
            assert not phase.is_alive(), "run_phase did not return for a stalled pipeline"
            failure = trainer.failed[1]
            assert failure.startswith("BarrierTimeoutError")
            merge = trainer.merge(3)
            merged = {n: p.data.copy() for n, p in central.lora_parameters().items()}
            stalled_trunk = {n: p.data.copy() for n, p in subs[1].middle.lora_parameters().items()}
            # the stalled step now completes; its late record and state are ignored
            release.set()
            assert returned.wait(10.0)
            late["thread"].join(10.0)
            assert not late["thread"].is_alive()
            assert any(
                not np.array_equal(p.data, stalled_trunk[n])
                for n, p in subs[1].middle.lora_parameters().items()
            ), "the stalled step never trained its own trunk"
            assert trainer.failed == {1: failure}
            assert trainer.merge(3) == merge
            for name, p in central.lora_parameters().items():
                np.testing.assert_array_equal(p.data, merged[name])
        finally:
            release.set()
    records = result["records"]
    assert [(r.client_id, r.step) for r in records] == [(0, 0), (1, 0), (0, 1), (0, 2)]
    assert merge.merged_clients == (0,) and merge.excluded_clients == (1,)


def test_hierarchical_phase_keeps_every_record_under_thread_contention():
    central, clients, subs, channels = hierarchical_session(4, seed=27)
    samplers = {cid: sampler_for(seed=90 + cid) for cid in range(4)}
    cfg = StrategyConfig(mode="server_hierarchical", num_clients=4, barrier_timeout=20.0)
    result = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with HierarchicalTrainer(central, clients, subs, channels, cfg) as trainer:
            phase = threading.Thread(
                target=lambda: result.update(
                    records=trainer.run_phase(lambda c, s: samplers[c].batch_for(s), 0, 3)
                ),
                daemon=True,
            )
            phase.start()
            phase.join(60.0)
            assert not phase.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert trainer.failed == {}
    assert [(r.step, r.client_id) for r in result["records"]] == [
        (step, cid) for step in range(3) for cid in range(4)
    ]


def test_hierarchical_rejects_sub_server_not_at_central_params():
    central, clients, subs, channels = hierarchical_session(2, seed=23)
    param = next(iter(subs[1].middle.lora_parameters().values()))
    param.data = param.data + 0.5
    cfg = StrategyConfig(mode="server_hierarchical", num_clients=2)
    with pytest.raises(ProtocolError):
        HierarchicalTrainer(central, clients, subs, channels, cfg)
    for ch in channels:
        ch.close()
    for c in clients:
        c.channel.close()


@pytest.mark.parametrize(
    "num_clients, sub_servers, error, message",
    [
        (3, 2, ConfigError, "strategy expects 3 clients, got 2"),
        (2, 1, ProtocolError, "one sub-server per client is required"),
    ],
)
def test_hierarchical_rejects_a_client_or_sub_server_count(
    num_clients, sub_servers, error, message
):
    central, clients, subs, channels = hierarchical_session(2, seed=23)
    cfg = StrategyConfig(mode="server_hierarchical", num_clients=num_clients)
    with pytest.raises(error, match=message):
        HierarchicalTrainer(central, clients, subs[:sub_servers], channels, cfg)
    close_session(clients, channels)


def test_hierarchical_run_raises_once_every_pipeline_has_failed():
    central, clients, subs, channels = hierarchical_session(2, seed=31)

    def source(cid, step):
        raise RuntimeError(f"client {cid} lost its shard")

    cfg = StrategyConfig(mode="server_hierarchical", num_clients=2, sync_interval=2)
    with HierarchicalTrainer(central, clients, subs, channels, cfg) as trainer:
        with pytest.raises(ProtocolError, match="every pipeline has failed"):
            trainer.run(source, 4)
    assert sorted(trainer.failed) == [0, 1]
    assert trainer.merge_log == []


def test_hierarchical_run_returns_records_and_merges():
    central, clients, subs, channels = hierarchical_session(2, seed=29)
    samplers = {cid: sampler_for(seed=80 + cid) for cid in range(2)}
    cfg = StrategyConfig(mode="server_hierarchical", num_clients=2, sync_interval=3)
    with HierarchicalTrainer(central, clients, subs, channels, cfg) as trainer:
        records = trainer.run(lambda cid, s: samplers[cid].batch_for(s), 6)
    merges = trainer.merge_log
    assert len(records) == 12
    assert [m.step for m in merges] == [3, 6]
    assert all(r.extra["strategy"] == "server_hierarchical" for r in records)
