"""The four-hop relay, noise injection, and split-vs-monolithic equivalence."""

import dataclasses
import threading

import numpy as np
import pytest

from fedsplit.corpus import BatchSampler, make_copy_corpus
from fedsplit.errors import ContextOverflowError, DegenerateBatchError, ProtocolError, ShapeError
from fedsplit.model import (
    LoraConfig,
    ModelConfig,
    PartitionSpec,
    build_monolithic,
    build_partitioned,
)
from fedsplit.training import (
    IGNORE_INDEX,
    Batch,
    NoiseConfig,
    SequentialTrainer,
    TrainingServer,
    connect_pair,
    inject_noise,
    noise_gradient_propagation_check,
    sequence_loss,
    train_monolithic,
)
from fedsplit.wire import CacheStepMsg, GradMsg, HiddenStateMsg, MaskMeta

CFG = ModelConfig(vocab_size=32, hidden_size=16, num_heads=2, num_blocks=4, mlp_hidden=24)
PART = PartitionSpec(1, 2, 1)


def make_session(seed=0, lr=0.1, noise=None, transport="loopback"):
    front, middle, back = build_partitioned(CFG, PART, seed=seed)
    client, server, server_channel = connect_pair(
        front, middle, back, client_id=0, lr=lr, noise=noise, transport=transport
    )
    return SequentialTrainer([client], server, [server_channel])


def sampler_for(seed=0, n=8, batch=4):
    corpus = make_copy_corpus(n, payload_len=4, vocab_size=CFG.vocab_size, seed=seed)
    return BatchSampler(corpus, batch, seed=seed + 100)


# ---------------------------------------------------------------------------
# noise


def test_noise_zero_scale_is_bitwise_identity():
    rng = np.random.default_rng(0)
    h = np.ones((2, 3))
    assert inject_noise(h, 0.0, rng) is h
    # a zero-scale call draws nothing, so the stream is where it started
    np.testing.assert_array_equal(rng.normal(size=4), np.random.default_rng(0).normal(size=4))


def test_noise_statistics_match_config():
    sample = inject_noise(np.zeros((200, 500)), 0.05, np.random.default_rng(7))
    assert abs(sample.mean()) < 5 * 0.05 / np.sqrt(sample.size)
    assert abs(sample.std() - 0.05) < 1e-3


def test_noise_fresh_per_call_but_seed_deterministic():
    a, b = np.random.default_rng(3), np.random.default_rng(3)
    h = np.zeros(4)
    d1, d2 = inject_noise(h, 0.1, a), inject_noise(h, 0.1, a)
    assert not np.array_equal(d1, d2)
    np.testing.assert_array_equal(inject_noise(h, 0.1, b), d1)
    np.testing.assert_array_equal(inject_noise(h, 0.1, b), d2)


def test_noise_config_validation():
    with pytest.raises(ShapeError):
        NoiseConfig(scale=-0.1)
    for target in ("sideways", "none"):
        with pytest.raises(ShapeError):
            NoiseConfig(scale=0.1, target=target)


# ---------------------------------------------------------------------------
# one relay step


def test_relay_step_produces_finite_loss_and_grads():
    sampler = sampler_for()
    with make_session(seed=1) as trainer:
        rec = trainer.run(lambda cid, r: sampler.batch_for(r), rounds=1)[0]
    assert np.isfinite(rec.loss)
    assert rec.loss > 0
    assert set(rec.grad_norms) == {"front", "back", "middle"}
    assert all(v > 0 for v in rec.grad_norms.values())


def test_relay_step_comm_accounting():
    sampler = sampler_for()
    with make_session(seed=2) as trainer:
        rec = trainer.run(lambda cid, r: sampler.batch_for(r), rounds=1)[0]
    comm = rec.comm
    assert comm["classes"]["hidden_state"]["sent_count"] == 1
    assert comm["classes"]["hidden_state"]["recv_count"] == 1
    assert comm["classes"]["grad"]["sent_count"] == 1
    assert comm["classes"]["grad"]["recv_count"] == 1
    assert comm["round_trips"] == 2
    assert comm["totals"]["sent_bytes"] > 0


def test_base_weights_frozen_through_training():
    front, middle, back = build_partitioned(CFG, PART, seed=3)
    baseline = {
        seg.role: {
            n: a for n, a in seg.state_dict().items() if not n.endswith(("lora_a", "lora_b"))
        }
        for seg in (front, middle, back)
    }
    client, server, server_channel = connect_pair(front, middle, back, 0, lr=0.5)
    sampler = sampler_for(3)
    with SequentialTrainer([client], server, [server_channel]) as trainer:
        trainer.run(lambda cid, r: sampler.batch_for(r), rounds=3)
    for seg in (front, middle, back):
        for name, arr in baseline[seg.role].items():
            np.testing.assert_array_equal(seg.named_parameters()[name].data, arr)
    # adapters did move
    assert any(
        not np.array_equal(front.named_parameters()[n].data, 0.0 * front.named_parameters()[n].data)
        for n in front.lora_parameters()
        if n.endswith("lora_b")
    )


def test_training_reduces_loss_on_memorizable_corpus():
    sampler = sampler_for(seed=4, n=4, batch=4)
    with make_session(seed=4, lr=0.2) as trainer:
        records = trainer.run(lambda cid, r: sampler.batch_for(r), rounds=40)
    losses = [r.loss for r in records]
    assert losses[-1] < 0.7 * losses[0]


# ---------------------------------------------------------------------------
# split == monolithic


def test_split_training_matches_monolithic_bit_for_bit():
    sampler = sampler_for(seed=5)
    steps = 10

    mono = build_monolithic(CFG, LoraConfig(), seed=6)
    mono_losses = train_monolithic(mono, sampler.batch_for, steps=steps, lr=0.1)

    front, middle, back = build_partitioned(CFG, PART, LoraConfig(), seed=6)
    client, server, server_channel = connect_pair(
        front, middle, back, 0, lr=0.1, noise=NoiseConfig(scale=0.0)
    )
    with SequentialTrainer([client], server, [server_channel]) as trainer:
        records = trainer.run(lambda cid, r: sampler.batch_for(r), rounds=steps)
    split_losses = [r.loss for r in records]

    assert split_losses == mono_losses  # bitwise float equality

    mono_state = mono.state_dict()
    for seg in (front, middle, back):
        for name, arr in seg.state_dict().items():
            np.testing.assert_array_equal(arr, mono_state[name])


def test_forward_noise_changes_payload_but_training_proceeds():
    sampler = sampler_for(seed=7)
    noise = NoiseConfig(scale=0.05, target="forward_hidden", seed=11)
    with make_session(seed=7, noise=noise) as noisy:
        noisy_losses = [r.loss for r in noisy.run(lambda c, r: sampler.batch_for(r), rounds=5)]
    with make_session(seed=7) as clean:
        clean_losses = [r.loss for r in clean.run(lambda c, r: sampler.batch_for(r), rounds=5)]
    assert all(np.isfinite(noisy_losses))
    assert noisy_losses != clean_losses


def test_backward_grad_noise_target_runs():
    sampler = sampler_for(seed=8)
    noise = NoiseConfig(scale=0.02, target="backward_grad", seed=13)
    with make_session(seed=8, noise=noise) as trainer:
        records = trainer.run(lambda c, r: sampler.batch_for(r), rounds=3)
    assert all(np.isfinite(r.loss) for r in records)


def test_tcp_shutdown_raises_nothing_in_server_threads(monkeypatch):
    captured = []
    monkeypatch.setattr(threading, "excepthook", captured.append)
    sampler = sampler_for(seed=4)
    for _ in range(3):
        trainer = make_session(seed=4, transport="tcp")
        trainer.run(lambda c, r: sampler.batch_for(r), rounds=1)
        for ch in trainer.server_channels:
            ch.close()
        trainer.shutdown()
        assert not any(t.is_alive() for t in trainer._threads)
    assert [(a.exc_type, a.exc_value) for a in captured] == []


def test_tcp_transport_trains_identically():
    sampler = sampler_for(seed=9)
    with make_session(seed=10, transport="loopback") as loop:
        loop_losses = [r.loss for r in loop.run(lambda c, r: sampler.batch_for(r), rounds=4)]
    with make_session(seed=10, transport="tcp") as tcp:
        tcp_losses = [r.loss for r in tcp.run(lambda c, r: sampler.batch_for(r), rounds=4)]
    assert loop_losses == tcp_losses


# ---------------------------------------------------------------------------
# protocol enforcement


def _raw_server(seed=0):
    _, middle, _ = build_partitioned(CFG, PART, seed=seed)
    return TrainingServer(middle, lr=0.1)


def _hidden(step_id=0, client_id=0, batch=1, seq=4):
    rng = np.random.default_rng(0)
    return HiddenStateMsg(
        rng.standard_normal((batch, seq, CFG.hidden_size)),
        MaskMeta(seq, 0, batch),
        tuple(range(seq)),
        step_id=step_id,
        client_id=client_id,
    )


def test_server_rejects_positions_that_skip_ahead():
    msg = dataclasses.replace(_hidden(), positions=(0, 1, 2, 10**6))
    with pytest.raises(ProtocolError, match="positions must run from 0 to 3"):
        _raw_server().handle(msg)


def test_server_rejects_a_request_longer_than_the_context():
    with pytest.raises(ContextOverflowError):
        _raw_server().handle(_hidden(seq=CFG.max_context + 1))


def test_server_rejects_grad_without_forward():
    server = _raw_server()
    with pytest.raises(ProtocolError):
        server.handle(GradMsg(np.zeros((1, 4, CFG.hidden_size)), step_id=0, client_id=0))


def test_server_rejects_mismatched_grad_step():
    server = _raw_server()
    server.handle(_hidden(step_id=5))
    with pytest.raises(ProtocolError):
        server.handle(GradMsg(np.zeros((1, 4, CFG.hidden_size)), step_id=6, client_id=0))


def test_server_rejects_overlapping_forwards():
    server = _raw_server()
    server.handle(_hidden(step_id=0))
    with pytest.raises(ProtocolError):
        server.handle(_hidden(step_id=1))


@pytest.mark.parametrize("transport", ["loopback", "tcp"])
@pytest.mark.parametrize(
    "kind, field",
    [
        (HiddenStateMsg, "positions"),
        (HiddenStateMsg, "mask_meta"),
        (HiddenStateMsg, "step_id"),
        (HiddenStateMsg, "client_id"),
        (GradMsg, "step_id"),
        (GradMsg, "client_id"),
    ],
)
def test_a_training_reply_that_does_not_echo_its_request_is_rejected(transport, kind, field):
    def changed(reply):
        value = getattr(reply, field)
        if field == "positions":
            return tuple(p + 1 for p in value)
        if field == "mask_meta":
            return MaskMeta(value.seq_len + 1, value.pad_len, value.batch)
        return value + 1

    front, middle, back = build_partitioned(CFG, PART, seed=2)
    client, server, server_channel = connect_pair(
        front, middle, back, client_id=0, lr=0.1, transport=transport
    )
    handle = server.handle

    def restamp(msg):
        reply = handle(msg)
        if isinstance(reply, kind):
            reply = dataclasses.replace(reply, **{field: changed(reply)})
        return reply

    server.handle = restamp
    sampler = sampler_for(seed=2)
    with SequentialTrainer([client], server, [server_channel]) as trainer:
        with pytest.raises(ProtocolError):
            trainer.run(lambda c, r: sampler.batch_for(r), rounds=1)


def test_training_server_rejects_cache_messages():
    server = _raw_server()
    with pytest.raises(ProtocolError):
        server.handle(
            CacheStepMsg(np.zeros((1, 1, CFG.hidden_size)), position=0, session_id=1, step_id=0)
        )


def test_degenerate_batch_raises():
    batch = Batch(
        tokens=np.array([[1, 2, 3]]),
        targets=np.full((1, 3), IGNORE_INDEX),
        pad_lens=(0,),
    )
    with make_session(seed=11) as trainer:
        with pytest.raises(DegenerateBatchError):
            trainer.clients[0].train_step(batch, step=0)


def test_sequence_loss_validates_shapes():
    from fedsplit.tensor import Tensor

    with pytest.raises(ShapeError):
        sequence_loss(Tensor(np.zeros((2, 4))), np.zeros((2, 4), dtype=np.int64))
    with pytest.raises(ShapeError):
        sequence_loss(Tensor(np.zeros((2, 4, 8))), np.zeros((2, 3), dtype=np.int64))


# ---------------------------------------------------------------------------
# noise propagation probe


def test_noise_propagation_zero_delta_is_exactly_zero():
    report = noise_gradient_propagation_check(CFG, deltas=[0.0], draws=3, seed=0)
    assert report["mean_grad_perturbation"] == [0.0]


def test_noise_propagation_monotone_in_delta():
    report = noise_gradient_propagation_check(
        CFG, deltas=[0.0, 0.02, 0.05, 0.1], draws=10, seed=1
    )
    values = report["mean_grad_perturbation"]
    assert values[0] == 0.0
    assert values[1] > 0.0
    assert values == sorted(values)
    assert report["monotone_in_delta"]
