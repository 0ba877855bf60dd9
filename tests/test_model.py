"""Partitioning, adapters, merging, and checkpoint behavior of the model."""

import numpy as np
import pytest

from fedsplit.errors import CheckpointError, PartitionError, ProtocolError, ShapeError
from fedsplit.experiment import _load_adapters, _save_adapters
from fedsplit.model import (
    LoraConfig,
    ModelConfig,
    PartitionSpec,
    SegmentModel,
    apply_sgd_step,
    build_decoder_probe,
    build_monolithic,
    build_partitioned,
    fedavg_merge,
    grad_norm,
    init_parameter_set,
)
from fedsplit import tensor
from fedsplit.corpus import BatchSampler, make_copy_corpus
from fedsplit.inference import InferenceStack
from fedsplit.tensor import no_grad, reshape, softmax_cross_entropy
from fedsplit.training import SequentialTrainer, connect_pair

CFG = ModelConfig(vocab_size=32, hidden_size=16, num_heads=2, num_blocks=6, mlp_hidden=24)


def sample_tokens(rng, batch, seq, vocab):
    return rng.integers(0, vocab, size=(batch, seq))


def all_partitions(num_blocks):
    parts = []
    for front in range(1, num_blocks - 1):
        for back in range(1, num_blocks - front):
            parts.append(PartitionSpec(front, num_blocks - front - back, back))
    return parts


def test_partition_spec_rejects_empty_segments():
    with pytest.raises(PartitionError):
        PartitionSpec(0, 5, 1)
    with pytest.raises(PartitionError):
        PartitionSpec(1, 5, -1)


def test_partition_spec_must_cover_model():
    with pytest.raises(PartitionError):
        PartitionSpec(1, 2, 1).validate_for(CFG)


def test_ten_partitions_exist_for_six_blocks():
    assert len(all_partitions(6)) == 10


@pytest.mark.parametrize("part", all_partitions(6), ids=lambda p: f"{p.front}-{p.middle}-{p.back}")
def test_split_forward_matches_monolithic(part):
    mono = build_monolithic(CFG, seed=3)
    front, middle, back = build_partitioned(CFG, part, seed=3)
    rng = np.random.default_rng(7)
    tokens = sample_tokens(rng, 2, 10, CFG.vocab_size)
    pads = [0, 3]
    with no_grad():
        want = mono.forward(tokens, pad_lens=pads).data
        h1 = front.forward(tokens, pad_lens=pads).data
        h2 = middle.forward(h1, pad_lens=pads).data
        got = back.forward(h2, pad_lens=pads).data
    np.testing.assert_array_equal(got, want)


def test_cut_hidden_shape():
    part = PartitionSpec(2, 3, 1)
    front, _, _ = build_partitioned(CFG, part, seed=0)
    tokens = sample_tokens(np.random.default_rng(0), 3, 8, CFG.vocab_size)
    with no_grad():
        h = front.forward(tokens)
    assert h.data.shape == (3, 8, CFG.hidden_size)


def test_partition_slices_monolithic_parameters():
    part = PartitionSpec(1, 4, 1)
    mono = build_monolithic(CFG, seed=11)
    segs = build_partitioned(CFG, part, seed=11)
    mono_state = mono.state_dict()
    seen = set()
    for seg in segs:
        for name, arr in seg.state_dict().items():
            np.testing.assert_array_equal(arr, mono_state[name])
            seen.add(name)
    assert seen == set(mono_state)


def test_lora_zero_init_preserves_base_function():
    tokens = sample_tokens(np.random.default_rng(1), 2, 6, CFG.vocab_size)
    with no_grad():
        base = build_monolithic(CFG, lora=None, seed=5).forward(tokens).data
        adapted = build_monolithic(CFG, lora=LoraConfig(rank=4, alpha=8.0), seed=5).forward(tokens).data
    np.testing.assert_array_equal(adapted, base)


def test_lora_trainable_set_is_attention_adapters_only():
    front, middle, back = build_partitioned(CFG, PartitionSpec(2, 2, 2), seed=0)
    for seg in (front, middle, back):
        names = set(seg.trainable_parameters())
        assert names == set(seg.lora_parameters())
        assert all(".attn." in n and n.endswith(("lora_a", "lora_b")) for n in names)
    per_block = 2 * len(("query", "key", "value", "out"))
    assert len(front.lora_parameters()) == 2 * per_block


def test_forward_twice_without_backward_raises():
    _, middle, _ = build_partitioned(CFG, PartitionSpec(2, 2, 2), seed=0)
    h = np.zeros((1, 4, CFG.hidden_size))
    middle.forward(h)
    with pytest.raises(ProtocolError):
        middle.forward(h)


def test_a_positions_count_other_than_the_sequence_length_is_a_shape_error():
    _, middle, _ = build_partitioned(CFG, PartitionSpec(2, 2, 2), seed=0)
    h = np.zeros((1, 3, CFG.hidden_size))
    with pytest.raises(ShapeError, match="got 2 positions for sequence length 3"):
        middle.forward(h, positions=(0, 1))
    middle.forward(h, positions=(0, 1, 2))


def test_backward_without_forward_raises():
    _, middle, _ = build_partitioned(CFG, PartitionSpec(2, 2, 2), seed=0)
    with pytest.raises(ProtocolError):
        middle.backward(np.zeros((1, 4, CFG.hidden_size)))


def test_segment_backward_returns_input_grad_and_clears():
    _, middle, _ = build_partitioned(CFG, PartitionSpec(2, 2, 2), seed=2)
    rng = np.random.default_rng(3)
    h = rng.standard_normal((2, 5, CFG.hidden_size))
    out = middle.forward(h)
    g = middle.backward(rng.standard_normal(out.data.shape))
    assert g.shape == h.shape
    assert np.all(np.isfinite(g))
    assert middle.collect_grads()  # adapters received gradients
    with pytest.raises(ProtocolError):
        middle.backward(np.zeros(out.data.shape))


def test_base_weights_never_receive_grads():
    mono = build_monolithic(CFG, seed=4)
    tokens = sample_tokens(np.random.default_rng(4), 2, 6, CFG.vocab_size)
    logits = mono.forward(tokens)
    flat = reshape(logits, (-1, CFG.vocab_size))
    targets = sample_tokens(np.random.default_rng(5), 2, 6, CFG.vocab_size).reshape(-1)
    loss, _ = softmax_cross_entropy(flat, targets)
    loss.backward()
    mono.discard_pending()
    grads = mono.collect_grads()
    assert set(grads) == set(mono.lora_parameters())
    assert mono.embed.grad is None
    assert mono.head.grad is None


def test_apply_sgd_step_moves_only_named_params():
    front, _, _ = build_partitioned(CFG, PartitionSpec(2, 2, 2), seed=6)
    params = front.trainable_parameters()
    name = sorted(params)[0]
    before = {n: p.data.copy() for n, p in params.items()}
    apply_sgd_step(params, {name: np.ones_like(params[name].data)}, lr=0.1)
    after = {n: p.data for n, p in params.items()}
    np.testing.assert_allclose(after[name], before[name] - 0.1, atol=1e-15)
    for other in set(params) - {name}:
        np.testing.assert_array_equal(after[other], before[other])


def test_grad_norm_hand_value():
    grads = {"a": np.array([3.0]), "b": np.array([4.0])}
    assert abs(grad_norm(grads) - 5.0) < 1e-12


# ---------------------------------------------------------------------------
# federated averaging


def _trained_copy(seed, nudge):
    front, _, _ = build_partitioned(CFG, PartitionSpec(2, 2, 2), seed=seed)
    for name, p in front.lora_parameters().items():
        p.data = p.data + nudge
    return front


def test_fedavg_uniform_mean_matches_hand_computation():
    a = _trained_copy(9, 0.5)
    b = _trained_copy(9, -0.25)
    merged = fedavg_merge([a, b])
    for name in a.lora_parameters():
        want = 0.5 * a.named_parameters()[name].data + 0.5 * b.named_parameters()[name].data
        np.testing.assert_array_equal(merged.named_parameters()[name].data, want)


def test_fedavg_weighted_mean():
    a = _trained_copy(9, 1.0)
    b = _trained_copy(9, 0.0)
    merged = fedavg_merge([a, b], weights=[3.0, 1.0])
    for name in a.lora_parameters():
        want = 0.75 * a.named_parameters()[name].data + 0.25 * b.named_parameters()[name].data
        np.testing.assert_allclose(merged.named_parameters()[name].data, want, atol=1e-15)


def test_fedavg_single_model_is_identity():
    a = _trained_copy(10, 0.3)
    merged = fedavg_merge([a])
    for name, arr in a.state_dict().items():
        np.testing.assert_array_equal(merged.state_dict()[name], arr)


def test_fedavg_rejects_diverged_base():
    a = _trained_copy(11, 0.0)
    b = _trained_copy(11, 0.0)
    b.named_parameters()["blocks.0.attn.query.weight"].data += 1e-9
    with pytest.raises(ProtocolError):
        fedavg_merge([a, b])


def test_fedavg_rejects_role_mismatch():
    front, middle, _ = build_partitioned(CFG, PartitionSpec(2, 2, 2), seed=12)
    with pytest.raises(ProtocolError):
        fedavg_merge([front, middle])


def test_fedavg_rejects_bad_weights():
    a = _trained_copy(13, 0.0)
    b = _trained_copy(13, 0.0)
    with pytest.raises(ProtocolError):
        fedavg_merge([a, b], weights=[1.0])
    with pytest.raises(ProtocolError):
        fedavg_merge([a, b], weights=[0.0, 0.0])


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_roundtrip_is_exact(tmp_path):
    trained = build_partitioned(CFG, PartitionSpec(1, 3, 2), seed=21)
    for i, seg in enumerate(trained):
        for j, p in enumerate(seg.lora_parameters().values()):
            p.data = np.random.default_rng(100 * i + j).standard_normal(p.data.shape)
    path = tmp_path / "adapters.npz"
    _save_adapters(path, trained)
    fresh = build_partitioned(CFG, PartitionSpec(1, 3, 2), seed=99)
    _load_adapters(fresh, path)
    for want, got in zip(trained, fresh):
        assert set(got.state_dict()) == set(want.state_dict())
        for name, arr in want.state_dict().items():
            np.testing.assert_array_equal(got.state_dict()[name], arr)
    again = tmp_path / "again.npz"
    _save_adapters(again, fresh)
    assert again.read_bytes() == path.read_bytes()


def test_segments_load_monolithic_checkpoint(tmp_path):
    mono = build_monolithic(CFG, seed=22)
    path = tmp_path / "adapters.npz"
    _save_adapters(path, [mono])
    front, middle, back = build_partitioned(CFG, PartitionSpec(1, 3, 2), seed=99)
    _load_adapters((front, middle, back), path)
    tokens = sample_tokens(np.random.default_rng(2), 1, 7, CFG.vocab_size)
    with no_grad():
        want = mono.forward(tokens).data
        got = back.forward(middle.forward(front.forward(tokens).data).data).data
    np.testing.assert_array_equal(got, want)


def test_checkpoint_rejects_corruption(tmp_path):
    mono = build_monolithic(CFG, seed=23)
    path = tmp_path / "adapters.npz"
    _save_adapters(path, [mono])
    segments = build_partitioned(CFG, PartitionSpec(1, 3, 2), seed=99)
    blob = bytearray(path.read_bytes())
    blob[0] = ord("X")
    bad = tmp_path / "bad.npz"
    bad.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError):
        _load_adapters(segments, bad)
    truncated = tmp_path / "short.npz"
    truncated.write_bytes(path.read_bytes()[:50])
    with pytest.raises(CheckpointError):
        _load_adapters(segments, truncated)
    flipped = bytearray(path.read_bytes())
    flipped[len(flipped) // 2] ^= 0xFF
    damaged = tmp_path / "damaged.npz"
    damaged.write_bytes(bytes(flipped))
    with pytest.raises(CheckpointError):
        _load_adapters(segments, damaged)
    with pytest.raises(CheckpointError):
        _load_adapters(segments, tmp_path / "missing.npz")
    plain = tmp_path / "plain.npy"
    np.save(plain, np.zeros(3))
    with pytest.raises(CheckpointError):
        _load_adapters(segments, plain)


def test_load_state_dict_rejects_shape_mismatch():
    front, _, _ = build_partitioned(CFG, PartitionSpec(2, 2, 2), seed=24)
    state = front.state_dict()
    state["embed.weight"] = state["embed.weight"][:, :4]
    with pytest.raises(CheckpointError):
        front.load_state_dict(state)


def test_load_state_dict_rejects_missing_and_unknown_names():
    front, _, _ = build_partitioned(CFG, PartitionSpec(2, 2, 2), seed=25)
    state = front.state_dict()
    state.pop("embed.weight")
    with pytest.raises(CheckpointError):
        front.load_state_dict(state)
    # a name the segment does not own is ignored: segments load slices of a full set
    state = front.state_dict()
    state["mystery"] = np.zeros(3)
    front.load_state_dict(state)
    assert "mystery" not in front.state_dict()


# ---------------------------------------------------------------------------
# the segment's parameter table

# Per-block table order. It fixes the key order of ``adapters.npz`` and the
# summation order of every recorded gradient norm, so it must not move.
BLOCK_TABLE = (
    "attn_norm.weight", "mlp_norm.weight", "mlp.gate.weight", "mlp.up.weight", "mlp.down.weight",
    "attn.query.weight", "attn.query.lora_a", "attn.query.lora_b",
    "attn.key.weight", "attn.key.lora_a", "attn.key.lora_b",
    "attn.value.weight", "attn.value.lora_a", "attn.value.lora_b",
    "attn.out.weight", "attn.out.lora_a", "attn.out.lora_b",
)
SEGMENT_CUTS = {"front": (0, 2), "middle": (2, 2), "back": (4, 2), "full": (0, 6)}
TABLE_LORAS = pytest.mark.parametrize("lora", [LoraConfig(), None], ids=["lora", "no-lora"])


def table_segment(role, lora, trainable_base=False, seed=0):
    offset, count = SEGMENT_CUTS[role]
    params = init_parameter_set(ModelConfig(), lora, seed)
    return SegmentModel(role, ModelConfig(), lora, params, offset, count, trainable_base)


@TABLE_LORAS
@pytest.mark.parametrize("role", sorted(SEGMENT_CUTS))
def test_named_parameters_key_order_is_pinned(role, lora):
    offset, count = SEGMENT_CUTS[role]
    per_block = [n for n in BLOCK_TABLE if lora is not None or "lora" not in n]
    expected = ["embed.weight"] if role in ("front", "full") else []
    expected += [f"blocks.{i}.{n}" for i in range(offset, offset + count) for n in per_block]
    if role in ("back", "full"):
        expected += ["final_norm.weight", "head.weight"]
    assert list(table_segment(role, lora).named_parameters()) == expected


@TABLE_LORAS
@pytest.mark.parametrize("role", sorted(SEGMENT_CUTS))
def test_blocks_hold_the_tables_tensors(role, lora):
    seg = table_segment(role, lora, trainable_base=lora is None)
    table = seg.named_parameters()
    for i, block in enumerate(seg.blocks):
        prefix = f"blocks.{seg.block_offset + i}"
        for attr, name in (("attn_norm", "attn_norm"), ("mlp_norm", "mlp_norm"),
                           ("gate", "mlp.gate"), ("up", "mlp.up"), ("down", "mlp.down")):
            assert getattr(block, attr) is table[f"{prefix}.{name}.weight"]
        for target, layer in zip(("query", "key", "value", "out"), block.attn, strict=True):
            for tensor, leaf in zip(layer, ("weight", "lora_a", "lora_b"), strict=True):
                assert tensor is table.get(f"{prefix}.attn.{target}.{leaf}")
    if role != "front":
        assert seg.final_norm is table.get("final_norm.weight")
        assert seg.head is table.get("head.weight")
    # a step on the table's trainable entries reaches the forward pass
    rng = np.random.default_rng(2)
    inputs = (sample_tokens(rng, 1, 5, 256) if role in ("front", "full")
              else rng.standard_normal((1, 5, 64)))
    with no_grad():
        before = seg.forward(inputs).data
        params = seg.trainable_parameters()
        assert params
        apply_sgd_step(params, {n: np.ones_like(p.data) for n, p in params.items()}, lr=0.1)
        after = seg.forward(inputs).data
    assert not np.array_equal(after, before)


@TABLE_LORAS
@pytest.mark.parametrize("trainable_base", [False, True])
def test_requires_grad_per_name(lora, trainable_base):
    for role in SEGMENT_CUTS:
        seg = table_segment(role, lora, trainable_base)
        for name, p in seg.named_parameters().items():
            if name == "embed.weight":
                assert not p.requires_grad
            elif name.endswith(("lora_a", "lora_b")):
                assert p.requires_grad, name
            else:
                assert p.requires_grad == trainable_base, name


# ---------------------------------------------------------------------------
# tape size: each block is two nodes, so a step builds few Tensors


def tensors_built(step) -> int:
    """Tensors constructed, in any thread, while ``step()`` runs."""
    start = next(tensor._creation_counter)
    step()
    return next(tensor._creation_counter) - start - 1


def test_split_decode_and_train_round_build_few_tensors():
    cfg = ModelConfig()
    segments = build_partitioned(cfg, PartitionSpec(2, 2, 2), seed=0)
    with InferenceStack(*segments) as stack:
        token = int(np.argmax(stack.session.prefill([1, 2, 3, 4, 5])))
        counts = []
        for _ in range(4):
            counts.append(tensors_built(lambda: stack.session.decode_step(token)))
            token += 1
    # per side and block, one Tensor per sublayer (137 with a node per op)
    assert counts == [counts[0]] * 4 and counts[0] <= 25, counts

    client, server, channel = connect_pair(*segments, client_id=0, lr=0.1)
    corpus = make_copy_corpus(8, payload_len=4, vocab_size=cfg.vocab_size, seed=0)
    sampler = BatchSampler(corpus, 4, seed=1)
    with SequentialTrainer([client], server, [channel]) as trainer:
        rounds = [tensors_built(lambda r=r: trainer.run_round([sampler.batch_for(r)], r))
                  for r in range(2)]
    assert rounds == [rounds[0]] * 2 and rounds[0] <= 19, rounds  # 127 with a node per op


# ---------------------------------------------------------------------------
# decoder probe (attack-side model)


def test_decoder_probe_zero_blocks_maps_hidden_to_logits():
    probe = build_decoder_probe(CFG, num_blocks=0, seed=0)
    h = np.random.default_rng(1).standard_normal((2, 5, CFG.hidden_size))
    with no_grad():
        logits = probe.forward(h)
    assert logits.data.shape == (2, 5, CFG.vocab_size)
    assert len(probe.blocks) == 0


def test_decoder_probe_trains_all_parameters():
    probe = build_decoder_probe(CFG, num_blocks=2, seed=0)
    names = set(probe.trainable_parameters())
    assert names == set(probe.named_parameters())
    assert "head.weight" in names and "blocks.0.mlp.gate.weight" in names


def test_init_parameter_stream_is_seed_deterministic():
    a = init_parameter_set(CFG, LoraConfig(), seed=7)
    b = init_parameter_set(CFG, LoraConfig(), seed=7)
    c = init_parameter_set(CFG, LoraConfig(), seed=8)
    for name in a:
        np.testing.assert_array_equal(a[name], b[name])
    assert any(not np.array_equal(a[n], c[n]) for n in a)
