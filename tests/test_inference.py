"""Split-model generation with mirrored caches versus full recompute."""

import dataclasses
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsplit import inference
from fedsplit.errors import (
    ChannelClosedError,
    ConfigError,
    ContextOverflowError,
    ProtocolError,
    ShapeError,
)
from fedsplit.inference import (
    GenerationConfig,
    GenerationResult,
    InferenceServer,
    InferenceStack,
    KVCache,
)
from fedsplit.model import (
    LoraConfig,
    ModelConfig,
    PartitionSpec,
    build_monolithic,
    build_partitioned,
)
from fedsplit.tensor import no_grad
from fedsplit.wire import CacheStepMsg, HiddenStateMsg, MaskMeta, decode_message, encode_message

CFG = ModelConfig(
    vocab_size=32, hidden_size=16, num_heads=2, num_blocks=3, mlp_hidden=24, max_context=48
)
PART = PartitionSpec(1, 1, 1)


def build_stack(seed=0, record_frames=False, **kwargs):
    """A stack over a fresh split model; with ``record_frames`` its client
    channel keeps every frame it sends and receives."""
    front, middle, back = build_partitioned(CFG, PART, seed=seed)
    stack = InferenceStack(front, middle, back, **kwargs)
    if record_frames:
        stack.session.channel.sent_log, stack.session.channel.recv_log = [], []
    return stack


def random_prompt(rng, length):
    return [int(t) for t in rng.integers(0, CFG.vocab_size, size=length)]


def manual_greedy(session, prompt, steps):
    logits = session.prefill(prompt)
    tokens = []
    for _ in range(steps):
        tok = int(np.argmax(logits))
        tokens.append(tok)
        logits = session.decode_step(tok)
    return tokens


# ---------------------------------------------------------------------------
# cache mechanics


def test_cache_append_accumulates_positions():
    cache = KVCache()
    assert cache.length == 0
    k = np.ones((1, 2, 3, 4))
    for block in range(2):
        full_k, full_v = cache.append(block, k, 2 * k)
        assert full_k.shape == (1, 2, 3, 4)
    cache.length = 3
    full_k, full_v = cache.append(0, k[:, :, :1], k[:, :, :1])
    assert full_k.shape == (1, 2, 4, 4)
    np.testing.assert_array_equal(full_v[:, :, :3], 2 * k)
    assert cache.length == 3
    assert KVCache().length == 0


def test_cache_rejects_wrong_shapes():
    cache = KVCache()
    with pytest.raises(ShapeError):
        cache.append(0, np.ones((1, 2, 1, 4)), np.ones((1, 2, 1, 5)))
    cache.append(0, np.ones((1, 2, 1, 4)), np.ones((1, 2, 1, 4)))
    cache.length = 1
    with pytest.raises(ShapeError):
        cache.append(0, np.ones((1, 3, 1, 4)), np.ones((1, 3, 1, 4)))


def test_cache_views_keep_their_values_across_appends_and_growth():
    cache = KVCache()
    rng = np.random.default_rng(3)
    chunks = [rng.standard_normal((2, 2, n, 4)) for n in (3, 1, 1, 1, 4, 1)]
    views = []
    for chunk in chunks:
        views.append(cache.append(0, chunk, -chunk))
        cache.length += chunk.shape[2]
    seen = np.concatenate(chunks, axis=2)
    for k, v in views:
        n = k.shape[2]
        assert k.tobytes() == np.ascontiguousarray(seen[:, :, :n]).tobytes()
        assert v.tobytes() == np.ascontiguousarray(-seen[:, :, :n]).tobytes()
    assert cache.length == 11


def test_a_pass_that_fails_part_way_leaves_the_cache_as_it_was(monkeypatch):
    """The second block of a two-block segment raises once during a decode
    pass: the cache keeps its length, and the same pass run again gives the
    bits of a cache that was never disturbed."""
    two = dataclasses.replace(CFG, num_blocks=2)
    segment = build_monolithic(two, seed=4)
    prompt, token = np.asarray([[3, 1, 4, 1, 5]]), np.asarray([[9]])
    disturbed, undisturbed = KVCache(), KVCache()
    with no_grad():
        for cache in (disturbed, undisturbed):
            segment.forward(prompt, cache=cache)
        want = segment.forward(token, cache=undisturbed).data
        block_forward = segment.blocks[1].forward

        def fail_once(*args, **kwargs):
            monkeypatch.setattr(segment.blocks[1], "forward", block_forward)
            raise RuntimeError("block failed")

        monkeypatch.setattr(segment.blocks[1], "forward", fail_once)
        with pytest.raises(RuntimeError, match="block failed"):
            segment.forward(token, cache=disturbed)
        assert disturbed.length == 5
        got = segment.forward(token, cache=disturbed).data
    assert disturbed.length == undisturbed.length == 6
    assert got.tobytes() == want.tobytes()


class _ConcatCache:
    """Reference cache: each block's whole history re-concatenated per append."""

    def __init__(self):
        self.length = 0
        self.k, self.v = {}, {}

    def append(self, block, k_new, v_new):
        if block not in self.k:
            self.k[block], self.v[block] = k_new.copy(), v_new.copy()
        else:
            self.k[block] = np.concatenate([self.k[block], k_new], axis=2)
            self.v[block] = np.concatenate([self.v[block], v_new], axis=2)
        return self.k[block], self.v[block]


@pytest.mark.parametrize("transport", ["loopback", "tcp"])
def test_cached_decode_is_bitwise_equal_to_concatenating_cache(transport, monkeypatch):
    long_cfg = ModelConfig(
        vocab_size=32, hidden_size=16, num_heads=2, num_blocks=3, mlp_hidden=24, max_context=72
    )
    prompt = [int(t) for t in np.random.default_rng(8).integers(0, 32, size=5)]

    def decode_logits():
        front, middle, back = build_partitioned(long_cfg, PART, seed=6)
        with InferenceStack(front, middle, back, transport=transport) as stack:
            session = stack.session
            logits = [session.prefill(prompt)]
            for _ in range(60):
                logits.append(session.decode_step(int(np.argmax(logits[-1]))))
            return logits, session.front_cache

    logits, cache = decode_logits()
    # a 5-position prefill buffer doubled to 10, 20, 40 and 80 positions
    assert cache.length == 65 and cache._buffers[0][0].shape[2] == 80
    with monkeypatch.context() as patch:
        patch.setattr(inference, "KVCache", _ConcatCache)
        reference, reference_cache = decode_logits()
    assert isinstance(reference_cache, _ConcatCache) and reference_cache.length == 65
    assert [a.tobytes() for a in logits] == [b.tobytes() for b in reference]


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(
    num_heads=st.integers(1, 2),
    head_dim=st.sampled_from([2, 4]),
    partition=st.tuples(st.integers(1, 2), st.integers(1, 2), st.integers(1, 2)),
    lora=st.booleans(),
    prompt_len=st.integers(1, 5),
    extra_steps=st.integers(1, 8),
    seed=st.integers(0, 3),
)
def test_cached_decoding_matches_uncached_and_concatenating_decoding(
    num_heads, head_dim, partition, lora, prompt_len, extra_steps, seed
):
    """Over any width, heads, partition and LoRA setting, greedy decoding
    over loopback picks the same token at every step with the cache, with a
    concatenating reference cache and with no cache. The prefill fills each
    block's buffer exactly and more decode steps follow than the prompt has
    tokens, so every buffer doubles at least twice, and the logits stay
    bitwise the reference's. Against the uncached recompute they agree to
    rounding only: a 1-row matmul and the same row of an L-row one round
    differently."""
    steps = prompt_len + extra_steps
    cfg = ModelConfig(
        vocab_size=16, hidden_size=num_heads * head_dim, num_heads=num_heads,
        num_blocks=sum(partition), mlp_hidden=8, max_context=prompt_len + steps,
    )
    segments = build_partitioned(
        cfg, PartitionSpec(*partition), LoraConfig(rank=2) if lora else None, seed=seed
    )
    prompt = [int(t) for t in np.random.default_rng(seed).integers(0, 16, size=prompt_len)]

    def decode(use_cache):
        with InferenceStack(*segments, use_cache=use_cache) as stack:
            logits = [stack.session.prefill(prompt)]
            for _ in range(steps):
                logits.append(stack.session.decode_step(int(np.argmax(logits[-1]))))
        return logits

    cached, uncached = decode(True), decode(False)
    with mock.patch.object(inference, "KVCache", _ConcatCache):
        reference = decode(True)
    assert [a.tobytes() for a in cached] == [b.tobytes() for b in reference]
    assert [int(np.argmax(a)) for a in cached] == [int(np.argmax(b)) for b in uncached]
    np.testing.assert_allclose(np.array(cached), np.array(uncached), rtol=1e-12, atol=1e-12)


def test_generation_config_validation():
    with pytest.raises(ConfigError):
        GenerationConfig(max_new_tokens=0)
    with pytest.raises(ConfigError):
        GenerationConfig(mode="beam")
    with pytest.raises(ConfigError):
        GenerationConfig(mode="temperature", temperature=0.0)
    assert GenerationConfig(mode="temperature", temperature=0.7).temperature == 0.7


# ---------------------------------------------------------------------------
# prefill


def test_prefill_matches_monolithic_last_logits_exactly():
    prompt = random_prompt(np.random.default_rng(1), 9)
    mono = build_monolithic(CFG, seed=0)
    with no_grad():
        reference = mono.forward(np.asarray([prompt])).data[0, -1]
    with build_stack(seed=0) as stack:
        logits = stack.session.prefill(prompt)
    np.testing.assert_array_equal(logits, reference)


def test_prefill_populates_both_cache_sides():
    prompt = random_prompt(np.random.default_rng(2), 7)
    with build_stack() as stack:
        stack.session.prefill(prompt)
        assert stack.session.front_cache.length == 7
        assert stack.session.back_cache.length == 7
        assert stack.server.session_length(stack.session.session_id) == 7


def test_prefill_comm_is_one_hidden_exchange():
    prompt = random_prompt(np.random.default_rng(3), 6)
    with build_stack() as stack:
        stack.session.prefill(prompt)
        stats = stack.session.channel.stats.snapshot()
    hidden = stats["classes"]["hidden_state"]
    assert hidden["sent_count"] == 1 and hidden["recv_count"] == 1
    assert hidden["sent_bytes"] == hidden["recv_bytes"]
    payload_bytes = 1 * 6 * CFG.hidden_size * 8
    assert payload_bytes < hidden["sent_bytes"] < 2 * payload_bytes
    assert stats["classes"]["cache_step"]["sent_count"] == 0


def test_prefill_rejects_overlong_and_invalid_prompts():
    with build_stack() as stack:
        with pytest.raises(ContextOverflowError):
            stack.session.prefill([1] * (CFG.max_context + 1))
        with pytest.raises(ShapeError):
            stack.session.prefill([])
        with pytest.raises(ShapeError):
            stack.session.prefill([0, CFG.vocab_size])
    with build_stack() as stack:
        first = stack.session.prefill([1, 2, 3])
        # a rejected prompt leaves the session's prefix as it was
        with pytest.raises(ShapeError):
            stack.session.prefill([])
        assert stack.session.tokens == [1, 2, 3]
        assert stack.session.front_cache.length == 3
        # a second prefill starts over instead of extending the first
        np.testing.assert_array_equal(stack.session.prefill([1, 2, 3]), first)
        assert stack.session.front_cache.length == 3
        assert stack.server.session_length(stack.session.session_id) == 3


@pytest.mark.parametrize("transport", ["loopback", "tcp"])
@pytest.mark.parametrize("use_cache", [True, False])
def test_reprefilled_session_matches_a_fresh_session(transport, use_cache):
    rng = np.random.default_rng(13)
    first, second = random_prompt(rng, 7), random_prompt(rng, 5)
    decode = GenerationConfig(max_new_tokens=6)
    kwargs = dict(transport=transport, use_cache=use_cache, record_frames=True)
    with build_stack(**kwargs) as fresh:
        reference_logits = fresh.session.prefill(second)
    with build_stack(**kwargs) as fresh:
        reference = fresh.session.generate(second, decode)
        reference_frames = (fresh.session.channel.sent_log, fresh.session.channel.recv_log)
        reference_length = fresh.server.session_length(fresh.session.session_id)
    with build_stack(**kwargs) as stack:
        session = stack.session
        assert session.generate(first, decode).ok
        sent, recv = len(session.channel.sent_log), len(session.channel.recv_log)
        result = session.generate(second, decode)
        frames = (session.channel.sent_log[sent:], session.channel.recv_log[recv:])
        assert stack.server.session_length(session.session_id) == reference_length
        assert session.tokens == second + result.tokens
        logits = session.prefill(second)
    assert result.ok and result.tokens == reference.tokens
    assert frames == reference_frames
    np.testing.assert_array_equal(logits, reference_logits)


def test_decode_before_prefill_rejected():
    with build_stack() as stack:
        with pytest.raises(ProtocolError):
            stack.session.decode_step(1)


# ---------------------------------------------------------------------------
# batched prefill


def one_row_logits(prompts, transport, use_cache=True):
    rows = []
    for prompt in prompts:
        with build_stack(transport=transport, use_cache=use_cache) as stack:
            rows.append(stack.session.prefill(prompt))
    return np.stack(rows)


@pytest.mark.parametrize("transport", ["loopback", "tcp"])
@pytest.mark.parametrize("use_cache", [True, False])
def test_prefill_batch_rows_are_bitwise_one_row_prefills(transport, use_cache):
    rng = np.random.default_rng(11)
    prompts = [random_prompt(rng, 9) for _ in range(inference.MAX_PREFILL_ROWS)]
    with build_stack(transport=transport, use_cache=use_cache) as stack:
        logits = stack.session.prefill_batch(prompts)
        stats = stack.session.channel.stats.snapshot()
        assert stack.server.session_length(stack.session.session_id) == 9
        assert stack.session.tokens == []
        assert stack.session.front_cache is None
        assert stack.session.back_cache is None
    assert logits.shape == (len(prompts), CFG.vocab_size)
    np.testing.assert_array_equal(logits, one_row_logits(prompts, transport, use_cache))
    hidden = stats["classes"]["hidden_state"]
    assert hidden["sent_count"] == 1 and hidden["recv_count"] == 1


@pytest.mark.parametrize("transport", ["loopback", "tcp"])
def test_prefill_batch_guards(transport):
    rng = np.random.default_rng(12)
    first = [random_prompt(rng, 4) for _ in range(3)]
    second = [random_prompt(rng, 6) for _ in range(2)]
    with build_stack(transport=transport) as stack:
        session = stack.session
        with pytest.raises(ShapeError):
            session.prefill_batch([])
        # unequal lengths and more than MAX_PREFILL_ROWS prompts are split up
        for prompts in ([[1, 2, 3], [1, 2]], [[1, 2]] * (inference.MAX_PREFILL_ROWS + 1)):
            np.testing.assert_array_equal(session.prefill_batch(prompts),
                                          one_row_logits(prompts, transport))
        # two batches on one session equal two fresh sessions' batches
        got = [session.prefill_batch(first), session.prefill_batch(second)]
        assert stack.server.session_length(session.session_id) == 6
        with pytest.raises(ProtocolError, match="decode before prefill"):
            session.decode_step(1)
    for prompts, logits in zip((first, second), got):
        with build_stack(transport=transport) as fresh:
            np.testing.assert_array_equal(fresh.session.prefill_batch(prompts), logits)
    # a batch drops a prefilled prefix: decoding needs a fresh prefill
    with build_stack(transport=transport) as stack:
        stack.session.prefill([1, 2, 3])
        stack.session.prefill_batch([[1, 2, 3]])
        with pytest.raises(ProtocolError, match="decode before prefill"):
            stack.session.decode_step(1)


@pytest.mark.parametrize("transport", ["loopback", "tcp"])
def test_prefill_batch_splits_by_length_and_row_limit(transport):
    rng = np.random.default_rng(14)
    limit = inference.MAX_PREFILL_ROWS
    # lengths 5, 7 and 4 interleaved; 5 and 4 each overflow one exchange
    lengths = [5, 7, 4] * 3 + [5, 4] * limit
    prompts = [random_prompt(rng, n) for n in lengths]
    with build_stack(transport=transport, record_frames=True) as stack:
        logits = stack.session.prefill_batch(prompts)
        sent = [decode_message(frame) for frame in stack.session.channel.sent_log]
        stats = stack.session.channel.stats.snapshot()
    np.testing.assert_array_equal(logits, one_row_logits(prompts, transport))
    counts = {n: lengths.count(n) for n in (5, 7, 4)}
    assert counts == {5: limit + 3, 7: 3, 4: limit + 3}
    shapes = [msg.payload.shape[:2] for msg in sent]
    assert shapes == [(limit, 5), (3, 5), (3, 7), (limit, 4), (3, 4)]
    assert stats["classes"]["hidden_state"]["sent_count"] == len(shapes)
    assert stats["round_trips"] == len(shapes)


# ---------------------------------------------------------------------------
# decode


def test_decode_extends_caches_by_one_on_both_sides():
    prompt = random_prompt(np.random.default_rng(4), 5)
    with build_stack() as stack:
        logits = stack.session.prefill(prompt)
        for step in range(3):
            tok = int(np.argmax(logits))
            logits = stack.session.decode_step(tok)
            expected = 5 + step + 1
            assert stack.session.front_cache.length == expected
            assert stack.session.back_cache.length == expected
            assert stack.server.session_length(stack.session.session_id) == expected


@pytest.mark.parametrize("transport", ["loopback", "tcp"])
@pytest.mark.parametrize("use_cache", [True, False])
def test_rejected_decode_token_leaves_the_session_usable(transport, use_cache):
    prompt = random_prompt(np.random.default_rng(6), 5)
    with build_stack(transport=transport, use_cache=use_cache) as fresh:
        fresh.session.prefill(prompt)
        expected = fresh.session.decode_step(7)
    with build_stack(transport=transport, use_cache=use_cache) as stack:
        stack.session.prefill(prompt)
        for bad in (CFG.vocab_size, -1):
            with pytest.raises(ShapeError):
                stack.session.decode_step(bad)
        assert stack.session.tokens == prompt
        np.testing.assert_array_equal(stack.session.decode_step(7), expected)


def test_cached_greedy_matches_uncached_token_for_token():
    rng = np.random.default_rng(5)
    cfg = GenerationConfig(max_new_tokens=16)
    for trial in range(10):
        prompt = random_prompt(rng, int(rng.integers(3, 12)))
        with build_stack(seed=0, use_cache=True) as cached:
            with_cache = cached.session.generate(prompt, cfg)
        with build_stack(seed=0, use_cache=False) as plain:
            without_cache = plain.session.generate(prompt, cfg)
        assert with_cache.ok and without_cache.ok
        assert with_cache.tokens == without_cache.tokens
        assert len(with_cache.tokens) == 16


def test_greedy_generation_is_deterministic():
    prompt = [3, 1, 4, 1, 5]
    cfg = GenerationConfig(max_new_tokens=8)
    runs = []
    for _ in range(2):
        with build_stack(seed=2) as stack:
            runs.append(stack.session.generate(prompt, cfg).tokens)
    assert runs[0] == runs[1]


def test_temperature_sampling_is_seed_deterministic():
    prompt = [3, 1, 4]
    cfg = GenerationConfig(max_new_tokens=8, mode="temperature", temperature=0.8, seed=11)
    runs = []
    for _ in range(2):
        with build_stack(seed=2) as stack:
            runs.append(stack.session.generate(prompt, cfg).tokens)
    assert runs[0] == runs[1]


def test_single_new_token_runs_exactly_one_decode_step():
    prompt = [1, 2, 3, 4]
    with build_stack() as stack:
        result = stack.session.generate(prompt, GenerationConfig(max_new_tokens=1))
        assert result.ok and len(result.tokens) == 1
        stats = stack.session.channel.stats.snapshot()
        assert stats["classes"]["cache_step"]["sent_count"] == 1
        assert stack.server.session_length(stack.session.session_id) == len(prompt) + 1


# ---------------------------------------------------------------------------
# scripted-weight oracle: blocks reduced to identity, head a shifted match


def scripted_stack(use_cache=True):
    cfg = ModelConfig(
        vocab_size=12, hidden_size=16, num_heads=2, num_blocks=3, mlp_hidden=8, max_context=32
    )
    front, middle, back = build_partitioned(cfg, PartitionSpec(1, 1, 1), lora=None, seed=0)
    for seg in (front, middle, back):
        for name, p in seg.named_parameters().items():
            if name.endswith(("attn.out.weight", "mlp.down.weight")):
                p.data = np.zeros_like(p.data)
    embed = np.zeros((12, 16))
    embed[np.arange(12), np.arange(12)] = 1.0
    front.embed.data = embed
    head = np.zeros((12, 16))
    for j in range(12):
        head[j, (j - 1) % 12] = 1.0
    back.head.data = head
    return InferenceStack(front, middle, back, use_cache=use_cache)


def test_scripted_model_counts_upward():
    with scripted_stack() as stack:
        result = stack.session.generate([5], GenerationConfig(max_new_tokens=8))
    assert result.tokens == [6, 7, 8, 9, 10, 11, 0, 1]


def test_stop_token_halts_before_emitting_it():
    with scripted_stack() as stack:
        result = stack.session.generate([5], GenerationConfig(max_new_tokens=8, stop_token=9))
    assert result.ok
    assert result.tokens == [6, 7, 8]
    with scripted_stack(use_cache=False) as stack:
        uncached = stack.session.generate([5], GenerationConfig(max_new_tokens=8, stop_token=9))
    assert uncached.tokens == [6, 7, 8]


# ---------------------------------------------------------------------------
# protocol violations


def test_server_rejects_desynced_and_unknown_sessions():
    middle = build_partitioned(CFG, PART, seed=0)[1]
    server = InferenceServer(middle)
    hidden = np.zeros((1, 4, CFG.hidden_size))
    with pytest.raises(ProtocolError, match="unknown session"):
        server.handle(CacheStepMsg(hidden[:, :1], position=0, session_id=9, step_id=0))
    server.handle(
        HiddenStateMsg(hidden, MaskMeta(4, 0, 1), (0, 1, 2, 3), step_id=9, client_id=0)
    )
    with pytest.raises(ProtocolError, match="positions must run from 4 to 4"):
        server.handle(CacheStepMsg(hidden[:, :1], position=7, session_id=9, step_id=1))
    with pytest.raises(ShapeError, match="got 1 positions for sequence length 2"):
        server.handle(CacheStepMsg(hidden[:, :2], position=4, session_id=9, step_id=1))
    reply = server.handle(CacheStepMsg(hidden[:, :1], position=4, session_id=9, step_id=1))
    assert reply.payload.shape == (1, 1, CFG.hidden_size)


def test_server_rejects_oversized_prefill_and_foreign_messages():
    small = ModelConfig(
        vocab_size=32, hidden_size=16, num_heads=2, num_blocks=3, mlp_hidden=24, max_context=5
    )
    middle = build_partitioned(small, PART, seed=0)[1]
    server = InferenceServer(middle)
    hidden = np.zeros((1, 6, small.hidden_size))
    with pytest.raises(ContextOverflowError):
        server.handle(
            HiddenStateMsg(hidden, MaskMeta(6, 0, 1), tuple(range(6)), step_id=1, client_id=0)
        )
    from fedsplit.wire import GradMsg

    with pytest.raises(ProtocolError):
        server.handle(GradMsg(hidden, step_id=0, client_id=0))


def test_server_rejects_a_prefill_whose_positions_skip_ahead():
    server = InferenceServer(build_partitioned(CFG, PART, seed=0)[1])
    hidden = np.zeros((1, 4, CFG.hidden_size))
    msg = HiddenStateMsg(hidden, MaskMeta(4, 0, 1), (0, 1, 2, 10**6), step_id=1, client_id=0)
    with pytest.raises(ProtocolError, match="positions must run from 0 to 3"):
        server.handle(msg)
    with pytest.raises(ProtocolError, match="unknown session"):
        server.session_length(1)


DEEP = ModelConfig(
    vocab_size=32, hidden_size=16, num_heads=2, num_blocks=4, mlp_hidden=24, max_context=48
)
DEEP_PART = PartitionSpec(1, 2, 1)


def _prefilled_server(middle):
    """A server holding session 9 over 4 positions of a two-block trunk."""
    server = InferenceServer(middle)
    prompt = np.random.default_rng(3).normal(size=(1, 4, DEEP.hidden_size))
    server.handle(HiddenStateMsg(prompt, MaskMeta(4, 0, 1), (0, 1, 2, 3), step_id=9, client_id=0))
    return server


STEP = np.random.default_rng(4).normal(size=(1, 2, DEEP.hidden_size))


@pytest.mark.parametrize(
    "msg, error, match",
    [
        (CacheStepMsg(STEP[:, :1], position=3, session_id=9, step_id=0), ProtocolError, None),
        (CacheStepMsg(STEP[:, :1], position=5, session_id=9, step_id=0), ProtocolError, None),
        (CacheStepMsg(STEP, position=4, session_id=9, step_id=0), ShapeError, None),
        (CacheStepMsg(np.concatenate([STEP[:, :1]] * 2), position=4, session_id=9, step_id=0),
         ShapeError, "does not extend"),
        (CacheStepMsg(STEP[:, :1], position=4, session_id=8, step_id=0),
         ProtocolError, "unknown session 8"),
    ],
    ids=["lagging", "skipped", "two-positions", "two-rows", "unknown-session"],
)
def test_a_rejected_decode_step_leaves_the_server_session_intact(msg, error, match):
    middle = build_partitioned(DEEP, DEEP_PART, seed=0)[1]
    good = CacheStepMsg(STEP[:, :1], position=4, session_id=9, step_id=0)
    expected = _prefilled_server(middle).handle(good)
    server = _prefilled_server(middle)
    with pytest.raises(error, match=match):
        server.handle(msg)
    assert server.session_length(9) == 4
    assert encode_message(server.handle(good)) == encode_message(expected)
    assert server.session_length(9) == 5


def greedy_logits(session, logits, steps):
    out = []
    for _ in range(steps):
        logits = session.decode_step(int(np.argmax(logits)))
        out.append(logits)
    return out


@pytest.mark.parametrize("transport", ["loopback", "tcp"])
def test_a_skipped_decode_step_closes_its_channel_and_spares_other_sessions(
    transport, monkeypatch
):
    captured = []
    monkeypatch.setattr(threading, "excepthook", captured.append)
    front, middle, back = build_partitioned(CFG, PART, seed=0)
    prompts = ([4, 9, 2], [17, 3, 8, 11])
    with InferenceStack(front, middle, back, transport=transport) as solo:
        first = solo.session.prefill(prompts[1])
        expected = [first] + greedy_logits(solo.session, first, 6)
    server = InferenceServer(middle)
    with InferenceStack(front, None, back, transport=transport, server=server) as other:
        first = other.session.prefill(prompts[1])
        got = [first] + greedy_logits(other.session, first, 3)
        with InferenceStack(front, None, back, transport=transport, server=server) as bad:
            bad.session.prefill(prompts[0])
            sid = bad.session.session_id
            skipped = CacheStepMsg(np.zeros((1, 1, CFG.hidden_size)), position=4,
                                   session_id=sid, step_id=0)
            with pytest.raises(ChannelClosedError):
                bad.session.channel.request(skipped, timeout=5.0)
            assert bad.server.session_length(sid) == 3
        got += greedy_logits(other.session, got[-1], 3)
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        np.testing.assert_array_equal(g, e)
    assert [a.exc_type for a in captured] == [ProtocolError]


@pytest.mark.parametrize("use_cache", [True, False])
def test_a_decode_step_past_the_context_leaves_the_session_as_it_was(use_cache):
    small = ModelConfig(
        vocab_size=32, hidden_size=16, num_heads=2, num_blocks=3, mlp_hidden=24, max_context=6
    )
    front, middle, back = build_partitioned(small, PART, seed=0)
    with InferenceStack(front, middle, back, use_cache=use_cache) as stack:
        session = stack.session
        session.prefill([1, 2, 3, 4, 5])
        session.decode_step(6)
        sent = session.channel.stats.snapshot()["totals"]["sent_count"]
        with pytest.raises(ContextOverflowError, match="max context 6"):
            session.decode_step(7)
        assert session.tokens == [1, 2, 3, 4, 5, 6]
        assert session.channel.stats.snapshot()["totals"]["sent_count"] == sent
        assert stack.server.session_length(session.session_id) == 6
        if use_cache:
            assert session.front_cache.length == session.back_cache.length == 6


def test_decode_overflow_returns_partial_result_with_error():
    small = ModelConfig(
        vocab_size=32, hidden_size=16, num_heads=2, num_blocks=3, mlp_hidden=24, max_context=6
    )
    front, middle, back = build_partitioned(small, PART, seed=0)
    with InferenceStack(front, middle, back) as stack:
        result = stack.session.generate([1, 2, 3, 4, 5], GenerationConfig(max_new_tokens=8))
    assert not result.ok
    assert "max context" in result.error
    assert len(result.tokens) == 2


def test_transport_failure_returns_partial_result_with_error():
    prompt = [2, 7, 1]
    with build_stack(seed=3) as reference_stack:
        clean = reference_stack.session.generate(prompt, GenerationConfig(max_new_tokens=6))
    with build_stack(seed=3) as stack:
        session = stack.session
        real_request = session.channel.request
        calls = []

        def flaky(msg, timeout=None):
            if len(calls) >= 2:
                raise ChannelClosedError("link dropped")
            calls.append(1)
            return real_request(msg, timeout)

        session.channel.request = flaky
        result = session.generate(prompt, GenerationConfig(max_new_tokens=6))
    assert not result.ok
    assert "link dropped" in result.error
    assert result.tokens == clean.tokens[:2]


@pytest.mark.parametrize("transport", ["loopback", "tcp"])
def test_an_undecodable_reply_returns_partial_result_with_error(transport):
    prompt = [1, 2, 3]
    with build_stack(seed=3) as reference_stack:
        clean = reference_stack.session.generate(prompt, GenerationConfig(max_new_tokens=6))
    with build_stack(seed=3, transport=transport) as stack:
        frames = stack.server_channel._frames
        real_send = frames.send_frame
        sent = []

        def corrupt_third_reply(frame):
            sent.append(frame)
            if len(sent) == 3:
                frame = b"XXXX" + frame[4:]
            real_send(frame)

        frames.send_frame = corrupt_third_reply
        result = stack.session.generate(prompt, GenerationConfig(max_new_tokens=6))
    assert not result.ok
    assert result.error.startswith("FrameError")
    assert "bad magic" in result.error
    assert result.tokens == clean.tokens[:2]


@pytest.mark.parametrize("transport", ["loopback", "tcp"])
@pytest.mark.parametrize(
    "kind, field",
    [
        (HiddenStateMsg, "step_id"),
        (CacheStepMsg, "session_id"),
        (CacheStepMsg, "position"),
        (CacheStepMsg, "step_id"),
    ],
)
def test_a_reply_stamped_for_another_session_or_position_is_rejected(transport, kind, field):
    prompt = [2, 7, 1]
    with build_stack(seed=3) as reference_stack:
        clean = reference_stack.session.generate(prompt, GenerationConfig(max_new_tokens=4))
    with build_stack(seed=3, transport=transport) as stack:
        send = stack.server_channel.send

        def restamp(reply):
            if isinstance(reply, kind):
                reply = dataclasses.replace(reply, **{field: getattr(reply, field) + 1})
            send(reply)

        stack.server_channel.send = restamp
        session = stack.session
        if kind is HiddenStateMsg:
            with pytest.raises(ProtocolError):
                session.prefill(prompt)
        else:
            logits = session.prefill(prompt)
            with pytest.raises(ProtocolError):
                session.decode_step(int(np.argmax(logits)))
        result = session.generate(prompt, GenerationConfig(max_new_tokens=4))
    assert not result.ok
    assert result.error.startswith("ProtocolError")
    assert result.tokens == clean.tokens[: 0 if kind is HiddenStateMsg else 1]


@pytest.mark.parametrize("transport", ["loopback", "tcp"])
def test_a_failed_exchange_drops_the_prefix_until_the_next_prefill(transport):
    prompt = [2, 7, 1]
    decode = GenerationConfig(max_new_tokens=4)
    with build_stack(seed=3, transport=transport, record_frames=True) as fresh:
        expected = fresh.session.generate(prompt, decode)
        expected_frames = (fresh.session.channel.sent_log, fresh.session.channel.recv_log)
    with build_stack(seed=3, transport=transport, record_frames=True) as stack:
        send = stack.server_channel.send
        restamped = []

        def restamp_first_decode_reply(reply):
            if isinstance(reply, CacheStepMsg) and not restamped:
                restamped.append(reply)
                reply = dataclasses.replace(reply, step_id=reply.step_id + 1)
            send(reply)

        stack.server_channel.send = restamp_first_decode_reply
        session = stack.session
        token = int(np.argmax(session.prefill(prompt)))
        with pytest.raises(ProtocolError, match="does not answer"):
            session.decode_step(token)
        with pytest.raises(ProtocolError, match="decode before prefill"):
            session.decode_step(token)
        sent, recv = len(session.channel.sent_log), len(session.channel.recv_log)
        result = session.generate(prompt, decode)
        frames = (session.channel.sent_log[sent:], session.channel.recv_log[recv:])
    assert expected.ok and result.ok
    assert result.tokens == expected.tokens
    assert frames == expected_frames


# ---------------------------------------------------------------------------
# communication profile


def per_step_bytes(stack, prompt, steps):
    session = stack.session
    logits = session.prefill(prompt)
    sizes = []
    for _ in range(steps):
        before = session.channel.stats.snapshot()["totals"]
        logits = session.decode_step(int(np.argmax(logits)))
        after = session.channel.stats.snapshot()["totals"]
        sizes.append(after["sent_bytes"] + after["recv_bytes"] - before["sent_bytes"] - before["recv_bytes"])
    return sizes


def test_cached_decode_bytes_independent_of_context_length():
    rng = np.random.default_rng(8)
    with build_stack() as short_stack:
        short = per_step_bytes(short_stack, random_prompt(rng, 6), 4)
    with build_stack() as long_stack:
        long = per_step_bytes(long_stack, random_prompt(rng, 24), 4)
    assert len(set(short)) == 1
    assert short == long


def test_uncached_decode_bytes_grow_with_context():
    rng = np.random.default_rng(9)
    prompt = random_prompt(rng, 8)
    with build_stack(use_cache=False) as stack:
        sizes = per_step_bytes(stack, prompt, 4)
    assert sizes == sorted(sizes) and sizes[0] < sizes[-1]
    per_position = np.diff(sizes)
    assert len(set(per_position.tolist())) == 1
    with build_stack() as cached_stack:
        cached = per_step_bytes(cached_stack, prompt, 4)
    assert max(cached) < min(sizes)


# ---------------------------------------------------------------------------
# concurrent sessions


def test_concurrent_sessions_share_a_server_without_mixing_caches():
    front, middle, back = build_partitioned(CFG, PART, seed=0)
    server = InferenceServer(middle)
    prompts = ([4, 9, 2], [17, 3, 8, 11])
    solo = []
    for prompt in prompts:
        with build_stack(seed=0) as stack:
            solo.append(manual_greedy(stack.session, prompt, 5))
    with InferenceStack(front, None, back, server=server) as s1:
        with InferenceStack(front, None, back, server=server) as s2:
            logits = [s1.session.prefill(prompts[0]), s2.session.prefill(prompts[1])]
            tokens = [[], []]
            sessions = [s1.session, s2.session]
            for _ in range(5):
                for i in (0, 1):
                    tok = int(np.argmax(logits[i]))
                    tokens[i].append(tok)
                    logits[i] = sessions[i].decode_step(tok)
    assert tokens[0] == solo[0]
    assert tokens[1] == solo[1]


def test_a_stack_needs_a_trunk_or_a_server():
    front, _, back = build_partitioned(CFG, PART, seed=0)
    before = set(threading.enumerate())
    with pytest.raises(ConfigError, match="either a trunk segment or a server is required"):
        InferenceStack(front, None, back)
    assert set(threading.enumerate()) - before == set()  # nothing was started


@pytest.mark.parametrize("transport", ["loopback", "tcp"])
def test_a_stack_cannot_reach_another_stacks_session(transport, monkeypatch):
    captured = []
    monkeypatch.setattr(threading, "excepthook", captured.append)
    front, middle, back = build_partitioned(CFG, PART, seed=0)
    prompt = [17, 3, 8, 11]
    with InferenceStack(front, middle, back, transport=transport) as solo:
        first = solo.session.prefill(prompt)
        expected = [first] + greedy_logits(solo.session, first, 4)
    server = InferenceServer(middle)
    with InferenceStack(front, None, back, transport=transport, server=server) as a:
        sid = a.session.session_id
        got = [a.session.prefill(prompt)]
        with InferenceStack(front, None, back, transport=transport, server=server) as b:
            foreign = CacheStepMsg(np.zeros((1, 1, CFG.hidden_size)), position=len(prompt),
                                   session_id=sid, step_id=0)
            with pytest.raises(ChannelClosedError):
                b.session.channel.request(foreign, timeout=5.0)
            with pytest.raises(ProtocolError, match="unknown session"):
                server.session_length(sid)
        assert a.server.session_length(sid) == len(prompt)
        got += greedy_logits(a.session, got[-1], 4)
    with pytest.raises(ProtocolError, match="unknown session"):
        server.session_length(sid)
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        np.testing.assert_array_equal(g, e)
    assert [(c.exc_type, str(c.exc_value)) for c in captured] == [
        (ProtocolError, f"decode step for unknown session {sid}")
    ]


def test_tcp_generation_matches_loopback():
    prompt = [6, 2, 9, 14]
    cfg = GenerationConfig(max_new_tokens=6)
    with build_stack(seed=4) as loop_stack:
        loop = loop_stack.session.generate(prompt, cfg)
    with build_stack(seed=4, transport="tcp") as tcp_stack:
        tcp = tcp_stack.session.generate(prompt, cfg)
    assert loop.ok and tcp.ok
    assert loop.tokens == tcp.tokens


def test_generation_result_flags():
    assert GenerationResult([1, 2]).ok
    assert not GenerationResult([1], error="boom").ok
