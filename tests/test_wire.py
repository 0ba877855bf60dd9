"""Wire-format conformance: mask compression, frame codec, traffic counters."""

import dataclasses
import hashlib
import resource
import threading
from contextlib import contextmanager
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fedsplit.errors import FrameError, ShapeError
from fedsplit.wire import (
    CLASS_GRAD,
    CLASS_HIDDEN,
    HEADER,
    LAYOUT,
    MAGIC,
    CacheStepMsg,
    CommStats,
    GradMsg,
    HiddenStateMsg,
    MaskMeta,
    compress_mask,
    decode_message,
    encode_message,
    parse_header,
    reconstruct_mask,
    reply_to,
    stamp,
)


def sample_hidden(rng, batch=2, seq=5, dim=4, step=7, client=1, pads=0):
    return HiddenStateMsg(
        payload=rng.standard_normal((batch, seq, dim)),
        mask_meta=MaskMeta(seq, pads, batch),
        positions=tuple(range(seq)),
        step_id=step,
        client_id=client,
    )


# ---------------------------------------------------------------------------
# mask metadata


def test_mask_meta_uniform_is_24_bytes():
    meta = MaskMeta(128, 0, 1)
    assert meta.wire_size() == 24
    assert MaskMeta(128, 17, 64).wire_size() == 24


def test_mask_meta_dense_ratio():
    meta = MaskMeta(128, 0, 4)
    assert meta.dense_mask_bytes(8) == 4 * 128 * 128 * 8
    assert meta.wire_size() / meta.dense_mask_bytes(8) == 24 / (4 * 128 * 128 * 8)


def test_mask_meta_per_sample_collapses_when_uniform():
    meta = MaskMeta(8, (3, 3), 2)
    assert meta.uniform and meta.pad_len == 3
    ragged = MaskMeta(8, (1, 2), 2)
    assert not ragged.uniform
    assert ragged.wire_size() == 24 + 16


def test_mask_meta_validates_ranges():
    with pytest.raises(ShapeError):
        MaskMeta(4, 4, 1)
    with pytest.raises(ShapeError):
        MaskMeta(4, -1, 1)
    with pytest.raises(ShapeError):
        MaskMeta(4, (0, 1, 2), 2)
    with pytest.raises(ShapeError):
        MaskMeta(0, 0, 1)


def test_a_shared_pad_is_checked_once_not_per_row():
    meta = MaskMeta(8, 3, 2**40)  # a per-row tuple this long would not fit in memory
    assert meta.uniform and meta.pad_len == 3 and meta.wire_size() == 24
    with pytest.raises(ShapeError):
        MaskMeta(8, 8, 2**40)


def test_reconstruct_single_position_is_all_allowed():
    np.testing.assert_array_equal(reconstruct_mask(MaskMeta(1, 0, 1)), np.zeros((1, 1, 1)))


def test_reconstruct_blocks_pad_columns_everywhere():
    dense = reconstruct_mask(MaskMeta(4, 2, 1))[0]
    assert np.all(np.isneginf(dense[:, :2]))
    for i in range(4):
        for j in range(2, 4):
            assert (dense[i, j] == 0.0) == (j <= i)


def test_compress_roundtrip_and_family_rejection():
    meta = MaskMeta(6, (0, 2, 5), 3)
    assert compress_mask(reconstruct_mask(meta)) == meta
    dense = reconstruct_mask(MaskMeta(5, 1, 2))
    dense[0, 4, 2] = -np.inf  # poke a hole below the diagonal
    with pytest.raises(ShapeError):
        compress_mask(dense)
    with pytest.raises(ShapeError):
        compress_mask(np.full((1, 3, 3), 0.5))


@settings(max_examples=40, deadline=None)
@given(
    seq=st.integers(1, 12),
    batch=st.integers(1, 4),
    data=st.data(),
)
def test_compress_reconstruct_property(seq, batch, data):
    pads = tuple(data.draw(st.integers(0, seq - 1)) for _ in range(batch))
    meta = MaskMeta(seq, pads, batch)
    again = compress_mask(reconstruct_mask(meta))
    assert again == meta
    assert again.wire_size() <= 24 + 8 * batch


# ---------------------------------------------------------------------------
# frame codec


def test_hidden_roundtrip_bit_exact():
    rng = np.random.default_rng(0)
    msg = sample_hidden(rng, pads=(0, 2))
    frame = encode_message(msg)
    back = decode_message(frame)
    assert type(back) is type(msg)
    assert encode_message(back) == frame


def test_grad_and_cache_roundtrip():
    rng = np.random.default_rng(1)
    grad = GradMsg(rng.standard_normal((2, 5, 4)), step_id=3, client_id=2)
    cache = CacheStepMsg(rng.standard_normal((1, 1, 4)), position=9, session_id=4, step_id=1)
    for msg in (grad, cache):
        frame = encode_message(msg)
        back = decode_message(frame)
        assert type(back) is type(msg)
        assert encode_message(back) == frame


def test_scalar_payload_values_are_exact():
    # adversarial float values must survive the trip bit for bit
    vals = np.array([[0.1, -0.0, 1e-308, 1.7976931348623157e308, 3.141592653589793]])
    msg = GradMsg(vals, step_id=0, client_id=0)
    back = decode_message(encode_message(msg))
    assert back.payload.tobytes() == vals.tobytes()


def test_header_errors_carry_offsets():
    rng = np.random.default_rng(3)
    frame = bytearray(encode_message(sample_hidden(rng)))

    bad_magic = bytes(b"XXXX") + bytes(frame[4:])
    with pytest.raises(FrameError) as err:
        decode_message(bad_magic)
    assert err.value.offset == 0

    bad_version = bytes(frame[:4]) + bytes([99]) + bytes(frame[5:])
    with pytest.raises(FrameError) as err:
        decode_message(bad_version)
    assert err.value.offset == 4

    bad_class = bytes(frame[:5]) + bytes([77]) + bytes(frame[6:])
    with pytest.raises(FrameError) as err:
        decode_message(bad_class)
    assert err.value.offset == 5


def test_truncation_and_trailing_bytes_rejected():
    rng = np.random.default_rng(4)
    frame = encode_message(sample_hidden(rng))
    with pytest.raises(FrameError):
        decode_message(frame[: HEADER.size - 2])
    with pytest.raises(FrameError):
        decode_message(frame[:-3])
    with pytest.raises(FrameError):
        decode_message(frame + b"\x00")


def test_truncated_body_with_patched_length_reports_inner_offset():
    rng = np.random.default_rng(5)
    frame = bytearray(encode_message(sample_hidden(rng)))
    cut = 40
    short = frame[: HEADER.size + cut]
    short[6:14] = cut.to_bytes(8, "little")
    with pytest.raises(FrameError) as err:
        decode_message(bytes(short))
    assert err.value.offset >= HEADER.size


def test_non_finite_payload_rejected_on_encode():
    bad = np.array([[1.0, np.inf]])
    with pytest.raises(ShapeError):
        encode_message(GradMsg(bad, step_id=0, client_id=0))


def test_non_finite_payload_rejected_on_decode():
    msg = GradMsg(np.array([[1.0, 2.0]]), step_id=0, client_id=0)
    frame = bytearray(encode_message(msg))
    inf = np.array(np.inf, dtype="<f8").tobytes()
    frame[-8:] = inf
    with pytest.raises(FrameError):
        decode_message(bytes(frame))


def test_negative_ids_do_not_encode():
    with pytest.raises(ShapeError):
        encode_message(GradMsg(np.zeros((1, 1)), step_id=-1, client_id=0))


def test_unknown_scalar_width_rejected():
    msg = GradMsg(np.zeros((1, 1)), step_id=0, client_id=0)
    frame = bytearray(encode_message(msg))
    # width byte sits right after step and client ids in a grad body
    assert frame[HEADER.size + 16] == 8
    for width in (3, 2):  # 2 was the float16 width
        frame[HEADER.size + 16] = width
        with pytest.raises(FrameError):
            decode_message(bytes(frame))


def test_parse_header_reads_class_and_length():
    rng = np.random.default_rng(6)
    hidden_frame = encode_message(sample_hidden(rng))
    wire_class, body_len = parse_header(hidden_frame[:HEADER.size])
    assert wire_class == CLASS_HIDDEN
    assert body_len == len(hidden_frame) - HEADER.size
    grad_frame = encode_message(GradMsg(np.zeros((1, 2)), step_id=0, client_id=0))
    assert parse_header(grad_frame[:HEADER.size])[0] == CLASS_GRAD
    assert MAGIC == grad_frame[:4]


@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from(["hidden", "grad", "cache"]),
    seed=st.integers(0, 2**31),
    batch=st.integers(1, 3),
    seq=st.integers(1, 6),
    dim=st.integers(1, 5),
)
def test_roundtrip_property(kind, seed, batch, seq, dim):
    rng = np.random.default_rng(seed)
    payload = rng.standard_normal((batch, seq, dim))
    if kind == "hidden":
        pads = tuple(int(rng.integers(0, seq)) for _ in range(batch))
        msg = HiddenStateMsg(
            payload, MaskMeta(seq, pads, batch), tuple(range(seq)),
            step_id=int(rng.integers(0, 2**63)), client_id=int(rng.integers(0, 100)),
        )
    elif kind == "grad":
        msg = GradMsg(payload, step_id=int(rng.integers(0, 2**63)), client_id=3)
    else:
        msg = CacheStepMsg(
            payload[:, :1], position=int(rng.integers(0, 1000)),
            session_id=int(rng.integers(0, 2**63)), step_id=0,
        )
    frame = encode_message(msg)
    back = decode_message(frame)
    assert type(back) is type(msg)
    assert encode_message(back) == frame


def test_layout_lists_every_field_of_every_message_class_once():
    for cls, fields in LAYOUT.items():
        assert sorted(fields) == sorted(f.name for f in dataclasses.fields(cls)), cls
        assert fields[-1] == "payload", cls


def test_encoding_a_type_outside_the_layout_is_a_shape_error():
    class Unlisted(GradMsg):
        pass

    with pytest.raises(ShapeError, match="unknown message type Unlisted"):
        encode_message(Unlisted(np.zeros((1, 1, 2)), step_id=0, client_id=0))


def _payload(*shape):
    n = int(np.prod(shape))
    return (np.arange(n, dtype=np.float64) - n / 3).reshape(shape) / 8


# Length and sha256 of one frame per message shape. Wire version 1 fixes these
# bytes, so a reordered or relabelled ``LAYOUT`` row fails here.
PINNED_FRAMES = {
    "hidden_uniform": (
        HiddenStateMsg(
            _payload(2, 3, 4), MaskMeta(3, 1, 2), (0, 1, 2), step_id=2**40, client_id=5
        ),
        311, "8789f6ed8c681f32466c993b0879a19d762efb9a1583c057ab0516d6ab5a5e09",
    ),
    "hidden_ragged": (
        HiddenStateMsg(
            _payload(3, 4, 2), MaskMeta(4, (0, 2, 3), 3), (4, 5, 6, 7), step_id=9, client_id=2**40
        ),
        343, "dcf9e6257ba1a62e767953f8436db15457fe0147776088526b94c80c4ab6d193",
    ),
    "grad": (
        GradMsg(_payload(2, 3, 4), step_id=2**40, client_id=5),
        255, "3662889d20b3b44d905e5048ec4c4f2107c82b31030a45d05fcb371664fecd51",
    ),
    "cache_step": (
        CacheStepMsg(_payload(1, 1, 4), position=7, session_id=3, step_id=2**40),
        103, "1523aac5a0660270e31621ccf9630a5cc37a996f4cef91df0ad3a35f791f5509",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_FRAMES))
def test_frames_are_pinned(name):
    msg, size, digest = PINNED_FRAMES[name]
    frame = encode_message(msg)
    assert (len(frame), hashlib.sha256(frame).hexdigest()) == (size, digest)
    assert encode_message(decode_message(frame)) == frame


def test_a_payload_whose_rows_differ_from_its_mask_batch_is_a_frame_error():
    msg = HiddenStateMsg(_payload(2, 3, 4), MaskMeta(3, 0, 3), (0, 1, 2), step_id=0, client_id=0)
    frame = encode_message(msg)
    with pytest.raises(FrameError, match="mask batch 3") as err:
        decode_message(frame)
    # step and client ids, mask, position count and positions, width byte, rank
    assert err.value.offset == HEADER.size + 16 + 24 + 8 + 24 + 1 + 8


def test_a_mask_seq_len_may_differ_from_the_payload_positions():
    msg = HiddenStateMsg(_payload(1, 4, 2), MaskMeta(128, 0, 1), (0, 1, 2, 3), step_id=0, client_id=0)
    frame = encode_message(msg)
    assert encode_message(decode_message(frame)) == frame


def test_an_empty_tensor_with_an_overflowing_shape_is_a_frame_error():
    frame = bytearray(encode_message(GradMsg(np.zeros((0, 1)), step_id=0, client_id=0)))
    dims_at = HEADER.size + 16 + 1 + 8
    frame[dims_at + 8 : dims_at + 16] = (2**63).to_bytes(8, "little")
    with pytest.raises(FrameError, match="implausible tensor shape") as err:
        decode_message(bytes(frame))
    assert err.value.offset == dims_at


def test_a_reply_is_its_request_with_a_new_payload():
    for msg, _, _ in PINNED_FRAMES.values():
        reply = reply_to(msg, -msg.payload)
        assert type(reply) is type(msg) and stamp(reply) == stamp(msg)
        np.testing.assert_array_equal(reply.payload, -msg.payload)


# ---------------------------------------------------------------------------
# fuzz: every mutated or truncated frame decodes or raises FrameError


FUZZ_FRAMES = [
    encode_message(msg)
    for msg in (
        HiddenStateMsg(_payload(2, 2, 2), MaskMeta(2, 1, 2), (0, 1), step_id=3, client_id=1),
        HiddenStateMsg(_payload(2, 2, 2), MaskMeta(2, (0, 1), 2), (0, 1), step_id=3, client_id=1),
        GradMsg(_payload(2, 2, 2), step_id=3, client_id=1),
        CacheStepMsg(_payload(1, 1, 2), position=4, session_id=2, step_id=3),
    )
]


@contextmanager
def address_space_headroom(extra_bytes):
    """Cap this process's address space at its current size plus ``extra_bytes``,
    so a decoder that a frame talks into a huge allocation fails fast instead of
    taking the machine's memory."""
    try:
        with open("/proc/self/status") as fh:
            size_kb = next(int(line.split()[1]) for line in fh if line.startswith("VmSize:"))
    except (OSError, StopIteration):
        yield  # no way to size the cap on this platform
        return
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = size_kb * 1024 + extra_bytes
    if hard != resource.RLIM_INFINITY:
        cap = min(cap, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


U64 = st.one_of(st.integers(0, 2**64 - 1), st.integers(0, 63).map(lambda k: 1 << k))


@settings(
    max_examples=400, derandomize=True, database=None, deadline=timedelta(milliseconds=500),
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    index=st.integers(0, len(FUZZ_FRAMES) - 1),
    # (word, shift, value): overwrite the u64 at body offset 8 * word + shift;
    # tensor fields sit one byte past the 8-byte grid, behind the width byte
    words=st.lists(st.tuples(st.integers(0, 16), st.integers(0, 1), U64), max_size=3),
    flips=st.lists(st.tuples(st.integers(0, 200), st.integers(0, 255)), max_size=2),
    cut=st.none() | st.integers(0, 200),
    fix_length=st.booleans(),
)
def test_a_mutated_frame_decodes_or_raises_frame_error(index, words, flips, cut, fix_length):
    frame = bytearray(FUZZ_FRAMES[index])
    for word, shift, value in words:
        at = HEADER.size + 8 * word + shift
        frame[at : at + 8] = value.to_bytes(8, "little")
    for at, byte in flips:
        frame[at % len(frame)] = byte
    if cut is not None:
        frame = frame[:cut]
    if fix_length and len(frame) >= HEADER.size:
        frame[6:14] = (len(frame) - HEADER.size).to_bytes(8, "little")
    with address_space_headroom(512 * 2**20):
        try:
            decode_message(bytes(frame))
        except FrameError:
            pass


# ---------------------------------------------------------------------------
# traffic counters


def test_comm_stats_accumulate_and_delta():
    stats = CommStats()
    stats.record_send(CLASS_HIDDEN, 100)
    before = stats.snapshot()
    stats.record_recv(CLASS_HIDDEN, 220)
    stats.record_send(CLASS_GRAD, 50)
    stats.record_round_trip()
    after = stats.snapshot()
    assert after["classes"]["hidden_state"]["sent_bytes"] == 100
    assert after["classes"]["hidden_state"]["recv_bytes"] == 220
    assert after["totals"]["sent_bytes"] == 150
    diff = CommStats.delta(after, before)
    assert diff["classes"]["grad"]["sent_bytes"] == 50
    assert diff["classes"]["hidden_state"]["sent_bytes"] == 0
    assert diff["round_trips"] == 1


def test_comm_stats_monotone_under_threads():
    stats = CommStats()

    def hammer():
        for _ in range(500):
            stats.record_send(CLASS_HIDDEN, 3)
            stats.record_recv(CLASS_GRAD, 2)

    threads = [threading.Thread(target=hammer) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    snap = stats.snapshot()
    assert snap["classes"]["hidden_state"]["sent_bytes"] == 8 * 500 * 3
    assert snap["classes"]["grad"]["recv_bytes"] == 8 * 500 * 2
