"""Wire-format conformance: mask compression, frame codec, traffic counters."""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsplit.errors import FrameError, ShapeError
from fedsplit.wire import (
    CLASS_GRAD,
    CLASS_HIDDEN,
    HEADER,
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
