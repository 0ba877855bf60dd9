"""Binary wire format for the split-training relay.

Every message travels as one frame:

    magic "FSWP" | version u8 | class u8 | body_len u64 LE | body

Integers are unsigned 64-bit little-endian; tensor scalars are little-endian
IEEE floats whose per-tensor width byte is 8 (float64, the default) or 2
(float16, an opt-in lossy mode for bandwidth studies). Decoding is strict:
bad magic, unknown class, truncated bodies, trailing bytes, or non-finite
payloads raise ``FrameError`` carrying the byte offset of the problem.

Attention masks never travel dense. A batch's causal-plus-left-padding mask
is summarized by ``MaskMeta`` (sequence length, pad length, batch size); the
uniform-pad encoding is exactly 24 bytes regardless of how large the dense
(batch, seq, seq) mask it replaces would be.
"""

from __future__ import annotations

import struct
import threading
from dataclasses import dataclass

import numpy as np

from .errors import FrameError, ShapeError
from .tensor import causal_mask

MAGIC = b"FSWP"
VERSION = 1
HEADER = struct.Struct("<4sBBQ")
_U64 = struct.Struct("<Q")
_PAD_SENTINEL = 2**64 - 1

CLASS_HIDDEN = 1
CLASS_GRAD = 2
CLASS_CACHE = 3
CLASS_NAMES = {CLASS_HIDDEN: "hidden_state", CLASS_GRAD: "grad", CLASS_CACHE: "cache_step"}


# ---------------------------------------------------------------------------
# mask metadata


@dataclass(frozen=True)
class MaskMeta:
    """Compact description of a causal mask with left padding.

    Position ``i`` may attend to key ``j`` iff ``pad <= j <= i``. ``pad_len``
    is an int when every sample shares one pad length, or a per-sample tuple.
    """

    seq_len: int
    pad_len: int | tuple[int, ...]
    batch: int

    def __post_init__(self):
        if self.seq_len < 1 or self.batch < 1:
            raise ShapeError("seq_len and batch must be positive")
        pad = self.pad_len
        if isinstance(pad, (int, np.integer)):
            object.__setattr__(self, "pad_len", int(pad))
            pads = (int(pad),) * self.batch
        else:
            pads = tuple(int(p) for p in pad)
            if len(pads) != self.batch:
                raise ShapeError(f"got {len(pads)} pad lengths for batch {self.batch}")
            if all(p == pads[0] for p in pads):
                object.__setattr__(self, "pad_len", pads[0])
            else:
                object.__setattr__(self, "pad_len", pads)
        for p in pads:
            if not 0 <= p < self.seq_len:
                raise ShapeError(f"pad length {p} out of range for seq_len {self.seq_len}")

    @property
    def uniform(self) -> bool:
        return isinstance(self.pad_len, int)

    @property
    def pads(self) -> tuple[int, ...]:
        if self.uniform:
            return (self.pad_len,) * self.batch
        return self.pad_len

    def wire_size(self) -> int:
        return 24 if self.uniform else 24 + 8 * self.batch

    def dense_mask_bytes(self, scalar_width: int = 8) -> int:
        return self.batch * self.seq_len * self.seq_len * scalar_width


def reconstruct_mask(meta: MaskMeta) -> np.ndarray:
    """Dense additive mask: 0 where attention is allowed, -inf elsewhere."""
    return np.where(causal_mask(meta.batch, meta.seq_len, meta.pads), 0.0, -np.inf)


def compress_mask(mask: np.ndarray) -> MaskMeta:
    """Recover MaskMeta from a dense additive mask.

    Raises ShapeError when the mask is not in the causal-plus-left-padding
    family (the only family this protocol transmits).
    """
    arr = np.asarray(mask, dtype=np.float64)
    if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
        raise ShapeError(f"dense mask must be (batch, seq, seq), got {arr.shape}")
    batch, seq, _ = arr.shape
    zero = arr == 0.0
    neginf = np.isneginf(arr)
    if not np.all(zero | neginf):
        raise ShapeError("mask entries must be exactly 0 or -inf")
    pads = []
    for b in range(batch):
        last_row = zero[b, seq - 1]
        pad = int(seq - last_row.sum())
        if pad >= seq:
            raise ShapeError(f"sample {b} blocks every key; not a causal-left-pad mask")
        pads.append(pad)
    meta = MaskMeta(seq, tuple(pads), batch)
    if not np.array_equal(reconstruct_mask(meta), arr):
        raise ShapeError("mask is not in the causal-plus-left-padding family")
    return meta


# ---------------------------------------------------------------------------
# messages


@dataclass
class HiddenStateMsg:
    """Hidden states crossing a cut during training or prefill."""

    payload: np.ndarray
    mask_meta: MaskMeta
    positions: tuple[int, ...]
    step_id: int
    client_id: int

    wire_class = CLASS_HIDDEN


@dataclass
class GradMsg:
    """Gradient of the loss with respect to a previously sent hidden state."""

    payload: np.ndarray
    step_id: int
    client_id: int

    wire_class = CLASS_GRAD


@dataclass
class CacheStepMsg:
    """Single-position hidden state for one decode step of a cached session."""

    payload: np.ndarray
    position: int
    session_id: int
    step_id: int

    wire_class = CLASS_CACHE


Message = HiddenStateMsg | GradMsg | CacheStepMsg


# ---------------------------------------------------------------------------
# encoding


def _encode_u64(out: bytearray, value: int) -> None:
    if value < 0 or value > 2**64 - 1:
        raise ShapeError(f"integer {value} does not fit in u64")
    out += _U64.pack(value)


def _encode_tensor(out: bytearray, arr: np.ndarray, scalar_width: int) -> None:
    if scalar_width not in (8, 2):
        raise ShapeError(f"unsupported scalar width {scalar_width}")
    data = np.asarray(arr, dtype=np.float64)
    if not np.all(np.isfinite(data)):
        raise ShapeError("refusing to encode a non-finite tensor payload")
    out.append(scalar_width)
    _encode_u64(out, data.ndim)
    for dim in data.shape:
        _encode_u64(out, dim)
    dtype = "<f8" if scalar_width == 8 else "<f2"
    out += np.ascontiguousarray(data, dtype=dtype).tobytes()


def _encode_mask_meta(out: bytearray, meta: MaskMeta) -> None:
    _encode_u64(out, meta.seq_len)
    if meta.uniform:
        _encode_u64(out, meta.pad_len)
        _encode_u64(out, meta.batch)
    else:
        _encode_u64(out, _PAD_SENTINEL)
        _encode_u64(out, meta.batch)
        for p in meta.pads:
            _encode_u64(out, p)


def encode_message(msg: Message, scalar_width: int = 8) -> bytes:
    body = bytearray()
    if isinstance(msg, HiddenStateMsg):
        _encode_u64(body, msg.step_id)
        _encode_u64(body, msg.client_id)
        _encode_mask_meta(body, msg.mask_meta)
        _encode_u64(body, len(msg.positions))
        for p in msg.positions:
            _encode_u64(body, p)
        _encode_tensor(body, msg.payload, scalar_width)
    elif isinstance(msg, GradMsg):
        _encode_u64(body, msg.step_id)
        _encode_u64(body, msg.client_id)
        _encode_tensor(body, msg.payload, scalar_width)
    elif isinstance(msg, CacheStepMsg):
        _encode_u64(body, msg.step_id)
        _encode_u64(body, msg.session_id)
        _encode_u64(body, msg.position)
        _encode_tensor(body, msg.payload, scalar_width)
    else:
        raise ShapeError(f"unknown message type {type(msg).__name__}")
    return HEADER.pack(MAGIC, VERSION, msg.wire_class, len(body)) + bytes(body)


# ---------------------------------------------------------------------------
# decoding


class _Reader:
    def __init__(self, blob: bytes, offset: int = 0):
        self.blob = blob
        self.pos = offset

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.blob):
            raise FrameError(f"frame truncated while reading {what}", self.pos)
        out = self.blob[self.pos : self.pos + n]
        self.pos += n
        return out

    def u64(self, what: str) -> int:
        return _U64.unpack(self.take(8, what))[0]

    def u8(self, what: str) -> int:
        return self.take(1, what)[0]


def parse_header(header: bytes) -> tuple[int, int]:
    """Validate a 14-byte frame header; returns (message class, body length)."""
    if len(header) < HEADER.size:
        raise FrameError("frame shorter than header", len(header))
    magic, version, wire_class, body_len = HEADER.unpack(header[: HEADER.size])
    if magic != MAGIC:
        raise FrameError(f"bad magic {magic!r}", 0)
    if version != VERSION:
        raise FrameError(f"unsupported protocol version {version}", 4)
    if wire_class not in CLASS_NAMES:
        raise FrameError(f"unknown message class {wire_class}", 5)
    return wire_class, body_len


def _decode_tensor(r: _Reader) -> np.ndarray:
    width_at = r.pos
    width = r.u8("tensor scalar width")
    if width not in (8, 2):
        raise FrameError(f"unsupported tensor scalar width {width}", width_at)
    ndim = r.u64("tensor rank")
    if ndim > 8:
        raise FrameError(f"implausible tensor rank {ndim}", r.pos - 8)
    shape = tuple(r.u64("tensor dim") for _ in range(ndim))
    count = 1
    for dim in shape:
        count *= dim
    data_at = r.pos
    raw = r.take(count * width, "tensor data")
    dtype = "<f8" if width == 8 else "<f2"
    arr = np.frombuffer(raw, dtype=dtype).astype(np.float64).reshape(shape)
    if not np.all(np.isfinite(arr)):
        raise FrameError("non-finite value in tensor payload", data_at)
    return arr


def _decode_mask_meta(r: _Reader) -> MaskMeta:
    at = r.pos
    seq_len = r.u64("mask seq_len")
    pad = r.u64("mask pad_len")
    batch_at = r.pos
    batch = r.u64("mask batch")
    try:
        if pad == _PAD_SENTINEL:
            if batch > 2**20:
                raise FrameError(f"implausible mask batch {batch}", batch_at)
            pads = tuple(r.u64("mask per-sample pad") for _ in range(batch))
            return MaskMeta(seq_len, pads, batch)
        return MaskMeta(seq_len, pad, batch)
    except ShapeError as exc:
        raise FrameError(f"invalid mask metadata: {exc}", at) from exc


def decode_message(frame: bytes) -> Message:
    wire_class, body_len = parse_header(frame)
    if len(frame) - HEADER.size != body_len:
        raise FrameError(
            f"body length field says {body_len}, frame carries {len(frame) - HEADER.size}",
            6,
        )
    r = _Reader(frame, HEADER.size)
    if wire_class == CLASS_HIDDEN:
        step_id = r.u64("step id")
        client_id = r.u64("client id")
        meta = _decode_mask_meta(r)
        npos = r.u64("position count")
        if npos > 2**24:
            raise FrameError(f"implausible position count {npos}", r.pos - 8)
        positions = tuple(r.u64("position") for _ in range(npos))
        payload = _decode_tensor(r)
        msg: Message = HiddenStateMsg(payload, meta, positions, step_id=step_id, client_id=client_id)
    elif wire_class == CLASS_GRAD:
        step_id = r.u64("step id")
        client_id = r.u64("client id")
        payload = _decode_tensor(r)
        msg = GradMsg(payload, step_id=step_id, client_id=client_id)
    else:
        step_id = r.u64("step id")
        session_id = r.u64("session id")
        position = r.u64("cache position")
        payload = _decode_tensor(r)
        msg = CacheStepMsg(payload, position=position, session_id=session_id, step_id=step_id)
    if r.pos != len(frame):
        raise FrameError(f"{len(frame) - r.pos} trailing bytes after message body", r.pos)
    return msg


# ---------------------------------------------------------------------------
# traffic accounting


class CommStats:
    """Thread-safe per-message-class traffic counters.

    Counters only ever increase; ``snapshot`` returns a plain dict and
    ``delta`` subtracts an earlier snapshot for per-step reporting.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._counts = {
            name: {"sent_count": 0, "sent_bytes": 0, "recv_count": 0, "recv_bytes": 0}
            for name in CLASS_NAMES.values()
        }
        self._round_trips = 0

    def record_send(self, wire_class: int, nbytes: int) -> None:
        with self._lock:
            slot = self._counts[CLASS_NAMES[wire_class]]
            slot["sent_count"] += 1
            slot["sent_bytes"] += nbytes

    def record_recv(self, wire_class: int, nbytes: int) -> None:
        with self._lock:
            slot = self._counts[CLASS_NAMES[wire_class]]
            slot["recv_count"] += 1
            slot["recv_bytes"] += nbytes

    def record_round_trip(self) -> None:
        with self._lock:
            self._round_trips += 1

    def snapshot(self) -> dict:
        with self._lock:
            out = {name: dict(vals) for name, vals in self._counts.items()}
            totals = {
                "sent_bytes": sum(v["sent_bytes"] for v in out.values()),
                "recv_bytes": sum(v["recv_bytes"] for v in out.values()),
                "sent_count": sum(v["sent_count"] for v in out.values()),
                "recv_count": sum(v["recv_count"] for v in out.values()),
            }
            return {"classes": out, "totals": totals, "round_trips": self._round_trips}

    @staticmethod
    def delta(later: dict, earlier: dict) -> dict:
        classes = {}
        for name, vals in later["classes"].items():
            prev = earlier["classes"][name]
            classes[name] = {k: vals[k] - prev[k] for k in vals}
        totals = {k: later["totals"][k] - earlier["totals"][k] for k in later["totals"]}
        return {
            "classes": classes,
            "totals": totals,
            "round_trips": later["round_trips"] - earlier["round_trips"],
        }
