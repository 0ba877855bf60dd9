"""Binary wire format for the split-training relay.

Every message travels as one frame:

    magic "FSWP" | version u8 | class u8 | body_len u64 LE | body

Each protocol rule is written once. ``LAYOUT`` lists each message class's
fields in wire order, payload last, and both codecs walk it. A reply is its
request with a new payload (``reply_to``), so it echoes the request's
``stamp``: its class and every field but the payload.
``MessageChannel.wait_reply`` raises ``ProtocolError`` on a reply that does not.

Integers are unsigned 64-bit little-endian; tensor scalars are little-endian
IEEE float64, behind a per-tensor width byte that is always 8. Decoding is
strict: bad magic, unknown class, any other scalar width, truncated bodies,
trailing bytes, non-finite payloads, or a payload whose rows differ from its
mask's batch raise ``FrameError`` carrying the byte offset of the problem.
Decoding allocates in proportion to the frame's size, whatever counts it claims.

Attention masks never travel dense. A batch's causal-plus-left-padding mask
is summarized by ``MaskMeta`` (sequence length, pad length, batch size); the
uniform-pad encoding is exactly 24 bytes regardless of how large the dense
(batch, seq, seq) mask it replaces would be.
"""

from __future__ import annotations

import functools
import math
import operator
import struct
import threading
from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from .errors import FrameError, ShapeError
from .tensor import causal_mask

MAGIC = b"FSWP"
VERSION = 1
HEADER = struct.Struct("<4sBBQ")
_U64 = struct.Struct("<Q")
_PAD_SENTINEL = 2**64 - 1
SCALAR_WIDTH = 8  # bytes per tensor scalar: float64

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
        shared = isinstance(self.pad_len, (int, np.integer))  # checked once, never expanded
        pads = (int(self.pad_len),) if shared else tuple(int(p) for p in self.pad_len)
        if not shared and len(pads) != self.batch:
            raise ShapeError(f"got {len(pads)} pad lengths for batch {self.batch}")
        object.__setattr__(self, "pad_len", pads[0] if len(set(pads)) == 1 else pads)
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
# layout, replies and echoes


# Every field is a u64 except those with a codec of their own in ``_CODECS``.
LAYOUT = {
    HiddenStateMsg: ("step_id", "client_id", "mask_meta", "positions", "payload"),
    GradMsg: ("step_id", "client_id", "payload"),
    CacheStepMsg: ("step_id", "session_id", "position", "payload"),
}


def reply_to(request: Message, payload: np.ndarray) -> Message:
    """The reply to ``request``: the request itself with a new payload."""
    return replace(request, payload=payload)


def stamp(msg: Message) -> tuple:
    """What a reply must echo of its request: class and every field but the payload."""
    return (type(msg).__name__, *(getattr(msg, name) for name in LAYOUT[type(msg)][:-1]))


# ---------------------------------------------------------------------------
# field codecs


def _encode_u64(out: bytearray, *values: int) -> None:
    for value in values:
        if value < 0 or value > 2**64 - 1:
            raise ShapeError(f"integer {value} does not fit in u64")
        out += _U64.pack(value)


def _encode_tensor(out: bytearray, arr: np.ndarray) -> None:
    data = np.asarray(arr, dtype=np.float64)
    if not np.all(np.isfinite(data)):
        raise ShapeError("refusing to encode a non-finite tensor payload")
    out.append(SCALAR_WIDTH)
    _encode_u64(out, data.ndim, *data.shape)
    out += np.ascontiguousarray(data, dtype="<f8").tobytes()


def _encode_mask_meta(out: bytearray, meta: MaskMeta) -> None:
    if meta.uniform:
        _encode_u64(out, meta.seq_len, meta.pad_len, meta.batch)
    else:
        _encode_u64(out, meta.seq_len, _PAD_SENTINEL, meta.batch, *meta.pads)


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


# A decoder reads one field and sees the fields read before it, so a payload's
# rows are held to its mask's batch before any row is read.


def _decode_tensor(r: _Reader, fields: dict) -> np.ndarray:
    width_at = r.pos
    width = r.take(1, "tensor scalar width")[0]
    if width != SCALAR_WIDTH:
        raise FrameError(f"unsupported tensor scalar width {width}", width_at)
    ndim = r.u64("tensor rank")
    if ndim > 8:
        raise FrameError(f"implausible tensor rank {ndim}", r.pos - 8)
    shape_at = r.pos
    shape = tuple(r.u64("tensor dim") for _ in range(ndim))
    meta = fields.get("mask_meta")
    if meta is not None and shape[:1] != (meta.batch,):
        raise FrameError(f"payload shape {shape} does not match mask batch {meta.batch}", shape_at)
    data_at = r.pos
    raw = r.take(math.prod(shape) * SCALAR_WIDTH, "tensor data")
    try:
        arr = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)
    except ValueError as exc:  # an empty tensor whose other dims overflow
        raise FrameError(f"implausible tensor shape {shape}: {exc}", shape_at) from exc
    if not np.all(np.isfinite(arr)):
        raise FrameError("non-finite value in tensor payload", data_at)
    return arr


def _decode_mask_meta(r: _Reader, fields: dict) -> MaskMeta:
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


def _decode_positions(r: _Reader, fields: dict) -> tuple[int, ...]:
    count = r.u64("position count")
    if count > 2**24:
        raise FrameError(f"implausible position count {count}", r.pos - 8)
    return tuple(r.u64("position") for _ in range(count))


def _u64_codec(name: str):
    label = "cache position" if name == "position" else name.replace("_", " ")
    return _encode_u64, lambda r, fields: r.u64(label)


_CODECS = {
    "mask_meta": (_encode_mask_meta, _decode_mask_meta),
    "positions": (lambda out, p: _encode_u64(out, len(p), *p), _decode_positions),
    "payload": (_encode_tensor, _decode_tensor),
}
# (name, encoder, decoder) of each field in wire order, per message class
_PLANS = {
    cls: tuple((name, *(_CODECS.get(name) or _u64_codec(name))) for name in fields)
    for cls, fields in LAYOUT.items()
}
_BY_WIRE_CLASS = {cls.wire_class: cls for cls in LAYOUT}


# ---------------------------------------------------------------------------
# frames


def encode_message(msg: Message) -> bytes:
    plan = _PLANS.get(type(msg))
    if plan is None:
        raise ShapeError(f"unknown message type {type(msg).__name__}")
    body = bytearray()
    for name, encode, _ in plan:
        encode(body, getattr(msg, name))
    return HEADER.pack(MAGIC, VERSION, msg.wire_class, len(body)) + bytes(body)


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


def decode_message(frame: bytes) -> Message:
    wire_class, body_len = parse_header(frame)
    if len(frame) - HEADER.size != body_len:
        raise FrameError(
            f"body length field says {body_len}, frame carries {len(frame) - HEADER.size}",
            6,
        )
    cls = _BY_WIRE_CLASS[wire_class]
    r = _Reader(frame, HEADER.size)
    fields: dict = {}
    for name, _, decode in _PLANS[cls]:
        fields[name] = decode(r, fields)
    if r.pos != len(frame):
        raise FrameError(f"{len(frame) - r.pos} trailing bytes after message body", r.pos)
    return cls(**fields)


# ---------------------------------------------------------------------------
# traffic accounting


class CommStats:
    """Thread-safe per-message-class traffic counters.

    Counters only ever increase; ``snapshot`` returns a plain dict,
    ``delta`` subtracts an earlier snapshot for per-step reporting and
    ``sum`` adds the snapshots of several channels for run-level reporting.
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
    def _combine(a: dict, b: dict, op) -> dict:
        return {
            "classes": {
                name: {k: op(vals[k], b["classes"][name][k]) for k in vals}
                for name, vals in a["classes"].items()
            },
            "totals": {k: op(a["totals"][k], b["totals"][k]) for k in a["totals"]},
            "round_trips": op(a["round_trips"], b["round_trips"]),
        }

    @staticmethod
    def delta(later: dict, earlier: dict) -> dict:
        """Counters accrued between two snapshots of one channel."""
        return CommStats._combine(later, earlier, operator.sub)

    @staticmethod
    def sum(snapshots: Iterable[dict]) -> dict:
        """Snapshots of several channels added into one."""
        return functools.reduce(
            lambda a, b: CommStats._combine(a, b, operator.add), snapshots, CommStats().snapshot()
        )
