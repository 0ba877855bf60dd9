"""Autoregressive generation across the split with mirrored key/value caches.

A generation session prefills (one full-prompt hidden-state exchange) and
then ships exactly one token's hidden state per decode step in each
direction, while both sides extend block-local key/value caches. Both are one
exchange, whose reply must echo its session and first position. A cache entry
writes each step in place into buffers that double when full, so a decode
step copies no history except at the O(log context) growth points.
Turning the cache off makes every step recompute the whole prefix, which
reproduces the same tokens at a per-step cost that grows with context length;
the cached and uncached paths exist side by side so that equivalence is
checkable.

A session's state is the prefix it last sent. Every ``prefill`` starts over
with fresh caches on both sides (the server re-initialises the session's
cache on every hidden-state message), so one session, and one stack, serves
any number of prompts in turn.

Prefill-only work (cloze scoring) batches: ``prefill_batch`` takes any number
of prompts and sends those of one length as exchanges of up to
``MAX_PREFILL_ROWS`` rows. Equal lengths need no padding and every op works
per row, so each row's logits are bitwise the one-row prefill's.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import tensor as T
from .errors import (
    ChannelClosedError,
    ConfigError,
    ContextOverflowError,
    FrameError,
    ProtocolError,
    ShapeError,
)
from .model import SegmentModel
from .transport import MessageChannel, channel_pair, serve_channel
from .wire import CacheStepMsg, HiddenStateMsg, MaskMeta

_SESSION_IDS = itertools.count(1)

# Rows per batched prefill. With the default model (width 64, 4 heads, context
# 128) one exchange holds at most 1 MiB of hidden state and 8.4 MB of
# attention scores.
MAX_PREFILL_ROWS = 16


class _CacheEntry:
    """Append-only post-rotary key/value history for one block.

    Keys and values live in buffers with spare room on the position axis.
    An append writes in place just past the filled length and returns views
    of the filled prefix; a full buffer doubles, so a session of n positions
    copies its history O(log n) times rather than once per token. A view
    once returned is never written again: later appends only touch slots
    beyond it.
    """

    __slots__ = ("_k", "_v", "length")

    def __init__(self):
        self._k: np.ndarray | None = None
        self._v: np.ndarray | None = None
        self.length = 0

    def append(self, k_new: np.ndarray, v_new: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if k_new.shape != v_new.shape:
            raise ShapeError(f"key shape {k_new.shape} != value shape {v_new.shape}")
        start, end = self.length, self.length + k_new.shape[2]
        if self._k is None:
            self._k = np.empty(k_new.shape)
            self._v = np.empty(v_new.shape)
        else:
            if k_new.shape[:2] != self._k.shape[:2] or k_new.shape[3] != self._k.shape[3]:
                raise ShapeError(
                    f"cache append shape {k_new.shape} does not extend "
                    f"{self._k.shape[:2] + (start,) + self._k.shape[3:]}"
                )
            if end > self._k.shape[2]:
                self._k = self._grown(self._k, end)
                self._v = self._grown(self._v, end)
        self._k[:, :, start:end] = k_new
        self._v[:, :, start:end] = v_new
        self.length = end
        return self._k[:, :, :end], self._v[:, :, :end]

    def _grown(self, buf: np.ndarray, needed: int) -> np.ndarray:
        b, h, capacity, d = buf.shape
        out = np.empty((b, h, max(2 * capacity, needed), d))
        out[:, :, : self.length] = buf[:, :, : self.length]
        return out


class KVCache:
    """Per-block key/value history owned by one side of one session."""

    def __init__(self, num_blocks: int):
        if num_blocks < 1:
            raise ShapeError("a cache needs at least one block")
        self._entries = [_CacheEntry() for _ in range(num_blocks)]

    def entries_for(self, num_blocks: int) -> list[_CacheEntry]:
        if num_blocks != len(self._entries):
            raise ProtocolError(
                f"cache built for {len(self._entries)} blocks used with {num_blocks}"
            )
        return list(self._entries)

    @property
    def length(self) -> int:
        lengths = {entry.length for entry in self._entries}
        if len(lengths) != 1:
            raise ProtocolError(f"cache blocks disagree on length: {sorted(lengths)}")
        return lengths.pop()


@dataclass(frozen=True)
class GenerationConfig:
    """Decode policy for one generation call."""

    max_new_tokens: int = 16
    mode: str = "greedy"
    temperature: float = 1.0
    stop_token: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.max_new_tokens < 1:
            raise ConfigError("max_new_tokens must be at least 1")
        if self.mode not in ("greedy", "temperature"):
            raise ConfigError(f"decode mode must be greedy or temperature, got {self.mode!r}")
        if self.mode == "temperature" and not self.temperature > 0:
            raise ConfigError("temperature must be positive when sampling")


@dataclass
class GenerationResult:
    """Generated tokens plus an error flag for truncated runs."""

    tokens: list[int]
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


def _select_token(logits: np.ndarray, cfg: GenerationConfig, rng: np.random.Generator) -> int:
    if cfg.mode == "greedy":
        return int(np.argmax(logits))
    scaled = logits / cfg.temperature
    scaled = scaled - np.max(scaled)
    probs = np.exp(scaled)
    probs /= probs.sum()
    return int(rng.choice(len(probs), p=probs))


def _stamp(msg) -> tuple:
    """What an inference reply echoes of its request: kind, session, first position."""
    if isinstance(msg, CacheStepMsg):
        return "CacheStepMsg", msg.session_id, (msg.position,)
    return type(msg).__name__, msg.step_id, getattr(msg, "positions", ())[:1]


class InferenceServer:
    """Serves prefill and decode for any number of concurrent sessions.

    A hidden-state message runs the trunk over the whole payload and
    (re)initializes the cache for its session id, so uncached full-prefix
    clients and cached prefills share one entry point. A cache-step message
    extends an existing session by exactly one position; a position that
    does not equal the session's cache length is a desync and is rejected
    before any state changes.
    """

    def __init__(self, middle: SegmentModel):
        self.middle = middle
        self._sessions: dict[int, KVCache] = {}
        self._lock = threading.Lock()

    def session_length(self, session_id: int) -> int:
        with self._lock:
            if session_id not in self._sessions:
                raise ProtocolError(f"unknown session {session_id}")
            return self._sessions[session_id].length

    def handle(self, msg) -> HiddenStateMsg | CacheStepMsg:
        with self._lock:
            if isinstance(msg, HiddenStateMsg):
                return self._handle_prefill(msg)
            if isinstance(msg, CacheStepMsg):
                return self._handle_decode(msg)
            raise ProtocolError(
                f"inference server cannot handle {type(msg).__name__} messages"
            )

    def _handle_prefill(self, msg: HiddenStateMsg) -> HiddenStateMsg:
        seq_len = msg.payload.shape[1]
        if seq_len > self.middle.config.max_context:
            raise ContextOverflowError(
                f"prefill of {seq_len} positions exceeds max context "
                f"{self.middle.config.max_context}"
            )
        cache = KVCache(len(self.middle.blocks))
        with T.no_grad():
            out = self.middle.forward(
                msg.payload,
                pad_lens=msg.mask_meta.pads,
                positions=msg.positions,
                cache=cache,
            )
        self._sessions[msg.step_id] = cache
        return HiddenStateMsg(
            out.data, msg.mask_meta, msg.positions, step_id=msg.step_id, client_id=msg.client_id
        )

    def _handle_decode(self, msg: CacheStepMsg) -> CacheStepMsg:
        if msg.session_id not in self._sessions:
            raise ProtocolError(f"decode step for unknown session {msg.session_id}")
        cache = self._sessions[msg.session_id]
        if msg.position != cache.length:
            raise ProtocolError(
                f"cache desync in session {msg.session_id}: step position {msg.position}, "
                f"server cache length {cache.length}"
            )
        if msg.position >= self.middle.config.max_context:
            raise ContextOverflowError(
                f"decode position {msg.position} exceeds max context "
                f"{self.middle.config.max_context}"
            )
        if msg.payload.shape[1] != 1:
            raise ProtocolError(
                f"decode payload must cover exactly one position, got {msg.payload.shape}"
            )
        with T.no_grad():
            out = self.middle.forward(
                msg.payload, pad_lens=0, positions=[msg.position], cache=cache
            )
        return CacheStepMsg(
            out.data, position=msg.position, session_id=msg.session_id, step_id=msg.step_id
        )

    def drop_session(self, session_id: int) -> None:
        with self._lock:
            self._sessions.pop(session_id, None)


class GenerationSession:
    """Client half of generation: the front and back segments plus the caches
    of the prefix it last sent."""

    def __init__(
        self,
        front: SegmentModel,
        back: SegmentModel,
        channel: MessageChannel,
        use_cache: bool = True,
        session_id: int | None = None,
    ):
        self.front = front
        self.back = back
        self.channel = channel
        self.use_cache = use_cache
        self.session_id = next(_SESSION_IDS) if session_id is None else session_id
        self._restart(with_caches=False)

    @property
    def max_context(self) -> int:
        return self.front.config.max_context

    def _check_prompt(self, prompt: Sequence[int]) -> list[int]:
        toks = [int(t) for t in prompt]
        if not toks:
            raise ShapeError("prompt must contain at least one token")
        vocab = self.front.config.vocab_size
        bad = [t for t in toks if not 0 <= t < vocab]
        if bad:
            raise ShapeError(f"prompt tokens {bad[:4]} outside vocabulary of {vocab}")
        if len(toks) > self.max_context:
            raise ContextOverflowError(
                f"prompt of {len(toks)} tokens exceeds max context {self.max_context}"
            )
        return toks

    def _restart(self, with_caches: bool) -> None:
        """Forget the prefix: no tokens, fresh caches (or none), step ids from 0."""
        self.tokens: list[int] = []
        self.front_cache = KVCache(len(self.front.blocks)) if with_caches else None
        self.back_cache = KVCache(len(self.back.blocks)) if with_caches else None
        self._steps = itertools.count()

    def _exchange(self, ids: np.ndarray, start: int = 0) -> np.ndarray:
        """Send a ``(rows, L)`` token array at positions ``start`` onward
        across the split; returns the ``(rows, vocab)`` logits at its last
        position. From position 0 it goes as a ``HiddenStateMsg``, which
        (re)fills the session's caches if it holds any; later it goes as one
        ``CacheStepMsg`` extending them."""
        rows, length = ids.shape
        positions = tuple(range(start, start + length))
        with T.no_grad():
            h = self.front.forward(ids, positions=positions, cache=self.front_cache)
        if start == 0:
            msg = HiddenStateMsg(h.data, MaskMeta(length, 0, rows), positions,
                                 step_id=self.session_id, client_id=0)
        else:
            msg = CacheStepMsg(h.data, position=start, session_id=self.session_id,
                               step_id=next(self._steps))
        reply = self.channel.request(msg)
        if _stamp(reply) != _stamp(msg):
            raise ProtocolError(f"reply {_stamp(reply)} does not answer request {_stamp(msg)}")
        with T.no_grad():
            logits = self.back.forward(reply.payload, positions=positions, cache=self.back_cache)
        return logits.data[:, -1]

    def prefill(self, prompt: Sequence[int]) -> np.ndarray:
        """Full-prompt pass; returns the logits at the last position.

        Any earlier prefix is dropped first, so one session serves any number
        of prompts, each exactly as a fresh session with the same id would.
        """
        toks = self._check_prompt(prompt)
        self._restart(with_caches=self.use_cache)
        logits = self._exchange(np.asarray([toks]))[0]
        self.tokens = toks
        return logits

    def prefill_batch(self, prompts: Sequence[Sequence[int]]) -> np.ndarray:
        """Last-position logits of every prompt, ``(len(prompts), vocab)`` in
        prompt order.

        Prompts of one length share exchanges of at most ``MAX_PREFILL_ROWS``
        rows, lengths in first-seen order. The session is left with no prefix
        and no caches, so decoding needs a fresh ``prefill``.
        """
        if not prompts:
            raise ShapeError("a batched prefill takes at least one prompt")
        rows = [self._check_prompt(p) for p in prompts]
        self._restart(with_caches=False)
        logits = np.empty((len(rows), self.back.config.vocab_size))
        for length in dict.fromkeys(map(len, rows)):
            group = [i for i, row in enumerate(rows) if len(row) == length]
            for start in range(0, len(group), MAX_PREFILL_ROWS):
                chunk = group[start:start + MAX_PREFILL_ROWS]
                logits[chunk] = self._exchange(np.asarray([rows[i] for i in chunk]))
        return logits

    def decode_step(self, last_token: int) -> np.ndarray:
        """Feed one token; returns the logits predicting the next one."""
        if not self.tokens:
            raise ProtocolError("decode before prefill")
        position = len(self.tokens)
        if position >= self.max_context:
            raise ContextOverflowError(
                f"decode position {position} exceeds max context {self.max_context}"
            )
        (token,) = self._check_prompt([last_token])
        self.tokens.append(token)
        start = position if self.use_cache else 0
        return self._exchange(np.asarray([self.tokens[start:]]), start)[0]

    def generate(self, prompt: Sequence[int], cfg: GenerationConfig) -> GenerationResult:
        """Prefill then decode until the stop token or the token budget.

        The stop token is never emitted. Transport failures, reply frames
        that do not decode and protocol violations mid-run return whatever
        was generated so far with the error recorded instead of raising.
        """
        toks = self._check_prompt(prompt)
        rng = np.random.default_rng(cfg.seed)
        out: list[int] = []
        try:
            logits = self.prefill(toks)
            while len(out) < cfg.max_new_tokens:
                token = _select_token(logits, cfg, rng)
                if cfg.stop_token is not None and token == cfg.stop_token:
                    break
                out.append(token)
                logits = self.decode_step(token)
        except (ChannelClosedError, FrameError, ProtocolError) as exc:
            return GenerationResult(out, error=f"{type(exc).__name__}: {exc}")
        return GenerationResult(out)


class InferenceStack:
    """A wired client session, its server, and the serving thread."""

    def __init__(
        self,
        front: SegmentModel,
        middle: SegmentModel | None,
        back: SegmentModel,
        transport: str = "loopback",
        use_cache: bool = True,
        session_id: int | None = None,
        server: InferenceServer | None = None,
        record_frames: bool = False,
    ):
        if server is None:
            if middle is None:
                raise ConfigError("either a trunk segment or a server is required")
            server = InferenceServer(middle)
        self.server = server
        self.server_channel, client_channel = channel_pair(transport, record_frames)
        self.session = GenerationSession(
            front, back, client_channel, use_cache=use_cache, session_id=session_id
        )
        self._thread = threading.Thread(
            target=serve_channel, args=(self.server_channel, server.handle), daemon=True
        )
        self._thread.start()

    def close(self) -> None:
        """Close both ends, stop the serving thread and drop the session's caches."""
        self.session.channel.close()
        self.server_channel.close()
        self._thread.join(timeout=5.0)
        self.server.drop_session(self.session.session_id)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
