"""Autoregressive generation across the split with mirrored key/value caches.

A generation session prefills (one full-prompt hidden-state exchange) and
then ships exactly one token's hidden state per decode step in each
direction, while both sides extend their key/value caches. Both are one
exchange, whose reply echoes its request. A cache holds one length for all
of a segment's blocks, which the segment advances once per pass after every
block has written. Each block writes in place into buffers that double when
full, so a decode step copies no history except at the O(log context)
growth points.
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
from .wire import CacheStepMsg, HiddenStateMsg, MaskMeta, reply_to

# Rows per batched prefill. With the default model (width 64, 4 heads, context
# 128) one exchange holds at most 1 MiB of hidden state and 8.4 MB of
# attention scores.
MAX_PREFILL_ROWS = 16


class KVCache:
    """Post-rotary key/value history owned by one side of one session.

    One ``length`` covers all of a segment's blocks: ``SegmentModel.forward``
    advances it once per pass, after every block has appended, so a pass
    that fails part-way leaves it as it was. Each block's keys and values
    live in buffers with spare room on the position axis. ``append`` writes
    in place just past ``length`` and returns views up to the pass's end; a
    full buffer doubles, so a session of n positions copies its history
    O(log n) times rather than once per token. Later passes only write
    beyond a finished pass's views.
    """

    def __init__(self):
        self.length = 0
        self._buffers: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def append(self, block: int, k_new, v_new) -> tuple[np.ndarray, np.ndarray]:
        if k_new.shape != v_new.shape:
            raise ShapeError(f"key shape {k_new.shape} != value shape {v_new.shape}")
        start, end = self.length, self.length + k_new.shape[2]
        # a block's first write grows empty buffers to exactly its positions
        k, v = self._buffers[block] if block in self._buffers else (k_new[:, :, :0], v_new[:, :, :0])
        if k_new.shape[:2] != k.shape[:2] or k_new.shape[3] != k.shape[3]:
            raise ShapeError(
                f"cache append shape {k_new.shape} does not extend "
                f"{k.shape[:2] + (start,) + k.shape[3:]}"
            )
        if end > k.shape[2]:
            k, v = self._buffers[block] = self._grown(k, end), self._grown(v, end)
        k[:, :, start:end] = k_new
        v[:, :, start:end] = v_new
        return k[:, :, :end], v[:, :, :end]

    def _grown(self, buf: np.ndarray, needed: int) -> np.ndarray:
        b, h, capacity, d = buf.shape
        out = np.empty((b, h, max(2 * capacity, needed), d))
        out[:, :, : self.length] = buf[:, :, : self.length]
        return out


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


class InferenceServer:
    """Serves prefill and decode to one peer, the channel of its stack, so
    peers share only the trunk and session ids are per peer.

    A hidden-state message runs the trunk over the whole payload with a
    fresh cache, kept for its session id once the pass succeeds; a
    cache-step message extends the session's cache at one position. Either
    is one trunk forward, which owns the rules of a pass: positions that do
    not continue the cache (``ProtocolError``), a count other than the
    payload's (``ShapeError``) or a pass past the context, all rejected
    before any cache write. The server only rejects unknown sessions.
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
                session_id, cache = msg.step_id, KVCache()
                pads, positions = msg.mask_meta.pads, msg.positions
            elif isinstance(msg, CacheStepMsg):
                session_id, pads, positions = msg.session_id, 0, (msg.position,)
                if session_id not in self._sessions:
                    raise ProtocolError(f"decode step for unknown session {session_id}")
                cache = self._sessions[session_id]
            else:
                raise ProtocolError(
                    f"inference server cannot handle {type(msg).__name__} messages"
                )
            with T.no_grad():
                out = self.middle.forward(
                    msg.payload, pad_lens=pads, positions=positions, cache=cache
                )
            self._sessions[session_id] = cache
            return reply_to(msg, out.data)


class GenerationSession:
    """Client half of generation: the front and back segments plus the caches
    of the prefix it last sent."""

    # The only session on its channel, whose server serves that channel alone.
    session_id = 0

    def __init__(
        self,
        front: SegmentModel,
        back: SegmentModel,
        channel: MessageChannel,
        use_cache: bool = True,
    ):
        self.front = front
        self.back = back
        self.channel = channel
        self.use_cache = use_cache
        self._restart(with_caches=False)

    def _check_prompt(self, prompt: Sequence[int]) -> list[int]:
        toks = [int(t) for t in prompt]
        if not toks:
            raise ShapeError("prompt must contain at least one token")
        vocab = self.front.config.vocab_size
        bad = [t for t in toks if not 0 <= t < vocab]
        if bad:
            raise ShapeError(f"prompt tokens {bad[:4]} outside vocabulary of {vocab}")
        max_context = self.front.config.max_context
        if len(toks) > max_context:
            raise ContextOverflowError(
                f"prompt of {len(toks)} tokens exceeds max context {max_context}"
            )
        return toks

    def _restart(self, with_caches: bool) -> None:
        """Forget the prefix: no tokens, fresh caches (or none), step ids from 0."""
        self.tokens: list[int] = []
        self.front_cache, self.back_cache = (KVCache(), KVCache()) if with_caches else (None, None)
        self._steps = itertools.count()

    def _exchange(self, ids: np.ndarray, start: int = 0) -> np.ndarray:
        """Send a ``(rows, L)`` token array at positions ``start`` onward
        across the split; returns the ``(rows, vocab)`` logits at its last
        position. From position 0 it goes as a ``HiddenStateMsg``, which
        (re)fills the session's caches if it holds any; later it goes as one
        ``CacheStepMsg`` extending them. A failure after the front forward
        drops the prefix, since the caches no longer agree on its length."""
        rows, length = ids.shape
        with T.no_grad():
            h = self.front.forward(ids, cache=self.front_cache)
        if start == 0:
            msg = HiddenStateMsg(h.data, MaskMeta(length, 0, rows), tuple(range(length)),
                                 step_id=self.session_id, client_id=0)
        else:
            msg = CacheStepMsg(h.data, position=start, session_id=self.session_id,
                               step_id=next(self._steps))
        try:
            reply = self.channel.request(msg)
            with T.no_grad():
                logits = self.back.forward(reply.payload, cache=self.back_cache)
        except BaseException:
            self.tokens = []
            raise
        return logits.data[:, -1]

    def prefill(self, prompt: Sequence[int]) -> np.ndarray:
        """Full-prompt pass; returns the logits at the last position.

        Any earlier prefix is dropped first, so one session serves any number
        of prompts, each exactly as a fresh session would.
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
        """Feed one token; returns the logits predicting the next one.

        The front segment's forward rejects a bad token or a position past
        the context before any cache write, leaving the session as it was."""
        if not self.tokens:
            raise ProtocolError("decode before prefill")
        token = int(last_token)
        start = len(self.tokens) if self.use_cache else 0
        logits = self._exchange(np.asarray([self.tokens[start:] + [token]]), start)[0]
        self.tokens.append(token)
        return logits

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
    """A wired client session, its own server, and the serving thread.
    ``server`` lends only its trunk: no two stacks share session state."""

    def __init__(
        self,
        front: SegmentModel,
        middle: SegmentModel | None,
        back: SegmentModel,
        transport: str = "loopback",
        use_cache: bool = True,
        server: InferenceServer | None = None,
    ):
        if server is not None:
            middle = server.middle
        if middle is None:
            raise ConfigError("either a trunk segment or a server is required")
        self.server = InferenceServer(middle)
        self.server_channel, client_channel = channel_pair(transport)
        self.session = GenerationSession(front, back, client_channel, use_cache=use_cache)
        self._thread = threading.Thread(
            target=serve_channel, args=(self.server_channel, self.server.handle), daemon=True
        )
        self._thread.start()

    def close(self) -> None:
        """Close both ends and stop the serving thread."""
        self.session.channel.close()
        self.server_channel.close()
        self._thread.join(timeout=5.0)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
