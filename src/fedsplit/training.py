"""Split LoRA training: the four-hop relay between client and server.

One training step moves four messages: the client sends the hidden states
from its front blocks, the server returns its trunk's output, the client
backpropagates its loss locally and sends the gradient at the server's
output, and the server returns the gradient at the cut so the client can
finish its own backward. Adapters on all three segments step with plain SGD.

Gaussian noise of standard deviation ``scale``, drawn from the client's own
seeded stream, can be added to the hidden states the client ships (default
target) or, experimentally, to the relayed gradient. With ``scale == 0`` every
payload is passed through untouched, so a zero-noise split run is bit-for-bit
the monolithic run.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import tensor as T
from .errors import BarrierTimeoutError, BatchIncompatibilityError, ProtocolError, ShapeError
from .model import (
    ModelConfig,
    SegmentModel,
    apply_sgd_step,
    grad_norm,
    init_parameter_set,
)
from .tensor import Tensor, reshape, softmax_cross_entropy
from .transport import MessageChannel, channel_pair, serve_channel
from .wire import CommStats, GradMsg, HiddenStateMsg, MaskMeta

IGNORE_INDEX = -1

NOISE_TARGETS = ("none", "forward_hidden", "backward_grad")


@dataclass(frozen=True)
class NoiseConfig:
    """Gaussian perturbation of one relay hop.

    ``scale`` is the standard deviation. ``forward_hidden`` perturbs the
    client-to-server hidden states (the privacy mechanism); ``backward_grad``
    perturbs the client-to-server gradient instead (experimental; known to
    destabilize training).
    """

    scale: float = 0.0
    target: str = "forward_hidden"
    seed: int = 0

    def __post_init__(self):
        if self.scale < 0:
            raise ShapeError("noise scale must be non-negative")
        if self.target not in NOISE_TARGETS:
            raise ShapeError(f"noise target must be one of {NOISE_TARGETS}")


def inject_noise(h: np.ndarray, scale: float, rng: np.random.Generator) -> np.ndarray:
    """Add one fresh Gaussian draw of standard deviation ``scale`` from ``rng``.

    Zero scale draws nothing and returns ``h`` itself, so disabled noise
    cannot change a single bit of the payload.
    """
    if scale == 0.0:
        return h
    return h + rng.normal(0.0, scale, size=h.shape)


# ---------------------------------------------------------------------------
# loss


def sequence_loss(logits: Tensor, targets: np.ndarray) -> tuple[Tensor, np.ndarray]:
    """Token-mean cross-entropy over (batch, seq) targets; -1 marks ignored."""
    tgt = np.asarray(targets)
    if logits.data.ndim != 3:
        raise ShapeError(f"sequence logits must be 3-D, got {logits.data.shape}")
    if tgt.shape != logits.data.shape[:2]:
        raise ShapeError(
            f"targets shape {tgt.shape} does not match logits batch/seq {logits.data.shape[:2]}"
        )
    vocab = logits.data.shape[-1]
    flat = reshape(logits, (-1, vocab))
    loss, grad = softmax_cross_entropy(flat, tgt.reshape(-1), ignore_index=IGNORE_INDEX)
    return loss, grad.reshape(logits.data.shape)


def local_loss_step(
    model: SegmentModel, inputs, targets: np.ndarray, pad_lens: Sequence[int] | int = 0
) -> tuple[float, dict[str, np.ndarray]]:
    """Forward, loss and backward through one wholly local model; returns the
    loss and the collected gradients, which the caller applies."""
    logits = model.forward(inputs, pad_lens=pad_lens)
    loss, _ = sequence_loss(logits, targets)
    loss.backward()
    model.discard_pending()
    return float(loss.data), model.collect_grads()


# ---------------------------------------------------------------------------
# records


@dataclass
class TrainStepRecord:
    step: int
    client_id: int
    loss: float
    grad_norms: dict[str, float]
    comm: dict
    extra: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        out = {
            "step": self.step,
            "client_id": self.client_id,
            "loss": self.loss,
            "grad_norms": self.grad_norms,
            "comm": self.comm,
        }
        if self.extra:
            out["extra"] = self.extra
        return out


@dataclass
class Batch:
    tokens: np.ndarray  # (batch, seq) int
    targets: np.ndarray  # (batch, seq) int, IGNORE_INDEX where unsupervised
    pad_lens: tuple[int, ...]

    @property
    def mask_meta(self) -> MaskMeta:
        return MaskMeta(self.tokens.shape[1], self.pad_lens, self.tokens.shape[0])


# ---------------------------------------------------------------------------
# endpoints


class TrainingClient:
    """Owns the front and back segments plus one channel to the server."""

    def __init__(
        self,
        client_id: int,
        front: SegmentModel,
        back: SegmentModel,
        channel: MessageChannel,
        lr: float,
        noise: NoiseConfig | None = None,
    ):
        self.client_id = client_id
        self.front = front
        self.back = back
        self.channel = channel
        self.lr = lr
        self.noise = noise or NoiseConfig()
        self._noise_rng = np.random.default_rng(self.noise.seed)

    def train_step(self, batch: Batch, step: int) -> TrainStepRecord:
        """One full four-hop relay against the connected server.

        Front forward and ship the hidden states; back forward, loss and
        local backward on the reply, ship the gradient at the back's input;
        front backward from the returned gradient; then an SGD step on each
        end's adapters. ``step`` is also the step id both messages carry.
        """
        before = self.channel.stats.snapshot()
        hidden = self.front.forward(batch.tokens, pad_lens=batch.pad_lens).data
        if self.noise.target == "forward_hidden":
            hidden = inject_noise(hidden, self.noise.scale, self._noise_rng)
        reply = self.channel.request(
            HiddenStateMsg(
                hidden,
                batch.mask_meta,
                tuple(range(batch.tokens.shape[1])),
                step_id=step,
                client_id=self.client_id,
            )
        )
        if reply.step_id != step or reply.client_id != self.client_id:
            raise ProtocolError(
                f"server replied for step ({reply.client_id}, {reply.step_id}), "
                f"expected ({self.client_id}, {step})"
            )
        logits = self.back.forward(reply.payload, pad_lens=batch.pad_lens)
        loss = sequence_loss(logits, batch.targets)[0]
        del logits  # so the backward frees the back's tape before the relay's wait
        loss.backward()
        relay = self.back.take_input_grad()
        if self.noise.target == "backward_grad":
            relay = inject_noise(relay, self.noise.scale, self._noise_rng)
        grad_reply = self.channel.request(GradMsg(relay, step_id=step, client_id=self.client_id))
        if grad_reply.step_id != step or grad_reply.client_id != self.client_id:
            raise ProtocolError("gradient reply does not match the in-flight step")
        self.front.backward(grad_reply.payload)
        norms = {}
        for name, segment in (("front", self.front), ("back", self.back)):
            grads = segment.collect_grads()
            norms[name] = grad_norm(grads)
            apply_sgd_step(segment.trainable_parameters(), grads, self.lr)
        comm = CommStats.delta(self.channel.stats.snapshot(), before)
        return TrainStepRecord(step, self.client_id, float(loss.data), norms, comm)


class TrainingServer:
    """Owns the middle trunk; runs one trunk pass per step for one or more clients.

    ``batch_forward`` runs the trunk once over the client-id-ordered
    concatenation of the clients' hidden states and slices each reply back
    out, so arrival order cannot change any number; ``batch_backward`` does
    the same for the gradients and then takes one SGD step. Gradient
    accumulation is linear over batch rows, so the trunk weight gradient of a
    batched pass is the sum of the clients' solo gradients. ``handle`` is the
    one-message case the serve loop calls: there concatenation is a copy, so
    it is exactly a solo step.

    ``observer`` (if set) sees every client hidden-state message after the
    reply has been dispatched (``observe`` is the serve loop's after-reply
    hook), so passive observation cannot reorder or delay protocol traffic.
    """

    def __init__(self, middle: SegmentModel, lr: float, observer=None):
        self.middle = middle
        self.lr = lr
        self.observer = observer
        self.last_grad_norm = 0.0
        self.last_grads: dict[str, np.ndarray] = {}
        self._pending: dict[int, tuple[int, slice]] | None = None
        self._lock = threading.Lock()

    def handle(self, msg) -> HiddenStateMsg | GradMsg:
        if isinstance(msg, HiddenStateMsg):
            return self.batch_forward([msg])[0]
        if isinstance(msg, GradMsg):
            return self.batch_backward([msg])[0]
        raise ProtocolError(f"unexpected message type {type(msg).__name__}")

    def observe(self, msg) -> None:
        if self.observer is not None and isinstance(msg, HiddenStateMsg):
            self.observer.observe(msg)

    def batch_forward(self, msgs: Sequence[HiddenStateMsg]) -> list[HiddenStateMsg]:
        """One trunk forward over the client-id-ordered concatenation.

        Every message must agree on sequence length (and therefore rotary
        positions); heterogeneous groups are rejected rather than silently
        re-padded so each reply slice stays exactly the solo-forward result.
        """
        with self._lock:
            if not msgs:
                raise ProtocolError("batch forward needs at least one message")
            if self._pending is not None:
                raise ProtocolError(f"forward while steps {self._pending} are in flight")
            ordered = sorted(msgs, key=lambda m: m.client_id)
            ids = [m.client_id for m in ordered]
            if len(set(ids)) != len(ids):
                raise ProtocolError(f"duplicate client ids in batch: {ids}")
            head = ordered[0]
            for m in ordered[1:]:
                if m.payload.shape[1] != head.payload.shape[1]:
                    raise BatchIncompatibilityError(
                        f"client {m.client_id} has seq_len {m.payload.shape[1]} but "
                        f"client {head.client_id} has {head.payload.shape[1]}"
                    )
                if m.payload.shape[2:] != head.payload.shape[2:]:
                    raise BatchIncompatibilityError(
                        f"client {m.client_id} hidden shape {m.payload.shape[2:]} does not "
                        f"match {head.payload.shape[2:]}"
                    )
                if m.positions != head.positions:
                    raise BatchIncompatibilityError("clients disagree on rotary positions")
            payload = np.concatenate([m.payload for m in ordered], axis=0)
            pads = tuple(p for m in ordered for p in m.mask_meta.pads)
            out = self.middle.forward(payload, pad_lens=pads, positions=head.positions)
            pending: dict[int, tuple[int, slice]] = {}
            replies = []
            start = 0
            for m in ordered:
                rows = slice(start, start + m.payload.shape[0])
                start = rows.stop
                pending[m.client_id] = (m.step_id, rows)
                replies.append(
                    HiddenStateMsg(
                        out.data[rows],
                        m.mask_meta,
                        m.positions,
                        step_id=m.step_id,
                        client_id=m.client_id,
                    )
                )
            self._pending = pending
            return replies

    def batch_backward(self, grad_msgs: Sequence[GradMsg]) -> list[GradMsg]:
        """Concatenated trunk backward, SGD step, per-client gradient slices."""
        with self._lock:
            if self._pending is None:
                raise ProtocolError("gradient before any forward is in flight")
            ordered = sorted(grad_msgs, key=lambda m: m.client_id)
            got = [m.client_id for m in ordered]
            expected = sorted(self._pending)
            if got != expected:
                raise BarrierTimeoutError(
                    f"gradient group mismatch: expected clients {expected}, got {got}"
                )
            parts = []
            for m in ordered:
                step_id, rows = self._pending[m.client_id]
                if m.step_id != step_id:
                    raise ProtocolError(
                        f"client {m.client_id} sent a gradient for step {m.step_id}, "
                        f"expected {step_id}"
                    )
                if m.payload.shape[0] != rows.stop - rows.start:
                    raise ProtocolError(
                        f"client {m.client_id} gradient has {m.payload.shape[0]} rows, "
                        f"expected {rows.stop - rows.start}"
                    )
                parts.append(m.payload)
            input_grad = self.middle.backward(np.concatenate(parts, axis=0))
            grads = self.middle.collect_grads()
            self.last_grads = grads
            self.last_grad_norm = grad_norm(grads)
            apply_sgd_step(self.middle.trainable_parameters(), grads, self.lr)
            replies = []
            for m in ordered:
                rows = self._pending[m.client_id][1]
                replies.append(GradMsg(input_grad[rows], step_id=m.step_id, client_id=m.client_id))
            self._pending = None
            return replies


# ---------------------------------------------------------------------------
# orchestration


class Trainer:
    """The lifecycle every scheduling strategy shares.

    A trainer owns the clients and the server ends of their channels: it
    checks them, starts one serving thread per channel for the servers it is
    given (a trainer that routes trunk traffic itself passes none), and
    closes everything on ``shutdown``. ``run`` alternates phases of
    ``sync_interval`` rounds with ``merge``; a subclass supplies
    ``run_round`` (or ``run_phase``) and, if its trunks diverge, ``merge``.
    """

    strategy = ""
    sync_interval = 1

    def __init__(
        self,
        clients: Sequence[TrainingClient],
        server_channels: Sequence[MessageChannel],
        servers: Sequence[TrainingServer] = (),
    ):
        if len(clients) != len(server_channels):
            raise ProtocolError("one server channel per client is required")
        ids = [c.client_id for c in clients]
        if len(set(ids)) != len(ids):
            raise ProtocolError(f"duplicate client ids: {ids}")
        self.clients = list(clients)
        self.server_channels = list(server_channels)
        self.merge_log: list = []
        self._threads = [
            threading.Thread(
                target=serve_channel, args=(ch, server.handle, server.observe), daemon=True
            )
            for server, ch in zip(servers, server_channels)
        ]
        for t in self._threads:
            t.start()

    def _label(self, rec: TrainStepRecord, server: TrainingServer) -> TrainStepRecord:
        rec.grad_norms["middle"] = server.last_grad_norm
        rec.extra["strategy"] = self.strategy
        return rec

    def run_phase(
        self, batch_source: Callable[[int, int], Batch], start_step: int, steps: int
    ) -> list[TrainStepRecord]:
        """``steps`` rounds from ``start_step``, one batch per client each."""
        records = []
        for r in range(start_step, start_step + steps):
            batches = [batch_source(c.client_id, r) for c in self.clients]
            records.extend(self.run_round(batches, r))
        return records

    def merge(self, at_step: int) -> None:
        """Synchronization point after each phase; one shared trunk needs none."""

    def run(
        self,
        batch_source: Callable[[int, int], Batch],
        rounds: int,
        sink: Callable[[TrainStepRecord], None] | None = None,
    ) -> list[TrainStepRecord]:
        """``batch_source(client_id, round_index)`` feeds each client-step.

        ``sink`` (if given) sees each record as soon as its phase completes.
        """
        records = []
        done = 0
        while done < rounds:
            steps = min(self.sync_interval, rounds - done)
            for rec in self.run_phase(batch_source, done, steps):
                records.append(rec)
                if sink is not None:
                    sink(rec)
            done += steps
            self.merge(done)
        return records

    def shutdown(self) -> None:
        for client in self.clients:
            client.channel.close()
        for ch in self.server_channels:
            ch.close()
        for t in self._threads:
            t.join(timeout=5.0)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.shutdown()


class SequentialTrainer(Trainer):
    """Round-robin scheduling: one client completes its full step at a time.

    The server is driven by one thread per client channel; because the
    orchestrator serializes the clients, at most one thread is active at any
    moment and the schedule is deterministic.
    """

    strategy = "sequential"

    def __init__(
        self,
        clients: Sequence[TrainingClient],
        server: TrainingServer,
        server_channels: Sequence[MessageChannel],
    ):
        self.server = server
        super().__init__(clients, server_channels, [server] * len(server_channels))

    def run_round(self, batches: Sequence[Batch], round_index: int) -> list[TrainStepRecord]:
        if len(batches) != len(self.clients):
            raise ProtocolError(f"expected {len(self.clients)} batches, got {len(batches)}")
        return [
            self._label(client.train_step(batch, step=round_index), self.server)
            for client, batch in zip(self.clients, batches)
        ]


# ---------------------------------------------------------------------------
# monolithic oracle


def train_monolithic(
    model: SegmentModel,
    batch_source: Callable[[int], Batch],
    steps: int,
    lr: float,
) -> list[float]:
    """Unsplit LoRA training loop used as the equivalence oracle.

    Runs the same forward, loss, backward, and SGD arithmetic as a one-client
    split session with zero noise, so its loss trace is the bitwise reference.
    """
    losses = []
    for step in range(steps):
        batch = batch_source(step)
        loss, grads = local_loss_step(model, batch.tokens, batch.targets, batch.pad_lens)
        apply_sgd_step(model.trainable_parameters(), grads, lr)
        losses.append(loss)
    return losses


# ---------------------------------------------------------------------------
# noise propagation probe


def noise_gradient_propagation_check(
    config: ModelConfig,
    deltas: Sequence[float],
    draws: int = 20,
    seed: int = 0,
    batch: int = 2,
    seq_len: int = 16,
) -> dict:
    """Measure how hidden-state noise perturbs the last block's weight gradient.

    Splits the model before its final block, runs the prefix once per trial,
    then compares the gradient of the final block's down-projection weight
    with and without Gaussian noise on the prefix output. Returns per-delta
    mean perturbation norms; zero noise must give exactly zero perturbation,
    and the mean must grow with the noise scale.
    """
    params = init_parameter_set(config, None, seed)
    prefix = SegmentModel("front", config, None, params, 0, config.num_blocks - 1)
    tail = SegmentModel(
        "back", config, None, params, config.num_blocks - 1, 1, trainable_base=True
    )
    target_name = f"blocks.{config.num_blocks - 1}.mlp.down.weight"

    rng = np.random.default_rng(seed + 1)
    tokens = rng.integers(0, config.vocab_size, size=(batch, seq_len))
    targets = rng.integers(0, config.vocab_size, size=(batch, seq_len))

    with T.no_grad():
        h_clean = prefix.forward(tokens).data

    def weight_grad(hidden: np.ndarray) -> np.ndarray:
        return local_loss_step(tail, hidden, targets)[1][target_name]

    g_clean = weight_grad(h_clean)
    noise_rng = np.random.default_rng(seed + 2)
    results = []
    for delta in deltas:
        norms = []
        for _ in range(draws):
            g_noisy = weight_grad(inject_noise(h_clean, delta, noise_rng))
            norms.append(float(np.linalg.norm(g_noisy - g_clean)))
        results.append(float(np.mean(norms)))
    means = dict(zip([float(d) for d in deltas], results))
    ordered = [means[float(d)] for d in sorted(float(d) for d in deltas)]
    return {
        "deltas": [float(d) for d in deltas],
        "mean_grad_perturbation": results,
        "draws": draws,
        "monotone_in_delta": all(a <= b + 1e-15 for a, b in zip(ordered, ordered[1:])),
        "target_weight": target_name,
    }


# ---------------------------------------------------------------------------
# convenience wiring


def connect_pair(
    front: SegmentModel,
    middle: SegmentModel,
    back: SegmentModel,
    client_id: int,
    lr: float,
    noise: NoiseConfig | None = None,
    transport: str = "loopback",
) -> tuple[TrainingClient, TrainingServer, MessageChannel]:
    """Wire one client and its own server over a fresh channel."""
    server_channel, client_channel = channel_pair(transport)
    client = TrainingClient(client_id, front, back, client_channel, lr, noise)
    return client, TrainingServer(middle, lr), server_channel
