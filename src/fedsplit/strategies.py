"""Multi-client scheduling: round-robin, batched concatenation, hierarchy.

Three ways to let several clients share one server trunk. All three are
schedules over one split relay: the same ``TrainingClient`` four-hop step,
the same ``TrainingServer`` trunk, and the same ``Trainer`` lifecycle
(``training.py``), which runs phases of rounds and merges after each phase.

- ``sequential``: one client finishes its whole step before the next starts
  (``training.SequentialTrainer``).
- ``client_batch``: every step the coordinator gathers one hidden-state
  message per client and hands the group to the server's ``batch_forward``
  and ``batch_backward``, which run one trunk pass over the client-id-ordered
  concatenation, so arrival order cannot change any number. The trunk's
  weight gradient is then, by linearity, the sum of the gradients the same
  clients would have produced solo. ``ClientBatchServer`` is another name
  for ``TrainingServer``.
- ``server_hierarchical``: each client trains against its own trunk replica
  concurrently; every ``sync_interval`` steps the replicas' adapters are
  averaged and written back, FedAvg style. Frozen base weights never move.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .errors import BarrierTimeoutError, ConfigError, ProtocolError
from .model import (
    LoraConfig,
    ModelConfig,
    PartitionSpec,
    SegmentModel,
    build_partitioned,
    fedavg_merge,
)
from .training import (
    IGNORE_INDEX,
    Batch,
    NoiseConfig,
    Trainer,
    TrainingClient,
    TrainingServer,
    TrainStepRecord,
)
from .transport import MessageChannel, channel_pair

MODES = ("sequential", "client_batch", "server_hierarchical")


@dataclass(frozen=True)
class StrategyConfig:
    """How the client population shares the server trunk."""

    mode: str = "sequential"
    num_clients: int = 1
    sync_interval: int = 10
    merge_weights: tuple[float, ...] | None = None
    merge_clients: bool = False
    barrier_timeout: float = 30.0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.num_clients < 1:
            raise ConfigError("num_clients must be at least 1")
        if self.sync_interval < 1:
            raise ConfigError("sync_interval must be at least 1")
        if self.barrier_timeout <= 0:
            raise ConfigError("barrier_timeout must be positive")
        if self.merge_weights is not None:
            w = tuple(float(x) for x in self.merge_weights)
            if len(w) != self.num_clients:
                raise ConfigError(f"got {len(w)} merge weights for {self.num_clients} clients")
            if any(x < 0 for x in w) or sum(w) <= 0:
                raise ConfigError("merge weights must be non-negative with a positive sum")
            object.__setattr__(self, "merge_weights", w)


# ---------------------------------------------------------------------------
# barrier


def collect_barrier(channels: dict[int, MessageChannel], timeout: float) -> list:
    """Receive one message from every client channel, in client-id order.

    Waits on the channels in client-id order; each receive blocks until that
    client's message is queued, so the outcome is independent of true arrival
    order. A client silent past the shared deadline raises a barrier timeout
    naming it, and a channel that delivers another client's message raises a
    protocol error.
    """
    msgs = []
    deadline = time.monotonic() + timeout
    for cid in sorted(channels):
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise BarrierTimeoutError(f"client {cid} missed the barrier after {timeout}s")
        try:
            msg = channels[cid].recv(timeout=remaining)
        except BarrierTimeoutError:
            raise
        except ProtocolError:
            raise BarrierTimeoutError(
                f"client {cid} missed the barrier after {timeout}s"
            ) from None
        if msg.client_id != cid:
            raise ProtocolError(
                f"channel for client {cid} delivered a message from client {msg.client_id}"
            )
        msgs.append(msg)
    return msgs


# ---------------------------------------------------------------------------
# client-batch concatenation


ClientBatchServer = TrainingServer


def align_batches(batches: Sequence[Batch], pad_id: int = 0) -> list[Batch]:
    """Left-pad every batch to the group's longest sequence length.

    Client-batch concatenation requires a uniform seq_len;
    ``ClientBatchTrainer.run_round`` applies this normalizer to each round's
    batches before the clients ship them, never inside the server, so the
    server-side slice-equivalence property stays exact. Batches already at
    the longest width pass through as the same objects.
    """
    if not batches:
        return []
    target = max(b.tokens.shape[1] for b in batches)
    out = []
    for b in batches:
        extra = target - b.tokens.shape[1]
        if extra == 0:
            out.append(b)
            continue
        rows = b.tokens.shape[0]
        tokens = np.concatenate(
            [np.full((rows, extra), pad_id, dtype=b.tokens.dtype), b.tokens], axis=1
        )
        targets = np.concatenate(
            [np.full((rows, extra), IGNORE_INDEX, dtype=b.targets.dtype), b.targets], axis=1
        )
        out.append(Batch(tokens, targets, tuple(p + extra for p in b.pad_lens)))
    return out


class ClientBatchTrainer(Trainer):
    """Drives M concurrent client steps against one batched trunk.

    Client threads run the ordinary four-hop step; the coordinator gathers
    one message per client at each of the two barriers, runs the batched
    trunk pass, and routes each slice back to its owner.
    """

    strategy = "client_batch"

    def __init__(
        self,
        clients: Sequence[TrainingClient],
        server: TrainingServer,
        server_channels: Sequence[MessageChannel],
        barrier_timeout: float = 30.0,
    ):
        super().__init__(clients, server_channels)
        self.server = server
        self.channels = {c.client_id: ch for c, ch in zip(self.clients, self.server_channels)}
        self.barrier_timeout = barrier_timeout

    def run_round(self, batches: Sequence[Batch], round_index: int) -> list[TrainStepRecord]:
        if len(batches) != len(self.clients):
            raise ProtocolError(f"expected {len(self.clients)} batches, got {len(batches)}")
        batches = align_batches(batches)
        results: list[TrainStepRecord | None] = [None] * len(self.clients)
        failures: list[Exception] = []

        def drive(i: int) -> None:
            try:
                results[i] = self.clients[i].train_step(batches[i], step=round_index)
            except Exception as exc:
                failures.append(exc)
                self.clients[i].channel.close()  # the barrier sees the failure at once

        threads = [
            threading.Thread(target=drive, args=(i,), daemon=True)
            for i in range(len(self.clients))
        ]
        for t in threads:
            t.start()
        try:
            forward = collect_barrier(self.channels, self.barrier_timeout)
            for reply in self.server.batch_forward(forward):
                self.channels[reply.client_id].send(reply)
            backward = collect_barrier(self.channels, self.barrier_timeout)
            for reply in self.server.batch_backward(backward):
                self.channels[reply.client_id].send(reply)
        except Exception:
            cause = failures[:1]  # a client's own error, not what the cleanup below causes
            for ch in self.channels.values():
                ch.close()
            for t in threads:
                t.join(timeout=5.0)
            if cause:
                raise cause[0] from None
            raise
        for t in threads:
            t.join(timeout=self.barrier_timeout)
        if failures:
            raise failures[0]
        if any(rec is None for rec in results):
            raise ProtocolError("a client thread finished without producing a record")
        return [self._label(rec, self.server) for rec in results]


# ---------------------------------------------------------------------------
# hierarchical sub-servers


@dataclass
class MergeRecord:
    """What one synchronization point averaged and what it left out."""

    step: int
    merged_clients: tuple[int, ...]
    excluded_clients: tuple[int, ...]
    weights: tuple[float, ...]

    def to_json(self) -> dict:
        return {
            "step": self.step,
            "merged_clients": list(self.merged_clients),
            "excluded_clients": list(self.excluded_clients),
            "weights": list(self.weights),
        }


@dataclass
class _Pipeline:
    client: TrainingClient
    server: TrainingServer
    weight: float


class HierarchicalTrainer(Trainer):
    """M isolated client/trunk-replica pipelines with periodic averaging.

    Between merges every pipeline is fully independent, so its parameters
    are a pure function of its data shard and the last merge point. At each
    synchronization the surviving replicas' adapters are averaged (weighted)
    and written back to every survivor and to the central reference trunk;
    client adapters can optionally be averaged the same way. A merge writes
    adapters only: every frozen base Tensor keeps its array. A pipeline
    whose phase raised is excluded from that and later merges and reported
    in the merge log.
    """

    strategy = "server_hierarchical"

    def __init__(
        self,
        central: SegmentModel,
        clients: Sequence[TrainingClient],
        sub_servers: Sequence[TrainingServer],
        server_channels: Sequence[MessageChannel],
        config: StrategyConfig,
    ):
        n = len(clients)
        if n != config.num_clients:
            raise ConfigError(f"strategy expects {config.num_clients} clients, got {n}")
        if len(sub_servers) != n:
            raise ProtocolError("one sub-server per client is required")
        reference = central.named_parameters()
        for client, server in zip(clients, sub_servers):
            table = server.middle.named_parameters()
            if table.keys() != reference.keys() or any(
                not np.array_equal(table[k].data, p.data) for k, p in reference.items()
            ):
                raise ProtocolError(
                    f"sub-server for client {client.client_id} does not start from "
                    "the central parameters"
                )
        weights = config.merge_weights or tuple(1.0 for _ in clients)
        self.central = central
        self.config = config
        self.sync_interval = config.sync_interval
        self.pipelines = [_Pipeline(c, s, w) for c, s, w in zip(clients, sub_servers, weights)]
        self.failed: dict[int, str] = {}
        super().__init__(clients, server_channels, sub_servers)

    def _live(self) -> list[_Pipeline]:
        return [p for p in self.pipelines if p.client.client_id not in self.failed]

    def run_phase(
        self,
        batch_source: Callable[[int, int], Batch],
        start_step: int,
        steps: int,
    ) -> list[TrainStepRecord]:
        """Run every live pipeline for ``steps`` local steps, concurrently.

        A pipeline that completes no step for ``barrier_timeout`` seconds is
        abandoned: it is recorded as failed, and whatever its thread does
        later is ignored.
        """
        live = self._live()
        collected: dict[int, list[TrainStepRecord]] = {p.client.client_id: [] for p in live}
        last_progress = {cid: time.monotonic() for cid in collected}
        errors: dict[int, str] = {}
        lock = threading.Lock()

        def drive(pipe: _Pipeline) -> None:
            cid = pipe.client.client_id
            try:
                for step in range(start_step, start_step + steps):
                    rec = pipe.client.train_step(batch_source(cid, step), step=step)
                    with lock:
                        if cid in errors:
                            return
                        collected[cid].append(self._label(rec, pipe.server))
                        last_progress[cid] = time.monotonic()
            except Exception as exc:
                with lock:
                    errors.setdefault(cid, f"{type(exc).__name__}: {exc}")

        threads = [threading.Thread(target=drive, args=(p,), daemon=True) for p in live]
        for t in threads:
            t.start()
        timeout = self.config.barrier_timeout
        for cid, t in zip(collected, threads):
            while t.is_alive():
                idle = time.monotonic() - last_progress[cid]
                if idle >= timeout:
                    with lock:
                        errors.setdefault(
                            cid,
                            f"BarrierTimeoutError: client {cid}'s pipeline completed no step "
                            f"in {timeout}s",
                        )
                    break
                t.join(timeout - idle)
        with lock:
            self.failed.update(errors)
            records = [rec for recs in collected.values() for rec in recs]
        records.sort(key=lambda r: (r.step, r.client_id))
        return records

    def merge(self, at_step: int) -> MergeRecord:
        """Average the survivors' adapters and redistribute the result."""
        live = self._live()
        if not live:
            raise ProtocolError("every pipeline has failed; nothing to merge")
        weights = [p.weight for p in live]
        groups = [([p.server.middle for p in live], [self.central])]
        if self.config.merge_clients:
            groups += [([p.client.front for p in live], []), ([p.client.back for p in live], [])]
        for group, also in groups:
            merged = fedavg_merge(group, weights).lora_parameters()
            for segment in also + group:
                for name, param in segment.lora_parameters().items():
                    param.data = merged[name].data.copy()
        total = sum(weights)
        record = MergeRecord(
            step=at_step,
            merged_clients=tuple(p.client.client_id for p in live),
            excluded_clients=tuple(sorted(self.failed)),
            weights=tuple(w / total for w in weights),
        )
        self.merge_log.append(record)
        return record


# ---------------------------------------------------------------------------
# session wiring


def build_clients(
    front: SegmentModel,
    back: SegmentModel,
    num_clients: int,
    lr: float,
    noise: NoiseConfig | None = None,
    transport: str = "loopback",
    record_frames: bool = False,
) -> tuple[list[TrainingClient], list[MessageChannel]]:
    """Clients with private copies of ``front`` and ``back``, one channel each.

    Every client starts from the same parameters and gets its own noise
    stream (the configured seed plus its client id). Returns the clients and
    the server ends of their channels.
    """
    clients = []
    server_channels = []
    for cid in range(num_clients):
        server_channel, client_channel = channel_pair(transport, record_frames)
        client_noise = None if noise is None else replace(noise, seed=noise.seed + cid)
        clients.append(
            TrainingClient(cid, front.clone(), back.clone(), client_channel, lr, client_noise)
        )
        server_channels.append(server_channel)
    return clients, server_channels


def build_shared_trunk_session(
    config: ModelConfig,
    partition: PartitionSpec,
    num_clients: int,
    lr: float,
    lora: LoraConfig | None = LoraConfig(),
    seed: int = 0,
    noise: NoiseConfig | None = None,
    transport: str = "loopback",
    record_frames: bool = False,
) -> tuple[list[TrainingClient], SegmentModel, list[MessageChannel]]:
    """M clients with private front/back copies sharing one trunk instance.

    Every client starts from the identical seeded parameter set; the copies
    diverge as the clients train. Used by the sequential and client-batch
    modes; the caller wraps the returned trunk in a ``TrainingServer``.
    """
    front, middle, back = build_partitioned(config, partition, lora, seed)
    clients, server_channels = build_clients(
        front, back, num_clients, lr, noise, transport, record_frames
    )
    return clients, middle, server_channels


def build_hierarchical_session(
    config: ModelConfig,
    partition: PartitionSpec,
    num_clients: int,
    lr: float,
    lora: LoraConfig | None = LoraConfig(),
    seed: int = 0,
    noise: NoiseConfig | None = None,
    transport: str = "loopback",
) -> tuple[SegmentModel, list[TrainingClient], list[TrainingServer], list[MessageChannel]]:
    """A central trunk plus one fully private pipeline per client."""
    clients, central, server_channels = build_shared_trunk_session(
        config, partition, num_clients, lr, lora, seed, noise, transport
    )
    sub_servers = [TrainingServer(central.clone(), lr) for _ in range(num_clients)]
    return central, clients, sub_servers, server_channels
