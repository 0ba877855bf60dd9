"""Honest-but-curious server reconstruction study.

The threat model: the server never tampers with protocol traffic, but one
colluding client shares its plaintext through a side channel. The server
trains a private decoder, shaped like the client's own front stack plus a
vocabulary head, on (hidden states, plaintext) pairs as they pass by, then
tries to invert the hidden states honest clients send. Reconstruction is
scored with token accuracy, BLEU-4, and ROUGE-2 F1 on held-out honest data.

Training the decoder happens strictly after each reply has been dispatched,
so a run with the attack enabled produces byte-identical protocol traffic
and bit-identical honest training to a run without it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from math import exp
from typing import Sequence

import numpy as np

from . import tensor as T
from .corpus import CorpusItem, ToyCorpus, client_samplers
from .errors import ConfigError, UndefinedMetricError
from .model import (
    LoraConfig,
    ModelConfig,
    SegmentModel,
    apply_sgd_step,
    build_decoder_probe,
    cut_segments,
)
from .strategies import build_clients
from .training import (
    IGNORE_INDEX,
    NoiseConfig,
    SequentialTrainer,
    TrainingServer,
    inject_noise,
    local_loss_step,
)
from .wire import HiddenStateMsg

# Seed of the fresh forward noise drawn when scoring reconstruction.
EVAL_NOISE_SEED = 9_999

# ---------------------------------------------------------------------------
# overlap metrics


def _ngrams(tokens: Sequence[int], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def bleu4(candidate: Sequence[int], reference: Sequence[int]) -> float:
    """Geometric mean of clipped 1-4-gram precisions with brevity penalty.

    Standard corpus BLEU restricted to a single sentence pair and left
    unsmoothed, so any order with zero overlap zeroes the score. An empty
    candidate scores 0; an empty reference leaves the metric undefined.
    """
    cand = [int(t) for t in candidate]
    ref = [int(t) for t in reference]
    if not ref:
        raise UndefinedMetricError("BLEU-4 needs a non-empty reference")
    if not cand:
        return 0.0
    log_sum = 0.0
    for n in range(1, 5):
        total = max(len(cand) - n + 1, 0)
        if total == 0:
            return 0.0
        ref_counts = _ngrams(ref, n)
        clipped = sum(
            min(count, ref_counts[gram]) for gram, count in _ngrams(cand, n).items()
        )
        if clipped == 0:
            return 0.0
        log_sum += np.log(clipped / total)
    brevity = 1.0 if len(cand) > len(ref) else exp(1.0 - len(ref) / len(cand))
    return float(brevity * exp(log_sum / 4.0))


def rouge2_f1(candidate: Sequence[int], reference: Sequence[int]) -> float:
    """Bigram-overlap F1. Needs a reference of at least two tokens."""
    cand = [int(t) for t in candidate]
    ref = [int(t) for t in reference]
    if len(ref) < 2:
        raise UndefinedMetricError("ROUGE-2 needs a reference of at least two tokens")
    ref_counts = _ngrams(ref, 2)
    cand_counts = _ngrams(cand, 2)
    overlap = sum(min(count, ref_counts[gram]) for gram, count in cand_counts.items())
    if overlap == 0:
        return 0.0
    precision = overlap / sum(cand_counts.values())
    recall = overlap / sum(ref_counts.values())
    return float(2.0 * precision * recall / (precision + recall))


# ---------------------------------------------------------------------------
# the decoder and its trainer


@dataclass(frozen=True)
class AttackerConfig:
    """Knobs of the reconstruction decoder and its training schedule."""

    depth: int = 1
    lr: float = 2e-3
    replay_epochs: int = 0
    seed: int = 101

    def __post_init__(self):
        if self.depth < 0:
            raise ConfigError("attack decoder depth cannot be negative")
        if self.lr <= 0:
            raise ConfigError("attack learning rate must be positive")
        if self.replay_epochs < 0:
            raise ConfigError("replay epochs cannot be negative")


def normalize_hidden(h: np.ndarray) -> np.ndarray:
    """Rescale each sequence to unit RMS.

    Captured states carry no information in their overall magnitude, and the
    attacker does not know the victim's activation scale, so conditioning the
    decoder's input is simply the attacker playing well.
    """
    arr = np.asarray(h, dtype=np.float64)
    rms = np.sqrt(np.mean(arr * arr, axis=(-2, -1), keepdims=True))
    return arr / np.maximum(rms, 1e-12)


class AttackObserver:
    """Server-side decoder trained on the colluding client's exchanges.

    ``observe`` runs only after each reply has been dispatched, so protocol
    traffic never waits on it. The plaintext arrives through ``disclose`` -
    the collusion side channel, which never touches the wire. Messages from
    clients that disclosed nothing are ignored.
    """

    def __init__(self, decoder: SegmentModel, malicious_id: int, lr: float):
        self.decoder = decoder
        self.malicious_id = malicious_id
        self.lr = lr
        self.pairs: list[tuple[np.ndarray, np.ndarray, tuple[int, ...]]] = []
        self.losses: list[float] = []
        self._plaintext: dict[int, tuple[np.ndarray, tuple[int, ...]]] = {}

    def disclose(self, step_id: int, tokens: np.ndarray, pad_lens: Sequence[int]) -> None:
        self._plaintext[step_id] = (np.array(tokens), tuple(int(p) for p in pad_lens))

    def observe(self, msg: HiddenStateMsg) -> None:
        if msg.client_id != self.malicious_id:
            return
        disclosed = self._plaintext.pop(msg.step_id, None)
        if disclosed is None:
            return
        tokens, pads = disclosed
        pair = (msg.payload.copy(), tokens, pads)
        self.pairs.append(pair)
        self.train_pair(*pair)

    def train_pair(self, hidden: np.ndarray, tokens: np.ndarray, pads: tuple[int, ...]) -> None:
        """One reconstruction SGD step: predict each token from its position."""
        targets = np.array(tokens)
        for row, pad in enumerate(pads):
            targets[row, :pad] = IGNORE_INDEX
        loss, grads = local_loss_step(self.decoder, normalize_hidden(hidden), targets, pads)
        apply_sgd_step(self.decoder.trainable_parameters(), grads, self.lr)
        self.losses.append(loss)

    def replay(self, epochs: int, seed: int = 0) -> None:
        """Extra offline passes over the captured pairs, shuffled per epoch."""
        rng = np.random.default_rng(seed)
        for _ in range(epochs):
            for idx in rng.permutation(len(self.pairs)):
                self.train_pair(*self.pairs[idx])


def reconstruct_tokens(decoder: SegmentModel, hidden: np.ndarray, pads=0) -> np.ndarray:
    """Greedy per-position inversion of a hidden-state batch."""
    with T.no_grad():
        logits = decoder.forward(normalize_hidden(hidden), pad_lens=pads)
    return np.argmax(logits.data, axis=-1)


# ---------------------------------------------------------------------------
# reporting


@dataclass
class AttackReport:
    """Reconstruction quality of one (depth, noise scale) configuration."""

    depth: int
    noise_scale: float
    token_accuracy: float
    bleu4: float
    rouge2_f1: float
    train_pairs: int
    eval_sequences: int
    honest_losses: list[float] = field(default_factory=list, repr=False)
    frame_log: list[bytes] = field(default_factory=list, repr=False)

    def to_json(self) -> dict:
        return {
            "depth": self.depth,
            "noise_scale": self.noise_scale,
            "token_accuracy": self.token_accuracy,
            "bleu4": self.bleu4,
            "rouge2_f1": self.rouge2_f1,
            "token_accuracy_x100": 100.0 * self.token_accuracy,
            "bleu4_x100": 100.0 * self.bleu4,
            "rouge2_f1_x100": 100.0 * self.rouge2_f1,
            "train_pairs": self.train_pairs,
            "eval_sequences": self.eval_sequences,
        }


def evaluate_reconstruction(
    decoder: SegmentModel,
    front: SegmentModel,
    items: ToyCorpus | Sequence[CorpusItem],
    noise: NoiseConfig | None = None,
) -> tuple[float, float, float]:
    """Score the decoder against hidden states the honest client would send.

    Each item is rendered exactly as training would transmit it: the input
    row (everything but the final supervised token), encoded alone by the
    honest front. When the deployment adds forward noise, evaluation draws
    fresh noise of the same scale, since the attacker only ever sees noised
    states. Returns mean (token accuracy, BLEU-4, ROUGE-2 F1) over items.
    """
    seq = items.items if isinstance(items, ToyCorpus) else list(items)
    if not seq:
        raise ConfigError("reconstruction evaluation needs at least one item")
    scale = noise.scale if noise is not None and noise.target == "forward_hidden" else 0.0
    rng = np.random.default_rng(EVAL_NOISE_SEED)
    accuracies, bleus, rouges = [], [], []
    for item in seq:
        truth = list(item.full_sequence())[:-1]
        tokens = np.asarray([truth])
        with T.no_grad():
            hidden = front.forward(tokens).data
        hidden = inject_noise(hidden, scale, rng)
        predicted = reconstruct_tokens(decoder, hidden)[0].tolist()
        accuracies.append(float(np.mean([p == t for p, t in zip(predicted, truth)])))
        bleus.append(bleu4(predicted, truth))
        rouges.append(rouge2_f1(predicted, truth))
    return float(np.mean(accuracies)), float(np.mean(bleus)), float(np.mean(rouges))


# ---------------------------------------------------------------------------
# the full study


def build_split_for_depth(
    config: ModelConfig,
    depth: int,
    lora: LoraConfig | None = LoraConfig(),
    seed: int = 0,
) -> tuple[SegmentModel, SegmentModel, SegmentModel]:
    """Front of ``depth`` blocks (possibly none: raw embeddings cross the cut),
    a trunk of everything up to the last block, and a one-block back."""
    if depth < 0:
        raise ConfigError("cut depth cannot be negative")
    if depth > config.num_blocks - 2:
        raise ConfigError(
            f"cut depth {depth} leaves no trunk in a {config.num_blocks}-block model"
        )
    return cut_segments(config, lora, seed, depth, config.num_blocks - depth - 1)


def run_attack(
    config: ModelConfig,
    corpora: Sequence[ToyCorpus],
    heldout: ToyCorpus,
    steps: int,
    attacker: AttackerConfig = AttackerConfig(),
    lr: float = 0.1,
    batch_size: int = 4,
    noise: NoiseConfig | None = None,
    lora: LoraConfig | None = LoraConfig(),
    seed: int = 0,
    attack_enabled: bool = True,
    record_frames: bool = False,
) -> AttackReport:
    """Train a two-client federation with a curious server and score it.

    ``corpora[0]`` belongs to the colluding client, ``corpora[1]`` to the
    honest one whose held-out items are attacked. With ``attack_enabled``
    False the identical federation runs without any observer; the report
    then carries NaN metrics but the same losses and frames, which is what
    the non-interference audit compares.
    """
    if len(corpora) < 2:
        raise ConfigError(
            "the threat model requires at least two clients: one colluding, one honest"
        )
    front, middle, back = build_split_for_depth(config, attacker.depth, lora, seed)
    malicious_id, honest_id = 0, 1

    observer = None
    if attack_enabled:
        decoder = build_decoder_probe(config, attacker.depth, attacker.seed)
        observer = AttackObserver(decoder, malicious_id, attacker.lr)

    clients, server_channels = build_clients(
        front, back, len(corpora), lr, noise, record_frames=record_frames
    )
    server = TrainingServer(middle, lr, observer=observer)

    samplers = client_samplers(corpora, batch_size, seed)

    def source(cid: int, round_index: int):
        batch = samplers[cid].batch_for(round_index)
        if observer is not None and cid == malicious_id:
            observer.disclose(round_index, batch.tokens, batch.pad_lens)
        return batch

    with SequentialTrainer(clients, server, server_channels) as trainer:
        records = trainer.run(source, rounds=steps)

    frame_log: list[bytes] = []
    if record_frames:
        for channel in server_channels:
            frame_log += channel.recv_log + channel.sent_log
    scores, pairs = (float("nan"),) * 3, 0
    if observer is not None:
        if attacker.replay_epochs:
            observer.replay(attacker.replay_epochs, seed=attacker.seed + 1)
        scores = evaluate_reconstruction(observer.decoder, clients[honest_id].front, heldout, noise)
        pairs = len(observer.pairs)
    return AttackReport(
        attacker.depth,
        noise.scale if noise else 0.0,
        *scores,
        train_pairs=pairs,
        eval_sequences=len(heldout),
        honest_losses=[r.loss for r in records if r.client_id == honest_id],
        frame_log=frame_log,
    )

