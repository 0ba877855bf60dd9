"""Honest-but-curious server reconstruction study.

The threat model: the server never tampers with protocol traffic, but one
colluding client shares its plaintext through a side channel. The server
keeps the hidden-state frames that client sent, and once the federation has
finished it trains a private decoder, shaped like the client's own front
stack plus a vocabulary head, on (hidden states, plaintext) pairs, then
tries to invert the hidden states honest clients send. Reconstruction is
scored with token accuracy, BLEU-4, and ROUGE-2 F1 on held-out honest data.

The decoder never runs while the federation does, so a run with the attack
enabled produces byte-identical protocol traffic and bit-identical honest
training to a run without it.
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
from .wire import HiddenStateMsg, decode_message

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
    """The curious server's decoder and schedule; also the config file's ``attack``
    section, so its names and defaults are the file's. ``enabled`` False decodes nothing."""

    depth: int = 1
    attacker_lr: float = 0.2
    replay_epochs: int = 0
    attacker_seed: int = 101
    enabled: bool = True

    def __post_init__(self):
        if self.depth < 0:
            raise ConfigError("attack decoder depth cannot be negative")
        if self.attacker_lr <= 0:
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


def train_decoder(
    decoder: SegmentModel,
    pairs: Sequence[tuple[np.ndarray, np.ndarray, Sequence[int]]],
    lr: float,
    replay_epochs: int = 0,
    seed: int = 0,
) -> list[float]:
    """Fit the decoder to (hidden states, tokens, pads) pairs; return the losses.

    One SGD step per pair in order, then ``replay_epochs`` passes over the
    pairs, each shuffled by a permutation drawn from ``seed``. Each step
    predicts every token from its own position; padded positions are not
    supervised.
    """
    rng = np.random.default_rng(seed)
    order = list(range(len(pairs)))
    for _ in range(replay_epochs):
        order += rng.permutation(len(pairs)).tolist()
    losses = []
    for idx in order:
        hidden, tokens, pads = pairs[idx]
        targets = np.array(tokens)
        for row, pad in enumerate(pads):
            targets[row, :pad] = IGNORE_INDEX
        loss, _ = local_loss_step(decoder, normalize_hidden(hidden), targets, pads)
        apply_sgd_step(decoder.trainable_parameters(), decoder.collect_grads(), lr)
        losses.append(loss)
    return losses


def reconstruct_tokens(decoder: SegmentModel, hidden: np.ndarray) -> np.ndarray:
    """Greedy per-position inversion of an unpadded hidden-state batch."""
    with T.no_grad():
        logits = decoder.forward(normalize_hidden(hidden))
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
    noise_scale: float = 0.0,
) -> tuple[float, float, float]:
    """Score the decoder against hidden states the honest client would send.

    Each item is rendered exactly as training would transmit it: the input
    row (everything but the final supervised token), encoded alone by the
    honest front. When the deployment adds forward noise, evaluation draws
    fresh noise of the same ``noise_scale``, since the attacker only ever
    sees noised states. Returns mean (token accuracy, BLEU-4, ROUGE-2 F1)
    over items.
    """
    seq = items.items if isinstance(items, ToyCorpus) else list(items)
    if not seq:
        raise ConfigError("reconstruction evaluation needs at least one item")
    rng = np.random.default_rng(EVAL_NOISE_SEED)
    accuracies, bleus, rouges = [], [], []
    for item in seq:
        truth = list(item.full_sequence())[:-1]
        tokens = np.asarray([truth])
        with T.no_grad():
            hidden = front.forward(tokens).data
        hidden = inject_noise(hidden, noise_scale, rng)
        predicted = reconstruct_tokens(decoder, hidden)[0].tolist()
        accuracies.append(float(np.mean([p == t for p, t in zip(predicted, truth)])))
        bleus.append(bleu4(predicted, truth))
        rouges.append(rouge2_f1(predicted, truth))
    return float(np.mean(accuracies)), float(np.mean(bleus)), float(np.mean(rouges))


# ---------------------------------------------------------------------------
# the full study


def check_cut_depth(config: ModelConfig, depth: int) -> None:
    """Raise ``ConfigError`` unless a cut after ``depth`` blocks leaves at
    least one trunk block before the one-block back."""
    if depth < 0:
        raise ConfigError("cut depth cannot be negative")
    if depth > config.num_blocks - 2:
        raise ConfigError(
            f"cut depth {depth} leaves no trunk in a {config.num_blocks}-block model"
        )


def build_split_for_depth(
    config: ModelConfig,
    depth: int,
    lora: LoraConfig | None = LoraConfig(),
    seed: int = 0,
) -> tuple[SegmentModel, SegmentModel, SegmentModel]:
    """Front of ``depth`` blocks (possibly none: raw embeddings cross the cut),
    a trunk of everything up to the last block, and a one-block back."""
    check_cut_depth(config, depth)
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
    record_frames: bool = False,
) -> AttackReport:
    """Train a two-client federation with a curious server and score it.

    ``corpora[0]`` belongs to the colluding client, ``corpora[1]`` to the
    honest one whose held-out items are attacked. ``lr`` is the federation's
    step; the decoder's is ``attacker.attacker_lr``. With ``attacker.enabled``
    False the identical federation runs and nothing is decoded; the report
    then carries NaN metrics but the same losses and frames, which is what
    the non-interference audit compares. With it on, the server end of the
    colluding client's channel records the frames it receives. Once the
    federation is over, the r-th hidden-state message pairs with round r's
    disclosed batch, and ``train_decoder`` fits the decoder to those pairs.
    The report's ``noise_scale`` is the forward noise on the hidden states.
    With ``record_frames`` its ``frame_log`` holds every frame the server
    ends received and sent.
    """
    if len(corpora) < 2:
        raise ConfigError(
            "the threat model requires at least two clients: one colluding, one honest"
        )
    front, middle, back = build_split_for_depth(config, attacker.depth, lora, seed)
    malicious_id, honest_id = 0, 1

    clients, server_channels = build_clients(front, back, len(corpora), lr, noise)
    for channel in server_channels if record_frames else ():
        channel.sent_log, channel.recv_log = [], []
    captured = server_channels[malicious_id]
    if attacker.enabled:
        captured.recv_log = []  # nothing has crossed yet, so no log misses a frame
    samplers = client_samplers(corpora, batch_size, seed)

    with SequentialTrainer(clients, TrainingServer(middle, lr), server_channels) as trainer:
        records = trainer.run(lambda cid, r: samplers[cid].batch_for(r), rounds=steps)

    frame_log: list[bytes] = []
    if record_frames:
        for channel in server_channels:
            frame_log += channel.recv_log + channel.sent_log
    scale = noise.scale if noise is not None and noise.target == "forward_hidden" else 0.0
    scores, pairs = (float("nan"),) * 3, []
    if attacker.enabled:
        received = (decode_message(frame) for frame in captured.recv_log)
        hidden = (msg for msg in received if isinstance(msg, HiddenStateMsg))
        for r, msg in enumerate(hidden):  # the colluding client sends one per round
            batch = samplers[malicious_id].batch_for(r)
            pairs.append((msg.payload, batch.tokens, batch.pad_lens))
        decoder = build_decoder_probe(config, attacker.depth, attacker.attacker_seed)
        train_decoder(decoder, pairs, attacker.attacker_lr, attacker.replay_epochs,
                      attacker.attacker_seed + 1)
        scores = evaluate_reconstruction(decoder, clients[honest_id].front, heldout, scale)
    return AttackReport(
        attacker.depth,
        scale,
        *scores,
        train_pairs=len(pairs),
        eval_sequences=len(heldout),
        honest_losses=[r.loss for r in records if r.client_id == honest_id],
        frame_log=frame_log,
    )

