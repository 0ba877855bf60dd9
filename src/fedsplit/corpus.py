"""Synthetic token corpora and batch assembly.

Token id conventions: 0 pad, 1 begin, 2 separator, 3 stop; content ids start
at 4. Items carry a prompt (context, unsupervised) and an answer (the
supervised continuation, ending in the stop token for generative tasks).
Training batches are left-padded to a common width, which keeps the attention
mask within the causal-plus-left-padding family the wire protocol compresses.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, ShapeError
from .training import IGNORE_INDEX, Batch

PAD_ID = 0
BOS_ID = 1
SEP_ID = 2
STOP_ID = 3
FIRST_CONTENT_ID = 4

CORPUS_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class CorpusItem:
    prompt: tuple[int, ...]
    answer: tuple[int, ...]
    candidates: tuple[int, ...] | None = None

    def full_sequence(self) -> tuple[int, ...]:
        return self.prompt + self.answer


def cloze_problem(item: CorpusItem) -> str | None:
    """Why ``item`` cannot be scored as a cloze item, or ``None`` if it can:
    it needs a set of distinct candidates and a one-token answer among them."""
    cands = item.candidates
    if not cands:
        return "has no candidate set"
    if len(set(cands)) != len(cands):
        return f"has duplicate candidates {list(cands)}"
    if len(item.answer) != 1 or item.answer[0] not in cands:
        return f"answer {list(item.answer)} is not one token among candidates {list(cands)}"
    return None


@dataclass
class ToyCorpus:
    items: list[CorpusItem]
    vocab_size: int
    task: str
    seed: int

    def __len__(self) -> int:
        return len(self.items)

    def validate(self) -> None:
        for i, item in enumerate(self.items):
            if not item.prompt:
                raise ConfigError(f"item {i} has an empty prompt")
            ids = item.full_sequence() + (item.candidates or ())
            if any(type(t) is not int or not 0 <= t < self.vocab_size for t in ids):
                raise ConfigError(
                    f"item {i} has token ids that are not integers inside vocab {self.vocab_size}"
                )
            problem = cloze_problem(item) if self.task == "cloze" else None
            if problem:
                raise ConfigError(f"item {i} {problem}")

    def save(self, path) -> None:
        payload = {
            "schema_version": CORPUS_SCHEMA_VERSION,
            "task": self.task,
            "vocab_size": self.vocab_size,
            "seed": self.seed,
            "items": [
                {
                    "prompt": list(it.prompt),
                    "answer": list(it.answer),
                    "candidates": list(it.candidates) if it.candidates is not None else None,
                }
                for it in self.items
            ],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True)

    @staticmethod
    def load(path) -> "ToyCorpus":
        """Read a file written by ``save``; malformed content raises ``ConfigError``."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
            raise ConfigError(f"corpus file {path} is not JSON: {exc}") from None
        version = payload.get("schema_version") if isinstance(payload, dict) else None
        if version != CORPUS_SCHEMA_VERSION:
            raise ConfigError(f"unsupported corpus schema version {version!r}")
        try:
            items = [
                CorpusItem(
                    tuple(it["prompt"]),
                    tuple(it["answer"]),
                    tuple(it["candidates"]) if it.get("candidates") is not None else None,
                )
                for it in payload["items"]
            ]
            corpus = ToyCorpus(items, payload["vocab_size"], payload["task"], payload["seed"])
            corpus.validate()
        except (AttributeError, KeyError, TypeError) as exc:
            raise ConfigError(f"corpus file {path} is malformed: {exc!r}") from None
        if not items:
            raise ConfigError(f"corpus file {path} has no items")
        return corpus


# ---------------------------------------------------------------------------
# generators


def _content_rng(rng, n, vocab_size):
    if vocab_size <= FIRST_CONTENT_ID:
        raise ConfigError(f"vocab_size must exceed {FIRST_CONTENT_ID}, the first content id")
    return tuple(int(x) for x in rng.integers(FIRST_CONTENT_ID, vocab_size, size=n))


def make_copy_corpus(
    n_items: int,
    payload_len: int,
    vocab_size: int = 256,
    seed: int = 0,
) -> ToyCorpus:
    """Echo task: the answer repeats the prompt payload, then stops.

    Highly memorizable, which makes it the convergence benchmark: attention
    adapters only need to learn to copy from fixed offsets.
    """
    rng = np.random.default_rng(seed)
    items = []
    for _ in range(n_items):
        payload = _content_rng(rng, payload_len, vocab_size)
        items.append(
            CorpusItem(prompt=(BOS_ID,) + payload + (SEP_ID,), answer=payload + (STOP_ID,))
        )
    corpus = ToyCorpus(items, vocab_size, "copy", seed)
    corpus.validate()
    return corpus


def make_lm_corpus(
    n_items: int,
    length: int,
    vocab_size: int = 256,
    seed: int = 0,
) -> ToyCorpus:
    """Uniform random continuations: every content position is supervised."""
    rng = np.random.default_rng(seed)
    items = []
    for _ in range(n_items):
        body = _content_rng(rng, length, vocab_size)
        items.append(CorpusItem(prompt=(BOS_ID,), answer=body + (STOP_ID,)))
    corpus = ToyCorpus(items, vocab_size, "lm", seed)
    corpus.validate()
    return corpus


def make_cloze_corpus(
    n_items: int,
    context_len: int,
    num_candidates: int,
    vocab_size: int = 256,
    seed: int = 0,
) -> ToyCorpus:
    """Single-token answers with a candidate set, for restricted scoring."""
    if not 2 <= num_candidates <= vocab_size - FIRST_CONTENT_ID:
        raise ConfigError(f"cloze items need 2 to vocab_size - {FIRST_CONTENT_ID} candidates")
    rng = np.random.default_rng(seed)
    items = []
    for _ in range(n_items):
        context = _content_rng(rng, context_len, vocab_size)
        candidates = rng.choice(
            np.arange(FIRST_CONTENT_ID, vocab_size), size=num_candidates, replace=False
        )
        answer = int(rng.choice(candidates))
        items.append(
            CorpusItem(
                prompt=(BOS_ID,) + context + (SEP_ID,),
                answer=(answer,),
                candidates=tuple(int(c) for c in candidates),
            )
        )
    corpus = ToyCorpus(items, vocab_size, "cloze", seed)
    corpus.validate()
    return corpus


def shard_corpus(corpus: ToyCorpus, num_shards: int) -> list[ToyCorpus]:
    """Round-robin split so every shard sees the task's full diversity."""
    if num_shards < 1:
        raise ConfigError("need at least one shard")
    shards = [
        ToyCorpus(corpus.items[i::num_shards], corpus.vocab_size, corpus.task, corpus.seed + i)
        for i in range(num_shards)
    ]
    if any(len(s) == 0 for s in shards):
        raise ConfigError(f"corpus of {len(corpus)} items cannot fill {num_shards} shards")
    return shards


# ---------------------------------------------------------------------------
# batching


def batch_from_items(items: Sequence[CorpusItem]) -> Batch:
    """Left-pad items to one width; supervise only answer positions.

    Inputs are the sequence minus its last token; target at position ``i`` is
    the next token when that token lies in the answer region, else ignored.
    """
    if not items:
        raise ShapeError("cannot build an empty batch")
    width = max(len(it.full_sequence()) - 1 for it in items)
    tokens = np.full((len(items), width), PAD_ID, dtype=np.int64)
    targets = np.full((len(items), width), IGNORE_INDEX, dtype=np.int64)
    pads = []
    for b, item in enumerate(items):
        full = item.full_sequence()
        inp = full[:-1]
        pad = width - len(inp)
        pads.append(pad)
        tokens[b, pad:] = inp
        answer_start = len(item.prompt)
        for i in range(len(inp)):
            if i + 1 >= answer_start:
                targets[b, pad + i] = full[i + 1]
    return Batch(tokens=tokens, targets=targets, pad_lens=tuple(pads))


class BatchSampler:
    """Stateless deterministic sampler: ``batch_for(step)`` is a pure function.

    Monolithic and split runs that share a sampler seed therefore consume
    identical batch streams, no matter which process asks.
    """

    def __init__(self, corpus: ToyCorpus, batch_size: int, seed: int = 0):
        if batch_size < 1:
            raise ConfigError("batch_size must be positive")
        if len(corpus) == 0:
            raise ConfigError("corpus is empty")
        self.corpus = corpus
        self.batch_size = min(batch_size, len(corpus))
        self.seed = seed

    def batch_for(self, step: int) -> Batch:
        rng = np.random.default_rng((self.seed, step))
        idx = rng.choice(len(self.corpus), size=self.batch_size, replace=False)
        return batch_from_items([self.corpus.items[i] for i in sorted(idx)])


def client_samplers(shards: Sequence[ToyCorpus], batch_size: int, seed: int) -> list[BatchSampler]:
    """One sampler per client shard, indexed by client id. Each client's
    sampler seed is ``seed`` offset by a fixed stride per client id."""
    return [BatchSampler(shard, batch_size, seed=seed + 17 * cid) for cid, shard in enumerate(shards)]
