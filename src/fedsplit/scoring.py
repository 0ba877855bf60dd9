"""Answer scoring over a split-model session.

Two evaluation modes: cloze items score a fixed candidate set by a softmax
restricted to the candidate logits; generative items score a multi-token
answer by teacher-forcing it through the decode path and summing per-token
log-probabilities. Both are decode-path independent: cached and uncached
sessions produce the same numbers to float precision.

``score_single_token`` takes one logit row, so the cloze caller is free to
produce those rows in batches (``GenerationSession.prefill_batch`` takes a
whole corpus): a batched row is bitwise the one-row prefill's, and so is its
score. ``score_multi_token`` re-prefills the session it is given, so a caller
scores every generative item on one session.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import ConfigError, ContextOverflowError, ShapeError
from .inference import GenerationSession


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - np.max(logits)
    return shifted - np.log(np.sum(np.exp(shifted)))


def score_single_token(logits: np.ndarray, candidates: Sequence[int]) -> np.ndarray:
    """Softmax restricted to the candidate token ids.

    Returns probabilities aligned with ``candidates`` order, summing to one.
    """
    arr = np.asarray(logits, dtype=np.float64)
    if arr.ndim != 1:
        raise ShapeError(f"single-token scoring expects a 1-D logit row, got {arr.shape}")
    cands = [int(c) for c in candidates]
    if not cands:
        raise ConfigError("candidate set must be non-empty")
    if len(set(cands)) != len(cands):
        raise ConfigError(f"candidate set has duplicates: {cands}")
    bad = [c for c in cands if not 0 <= c < arr.shape[0]]
    if bad:
        raise ConfigError(f"candidate ids {bad} outside vocabulary of {arr.shape[0]}")
    picked = arr[cands]
    shifted = np.exp(picked - np.max(picked))
    return shifted / np.sum(shifted)


def score_multi_token(
    session: GenerationSession, prompt: Sequence[int], answer: Sequence[int]
) -> float:
    """Teacher-forced sum of answer-token log-probabilities.

    The prompt is prefetched once, then each answer token is scored from the
    current logits and fed back through the decode path, so a cached session
    pays one single-position exchange per answer token. The prefill drops
    whatever the session held before, so one session scores any number of
    (prompt, answer) pairs in turn, each as a fresh session would.
    """
    toks = [int(t) for t in answer]
    if not toks:
        raise ShapeError("answer must contain at least one token")
    vocab = session.front.config.vocab_size
    bad = [t for t in toks if not 0 <= t < vocab]
    if bad:
        raise ShapeError(f"answer tokens {bad[:4]} outside vocabulary of {vocab}")
    needed = len(list(prompt)) + len(toks) - 1
    if needed > session.max_context:
        raise ContextOverflowError(
            f"prompt plus answer needs {needed} positions, max context is "
            f"{session.max_context}"
        )
    logits = session.prefill(prompt)
    total = 0.0
    for i, token in enumerate(toks):
        total += float(_log_softmax(logits)[token])
        if i + 1 < len(toks):
            logits = session.decode_step(token)
    return total
