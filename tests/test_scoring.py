"""Candidate-set and teacher-forced answer scoring through split sessions."""

import numpy as np
import pytest

from fedsplit.corpus import BatchSampler, make_copy_corpus
from fedsplit.errors import ConfigError, ContextOverflowError, ShapeError
from fedsplit.inference import InferenceStack
from fedsplit.model import (
    ModelConfig,
    PartitionSpec,
    build_monolithic,
    build_partitioned,
)
from fedsplit.scoring import score_multi_token, score_single_token
from fedsplit.training import train_monolithic

CFG = ModelConfig(
    vocab_size=32, hidden_size=16, num_heads=2, num_blocks=3, mlp_hidden=24, max_context=48
)
PART = PartitionSpec(1, 1, 1)


def build_stack(seed=0, **kwargs):
    front, middle, back = build_partitioned(CFG, PART, seed=seed)
    return InferenceStack(front, middle, back, **kwargs)


# ---------------------------------------------------------------------------
# restricted softmax


def test_equal_logits_split_probability_evenly():
    logits = np.zeros(8)
    probs = score_single_token(logits, [3, 5])
    assert probs[0] == 0.5 and probs[1] == 0.5


def test_three_candidate_oracle_values():
    logits = np.full(10, -50.0)
    logits[[2, 4, 7]] = [1.0, 2.0, 3.0]
    probs = score_single_token(logits, [2, 4, 7])
    np.testing.assert_allclose(probs, [0.0900, 0.2447, 0.6652], atol=5e-5)
    want = np.exp([1.0, 2.0, 3.0])
    np.testing.assert_allclose(probs, want / want.sum(), rtol=1e-12)


def test_twenty_logit_gap_is_near_certain():
    logits = np.zeros(4)
    logits[1] = 20.0
    probs = score_single_token(logits, [1, 2])
    assert probs[0] > 1.0 - 1e-8


def test_probabilities_follow_candidate_order_and_sum_to_one():
    rng = np.random.default_rng(5)
    for _ in range(20):
        logits = rng.normal(size=16)
        cands = list(rng.choice(16, size=5, replace=False))
        probs = score_single_token(logits, cands)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        flipped = score_single_token(logits, cands[::-1])
        np.testing.assert_allclose(flipped, probs[::-1], rtol=1e-12)


def test_candidate_validation():
    logits = np.zeros(8)
    with pytest.raises(ConfigError):
        score_single_token(logits, [])
    with pytest.raises(ConfigError):
        score_single_token(logits, [1, 1])
    with pytest.raises(ConfigError):
        score_single_token(logits, [1, 8])
    with pytest.raises(ShapeError):
        score_single_token(np.zeros((2, 8)), [1])


def test_extreme_logits_stay_finite():
    logits = np.array([1e4, 1e4 - 3.0, -1e4])
    probs = score_single_token(logits, [0, 1, 2])
    assert np.all(np.isfinite(probs))
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# teacher-forced answer scoring


def test_cached_and_uncached_scores_agree():
    rng = np.random.default_rng(11)
    for trial in range(4):
        prompt = [int(t) for t in rng.integers(0, CFG.vocab_size, size=6)]
        answer = [int(t) for t in rng.integers(0, CFG.vocab_size, size=5)]
        with build_stack(seed=2) as cached:
            got = score_multi_token(cached.session, prompt, answer)
        with build_stack(seed=2, use_cache=False) as plain:
            want = score_multi_token(plain.session, prompt, answer)
        assert got == pytest.approx(want, abs=1e-10), f"trial {trial}"


def test_single_token_answer_equals_full_softmax_log_prob():
    prompt = [1, 4, 9, 12]
    answer_token = 7
    with build_stack(seed=3) as probe:
        logits = probe.session.prefill(prompt)
    shifted = logits - logits.max()
    log_prob = float(shifted[answer_token] - np.log(np.exp(shifted).sum()))
    with build_stack(seed=3) as scorer:
        got = score_multi_token(scorer.session, prompt, [answer_token])
    assert got == pytest.approx(log_prob, abs=1e-12)


def test_multi_token_score_is_sum_of_stepwise_log_probs():
    prompt = [1, 4, 9]
    answer = [5, 11, 2]
    want = 0.0
    with build_stack(seed=4) as manual:
        logits = manual.session.prefill(prompt)
        for i, tok in enumerate(answer):
            shifted = logits - logits.max()
            want += float(shifted[tok] - np.log(np.exp(shifted).sum()))
            if i + 1 < len(answer):
                logits = manual.session.decode_step(tok)
    with build_stack(seed=4) as scorer:
        got = score_multi_token(scorer.session, prompt, answer)
    assert got == pytest.approx(want, abs=1e-12)


def test_answer_validation_and_context_preflight():
    with build_stack(seed=0) as stack:
        with pytest.raises(ShapeError):
            score_multi_token(stack.session, [1, 2], [])
        with pytest.raises(ShapeError):
            score_multi_token(stack.session, [1, 2], [CFG.vocab_size])
        long_prompt = [1] * 40
        with pytest.raises(ContextOverflowError):
            score_multi_token(stack.session, long_prompt, [2] * 10)


def test_copy_trained_model_prefers_the_echo_answer():
    corpus = make_copy_corpus(8, payload_len=3, vocab_size=CFG.vocab_size, seed=1)
    mono = build_monolithic(CFG, seed=6)
    sampler = BatchSampler(corpus, batch_size=4, seed=0)
    losses = train_monolithic(mono, sampler.batch_for, steps=150, lr=0.2)
    assert losses[-1] < 0.5 * losses[0]

    item = corpus.items[0]
    echo = list(item.answer)
    rng = np.random.default_rng(9)
    random_answer = list(echo)
    while random_answer == echo:
        random_answer = [int(t) for t in rng.integers(4, CFG.vocab_size, size=len(echo))]

    trained = mono.state_dict()
    front, middle, back = build_partitioned(CFG, PART, seed=6)
    for segment in (front, middle, back):
        segment.load_state_dict(trained)
    with InferenceStack(front, middle, back) as stack:
        echo_score = score_multi_token(stack.session, list(item.prompt), echo)
    front, middle, back = build_partitioned(CFG, PART, seed=6)
    for segment in (front, middle, back):
        segment.load_state_dict(trained)
    with InferenceStack(front, middle, back) as stack:
        random_score = score_multi_token(stack.session, list(item.prompt), random_answer)
    assert echo_score > random_score + 1.0
