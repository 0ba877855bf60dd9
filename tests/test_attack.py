"""Reconstruction-attack harness: metrics, decoder training from recorded
(hidden states, tokens, pads) pairs, and the non-interference contract."""

import math
from dataclasses import replace

import numpy as np
import pytest

import fedsplit.tensor as T
from fedsplit.attack import (
    AttackerConfig,
    bleu4,
    build_split_for_depth,
    evaluate_reconstruction,
    normalize_hidden,
    reconstruct_tokens,
    rouge2_f1,
    run_attack,
    train_decoder,
)
from fedsplit.corpus import make_lm_corpus, shard_corpus
from fedsplit.errors import ConfigError, UndefinedMetricError
from fedsplit.model import ModelConfig, build_decoder_probe, build_monolithic
from fedsplit.training import NoiseConfig

CFG = ModelConfig(
    vocab_size=16,
    hidden_size=32,
    num_heads=4,
    num_blocks=5,
    mlp_hidden=48,
    init_scale=0.002,
    rms_eps=1e-8,
)


def small_corpus(seed=3, items=96):
    return make_lm_corpus(items, length=11, vocab_size=16, seed=seed)


# ---------------------------------------------------------------------------
# BLEU-4


def test_bleu_identical_sequences_score_one():
    assert bleu4([1, 2, 3, 4, 5], [1, 2, 3, 4, 5]) == pytest.approx(1.0)


def test_bleu_empty_candidate_scores_zero():
    assert bleu4([], [1, 2, 3, 4]) == 0.0


def test_bleu_empty_reference_is_undefined():
    with pytest.raises(UndefinedMetricError):
        bleu4([1, 2, 3], [])


def test_bleu_no_four_gram_overlap_scores_zero():
    # shares unigrams, bigrams, trigrams, but no 4-gram
    assert bleu4([1, 2, 3, 9, 1, 2, 3], [1, 2, 3, 4]) == 0.0


def test_bleu_candidate_shorter_than_four_tokens_scores_zero():
    assert bleu4([1, 2, 3], [1, 2, 3]) == 0.0


def test_bleu_hand_worked_six_token_example():
    # candidate [1,2,3,4,5,6] vs reference [1,2,3,4,9,6]:
    # 1-gram 5/6, 2-gram 3/5, 3-gram 2/4, 4-gram 1/3, equal lengths so no
    # brevity penalty; geometric mean = (1/12) ** (1/4)
    got = bleu4([1, 2, 3, 4, 5, 6], [1, 2, 3, 4, 9, 6])
    assert got == pytest.approx((1.0 / 12.0) ** 0.25, rel=1e-12)


def test_bleu_brevity_penalty_for_short_candidate():
    # perfect precisions but 4 tokens against a 5-token reference
    got = bleu4([1, 2, 3, 4], [1, 2, 3, 4, 5])
    assert got == pytest.approx(math.exp(1.0 - 5.0 / 4.0), rel=1e-12)


def test_bleu_long_candidate_gets_no_brevity_bonus():
    # candidate longer than the reference: penalty term is exactly 1
    got = bleu4([1, 2, 3, 4, 5, 9], [1, 2, 3, 4, 5])
    mean = (1.0 * (5 / 6) * (4 / 5) * (3 / 4) * (2 / 3)) ** 0.25  # 1g 5/6 ...
    assert got == pytest.approx(mean, rel=1e-12)


# ---------------------------------------------------------------------------
# ROUGE-2


def test_rouge_identical_sequences_score_one():
    assert rouge2_f1([4, 5, 6, 7], [4, 5, 6, 7]) == pytest.approx(1.0)


def test_rouge_disjoint_sequences_score_zero():
    assert rouge2_f1([1, 2, 3, 4], [5, 6, 7, 8]) == 0.0


def test_rouge_hand_worked_six_eleven_example():
    # candidate has 5 bigrams, reference 6, exactly 3 shared:
    # F1 = 2 * (3/5) * (3/6) / ((3/5) + (3/6)) = 6/11
    got = rouge2_f1([1, 2, 3, 4, 5, 6], [1, 2, 3, 4, 9, 6, 5])
    assert got == pytest.approx(6.0 / 11.0, rel=1e-12)


def test_rouge_short_reference_is_undefined():
    with pytest.raises(UndefinedMetricError):
        rouge2_f1([1, 2, 3], [7])


def test_rouge_single_token_candidate_scores_zero():
    assert rouge2_f1([4], [4, 5, 6]) == 0.0


def test_rouge_clips_repeated_bigrams():
    # candidate (7,7) twice, reference once: overlap clips to 1
    got = rouge2_f1([7, 7, 7], [7, 7])
    assert got == pytest.approx(2.0 / 3.0, rel=1e-12)


# ---------------------------------------------------------------------------
# configuration and split construction


def test_attacker_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        AttackerConfig(depth=-1)
    with pytest.raises(ConfigError):
        AttackerConfig(attacker_lr=0.0)
    with pytest.raises(ConfigError):
        AttackerConfig(replay_epochs=-2)


def test_split_for_depth_zero_sends_raw_embeddings():
    front, middle, back = build_split_for_depth(CFG, 0, seed=3)
    assert len(front.blocks) == 0
    assert len(middle.blocks) == CFG.num_blocks - 1
    assert len(back.blocks) == 1


def test_split_for_depth_matches_monolithic_forward():
    mono = build_monolithic(CFG, seed=3)
    tokens = np.array([[1, 4, 9, 12, 5, 7]])
    with T.no_grad():
        want = mono.forward(tokens).data
    for depth in (0, 1, 2, 3):
        front, middle, back = build_split_for_depth(CFG, depth, seed=3)
        with T.no_grad():
            h = front.forward(tokens)
            h = middle.forward(h.data)
            got = back.forward(h.data).data
        assert np.array_equal(got, want), f"depth {depth} diverged"


def test_split_for_depth_rejects_cut_that_leaves_no_trunk():
    with pytest.raises(ConfigError):
        build_split_for_depth(CFG, CFG.num_blocks - 1)
    with pytest.raises(ConfigError):
        build_split_for_depth(CFG, -1)


def test_decoder_probe_is_independent_and_fully_trainable():
    front, _, _ = build_split_for_depth(CFG, 1, seed=3)
    decoder = build_decoder_probe(CFG, 1, seed=101)
    victim = front.state_dict()
    probe = decoder.state_dict()
    aliased = [
        k for k in probe if k in victim and np.shares_memory(probe[k], victim[k])
    ]
    assert not aliased, f"probe aliases victim arrays: {aliased}"
    # norm weights start at ones everywhere; the random draws must differ
    shared = [
        k
        for k in probe
        if k in victim
        and "norm" not in k
        and np.array_equal(probe[k], victim[k])
    ]
    assert not shared, f"probe shares parameters with the victim: {shared}"
    trainable = decoder.trainable_parameters()
    assert any("attn" in name for name in trainable)
    assert "head.weight" in trainable


def test_decoder_probe_depth_zero_maps_hidden_to_vocab():
    decoder = build_decoder_probe(CFG, 0, seed=101)
    assert len(decoder.blocks) == 0
    h = np.zeros((2, 5, CFG.hidden_size))
    h[:, :, 0] = 1.0
    with T.no_grad():
        logits = decoder.forward(h)
    assert logits.data.shape == (2, 5, CFG.vocab_size)


def test_normalize_hidden_gives_unit_rms_per_sequence():
    rng = np.random.default_rng(0)
    h = rng.normal(0.0, 0.003, size=(3, 7, 32))
    out = normalize_hidden(h)
    rms = np.sqrt(np.mean(out * out, axis=(1, 2)))
    assert np.allclose(rms, 1.0)
    assert np.all(np.isfinite(normalize_hidden(np.zeros((1, 4, 8)))))


# ---------------------------------------------------------------------------
# decoder training


def make_decoder(depth=0):
    return build_decoder_probe(CFG, depth, seed=101)


def pair_for(front, tokens, pads=None):
    """What the attacker records for one step: the front's hidden states,
    the disclosed tokens and their left pads."""
    pads = (0,) * tokens.shape[0] if pads is None else pads
    with T.no_grad():
        h = front.forward(tokens, pad_lens=pads).data
    return h, tokens, pads


def test_train_decoder_takes_one_step_per_pair_then_replays():
    front, _, _ = build_split_for_depth(CFG, 0, seed=3)
    pairs = [pair_for(front, np.array([[1, 4 + i, 9, 12]])) for i in range(3)]
    assert len(train_decoder(make_decoder(), pairs, lr=0.2)) == 3
    assert len(train_decoder(make_decoder(), pairs, lr=0.2, replay_epochs=2)) == 3 + 2 * 3
    assert train_decoder(make_decoder(), [], lr=0.2, replay_epochs=2) == []


def test_train_decoder_loss_decreases_on_repeated_pair():
    front, _, _ = build_split_for_depth(CFG, 0, seed=3)
    pairs = [pair_for(front, np.array([[1, 4, 9, 12, 6, 11]]))]
    losses = train_decoder(make_decoder(), pairs, lr=0.5, replay_epochs=30, seed=1)
    assert losses[-1] < 0.2 * losses[0]


def test_train_decoder_does_not_supervise_padded_positions():
    # whatever tokens sit in the pad columns, the decoder learns the same
    front, _, _ = build_split_for_depth(CFG, 0, seed=3)
    hidden, tokens, pads = pair_for(front, np.array([[0, 0, 9, 12], [1, 4, 9, 12]]), (2, 0))
    other = tokens.copy()
    other[0, :2] = [7, 5]
    runs = []
    for toks in (tokens, other):
        decoder = make_decoder()
        runs.append((train_decoder(decoder, [(hidden, toks, pads)], lr=0.2), decoder.state_dict()))
    assert runs[0][0] == runs[1][0]
    for name, value in runs[0][1].items():
        np.testing.assert_array_equal(value, runs[1][1][name])
    assert np.array_equal(tokens, [[0, 0, 9, 12], [1, 4, 9, 12]])  # the pair is not written


def test_evaluate_reconstruction_rejects_empty_items():
    front, _, _ = build_split_for_depth(CFG, 0, seed=3)
    decoder = build_decoder_probe(CFG, 0, seed=101)
    with pytest.raises(ConfigError):
        evaluate_reconstruction(decoder, front, [])


def test_trained_probe_inverts_frozen_embeddings():
    # depth 0: hidden states are raw embedding rows, so a trained probe
    # recovers tokens exactly on sequences it never saw
    front, _, _ = build_split_for_depth(CFG, 0, seed=3)
    decoder = make_decoder()
    rng = np.random.default_rng(7)
    pairs = [pair_for(front, rng.integers(0, CFG.vocab_size, size=(4, 8))) for _ in range(12)]
    train_decoder(decoder, pairs, lr=0.3, replay_epochs=15, seed=2)
    fresh = rng.integers(0, CFG.vocab_size, size=(2, 8))
    with T.no_grad():
        h = front.forward(fresh).data
    assert np.array_equal(reconstruct_tokens(decoder, h), fresh)


# ---------------------------------------------------------------------------
# the full study


def test_run_attack_requires_two_clients():
    corpus = small_corpus()
    shards = shard_corpus(corpus, 3)
    with pytest.raises(ConfigError):
        run_attack(CFG, shards[:1], shards[2], steps=2)


def test_run_attack_report_shape():
    shards = shard_corpus(small_corpus(), 3)
    rep = run_attack(
        CFG,
        shards[:2],
        shards[2],
        steps=3,
        attacker=AttackerConfig(depth=1, attacker_lr=0.2, replay_epochs=0),
        lr=1e-4,
        batch_size=4,
        seed=3,
    )
    assert rep.depth == 1
    assert rep.train_pairs == 3
    assert rep.eval_sequences == len(shards[2])
    assert 0.0 <= rep.token_accuracy <= 1.0
    payload = rep.to_json()
    assert payload["token_accuracy_x100"] == pytest.approx(100 * rep.token_accuracy)
    assert payload["bleu4_x100"] == pytest.approx(100 * rep.bleu4)
    assert set(payload) >= {"depth", "noise_scale", "rouge2_f1", "train_pairs"}


def test_run_attack_embedding_cut_reconstructs_heldout_data():
    shards = shard_corpus(small_corpus(), 3)
    rep = run_attack(
        CFG,
        shards[:2],
        shards[2],
        steps=8,
        attacker=AttackerConfig(depth=0, attacker_lr=0.2, replay_epochs=20),
        lr=1e-4,
        batch_size=4,
        seed=3,
    )
    assert rep.token_accuracy > 0.9
    assert rep.bleu4 > 0.9
    assert rep.rouge2_f1 > 0.9


def test_run_attack_noisy_deep_cut_stays_near_chance():
    shards = shard_corpus(small_corpus(), 3)
    rep = run_attack(
        CFG,
        shards[:2],
        shards[2],
        steps=8,
        attacker=AttackerConfig(depth=1, attacker_lr=0.2, replay_epochs=20),
        noise=NoiseConfig(0.02, "forward_hidden", 7),
        lr=1e-4,
        batch_size=4,
        seed=3,
    )
    assert rep.noise_scale == 0.02
    assert rep.token_accuracy <= 3.0 / CFG.vocab_size


def test_run_attack_reports_the_noise_on_the_hidden_states():
    # backward-grad noise never touches what the attacker decodes
    shards = shard_corpus(small_corpus(), 3)
    rep = run_attack(
        CFG, shards[:2], shards[2], steps=2, lr=1e-4, noise=NoiseConfig(0.3, "backward_grad", 7)
    )
    assert rep.noise_scale == 0.0 and rep.to_json()["noise_scale"] == 0.0


def test_attack_does_not_change_honest_training_or_frames():
    shards = shard_corpus(small_corpus(), 3)
    auditor = AttackerConfig(depth=1, attacker_lr=0.2, replay_epochs=0)
    kwargs = dict(
        steps=4,
        noise=NoiseConfig(0.02, "forward_hidden", 7),
        lr=1e-4,
        batch_size=4,
        seed=3,
        record_frames=True,
    )
    with_attack = run_attack(CFG, shards[:2], shards[2], attacker=auditor, **kwargs)
    without = run_attack(
        CFG, shards[:2], shards[2], attacker=replace(auditor, enabled=False), **kwargs
    )
    assert with_attack.honest_losses == without.honest_losses
    assert len(with_attack.frame_log) == len(without.frame_log) > 0
    assert all(a == b for a, b in zip(with_attack.frame_log, without.frame_log))


def test_disabled_attack_reports_no_metrics():
    shards = shard_corpus(small_corpus(), 3)
    rep = run_attack(
        CFG, shards[:2], shards[2], steps=2, lr=1e-4, attacker=AttackerConfig(enabled=False)
    )
    assert math.isnan(rep.token_accuracy)
    assert rep.train_pairs == 0
    assert len(rep.honest_losses) == 2


def test_security_ordering_embedding_cut_versus_deep_cuts():
    # the headline qualitative result: an embedding-level cut leaks nearly
    # everything, while one or more blocks plus noise hide nearly everything
    shards = shard_corpus(small_corpus(), 3)
    base = run_attack(
        CFG,
        shards[:2],
        shards[2],
        steps=8,
        attacker=AttackerConfig(depth=0, attacker_lr=0.2, replay_epochs=20),
        lr=1e-4,
        batch_size=4,
        seed=3,
    )
    deep = [
        run_attack(
            CFG,
            shards[:2],
            shards[2],
            steps=8,
            attacker=AttackerConfig(depth=depth, attacker_lr=0.2, replay_epochs=20),
            lr=1e-4,
            batch_size=4,
            noise=NoiseConfig(0.02, "forward_hidden", seed=71),
            seed=3,
        )
        for depth in (1, 2, 3)
    ]
    for rep in deep:
        assert rep.token_accuracy < 0.5 * base.token_accuracy, (
            f"depth {rep.depth} leaked {rep.token_accuracy:.3f} "
            f"vs embedding-cut {base.token_accuracy:.3f}"
        )
