"""Reconstruction-attack harness: metrics, observer mechanics, and the
non-interference contract."""

import math

import numpy as np
import pytest

import fedsplit.tensor as T
from fedsplit.attack import (
    AttackerConfig,
    AttackObserver,
    attack_grid,
    bleu4,
    build_split_for_depth,
    evaluate_reconstruction,
    normalize_hidden,
    reconstruct_tokens,
    rouge2_f1,
    run_attack,
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
        AttackerConfig(lr=0.0)
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
# observer mechanics


def make_observer(depth=0, lr=0.2):
    decoder = build_decoder_probe(CFG, depth, seed=101)
    return AttackObserver(decoder, malicious_id=0, lr=lr)


def fake_hidden_msg(front, tokens, client_id, step_id):
    from fedsplit.wire import HiddenStateMsg, MaskMeta

    with T.no_grad():
        h = front.forward(tokens).data
    meta = MaskMeta(tokens.shape[1], (0,) * tokens.shape[0], tokens.shape[0])
    return HiddenStateMsg(h, meta, tuple(range(tokens.shape[1])), step_id, client_id)


def test_observer_trains_one_step_per_disclosed_message():
    front, _, _ = build_split_for_depth(CFG, 0, seed=3)
    obs = make_observer()
    tokens = np.array([[1, 4, 9, 12]])
    obs.disclose(0, tokens, (0,))
    obs.observe(fake_hidden_msg(front, tokens, client_id=0, step_id=0))
    assert len(obs.pairs) == 1
    assert len(obs.losses) == 1


def test_observer_ignores_other_clients():
    front, _, _ = build_split_for_depth(CFG, 0, seed=3)
    obs = make_observer()
    tokens = np.array([[1, 4, 9, 12]])
    obs.disclose(0, tokens, (0,))
    obs.observe(fake_hidden_msg(front, tokens, client_id=1, step_id=0))
    assert obs.pairs == [] and obs.losses == []


def test_observer_ignores_undisclosed_steps():
    front, _, _ = build_split_for_depth(CFG, 0, seed=3)
    obs = make_observer()
    tokens = np.array([[1, 4, 9, 12]])
    obs.observe(fake_hidden_msg(front, tokens, client_id=0, step_id=7))
    assert obs.pairs == []


def test_observer_replay_revisits_stored_pairs():
    front, _, _ = build_split_for_depth(CFG, 0, seed=3)
    obs = make_observer()
    for sid in range(3):
        tokens = np.array([[1, 4 + sid, 9, 12]])
        obs.disclose(sid, tokens, (0,))
        obs.observe(fake_hidden_msg(front, tokens, client_id=0, step_id=sid))
    obs.replay(epochs=2, seed=0)
    assert len(obs.losses) == 3 + 2 * 3


def test_observer_loss_decreases_on_repeated_pair():
    front, _, _ = build_split_for_depth(CFG, 0, seed=3)
    obs = make_observer(lr=0.5)
    tokens = np.array([[1, 4, 9, 12, 6, 11]])
    obs.disclose(0, tokens, (0,))
    obs.observe(fake_hidden_msg(front, tokens, client_id=0, step_id=0))
    obs.replay(epochs=30, seed=1)
    assert obs.losses[-1] < 0.2 * obs.losses[0]


def test_observer_masks_padded_positions():
    front, _, _ = build_split_for_depth(CFG, 0, seed=3)
    decoder = build_decoder_probe(CFG, 0, seed=101)
    obs = AttackObserver(decoder, malicious_id=0, lr=0.2)
    tokens = np.array([[0, 0, 9, 12], [1, 4, 9, 12]])
    obs.disclose(0, tokens, (2, 0))
    obs.observe(fake_hidden_msg(front, tokens, client_id=0, step_id=0))
    _, stored_tokens, pads = obs.pairs[0]
    assert pads == (2, 0)
    assert np.array_equal(stored_tokens, tokens)


def test_evaluate_reconstruction_rejects_empty_items():
    front, _, _ = build_split_for_depth(CFG, 0, seed=3)
    decoder = build_decoder_probe(CFG, 0, seed=101)
    with pytest.raises(ConfigError):
        evaluate_reconstruction(decoder, front, [])


def test_trained_probe_inverts_frozen_embeddings():
    # depth 0: hidden states are raw embedding rows, so a trained probe
    # recovers tokens exactly on sequences it never saw
    front, _, _ = build_split_for_depth(CFG, 0, seed=3)
    decoder = build_decoder_probe(CFG, 0, seed=101)
    obs = AttackObserver(decoder, malicious_id=0, lr=0.3)
    rng = np.random.default_rng(7)
    for sid in range(12):
        tokens = rng.integers(0, CFG.vocab_size, size=(4, 8))
        obs.disclose(sid, tokens, (0, 0, 0, 0))
        obs.observe(fake_hidden_msg(front, tokens, client_id=0, step_id=sid))
    obs.replay(epochs=15, seed=2)
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
        attacker=AttackerConfig(depth=1, lr=0.2, replay_epochs=0),
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
        attacker=AttackerConfig(depth=0, lr=0.2, replay_epochs=20),
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
        attacker=AttackerConfig(depth=1, lr=0.2, replay_epochs=20),
        noise=NoiseConfig(0.02, "forward_hidden", 7),
        lr=1e-4,
        batch_size=4,
        seed=3,
    )
    assert rep.noise_scale == 0.02
    assert rep.token_accuracy <= 3.0 / CFG.vocab_size


def test_attack_does_not_change_honest_training_or_frames():
    shards = shard_corpus(small_corpus(), 3)
    kwargs = dict(
        steps=4,
        attacker=AttackerConfig(depth=1, lr=0.2, replay_epochs=0),
        noise=NoiseConfig(0.02, "forward_hidden", 7),
        lr=1e-4,
        batch_size=4,
        seed=3,
        record_frames=True,
    )
    with_attack = run_attack(CFG, shards[:2], shards[2], attack_enabled=True, **kwargs)
    without = run_attack(CFG, shards[:2], shards[2], attack_enabled=False, **kwargs)
    assert with_attack.honest_losses == without.honest_losses
    assert len(with_attack.frame_log) == len(without.frame_log) > 0
    assert all(a == b for a, b in zip(with_attack.frame_log, without.frame_log))


def test_disabled_attack_reports_no_metrics():
    shards = shard_corpus(small_corpus(), 3)
    rep = run_attack(
        CFG, shards[:2], shards[2], steps=2, lr=1e-4, attack_enabled=False
    )
    assert math.isnan(rep.token_accuracy)
    assert rep.train_pairs == 0
    assert len(rep.honest_losses) == 2


def test_attack_grid_covers_depth_noise_plane():
    shards = shard_corpus(small_corpus(), 3)
    reports = attack_grid(
        CFG,
        shards[:2],
        shards[2],
        steps=2,
        depths=(1, 2),
        noise_scales=(0.0, 0.02),
        attacker=AttackerConfig(lr=0.2, replay_epochs=0),
        lr=1e-4,
        batch_size=4,
        seed=3,
    )
    assert [(r.depth, r.noise_scale) for r in reports] == [
        (1, 0.0),
        (1, 0.02),
        (2, 0.0),
        (2, 0.02),
    ]


def test_security_ordering_embedding_cut_versus_deep_cuts():
    # the headline qualitative result: an embedding-level cut leaks nearly
    # everything, while one or more blocks plus noise hide nearly everything
    shards = shard_corpus(small_corpus(), 3)
    base = run_attack(
        CFG,
        shards[:2],
        shards[2],
        steps=8,
        attacker=AttackerConfig(depth=0, lr=0.2, replay_epochs=20),
        lr=1e-4,
        batch_size=4,
        seed=3,
    )
    deep = attack_grid(
        CFG,
        shards[:2],
        shards[2],
        steps=8,
        depths=(1, 2, 3),
        noise_scales=(0.02,),
        attacker=AttackerConfig(lr=0.2, replay_epochs=20),
        lr=1e-4,
        batch_size=4,
        seed=3,
    )
    for rep in deep:
        assert rep.token_accuracy < 0.5 * base.token_accuracy, (
            f"depth {rep.depth} leaked {rep.token_accuracy:.3f} "
            f"vs embedding-cut {base.token_accuracy:.3f}"
        )
