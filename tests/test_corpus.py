"""Corpus generation, batching, and persistence."""

import numpy as np
import pytest

from fedsplit.corpus import (
    BOS_ID,
    FIRST_CONTENT_ID,
    PAD_ID,
    SEP_ID,
    STOP_ID,
    BatchSampler,
    CorpusItem,
    ToyCorpus,
    batch_from_items,
    make_cloze_corpus,
    make_copy_corpus,
    make_lm_corpus,
    shard_corpus,
)
from fedsplit.errors import ConfigError
from fedsplit.training import IGNORE_INDEX


def test_copy_item_layout():
    corpus = make_copy_corpus(3, payload_len=4, vocab_size=32, seed=0)
    item = corpus.items[0]
    assert item.prompt[0] == BOS_ID and item.prompt[-1] == SEP_ID
    assert item.answer[:-1] == item.prompt[1:-1]
    assert item.answer[-1] == STOP_ID


def test_batch_targets_hand_worked():
    item = CorpusItem(prompt=(BOS_ID, 7, 8, SEP_ID), answer=(7, 8, STOP_ID))
    batch = batch_from_items([item])
    np.testing.assert_array_equal(batch.tokens, [[BOS_ID, 7, 8, SEP_ID, 7, 8]])
    np.testing.assert_array_equal(
        batch.targets, [[IGNORE_INDEX, IGNORE_INDEX, IGNORE_INDEX, 7, 8, STOP_ID]]
    )
    assert batch.pad_lens == (0,)


def test_batch_left_pads_to_common_width():
    short = CorpusItem(prompt=(BOS_ID, 5, SEP_ID), answer=(5, STOP_ID))
    long = CorpusItem(prompt=(BOS_ID, 6, 7, 8, SEP_ID), answer=(6, 7, 8, STOP_ID))
    batch = batch_from_items([short, long])
    assert batch.tokens.shape == (2, 8)
    assert batch.pad_lens == (4, 0)
    assert np.all(batch.tokens[0, :4] == PAD_ID)
    assert np.all(batch.targets[0, :4] == IGNORE_INDEX)
    meta = batch.mask_meta
    assert meta.pads == (4, 0)


def test_sampler_is_deterministic_and_stateless():
    corpus = make_copy_corpus(16, 4, vocab_size=64, seed=1)
    a = BatchSampler(corpus, 4, seed=9)
    b = BatchSampler(corpus, 4, seed=9)
    for step in (0, 3, 11):
        ba, bb = a.batch_for(step), b.batch_for(step)
        np.testing.assert_array_equal(ba.tokens, bb.tokens)
        np.testing.assert_array_equal(ba.targets, bb.targets)
        assert ba.pad_lens == bb.pad_lens
    assert not np.array_equal(a.batch_for(0).tokens, a.batch_for(1).tokens)


def test_shard_round_robin_covers_corpus():
    corpus = make_copy_corpus(10, 3, vocab_size=32, seed=2)
    shards = shard_corpus(corpus, 3)
    assert [len(s) for s in shards] == [4, 3, 3]
    all_items = [it for s in shards for it in s.items]
    assert sorted(map(repr, all_items)) == sorted(map(repr, corpus.items))
    with pytest.raises(ConfigError):
        shard_corpus(make_copy_corpus(2, 3, seed=0), 5)


@pytest.mark.parametrize("make", [
    lambda vocab: make_copy_corpus(2, payload_len=3, vocab_size=vocab),
    lambda vocab: make_lm_corpus(2, length=3, vocab_size=vocab),
    lambda vocab: make_cloze_corpus(2, context_len=3, num_candidates=2, vocab_size=vocab),
], ids=["copy", "lm", "cloze"])
def test_generators_need_a_content_id(make):
    for vocab in range(2, FIRST_CONTENT_ID + 1):
        with pytest.raises(ConfigError, match="vocab_size"):
            make(vocab)
    make(FIRST_CONTENT_ID + 2).validate()


@pytest.mark.parametrize("num_candidates", [1, 29, 30])
def test_cloze_candidates_fit_the_content_ids(num_candidates):
    with pytest.raises(ConfigError, match="2 to vocab_size - 4 candidates"):
        make_cloze_corpus(2, context_len=3, num_candidates=num_candidates, vocab_size=32)


def test_cloze_may_offer_every_content_id():
    corpus = make_cloze_corpus(3, context_len=3, num_candidates=28, vocab_size=32, seed=1)
    assert all(sorted(it.candidates) == list(range(FIRST_CONTENT_ID, 32)) for it in corpus.items)


def test_cloze_items_have_valid_candidates():
    corpus = make_cloze_corpus(8, context_len=3, num_candidates=4, vocab_size=64, seed=3)
    for item in corpus.items:
        assert item.candidates is not None and len(item.candidates) == 4
        assert item.answer[0] in item.candidates


def test_lm_corpus_supervises_everything_after_bos():
    corpus = make_lm_corpus(2, 5, vocab_size=32, seed=4)
    batch = batch_from_items(corpus.items[:1])
    assert np.sum(batch.targets[0] != IGNORE_INDEX) == len(corpus.items[0].answer)


def test_save_load_roundtrip(tmp_path):
    corpus = make_cloze_corpus(5, 3, 4, vocab_size=32, seed=5)
    path = tmp_path / "corpus.json"
    corpus.save(path)
    loaded = ToyCorpus.load(path)
    assert loaded.task == corpus.task
    assert loaded.vocab_size == corpus.vocab_size
    assert loaded.items == corpus.items


HEADER = '"schema_version": 1, "task": "lm", "vocab_size": 32, "seed": 0'


def test_load_rejects_bad_schema(tmp_path):
    path = tmp_path / "bad.json"
    for text in (
        '{"schema_version": 99, "items": []}',
        "not json {",
        "[1, 2, 3]",
        "{" + HEADER + "}",
        "{" + HEADER + ', "items": []}',
        "{" + HEADER + ', "items": [{"prompt": [1, "5", 2], "answer": [5, 3]}]}',
        "{" + HEADER + ', "items": [{"prompt": [1, 5.5, 2], "answer": [5, 3]}]}',
        "{" + HEADER + ', "items": [{"prompt": [1, 5, 2]}]}',
        "{" + HEADER + ', "items": [[1, 5, 2]]}',
        "{" + HEADER.replace("32", '"32"') + ', "items": [{"prompt": [1], "answer": [3]}]}',
    ):
        path.write_text(text)
        with pytest.raises(ConfigError):
            ToyCorpus.load(path)
    path.write_text("{" + HEADER + ', "items": [{"prompt": [1, 5, 2], "answer": [5, 3]}]}')
    assert len(ToyCorpus.load(path)) == 1


def test_validate_rejects_out_of_vocab():
    corpus = ToyCorpus([CorpusItem((BOS_ID, 40), (STOP_ID,))], vocab_size=32, task="lm", seed=0)
    with pytest.raises(ConfigError):
        corpus.validate()
