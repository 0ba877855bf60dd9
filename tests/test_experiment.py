"""Config loading, run orchestration, and artifact contracts."""

import dataclasses
import json

import numpy as np
import pytest

from fedsplit import experiment, transport
from fedsplit.corpus import CorpusItem, ToyCorpus, make_copy_corpus
from fedsplit.errors import ConfigError
from fedsplit.experiment import (
    AttackSection,
    CommSection,
    CorpusSection,
    EvalSection,
    GenerationSection,
    GridSection,
    TrainingSection,
    build_corpus,
    comm_report,
    config_from_dict,
    load_config,
    load_schema,
    memory_report,
    partition_grid,
    run_attack_experiment,
    run_eval,
    run_experiment,
    run_generate,
    run_train,
    validate_artifact,
)
from fedsplit.inference import InferenceStack
from fedsplit.model import LoraConfig, ModelConfig, PartitionSpec, build_partitioned
from fedsplit.scoring import score_multi_token, score_single_token
from fedsplit.strategies import StrategyConfig
from fedsplit.training import NoiseConfig


def base_raw(**over):
    raw = {
        "schema_version": 1,
        "seed": 5,
        "model": {
            "vocab_size": 16, "hidden_size": 16, "num_heads": 2,
            "num_blocks": 4, "mlp_hidden": 24, "max_context": 64,
        },
        "partition": {"front": 1, "middle": 2, "back": 1},
        "training": {"steps": 3, "lr": 0.05, "batch_size": 2},
        "corpus": {"task": "copy", "items": 8, "length": 3, "seed": 1},
    }
    raw.update(over)
    return raw


def artifact_bytes(out_dir, names=("records.jsonl", "comm_stats.json", "train_summary.json")):
    return b"".join((out_dir / name).read_bytes() for name in names)


# ---------------------------------------------------------------------------
# config validation


def test_config_requires_model_and_partition():
    with pytest.raises(ConfigError) as err:
        config_from_dict({"schema_version": 1})
    assert "model" in str(err.value)
    assert "partition" in str(err.value)


def test_config_rejects_unknown_keys():
    raw = base_raw()
    raw["modle"] = {}
    with pytest.raises(ConfigError):
        config_from_dict(raw)


def test_config_rejects_unknown_section_fields():
    raw = base_raw()
    raw["training"] = {"steps": 3, "learning_rate": 0.1}
    with pytest.raises(ConfigError):
        config_from_dict(raw)


def test_config_rejects_wrong_schema_version():
    with pytest.raises(ConfigError):
        config_from_dict(base_raw(schema_version=2))


def test_config_partition_must_match_model_blocks():
    raw = base_raw(partition={"front": 1, "middle": 1, "back": 1})
    with pytest.raises(ConfigError) as err:
        config_from_dict(raw)
    assert "sum to 3" in str(err.value)


def test_config_enumerates_every_cross_field_problem():
    raw = base_raw(
        partition={"front": 1, "middle": 1, "back": 1},
        generation={"prompt": [99], "stop_token": 40},
        comm={"context_lengths": [64, 16]},
    )
    with pytest.raises(ConfigError) as err:
        config_from_dict(raw)
    message = str(err.value)
    assert "sum to 3" in message
    assert "prompt token ids" in message
    assert "stop_token" in message
    assert "strictly increasing" in message


def test_cross_checks_skip_sections_the_config_never_wrote():
    raw = base_raw()
    raw["model"]["max_context"] = 48
    config_from_dict(raw)
    raw["comm"] = {}
    with pytest.raises(ConfigError) as err:
        config_from_dict(raw)
    assert "context_lengths[1]" in str(err.value)


def test_config_defaults():
    cfg = config_from_dict(base_raw())
    assert cfg.strategy.mode == "sequential"
    assert cfg.strategy.num_clients == 1
    assert cfg.transport == "loopback"
    assert cfg.lora is not None and cfg.lora.rank == 8
    assert cfg.noise is None
    assert cfg.generation.use_cache is True


def test_config_null_lora_means_frozen_base():
    cfg = config_from_dict(base_raw(lora=None))
    assert cfg.lora is None


def test_load_config_reports_missing_and_malformed_files(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(bad)


SECTION_CLASSES = {
    "model": ModelConfig,
    "partition": PartitionSpec,
    "lora": LoraConfig,
    "noise": NoiseConfig,
    "strategy": StrategyConfig,
    "training": TrainingSection,
    "corpus": CorpusSection,
    "generation": GenerationSection,
    "evaluation": EvalSection,
    "attack": AttackSection,
    "comm": CommSection,
    "grid": GridSection,
}


@pytest.mark.parametrize("section", sorted(SECTION_CLASSES))
def test_config_schema_matches_section_dataclass(section):
    """Each section's fields and defaults are written twice, in the schema and
    in its dataclass; the two copies must agree in both directions."""
    spec = load_schema("experiment_config.schema.json")["properties"][section]
    # nullable sections (lora, noise) hold their object schema in a oneOf
    spec = next((alt for alt in spec.get("oneOf", []) if alt.get("type") == "object"), spec)
    fields = {f.name: f for f in dataclasses.fields(SECTION_CLASSES[section])}
    assert set(fields) == set(spec["properties"])
    for name, field in fields.items():
        prop = spec["properties"][name]
        if name in spec.get("required", ()):
            assert "default" not in prop, name
        elif field.default is None:  # nullable: no schema default, null allowed
            assert "default" not in prop, name
            assert {"type": "null"} in prop["oneOf"], name
        else:
            default = field.default
            assert default is not dataclasses.MISSING, f"{name} has no default and is not required"
            if isinstance(default, tuple):
                default = list(default)
            assert prop["default"] == default and type(prop["default"]) is type(default), name


def test_load_config_env_overrides(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(base_raw(output_dir="from_file")))
    cfg = load_config(path, env={"FEDSPLIT_OUTPUT_DIR": str(tmp_path / "from_env")})
    assert cfg.output_dir == tmp_path / "from_env"
    saved = transport.DEFAULT_ENDPOINT
    try:
        load_config(path, env={"FEDSPLIT_ENDPOINT": "127.0.0.1:4455"})
        assert transport.DEFAULT_ENDPOINT == ("127.0.0.1", 4455)
        with pytest.raises(ConfigError):
            load_config(path, env={"FEDSPLIT_ENDPOINT": "no-port-here"})
    finally:
        transport.set_default_endpoint(*saved)


def test_rejected_config_leaves_the_endpoint_alone(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(base_raw(partition={"front": 1, "middle": 1, "back": 1})))
    saved = transport.DEFAULT_ENDPOINT
    try:
        with pytest.raises(ConfigError, match="partition"):
            load_config(path, env={"FEDSPLIT_ENDPOINT": "127.0.0.1:4455"})
        assert transport.DEFAULT_ENDPOINT == saved
    finally:
        transport.set_default_endpoint(*saved)


# ---------------------------------------------------------------------------
# corpus plumbing


def test_build_corpus_uses_model_vocab():
    cfg = config_from_dict(base_raw(corpus={"task": "cloze", "items": 6, "length": 5}))
    corpus = build_corpus(cfg.corpus, cfg.model)
    assert corpus.vocab_size == cfg.model.vocab_size
    assert all(item.candidates for item in corpus.items)


def test_build_corpus_rejects_sequences_beyond_context():
    cfg = config_from_dict(base_raw(corpus={"task": "lm", "items": 4, "length": 200}))
    with pytest.raises(ConfigError):
        build_corpus(cfg.corpus, cfg.model)


def test_build_corpus_from_saved_file(tmp_path):
    saved = make_copy_corpus(6, payload_len=3, vocab_size=16, seed=9)
    path = tmp_path / "corpus.json"
    saved.save(path)
    cfg = config_from_dict(base_raw(corpus={"path": str(path)}))
    corpus = build_corpus(cfg.corpus, cfg.model)
    assert len(corpus) == 6
    assert corpus.items[0].prompt == saved.items[0].prompt

    big = make_copy_corpus(4, payload_len=3, vocab_size=64, seed=9)
    big_path = tmp_path / "big.json"
    big.save(big_path)
    big_cfg = config_from_dict(base_raw(corpus={"path": str(big_path)}))
    with pytest.raises(ConfigError):
        build_corpus(big_cfg.corpus, big_cfg.model)


@pytest.mark.parametrize("transport_kind", ["loopback", "tcp"])
def test_client_batch_trains_on_shards_of_different_widths(tmp_path, transport_kind):
    # round-robin sharding gives client 0 every 2-token payload and client 1
    # every 6-token one, so each round's batches differ in width (6 vs 14)
    short = make_copy_corpus(4, payload_len=2, vocab_size=16, seed=3).items
    long = make_copy_corpus(4, payload_len=6, vocab_size=16, seed=4).items
    mixed = ToyCorpus([it for pair in zip(short, long) for it in pair], 16, "copy", 3)
    path = tmp_path / "corpus.json"
    mixed.save(path)
    for mode in ("client_batch", "sequential"):
        raw = base_raw(
            corpus={"path": str(path)}, transport=transport_kind,
            strategy={"mode": mode, "num_clients": 2},
        )
        summary, _ = run_train(config_from_dict(raw), tmp_path / mode)
        assert summary["payload"]["num_records"] == 2 * raw["training"]["steps"]
        records = [json.loads(line) for line in (tmp_path / mode / "records.jsonl").open()]
        assert [(r["step"], r["client_id"]) for r in records] == [
            (s, c) for s in range(raw["training"]["steps"]) for c in (0, 1)
        ]
        assert all(np.isfinite(r["loss"]) for r in records)


# ---------------------------------------------------------------------------
# training runs


def test_run_train_writes_validated_artifacts(tmp_path):
    cfg = config_from_dict(base_raw())
    summary, segments = run_train(cfg, tmp_path)
    assert (tmp_path / "adapters.npz").exists()
    lines = (tmp_path / "records.jsonl").read_text().splitlines()
    assert len(lines) == cfg.training.steps * cfg.strategy.num_clients
    for line in lines:
        validate_artifact(json.loads(line), "train_record.schema.json")
    stats = json.loads((tmp_path / "comm_stats.json").read_text())
    validate_artifact(stats, "comm_stats.schema.json")
    assert stats["classes"]["hidden_state"]["recv_bytes"] > 0
    envelope = json.loads((tmp_path / "train_summary.json").read_text())
    validate_artifact(envelope, "report.schema.json")
    assert envelope == summary
    payload = summary["payload"]
    assert payload["num_records"] == len(lines)
    assert payload["loss_ratio"] == pytest.approx(payload["final_loss"] / payload["first_loss"])
    assert len(segments) == 3


def test_records_never_carry_wall_clock_fields(tmp_path):
    cfg = config_from_dict(base_raw())
    run_train(cfg, tmp_path)
    for line in (tmp_path / "records.jsonl").read_text().splitlines():
        record = json.loads(line)
        assert "elapsed_ms" not in record.get("extra", {})


def test_equal_config_and_seed_yield_byte_identical_artifacts(tmp_path):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    run_train(config_from_dict(base_raw()), a)
    run_train(config_from_dict(base_raw()), b)
    run_train(config_from_dict(base_raw(seed=6)), c)
    assert artifact_bytes(a) == artifact_bytes(b)
    assert artifact_bytes(a) != artifact_bytes(c)


@pytest.mark.parametrize("mode,clients", [
    ("sequential", 2),
    ("client_batch", 2),
    ("server_hierarchical", 2),
])
def test_every_strategy_runs_and_records(tmp_path, mode, clients):
    raw = base_raw(strategy={"mode": mode, "num_clients": clients, "sync_interval": 2})
    summary, _ = run_train(config_from_dict(raw), tmp_path)
    payload = summary["payload"]
    assert payload["strategy"] == mode
    assert payload["num_records"] == 3 * clients
    if mode == "server_hierarchical":
        assert len(payload["merges"]) == 2
        assert payload["merges"][0]["merged_clients"] == [0, 1]


def test_interrupt_keeps_flushed_records(tmp_path, monkeypatch):
    import fedsplit.corpus as corpus

    real_sampler = corpus.BatchSampler

    class InterruptingSampler(real_sampler):
        def batch_for(self, step):
            if step >= 2:
                raise KeyboardInterrupt
            return super().batch_for(step)

    monkeypatch.setattr(corpus, "BatchSampler", InterruptingSampler)
    cfg = config_from_dict(base_raw(training={"steps": 10, "lr": 0.05, "batch_size": 2}))
    with pytest.raises(KeyboardInterrupt):
        run_train(cfg, tmp_path)
    lines = (tmp_path / "records.jsonl").read_text().splitlines()
    assert len(lines) == 2
    for line in lines:
        validate_artifact(json.loads(line), "train_record.schema.json")


def test_adapters_file_reproduces_trained_generation(tmp_path):
    raw = base_raw(generation={"prompt": [1, 2, 3], "max_new_tokens": 5})
    cfg = config_from_dict(raw)
    results = run_experiment(cfg, tmp_path / "run")
    fresh = run_generate(
        config_from_dict(raw), tmp_path / "replay",
        adapters=tmp_path / "run" / "adapters.npz",
    )
    assert fresh["payload"]["tokens"] == results["generation"]["payload"]["tokens"]
    cold = run_generate(config_from_dict(raw), tmp_path / "cold")
    assert cold["payload"]["tokens"] != results["generation"]["payload"]["tokens"] or (
        results["train"]["payload"]["loss_ratio"] == pytest.approx(1.0)
    )


# ---------------------------------------------------------------------------
# evaluation


def test_run_eval_cloze_scores_candidates(tmp_path):
    raw = base_raw(
        corpus={"task": "cloze", "items": 6, "length": 5, "num_candidates": 4},
        evaluation={"mode": "cloze"},
    )
    report = run_eval(config_from_dict(raw), tmp_path)
    payload = report["payload"]
    assert payload["num_items"] == 6
    assert 0.0 <= payload["score"] <= 1.0
    assert payload["score_x100"] == pytest.approx(100.0 * payload["score"])
    for entry in payload["per_item"]:
        assert 0.0 < entry["truth_prob"] < 1.0


def mixed_length_cloze_file(path, vocab=16):
    """21 items of prompt length 5 interleaved with 6 of length 8."""
    rng = np.random.default_rng(4)
    items = []
    for i in range(27):
        length = 8 if i % 4 == 1 and i < 24 else 5
        cands = tuple(int(c) for c in rng.choice(np.arange(4, vocab), size=3, replace=False))
        prompt = tuple(int(t) for t in rng.integers(4, vocab, size=length))
        items.append(CorpusItem(prompt, (cands[i % 3],), cands))
    ToyCorpus(items, vocab, "cloze", 0).save(path)
    return items


def per_item_reference(cfg, items):
    """The unbatched path: one stack and one prefill per item."""
    front, middle, back = build_partitioned(cfg.model, cfg.partition, cfg.lora, seed=cfg.seed)
    per_item, values = [], []
    for item in items:
        with InferenceStack(front, middle, back, transport=cfg.transport,
                            use_cache=cfg.evaluation.use_cache) as stack:
            probs = score_single_token(stack.session.prefill(list(item.prompt)), item.candidates)
        correct = item.candidates[int(np.argmax(probs))] == item.answer[0]
        values.append(float(correct))
        per_item.append({"correct": correct,
                         "truth_prob": float(probs[item.candidates.index(item.answer[0])])})
    return per_item, float(np.mean(values))


@pytest.fixture
def opened_stacks(monkeypatch):
    """Counts the ``InferenceStack``s the experiment runners open."""
    opened = []

    class CountingStack(InferenceStack):
        def __init__(self, *args, **kwargs):
            opened.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(experiment, "InferenceStack", CountingStack)
    return opened


@pytest.mark.parametrize("transport_kind", ["loopback", "tcp"])
@pytest.mark.parametrize("use_cache", [True, False])
def test_batched_cloze_eval_is_bitwise_the_per_item_path(tmp_path, opened_stacks,
                                                         transport_kind, use_cache):
    opened = opened_stacks
    items = mixed_length_cloze_file(tmp_path / "corpus.json")
    raw = base_raw(transport=transport_kind, corpus={"path": str(tmp_path / "corpus.json")},
                   evaluation={"mode": "cloze", "use_cache": use_cache})
    cfg = config_from_dict(raw)
    report = run_eval(cfg, tmp_path / "out")
    assert len(opened) == 1
    per_item, score = per_item_reference(cfg, items)
    payload = json.loads((tmp_path / "out" / "eval.json").read_text())["payload"]
    assert payload == report["payload"]
    assert payload["per_item"] == per_item
    assert payload["score"] == score and payload["num_items"] == 27


def test_run_eval_generative_logprobs(tmp_path):
    raw = base_raw(evaluation={"mode": "generative", "max_items": 3})
    report = run_eval(config_from_dict(raw), tmp_path)
    payload = report["payload"]
    assert payload["num_items"] == 3
    assert payload["score"] < 0.0
    assert all(entry["logprob"] < 0.0 for entry in payload["per_item"])


@pytest.mark.parametrize("transport_kind", ["loopback", "tcp"])
@pytest.mark.parametrize("use_cache", [True, False])
def test_generative_eval_scores_every_item_on_one_stack(tmp_path, opened_stacks,
                                                        transport_kind, use_cache):
    raw = base_raw(transport=transport_kind, corpus={"task": "lm", "items": 5, "length": 6},
                   evaluation={"mode": "generative", "use_cache": use_cache})
    cfg = config_from_dict(raw)
    payload = run_eval(cfg, tmp_path)["payload"]
    assert len(opened_stacks) == 1
    # the reference scores each item on a stack of its own
    front, middle, back = build_partitioned(cfg.model, cfg.partition, cfg.lora, seed=cfg.seed)
    reference = []
    for item in build_corpus(cfg.corpus, cfg.model).items:
        with InferenceStack(front, middle, back, transport=transport_kind,
                            use_cache=use_cache) as stack:
            reference.append(score_multi_token(stack.session, item.prompt, item.answer))
    assert [entry["logprob"] for entry in payload["per_item"]] == reference
    assert payload["num_items"] == 5 and payload["score"] == float(np.mean(reference))


def test_eval_score_is_decode_path_independent(tmp_path):
    scores = []
    for use_cache in (True, False):
        raw = base_raw(evaluation={"mode": "generative", "use_cache": use_cache})
        report = run_eval(config_from_dict(raw), tmp_path / str(use_cache))
        scores.append(report["payload"]["score"])
    assert abs(scores[0] - scores[1]) < 1e-10


def test_eval_mode_must_match_corpus(tmp_path):
    raw = base_raw(evaluation={"mode": "cloze"})
    with pytest.raises(ConfigError):
        config_from_dict(raw)


# ---------------------------------------------------------------------------
# byte accounting and memory proxy


def test_comm_report_mask_arithmetic(tmp_path):
    raw = base_raw(comm={"batch": 2, "seq_len": 128,
                         "context_lengths": [8, 32], "new_tokens": 2})
    report = comm_report(config_from_dict(raw), tmp_path)
    mask = report["payload"]["mask"]
    assert mask["scalar_width"] == 8
    assert mask["dense_bytes"] == 2 * 128 * 128 * 8 == 262144
    assert mask["meta_bytes"] == 24
    assert mask["ratio"] == pytest.approx(262144 / 24)


def test_comm_scalar_width_is_not_a_config_field():
    # the codec writes only 8-byte scalars, so the width is not configurable
    with pytest.raises(ConfigError, match="scalar_width"):
        config_from_dict(base_raw(comm={"scalar_width": 8}))


def test_comm_report_decode_scaling(tmp_path):
    raw = base_raw(comm={"context_lengths": [8, 32], "new_tokens": 2})
    decode = comm_report(config_from_dict(raw), tmp_path)["payload"]["decode"]
    assert decode["cached_step_bytes"][0] == decode["cached_step_bytes"][1]
    assert decode["cached_ratio"] == 1.0
    assert decode["uncached_step_bytes"][1] > 3 * decode["uncached_step_bytes"][0]
    assert decode["uncached_ratio"] > decode["cached_ratio"]


def test_memory_report_matches_hand_count(tmp_path):
    raw = base_raw()
    cfg = config_from_dict(raw)
    payload = memory_report(cfg, tmp_path)["payload"]
    d, m, v = 16, 24, 16
    r = cfg.lora.rank
    block = 4 * d * d + 3 * m * d + 2 * d + 8 * r * d
    client = (v * d) + block + block + d + (v * d)
    server = 2 * block
    assert payload["client_params"] == client
    assert payload["server_params"] == server
    assert payload["total_params"] == client + server
    assert payload["client_fraction"] == pytest.approx(client / (client + server))
    assert payload["client_fraction_x100"] == pytest.approx(100.0 * client / (client + server))


def test_memory_fraction_shrinks_as_trunk_grows(tmp_path):
    small = base_raw()
    big = base_raw(
        model={"vocab_size": 16, "hidden_size": 16, "num_heads": 2,
               "num_blocks": 10, "mlp_hidden": 24, "max_context": 64},
        partition={"front": 1, "middle": 8, "back": 1},
    )
    frac_small = memory_report(config_from_dict(small), tmp_path / "s")["payload"]["client_fraction"]
    frac_big = memory_report(config_from_dict(big), tmp_path / "b")["payload"]["client_fraction"]
    assert frac_big < frac_small


# ---------------------------------------------------------------------------
# partition grid


def grid_raw():
    return base_raw(
        model={"vocab_size": 16, "hidden_size": 16, "num_heads": 2,
               "num_blocks": 6, "mlp_hidden": 24, "max_context": 64},
        partition={"front": 1, "middle": 4, "back": 1},
        grid={"steps": 2},
    )


def test_partition_grid_shape_and_skips(tmp_path):
    payload = partition_grid(config_from_dict(grid_raw()), tmp_path)["payload"]
    assert payload["fronts"] == [1, 2, 3]
    assert payload["backs"] == [1, 2, 3]
    assert len(payload["cells"]) == 9
    assert len(payload["table"]) == 3 and all(len(row) == 3 for row in payload["table"])
    statuses = {(c["front"], c["back"]): c["status"] for c in payload["cells"]}
    assert statuses[(3, 3)] == "skipped"
    assert payload["table"][2][2] is None
    ok = [c for c in payload["cells"] if c["status"] == "ok"]
    assert len(ok) == 8
    assert all(c["final_loss"] > 0 for c in ok)


def test_partition_grid_noiseless_cells_coincide(tmp_path):
    payload = partition_grid(config_from_dict(grid_raw()), tmp_path)["payload"]
    losses = [c["final_loss"] for c in payload["cells"] if c["status"] == "ok"]
    assert max(losses) - min(losses) < 1e-9


def test_partition_grid_deterministic(tmp_path):
    partition_grid(config_from_dict(grid_raw()), tmp_path / "a")
    partition_grid(config_from_dict(grid_raw()), tmp_path / "b")
    assert (tmp_path / "a" / "grid.json").read_bytes() == (tmp_path / "b" / "grid.json").read_bytes()


# ---------------------------------------------------------------------------
# attack through the config surface


def test_run_attack_experiment_reports_all_metrics(tmp_path):
    raw = base_raw(
        corpus={"task": "lm", "items": 12, "length": 6, "seed": 2},
        training={"steps": 2, "lr": 0.05, "batch_size": 2},
        attack={"depth": 1, "replay_epochs": 1},
    )
    payload = run_attack_experiment(config_from_dict(raw), tmp_path)["payload"]
    assert 0.0 <= payload["token_accuracy"] <= 1.0
    assert payload["token_accuracy_x100"] == pytest.approx(100 * payload["token_accuracy"])
    assert payload["eval_sequences"] == 4
    assert payload["train_pairs"] == 2
    envelope = json.loads((tmp_path / "attack.json").read_text())
    validate_artifact(envelope, "report.schema.json")


def test_attack_depth_must_leave_a_trunk():
    raw = base_raw(attack={"depth": 3})
    with pytest.raises(ConfigError):
        config_from_dict(raw)


# ---------------------------------------------------------------------------
# emitted-artifact schema conformance


def test_every_emitted_json_validates_against_a_bundled_schema(tmp_path):
    raw = base_raw(
        generation={"prompt": [1, 2], "max_new_tokens": 3},
        evaluation={"mode": "generative", "max_items": 2},
    )
    run_experiment(config_from_dict(raw), tmp_path)
    comm_report(config_from_dict(base_raw(model=dict(base_raw()["model"], max_context=128))),
                tmp_path)
    memory_report(config_from_dict(raw), tmp_path)
    for line in (tmp_path / "records.jsonl").read_text().splitlines():
        validate_artifact(json.loads(line), "train_record.schema.json")
    validate_artifact(json.loads((tmp_path / "comm_stats.json").read_text()),
                      "comm_stats.schema.json")
    validate_artifact(json.loads((tmp_path / "config.json").read_text()),
                      "experiment_config.schema.json")
    for name in ("train_summary", "generation", "eval", "comm", "memory"):
        envelope = json.loads((tmp_path / f"{name}.json").read_text())
        validate_artifact(envelope, "report.schema.json")
        assert envelope["kind"] in name or name == "eval"


@pytest.mark.parametrize("transport_kind", ["loopback", "tcp"])
def test_comm_report_opens_one_stack_per_cache_mode(tmp_path, opened_stacks, transport_kind):
    raw = base_raw(transport=transport_kind, comm={"context_lengths": [8, 32], "new_tokens": 2})
    decode = comm_report(config_from_dict(raw), tmp_path)["payload"]["decode"]
    assert len(opened_stacks) == 2
    # each stack prefills both context lengths in turn and still measures each
    # length as a fresh stack would
    cfg = config_from_dict(raw)
    segments = build_partitioned(cfg.model, cfg.partition, cfg.lora, seed=cfg.seed)
    for key, use_cache in (("cached_step_bytes", True), ("uncached_step_bytes", False)):
        fresh = []
        for length in (8, 32):
            with InferenceStack(*segments, transport=transport_kind, use_cache=use_cache) as stack:
                fresh.append(experiment._decode_step_bytes(stack.session, length, 2))
        assert decode[key] == fresh
