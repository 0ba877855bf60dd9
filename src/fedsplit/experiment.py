"""Experiment orchestration: validated configs in, JSON artifacts out.

A run is described by one JSON document validated against the bundled
``experiment_config`` schema, then cross-checked field against field before
any model is built. Every artifact a run writes (training records, traffic
counters, reports) is canonical JSON (sorted keys) validated against a
bundled schema, so on the loopback transport equal (config, seed) pairs
produce byte-identical files.

Training records stream to ``records.jsonl`` one flushed line at a time, so
an interrupted run keeps everything completed before the interrupt.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np

from .attack import AttackerConfig, check_cut_depth, run_attack
from .corpus import (
    ToyCorpus,
    client_samplers,
    cloze_problem,
    make_cloze_corpus,
    make_copy_corpus,
    make_lm_corpus,
    shard_corpus,
)
from .errors import CheckpointError, ConfigError, FedSplitError, PartitionError
from .inference import GenerationConfig, InferenceStack
from .model import LoraConfig, ModelConfig, PartitionSpec, build_partitioned
from .scoring import score_multi_token, score_single_token
from .strategies import (
    ClientBatchTrainer,
    HierarchicalTrainer,
    StrategyConfig,
    build_hierarchical_session,
    build_shared_trunk_session,
)
from .training import NoiseConfig, SequentialTrainer, TrainingServer
from .transport import parse_endpoint
from .wire import SCALAR_WIDTH, CommStats, MaskMeta

ENV_ENDPOINT = "FEDSPLIT_ENDPOINT"
ENV_OUTPUT_DIR = "FEDSPLIT_OUTPUT_DIR"
REPORT_SCHEMA_VERSION = 1

_schema_cache: dict[str, jsonschema.Draft202012Validator] = {}


def load_schema(name: str) -> dict:
    """Read one bundled JSON schema by file name."""
    text = resources.files("fedsplit.schemas").joinpath(name).read_text()
    return json.loads(text)


def _validator(name: str) -> jsonschema.Draft202012Validator:
    if name not in _schema_cache:
        _schema_cache[name] = jsonschema.Draft202012Validator(load_schema(name))
    return _schema_cache[name]


def validate_artifact(instance, schema_name: str) -> None:
    """Check an in-memory document against a bundled schema; raise on failure."""
    _validator(schema_name).validate(instance)


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True)


# ---------------------------------------------------------------------------
# configuration sections


@dataclass(frozen=True)
class TrainingSection:
    steps: int = 20
    lr: float = 0.05
    batch_size: int = 4


@dataclass(frozen=True)
class CorpusSection:
    path: str | None = None
    task: str = "copy"
    items: int = 32
    length: int = 4
    num_candidates: int = 4
    seed: int = 0


@dataclass(frozen=True)
class GenerationSection(GenerationConfig):
    prompt: tuple[int, ...] = (0,)
    use_cache: bool = True


@dataclass(frozen=True)
class EvalSection:
    mode: str = "cloze"
    max_items: int | None = None
    use_cache: bool = True


@dataclass(frozen=True)
class CommSection:
    batch: int = 2
    seq_len: int = 128
    context_lengths: tuple[int, int] = (16, 64)
    new_tokens: int = 4


@dataclass(frozen=True)
class GridSection:
    fronts: tuple[int, ...] = (1, 2, 3)
    backs: tuple[int, ...] = (1, 2, 3)
    steps: int = 6


@dataclass
class ExperimentConfig:
    """A fully validated run description.

    ``raw`` keeps the original document so runners can tell which sections
    the user actually wrote (everything else is defaults) and echo the
    config next to the artifacts it produced.
    """

    model: ModelConfig
    partition: PartitionSpec
    lora: LoraConfig | None
    noise: NoiseConfig | None
    strategy: StrategyConfig
    training: TrainingSection
    corpus: CorpusSection
    generation: GenerationSection
    evaluation: EvalSection
    attack: AttackerConfig
    comm: CommSection
    grid: GridSection
    transport: str = "loopback"
    seed: int = 0
    output_dir: Path = Path("runs/exp")
    raw: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        self.seed = int(self.seed)
        self.output_dir = Path(self.output_dir)

    def requested(self, section: str) -> bool:
        return section in self.raw


def _check_generation(model: ModelConfig, gen: GenerationSection) -> list[str]:
    problems = []
    v = model.vocab_size
    if any(t < 0 or t >= v for t in gen.prompt):
        problems.append(f"generation: prompt token ids must be in [0, {v})")
    if gen.stop_token is not None and gen.stop_token >= v:
        problems.append(f"generation: stop_token must be in [0, {v})")
    if len(gen.prompt) + gen.max_new_tokens > model.max_context:
        problems.append(
            "generation: prompt plus max_new_tokens exceeds the model context "
            f"({len(gen.prompt)} + {gen.max_new_tokens} > {model.max_context})"
        )
    return problems


def _check_comm(model: ModelConfig, comm: CommSection) -> list[str]:
    problems = []
    l1, l2 = comm.context_lengths
    if l1 >= l2:
        problems.append("comm: context_lengths must be strictly increasing")
    if l2 + comm.new_tokens > model.max_context:
        problems.append(
            f"comm: context_lengths[1] + new_tokens exceeds the model context "
            f"({l2} + {comm.new_tokens} > {model.max_context})"
        )
    return problems


def _check_attack(model: ModelConfig, attack: AttackerConfig) -> list[str]:
    try:
        check_cut_depth(model, attack.depth)
    except ConfigError as exc:
        return [f"attack: {exc}"]
    return []


def _check_evaluation(corpus: CorpusSection, evaluation: EvalSection) -> list[str]:
    if corpus.path is None and evaluation.mode == "cloze" and corpus.task != "cloze":
        return [f"evaluation: cloze scoring needs a cloze corpus, got task {corpus.task!r}"]
    return []


def _require_valid(problems: list[str]) -> None:
    if problems:
        raise ConfigError("invalid configuration:\n  " + "\n  ".join(problems))


# Every config section, under the name ``ExperimentConfig`` gives it. ``lora``
# is on unless set to null; ``noise`` is off unless given.
SECTIONS = {
    "model": ModelConfig,
    "partition": PartitionSpec,
    "lora": LoraConfig,
    "noise": NoiseConfig,
    "strategy": StrategyConfig,
    "training": TrainingSection,
    "corpus": CorpusSection,
    "generation": GenerationSection,
    "evaluation": EvalSection,
    "attack": AttackerConfig,
    "comm": CommSection,
    "grid": GridSection,
}


def _build_section(raw: dict, key: str, errors: list[str]):
    section = raw.get(key, None if key == "noise" else {})
    if section is None:
        return None
    # JSON has no tuples; every sequence-valued section field is a tuple
    data = {k: tuple(v) if isinstance(v, list) else v for k, v in section.items()}
    try:
        return SECTIONS[key](**data)
    except (FedSplitError, TypeError) as exc:
        errors.append(f"{key}: {exc}")
    return None


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Validate a config document and construct every section.

    Schema violations and cross-field violations are all collected and
    reported in one error, before any model or corpus is built. The corpus
    rules (content-id capacity, shard count) are ``corpus``'s own, checked
    when a stage builds its corpus.
    """
    if not isinstance(raw, dict):
        raise ConfigError("configuration must be a JSON object")
    schema_problems = []
    for err in _validator("experiment_config.schema.json").iter_errors(raw):
        where = "/".join(str(p) for p in err.absolute_path) or "<root>"
        schema_problems.append(f"{where}: {err.message}")
    if schema_problems:
        raise ConfigError(
            "configuration rejected by schema:\n  " + "\n  ".join(sorted(schema_problems))
        )

    errors: list[str] = []
    built = {key: _build_section(raw, key, errors) for key in SECTIONS}
    model, partition, corpus = built["model"], built["partition"], built["corpus"]
    if model is not None and partition is not None:
        try:
            partition.validate_for(model)
        except PartitionError as exc:
            errors.append(f"partition: {exc}")
    for key, check in (("generation", _check_generation), ("comm", _check_comm),
                       ("attack", _check_attack)):
        if model is not None and built[key] is not None and key in raw:
            errors.extend(check(model, built[key]))
    if None not in (corpus, built["evaluation"], model) and "evaluation" in raw:
        errors.extend(_check_evaluation(corpus, built["evaluation"]))
    _require_valid(errors)

    top = {key: raw[key] for key in ("transport", "seed", "output_dir") if key in raw}
    return ExperimentConfig(**built, **top, raw=raw)


def load_config(path, env: dict | None = None) -> ExperimentConfig:
    """Read, override from the environment, and validate a config file.

    ``FEDSPLIT_OUTPUT_DIR`` replaces the configured output directory and
    ``FEDSPLIT_ENDPOINT`` (``host:port``) sets where a TCP config's channel
    pairs listen, as its transport ``"tcp:HOST:PORT"``; both win over the
    file. A loopback config ignores the endpoint.
    """
    env = env or {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("configuration must be a JSON object")
    if env.get(ENV_OUTPUT_DIR):
        raw = dict(raw)
        raw["output_dir"] = env[ENV_OUTPUT_DIR]
    endpoint = env.get(ENV_ENDPOINT)
    if endpoint:
        host, port = parse_endpoint(endpoint, ENV_ENDPOINT)
    cfg = config_from_dict(raw)
    if endpoint and cfg.transport == "tcp":
        cfg.transport = f"tcp:{host}:{port}"
    return cfg


# ---------------------------------------------------------------------------
# corpus and artifact plumbing


def build_corpus(section: CorpusSection, model: ModelConfig) -> ToyCorpus:
    """Generate or load the corpus and check it fits the model."""
    if section.path is not None:
        corpus = ToyCorpus.load(section.path)
        if corpus.vocab_size > model.vocab_size:
            raise ConfigError(
                f"corpus vocab {corpus.vocab_size} exceeds model vocab {model.vocab_size}"
            )
    elif section.task == "copy":
        corpus = make_copy_corpus(
            section.items, payload_len=section.length,
            vocab_size=model.vocab_size, seed=section.seed,
        )
    elif section.task == "lm":
        corpus = make_lm_corpus(
            section.items, length=section.length,
            vocab_size=model.vocab_size, seed=section.seed,
        )
    else:
        corpus = make_cloze_corpus(
            section.items, context_len=section.length,
            num_candidates=section.num_candidates,
            vocab_size=model.vocab_size, seed=section.seed,
        )
    longest = max(len(item.full_sequence()) for item in corpus.items)
    if longest - 1 > model.max_context:
        raise ConfigError(
            f"corpus sequences reach {longest} tokens, model context is {model.max_context}"
        )
    return corpus


def write_report(path, kind: str, seed: int, payload: dict) -> dict:
    """Wrap a payload in the report envelope, validate it, and write it."""
    envelope = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "kind": kind,
        "seed": seed,
        "payload": payload,
    }
    validate_artifact(envelope, "report.schema.json")
    Path(path).write_text(_canonical(envelope) + "\n", encoding="utf-8")
    return envelope


def _prepare_output_dir(cfg: ExperimentConfig, override=None) -> Path:
    out = Path(override) if override is not None else cfg.output_dir
    out.mkdir(parents=True, exist_ok=True)
    if cfg.raw:
        (out / "config.json").write_text(_canonical(cfg.raw) + "\n", encoding="utf-8")
    return out


# ---------------------------------------------------------------------------
# training


def _run_training(cfg: ExperimentConfig, partition: PartitionSpec, steps: int, sink=None):
    """Train with the configured strategy; returns records, merges, stats, segments.

    ``sink`` (if given) sees each record as soon as its round completes (its
    phase, under the hierarchical strategy).
    ``segments`` is (front, middle, back) holding the trained parameters of
    client 0 and the trunk, usable for post-training generation or scoring.
    """
    corpus = build_corpus(cfg.corpus, cfg.model)
    shards = shard_corpus(corpus, cfg.strategy.num_clients)
    samplers = client_samplers(shards, cfg.training.batch_size, cfg.seed)

    def batch_source(client_id: int, round_index: int):
        return samplers[client_id].batch_for(round_index)

    if cfg.strategy.mode == "server_hierarchical":
        middle, clients, sub_servers, channels = build_hierarchical_session(
            cfg.model, partition, cfg.strategy.num_clients, cfg.training.lr,
            lora=cfg.lora, seed=cfg.seed, noise=cfg.noise, transport=cfg.transport,
        )
        trainer = HierarchicalTrainer(middle, clients, sub_servers, channels, cfg.strategy)
    else:
        clients, middle, channels = build_shared_trunk_session(
            cfg.model, partition, cfg.strategy.num_clients, cfg.training.lr,
            lora=cfg.lora, seed=cfg.seed, noise=cfg.noise, transport=cfg.transport,
        )
        server = TrainingServer(middle, cfg.training.lr)
        if cfg.strategy.mode == "sequential":
            trainer = SequentialTrainer(clients, server, channels)
        else:
            trainer = ClientBatchTrainer(
                clients, server, channels, barrier_timeout=cfg.strategy.barrier_timeout
            )
    with trainer:
        records = trainer.run(batch_source, steps, sink=sink)
    stats = CommStats.sum(ch.stats.snapshot() for ch in channels)
    return records, trainer.merge_log, stats, (clients[0].front, middle, clients[0].back)


def _round_mean_losses(records) -> list[float]:
    by_step: dict[int, list[float]] = {}
    for rec in records:
        by_step.setdefault(rec.step, []).append(rec.loss)
    return [float(np.mean(by_step[s])) for s in sorted(by_step)]


def run_train(cfg: ExperimentConfig, output_dir=None):
    """Train per config; stream records, then write stats and a summary.

    Returns (summary envelope, trained segments). ``records.jsonl`` holds one
    line per client-step, ``comm_stats.json`` the summed channel counters,
    ``adapters.npz`` the full trained parameter set (client 0's ends plus the
    trunk), and ``train_summary.json`` the round-level loss digest.
    """
    out = _prepare_output_dir(cfg, output_dir)
    with open(out / "records.jsonl", "w", encoding="utf-8") as fh:

        def write(rec) -> None:
            # one validated line per record, flushed at once, so an interrupt
            # loses at most the step in flight
            doc = rec.to_json()
            validate_artifact(doc, "train_record.schema.json")
            fh.write(_canonical(doc) + "\n")
            fh.flush()

        records, merge_log, stats, segments = _run_training(
            cfg, cfg.partition, cfg.training.steps, sink=write
        )
    validate_artifact(stats, "comm_stats.schema.json")
    (out / "comm_stats.json").write_text(_canonical(stats) + "\n", encoding="utf-8")

    _save_adapters(out / "adapters.npz", segments)

    losses = _round_mean_losses(records)
    payload = {
        "strategy": cfg.strategy.mode,
        "steps": cfg.training.steps,
        "num_clients": cfg.strategy.num_clients,
        "num_records": len(records),
        "first_loss": losses[0],
        "final_loss": losses[-1],
        "loss_ratio": losses[-1] / losses[0] if losses[0] else float("nan"),
    }
    if merge_log:
        payload["merges"] = [m.to_json() for m in merge_log]
    summary = write_report(out / "train_summary.json", "train_summary", cfg.seed, payload)
    return summary, segments


# ---------------------------------------------------------------------------
# generation and evaluation


def _save_adapters(path, segments) -> None:
    """Write every parameter of ``segments`` to one npz file."""
    state = {}
    for seg in segments:
        state.update(seg.state_dict())
    np.savez(path, **state)


def _load_adapters(segments, adapters_path) -> None:
    """Load each segment's slice of a file written by ``_save_adapters``."""
    try:
        with open(adapters_path, "rb") as fh:
            archive = np.load(fh)
            if not isinstance(archive, np.lib.npyio.NpzFile):
                raise ValueError("not an npz archive")
            state = dict(archive)
    except (OSError, ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise CheckpointError(f"cannot read adapters file {adapters_path}: {exc}") from exc
    for seg in segments:
        seg.load_state_dict(state)


def _segments(cfg: ExperimentConfig, segments=None, adapters=None):
    """``segments`` if given, else (front, middle, back) built from the config
    with the ``adapters`` file, if one is named, loaded into them."""
    if segments is None:
        segments = build_partitioned(cfg.model, cfg.partition, cfg.lora, cfg.seed)
        if adapters is not None:
            _load_adapters(segments, adapters)
    return segments


def run_generate(cfg: ExperimentConfig, output_dir=None, segments=None, adapters=None):
    """Generate from the configured prompt and write ``generation.json``."""
    _require_valid(_check_generation(cfg.model, cfg.generation))
    out = _prepare_output_dir(cfg, output_dir)
    gen = cfg.generation
    front, middle, back = _segments(cfg, segments, adapters)
    with InferenceStack(front, middle, back, transport=cfg.transport,
                        use_cache=gen.use_cache) as stack:
        result = stack.session.generate(list(gen.prompt), gen)
    payload = {
        "prompt": list(gen.prompt),
        "tokens": result.tokens,
        "error": result.error,
        "use_cache": gen.use_cache,
        "num_new_tokens": len(result.tokens),
    }
    return write_report(out / "generation.json", "generation", cfg.seed, payload)


def run_eval(cfg: ExperimentConfig, output_dir=None, segments=None, adapters=None):
    """Score the corpus and write ``eval.json``.

    Every item is scored on one stack. Cloze mode checks every item, then
    ranks each item's candidate set by restricted softmax over logits from
    one batched prefill, and reports accuracy; generative mode teacher-forces
    each item's answer and reports the mean per-item log-probability. Both
    appear raw and x100.
    """
    _require_valid(_check_evaluation(cfg.corpus, cfg.evaluation))
    out = _prepare_output_dir(cfg, output_dir)
    front, middle, back = _segments(cfg, segments, adapters)
    corpus = build_corpus(cfg.corpus, cfg.model)
    items = corpus.items
    if cfg.evaluation.max_items is not None:
        items = items[: cfg.evaluation.max_items]
    mode = cfg.evaluation.mode
    per_item = []
    values = []
    if mode == "cloze":
        for i, item in enumerate(items):
            problem = cloze_problem(item)
            if problem:
                raise ConfigError(f"cloze evaluation: item {i} {problem}")
    with InferenceStack(front, middle, back, transport=cfg.transport,
                        use_cache=cfg.evaluation.use_cache) as stack:
        if mode == "cloze":
            logits = stack.session.prefill_batch([item.prompt for item in items])
            for item, row in zip(items, logits):
                probs = score_single_token(row, item.candidates)
                pick = item.candidates[int(np.argmax(probs))]
                truth = item.answer[0]
                correct = float(pick == truth)
                values.append(correct)
                per_item.append({
                    "correct": bool(correct),
                    "truth_prob": float(probs[item.candidates.index(truth)]),
                })
        else:
            for item in items:
                logprob = score_multi_token(stack.session, item.prompt, item.answer)
                values.append(logprob)
                per_item.append({"logprob": logprob, "answer_len": len(item.answer)})
    score = float(np.mean(values)) if values else float("nan")
    payload = {
        "mode": mode,
        "num_items": len(items),
        "score": score,
        "score_x100": 100.0 * score,
        "per_item": per_item,
    }
    return write_report(out / "eval.json", "eval", cfg.seed, payload)


# ---------------------------------------------------------------------------
# attack, communication, memory, grid


def run_attack_experiment(cfg: ExperimentConfig, output_dir=None):
    """Two-client federation with a curious server; writes ``attack.json``.

    The corpus splits three ways: the colluding client's shard, the honest
    client's shard, and a held-out shard the reconstruction is scored on.
    """
    _require_valid(_check_attack(cfg.model, cfg.attack))
    out = _prepare_output_dir(cfg, output_dir)
    corpus = build_corpus(cfg.corpus, cfg.model)
    malicious, honest, heldout = shard_corpus(corpus, 3)
    report = run_attack(
        cfg.model, [malicious, honest], heldout,
        steps=cfg.training.steps, attacker=cfg.attack,
        lr=cfg.training.lr, batch_size=cfg.training.batch_size,
        noise=cfg.noise, lora=cfg.lora, seed=cfg.seed,
    )
    return write_report(out / "attack.json", "attack", cfg.seed, report.to_json())


def _decode_step_bytes(session, context_len: int, new_tokens: int) -> float:
    """Mean client-side bytes per decode step after a ``context_len`` prefill."""
    vocab = session.front.config.vocab_size
    logits = session.prefill([i % vocab for i in range(context_len)])
    before = session.channel.stats.snapshot()
    token = int(np.argmax(logits))
    for _ in range(new_tokens):
        logits = session.decode_step(token)
        token = int(np.argmax(logits))
    moved = CommStats.delta(session.channel.stats.snapshot(), before)["totals"]
    return (moved["sent_bytes"] + moved["recv_bytes"]) / new_tokens


def comm_report(cfg: ExperimentConfig, output_dir=None):
    """Byte-accounting report: mask compression and decode traffic scaling.

    The mask numbers are pure arithmetic (metadata wire size against the
    dense additive mask it replaces); the decode numbers are measured off a
    live stack per cache mode, prefilled at each of two context lengths.
    """
    _require_valid(_check_comm(cfg.model, cfg.comm))
    out = _prepare_output_dir(cfg, output_dir)
    c = cfg.comm
    meta = MaskMeta(c.seq_len, (0,) * c.batch, c.batch)
    dense = meta.dense_mask_bytes(SCALAR_WIDTH)
    l1, l2 = c.context_lengths
    segments = _segments(cfg)
    step_bytes = {}
    for use_cache in (True, False):
        with InferenceStack(*segments, transport=cfg.transport, use_cache=use_cache) as stack:
            step_bytes[use_cache] = [_decode_step_bytes(stack.session, length, c.new_tokens)
                                     for length in (l1, l2)]
    cached, uncached = step_bytes[True], step_bytes[False]
    payload = {
        "mask": {
            "batch": c.batch,
            "seq_len": c.seq_len,
            "scalar_width": SCALAR_WIDTH,
            "dense_bytes": dense,
            "meta_bytes": meta.wire_size(),
            "ratio": dense / meta.wire_size(),
        },
        "decode": {
            "context_lengths": [l1, l2],
            "new_tokens": c.new_tokens,
            "cached_step_bytes": cached,
            "uncached_step_bytes": uncached,
            "cached_ratio": cached[1] / cached[0],
            "uncached_ratio": uncached[1] / uncached[0],
        },
    }
    return write_report(out / "comm.json", "comm", cfg.seed, payload)


def _param_count(segment) -> int:
    return int(sum(p.data.size for p in segment.named_parameters().values()))


def memory_report(cfg: ExperimentConfig, output_dir=None):
    """Client-resident parameter fraction for the configured partition."""
    out = _prepare_output_dir(cfg, output_dir)
    front, middle, back = _segments(cfg)
    client = _param_count(front) + _param_count(back)
    server = _param_count(middle)
    total = client + server
    payload = {
        "partition": {
            "front": cfg.partition.front,
            "middle": cfg.partition.middle,
            "back": cfg.partition.back,
        },
        "client_params": client,
        "server_params": server,
        "total_params": total,
        "client_fraction": client / total,
        "client_fraction_x100": 100.0 * client / total,
    }
    return write_report(out / "memory.json", "memory", cfg.seed, payload)


def partition_grid(cfg: ExperimentConfig, output_dir=None):
    """Sweep (front, back) block counts and train each valid cell briefly.

    Cells where the trunk would be left without blocks are reported as
    skipped. The table holds each cell's final round-mean loss (rows are
    front counts, columns back counts).
    """
    out = _prepare_output_dir(cfg, output_dir)
    n = cfg.model.num_blocks
    cells = []
    table = []
    for p in cfg.grid.fronts:
        row = []
        for q in cfg.grid.backs:
            k = n - p - q
            if k < 1:
                cells.append({
                    "front": p, "back": q, "status": "skipped",
                    "final_loss": None,
                    "reason": f"no trunk blocks left ({p} + {q} >= {n})",
                })
                row.append(None)
                continue
            part = PartitionSpec(p, k, q)
            records, _, _, _ = _run_training(cfg, part, cfg.grid.steps)
            final = _round_mean_losses(records)[-1]
            cells.append({
                "front": p, "back": q, "status": "ok",
                "final_loss": final, "reason": None,
            })
            row.append(final)
        table.append(row)
    payload = {
        "fronts": list(cfg.grid.fronts),
        "backs": list(cfg.grid.backs),
        "cells": cells,
        "table": table,
    }
    return write_report(out / "grid.json", "grid", cfg.seed, payload)


def run_experiment(cfg: ExperimentConfig, output_dir=None) -> dict:
    """Train, then run whichever extra stages the config document mentions.

    Generation and evaluation reuse the trained parameters from the training
    stage. Returns a dict of report envelopes keyed by stage name.
    """
    results = {}
    summary, segments = run_train(cfg, output_dir)
    results["train"] = summary
    if cfg.requested("generation"):
        results["generation"] = run_generate(cfg, output_dir, segments=segments)
    if cfg.requested("evaluation"):
        results["eval"] = run_eval(cfg, output_dir, segments=segments)
    return results
