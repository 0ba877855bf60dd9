"""The four benchmark stages, driven through fedsplit's public API.

Every stage uses the default ``ModelConfig`` (vocab 256, hidden 64, 4 heads,
6 blocks, mlp 172, max context 128), partition 2/2/2, LoRA rank 8 / alpha 16
and no noise. All inputs come from the workload seed. Each stage runs closed
loop from the driving thread: the next operation starts only after the
previous one returned.

A stage runs either for a time budget or for a fixed operation count, records
one timing sample per operation, and keeps the outputs its checks need. The
checks run after the timed region; each one is an attempted operation, and a
mismatch counts as a failed one.
"""

from __future__ import annotations

import math
import os
from time import perf_counter, process_time

import numpy as np

from fedsplit.corpus import FIRST_CONTENT_ID, BatchSampler, make_copy_corpus, make_lm_corpus, shard_corpus
from fedsplit.errors import ProtocolError
from fedsplit.experiment import config_from_dict, run_eval
from fedsplit.inference import GenerationConfig, InferenceServer, InferenceStack
from fedsplit.model import LoraConfig, ModelConfig, PartitionSpec, build_monolithic, build_partitioned
from fedsplit.strategies import (
    ClientBatchServer,
    ClientBatchTrainer,
    HierarchicalTrainer,
    StrategyConfig,
    build_hierarchical_session,
    build_shared_trunk_session,
)
from fedsplit.training import IGNORE_INDEX, SequentialTrainer, TrainingServer, connect_pair, train_monolithic

MODEL = ModelConfig()
PARTITION = PartitionSpec(2, 2, 2)
LORA = LoraConfig(rank=8, alpha=16.0)
LR = 0.05
BATCH = 8

TRAIN_PAYLOAD = 8          # copy corpus: BOS + 8 + SEP + 8 + STOP -> 18 input positions
TRAIN_EPISODE = 12         # rounds per fresh training session
FEDERATE_BODY = 48         # LM corpus: BOS + 48 + STOP -> 49 input positions
FEDERATE_CLIENTS = 2
SYNC_INTERVAL = 2          # hierarchical merge every two steps
STRATEGIES = ("sequential", "client_batch", "hierarchical")
# Generate prompt lengths: every block of 16 sessions is a seeded permutation
# of this grid, so the length mix, and with it prefill cost and cache size,
# is the same whatever the seed. Prompts whose grid index is a multiple of
# UNCACHED_EVERY (lengths 4, 28, 52) are re-run without the cache; an odd
# number of re-run lengths keeps the uncached median inside one length's
# cluster of samples rather than in the gap between two.
PROMPT_LENGTHS = tuple(range(4, 65, 4))
NEW_TOKENS = 24            # cached greedy tokens per generate session
# One TPOT sample is the time of TPOT_GROUP consecutive decode steps over
# TPOT_GROUP. A single step (about 4 ms) is shorter than the 10 ms tick of
# the steal counter, so steal inside it cannot be taken out; over six steps
# it mostly can, and the tail then moves with the program, not the host.
TPOT_GROUP = 6
UNCACHED_EVERY = 6
UNCACHED_TOKENS = 8
PREFILL_ONLY = 3           # prefill-only sessions after each decode session, for TTFT samples
CLOZE_CONTEXT = 24
CLOZE_CANDIDATES = 4
SCORE_ITEMS = 16           # cloze items per run_eval call


class StageFailure(Exception):
    """An operation raised; the stage stops and the failure is counted."""


def cpu_ticks() -> tuple[int, int]:
    """(busy, steal) clock ticks of every CPU since boot; (0, 0) if unknown.

    Busy is user, nice, system, irq and softirq time of the whole guest.
    Steal is time a CPU was ready to run but the host of a shared virtual
    machine ran other guests on it, in bursts.
    """
    try:
        with open("/proc/stat", "rb") as fh:
            f = fh.readline().split()
        return int(f[1]) + int(f[2]) + int(f[3]) + int(f[6]) + int(f[7]), int(f[8])
    except (OSError, IndexError, ValueError):
        return 0, 0


TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")
NCPU = os.cpu_count() or 1


class Stopwatch:
    """Wall time of one operation, less the host steal that delayed it.

    Samples are ``perf_counter`` wall time: what a user waits for, blocking,
    thread handoffs and idle waits included. The steal counter is read around
    the operation. It covers the whole guest, so only this process's share
    of the guest's busy time counts (its CPU time over busy ticks), and that
    is divided by how many of its threads ran at once (CPU time over wall
    time, between 1 and nproc) to give the delay taken out of the sample.
    The counters move in whole ticks (10 ms), so one short sample may be off
    by a tick, even below zero; the metrics are medians, tails and sums over
    many samples.
    """

    __slots__ = ("start", "cpu0", "ticks0")

    def __init__(self):
        self.ticks0 = cpu_ticks()
        self.cpu0 = process_time()
        self.start = perf_counter()

    def stop(self) -> tuple[float, float, float]:
        """(seconds less steal, wall end, steal seconds taken out)."""
        end = perf_counter()
        cpu = process_time() - self.cpu0
        busy, steal = cpu_ticks()
        wall = end - self.start
        busy_s = (busy - self.ticks0[0]) * TICK_S
        ours = min(cpu / busy_s, 1.0) if busy_s > 0 else 1.0
        threads = min(max(cpu / wall, 1.0), NCPU)
        delay = (steal - self.ticks0[1]) * TICK_S * ours / threads
        return wall - delay, end, delay


def _deadline_reached(deadline, done, count):
    if count is not None:
        return done >= count
    return perf_counter() >= deadline


def _supervised(batch) -> int:
    return int(np.count_nonzero(batch.targets != IGNORE_INDEX))


def _moved(before: dict, after: dict) -> int:
    """Bytes sent plus received between two CommStats snapshots."""
    return sum(after["totals"][k] - before["totals"][k] for k in ("sent_bytes", "recv_bytes"))


def _first_and_last(items: list) -> list:
    return items[:1] if len(items) == 1 else [items[0], items[-1]]


def _finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


# ---------------------------------------------------------------------------
# output checks (pure functions, so the smoke test can corrupt their inputs)


def check_train(split_losses, mono_losses) -> list[str]:
    """Split loss trace must equal the monolithic trace bitwise."""
    problems = []
    if list(split_losses) != list(mono_losses):
        problems.append("split loss trace differs from train_monolithic")
    if not _finite(split_losses):
        problems.append("non-finite training loss")
    return problems


def check_federate(round0_client0: dict, losses, merge_log) -> list[str]:
    """Round-0 loss of client 0 agrees across strategies; merges keep everyone."""
    problems = []
    if len(set(round0_client0.values())) != 1:
        problems.append(f"client 0 round-0 loss differs across strategies: {round0_client0}")
    if not _finite(losses):
        problems.append("non-finite federated loss")
    for rec in merge_log:
        if rec.excluded_clients or len(rec.merged_clients) != FEDERATE_CLIENTS:
            problems.append(f"merge at step {rec.step} excluded clients {rec.excluded_clients}")
    return problems


def check_generate(cached: list[int], uncached: list[int] | None, error, bytes_per_token) -> list[str]:
    """Uncached tokens equal the cached ones; no error; flat cached bytes/token."""
    problems = []
    if uncached is not None and uncached != cached[: len(uncached)]:
        problems.append("uncached tokens differ from cached tokens")
    if error is not None:
        problems.append(f"generation error: {error}")
    if len(set(bytes_per_token)) > 1:
        problems.append(f"cached bytes per token vary with prompt length: {sorted(set(bytes_per_token))}")
    return problems


def check_score(tcp_payload: dict, loopback_payload: dict) -> list[str]:
    """TCP scoring must equal a loopback run of the same items."""
    keys = ("score", "per_item", "num_items")
    if any(tcp_payload[k] != loopback_payload[k] for k in keys):
        return ["TCP score differs from loopback score"]
    return []


# ---------------------------------------------------------------------------
# stages


class Stage:
    """Timing samples, failure counts and check results of one stage.

    ``run`` may be called several times; samples accumulate, so a run can
    spread a stage's operations over its whole duration.
    """

    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.checks: list[str] = []
        self.windows: list[tuple[float, float]] = []  # wall (start, end) of each timed operation
        self.steal_s = 0.0  # host steal taken out of this stage's samples, summed over samples

    def _time(self, watch: Stopwatch, samples: list | None = None, window: bool = True) -> float:
        """Stop ``watch``; append its seconds to ``samples`` and return them."""
        dt, end, stolen = watch.stop()
        if window:
            self.windows.append((watch.start, end))
        self.steal_s += stolen
        if samples is not None:
            samples.append(dt)
        return dt

    def _fail(self, what: str, exc: BaseException) -> None:
        self.failed += 1
        self.errors.append(f"{self.name}: {what}: {type(exc).__name__}: {exc}")

    def run_checks(self) -> None:
        try:
            for label, problems in self._checks():
                self.attempted += 1
                if problems:
                    self.failed += 1
                    self.checks.extend(f"{self.name}: {label}: {p}" for p in problems)
        except Exception as exc:  # a check that cannot run is a failed check
            self.attempted += 1
            self._fail("checks", exc)


class TrainStage(Stage):
    """One client, sequential strategy, loopback transport, copy corpus."""

    name = "train"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.round_s: list[float] = []
        self.tokens = 0
        self.episodes: list[tuple[BatchSampler, list[float], list[float]]] = []
        self.wire_frames = 0
        self.wire_bytes = 0

    def setup(self, episode: int = 0):
        corpus = make_copy_corpus(256, payload_len=TRAIN_PAYLOAD, vocab_size=MODEL.vocab_size, seed=self.seed)
        sampler = BatchSampler(corpus, BATCH, seed=self.seed * 1009 + episode)
        segments = build_partitioned(MODEL, PARTITION, LORA, seed=self.seed)
        client, server, channel = connect_pair(*segments, 0, lr=LR, noise=None)
        trainer = SequentialTrainer([client], server, [channel])
        return trainer, sampler

    def run(self, tracer=None, budget: float | None = None, count: int | None = None) -> None:
        """Rounds in episodes of fresh sessions, for ``budget`` s or ``count`` rounds."""
        deadline = None if budget is None else perf_counter() + budget
        done = 0
        while not _deadline_reached(deadline, done, count):
            episode = len(self.episodes)
            trainer, sampler = self.setup(episode)
            stats = trainer.clients[0].channel.stats
            losses, times = [], []
            try:
                for r in range(TRAIN_EPISODE):
                    if _deadline_reached(deadline, done, count):
                        break
                    self.attempted += 1
                    watch = Stopwatch()
                    batch = sampler.batch_for(r)
                    (rec,) = trainer.run_round([batch], r)
                    times.append(self._time(watch, self.round_s))
                    done += 1
                    losses.append(rec.loss)
                    self.tokens += _supervised(batch)
            except Exception as exc:
                self._fail(f"round {len(times)} of episode {episode}", exc)
                raise StageFailure(self.name) from exc
            finally:
                trainer.shutdown()
            totals = stats.snapshot()["totals"]
            self.wire_frames += totals["sent_count"] + totals["recv_count"]
            self.wire_bytes += totals["sent_bytes"] + totals["recv_bytes"]
            self.episodes.append((sampler, losses, times))

    def primary_samples(self) -> dict:
        return {"round": self.round_s}

    def op_count(self) -> int:
        return len(self.round_s)

    def _checks(self):
        """Replay the first and last episodes through train_monolithic.

        Each replayed step is timed, so ``split_s`` and ``mono_s`` hold the
        split round and the unsplit step on the same batches.
        """
        self.split_s: list[float] = []
        self.mono_s: list[float] = []
        for sampler, losses, times in _first_and_last(self.episodes):
            mono = build_monolithic(MODEL, LORA, seed=self.seed)
            mono_losses = []
            for r in range(len(losses)):
                watch = Stopwatch()
                mono_losses += train_monolithic(mono, lambda _, r=r: sampler.batch_for(r), steps=1, lr=LR)
                self.mono_s.append(self._time(watch, window=False))
            self.split_s.extend(times)
            yield "split equals monolithic", check_train(losses, mono_losses)
        every = [loss for _, losses, _ in self.episodes for loss in losses]
        yield "finite losses", [] if _finite(every) else ["non-finite training loss"]


class FederateStage(Stage):
    """Two clients over TCP on the LM corpus, under each of three strategies.

    Each ``run`` call opens a fresh session per strategy, one strategy at a
    time (two TCP connections open at once), and starts its steps at a new
    offset so later calls train on new batches.
    """

    name = "federate"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.round_s = {s: [] for s in STRATEGIES}
        self.steps = 0  # client steps per client, over every strategy
        self.step_s = 0.0  # seconds of every federate step
        self.tokens = 0
        self.losses: list[float] = []
        self.first_losses: list[dict[str, float]] = []  # client 0's first-step loss per call
        self.merge_log = []

    def _samplers(self):
        corpus = make_lm_corpus(64, length=FEDERATE_BODY, vocab_size=MODEL.vocab_size, seed=self.seed + 1)
        return [
            BatchSampler(shard, BATCH, seed=self.seed + 17 * cid)
            for cid, shard in enumerate(shard_corpus(corpus, FEDERATE_CLIENTS))
        ]

    def setup_strategy(self, strategy: str):
        samplers = self._samplers()
        if strategy == "hierarchical":
            central, clients, subs, channels = build_hierarchical_session(
                MODEL, PARTITION, FEDERATE_CLIENTS, LR, lora=LORA, seed=self.seed, transport="tcp"
            )
            config = StrategyConfig(
                mode="server_hierarchical", num_clients=FEDERATE_CLIENTS, sync_interval=SYNC_INTERVAL
            )
            return HierarchicalTrainer(central, clients, subs, channels, config), samplers
        clients, middle, channels = build_shared_trunk_session(
            MODEL, PARTITION, FEDERATE_CLIENTS, LR, lora=LORA, seed=self.seed, transport="tcp"
        )
        if strategy == "sequential":
            return SequentialTrainer(clients, TrainingServer(middle, LR), channels), samplers
        return ClientBatchTrainer(clients, ClientBatchServer(middle, LR), channels), samplers

    def run(self, tracer=None, budget: float | None = None, count: dict | None = None) -> None:
        first = {}
        base = 1000 * len(self.first_losses)
        for strategy in STRATEGIES:
            if count is not None and count[strategy] == 0:
                continue
            if tracer is not None:
                tracer.stage = f"federate.{strategy}"
            share = None if budget is None else budget / len(STRATEGIES)
            self._run_strategy(strategy, base, first, share, None if count is None else count[strategy])
        if first:
            self.first_losses.append(first)

    def _run_strategy(self, strategy, base, first, budget, count) -> None:
        trainer, samplers = self.setup_strategy(strategy)
        samples = self.round_s[strategy]
        deadline = None if budget is None else perf_counter() + budget

        def batch_source(cid, step):
            return samplers[cid].batch_for(step)

        step = base
        done = 0
        try:
            while not _deadline_reached(deadline, done, count):
                self.attempted += 1
                watch = Stopwatch()
                if strategy == "hierarchical":
                    records = trainer.run_phase(batch_source, step, SYNC_INTERVAL)
                    trainer.merge(step + SYNC_INTERVAL)
                    steps = SYNC_INTERVAL
                else:
                    batches = [batch_source(c.client_id, step) for c in trainer.clients]
                    records = trainer.run_round(batches, step)
                    steps = 1
                dt = self._time(watch)
                if len(records) != FEDERATE_CLIENTS * steps:
                    raise StageFailure(f"{strategy} step {step} returned {len(records)} records")
                done += 1
                samples.append(dt / steps)
                self.step_s += dt
                self.tokens += FEDERATE_CLIENTS * BATCH * (FEDERATE_BODY + 1) * steps
                for rec in records:
                    self.losses.append(rec.loss)
                    if rec.step == base and rec.client_id == 0:
                        first[strategy] = rec.loss
                self.steps += steps
                step += steps
        except Exception as exc:
            self._fail(f"{strategy} step {step}", exc)
            raise StageFailure(self.name) from exc
        finally:
            if strategy == "hierarchical":
                self.merge_log.extend(trainer.merge_log)
            trainer.shutdown()

    def primary_samples(self) -> dict:
        return dict(self.round_s)

    def op_count(self) -> dict:
        return {s: len(v) for s, v in self.round_s.items()}

    def _checks(self):
        for first in self.first_losses:
            yield "strategies agree", check_federate(first, self.losses, self.merge_log)


class GenerateStage(Stage):
    """KV-cached greedy decoding sessions over TCP against one shared server."""

    name = "generate"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.ttft_s: list[float] = []
        self.tpot_s: list[float] = []
        self.tpot_uncached_s: list[float] = []
        self.session_s: list[float] = []
        self.sessions: list[dict] = []
        self.prefill_ids: list[int] = []  # sessions of the prefill-only stacks
        self._prompts = None

    def setup(self):
        front, middle, back = build_partitioned(MODEL, PARTITION, LORA, seed=self.seed)
        return front, back, InferenceServer(middle)

    def prompts(self, stream: int):
        """Endless (prompt, rerun uncached) pairs, in blocks over the length grid."""
        rng = np.random.default_rng((self.seed, stream))
        while True:
            order = rng.permutation(len(PROMPT_LENGTHS))
            first_rerun = int(np.flatnonzero(order % UNCACHED_EVERY == 0)[0])
            for index in np.roll(order, -first_rerun):  # each block opens with a re-run prompt
                length = PROMPT_LENGTHS[index]
                prompt = [int(t) for t in rng.integers(FIRST_CONTENT_ID, MODEL.vocab_size, size=length)]
                yield prompt, index % UNCACHED_EVERY == 0

    def run(self, tracer=None, budget: float | None = None, count: int | None = None) -> None:
        """Sessions against the stage's one server, which lives across calls."""
        if self._prompts is None:
            self.front, self.back, self.server = self.setup()
            self._prompts = self.prompts(2)
            self._prefill_prompts = self.prompts(3)
        deadline = None if budget is None else perf_counter() + budget

        def stage(label):
            if tracer is not None:
                tracer.stage = label

        done = 0
        while not _deadline_reached(deadline, done, count):
            prompt, rerun = next(self._prompts)
            self.attempted += 1
            try:
                self.sessions.append(self._session(prompt, rerun, stage))
                for _ in range(PREFILL_ONLY):
                    self.attempted += 1
                    self.prefill_ids.append(self._prefill_only(next(self._prefill_prompts)[0], stage))
            except Exception as exc:
                self._fail(f"session {len(self.sessions)}", exc)
                raise StageFailure(self.name) from exc
            done += 1

    def live_sessions(self) -> int:
        """Sessions the shared server still answers ``session_length`` for."""
        live = 0
        ids = [sid for rec in self.sessions for sid in rec["session_ids"]] + self.prefill_ids
        for sid in ids:
            try:
                self.server.session_length(sid)
            except ProtocolError:
                continue
            live += 1
        return live

    def _session(self, prompt, rerun, stage) -> dict:
        stage("generate.prefill")
        session_watch = Stopwatch()
        stack = InferenceStack(self.front, None, self.back, transport="tcp", server=self.server)
        try:
            session = stack.session
            logits = session.prefill(prompt)
            self._time(session_watch, self.ttft_s, window=False)
            stage("generate.decode")
            stats = session.channel.stats
            before = stats.snapshot()
            tokens = []
            for _ in range(NEW_TOKENS // TPOT_GROUP):
                watch = Stopwatch()
                for _ in range(TPOT_GROUP):
                    token = int(np.argmax(logits))
                    tokens.append(token)
                    logits = session.decode_step(token)
                self.tpot_s.append(self._time(watch) / TPOT_GROUP)
            after = stats.snapshot()
        finally:
            stage("generate.close")
            stack.close()
        self._time(session_watch, self.session_s, window=False)
        rec = {
            "prompt": prompt,
            "tokens": tokens,
            "session_ids": [session.session_id],
            "bytes_per_token": _moved(before, after) / NEW_TOKENS,
            "round_trips_per_token": (after["round_trips"] - before["round_trips"]) / NEW_TOKENS,
            "uncached": None,
        }
        if rerun:
            rec["uncached"], uncached_bytes, sid = self._uncached(prompt, stage)
            rec["uncached_bytes_per_token"] = uncached_bytes
            rec["session_ids"].append(sid)
        return rec

    def _prefill_only(self, prompt, stage) -> int:
        """A stack that only prefills, timed like a session's first token."""
        stage("generate.prefill")
        watch = Stopwatch()
        with InferenceStack(self.front, None, self.back, transport="tcp", server=self.server) as stack:
            stack.session.prefill(prompt)
            self._time(watch, self.ttft_s, window=False)
            stage("generate.close")
        return stack.session.session_id

    def _uncached(self, prompt, stage):
        stage("generate.uncached")
        with InferenceStack(self.front, None, self.back, transport="tcp", use_cache=False,
                            server=self.server) as stack:
            session = stack.session
            logits = session.prefill(prompt)
            stats = session.channel.stats
            before = stats.snapshot()
            tokens = []
            for _ in range(UNCACHED_TOKENS):
                token = int(np.argmax(logits))
                tokens.append(token)
                watch = Stopwatch()
                logits = session.decode_step(token)
                self._time(watch, self.tpot_uncached_s, window=False)
            after = stats.snapshot()
        return tokens, _moved(before, after) / UNCACHED_TOKENS, session.session_id

    def primary_samples(self) -> dict:
        return {"tpot": self.tpot_s}

    def op_count(self) -> int:
        return len(self.sessions)

    def _checks(self):
        per_token = [rec["bytes_per_token"] for rec in self.sessions]
        for rec in self.sessions:
            yield "uncached equals cached", check_generate(rec["tokens"], rec["uncached"], None, per_token)
        for rec in _first_and_last(self.sessions):
            with InferenceStack(self.front, None, self.back, transport="tcp", server=self.server) as stack:
                result = stack.session.generate(rec["prompt"], GenerationConfig(max_new_tokens=NEW_TOKENS))
            yield "generate() result", check_generate(rec["tokens"], result.tokens, result.error, per_token)


class ScoreStage(Stage):
    """experiment.run_eval in cloze mode over TCP, many items per call."""

    name = "score"
    items_per_call = SCORE_ITEMS

    def __init__(self, seed: int, out_dir):
        super().__init__(seed)
        self.out_dir = out_dir
        self.call_s: list[float] = []
        self.payloads: list[dict] = []
        self.segments = None

    def config(self, call: int, transport: str = "tcp"):
        return config_from_dict({
            "schema_version": 1,
            "seed": self.seed,
            "transport": transport,
            "model": {
                "vocab_size": MODEL.vocab_size, "hidden_size": MODEL.hidden_size,
                "num_heads": MODEL.num_heads, "num_blocks": MODEL.num_blocks,
                "mlp_hidden": MODEL.mlp_hidden, "max_context": MODEL.max_context,
            },
            "partition": {"front": PARTITION.front, "middle": PARTITION.middle, "back": PARTITION.back},
            "lora": {"rank": LORA.rank, "alpha": LORA.alpha},
            "corpus": {
                "task": "cloze", "items": SCORE_ITEMS, "length": CLOZE_CONTEXT,
                "num_candidates": CLOZE_CANDIDATES, "seed": self.seed * 1009 + call,
            },
            "evaluation": {"mode": "cloze"},
        })

    def setup(self):
        return build_partitioned(MODEL, PARTITION, LORA, seed=self.seed), self.config(0)

    def run(self, tracer=None, budget: float | None = None, count: int | None = None) -> None:
        """run_eval calls on fresh cloze items, sharing one set of segments."""
        if self.segments is None:
            self.segments, _ = self.setup()
            self.out_dir.mkdir(parents=True, exist_ok=True)
        deadline = None if budget is None else perf_counter() + budget
        done = 0
        while not _deadline_reached(deadline, done, count):
            call = len(self.call_s)
            cfg = self.config(call)
            self.attempted += 1
            try:
                watch = Stopwatch()
                envelope = run_eval(cfg, output_dir=self.out_dir, segments=self.segments)
                self._time(watch, self.call_s)
            except Exception as exc:
                self._fail(f"run_eval call {call}", exc)
                raise StageFailure(self.name) from exc
            self.payloads.append(envelope["payload"])
            done += 1

    def primary_samples(self) -> dict:
        return {"call": self.call_s}

    def op_count(self) -> int:
        return len(self.call_s)

    def _checks(self):
        for call in _first_and_last(list(range(len(self.payloads)))):
            loop = run_eval(self.config(call, "loopback"), output_dir=self.out_dir, segments=self.segments)
            yield "tcp equals loopback", check_score(self.payloads[call], loop["payload"])
