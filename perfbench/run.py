#!/usr/bin/env python3
"""fedsplit benchmark: four workloads over the split training and serving stack.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload train --seed 1 --seconds 20 --trace 0

Every run executes the pipeline a fedsplit user runs, as four stages driven
closed loop from one thread: ``train`` (split training of one client),
``federate`` (two clients under each multi-client strategy), ``generate``
(KV-cached collaborative decoding) and ``score`` (cloze evaluation through
``experiment.run_eval``). The workload names the stage that fills the run's
time; the other three run a fixed small count, so every end-to-end metric is
measured on every workload and a change that slows another stage still
shows. The run is cut into four segments, each running all four stages, so
every stage samples the whole run. Outputs are checked after the timed
region.

Timings are ``perf_counter`` wall time around each operation, the latency a
user sees, blocking and thread handoffs included. On a shared virtual machine
the host runs other guests on this one's CPUs in bursts, which spread wall
time medians by up to 43% across runs on a 2-vCPU test VM. The guest kernel
counts that time as steal; ``stages.Stopwatch`` reads the steal counter in
/proc/stat around each operation and takes this process's part of it out of
the sample. The counter ticks in 10 ms steps, so steal inside operations of
a few milliseconds is only partly removed; decode steps are therefore timed
in groups of six (``stages.TPOT_GROUP``). The run's steal share and the
steal taken out per stage are in the record line.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` first times the
workload's stage untraced, then installs timing wrappers around fedsplit's
public functions (``tracer.py``), runs every stage again traced, and prints
the per-layer metrics. Spans go to ``.bench_out/`` when the run ends. The
wrappers live here, outside the package; spans recorded inside fedsplit
itself (a ``fedsplit/trace.py``) are left to a later change.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The line before it
holds the machine record and per-stage operation counts.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"

# Fixed before numpy loads. One BLAS thread keeps the trunk-server and client
# threads from oversubscribing a small machine and keeps timings steady.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

WORKLOADS = ("train", "federate", "generate", "score")
SETUP_REPEATS = 9
SEGMENTS = 4  # rounds of all four stages in an untraced run
UNTRACED_SHARE = 0.3  # share of --seconds for the untraced pass of a traced run

# Operation counts of the stages that are not the workload's own; generate
# counts decode sessions, each followed by PREFILL_ONLY prefill-only ones.
# Enough samples for every tail to be the 90th percentile: 100 rounds,
# 128 first tokens and 128 TPOT samples; 32 sessions are two whole blocks of
# the prompt-length grid.
SECONDARY = {
    "train": 100,
    "federate": {"sequential": 8, "client_batch": 8, "hierarchical": 4},
    "generate": 32,
    "score": 8,
}


def _import_fedsplit():
    """Import fedsplit from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "fedsplit" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no fedsplit sources at {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import fedsplit

    if not Path(fedsplit.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"perfbench: fedsplit resolved to {fedsplit.__file__}, not {src}")


def _git_commit():
    """HEAD of this checkout's own repository; None outside a git clone."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                              env={**os.environ, "GIT_DIR": str(ROOT / ".git")}, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _steal_share(before, after) -> float:
    """Share of the guest's CPU demand the host stole between two readings."""
    busy, steal = (a - b for a, b in zip(after, before))
    return steal / (busy + steal) if busy + steal else 0.0


def machine_record(load_before, ticks_before) -> dict:
    import platform

    import numpy as np
    from stages import cpu_ticks

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_set": BLAS_THREADS,
        "loadavg_before": list(load_before),
        "loadavg_after": list(os.getloadavg()),
        "steal_share": _steal_share(ticks_before, cpu_ticks()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": _git_commit(),
    }


def _make_stages(seed: int) -> dict:
    from stages import FederateStage, GenerateStage, ScoreStage, TrainStage

    return {
        "train": TrainStage(seed),
        "federate": FederateStage(seed),
        "generate": GenerateStage(seed),
        "score": ScoreStage(seed, OUT_DIR / f"score-{seed}"),
    }


def time_setup(stages: dict) -> float:
    """Seconds to build every stage: corpus, parameters, channel connect and
    server threads. Federate strategies are built one at a time, as the
    stage runs them, so no more than two connections are open at once."""
    from stages import STRATEGIES, Stopwatch

    elapsed = 0.0
    watch = Stopwatch()
    trainer, _ = stages["train"].setup()
    elapsed += watch.stop()[0]
    trainer.shutdown()
    for strategy in STRATEGIES:
        watch = Stopwatch()
        trainer, _ = stages["federate"].setup_strategy(strategy)
        elapsed += watch.stop()[0]
        trainer.shutdown()
    watch = Stopwatch()
    stages["generate"].setup()
    stages["score"].setup()
    return elapsed + watch.stop()[0]


def _share(count, segment: int, segments: int):
    """This segment's part of an operation count (an int or a per-key dict)."""
    if isinstance(count, dict):
        return {k: _share(v, segment, segments) for k, v in count.items()}
    return count // segments + (1 if segment < count % segments else 0)


def _run_stages(stages: dict, workload: str, tracer=None, seconds=None, primary_count=None,
                segments: int = 1) -> None:
    """The other stages at their fixed counts, then the workload's own stage.

    The run is cut into ``segments`` rounds of all four stages, so each
    stage's samples spread over the whole run and drifts in machine speed
    reach every stage alike. The workload's stage runs either for its share
    of ``seconds`` or for ``primary_count`` operations.
    """
    start = perf_counter()
    for segment in range(segments):
        for name in WORKLOADS:
            if name == workload:
                continue
            if tracer is not None:
                tracer.stage = name
            stages[name].run(tracer, count=_share(SECONDARY[name], segment, segments))
        if tracer is not None:
            tracer.stage = workload
        if seconds is None:
            stages[workload].run(tracer, count=primary_count)
        else:
            segment_end = start + seconds * (segment + 1) / segments
            budget = max(segment_end - perf_counter(), seconds / (2 * segments))
            stages[workload].run(tracer, budget=budget)


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result record (metrics and counts)."""
    import metrics
    from stages import StageFailure
    from tracer import Tracer

    from stages import cpu_ticks

    load_before, ticks_before = os.getloadavg(), cpu_ticks()
    OUT_DIR.mkdir(exist_ok=True)
    stages = _make_stages(seed)
    extra_attempted = extra_failed = 0
    result = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace)}
    values: dict = {}
    errors: list[str] = []
    try:
        if not trace:
            setup_runs = [time_setup(stages) for _ in range(SETUP_REPEATS)]
            _run_stages(stages, workload, seconds=seconds, segments=SEGMENTS)
            for stage in stages.values():
                stage.run_checks()
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            values, result["details"] = metrics.end_to_end(
                setup_runs, rss_mb, stages["train"], stages["federate"], stages["generate"], stages["score"]
            )
        else:
            baseline = _make_stages(seed)[workload]
            try:
                baseline.run(budget=UNTRACED_SHARE * seconds)
            finally:
                extra_attempted, extra_failed = baseline.attempted, baseline.failed
                errors.extend(baseline.errors)
            tracer = Tracer()
            tracer.install()
            try:
                _run_stages(stages, workload, tracer, primary_count=baseline.op_count())
                tracer.stage = "check"
                for stage in stages.values():
                    stage.run_checks()
            finally:
                tracer.uninstall()
            table = tracer.aggregate()
            primary = stages[workload]
            cover = metrics.coverage(primary.windows, tracer.top_level_main())
            overhead = metrics.overhead_pct(baseline.primary_samples(), primary.primary_samples())
            values = metrics.per_layer(
                table, stages["train"], stages["federate"], stages["generate"], stages["score"],
                cover, overhead,
            )
            result["spans_written"] = tracer.write(OUT_DIR / f"trace-{workload}-seed{seed}.tsv.gz")
    except StageFailure:
        pass
    attempted = extra_attempted + sum(s.attempted for s in stages.values())
    failed = extra_failed + sum(s.failed for s in stages.values())
    for stage in stages.values():
        errors.extend(stage.errors)
        errors.extend(stage.checks)
    units = metrics.PER_LAYER if trace else metrics.END_TO_END
    complete = set(values) == set(units)
    result.update({
        "machine": machine_record(load_before, ticks_before),
        "stages": {
            name: {"attempted": s.attempted, "succeeded": s.attempted - s.failed, "failed": s.failed}
            for name, s in stages.items()
        },
        "errors": errors,
        "correct": failed == 0 and not errors and complete,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()
                    if name in values},
    })
    return result


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    _import_fedsplit()
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT_DIR.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    summary = ("correct", "attempted", "failed", "metrics")
    print(json.dumps({k: v for k, v in result.items() if k not in summary}, sort_keys=True))
    print(json.dumps({k: result[k] for k in summary}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
