#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny sizes.

    python3 perfbench/smoke.py

Runs every workload untraced and traced with minimal operation counts and
checks that each prints exactly the metrics ``BENCHMARK.json`` lists, with
their units; that every output check passes on real outputs and fails once
an output is corrupted on purpose; and that the benchmark refuses to run,
without printing a result, in a directory holding only the benchmark files.
Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import run  # sets the BLAS thread count before numpy loads

TINY = {
    "train": 2,
    "federate": {"sequential": 1, "client_batch": 1, "hierarchical": 1},
    "generate": 2,
    "score": 1,
}


def check_result(result: dict, spec: list) -> None:
    assert result["correct"], result["errors"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected, f"metrics differ from BENCHMARK.json: {set(got) ^ set(expected)}"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), (name, m)


def expect_caught(stage, owner, key, mutate) -> None:
    """Corrupt one output, rerun the stage's checks, expect a failure, restore."""
    indexable = isinstance(owner, (dict, list))
    old = owner[key] if indexable else getattr(owner, key)
    new = mutate(old)
    if indexable:
        owner[key] = new
    else:
        setattr(owner, key, new)
    try:
        stage.attempted = stage.failed = 0
        stage.checks.clear()
        stage.run_checks()
        assert stage.failed >= 1, f"{stage.name}: corrupted {key!r} passed its checks"
    finally:
        if indexable:
            owner[key] = old
        else:
            setattr(owner, key, old)


def corruption_checks() -> None:
    import numpy as np
    from stages import FederateStage, GenerateStage, ScoreStage, TrainStage

    def nudge(x):
        return float(np.nextafter(x, math.inf))

    def flip(token):
        return token ^ 1

    def tiny(stage, count):
        stage.run(count=count)
        stage.run_checks()
        assert stage.failed == 0, stage.checks
        return stage

    train = tiny(TrainStage(0), 2)
    expect_caught(train, train.episodes[0][1], 0, nudge)

    federate = tiny(FederateStage(0), TINY["federate"])
    expect_caught(federate, federate.first_losses[0], "client_batch", nudge)
    expect_caught(federate, federate.losses, -1, lambda _: math.nan)
    expect_caught(federate, federate.merge_log[0], "excluded_clients", lambda _: (1,))

    generate = tiny(GenerateStage(0), 2)
    expect_caught(generate, generate.sessions[0]["uncached"], 0, flip)
    expect_caught(generate, generate.sessions[1], "bytes_per_token", lambda b: b + 8)
    expect_caught(generate, generate.sessions[-1]["tokens"], -1, flip)

    score = tiny(ScoreStage(0, run.OUT_DIR / "smoke-score"), 1)
    expect_caught(score, score.payloads[0]["per_item"][0], "truth_prob", nudge)


def refuses_without_sources() -> None:
    """In a directory with only the benchmark's files, exit non-zero silently."""
    bare = run.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(run.HERE, bare / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "train", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0, "benchmark ran without fedsplit sources"
    assert not proc.stdout.strip(), f"benchmark printed a result without sources: {proc.stdout!r}"


def main() -> int:
    run._import_fedsplit()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    run.SECONDARY = TINY
    for workload in run.WORKLOADS:
        for trace in (False, True):
            result = run.measure(workload, seed=0, seconds=0.3, trace=trace)
            check_result(result, spec["per_layer" if trace else "end_to_end"])
            print(f"smoke: {workload} trace={int(trace)} ok ({result['attempted']} operations)")
    corruption_checks()
    print("smoke: every output check catches its corrupted output")
    refuses_without_sources()
    print("smoke: refuses to run without fedsplit sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
