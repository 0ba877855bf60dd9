"""Command-line front end for configured runs.

Every subcommand reads one JSON config file, honors the environment
overrides (``FEDSPLIT_OUTPUT_DIR`` for the artifact directory,
``FEDSPLIT_ENDPOINT`` as ``host:port`` for where TCP channel pairs bind),
writes its artifacts, and prints a one-line digest. Exit codes: 0 success,
2 configuration problem (an unreadable or mismatched ``--adapters`` file
included), 3 protocol or transport failure, 4 a requested
post-run check missed its threshold, 130 interrupted (partial records are
already flushed to disk by then).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import jsonschema

from . import experiment
from .errors import (
    ChannelClosedError,
    CheckFailure,
    CheckpointError,
    ConfigError,
    FedSplitError,
    FrameError,
    PartitionError,
    ProtocolError,
    ShapeError,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PROTOCOL = 3
EXIT_CHECK = 4
EXIT_INTERRUPT = 130


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedsplit",
        description="split-transformer federation: train, generate, score, and audit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", "-c", required=True, help="path to a JSON config file")
        p.add_argument("--output-dir", help="write artifacts here instead of the configured dir")
        return p

    train = add("train", "run federated training and stream step records")
    train.add_argument(
        "--check-loss-ratio", type=float, default=None,
        help="exit 4 unless final/initial round-mean loss <= this value",
    )
    gen = add("generate", "decode from the configured prompt")
    gen.add_argument("--prompt", help="token ids (comma or space separated), overrides the config")
    gen.add_argument("--adapters", help="npz parameter file saved by a previous train run")
    ev = add("eval", "score the corpus with the configured metric")
    ev.add_argument("--adapters", help="npz parameter file saved by a previous train run")
    ev.add_argument(
        "--check-score", type=float, default=None,
        help="exit 4 unless the evaluation score >= this value",
    )
    atk = add("attack", "train with a curious server and score its reconstruction")
    atk.add_argument(
        "--check-max-accuracy", type=float, default=None,
        help="exit 4 unless attack token accuracy <= this value",
    )
    add("comm-report", "byte accounting: mask compression and decode traffic scaling")
    add("grid", "sweep (front, back) partitions and tabulate final losses")
    return parser


def _parse_prompt(text: str) -> tuple[int, ...]:
    parts = text.replace(",", " ").split()
    if not parts:
        raise ConfigError("--prompt needs at least one token id")
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise ConfigError(f"--prompt must be integer token ids, got {text!r}") from None


def _dispatch(args: argparse.Namespace) -> None:
    cfg = experiment.load_config(args.config, env=os.environ)
    out = args.output_dir
    if args.command == "train":
        results = experiment.run_experiment(cfg, out)
        payload = results["train"]["payload"]
        print(
            f"train: {payload['strategy']} x{payload['num_clients']} clients, "
            f"{payload['steps']} steps, loss {payload['first_loss']:.4f} -> "
            f"{payload['final_loss']:.4f}"
        )
        if "generation" in results:
            print(f"generate: {results['generation']['payload']['tokens']}")
        if "eval" in results:
            ev = results["eval"]["payload"]
            print(f"eval: {ev['mode']} score {ev['score']:.4f} over {ev['num_items']} items")
        if args.check_loss_ratio is not None and not (
            payload["loss_ratio"] <= args.check_loss_ratio
        ):
            raise CheckFailure(
                f"loss ratio {payload['loss_ratio']:.4f} exceeds "
                f"--check-loss-ratio {args.check_loss_ratio}"
            )
    elif args.command == "generate":
        if args.prompt is not None:
            cfg.generation = replace(cfg.generation, prompt=_parse_prompt(args.prompt))
        report = experiment.run_generate(cfg, out, adapters=args.adapters)
        payload = report["payload"]
        print(f"generate: {payload['prompt']} -> {payload['tokens']}")
        if payload["error"]:
            print(f"generate: truncated by {payload['error']}", file=sys.stderr)
    elif args.command == "eval":
        report = experiment.run_eval(cfg, out, adapters=args.adapters)
        payload = report["payload"]
        print(
            f"eval: {payload['mode']} score {payload['score']:.4f} "
            f"({payload['score_x100']:.2f} x100) over {payload['num_items']} items"
        )
        if args.check_score is not None and not (payload["score"] >= args.check_score):
            raise CheckFailure(
                f"score {payload['score']:.4f} is below --check-score {args.check_score}"
            )
    elif args.command == "attack":
        report = experiment.run_attack_experiment(cfg, out)
        payload = report["payload"]
        print(
            f"attack: depth {payload['depth']} noise {payload['noise_scale']} -> "
            f"accuracy {payload['token_accuracy']:.4f}, bleu4 {payload['bleu4']:.4f}, "
            f"rouge2 {payload['rouge2_f1']:.4f}"
        )
        if args.check_max_accuracy is not None and not (
            payload["token_accuracy"] <= args.check_max_accuracy
        ):
            raise CheckFailure(
                f"attack accuracy {payload['token_accuracy']:.4f} exceeds "
                f"--check-max-accuracy {args.check_max_accuracy}"
            )
    elif args.command == "comm-report":
        report = experiment.comm_report(cfg, out)
        memory = experiment.memory_report(cfg, out)
        mask = report["payload"]["mask"]
        decode = report["payload"]["decode"]
        print(
            f"comm: mask {mask['dense_bytes']} B dense vs {mask['meta_bytes']} B meta "
            f"(x{mask['ratio']:.0f}); decode cached ratio {decode['cached_ratio']:.3f}, "
            f"uncached ratio {decode['uncached_ratio']:.3f}"
        )
        frac = memory["payload"]["client_fraction_x100"]
        print(f"memory: client holds {frac:.1f}% of parameters")
    elif args.command == "grid":
        report = experiment.partition_grid(cfg, out)
        payload = report["payload"]
        print(f"grid: fronts {payload['fronts']} x backs {payload['backs']}")
        for p, row in zip(payload["fronts"], payload["table"]):
            cells = ["   skip" if v is None else f"{v:7.4f}" for v in row]
            print(f"  front {p}: " + "  ".join(cells))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _dispatch(args)
    except KeyboardInterrupt:
        print("interrupted; records written so far are flushed", file=sys.stderr)
        return EXIT_INTERRUPT
    except CheckFailure as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK
    except (
        CheckpointError, ConfigError, ShapeError, PartitionError, jsonschema.ValidationError,
        OSError,
    ) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ProtocolError, ChannelClosedError, FrameError) as exc:
        print(f"protocol error: {exc}", file=sys.stderr)
        return EXIT_PROTOCOL
    except FedSplitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PROTOCOL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
