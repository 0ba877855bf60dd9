"""CLI surface: subcommands, exit codes, overrides, interrupt behavior."""

import json
import shutil
import subprocess
import sys

import pytest

import fedsplit.cli as cli
from fedsplit import corpus, transport
from fedsplit.errors import ChannelClosedError, CheckFailure, FrameError, ProtocolError


def write_config(tmp_path, **over):
    raw = {
        "schema_version": 1,
        "seed": 5,
        "model": {
            "vocab_size": 16, "hidden_size": 16, "num_heads": 2,
            "num_blocks": 4, "mlp_hidden": 24, "max_context": 128,
        },
        "partition": {"front": 1, "middle": 2, "back": 1},
        "training": {"steps": 3, "lr": 0.05, "batch_size": 2},
        "corpus": {"task": "copy", "items": 8, "length": 3, "seed": 1},
    }
    raw.update(over)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    return path


def test_train_succeeds_and_writes_artifacts(tmp_path, capsys):
    cfg = write_config(tmp_path)
    rc = cli.main(["train", "-c", str(cfg), "--output-dir", str(tmp_path / "out")])
    assert rc == 0
    assert (tmp_path / "out" / "records.jsonl").exists()
    assert (tmp_path / "out" / "comm_stats.json").exists()
    assert "train:" in capsys.readouterr().out


def test_missing_config_exits_2(tmp_path):
    rc = cli.main(["train", "-c", str(tmp_path / "nope.json")])
    assert rc == 2


def test_invalid_config_exits_2(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"schema_version": 1}))
    assert cli.main(["train", "-c", str(path)]) == 2


def test_comm_scalar_width_config_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, comm={"scalar_width": 8})
    assert cli.main(["comm-report", "-c", str(cfg), "--output-dir", str(tmp_path / "c")]) == 2
    assert "scalar_width" in capsys.readouterr().err
    assert not (tmp_path / "c").exists()


def test_malformed_corpus_file_exits_2(tmp_path, capsys):
    corpus = tmp_path / "corpus.json"
    corpus.write_text("not json {")
    cfg = write_config(tmp_path, corpus={"path": str(corpus)})
    assert cli.main(["train", "-c", str(cfg), "--output-dir", str(tmp_path / "o")]) == 2
    assert "corpus file" in capsys.readouterr().err


@pytest.mark.parametrize("task", ["cloze", "lm"])
@pytest.mark.parametrize("answer, candidates", [
    ([9], [6, 7, 8]),      # answer not among the candidates
    ([], [6, 7, 8]),       # empty answer
    ([6, 7], [6, 7, 8]),   # multi-token answer
    ([6], [6, 6, 8]),      # duplicate candidates
])
def test_malformed_cloze_corpus_exits_2_before_any_exchange(tmp_path, capsys, monkeypatch,
                                                            answer, candidates, task):
    def no_stack(*args, **kwargs):
        raise AssertionError("a stack was opened for a malformed corpus")

    monkeypatch.setattr(cli.experiment, "InferenceStack", no_stack)
    items = [{"prompt": [1, 4, 5, 2], "answer": [6], "candidates": [6, 7, 8]},
             {"prompt": [1, 5, 4, 2], "answer": answer, "candidates": candidates}]
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps({"schema_version": 1, "task": task, "vocab_size": 16,
                                "seed": 0, "items": items}))
    cfg = write_config(tmp_path, corpus={"path": str(path)}, evaluation={"mode": "cloze"})
    assert cli.main(["eval", "-c", str(cfg), "--output-dir", str(tmp_path / "out")]) == 2
    assert "item 1" in capsys.readouterr().err


def test_check_loss_ratio_exit_codes(tmp_path):
    cfg = write_config(tmp_path)
    out = str(tmp_path / "out")
    assert cli.main(["train", "-c", str(cfg), "--output-dir", out,
                     "--check-loss-ratio", "1e9"]) == 0
    assert cli.main(["train", "-c", str(cfg), "--output-dir", out,
                     "--check-loss-ratio", "1e-9"]) == 4


def test_eval_check_score_exit_codes(tmp_path):
    cfg = write_config(tmp_path, evaluation={"mode": "generative", "max_items": 2})
    out = str(tmp_path / "out")
    assert cli.main(["eval", "-c", str(cfg), "--output-dir", out,
                     "--check-score=-1e9"]) == 0
    assert cli.main(["eval", "-c", str(cfg), "--output-dir", out,
                     "--check-score", "0.0"]) == 4


def test_attack_check_max_accuracy_exit_codes(tmp_path):
    cfg = write_config(
        tmp_path,
        corpus={"task": "lm", "items": 9, "length": 5, "seed": 2},
        training={"steps": 2, "lr": 0.05, "batch_size": 2},
        attack={"depth": 1},
    )
    out = str(tmp_path / "out")
    assert cli.main(["attack", "-c", str(cfg), "--output-dir", out,
                     "--check-max-accuracy", "1.0"]) == 0
    assert cli.main(["attack", "-c", str(cfg), "--output-dir", out,
                     "--check-max-accuracy=-0.1"]) == 4
    assert (tmp_path / "out" / "attack.json").exists()


def test_generate_prompt_override(tmp_path, capsys):
    cfg = write_config(tmp_path, generation={"prompt": [9], "max_new_tokens": 3})
    rc = cli.main(["generate", "-c", str(cfg), "--output-dir", str(tmp_path / "g"),
                   "--prompt", "1, 2 3"])
    assert rc == 0
    payload = json.loads((tmp_path / "g" / "generation.json").read_text())["payload"]
    assert payload["prompt"] == [1, 2, 3]
    assert "generate:" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["generate", "eval"])
def test_unreadable_adapters_file_exits_2(tmp_path, capsys, command):
    cfg = write_config(tmp_path, generation={"prompt": [1, 2], "max_new_tokens": 2},
                       evaluation={"mode": "generative", "max_items": 1})
    assert cli.main(["train", "-c", str(cfg), "--output-dir", str(tmp_path / "t")]) == 0
    blob = (tmp_path / "t" / "adapters.npz").read_bytes()
    truncated = tmp_path / "truncated.npz"
    truncated.write_bytes(blob[: len(blob) // 2])
    garbage = tmp_path / "garbage.npz"
    garbage.write_bytes(b"not an npz file at all")
    capsys.readouterr()
    for bad in (truncated, garbage):
        rc = cli.main([command, "-c", str(cfg), "--output-dir", str(tmp_path / "o"),
                       "--adapters", str(bad)])
        assert rc == 2
        assert "adapters file" in capsys.readouterr().err


def test_generate_rejects_non_integer_prompt(tmp_path):
    cfg = write_config(tmp_path)
    assert cli.main(["generate", "-c", str(cfg), "--output-dir", str(tmp_path / "g"),
                     "--prompt", "a b"]) == 2


def test_comm_report_and_grid_succeed(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        model={"vocab_size": 16, "hidden_size": 16, "num_heads": 2,
               "num_blocks": 6, "mlp_hidden": 24, "max_context": 128},
        partition={"front": 1, "middle": 4, "back": 1},
        grid={"steps": 1},
    )
    assert cli.main(["comm-report", "-c", str(cfg), "--output-dir", str(tmp_path / "c")]) == 0
    assert (tmp_path / "c" / "comm.json").exists()
    assert (tmp_path / "c" / "memory.json").exists()
    assert cli.main(["grid", "-c", str(cfg), "--output-dir", str(tmp_path / "g")]) == 0
    table = json.loads((tmp_path / "g" / "grid.json").read_text())["payload"]["table"]
    assert len(table) == 3
    out = capsys.readouterr().out
    assert "memory:" in out
    assert "grid:" in out


def test_env_output_dir_override(tmp_path, monkeypatch):
    cfg = write_config(tmp_path)
    monkeypatch.setenv("FEDSPLIT_OUTPUT_DIR", str(tmp_path / "env_out"))
    assert cli.main(["train", "-c", str(cfg)]) == 0
    assert (tmp_path / "env_out" / "records.jsonl").exists()


def test_env_endpoint_rejects_garbage(tmp_path, monkeypatch):
    cfg = write_config(tmp_path)
    monkeypatch.setenv("FEDSPLIT_ENDPOINT", "nonsense")
    assert cli.main(["train", "-c", str(cfg), "--output-dir", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("port", ["99999", "65536", "-1"])
def test_env_endpoint_rejects_out_of_range_port(tmp_path, monkeypatch, capsys, port):
    cfg = write_config(tmp_path, transport="tcp")
    monkeypatch.setenv("FEDSPLIT_ENDPOINT", f"127.0.0.1:{port}")
    before = transport.DEFAULT_ENDPOINT
    assert cli.main(["train", "-c", str(cfg), "--output-dir", str(tmp_path / "o")]) == 2
    assert "0-65535" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    assert transport.DEFAULT_ENDPOINT == before


@pytest.mark.parametrize("exc,code", [
    (ProtocolError("out of order"), 3),
    (ChannelClosedError("peer gone"), 3),
    (FrameError("bad magic", 0), 3),
    (CheckFailure("threshold"), 4),
])
def test_error_to_exit_code_mapping(tmp_path, monkeypatch, exc, code):
    cfg = write_config(tmp_path)

    def boom(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli.experiment, "run_experiment", boom)
    assert cli.main(["train", "-c", str(cfg), "--output-dir", str(tmp_path / "o")]) == code


def test_interrupt_exits_130_with_partial_records(tmp_path, monkeypatch):
    real_sampler = corpus.BatchSampler

    class InterruptingSampler(real_sampler):
        def batch_for(self, step):
            if step >= 2:
                raise KeyboardInterrupt
            return super().batch_for(step)

    monkeypatch.setattr(corpus, "BatchSampler", InterruptingSampler)
    cfg = write_config(tmp_path, training={"steps": 10, "lr": 0.05, "batch_size": 2})
    rc = cli.main(["train", "-c", str(cfg), "--output-dir", str(tmp_path / "o")])
    assert rc == 130
    lines = (tmp_path / "o" / "records.jsonl").read_text().splitlines()
    assert len(lines) == 2


def test_cli_runs_are_deterministic(tmp_path):
    cfg = write_config(tmp_path)
    assert cli.main(["train", "-c", str(cfg), "--output-dir", str(tmp_path / "a")]) == 0
    assert cli.main(["train", "-c", str(cfg), "--output-dir", str(tmp_path / "b")]) == 0
    names = ("records.jsonl", "comm_stats.json", "train_summary.json")
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_module_help_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "fedsplit.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "train" in proc.stdout


@pytest.mark.skipif(shutil.which("fedsplit") is None, reason="console script not on PATH")
def test_console_script_help_runs():
    proc = subprocess.run(["fedsplit", "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "comm-report" in proc.stdout
