"""The benchmark's tracer patches fedsplit by attribute name; it must find
every hook and put every original back."""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from fedsplit import corpus, experiment, inference, model, scoring, strategies  # noqa: F401
from fedsplit import tensor, training, transport, wire  # noqa: F401

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name: str):
    """Execute ``perfbench/<name>.py`` against the installed package."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fedsplit_attributes() -> dict:
    """Every module attribute of fedsplit, and every member of its classes."""
    snap = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not name.startswith("fedsplit"):
            continue
        for key, value in vars(mod).items():
            snap[(name, key)] = value
            if isinstance(value, type) and value.__module__ == name:
                for attr, member in vars(value).items():
                    snap[(name, key, attr)] = member
    return snap


def test_tracer_installs_every_hook_and_restores_every_original():
    tracer = load_perfbench("tracer").Tracer()
    before = fedsplit_attributes()
    tracer.install()
    try:
        during = fedsplit_attributes()
        patched = {key for key, value in before.items() if during.get(key) is not value}
        for hook in (
            ("fedsplit.inference", "GenerationSession", "prefill"),
            ("fedsplit.inference", "GenerationSession", "decode_step"),
            ("fedsplit.inference", "InferenceStack", "__init__"),
            ("fedsplit.scoring", "score_single_token"),
            ("fedsplit.experiment", "score_single_token"),
            ("fedsplit.experiment", "write_report"),
            ("fedsplit.training", "TrainingClient", "train_step"),
            ("fedsplit.training", "TrainingServer", "handle"),
            ("fedsplit.training", "TrainingServer", "batch_forward"),
            ("fedsplit.training", "TrainingServer", "batch_backward"),
            ("fedsplit.inference", "InferenceServer", "handle"),
            ("fedsplit.wire", "encode_message"),
            ("fedsplit.wire", "decode_message"),
            ("fedsplit.transport", "encode_message"),
            ("fedsplit.transport", "decode_message"),
        ):
            assert hook in patched, hook
    finally:
        tracer.uninstall()
    after = fedsplit_attributes()
    assert after.keys() == before.keys()
    moved = [key for key, value in before.items() if after[key] is not value]
    assert moved == [], f"tracer left patched attributes: {moved}"


def test_every_traced_tensor_op_is_still_in_the_package():
    """The tracer patches each ``TENSOR_OPS`` name by ``getattr``, so an op
    that blocks stopped calling must stay until the benchmark's list drops it."""
    for op in load_perfbench("tracer").TENSOR_OPS:
        assert callable(getattr(tensor, op, None)), op


def test_bench_stages_import_against_the_current_package():
    """The benchmark stages import fedsplit by name; a removed or renamed name
    must fail here rather than only when the benchmark runs."""
    stages = load_perfbench("stages")
    assert stages.connect_pair is training.connect_pair
    assert stages.ClientBatchServer is strategies.ClientBatchServer
    assert stages.build_hierarchical_session is strategies.build_hierarchical_session
    assert stages.build_partitioned is model.build_partitioned


def test_traced_inference_records_one_server_span_per_request():
    """The tracer names ``InferenceServer.handle`` spans from ``(server, msg)``,
    so a change to how a stack's serve thread calls ``handle`` must fail here
    and not only in a traced benchmark run."""
    cfg = model.ModelConfig(
        vocab_size=32, hidden_size=16, num_heads=2, num_blocks=3, mlp_hidden=24, max_context=16
    )
    front, middle, back = model.build_partitioned(cfg, model.PartitionSpec(1, 1, 1), seed=0)
    tracer = load_perfbench("tracer").Tracer()
    tracer.install()
    try:
        with inference.InferenceStack(front, None, back, transport="tcp",
                                      server=inference.InferenceServer(middle)) as stack:
            logits = stack.session.prefill([3, 1, 4])
            stack.session.decode_step(int(np.argmax(logits)))
    finally:
        tracer.uninstall()
    names = [rec[0] for _, spans in tracer.threads() for rec in spans]
    assert names.count("inference.server.prefill") == 1
    assert names.count("inference.server.decode") == 1
