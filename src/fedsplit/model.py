"""A LLaMA-style transformer that can be split into client and server segments.

Layout per block: pre-norm attention with rotary positions and a residual add,
then a pre-norm SiLU-gated MLP with a residual add. The full model is
embedding -> blocks -> final RMSNorm -> vocab head. A partition assigns the
first ``front`` blocks (plus the embedding) and the last ``back`` blocks (plus
the final norm and head) to the client, and the ``middle`` trunk to the
server.

All base weights are frozen; training touches only low-rank adapters on the
attention projections (and, for adversarial probes, fully-trainable clones
built with ``trainable_base=True``). Monolithic and partitioned builds consume
the same seeded parameter stream, so a partition is exactly a re-slicing of
the monolithic parameter set. Each segment owns its slice as one name ->
Tensor table; its blocks hold the table's Tensors, and every by-name access
(SGD steps, merges, checkpoints) reads the table.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import tensor as T
from .errors import CheckpointError, PartitionError, ProtocolError, ShapeError
from .tensor import Tensor

ATTN_TARGETS = ("query", "key", "value", "out")
LORA_SUFFIXES = ("lora_a", "lora_b")


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int = 256
    hidden_size: int = 64
    num_heads: int = 4
    num_blocks: int = 6
    mlp_hidden: int = 172
    max_context: int = 128
    rms_eps: float = 1e-5
    rope_base: float = 10000.0
    init_scale: float = 1.0

    def __post_init__(self):
        if self.vocab_size < 2:
            raise ShapeError("vocab_size must be at least 2")
        if self.num_blocks < 1:
            raise ShapeError("num_blocks must be positive")
        if self.hidden_size % self.num_heads != 0:
            raise ShapeError(
                f"hidden_size {self.hidden_size} not divisible by num_heads {self.num_heads}"
            )
        if (self.hidden_size // self.num_heads) % 2 != 0:
            raise ShapeError("head dim must be even for rotary embedding")
        if self.mlp_hidden < 1 or self.max_context < 1:
            raise ShapeError("mlp_hidden and max_context must be positive")
        if self.init_scale <= 0:
            raise ShapeError("init_scale must be positive")

    @property
    def head_dim(self) -> int:
        return self.hidden_size // self.num_heads


@dataclass(frozen=True)
class LoraConfig:
    rank: int = 8
    alpha: float = 16.0

    def __post_init__(self):
        if self.rank < 1:
            raise ShapeError("LoRA rank must be positive")
        if self.alpha <= 0:
            raise ShapeError("LoRA alpha must be positive")

    @property
    def scaling(self) -> float:
        return self.alpha / self.rank


@dataclass(frozen=True)
class PartitionSpec:
    """Block counts for the client input side, server trunk, client output side."""

    front: int
    middle: int
    back: int

    def __post_init__(self):
        if self.front < 1 or self.middle < 1 or self.back < 1:
            raise PartitionError(
                f"every partition segment needs at least one block, got "
                f"({self.front}, {self.middle}, {self.back})"
            )

    @property
    def total(self) -> int:
        return self.front + self.middle + self.back

    def validate_for(self, config: ModelConfig) -> None:
        if self.total != config.num_blocks:
            raise PartitionError(
                f"partition ({self.front}, {self.middle}, {self.back}) sums to "
                f"{self.total}, model has {config.num_blocks} blocks"
            )


# ---------------------------------------------------------------------------
# parameter initialization


def init_parameter_set(
    config: ModelConfig, lora: LoraConfig | None, seed: int
) -> dict[str, np.ndarray]:
    """Draw every named parameter from one seeded stream.

    Draw order is frozen (embedding, then per-block weights, then head, then
    adapters) so the same seed always yields the same named arrays no matter
    how the model is later partitioned.

    ``init_scale`` multiplies the embedding and the residual-writing
    projections (attention out, MLP down). Every block contribution then
    carries the same factor, so the whole residual stream scales by it while
    the normalization layers keep logits, losses, and generations untouched.
    What does change is the magnitude of hidden states on the wire relative
    to any additive privacy noise, which is exactly the knob privacy studies
    need.
    """
    rng = np.random.default_rng(seed)
    d = config.hidden_size
    m = config.mlp_hidden
    s = config.init_scale
    params: dict[str, np.ndarray] = {}
    params["embed.weight"] = s * rng.standard_normal((config.vocab_size, d))
    for i in range(config.num_blocks):
        prefix = f"blocks.{i}"
        params[f"{prefix}.attn_norm.weight"] = np.ones(d)
        for target in ATTN_TARGETS:
            scale = s if target == "out" else 1.0
            params[f"{prefix}.attn.{target}.weight"] = scale * rng.standard_normal((d, d)) / np.sqrt(d)
        params[f"{prefix}.mlp_norm.weight"] = np.ones(d)
        params[f"{prefix}.mlp.gate.weight"] = rng.standard_normal((m, d)) / np.sqrt(d)
        params[f"{prefix}.mlp.up.weight"] = rng.standard_normal((m, d)) / np.sqrt(d)
        params[f"{prefix}.mlp.down.weight"] = s * rng.standard_normal((d, m)) / np.sqrt(m)
    params["final_norm.weight"] = np.ones(d)
    params["head.weight"] = rng.standard_normal((config.vocab_size, d)) / np.sqrt(d)
    if lora is not None:
        for i in range(config.num_blocks):
            for target in ATTN_TARGETS:
                prefix = f"blocks.{i}.attn.{target}"
                params[f"{prefix}.lora_a"] = rng.standard_normal((lora.rank, d)) / np.sqrt(d)
                params[f"{prefix}.lora_b"] = np.zeros((d, lora.rank))
    return params


# ---------------------------------------------------------------------------
# layers


class AdaptedLinear:
    """Frozen dense projection with an optional trainable low-rank delta,
    read from the ``{prefix}.weight`` / ``.lora_a`` / ``.lora_b`` entries of
    a segment's parameter table."""

    def __init__(self, params: dict[str, Tensor], prefix: str, scaling: float):
        self.weight = params[f"{prefix}.weight"]
        self.lora_a = params.get(f"{prefix}.lora_a")
        self.lora_b = params.get(f"{prefix}.lora_b")
        self.scaling = scaling

    def __call__(self, x: Tensor) -> Tensor:
        if self.lora_a is None:
            return T.linear(x, self.weight)
        return T.adapted_linear(x, self.weight, self.lora_a, self.lora_b, self.scaling)


class Block:
    """One pre-norm transformer block over the ``prefix`` entries of a
    segment's parameter table."""

    def __init__(
        self,
        params: dict[str, Tensor],
        prefix: str,
        config: ModelConfig,
        lora: LoraConfig | None,
    ):
        scaling = 1.0 if lora is None else lora.scaling
        self.config = config
        self.attn_norm = params[f"{prefix}.attn_norm.weight"]
        self.query, self.key, self.value, self.out = (
            AdaptedLinear(params, f"{prefix}.attn.{target}", scaling) for target in ATTN_TARGETS
        )
        self.mlp_norm = params[f"{prefix}.mlp_norm.weight"]
        self.gate = params[f"{prefix}.mlp.gate.weight"]
        self.up = params[f"{prefix}.mlp.up.weight"]
        self.down = params[f"{prefix}.mlp.down.weight"]

    def forward(
        self,
        x: Tensor,
        positions: Sequence[int],
        allowed: np.ndarray,
        rope: tuple[np.ndarray, np.ndarray],
        cache=None,
    ) -> Tensor:
        """``allowed`` masks the cached history plus this pass's keys and
        ``rope`` holds the rotary tables at ``positions``; the segment builds
        both once per pass for all of its blocks."""
        cfg = self.config
        xn = T.rms_norm(x, self.attn_norm, cfg.rms_eps)
        q = T.split_heads(self.query(xn), cfg.num_heads)
        k = T.split_heads(self.key(xn), cfg.num_heads)
        v = T.split_heads(self.value(xn), cfg.num_heads)
        qr = T.apply_rope(q, positions, cfg.rope_base, tables=rope)
        kr = T.apply_rope(k, positions, cfg.rope_base, tables=rope)
        if cache is None:
            ctx = T.attend(qr, kr, v, allowed)
        else:
            k_full, v_full = cache.append(kr.data, v.data)
            ctx = T.attend(qr, Tensor(k_full), Tensor(v_full), allowed)
        h = T.add(x, self.out(T.merge_heads(ctx)))
        hn = T.rms_norm(h, self.mlp_norm, cfg.rms_eps)
        gated = T.mul(T.silu(T.linear(hn, self.gate)), T.linear(hn, self.up))
        return T.add(h, T.linear(gated, self.down))


# ---------------------------------------------------------------------------
# segments


class SegmentModel:
    """A contiguous run of blocks plus the role-specific ends.

    Roles: ``front`` owns the embedding, ``middle`` is blocks only, ``back``
    owns the final norm and vocab head, ``full`` is the unsplit model. Forward
    records the input leaf and output so a later ``backward`` can replay the
    segment's tape and hand the input gradient back to the transport layer.
    """

    def __init__(
        self,
        role: str,
        config: ModelConfig,
        lora: LoraConfig | None,
        params: dict[str, np.ndarray],
        block_offset: int,
        num_blocks: int,
        trainable_base: bool = False,
    ):
        if role not in ("front", "middle", "back", "full"):
            raise ShapeError(f"unknown segment role {role!r}")
        self.role = role
        self.config = config
        self.lora = lora
        self.block_offset = block_offset
        self.trainable_base = trainable_base
        leaves = ("weight",) if lora is None else ("weight", *LORA_SUFFIXES)
        names = ["embed.weight"] if role in ("front", "full") else []
        for i in range(block_offset, block_offset + num_blocks):
            names += [f"blocks.{i}.{n}.weight"
                      for n in ("attn_norm", "mlp_norm", "mlp.gate", "mlp.up", "mlp.down")]
            names += [f"blocks.{i}.attn.{t}.{leaf}" for t in ATTN_TARGETS for leaf in leaves]
        if role in ("back", "full"):
            names += ["final_norm.weight", "head.weight"]
        # the one place trainability is decided: adapters always, base
        # weights only with ``trainable_base``, the embedding never
        self._params = {
            name: Tensor(
                params[name],
                requires_grad=name.endswith(LORA_SUFFIXES)
                or (trainable_base and name != "embed.weight"),
            )
            for name in names
        }
        self.embed = self._params.get("embed.weight")
        self.final_norm = self._params.get("final_norm.weight")
        self.head = self._params.get("head.weight")
        self.blocks = [Block(self._params, f"blocks.{i}", config, lora)
                       for i in range(block_offset, block_offset + num_blocks)]
        self._pending: tuple[Tensor | None, Tensor] | None = None

    # -- forward / backward ------------------------------------------------

    def forward(
        self,
        inputs,
        pad_lens: Sequence[int] | int = 0,
        positions: Sequence[int] | None = None,
        cache=None,
    ) -> Tensor:
        """Run the segment. ``inputs`` is a token array for embedding-owning
        roles and a hidden-state array otherwise. Returns hidden states, or
        logits for roles owning the head."""
        if self.role in ("front", "full"):
            ids = np.asarray(inputs)
            if ids.ndim != 2:
                raise ShapeError(f"token input must be 2-D (batch, seq), got {ids.shape}")
            seq_len = ids.shape[1]
            x = T.embedding(self.embed, ids)
            leaf: Tensor | None = None
        else:
            arr = inputs.data if isinstance(inputs, Tensor) else np.asarray(inputs, dtype=np.float64)
            if arr.ndim != 3 or arr.shape[-1] != self.config.hidden_size:
                raise ShapeError(
                    f"hidden input must be (batch, seq, {self.config.hidden_size}), got {arr.shape}"
                )
            seq_len = arr.shape[1]
            leaf = Tensor(arr, requires_grad=T.grad_enabled())
            x = leaf
        if positions is None:
            positions = range(seq_len)
        positions = list(positions)
        if len(positions) != seq_len:
            raise ShapeError(f"got {len(positions)} positions for sequence length {seq_len}")

        entries = [None] * len(self.blocks) if cache is None else cache.entries_for(len(self.blocks))
        if self.blocks:
            past = 0 if cache is None else cache.length
            allowed = T.causal_mask(x.data.shape[0], past + seq_len, pad_lens, positions)
            rope = T.rope_angles(
                np.asarray(positions, dtype=np.int64), self.config.head_dim, self.config.rope_base
            )
            for block, entry in zip(self.blocks, entries):
                x = block.forward(x, positions, allowed, rope, entry)
        if self.role in ("back", "full"):
            x = T.rms_norm(x, self.final_norm, self.config.rms_eps)
            x = T.linear(x, self.head)
        if T.grad_enabled():
            if self._pending is not None:
                raise ProtocolError(
                    f"{self.role} segment ran forward twice without a backward"
                )
            self._pending = (leaf, x)
        return x

    def backward(self, upstream: np.ndarray) -> np.ndarray | None:
        """Seed the pending output with ``upstream`` and run this segment's
        tape. Returns the gradient at the segment's hidden input (None for
        embedding-owning roles, whose input is discrete). A segment with
        nothing trainable (a bare frozen embedding) has no tape to run."""
        if self._pending is None:
            raise ProtocolError(f"backward on {self.role} segment without a pending forward")
        leaf, out = self._pending
        if out.requires_grad:
            out.backward(np.asarray(upstream, dtype=np.float64))
        self._pending = None
        return None if leaf is None else leaf.grad

    def take_input_grad(self) -> np.ndarray:
        """After a loss backward already ran through this segment's output,
        collect the input-leaf gradient and clear the pending state."""
        if self._pending is None:
            raise ProtocolError(f"{self.role} segment has no pending forward")
        leaf, _ = self._pending
        if leaf is None or leaf.grad is None:
            raise ProtocolError("no gradient reached the segment input; run a loss backward first")
        self._pending = None
        return leaf.grad

    def discard_pending(self) -> None:
        self._pending = None

    # -- parameters ----------------------------------------------------------

    def named_parameters(self) -> dict[str, Tensor]:
        return dict(self._params)

    def trainable_parameters(self) -> dict[str, Tensor]:
        return {n: p for n, p in self._params.items() if p.requires_grad}

    def lora_parameters(self) -> dict[str, Tensor]:
        return {n: p for n, p in self._params.items() if n.endswith(LORA_SUFFIXES)}

    def collect_grads(self) -> dict[str, np.ndarray]:
        grads: dict[str, np.ndarray] = {}
        for name, p in self.trainable_parameters().items():
            if p.grad is not None:
                grads[name] = p.grad
                p.grad = None
        return grads

    def state_dict(self) -> dict[str, np.ndarray]:
        return {n: p.data.copy() for n, p in self._params.items()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Overwrite parameters in place from ``state``.

        Names the segment does not own are ignored, so a segment can load its
        slice of a monolithic checkpoint or of a merged parameter set.
        Missing names or shape mismatches fail.
        """
        for name, p in self._params.items():
            if name not in state:
                raise CheckpointError(f"checkpoint is missing parameter {name!r}")
            arr = np.asarray(state[name], dtype=np.float64)
            if arr.shape != p.data.shape:
                raise CheckpointError(
                    f"parameter {name!r} has shape {arr.shape}, expected {p.data.shape}"
                )
            p.data = arr.copy()

    def clone(self) -> "SegmentModel":
        """A deep copy sharing no arrays with this segment."""
        return SegmentModel(
            self.role,
            self.config,
            self.lora,
            self.state_dict(),
            self.block_offset,
            len(self.blocks),
            trainable_base=self.trainable_base,
        )


def grad_norm(grads: dict[str, np.ndarray]) -> float:
    """Global L2 norm over a gradient dict."""
    total = 0.0
    for g in grads.values():
        total += float(np.sum(g * g))
    return float(np.sqrt(total))


def apply_sgd_step(params: dict[str, Tensor], grads: dict[str, np.ndarray], lr: float) -> None:
    for name, g in grads.items():
        if name not in params:
            raise ShapeError(f"gradient for unknown parameter {name!r}")
        params[name].data = params[name].data - lr * g


# ---------------------------------------------------------------------------
# builders


def build_monolithic(
    config: ModelConfig, lora: LoraConfig | None = LoraConfig(), seed: int = 0
) -> SegmentModel:
    params = init_parameter_set(config, lora, seed)
    return SegmentModel("full", config, lora, params, 0, config.num_blocks)


def cut_segments(
    config: ModelConfig, lora: LoraConfig | None, seed: int, front: int, middle: int
) -> tuple[SegmentModel, SegmentModel, SegmentModel]:
    """Front, middle, back segments drawn from one seeded parameter stream:
    ``front`` blocks, then ``middle`` trunk blocks, then the rest."""
    params = init_parameter_set(config, lora, seed)
    cut = front + middle
    return (
        SegmentModel("front", config, lora, params, 0, front),
        SegmentModel("middle", config, lora, params, front, middle),
        SegmentModel("back", config, lora, params, cut, config.num_blocks - cut),
    )


def build_partitioned(
    config: ModelConfig,
    partition: PartitionSpec,
    lora: LoraConfig | None = LoraConfig(),
    seed: int = 0,
) -> tuple[SegmentModel, SegmentModel, SegmentModel]:
    """The three segments of ``partition``."""
    partition.validate_for(config)
    return cut_segments(config, lora, seed, partition.front, partition.middle)


def build_decoder_probe(
    config: ModelConfig, num_blocks: int, seed: int
) -> SegmentModel:
    """A fully-trainable hidden-state-to-token decoder used by attack studies.

    Mirrors a front segment of ``num_blocks`` blocks (possibly zero) followed
    by its own final norm and vocab head. All parameters train; no adapters.
    The probe always uses unit init scale: it is independently initialized,
    and a well-conditioned parameterization is the attacker's best play no
    matter how the victim scaled its residual stream.
    """
    probe_cfg = replace(config, num_blocks=max(num_blocks, 1), init_scale=1.0)
    params = init_parameter_set(probe_cfg, None, seed)
    return SegmentModel("back", probe_cfg, None, params, 0, num_blocks, trainable_base=True)


def fedavg_merge(
    models: Sequence[SegmentModel], weights: Sequence[float] | None = None
) -> SegmentModel:
    """Weighted average of the models' adapter parameters.

    Frozen base weights must be bitwise identical across the inputs; the
    result is a clone of the first input whose adapters are the weighted
    mean. A single input comes back as an identical copy.
    """
    if not models:
        raise ProtocolError("fedavg_merge needs at least one model")
    first = models[0]
    if weights is None:
        w = np.full(len(models), 1.0 / len(models))
    else:
        w = np.asarray([float(x) for x in weights])
        if w.shape != (len(models),):
            raise ProtocolError(f"got {w.shape[0]} weights for {len(models)} models")
        if np.any(w < 0) or w.sum() <= 0:
            raise ProtocolError("merge weights must be non-negative and sum to a positive value")
        w = w / w.sum()

    ref = first._params
    for other in models[1:]:
        if other.role != first.role or other.block_offset != first.block_offset:
            raise ProtocolError("cannot merge segments with different roles or block ranges")
        if other._params.keys() != ref.keys():
            raise ProtocolError("cannot merge segments with different parameter sets")
        for name, p in ref.items():
            frozen = not name.endswith(LORA_SUFFIXES)
            if frozen and not np.array_equal(other._params[name].data, p.data):
                raise ProtocolError(f"frozen base weight {name!r} diverged between models")

    merged = first.clone()
    for name, p in merged.lora_parameters().items():
        acc = np.zeros_like(p.data)
        for wi, mdl in zip(w, models):
            acc = acc + wi * mdl._params[name].data
        p.data = acc
    return merged
