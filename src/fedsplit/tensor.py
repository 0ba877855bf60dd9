"""Minimal reverse-mode autodiff over float64 numpy arrays.

Each operator builds the output value eagerly and records a backward function
on the output tensor. Calling ``Tensor.backward`` walks reachable nodes in
reverse creation order (a valid reverse topological order, since an operator's
output is always created after its inputs) and accumulates gradients into
``Tensor.grad``. The traversal order is a pure function of the forward call
sequence, so two runs that execute the same operators in the same order
produce bitwise-identical gradients. That determinism is load-bearing: it is
what lets a model split across processes reproduce a monolithic run exactly.

A backward function returns a gradient only for the parents that have
``requires_grad`` and ``None`` for the rest, so frozen weights (every base
projection under LoRA) and inputs that need no gradient (the output of a frozen
embedding) cost no backward work. Every gradient that is computed uses the same
arithmetic either way, so skipping one never changes another's bits.

Grad mode is per thread: ``no_grad()`` in one thread leaves tape recording on
in every other thread.

Only the operators needed by the model family live here: dense matmul/linear,
RMSNorm, SiLU, rotary-embedded masked attention, embedding lookup, and a fused
softmax cross-entropy loss. All backwards are hand-derived; finite-difference
tests pin them independently.
"""

from __future__ import annotations

import itertools
import math
import threading
from contextlib import contextmanager
from typing import Callable, Sequence

import numpy as np

from .errors import DegenerateBatchError, GradError, ShapeError


class _GradMode(threading.local):
    enabled = True


_grad_mode = _GradMode()
_creation_counter = itertools.count()


@contextmanager
def no_grad():
    """Disable tape recording inside the block, in this thread only (inference fast path)."""
    prev = _grad_mode.enabled
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = prev


def grad_enabled() -> bool:
    return _grad_mode.enabled


class Tensor:
    """A float64 ndarray plus an optional backward record."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn", "_id")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn: Callable[[np.ndarray], tuple] | None = None
        self._id = next(_creation_counter)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Accumulate gradients of ``self`` into every reachable tensor.

        ``grad`` seeds the output gradient; it defaults to 1.0 for scalars and
        must match ``self.data``'s shape otherwise. The tape is consumed: a
        second backward through the same nodes raises ``GradError``.
        """
        if not self.requires_grad:
            raise GradError("backward on a tensor without gradient tracking")
        if grad is None:
            if self.data.ndim != 0:
                raise GradError("non-scalar backward requires an explicit seed gradient")
            seed = np.float64(1.0)
        else:
            seed = np.asarray(grad, dtype=np.float64)
            if seed.shape != self.data.shape:
                raise GradError(
                    f"seed gradient shape {seed.shape} does not match tensor shape {self.data.shape}"
                )

        nodes = _reachable(self)
        self.grad = seed if self.grad is None else self.grad + seed
        for node in sorted(nodes, key=lambda t: t._id, reverse=True):
            fn = node._backward_fn
            if fn is None:
                continue
            if node.grad is None:
                continue
            parent_grads = fn(node.grad)
            for parent, pgrad in zip(node._parents, parent_grads):
                if pgrad is None or not parent.requires_grad:
                    continue
                if parent.grad is None:
                    parent.grad = pgrad
                else:
                    parent.grad = parent.grad + pgrad
            # consume the tape so stale second passes fail loudly
            node._backward_fn = None
            node._parents = ()


def _reachable(root: Tensor) -> list[Tensor]:
    seen: set[int] = set()
    out: list[Tensor] = []
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        out.append(node)
        stack.extend(node._parents)
    return out


def tensor(data, requires_grad: bool = False) -> Tensor:
    return Tensor(data, requires_grad=requires_grad)


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data: np.ndarray, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    out = Tensor(data)
    if _grad_mode.enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward_fn = backward_fn
    return out


# ---------------------------------------------------------------------------
# elementwise and dense ops


def add(a: Tensor, b: Tensor) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    if a.data.shape != b.data.shape:
        raise ShapeError(f"add requires equal shapes, got {a.data.shape} and {b.data.shape}")

    def backward(g):
        return g, g

    return _make(a.data + b.data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    if a.data.shape != b.data.shape:
        raise ShapeError(f"mul requires equal shapes, got {a.data.shape} and {b.data.shape}")

    def backward(g):
        ga = g * b.data if a.requires_grad else None
        gb = g * a.data if b.requires_grad else None
        return ga, gb

    return _make(a.data * b.data, (a, b), backward)


def scale(x: Tensor, factor: float) -> Tensor:
    x = _wrap(x)
    c = float(factor)

    def backward(g):
        return (g * c,)

    return _make(x.data * c, (x,), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """2-D matrix product (m, k) @ (k, n) -> (m, n)."""
    a, b = _wrap(a), _wrap(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(
            f"matmul takes 2-D operands, got {a.data.ndim}-D and {b.data.ndim}-D"
        )
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(
            f"matmul inner dimensions differ: {a.data.shape} @ {b.data.shape}"
        )

    def backward(g):
        ga = g @ b.data.T if a.requires_grad else None
        gb = a.data.T @ g if b.requires_grad else None
        return ga, gb

    return _make(a.data @ b.data, (a, b), backward)


def linear(x: Tensor, w: Tensor) -> Tensor:
    """Dense projection ``x @ w.T`` with weight laid out (out_dim, in_dim).

    ``x`` may carry any leading batch dimensions; the contraction is over the
    last axis only.
    """
    x, w = _wrap(x), _wrap(w)
    if w.data.ndim != 2:
        raise ShapeError(f"linear weight must be 2-D, got {w.data.shape}")
    if x.data.shape[-1] != w.data.shape[1]:
        raise ShapeError(
            f"linear input dim {x.data.shape[-1]} does not match weight in_dim {w.data.shape[1]}"
        )

    def backward(g):
        gx = g @ w.data if x.requires_grad else None
        gw = None
        if w.requires_grad:
            g2 = g.reshape(-1, w.data.shape[0])
            x2 = x.data.reshape(-1, w.data.shape[1])
            gw = g2.T @ x2
        return gx, gw

    return _make(x.data @ w.data.T, (x, w), backward)


def silu(x: Tensor) -> Tensor:
    """x * sigmoid(x), computed stably for large |x|."""
    x = _wrap(x)
    sig = _sigmoid(x.data)
    out = x.data * sig

    def backward(g):
        return (g * (sig * (1.0 + x.data * (1.0 - sig))),)

    return _make(out, (x,), backward)


def _sigmoid(v: np.ndarray) -> np.ndarray:
    # exp of a non-positive argument never overflows; for v >= 0 this is
    # 1 / (1 + exp(-v)) and for v < 0 it is exp(v) / (1 + exp(v)), bit for bit
    e = np.exp(-np.abs(v))
    return np.where(v >= 0, 1.0, e) / (1.0 + e)


def rms_norm(x: Tensor, weight: Tensor, eps: float = 1e-5) -> Tensor:
    """Root-mean-square normalization over the last axis with a learned gain.

    y_i = w_i * x_i / sqrt(mean_j x_j^2 + eps)
    """
    x, weight = _wrap(x), _wrap(weight)
    dim = x.data.shape[-1]
    if weight.data.shape != (dim,):
        raise ShapeError(
            f"rms_norm weight shape {weight.data.shape} does not match feature dim {dim}"
        )
    # the sum and the division np.mean does, without its wrapper
    ms = np.add.reduce(x.data * x.data, axis=-1, keepdims=True) / dim
    r = np.sqrt(ms + eps)
    normed = x.data / r
    out = normed * weight.data

    def backward(g):
        gx = gw = None
        if weight.requires_grad:
            gw = (g * normed).reshape(-1, dim).sum(axis=0)
        if x.requires_grad:
            gwx = g * weight.data
            dot = np.sum(gwx * x.data, axis=-1, keepdims=True)
            gx = gwx / r - x.data * (dot / (dim * r * r * r))
        return gx, gw

    return _make(out, (x, weight), backward)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup ``table[ids]`` for integer id arrays of any shape."""
    table = _wrap(table)
    idx = np.asarray(ids)
    if not np.issubdtype(idx.dtype, np.integer):
        raise ShapeError("embedding ids must be integers")
    vocab = table.data.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= vocab):
        raise ShapeError(f"embedding id out of range for vocab {vocab}")
    out = table.data[idx]

    def backward(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, idx.reshape(-1), g.reshape(-1, table.data.shape[1]))
        return (gt,)

    return _make(out, (table,), backward)


def split_heads(x: Tensor, num_heads: int) -> Tensor:
    """(batch, seq, dim) -> (batch, heads, seq, dim // heads)."""
    x = _wrap(x)
    b, s, d = x.data.shape
    if d % num_heads != 0:
        raise ShapeError(f"hidden dim {d} not divisible by {num_heads} heads")
    hd = d // num_heads
    out = x.data.reshape(b, s, num_heads, hd).transpose(0, 2, 1, 3)

    def backward(g):
        return (g.transpose(0, 2, 1, 3).reshape(b, s, d),)

    return _make(out, (x,), backward)


def merge_heads(x: Tensor) -> Tensor:
    """(batch, heads, seq, head_dim) -> (batch, seq, heads * head_dim)."""
    x = _wrap(x)
    b, h, s, hd = x.data.shape
    out = x.data.transpose(0, 2, 1, 3).reshape(b, s, h * hd)

    def backward(g):
        return (g.reshape(b, s, h, hd).transpose(0, 2, 1, 3),)

    return _make(out, (x,), backward)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    x = _wrap(x)
    orig = x.data.shape
    try:
        out = x.data.reshape(shape)
    except ValueError as exc:
        raise ShapeError(f"cannot reshape {orig} to {shape}") from exc

    def backward(g):
        return (g.reshape(orig),)

    return _make(out, (x,), backward)


# ---------------------------------------------------------------------------
# rotary position embedding


def rope_angles(positions: np.ndarray, head_dim: int, base: float) -> tuple[np.ndarray, np.ndarray]:
    """cos/sin tables of shape (len(positions), head_dim // 2)."""
    if head_dim % 2 != 0:
        raise ShapeError(f"rotary embedding needs an even head dim, got {head_dim}")
    pos = np.asarray(positions, dtype=np.float64)
    inv_freq = base ** (-np.arange(0, head_dim // 2, dtype=np.float64) * 2.0 / head_dim)
    angles = pos[:, None] * inv_freq[None, :]
    return np.cos(angles), np.sin(angles)


def apply_rope(
    x: Tensor,
    positions: Sequence[int],
    base: float = 10000.0,
    tables: tuple[np.ndarray, np.ndarray] | None = None,
) -> Tensor:
    """Rotate (batch, heads, seq, head_dim) features by per-position angles.

    Uses the rotate-half layout: the feature vector is split into two halves
    that form (x1, x2) rotation pairs per frequency. ``tables`` takes the
    ``rope_angles(positions, head_dim, base)`` result when the caller already
    has it (``positions`` and ``base`` are then not read), so several
    rotations at the same positions compute the angles once.
    """
    x = _wrap(x)
    if x.data.ndim != 4:
        raise ShapeError(f"apply_rope expects 4-D input, got shape {x.data.shape}")
    b, h, s, hd = x.data.shape
    if tables is None:
        pos = np.asarray(positions, dtype=np.int64)
        if pos.shape != (s,):
            raise ShapeError(f"positions length {pos.shape} does not match sequence length {s}")
        tables = rope_angles(pos, hd, base)
    elif any(t.shape != (s, hd // 2) for t in tables):
        raise ShapeError(f"rotary tables do not match (seq, head_dim // 2)=({s}, {hd // 2})")
    cos, sin = tables
    cos = cos[None, None, :, :]
    sin = sin[None, None, :, :]
    half = hd // 2
    x1 = x.data[..., :half]
    x2 = x.data[..., half:]
    out = np.concatenate([x1 * cos - x2 * sin, x2 * cos + x1 * sin], axis=-1)

    def backward(g):
        g1 = g[..., :half]
        g2 = g[..., half:]
        # transpose of a rotation is its inverse rotation
        gx = np.concatenate([g1 * cos + g2 * sin, g2 * cos - g1 * sin], axis=-1)
        return (gx,)

    return _make(out, (x,), backward)


# ---------------------------------------------------------------------------
# masked attention


def masked_softmax(scores: np.ndarray, allowed: np.ndarray) -> np.ndarray:
    """Softmax over the last axis restricted to ``allowed`` entries.

    Rows with no allowed entry come back as all-zero rather than NaN; callers
    only produce such rows for padding positions whose outputs are discarded.
    """
    if allowed.all():
        # with every key visible the general path's masking is a no-op, so
        # for finite row maxima this is the same arithmetic, bit for bit
        m = np.max(scores, axis=-1, keepdims=True)
        if np.isfinite(m).all():
            e = np.exp(scores - m)
            return e / np.sum(e, axis=-1, keepdims=True)
    neg = ~allowed
    masked = np.where(neg, -np.inf, scores)
    m = np.max(masked, axis=-1, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    e = np.exp(masked - m)
    e = np.where(neg, 0.0, e)
    z = np.sum(e, axis=-1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        probs = np.where(z > 0.0, e / z, 0.0)
    return probs


def attend(q: Tensor, k: Tensor, v: Tensor, allowed: np.ndarray) -> Tensor:
    """Scaled dot-product attention over pre-rotated q/k.

    q: (b, h, sq, hd); k, v: (b, h, sk, hd); allowed: bool (b, sq, sk) marking
    which key positions each query may read.
    """
    q, k, v = _wrap(q), _wrap(k), _wrap(v)
    if q.data.ndim != 4 or k.data.ndim != 4 or v.data.ndim != 4:
        raise ShapeError("attend expects 4-D q, k, v")
    b, h, sq, hd = q.data.shape
    bk, hk, sk, hdk = k.data.shape
    if (bk, hk, hdk) != (b, h, hd) or v.data.shape != k.data.shape:
        raise ShapeError(
            f"attend got incompatible shapes q={q.data.shape} k={k.data.shape} v={v.data.shape}"
        )
    mask = np.asarray(allowed, dtype=bool)
    if mask.shape != (b, sq, sk):
        raise ShapeError(
            f"allowed mask shape {mask.shape} does not match (batch, sq, sk)=({b}, {sq}, {sk})"
        )
    inv_scale = 1.0 / math.sqrt(hd)
    scores = np.matmul(q.data, k.data.swapaxes(-1, -2)) * inv_scale
    probs = masked_softmax(scores, mask[:, None, :, :])
    out = np.matmul(probs, v.data)

    def backward(g):
        gq = gk = gv = None
        if v.requires_grad:
            gv = np.matmul(probs.swapaxes(-1, -2), g)
        if q.requires_grad or k.requires_grad:
            gp = np.matmul(g, v.data.swapaxes(-1, -2))
            inner = np.sum(gp * probs, axis=-1, keepdims=True)
            gs = probs * (gp - inner)
            if q.requires_grad:
                gq = np.matmul(gs, k.data) * inv_scale
            if k.requires_grad:
                gk = np.matmul(gs.swapaxes(-1, -2), q.data) * inv_scale
        return gq, gk, gv

    return _make(out, (q, k, v), backward)


def causal_mask(batch: int, seq_len: int, pad_lens: Sequence[int] | int = 0) -> np.ndarray:
    """Boolean (batch, seq, seq) mask: query i may read key j iff pad <= j <= i."""
    if isinstance(pad_lens, (int, np.integer)):
        pads = [int(pad_lens)] * batch
    else:
        pads = [int(p) for p in pad_lens]
        if len(pads) != batch:
            raise ShapeError(f"got {len(pads)} pad lengths for batch {batch}")
    j = np.arange(seq_len)
    tri = j[None, :] <= j[:, None]
    out = np.empty((batch, seq_len, seq_len), dtype=bool)
    for bi, pad in enumerate(pads):
        if not 0 <= pad < seq_len:
            raise ShapeError(f"pad length {pad} out of range for seq_len {seq_len}")
        out[bi] = tri & (j[None, :] >= pad)
    return out


def causal_attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    positions: Sequence[int],
    pad_lens: Sequence[int] | int = 0,
    base: float = 10000.0,
) -> Tensor:
    """Rotary-embedded causal attention for equal-length q/k/v.

    Applies RoPE at the given absolute positions to q and k, then masks each
    query to keys at or before it, excluding left-padding columns.
    """
    q, k, v = _wrap(q), _wrap(k), _wrap(v)
    if q.data.shape != k.data.shape or q.data.shape != v.data.shape:
        raise ShapeError(
            f"causal_attention requires matching shapes, got {q.data.shape}, {k.data.shape}, {v.data.shape}"
        )
    b, h, s, hd = q.data.shape
    allowed = causal_mask(b, s, pad_lens)
    qr = apply_rope(q, positions, base)
    kr = apply_rope(k, positions, base)
    return attend(qr, kr, v, allowed)


# ---------------------------------------------------------------------------
# loss


def softmax_cross_entropy(
    logits: Tensor, targets: np.ndarray, ignore_index: int = -1
) -> tuple[Tensor, np.ndarray]:
    """Mean negative log-likelihood over rows whose target is not ignored.

    logits: (rows, vocab); targets: (rows,) int. Returns the scalar loss
    tensor and the eager logits gradient (softmax - onehot) / count, which is
    also what backward propagates.
    """
    logits = _wrap(logits)
    if logits.data.ndim != 2:
        raise ShapeError(f"softmax_cross_entropy expects 2-D logits, got {logits.data.shape}")
    tgt = np.asarray(targets)
    if not np.issubdtype(tgt.dtype, np.integer):
        raise ShapeError("targets must be integers")
    rows, vocab = logits.data.shape
    if tgt.shape != (rows,):
        raise ShapeError(f"targets shape {tgt.shape} does not match logits rows {rows}")
    live = tgt != ignore_index
    count = int(live.sum())
    if count == 0:
        raise DegenerateBatchError("all positions ignored; nothing to supervise")
    if tgt[live].min() < 0 or tgt[live].max() >= vocab:
        raise ShapeError(f"target id out of range for vocab {vocab}")

    m = logits.data.max(axis=1, keepdims=True)
    shifted = logits.data - m
    e = np.exp(shifted)
    z = e.sum(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(z[:, 0])
    live_idx = np.nonzero(live)[0]
    nll = lse[live_idx] - logits.data[live_idx, tgt[live_idx]]
    loss_val = nll.sum() / count

    probs = e / z
    grad = np.zeros_like(logits.data)
    grad[live_idx] = probs[live_idx]
    grad[live_idx, tgt[live_idx]] -= 1.0
    grad /= count

    def backward(g):
        return (grad * g,)

    loss = _make(np.float64(loss_val), (logits,), backward)
    return loss, grad
