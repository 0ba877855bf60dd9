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
the fused LoRA projection, RMSNorm, SiLU, rotary-embedded masked attention,
embedding lookup, and a fused softmax cross-entropy loss. All backwards are
hand-derived; finite-difference tests pin them independently.

Temporaries. A kernel keeps at most one or two full-size temporaries alive
and writes through ``out=`` or in place. Every fresh buffer of a few hundred
KB is memory glibc maps and trims again, so each one costs page faults on
every call, and page faults serialize the client and trunk threads that the
parallel strategies run side by side. Each rewrite keeps the same elementwise
operations on the same operands in the same order, and the same reductions
over the same contiguous layouts, so every value and gradient is bitwise
what the plain formula gives (``tests/test_kernels.py`` holds the plain
formulas and pins the bits and the peak temporaries). Slow paths avoided:
- ``np.where`` over a full array, and ``np.where(z > 0, e / z, 0)``: a
  branch-free form gives the same bits (``exp(min(v, 0))`` for the sigmoid
  numerator; a division by a row sum patched only on rows whose sum is not
  positive);
- ``exp`` over ``-inf`` entries, several times slower than over finite ones:
  masked scores take no ``exp`` at all and are set to the ``+0.0`` it would
  give;
- ufuncs over strided or broadcast operands allocate iterator buffers where a
  copy does not, so the rotary kernel does its arithmetic on one contiguous
  half-size buffer and only copies strided halves.

``adapted_linear`` is ``linear(x, w) + scale(linear(linear(x, a), b), c)``
as one tape node instead of five. Its backward lists ``x`` twice among the
parents and returns ``(gx_lora, gx_base, gw, ga, gb)``, so ``x`` receives its
low-rank part before its base part: the order in which the composed graph's
reverse walk adds them, and with it the same bits.
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


def adapted_linear(x: Tensor, w: Tensor, a: Tensor, b: Tensor, scaling: float) -> Tensor:
    """LoRA projection ``x @ w.T + ((x @ a.T) @ b.T) * scaling`` as one tape node.

    ``w`` is (out_dim, in_dim), ``a`` (rank, in_dim) and ``b`` (out_dim, rank).
    Forward and every gradient equal, bit for bit, those of the composed
    ``add(linear(x, w), scale(linear(linear(x, a), b), scaling))``. ``x`` is
    listed twice among the parents so that ``Tensor.backward`` adds its
    low-rank part before its base part, the order the composed graph's
    reverse walk uses.
    """
    x, w, a, b = _wrap(x), _wrap(w), _wrap(a), _wrap(b)
    if w.data.ndim != 2 or a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError("adapted_linear weights must be 2-D")
    out_dim, in_dim = w.data.shape
    rank = a.data.shape[0]
    if x.data.shape[-1] != in_dim or a.data.shape[1] != in_dim or b.data.shape != (out_dim, rank):
        raise ShapeError(
            f"adapted_linear shapes do not chain: x {x.data.shape}, w {w.data.shape}, "
            f"a {a.data.shape}, b {b.data.shape}"
        )
    c = float(scaling)
    h = x.data @ a.data.T
    out = x.data @ w.data.T
    delta = h @ b.data.T
    delta *= c
    out += delta

    def backward(g):
        gx_lora = gx_base = gw = ga = gb = None
        x2 = x.data.reshape(-1, in_dim)
        if x.requires_grad or a.requires_grad or b.requires_grad:
            gd = g * c
            if b.requires_grad:
                gb = gd.reshape(-1, out_dim).T @ h.reshape(-1, rank)
            if x.requires_grad or a.requires_grad:
                gh = gd @ b.data
                if x.requires_grad:
                    gx_lora = gh @ a.data
                if a.requires_grad:
                    ga = gh.reshape(-1, rank).T @ x2
        if x.requires_grad:
            gx_base = g @ w.data
        if w.requires_grad:
            gw = g.reshape(-1, out_dim).T @ x2
        return gx_lora, gx_base, gw, ga, gb

    return _make(out, (x, x, w, a, b), backward)


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
    # 1 / (1 + exp(-v)) and for v < 0 it is exp(v) / (1 + exp(v)), bit for bit.
    # The numerator exp(min(v, 0)) is exactly 1.0 for v >= 0 and exp(-|v|)
    # for v < 0, with no branch.
    den = np.abs(v)
    np.negative(den, out=den)
    np.exp(den, out=den)
    den += 1.0
    out = np.minimum(v, 0.0)
    np.exp(out, out=out)
    out /= den
    return out


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
    # the sum and the division np.mean does, without its wrapper; the
    # squares' buffer then holds the output
    out = x.data * x.data
    ms = np.add.reduce(out, axis=-1, keepdims=True) / dim
    r = np.sqrt(ms + eps)
    np.divide(x.data, r, out=out)
    out *= weight.data

    def backward(g):
        gx = gw = None
        if weight.requires_grad:
            gw = (g * (x.data / r)).reshape(-1, dim).sum(axis=0)
        if x.requires_grad:
            # gx = g*w / r - x * (sum(g*w*x) / (dim * r^3)), in two buffers
            gx = g * weight.data
            t = gx * x.data
            dot = np.sum(t, axis=-1, keepdims=True)
            np.multiply(x.data, dot / (dim * r * r * r), out=t)
            gx /= r
            gx -= t
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

    def backward(g):
        # transpose of a rotation is its inverse rotation: g1*cos + g2*sin and
        # g2*cos - g1*sin, since a - b*(-s) == a + b*s in IEEE arithmetic
        return (_rotate(g, cos, -sin),)

    return _make(_rotate(x.data, cos, sin), (x,), backward)


def _rotate(v: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """[v1*cos - v2*sin, v2*cos + v1*sin] over the halves of the last axis.

    The arithmetic runs on one contiguous half-size temporary; the strided
    halves of ``v`` and of the output are only copied, since a ufunc over
    strided or broadcast operands allocates iterator buffers and a copy does
    not. Each output half first holds the other half's second product.
    """
    half = v.shape[-1] // 2
    v1, v2 = v[..., :half], v[..., half:]
    out = np.empty(v.shape)
    o1, o2 = out[..., :half], out[..., half:]
    t = np.empty(v1.shape)
    np.copyto(t, v1)
    t *= sin
    np.copyto(o1, t)
    np.copyto(t, v2)
    t *= cos
    t += o1
    np.copyto(o2, t)
    np.copyto(t, v2)
    t *= sin
    np.copyto(o1, t)
    np.copyto(t, v1)
    t *= cos
    t -= o1
    np.copyto(o1, t)
    return out


# ---------------------------------------------------------------------------
# masked attention


def masked_softmax(scores: np.ndarray, allowed: np.ndarray) -> np.ndarray:
    """Softmax over the last axis restricted to ``allowed`` entries.

    Rows with no allowed entry come back as all-zero rather than NaN; callers
    only produce such rows for padding positions whose outputs are discarded.
    """
    return _softmax_in_place(np.array(scores, dtype=np.float64), allowed)


def _softmax_in_place(x: np.ndarray, allowed: np.ndarray) -> np.ndarray:
    """``masked_softmax`` written over ``x``, which the caller owns."""
    if allowed.all():
        # with every key visible the general path's masking is a no-op, so
        # for finite row maxima this is the same arithmetic, bit for bit
        m = np.max(x, axis=-1, keepdims=True)
        if np.isfinite(m).all():
            x -= m
            np.exp(x, out=x)
            x /= np.sum(x, axis=-1, keepdims=True)
            return x
    # masked entries hold -inf for the row maximum, then +0.0, which is what
    # exp(-inf) gives; exp itself runs only over allowed entries, since its
    # -inf inputs take a slow path
    neg = ~allowed
    np.copyto(x, -np.inf, where=neg)
    m = np.max(x, axis=-1, keepdims=True)
    m[~np.isfinite(m)] = 0.0
    x -= m
    np.exp(x, out=x, where=allowed)
    np.copyto(x, 0.0, where=neg)
    z = np.sum(x, axis=-1, keepdims=True)
    # a row whose sum is 0 (fully masked) or NaN comes back all +0.0
    bad = ~(z > 0.0)
    if bad.any():
        np.copyto(x, 0.0, where=bad)
        z[bad] = 1.0
    with np.errstate(invalid="ignore"):
        x /= z
    return x


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
    probs = np.matmul(q.data, k.data.swapaxes(-1, -2))
    probs *= inv_scale
    _softmax_in_place(probs, mask[:, None, :, :])
    out = np.matmul(probs, v.data)

    def backward(g):
        gq = gk = gv = None
        if v.requires_grad:
            gv = np.matmul(probs.swapaxes(-1, -2), g)
        if q.requires_grad or k.requires_grad:
            # gs = probs * (gp - sum(gp * probs)), with gp = g @ v.T, in two buffers
            gs = np.matmul(g, v.data.swapaxes(-1, -2))
            inner = np.sum(gs * probs, axis=-1, keepdims=True)
            gs -= inner
            gs *= probs
            if q.requires_grad:
                gq = np.matmul(gs, k.data)
                gq *= inv_scale
            if k.requires_grad:
                gk = np.matmul(gs.swapaxes(-1, -2), q.data)
                gk *= inv_scale
        return gq, gk, gv

    return _make(out, (q, k, v), backward)


def causal_mask(
    batch: int,
    key_len: int,
    pad_lens: Sequence[int] | int = 0,
    positions: Sequence[int] | None = None,
) -> np.ndarray:
    """Boolean (batch, queries, key_len) mask: a query at absolute position p
    may read key j iff pad <= j <= p.

    ``positions`` holds the queries' absolute positions and defaults to
    ``range(key_len)``, one query per key. A pass over a cached history has
    fewer queries than keys: its positions start at the cache length.
    """
    if isinstance(pad_lens, (int, np.integer)):
        pads = [int(pad_lens)] * batch
    else:
        pads = [int(p) for p in pad_lens]
        if len(pads) != batch:
            raise ShapeError(f"got {len(pads)} pad lengths for batch {batch}")
    if any(not 0 <= p < key_len for p in pads):
        raise ShapeError(f"pad lengths {pads} out of range for key length {key_len}")
    j = np.arange(key_len)
    pos = j if positions is None else np.asarray(positions, dtype=np.int64)
    causal = j[None, None, :] <= pos[None, :, None]
    visible = j[None, None, :] >= np.asarray(pads)[:, None, None]
    return causal & visible


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
    # one buffer: shifted logits, their exp, the softmax, then the gradient
    grad = logits.data - m
    np.exp(grad, out=grad)
    z = grad.sum(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(z[:, 0])
    live_idx = np.nonzero(live)[0]
    nll = lse[live_idx] - logits.data[live_idx, tgt[live_idx]]
    loss_val = nll.sum() / count

    grad /= z
    if count < rows:
        grad[~live] = 0.0
    grad[live_idx, tgt[live_idx]] -= 1.0
    grad /= count

    def backward(g):
        return (grad * g,)

    loss = _make(np.float64(loss_val), (logits,), backward)
    return loss, grad
