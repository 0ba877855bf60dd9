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
RMSNorm, SiLU, rotary-embedded masked attention, embedding lookup, a fused
softmax cross-entropy loss, and the two block sublayers. All backwards are
hand-derived; finite-difference tests pin them independently.

Kernels and ops. Each formula lives once, in a kernel: a plain function over
arrays (``_project``, ``_rms_norm``, ``_silu``, ``_rotate``,
``_attention_probs``, ``_split_heads``, ...) with a ``*_backward`` partner
that computes only the gradients asked for. An op is a thin wrapper that
checks shapes, calls the kernels and records one tape node. The block
sublayers call the same kernels, so a sublayer is bitwise the graph of ops
it replaces.

Temporaries. A kernel keeps at most one or two full-size temporaries alive
and writes through ``out=`` or in place. Each rewrite keeps the same
elementwise operations on the same operands in the same order, and the same
reductions over the same contiguous layouts, so every value and gradient is
bitwise what the plain formula gives (``tests/test_kernels.py`` holds the
plain formulas and pins the bits and the peak temporaries). Slow paths
avoided:
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

Buffer pool. Every fresh buffer of a few hundred KB is memory glibc maps and
trims again, so each one costs page faults on every call, and page faults
serialize the client and trunk threads that the parallel strategies run side
by side. So a training pass takes its full-size arrays from a
``BufferPool``: free buffers grouped by shape, one pool shared by the
segments of one model cut (``model.cut_segments``) and by their clones. Only
grad-mode passes without a KV cache get a pool; no-grad and cached passes
get None and make no pool call. A kernel given a pool takes the full-size
arrays it returns and its temporaries from it and gives the temporaries back
(a matmul through ``out=`` at the operands' own shapes gives the plain
product's bits). A sublayer gives back a forward temporary right after use,
and a taped activation once its node's backward has run (at once when
nothing is taped). What callers keep stays fresh: a sublayer's output, and
every gradient a backward returns. A tape dropped without a backward never
gives its buffers back; they are simply garbage.

``attention_sublayer`` and ``mlp_sublayer`` make a block two tape nodes
instead of the thirty-six of the op graph they replace (LoRA on), so a cached
decode step builds two Tensors per block and a pass makes far fewer Python
calls. Floating-point addition is not associative, so each backward sums a
gradient that several ops of the composed graph fed in the order that
graph's reverse ``_id`` walk summed it. A LoRA projection
``linear(x, w) + scale(linear(linear(x, a), b), c)`` hands its input the
low-rank part before the base part (``_projection_backward`` returns them in
that order), so the attention norm's output gets the value projection's
low-rank part, then its base part, then the key's two parts, then the
query's; the MLP norm's output gets up's part before gate's; and the block
input, listed twice among the parents, gets the residual's gradient before
the norm's. Frozen parents get None. Both sublayers are pinned bitwise
against the composed graphs in ``tests/test_kernels.py``.
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


def _make(data: np.ndarray, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    out = Tensor(data)
    if _grad_mode.enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward_fn = backward_fn
    return out


class BufferPool:
    """Free float64 buffers grouped by shape, for the grad-mode passes of the
    segments of one model cut.

    ``take`` hands out a buffer its taker owns, with whatever values its last
    owner left, until the taker ``give``s it back. ``trim(mark)`` drops the
    free buffers of every shape not taken since ``mark`` and returns the mark
    for next time. A segment trims at the end of each of its passes, so the
    pool keeps every shape that some pass took since that segment's last one:
    a run at fixed shapes keeps all it reuses, and after a change of batch
    width the old width's buffers go. Every method holds the pool's lock, so
    threads running segments of one cut can share it.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._free: dict[tuple[int, ...], list[np.ndarray]] = {}
        self._taken: dict[tuple[int, ...], int] = {}  # shape -> clock at its last take
        self._clock = 0

    def take(self, shape: tuple[int, ...]) -> np.ndarray:
        with self._lock:
            self._clock += 1
            self._taken[shape] = self._clock
            free = self._free.get(shape)
            if free:
                return free.pop()
        return np.empty(shape)

    def give(self, *buffers: np.ndarray | None) -> None:
        """Return buffers taken from this pool; None entries are skipped."""
        with self._lock:
            for buf in buffers:
                if buf is not None:
                    self._free.setdefault(buf.shape, []).append(buf)

    def trim(self, mark: int) -> int:
        with self._lock:
            for shape in [s for s in self._free if self._taken[s] <= mark]:
                del self._free[shape]
            return self._clock


# ---------------------------------------------------------------------------
# elementwise and dense ops


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"add requires equal shapes, got {a.data.shape} and {b.data.shape}")

    def backward(g):
        return g, g

    return _make(a.data + b.data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"mul requires equal shapes, got {a.data.shape} and {b.data.shape}")

    def backward(g):
        ga = g * b.data if a.requires_grad else None
        gb = g * a.data if b.requires_grad else None
        return ga, gb

    return _make(a.data * b.data, (a, b), backward)


def scale(x: Tensor, factor: float) -> Tensor:
    c = float(factor)

    def backward(g):
        return (g * c,)

    return _make(x.data * c, (x,), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """2-D matrix product (m, k) @ (k, n) -> (m, n)."""
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
    if w.data.ndim != 2:
        raise ShapeError(f"linear weight must be 2-D, got {w.data.shape}")
    if x.data.shape[-1] != w.data.shape[1]:
        raise ShapeError(
            f"linear input dim {x.data.shape[-1]} does not match weight in_dim {w.data.shape[1]}"
        )

    def backward(g):
        return _linear_backward(g, x.data, w.data, x.requires_grad, w.requires_grad)

    return _make(_project(x.data, w)[0], (x, w), backward)


def _project(x, w, a=None, b=None, scaling=1.0, pool=None):
    """``x @ w.T``, plus ``((x @ a.T) @ b.T) * scaling`` when ``a`` is given,
    for an array ``x`` and weight Tensors.

    Returns the output and ``x @ a.T`` (None without adapters), which the
    backward needs.
    """
    if pool is None:
        out = x @ w.data.T
    else:
        out = np.matmul(x, w.data.T, out=pool.take((*x.shape[:-1], w.data.shape[0])))
    if a is None:
        return out, None
    h = x @ a.data.T
    delta = h @ b.data.T if pool is None else np.matmul(h, b.data.T, out=pool.take(out.shape))
    delta *= float(scaling)
    out += delta
    if pool is not None:
        pool.give(delta)
    return out, h


def _linear_backward(g, x, w, need_x, need_w, pool=None):
    """Gradients ``(gx, gw)`` of ``x @ w.T``, each None unless needed."""
    gx = None
    if need_x:
        gx = g @ w if pool is None else np.matmul(g, w, out=pool.take((*g.shape[:-1], w.shape[1])))
    gw = None
    if need_w:
        gw = g.reshape(-1, w.shape[0]).T @ x.reshape(-1, w.shape[1])
    return gx, gw


def _projection_backward(g, x, proj, h, scaling, need_x, pool=None):
    """Gradients of ``_project`` over the ``(w, a, b)`` Tensors of ``proj``
    (``a`` and ``b`` None for a plain projection).

    Returns ``(gx_lora, gx_base, grads)``: ``x``'s low-rank and base parts,
    and one gradient per Tensor of ``proj`` that is not None, each None
    unless that Tensor has ``requires_grad``.
    """
    w, a, b = proj
    gx_base, gw = _linear_backward(g, x, w.data, need_x, w.requires_grad, pool)
    if a is None:
        return None, gx_base, (gw,)
    gx_lora = ga = gb = None
    if need_x or a.requires_grad or b.requires_grad:
        s = float(scaling)
        gd = g * s if pool is None else np.multiply(g, s, out=pool.take(g.shape))
        if b.requires_grad:
            gb = gd.reshape(-1, b.data.shape[0]).T @ h.reshape(-1, h.shape[-1])
        if need_x or a.requires_grad:
            gh = gd @ b.data
            if need_x:
                gx_lora = (gh @ a.data if pool is None
                           else np.matmul(gh, a.data, out=pool.take(x.shape)))
            if a.requires_grad:
                ga = gh.reshape(-1, h.shape[-1]).T @ x.reshape(-1, x.shape[-1])
        if pool is not None:
            pool.give(gd)
    return gx_lora, gx_base, (gw, ga, gb)


def silu(x: Tensor) -> Tensor:
    """x * sigmoid(x), computed stably for large |x|."""
    out, sig = _silu(x.data)

    def backward(g):
        return (_silu_backward(g, x.data, sig),)

    return _make(out, (x,), backward)


def _silu(x, pool=None):
    """``x * sigmoid(x)`` and the sigmoid, which the backward needs."""
    sig = _sigmoid(x, pool)
    return (x * sig if pool is None else np.multiply(x, sig, out=pool.take(x.shape))), sig


def _silu_backward(g, x, sig, pool=None):
    """With a pool, the gradient is written over ``g``, a pool buffer."""
    if pool is None:
        return g * (sig * (1.0 + x * (1.0 - sig)))
    # the same products, in one buffer
    t = np.subtract(1.0, sig, out=pool.take(sig.shape))
    t *= x
    t += 1.0
    t *= sig
    g *= t
    pool.give(t)
    return g


def _sigmoid(v: np.ndarray, pool=None) -> np.ndarray:
    # exp of a non-positive argument never overflows; for v >= 0 this is
    # 1 / (1 + exp(-v)) and for v < 0 it is exp(v) / (1 + exp(v)), bit for bit.
    # The numerator exp(min(v, 0)) is exactly 1.0 for v >= 0 and exp(-|v|)
    # for v < 0, with no branch.
    den = np.abs(v) if pool is None else np.abs(v, out=pool.take(v.shape))
    np.negative(den, out=den)
    np.exp(den, out=den)
    den += 1.0
    out = np.minimum(v, 0.0) if pool is None else np.minimum(v, 0.0, out=pool.take(v.shape))
    np.exp(out, out=out)
    out /= den
    if pool is not None:
        pool.give(den)
    return out


def rms_norm(x: Tensor, weight: Tensor, eps: float = 1e-5) -> Tensor:
    """Root-mean-square normalization over the last axis with a learned gain.

    y_i = w_i * x_i / sqrt(mean_j x_j^2 + eps)
    """
    dim = x.data.shape[-1]
    if weight.data.shape != (dim,):
        raise ShapeError(
            f"rms_norm weight shape {weight.data.shape} does not match feature dim {dim}"
        )
    out, r = _rms_norm(x.data, weight.data, eps)

    def backward(g):
        return _rms_norm_backward(g, x.data, weight.data, r, x.requires_grad, weight.requires_grad)

    return _make(out, (x, weight), backward)


def _rms_norm(x, w, eps, pool=None):
    """The normalized, scaled ``x`` and the per-row root mean square ``r``."""
    # the sum and the division np.mean does, without its wrapper; the
    # squares' buffer then holds the output
    out = x * x if pool is None else np.multiply(x, x, out=pool.take(x.shape))
    ms = np.add.reduce(out, axis=-1, keepdims=True) / x.shape[-1]
    r = np.sqrt(ms + eps)
    np.divide(x, r, out=out)
    out *= w
    return out, r


def _rms_norm_backward(g, x, w, r, need_x, need_w, pool=None):
    """Gradients ``(gx, gw)`` of ``_rms_norm``, each None unless needed.
    With a pool only the temporaries come from it: ``gx`` is always fresh."""
    dim = x.shape[-1]
    gx = gw = None
    if need_w:
        if pool is None:
            gw = (g * (x / r)).reshape(-1, dim).sum(axis=0)
        else:
            t = np.divide(x, r, out=pool.take(x.shape))
            t *= g
            gw = t.reshape(-1, dim).sum(axis=0)
            pool.give(t)
    if need_x:
        # gx = g*w / r - x * (sum(g*w*x) / (dim * r^3)), in two buffers
        gx = g * w
        t = gx * x if pool is None else np.multiply(gx, x, out=pool.take(x.shape))
        dot = np.sum(t, axis=-1, keepdims=True)
        np.multiply(x, dot / (dim * r * r * r), out=t)
        gx /= r
        gx -= t
        if pool is not None:
            pool.give(t)
    return gx, gw


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup ``table[ids]`` for integer id arrays of any shape."""
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
    _, _, d = x.data.shape
    if d % num_heads != 0:
        raise ShapeError(f"hidden dim {d} not divisible by {num_heads} heads")

    def backward(g):
        return (_merge_heads(g),)

    return _make(_split_heads(x.data, num_heads), (x,), backward)


def merge_heads(x: Tensor) -> Tensor:
    """(batch, heads, seq, head_dim) -> (batch, seq, heads * head_dim)."""
    num_heads = x.data.shape[1]

    def backward(g):
        return (_split_heads(g, num_heads),)

    return _make(_merge_heads(x.data), (x,), backward)


def _split_heads(x, num_heads):
    b, s, d = x.shape
    return x.reshape(b, s, num_heads, d // num_heads).transpose(0, 2, 1, 3)


def _merge_heads(x, pool=None):
    """With a pool, the output comes from it and ``x``, a pool buffer, goes
    back to it."""
    b, h, s, hd = x.shape
    if pool is None:
        return x.transpose(0, 2, 1, 3).reshape(b, s, h * hd)
    out = pool.take((b, s, h * hd))
    out.reshape(b, s, h, hd)[...] = x.transpose(0, 2, 1, 3)
    pool.give(x)
    return out


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
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


def _rotate(v: np.ndarray, cos: np.ndarray, sin: np.ndarray, pool=None) -> np.ndarray:
    """[v1*cos - v2*sin, v2*cos + v1*sin] over the halves of the last axis.

    The arithmetic runs on one contiguous half-size temporary; the strided
    halves of ``v`` and of the output are only copied (by slice assignment,
    which skips ``np.copyto``'s Python dispatch), since a ufunc over strided
    or broadcast operands allocates iterator buffers and a copy does not.
    Each output half first holds the other half's second product.
    """
    half = v.shape[-1] // 2
    v1, v2 = v[..., :half], v[..., half:]
    out = np.empty(v.shape) if pool is None else pool.take(v.shape)
    o1, o2 = out[..., :half], out[..., half:]
    t = np.empty(v1.shape) if pool is None else pool.take(v1.shape)
    t[...] = v1
    t *= sin
    o1[...] = t
    t[...] = v2
    t *= cos
    t += o1
    o2[...] = t
    t[...] = v2
    t *= sin
    o1[...] = t
    t[...] = v1
    t *= cos
    t -= o1
    o1[...] = t
    if pool is not None:
        pool.give(t)
    return out


# ---------------------------------------------------------------------------
# masked attention


def _softmax_in_place(x: np.ndarray, allowed: np.ndarray) -> np.ndarray:
    """Softmax over the last axis restricted to ``allowed`` entries, written
    over ``x``, which the caller owns.

    Rows with no allowed entry come back as all-zero rather than NaN; callers
    only produce such rows for padding positions whose outputs are discarded.
    """
    if allowed.all():
        # with every key visible the general path's masking is a no-op, so
        # for finite row maxima this is the same arithmetic, bit for bit
        # the reductions np.max and np.sum run, without their wrappers
        m = np.maximum.reduce(x, axis=-1, keepdims=True)
        if np.isfinite(m).all():
            x -= m
            np.exp(x, out=x)
            x /= np.add.reduce(x, axis=-1, keepdims=True)
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
    probs = _attention_probs(q.data, k.data, mask)

    def backward(g):
        return _attend_backward(
            g, q.data, k.data, v.data, probs, q.requires_grad, k.requires_grad, v.requires_grad
        )

    return _make(np.matmul(probs, v.data), (q, k, v), backward)


def _attention_probs(q, k, allowed, pool=None):
    """Masked softmax of ``q @ k.T / sqrt(head_dim)`` over (b, h, sq, sk)
    scores; ``allowed`` is the (b, sq, sk) key mask."""
    kt = k.swapaxes(-1, -2)
    if pool is None:
        probs = np.matmul(q, kt)
    else:
        probs = np.matmul(q, kt, out=pool.take((*q.shape[:-1], kt.shape[-1])))
    probs *= 1.0 / math.sqrt(q.shape[-1])
    return _softmax_in_place(probs, allowed[:, None, :, :])


def _attend_backward(g, q, k, v, probs, need_q, need_k, need_v, pool=None):
    """Gradients ``(gq, gk, gv)`` of ``probs @ v``, each None unless needed."""
    gq = gk = gv = None
    if need_v:
        gv = np.matmul(probs.swapaxes(-1, -2), g, out=None if pool is None else pool.take(v.shape))
    if need_q or need_k:
        inv_scale = 1.0 / math.sqrt(q.shape[-1])
        # gs = probs * (gp - sum(gp * probs)), with gp = g @ v.T, in two buffers
        gs = np.matmul(g, v.swapaxes(-1, -2), out=None if pool is None else pool.take(probs.shape))
        if pool is None:
            inner = np.sum(gs * probs, axis=-1, keepdims=True)
        else:
            t = np.multiply(gs, probs, out=pool.take(probs.shape))
            inner = np.sum(t, axis=-1, keepdims=True)
            pool.give(t)
        gs -= inner
        gs *= probs
        if need_q:
            gq = np.matmul(gs, k, out=None if pool is None else pool.take(q.shape))
            gq *= inv_scale
        if need_k:
            gk = np.matmul(gs.swapaxes(-1, -2), q, out=None if pool is None else pool.take(k.shape))
            gk *= inv_scale
        if pool is not None:
            pool.give(gs)
    return gq, gk, gv


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
# block sublayers


def attention_sublayer(
    x: Tensor,
    norm: Tensor,
    projections: Sequence[tuple[Tensor, Tensor | None, Tensor | None]],
    scaling: float,
    num_heads: int,
    allowed: np.ndarray,
    rope: tuple[np.ndarray, np.ndarray],
    eps: float = 1e-5,
    append=None,
    pool: BufferPool | None = None,
) -> Tensor:
    """Pre-norm rotary attention and its residual add as one tape node.

    With ``n = rms_norm(x, norm, eps)`` this is ``x + out(attend(rope(query(n)),
    rope(key(n)), value(n), allowed))``. ``projections`` holds the
    ``(weight, lora_a, lora_b)`` Tensors of query, key, value and out: each
    is ``x @ w.T + ((x @ a.T) @ b.T) * scaling``, or ``x @ w.T`` when both
    adapters are None. ``allowed`` is the (batch, queries, keys) mask and
    ``rope`` the ``rope_angles`` tables at the pass's positions. A cached pass
    gives the block's ``append(k, v) -> (k_all, v_all)``, which writes past the
    cache's length (the segment advances it) and returns the history attention
    reads. The history is not on the tape, so with a cache the key and value
    projections are not parents. A ``pool`` (never with a cache) supplies
    the full-size arrays, as the module docstring's "Buffer pool" says.
    """
    xd = x.data
    if xd.ndim != 3 or norm.data.shape != (xd.shape[-1],):
        raise ShapeError(f"attention input {xd.shape} does not match norm {norm.data.shape}")
    cos, sin = rope
    xn, r = _rms_norm(xd, norm.data, eps, pool)
    q_proj, hq = _project(xn, *projections[0], scaling, pool)
    k_proj, hk = _project(xn, *projections[1], scaling, pool)
    v_proj, hv = _project(xn, *projections[2], scaling, pool)
    q = _rotate(_split_heads(q_proj, num_heads), cos, sin, pool)
    k = _rotate(_split_heads(k_proj, num_heads), cos, sin, pool)
    v = _split_heads(v_proj, num_heads)
    if append is not None:
        k, v = append(k, v)
    probs = _attention_probs(q, k, allowed, pool)
    ctx = _merge_heads(
        np.matmul(probs, v) if pool is None else np.matmul(probs, v, out=pool.take(q.shape)), pool
    )
    out, ho = _project(ctx, *projections[3], scaling, pool)
    if pool is None:
        out += xd
    else:
        # the output stays fresh, since callers keep it
        out, proj = out + xd, out
        pool.give(q_proj, k_proj, proj)
    taped = [(projections[0], hq, True)]
    if append is None:
        taped += [(projections[1], hk, True), (projections[2], hv, False)]

    def backward(g):
        need_xn = x.requires_grad or norm.requires_grad
        # q, k and v take a gradient if n or one of their projection's
        # Tensors does, and k and v only when they are on the tape
        need = [need_xn or any(t is not None and t.requires_grad for t in p) for p, _, _ in taped]
        need += [False] * (3 - len(need))

        def project_back(total, gp, inp, proj, h, need_inp):
            # the input's low-rank part, then its base part, added to total
            g_lora, g_base, grads = _projection_backward(gp, inp, proj, h, scaling, need_inp, pool)
            return _sum_in_order((total, g_lora, g_base), pool), grads

        gctx, out_grads = project_back(None, g, ctx, projections[3], ho, any(need))
        heads = [None] * 3
        if gctx is not None:
            heads = [*_attend_backward(_split_heads(gctx, num_heads), q, k, v, probs, *need, pool)]
            if pool is not None:
                pool.give(gctx)
            del gctx  # each gradient buffer goes once it is used
        # the tape's walk reaches the value's projection first, then the
        # key's, then the query's, and n's gradient sums in that order
        gxn, proj_grads = None, []
        for i in reversed(range(len(taped))):
            (proj, h, rotated), gh = taped[i], heads.pop(i)
            if gh is not None:
                # rope's backward rotates back, split_heads' merges the heads
                turned = _rotate(gh, cos, -sin, pool) if rotated else gh
                if pool is not None and rotated:
                    pool.give(gh)
                gh = _merge_heads(turned, pool)
            gxn, grads = project_back(gxn, gh, xn, proj, h, need_xn)
            if pool is not None:
                pool.give(gh)
            proj_grads[:0] = grads
        gx = gnorm = None
        if need_xn:
            gx, gnorm = _rms_norm_backward(
                gxn, xd, norm.data, r, x.requires_grad, norm.requires_grad, pool
            )
        if pool is not None:
            pool.give(gxn, *saved)
        return (g if x.requires_grad else None, gx, gnorm, *proj_grads, *out_grads)

    weights = [t for p, _, _ in taped for t in p if t is not None]
    weights += [t for t in projections[3] if t is not None]
    node = _make(out, (x, x, norm, *weights), backward)
    if pool is not None:
        saved = (xn, v_proj, q, k, probs, ctx)
        if node._backward_fn is None:  # nothing taped
            pool.give(*saved)
    return node


def mlp_sublayer(
    h: Tensor,
    norm: Tensor,
    gate: Tensor,
    up: Tensor,
    down: Tensor,
    eps: float = 1e-5,
    pool: BufferPool | None = None,
) -> Tensor:
    """Pre-norm SiLU-gated MLP and its residual add as one tape node.

    With ``n = rms_norm(h, norm, eps)`` this is
    ``h + linear(silu(linear(n, gate)) * linear(n, up), down)``. A ``pool``
    supplies the full-size arrays, as for ``attention_sublayer``.
    """
    hd = h.data
    if hd.ndim != 3 or norm.data.shape != (hd.shape[-1],):
        raise ShapeError(f"mlp input {hd.shape} does not match norm {norm.data.shape}")
    hn, r = _rms_norm(hd, norm.data, eps, pool)
    pre, _ = _project(hn, gate, pool=pool)
    lin, _ = _project(hn, up, pool=pool)
    act, sig = _silu(pre, pool)
    prod = act * lin if pool is None else np.multiply(act, lin, out=pool.take(act.shape))
    out, _ = _project(prod, down, pool=pool)
    if pool is None:
        out += hd
    else:
        out, proj = out + hd, out
        pool.give(proj)

    def backward(g):
        need_hn = h.requires_grad or norm.requires_grad
        need_gate = need_hn or gate.requires_grad
        need_up = need_hn or up.requires_grad
        gprod, gdown = _linear_backward(
            g, prod, down.data, need_gate or need_up, down.requires_grad, pool
        )
        gpre = glin = None
        if need_gate:
            if pool is None:
                gpre = _silu_backward(gprod * lin, pre, sig)
            else:
                gact = np.multiply(gprod, lin, out=pool.take(lin.shape))
                gpre = _silu_backward(gact, pre, sig, pool)
        if need_up:
            glin = gprod * act if pool is None else np.multiply(gprod, act, out=pool.take(act.shape))
        # the tape's walk reaches up's projection before gate's
        ghn_up, gup = _linear_backward(glin, hn, up.data, need_hn, up.requires_grad, pool)
        ghn_gate, ggate = _linear_backward(gpre, hn, gate.data, need_hn, gate.requires_grad, pool)
        gh = gnorm = None
        if need_hn:
            ghn = _sum_in_order((ghn_up, ghn_gate), pool)
            gh, gnorm = _rms_norm_backward(
                ghn, hd, norm.data, r, h.requires_grad, norm.requires_grad, pool
            )
            if pool is not None:
                pool.give(ghn)
        if pool is not None:
            pool.give(gprod, gpre, glin, *saved)
        return (g if h.requires_grad else None, gh, gnorm, ggate, gup, gdown)

    node = _make(out, (h, h, norm, gate, up, down), backward)
    if pool is not None:
        saved, spare = [pre, lin, act, sig], []
        # the backward reads hn only for gate's and up's gradients, and prod
        # only for down's
        (saved if gate.requires_grad or up.requires_grad else spare).append(hn)
        (saved if down.requires_grad else spare).append(prod)
        if node._backward_fn is None:  # nothing taped
            saved, spare = [], saved + spare
        pool.give(*spare)
    return node


def _sum_in_order(parts, pool=None):
    """Left-to-right sum of the parts that are not None, the grouping in
    which ``Tensor.backward`` accumulates a gradient from several nodes.
    The first part, a buffer the caller owns, holds the sum; with a pool,
    every later part goes back to it once added."""
    total = None
    for part in parts:
        if part is not None:
            if total is None:
                total = part
            else:
                total += part
                if pool is not None:
                    pool.give(part)
    return total


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
