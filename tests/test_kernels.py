"""Bitwise pins, warning checks and temporaries budgets for the tensor kernels.

The elementwise kernels in ``fedsplit.tensor`` write through ``out=`` and keep
at most one or two full-size temporaries alive. Each is pinned here, forward
and every gradient over every frozen/trainable subset of its parents, against
an inline copy of the plain formula it replaced: a rewrite may change how many
buffers a kernel touches, never its bits. The two block sublayers are pinned
against the graphs of primitive ops they fuse, which live only here.
"""

import math
import tracemalloc
import warnings
from functools import partial

import numpy as np
import pytest

from fedsplit import model as model_mod
from fedsplit import tensor as tensor_mod
from fedsplit.inference import KVCache
from fedsplit.model import LoraConfig, ModelConfig, SegmentModel, init_parameter_set
from fedsplit.tensor import (
    Tensor,
    _sigmoid,
    _softmax_in_place,
    add,
    apply_rope,
    attend,
    attention_sublayer,
    causal_mask,
    linear,
    merge_heads,
    mlp_sublayer,
    mul,
    no_grad,
    rms_norm,
    rope_angles,
    scale,
    silu,
    softmax_cross_entropy,
    split_heads,
)
from fedsplit.training import local_loss_step

EDGES = np.array([0.0, -0.0, 1e-300, -1e-300, 1.0, -1.0, 745.0, -745.0, 1e3, -1e3])


# ---------------------------------------------------------------------------
# the formulas before the rewrite, kept as references


def ref_sigmoid(v):
    e = np.exp(-np.abs(v))
    return np.where(v >= 0, 1.0, e) / (1.0 + e)


def ref_silu(x, g):
    sig = ref_sigmoid(x)
    return x * sig, [g * (sig * (1.0 + x * (1.0 - sig)))]


def ref_rms_norm(x, w, g, eps=1e-5):
    dim = x.shape[-1]
    ms = np.add.reduce(x * x, axis=-1, keepdims=True) / dim
    r = np.sqrt(ms + eps)
    normed = x / r
    gwx = g * w
    dot = np.sum(gwx * x, axis=-1, keepdims=True)
    gx = gwx / r - x * (dot / (dim * r * r * r))
    gw = (g * normed).reshape(-1, dim).sum(axis=0)
    return normed * w, [gx, gw]


def ref_rope(x, tables, g):
    cos, sin = tables[0][None, None], tables[1][None, None]
    half = x.shape[-1] // 2
    x1, x2 = x[..., :half], x[..., half:]
    g1, g2 = g[..., :half], g[..., half:]
    out = np.concatenate([x1 * cos - x2 * sin, x2 * cos + x1 * sin], axis=-1)
    return out, [np.concatenate([g1 * cos + g2 * sin, g2 * cos - g1 * sin], axis=-1)]


def ref_masked_softmax(scores, allowed):
    if allowed.all():
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
        return np.where(z > 0.0, e / z, 0.0)


def ref_attend(q, k, v, allowed, g):
    inv_scale = 1.0 / math.sqrt(q.shape[-1])
    scores = np.matmul(q, k.swapaxes(-1, -2)) * inv_scale
    probs = ref_masked_softmax(scores, allowed[:, None, :, :])
    gp = np.matmul(g, v.swapaxes(-1, -2))
    inner = np.sum(gp * probs, axis=-1, keepdims=True)
    gs = probs * (gp - inner)
    return np.matmul(probs, v), [
        np.matmul(gs, k) * inv_scale,
        np.matmul(gs.swapaxes(-1, -2), q) * inv_scale,
        np.matmul(probs.swapaxes(-1, -2), g),
    ]


def ref_cross_entropy(logits, tgt, ignore_index=-1):
    live = tgt != ignore_index
    count = int(live.sum())
    m = logits.max(axis=1, keepdims=True)
    e = np.exp(logits - m)
    z = e.sum(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(z[:, 0])
    live_idx = np.nonzero(live)[0]
    loss = (lse[live_idx] - logits[live_idx, tgt[live_idx]]).sum() / count
    probs = e / z
    grad = np.zeros_like(logits)
    grad[live_idx] = probs[live_idx]
    grad[live_idx, tgt[live_idx]] -= 1.0
    grad /= count
    return np.float64(loss), grad


def composed_adapted_linear(x, w, a, b, scaling):
    return add(linear(x, w), scale(linear(linear(x, a), b), scaling))


def composed_attention(x, norm, projections, scaling, num_heads, allowed, rope, eps, append=None):
    """The attention sublayer as the op graph a block ran before it was one node."""

    def project(t, w, a, b):
        return linear(t, w) if a is None else composed_adapted_linear(t, w, a, b, scaling)

    xn = rms_norm(x, norm, eps)
    q = split_heads(project(xn, *projections[0]), num_heads)
    k = split_heads(project(xn, *projections[1]), num_heads)
    v = split_heads(project(xn, *projections[2]), num_heads)
    qr = apply_rope(q, None, tables=rope)
    kr = apply_rope(k, None, tables=rope)
    if append is None:
        ctx = attend(qr, kr, v, allowed)
    else:
        k_all, v_all = append(kr.data, v.data)
        ctx = attend(qr, Tensor(k_all), Tensor(v_all), allowed)
    return add(x, project(merge_heads(ctx), *projections[3]))


def composed_mlp(h, norm, gate, up, down, eps):
    """The MLP sublayer as the op graph a block ran before it was one node."""
    hn = rms_norm(h, norm, eps)
    gated = mul(silu(linear(hn, gate)), linear(hn, up))
    return add(h, linear(gated, down))


def composed_block_forward(block, x, allowed, rope, append=None, pool=None):
    cfg = block.config
    h = composed_attention(
        x, block.attn_norm, block.attn, block.scaling, cfg.num_heads, allowed, rope, cfg.rms_eps, append
    )
    return composed_mlp(h, block.mlp_norm, block.gate, block.up, block.down, cfg.rms_eps)


# ---------------------------------------------------------------------------
# inputs


def assert_bits(got, want):
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def federate_rows(seed):
    """Random rows at federate shapes with the edge values planted in them."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((8, 49, 172)) * 8.0
    x[0, 0, : EDGES.size] = EDGES
    return x


def padded_mask(batch, sq, sk):
    """Causal mask over a cached history with left padding; row i pads 3*i
    keys, so queries before the padding ends are fully masked."""
    pads = [min(3 * i, sk - 1) for i in range(batch)]
    return causal_mask(batch, sk, pads, positions=list(range(sk - sq, sk)))


def attend_inputs(seed, batch, heads, sq, sk, hd):
    rng = np.random.default_rng(seed)
    q = rng.standard_normal((batch, heads, sq, hd)) * 2.0
    k = rng.standard_normal((batch, heads, sk, hd)) * 2.0
    v = rng.standard_normal((batch, heads, sk, hd))
    q.reshape(-1)[: EDGES.size] = EDGES / 1e3
    v.reshape(-1)[: EDGES.size] = EDGES
    return [q, k, v]


ATTEND_CASES = {
    "federate_padded": (8, 4, 49, 49, 16, padded_mask(8, 49, 49)),
    "decode_row": (2, 4, 1, 37, 16, np.ones((2, 1, 37), dtype=bool)),
    "cached_padded": (3, 2, 4, 9, 8, padded_mask(3, 4, 9)),
    "all_visible": (4, 4, 18, 18, 16, np.ones((4, 18, 18), dtype=bool)),
    "fully_masked": (2, 2, 5, 5, 4, np.zeros((2, 5, 5), dtype=bool)),
}


def check_every_subset(build, arrays, want_out, want_grads, g):
    """Forward and each requested gradient equal the reference bitwise under
    every frozen/trainable subset of the parents; no warning is raised."""
    for mask in range(2 ** len(arrays)):
        ts = [Tensor(a, requires_grad=bool(mask >> i & 1)) for i, a in enumerate(arrays)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = build(*ts)
            assert_bits(out.data, want_out)
            if mask:
                out.backward(g)
        for t, want in zip(ts, want_grads):
            if t.requires_grad:
                assert_bits(t.grad, want)
            else:
                assert t.grad is None


# ---------------------------------------------------------------------------
# bitwise pins against the references


@pytest.mark.parametrize("data", ["edges", "federate"])
def test_silu_is_bitwise_the_reference(data):
    x = EDGES.copy() if data == "edges" else federate_rows(1)
    g = np.random.default_rng(2).standard_normal(x.shape)
    assert_bits(_sigmoid(x), ref_sigmoid(x))
    out, grads = ref_silu(x, g)
    check_every_subset(silu, [x], out, grads, g)


@pytest.mark.parametrize("shape", [(8, 49, 64), (2, 5, 10)])
def test_rms_norm_is_bitwise_the_reference(shape):
    rng = np.random.default_rng(3)
    x = rng.standard_normal(shape) * 3.0
    if shape[-1] == EDGES.size:
        x[0, 0] = EDGES
    x[-1, -1] = 0.0  # an all-zero row divides by sqrt(eps)
    w = rng.standard_normal(shape[-1])
    g = rng.standard_normal(shape)
    out, grads = ref_rms_norm(x, w, g)
    check_every_subset(lambda a, b: rms_norm(a, b, 1e-5), [x, w], out, grads, g)


@pytest.mark.parametrize("batch, heads, seq, hd", [(8, 4, 49, 16), (1, 2, 3, 10)])
def test_apply_rope_is_bitwise_the_reference(batch, heads, seq, hd):
    rng = np.random.default_rng(4)
    rows = rng.standard_normal((batch, seq, heads * hd))
    rows.reshape(-1)[: EDGES.size] = EDGES
    # the model rotates split_heads views, which are not contiguous
    x = split_heads(Tensor(rows), heads).data
    assert not x.flags.c_contiguous
    tables = rope_angles(np.arange(5, 5 + seq), hd, 10000.0)
    g = rng.standard_normal(x.shape)
    out, grads = ref_rope(x, tables, g)
    check_every_subset(lambda t: apply_rope(t, None, tables=tables), [x], out, grads, g)


@pytest.mark.parametrize("case", sorted(ATTEND_CASES))
def test_attend_is_bitwise_the_reference(case):
    batch, heads, sq, sk, hd, allowed = ATTEND_CASES[case]
    arrays = attend_inputs(5, batch, heads, sq, sk, hd)
    g = np.random.default_rng(6).standard_normal((batch, heads, sq, hd))
    out, grads = ref_attend(*arrays, allowed, g)
    check_every_subset(lambda q, k, v: attend(q, k, v, allowed), arrays, out, grads, g)


@pytest.mark.parametrize("case", ["federate_padded", "cached_padded", "fully_masked"])
def test_masked_softmax_ignores_extreme_masked_scores(case):
    batch, heads, sq, sk, _, allowed = ATTEND_CASES[case]
    rng = np.random.default_rng(7)
    scores = rng.standard_normal((batch, heads, sq, sk)) * 6.0
    keys = allowed[:, None, :, :]
    neg = np.broadcast_to(~keys, scores.shape)
    # any subtraction or exp over these would overflow
    scores[neg] = np.where(rng.random(int(neg.sum())) < 0.5, 1.7e308, -1.7e308)
    want = ref_masked_softmax(scores, keys)
    before = scores.copy()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _softmax_in_place(np.array(scores, dtype=np.float64), keys)
    assert_bits(got, want)
    assert_bits(scores, before)


def test_masked_softmax_nonfinite_rows_match_the_reference():
    scores = np.random.default_rng(8).standard_normal((1, 2, 3, 5))
    scores[0, 0, 0, 1] = np.inf
    scores[0, 1, 2, 3] = np.nan
    scores[0, 1, 1, 0] = -np.inf
    keys = np.ones((1, 1, 3, 5), dtype=bool)
    keys[..., 4] = False
    for allowed in (np.ones_like(keys), keys):
        with np.errstate(invalid="ignore"):
            want = ref_masked_softmax(scores, allowed)
            got = _softmax_in_place(np.array(scores, dtype=np.float64), allowed)
        assert_bits(got, want)


@pytest.mark.parametrize(
    "rows, vocab, spread, ignored",
    [(392, 256, 3.0, 0.2), (392, 256, 1e3, 0.0), (18, 256, 10.0, 0.5), (7, 10, 1.0, 0.0)],
)
def test_softmax_cross_entropy_is_bitwise_the_reference(rows, vocab, spread, ignored):
    rng = np.random.default_rng(9)
    logits = rng.standard_normal((rows, vocab)) * spread
    if vocab == EDGES.size:
        logits[0] = EDGES
    tgt = rng.integers(0, vocab, rows)
    tgt[rng.random(rows) < ignored] = -1
    tgt[0] = 1
    want_loss, want_grad = ref_cross_entropy(logits, tgt)
    lt = Tensor(logits, requires_grad=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loss, grad = softmax_cross_entropy(lt, tgt)
        loss.backward(np.float64(0.75))
    assert_bits(np.asarray(loss.data), np.asarray(want_loss))
    assert_bits(grad, want_grad)
    assert_bits(lt.grad, want_grad * np.float64(0.75))


# ---------------------------------------------------------------------------
# a training step through the fused blocks


@pytest.mark.parametrize("trainable_base", [False, True])
def test_model_step_is_bitwise_the_composed_projection(monkeypatch, trainable_base):
    """A training step through the two sublayer nodes per block equals, loss
    and every gradient bit for bit, the step through the op graph they fuse,
    swapped in for ``Block.forward``."""
    cfg = ModelConfig(vocab_size=32, hidden_size=16, num_heads=2, num_blocks=2, mlp_hidden=24)
    lora = LoraConfig(rank=4, alpha=8.0)
    params = init_parameter_set(cfg, lora, seed=15)
    rng = np.random.default_rng(16)
    for name in params:
        if name.endswith("lora_b"):  # nonzero, so the low-rank path carries signal
            params[name] = rng.standard_normal(params[name].shape) * 0.1
    ids = rng.integers(0, cfg.vocab_size, (3, 9))
    targets = rng.integers(0, cfg.vocab_size, (3, 9))

    def step():
        model = SegmentModel("full", cfg, lora, params, 0, cfg.num_blocks, trainable_base)
        built = next(tensor_mod._creation_counter)
        loss, _ = local_loss_step(model, ids, targets, pad_lens=[0, 2, 4])
        return loss, model.collect_grads(), next(tensor_mod._creation_counter) - built

    fused_loss, fused_grads, fused_nodes = step()
    monkeypatch.setattr(model_mod.Block, "forward", composed_block_forward)
    loss, grads, nodes = step()
    # the swap took: the op graph builds 34 more nodes per block
    assert nodes == fused_nodes + 34 * cfg.num_blocks
    assert fused_loss == loss
    assert list(fused_grads) == list(grads)
    for name in grads:
        assert_bits(fused_grads[name], grads[name])


# ---------------------------------------------------------------------------
# the fused block sublayers

HEADS = 2


def attention_arrays(seed, lora, batch=2, seq=3, dim=8, rank=2):
    """x, the norm gain, then each projection's weight (and adapters)."""
    rng = np.random.default_rng(seed)
    arrays = [rng.standard_normal((batch, seq, dim)) * 2.0, rng.standard_normal(dim)]
    for _ in range(4):
        arrays.append(rng.standard_normal((dim, dim)) / np.sqrt(dim))
        if lora:
            arrays += [rng.standard_normal((rank, dim)), rng.standard_normal((dim, rank)) * 0.5]
    return arrays


def history(seed, batch, past, dim):
    """One block's append to a cache holding ``past`` positions of rotated
    keys and values."""
    cache = KVCache()
    if past:
        rng = np.random.default_rng(seed)
        shape = (batch, HEADS, past, dim // HEADS)
        cache.append(0, rng.standard_normal(shape), rng.standard_normal(shape))
        cache.length = past
    return partial(cache.append, 0)


def attention_builds(arrays, lora, past):
    """(fused, composed, parent indices): each build takes one Tensor per
    array and runs the sublayer over a fresh copy of the cache, if any; with
    a cache the key and value projections are constants, not parents."""
    batch, seq, dim = arrays[0].shape
    per = 3 if lora else 1
    cached = past is not None
    past = past or 0
    allowed = causal_mask(batch, past + seq, [0, 2], positions=list(range(past, past + seq)))
    rope = rope_angles(np.arange(past, past + seq), dim // HEADS, 10000.0)

    def build(fn):
        def run(ts):
            weights = ts[2:]
            projections = [tuple(weights[per * i: per * i + per]) + (None,) * (3 - per) for i in range(4)]
            append = history(18, batch, past, dim) if cached else None
            return fn(ts[0], ts[1], projections, 1.5, HEADS, allowed, rope, 1e-5, append)
        return run

    parents = list(range(len(arrays)))
    if cached:
        parents = [i for i in parents if not 2 + per <= i < 2 + 3 * per]
    return build(attention_sublayer), build(composed_attention), parents


def check_against_composed(fused, composed, arrays, parents, g):
    """Forward and every gradient of ``fused`` equal the composed graph's
    bitwise under every frozen/trainable subset of the parents; Tensors that
    are not parents keep ``requires_grad`` and get no gradient."""
    ref = [Tensor(a, requires_grad=True) for a in arrays]
    want = composed(ref)
    want.backward(g)
    assert all((t.grad is None) == (i not in parents) for i, t in enumerate(ref))
    for mask in range(2 ** len(parents)):
        flags = {i: bool(mask >> n & 1) for n, i in enumerate(parents)}
        ts = [Tensor(a, requires_grad=flags.get(i, True)) for i, a in enumerate(arrays)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = fused(ts)
            assert_bits(out.data, want.data)
            if mask:
                out.backward(g)
        for t, r in zip(ts, ref):
            if t.requires_grad and r.grad is not None:
                assert_bits(t.grad, r.grad)
            else:
                assert t.grad is None


@pytest.mark.parametrize("past", [None, 0, 2], ids=["no_cache", "empty_cache", "cache"])
@pytest.mark.parametrize("lora", [True, False], ids=["lora", "no_lora"])
def test_attention_sublayer_is_bitwise_the_composed_graph(lora, past):
    arrays = attention_arrays(19, lora)
    arrays[0][0, 0, : EDGES.size // 2] = EDGES[::2]
    fused, composed, parents = attention_builds(arrays, lora, past)
    g = np.random.default_rng(20).standard_normal(arrays[0].shape)
    check_against_composed(fused, composed, arrays, parents, g)


def test_mlp_sublayer_is_bitwise_the_composed_graph():
    rng = np.random.default_rng(21)
    arrays = [rng.standard_normal((2, 3, 8)) * 3.0, rng.standard_normal(8),
              *(rng.standard_normal(shape) for shape in ((12, 8), (12, 8), (8, 12)))]
    arrays[0][0, 0, : EDGES.size // 2] = EDGES[::2]
    arrays[0][-1, -1] = 0.0  # an all-zero row divides by sqrt(eps)
    g = rng.standard_normal(arrays[0].shape)

    def build(fn):
        return lambda ts: fn(*ts, 1e-5)

    check_against_composed(build(mlp_sublayer), build(composed_mlp), arrays, range(5), g)


def test_each_sublayer_is_one_node_with_its_input_listed_twice():
    arrays = attention_arrays(22, lora=True)
    fused, _, _ = attention_builds(arrays, lora=True, past=None)
    ts = [Tensor(a, requires_grad=True) for a in arrays]
    out = fused(ts)
    assert out._parents == (ts[0], *ts)
    mlp_ts = [Tensor(a, requires_grad=True) for a in (arrays[0], arrays[1], *[arrays[2]] * 3)]
    assert mlp_sublayer(*mlp_ts)._parents == (mlp_ts[0], *mlp_ts)
    built = next(tensor_mod._creation_counter)
    with no_grad():
        fused(ts)
        mlp_sublayer(*mlp_ts)
    assert next(tensor_mod._creation_counter) - built == 3


# ---------------------------------------------------------------------------
# temporaries budget


def peak_ratio(fn, nbytes):
    """Peak bytes traced while ``fn`` runs, as a multiple of ``nbytes``."""
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return (peak - before) / nbytes


def _kernel_runs():
    """(kernel, phase) -> (zero-argument call, reference size in bytes), at
    federate shapes: SiLU (8,49,172), scores (8,4,49,49), norms and both
    sublayers (8,49,64), logits (392,256)."""
    rng = np.random.default_rng(17)
    runs = {}
    x = rng.standard_normal((8, 49, 172))
    xt = Tensor(x, requires_grad=True)
    runs["silu", "fwd"] = (lambda: silu(xt), x.nbytes)
    mask = padded_mask(8, 49, 49)
    scores = rng.standard_normal((8, 4, 49, 49))
    runs["masked_softmax", "fwd"] = (
        lambda: _softmax_in_place(np.array(scores, dtype=np.float64), mask[:, None]), scores.nbytes
    )
    q, k, v = (Tensor(rng.standard_normal((8, 4, 49, 16)), requires_grad=True) for _ in range(3))
    out = attend(q, k, v, mask)
    g = rng.standard_normal(out.shape)
    runs["attend", "fwd"] = (lambda: attend(q, k, v, mask), scores.nbytes)
    runs["attend", "bwd"] = (lambda: out._backward_fn(g), scores.nbytes)
    h = Tensor(rng.standard_normal((8, 49, 64)), requires_grad=True)
    gain = Tensor(rng.standard_normal(64))
    normed = rms_norm(h, gain)
    runs["rms_norm", "fwd"] = (lambda: rms_norm(h, gain), h.data.nbytes)
    runs["rms_norm", "bwd"] = (lambda: normed._backward_fn(g.reshape(8, 49, 64)), h.data.nbytes)
    heads = split_heads(h, 4)
    tables = rope_angles(np.arange(49), 16, 10000.0)
    rotated = apply_rope(heads, None, tables=tables)
    runs["apply_rope", "fwd"] = (lambda: apply_rope(heads, None, tables=tables), h.data.nbytes)
    runs["apply_rope", "bwd"] = (lambda: rotated._backward_fn(g), h.data.nbytes)
    logits = Tensor(rng.standard_normal((392, 256)), requires_grad=True)
    tgt = rng.integers(0, 256, 392)
    tgt[:40] = -1
    runs["softmax_cross_entropy", "fwd"] = (lambda: softmax_cross_entropy(logits, tgt), logits.data.nbytes)
    for name, build in sublayer_graphs(rng, attention_sublayer, mlp_sublayer).items():
        runs[name, "fwd"] = (build, h.data.nbytes)
        runs[name, "bwd"] = (lambda node=build(): node._backward_fn(g.reshape(8, 49, 64)), h.data.nbytes)
    return runs


def sublayer_graphs(rng, attention, mlp):
    """name -> zero-argument build of both sublayers at federate shapes as
    training runs them: the input and the adapters trainable, the base
    weights frozen."""
    x = Tensor(rng.standard_normal((8, 49, 64)), requires_grad=True)
    attn_norm, mlp_norm = (Tensor(rng.standard_normal(64)) for _ in range(2))
    projections = [
        (Tensor(rng.standard_normal((64, 64))), Tensor(rng.standard_normal((8, 64)), requires_grad=True),
         Tensor(rng.standard_normal((64, 8)), requires_grad=True))
        for _ in range(4)
    ]
    mask = padded_mask(8, 49, 49)
    tables = rope_angles(np.arange(49), 16, 10000.0)
    gate, up, down = (Tensor(rng.standard_normal(shape)) for shape in ((172, 64), (172, 64), (64, 172)))
    return {
        "attention_sublayer": lambda: attention(x, attn_norm, projections, 2.0, 4, mask, tables, 1e-5),
        "mlp_sublayer": lambda: mlp(x, mlp_norm, gate, up, down, 1e-5),
    }


# (budget, peak before the rewrite), as multiples of the reference size. A
# budget is the full-size buffers the kernel may hold, output included, plus
# 0.5 for numpy's iterator buffers and row-sized arrays.
TEMPORARIES_BUDGET = {
    ("silu", "fwd"): (2.5, 3.0),
    ("masked_softmax", "fwd"): (1.5, 4.1),
    ("attend", "fwd"): (1.5, 5.1),
    ("attend", "bwd"): (2.5, 3.3),
    ("rms_norm", "fwd"): (1.5, 2.37),
    ("rms_norm", "bwd"): (2.5, 4.0),
    ("apply_rope", "fwd"): (2.0, 2.1),
    ("apply_rope", "bwd"): (2.0, 2.1),
    ("softmax_cross_entropy", "fwd"): (1.5, 5.0),
    # a sublayer's budget is its peak rounded up; "before" is the peak of the
    # op graph it fuses (``composed_attention``/``composed_mlp`` built the
    # same way; for bwd, its whole ``Tensor.backward``), so fusing a block
    # never holds more than the graph did
    ("attention_sublayer", "fwd"): (13.0, 13.62),
    ("attention_sublayer", "bwd"): (9.0, 14.54),
    ("mlp_sublayer", "fwd"): (16.0, 16.47),
    ("mlp_sublayer", "bwd"): (13.0, 15.12),
}


@pytest.mark.parametrize("kernel, phase", sorted(TEMPORARIES_BUDGET))
def test_kernel_temporaries_stay_in_budget(kernel, phase):
    budget, before = TEMPORARIES_BUDGET[kernel, phase]
    fn, nbytes = _kernel_runs()[kernel, phase]
    fn()  # first call outside the trace: lazy numpy set-up is not a temporary
    assert peak_ratio(fn, nbytes) <= budget < before
