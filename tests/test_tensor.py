"""Gradient and value checks for the autodiff core.

Every operator's hand-written backward is pinned against central finite
differences (step 1e-5) on randomized inputs, plus exact-value cases worked
out by hand.
"""

import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsplit.corpus import BatchSampler, make_copy_corpus
from fedsplit.errors import DegenerateBatchError, GradError, ShapeError
from fedsplit.model import ModelConfig, PartitionSpec, build_partitioned
from fedsplit.tensor import (
    Tensor,
    _sigmoid,
    add,
    apply_rope,
    attend,
    causal_attention,
    causal_mask,
    embedding,
    linear,
    masked_softmax,
    matmul,
    merge_heads,
    mul,
    no_grad,
    rms_norm,
    rope_angles,
    silu,
    softmax_cross_entropy,
    split_heads,
)
from fedsplit.training import SequentialTrainer, connect_pair

FD_STEP = 1e-5


def _loss_value(build, arrays, proj):
    with no_grad():
        out = build(*[Tensor(a) for a in arrays])
    return float(np.sum(out.data * proj))


def fd_grads(build, arrays, proj, step=FD_STEP):
    """Central-difference gradients of sum(build(...) * proj) per input."""
    grads = []
    for i in range(len(arrays)):
        g = np.zeros_like(arrays[i])
        it = np.nditer(arrays[i], flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            plus = [a.copy() for a in arrays]
            minus = [a.copy() for a in arrays]
            plus[i][idx] += step
            minus[i][idx] -= step
            g[idx] = (_loss_value(build, plus, proj) - _loss_value(build, minus, proj)) / (
                2.0 * step
            )
        grads.append(g)
    return grads


def analytic_grads(build, arrays, proj):
    ts = [Tensor(a, requires_grad=True) for a in arrays]
    out = build(*ts)
    out.backward(proj)
    return [t.grad for t in ts]


def rel_err(a, b):
    denom = max(np.max(np.abs(a)), np.max(np.abs(b)), 1.0)
    return np.max(np.abs(a - b)) / denom


def assert_grads_close(build, arrays, out_shape, tol, seed=0):
    rng = np.random.default_rng(seed)
    proj = rng.standard_normal(out_shape)
    ana = analytic_grads(build, arrays, proj)
    num = fd_grads(build, arrays, proj)
    for a, n in zip(ana, num):
        assert rel_err(a, n) < tol


# ---------------------------------------------------------------------------
# matmul


def test_matmul_identity():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((4, 4))
    out = matmul(Tensor(a), Tensor(np.eye(4)))
    np.testing.assert_array_equal(out.data, a)


def test_matmul_hand_value():
    out = matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
    np.testing.assert_array_equal(out.data, [[11.0]])


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeError):
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))
    with pytest.raises(ShapeError):
        matmul(Tensor(np.zeros(3)), Tensor(np.zeros((3, 2))))


@pytest.mark.parametrize("seed", range(5))
def test_matmul_grad(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((4, 2))
    assert_grads_close(lambda x, y: matmul(x, y), [a, b], (3, 2), 1e-6, seed)


@pytest.mark.parametrize("seed", range(3))
def test_linear_grad(seed):
    rng = np.random.default_rng(100 + seed)
    x = rng.standard_normal((2, 3, 5))
    w = rng.standard_normal((4, 5))
    assert_grads_close(lambda a, b: linear(a, b), [x, w], (2, 3, 4), 1e-6, seed)


# ---------------------------------------------------------------------------
# rms_norm


def test_rms_norm_unit_row():
    # row of ones with unit gain: mean square is 1, so output ~ 1/sqrt(1+eps)
    x = np.ones((1, 4))
    w = np.ones(4)
    out = rms_norm(Tensor(x), Tensor(w), eps=0.0)
    np.testing.assert_allclose(out.data, np.ones((1, 4)), rtol=0, atol=1e-15)


def test_rms_norm_scales_by_gain():
    x = np.array([[3.0, -3.0]])
    w = np.array([2.0, 0.5])
    out = rms_norm(Tensor(x), Tensor(w), eps=0.0)
    # rms of the row is 3, so normalized row is [1, -1]
    np.testing.assert_allclose(out.data, [[2.0, -0.5]], atol=1e-15)


@pytest.mark.parametrize("seed", range(5))
def test_rms_norm_grad(seed):
    rng = np.random.default_rng(200 + seed)
    x = rng.standard_normal((3, 6))
    w = rng.standard_normal(6) + 1.0
    assert_grads_close(lambda a, b: rms_norm(a, b, eps=1e-5), [x, w], (3, 6), 1e-6, seed)


def test_rms_norm_bitwise_matches_mean_form():
    rng = np.random.default_rng(13)
    for shape in ((8, 18, 64), (1, 1, 64), (3, 5)):
        x = rng.standard_normal(shape) * 3.0
        w = rng.standard_normal(shape[-1])
        old = x / np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + 1e-5) * w
        assert rms_norm(Tensor(x), Tensor(w), eps=1e-5).data.tobytes() == old.tobytes()


# ---------------------------------------------------------------------------
# silu


def test_silu_values():
    out = silu(Tensor([0.0, 20.0, -20.0]))
    assert out.data[0] == 0.0
    assert abs(out.data[1] - 20.0) < 1e-6
    assert abs(out.data[2]) < 1e-6


def _sigmoid_two_branch(v):
    out = np.empty_like(v)
    pos = v >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    ev = np.exp(v[~pos])
    out[~pos] = ev / (1.0 + ev)
    return out


def test_sigmoid_bitwise_matches_two_branch_formula():
    edge = np.array([0.0, -0.0, 1e-300, -1e-300, 1.0, -1.0, 37.0, -37.0, 745.0, -745.0, 1e3, -1e3])
    rand = np.random.default_rng(11).standard_normal((8, 18, 172)) * 8.0
    for v in (edge, rand):
        new, old = _sigmoid(v), _sigmoid_two_branch(v)
        assert new.tobytes() == old.tobytes()


def test_silu_large_inputs_stay_finite():
    out = silu(Tensor([-1000.0, 1000.0]))
    assert np.all(np.isfinite(out.data))


@pytest.mark.parametrize("seed", range(5))
def test_silu_grad(seed):
    rng = np.random.default_rng(300 + seed)
    x = rng.standard_normal((4, 5)) * 2.0
    assert_grads_close(lambda a: silu(a), [x], (4, 5), 1e-6, seed)


# ---------------------------------------------------------------------------
# elementwise and structure ops


@pytest.mark.parametrize("seed", range(3))
def test_add_mul_grad(seed):
    rng = np.random.default_rng(400 + seed)
    a = rng.standard_normal((2, 3))
    b = rng.standard_normal((2, 3))
    assert_grads_close(lambda x, y: add(x, y), [a, b], (2, 3), 1e-6, seed)
    assert_grads_close(lambda x, y: mul(x, y), [a, b], (2, 3), 1e-6, seed)


def test_split_merge_heads_roundtrip():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((2, 3, 8))
    out = merge_heads(split_heads(Tensor(x), 4))
    np.testing.assert_array_equal(out.data, x)


def test_embedding_grad_accumulates_duplicate_ids():
    table = Tensor(np.zeros((5, 3)), requires_grad=True)
    ids = np.array([[1, 1, 4]])
    out = embedding(table, ids)
    g = np.ones((1, 3, 3))
    out.backward(g)
    expected = np.zeros((5, 3))
    expected[1] = 2.0
    expected[4] = 1.0
    np.testing.assert_array_equal(table.grad, expected)


def test_embedding_rejects_out_of_range():
    with pytest.raises(ShapeError):
        embedding(Tensor(np.zeros((4, 2))), np.array([4]))


# ---------------------------------------------------------------------------
# rotary embedding


def test_rope_position_zero_is_identity():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((1, 2, 1, 8))
    out = apply_rope(Tensor(x), [0])
    np.testing.assert_allclose(out.data, x, atol=1e-15)


def test_rope_first_pair_rotates_one_radian_at_position_one():
    # frequency of pair 0 is base^0 = 1, so position 1 rotates it by 1 radian
    x = np.zeros((1, 1, 2, 4))
    x[0, 0, :, 0] = 1.0
    out = apply_rope(Tensor(x), [0, 1], base=10000.0)
    assert abs(out.data[0, 0, 1, 0] - math.cos(1.0)) < 1e-12
    assert abs(out.data[0, 0, 1, 2] - math.sin(1.0)) < 1e-12
    np.testing.assert_allclose(out.data[0, 0, 0], x[0, 0, 0], atol=1e-15)


def test_rope_preserves_norm():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((2, 2, 5, 8))
    out = apply_rope(Tensor(x), [3, 1, 4, 1, 5])
    np.testing.assert_allclose(
        np.linalg.norm(out.data, axis=-1), np.linalg.norm(x, axis=-1), atol=1e-12
    )


@pytest.mark.parametrize("seed", range(3))
def test_rope_grad(seed):
    rng = np.random.default_rng(500 + seed)
    x = rng.standard_normal((1, 2, 3, 4))
    assert_grads_close(lambda a: apply_rope(a, [0, 2, 5]), [x], (1, 2, 3, 4), 1e-6, seed)


def test_rope_with_precomputed_tables_is_bitwise_per_call():
    rng = np.random.default_rng(14)
    positions = [7, 8, 9, 10, 11]
    tables = rope_angles(np.asarray(positions, dtype=np.int64), 8, 10000.0)
    x = rng.standard_normal((2, 4, 5, 8))
    g = rng.standard_normal((2, 4, 5, 8))
    per_call, shared = Tensor(x, requires_grad=True), Tensor(x, requires_grad=True)
    a = apply_rope(per_call, positions)
    b = apply_rope(shared, positions, tables=tables)
    assert a.data.tobytes() == b.data.tobytes()
    a.backward(g)
    b.backward(g)
    assert per_call.grad.tobytes() == shared.grad.tobytes()
    with pytest.raises(ShapeError):
        apply_rope(Tensor(x), positions[:4], tables=(tables[0][:4], tables[1][:4]))


# ---------------------------------------------------------------------------
# attention


def test_single_position_attention_returns_v():
    rng = np.random.default_rng(9)
    q = rng.standard_normal((2, 3, 1, 4))
    k = rng.standard_normal((2, 3, 1, 4))
    v = rng.standard_normal((2, 3, 1, 4))
    out = causal_attention(Tensor(q), Tensor(k), Tensor(v), [0])
    np.testing.assert_allclose(out.data, v, atol=1e-15)


def test_masked_softmax_rows_sum_to_one():
    rng = np.random.default_rng(10)
    scores = rng.standard_normal((3, 2, 4, 4)) * 5.0
    allowed = causal_mask(3, 4, [0, 1, 2])[:, None, :, :]
    probs = masked_softmax(scores, allowed)
    sums = probs.sum(axis=-1)
    live = allowed.any(axis=-1)
    assert np.all(np.abs(sums[np.broadcast_to(live, sums.shape)] - 1.0) < 1e-12)
    assert np.all(probs[~np.broadcast_to(allowed, probs.shape)] == 0.0)


def _masked_softmax_general(scores, allowed):
    neg = ~allowed
    masked = np.where(neg, -np.inf, scores)
    m = np.max(masked, axis=-1, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    e = np.where(neg, 0.0, np.exp(masked - m))
    z = np.sum(e, axis=-1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(z > 0.0, e / z, 0.0)


@pytest.mark.parametrize("shape", [(1, 4, 1, 1), (1, 4, 1, 37), (8, 4, 18, 18)])
def test_all_visible_softmax_is_bitwise_general_path(shape):
    scores = np.random.default_rng(15).standard_normal(shape) * 6.0
    allowed = np.ones(shape, dtype=bool)
    fast = masked_softmax(scores, allowed)
    assert fast.tobytes() == _masked_softmax_general(scores, allowed).tobytes()


def test_all_visible_softmax_with_nonfinite_scores_matches_general_path():
    scores = np.random.default_rng(16).standard_normal((1, 2, 3, 5))
    scores[0, 0, 0, 1] = np.inf
    scores[0, 1, 2, 3] = np.nan
    scores[0, 1, 1, 0] = -np.inf
    allowed = np.ones(scores.shape, dtype=bool)
    with np.errstate(invalid="ignore"):
        fast = masked_softmax(scores, allowed)
        general = _masked_softmax_general(scores, allowed)
    assert fast.tobytes() == general.tobytes()


def test_fully_masked_rows_are_zero_not_nan():
    scores = np.zeros((1, 1, 2, 2))
    allowed = np.zeros((1, 1, 2, 2), dtype=bool)
    probs = masked_softmax(scores, allowed)
    assert np.all(probs == 0.0)


def test_causal_exactness_later_positions_do_not_leak():
    rng = np.random.default_rng(11)
    q = rng.standard_normal((1, 2, 5, 4))
    k = rng.standard_normal((1, 2, 5, 4))
    v = rng.standard_normal((1, 2, 5, 4))
    base_out = causal_attention(Tensor(q), Tensor(k), Tensor(v), range(5)).data
    k2, v2 = k.copy(), v.copy()
    k2[:, :, 3:] += 100.0
    v2[:, :, 3:] -= 50.0
    out2 = causal_attention(Tensor(q), Tensor(k2), Tensor(v2), range(5)).data
    np.testing.assert_array_equal(out2[:, :, :3], base_out[:, :, :3])


def test_left_pad_columns_are_never_read():
    rng = np.random.default_rng(12)
    q = rng.standard_normal((1, 1, 4, 4))
    k = rng.standard_normal((1, 1, 4, 4))
    v = rng.standard_normal((1, 1, 4, 4))
    out = causal_attention(Tensor(q), Tensor(k), Tensor(v), range(4), pad_lens=[2]).data
    k2, v2 = k.copy(), v.copy()
    k2[:, :, :2] = 999.0
    v2[:, :, :2] = -999.0
    out2 = causal_attention(Tensor(q), Tensor(k2), Tensor(v2), range(4), pad_lens=[2]).data
    np.testing.assert_array_equal(out2[:, :, 2:], out[:, :, 2:])


@pytest.mark.parametrize("seed", range(5))
def test_attention_grad(seed):
    rng = np.random.default_rng(600 + seed)
    shape = (2, 2, 4, 4)
    q = rng.standard_normal(shape)
    k = rng.standard_normal(shape)
    v = rng.standard_normal(shape)
    pads = [0, 1]

    def build(a, b, c):
        return causal_attention(a, b, c, range(4), pad_lens=pads)

    assert_grads_close(build, [q, k, v], shape, 1e-5, seed)


@pytest.mark.parametrize("seed", range(3))
def test_attend_rectangular_grad(seed):
    # decode shape: a single query over a longer key history
    rng = np.random.default_rng(700 + seed)
    q = rng.standard_normal((1, 2, 1, 4))
    k = rng.standard_normal((1, 2, 5, 4))
    v = rng.standard_normal((1, 2, 5, 4))
    allowed = np.ones((1, 1, 5), dtype=bool)

    def build(a, b, c):
        return attend(a, b, c, allowed)

    assert_grads_close(build, [q, k, v], (1, 2, 1, 4), 1e-5, seed)


# ---------------------------------------------------------------------------
# cross-entropy


def test_uniform_logits_loss_is_log_vocab():
    logits = Tensor(np.zeros((2, 4)))
    loss, grad = softmax_cross_entropy(logits, np.array([1, 3]))
    assert abs(float(loss.data) - math.log(4.0)) < 1e-12
    # gradient rows: (0.25 - onehot) / 2
    expected = np.full((2, 4), 0.125)
    expected[0, 1] -= 0.5
    expected[1, 3] -= 0.5
    np.testing.assert_allclose(grad, expected, atol=1e-12)


def test_ignore_index_drops_rows():
    rng = np.random.default_rng(13)
    data = rng.standard_normal((3, 5))
    loss_all, _ = softmax_cross_entropy(Tensor(data[:1]), np.array([2]))
    loss_ign, grad = softmax_cross_entropy(Tensor(data), np.array([2, -1, -1]))
    assert abs(float(loss_all.data) - float(loss_ign.data)) < 1e-12
    assert np.all(grad[1:] == 0.0)


def test_all_ignored_raises():
    with pytest.raises(DegenerateBatchError):
        softmax_cross_entropy(Tensor(np.zeros((2, 3))), np.array([-1, -1]))


def test_extreme_logits_stay_finite():
    logits = Tensor(np.array([[1000.0, -1000.0, 0.0]]))
    loss, grad = softmax_cross_entropy(logits, np.array([1]))
    assert np.isfinite(float(loss.data))
    assert np.all(np.isfinite(grad))


@pytest.mark.parametrize("seed", range(5))
def test_cross_entropy_grad(seed):
    rng = np.random.default_rng(800 + seed)
    logits = rng.standard_normal((4, 6)) * 2.0
    targets = rng.integers(0, 6, size=4)
    targets[0] = -1

    def build(a):
        loss, _ = softmax_cross_entropy(a, targets)
        return loss

    assert_grads_close(build, [logits], (), 1e-6, seed)


def test_cross_entropy_eager_grad_matches_backward():
    rng = np.random.default_rng(14)
    logits = Tensor(rng.standard_normal((3, 5)), requires_grad=True)
    loss, grad = softmax_cross_entropy(logits, np.array([0, 4, 2]))
    loss.backward()
    np.testing.assert_array_equal(logits.grad, grad)


# ---------------------------------------------------------------------------
# frozen parents get no gradient


_CAUSAL_2x3 = np.tril(np.ones((3, 3), dtype=bool))[None].repeat(2, axis=0)
FROZEN_CASES = {
    "linear": (linear, [(2, 3, 5), (4, 5)]),
    "rms_norm": (rms_norm, [(2, 3, 5), (5,)]),
    "matmul": (matmul, [(3, 4), (4, 2)]),
    "mul": (mul, [(3, 4), (3, 4)]),
    "attend": (lambda q, k, v: attend(q, k, v, _CAUSAL_2x3), [(2, 2, 3, 4)] * 3),
}


@pytest.mark.parametrize("name", sorted(FROZEN_CASES))
def test_backward_skips_frozen_parents_and_keeps_other_bits(name):
    build, shapes = FROZEN_CASES[name]
    rng = np.random.default_rng(21)
    arrays = [rng.standard_normal(shape) for shape in shapes]
    n = len(arrays)
    full = [Tensor(a, requires_grad=True) for a in arrays]
    out = build(*full)
    g = rng.standard_normal(out.shape)
    out.backward(g)
    for mask in range(1, 2**n - 1):
        ts = [Tensor(a, requires_grad=bool(mask >> i & 1)) for i, a in enumerate(arrays)]
        out = build(*ts)
        assert [pg is None for pg in out._backward_fn(g)] == [not t.requires_grad for t in ts]
        out.backward(g)
        for t, ref in zip(ts, full):
            if t.requires_grad:
                assert t.grad.tobytes() == ref.grad.tobytes()
            else:
                assert t.grad is None


def test_linear_frozen_weight_input_grad_is_exact():
    rng = np.random.default_rng(31)
    x = Tensor(rng.standard_normal((2, 3, 5)), requires_grad=True)
    w = Tensor(rng.standard_normal((4, 5)))
    g = rng.standard_normal((2, 3, 4))
    linear(x, w).backward(g)
    assert w.grad is None
    assert x.grad.tobytes() == (g @ w.data).tobytes()


def test_rms_norm_frozen_gain_input_grad_is_exact():
    rng = np.random.default_rng(32)
    xd = rng.standard_normal((2, 3, 5))
    x = Tensor(xd, requires_grad=True)
    w = Tensor(rng.standard_normal(5))
    g = rng.standard_normal((2, 3, 5))
    rms_norm(x, w, eps=1e-5).backward(g)
    assert w.grad is None
    r = np.sqrt(np.mean(xd * xd, axis=-1, keepdims=True) + 1e-5)
    gwx = g * w.data
    dot = np.sum(gwx * xd, axis=-1, keepdims=True)
    expected = gwx / r - xd * (dot / (5 * r * r * r))
    assert x.grad.tobytes() == expected.tobytes()


def test_lora_split_step_leaves_frozen_grads_unset():
    cfg = ModelConfig(vocab_size=32, hidden_size=16, num_heads=2, num_blocks=4, mlp_hidden=24)
    front, middle, back = build_partitioned(cfg, PartitionSpec(1, 2, 1), seed=0)
    client, server, server_channel = connect_pair(front, middle, back, client_id=0, lr=0.1)
    corpus = make_copy_corpus(8, payload_len=4, vocab_size=cfg.vocab_size, seed=0)
    sampler = BatchSampler(corpus, 4, seed=100)
    with SequentialTrainer([client], server, [server_channel]) as trainer:
        trainer.run(lambda c, r: sampler.batch_for(r), rounds=1)
    frozen = [
        (seg.role, name, p)
        for seg in (front, middle, back)
        for name, p in seg.named_parameters().items()
        if not p.requires_grad
    ]
    assert {role for role, _, _ in frozen} == {"front", "middle", "back"}
    assert [(role, name) for role, name, p in frozen if p.grad is not None] == []


# ---------------------------------------------------------------------------
# engine behavior


def test_backward_requires_tracking():
    with pytest.raises(GradError):
        Tensor(np.zeros(3)).backward(np.zeros(3))


def test_backward_seed_shape_checked():
    t = Tensor(np.zeros((2, 2)), requires_grad=True)
    out = add(t, Tensor(np.ones((2, 2))))
    with pytest.raises(GradError):
        out.backward(np.zeros(3))


def test_no_grad_blocks_tape():
    t = Tensor(np.ones(2), requires_grad=True)
    with no_grad():
        out = add(t, Tensor(np.ones(2)))
    assert not out.requires_grad


def test_no_grad_is_local_to_its_thread():
    entered, release = threading.Event(), threading.Event()

    def hold_no_grad():
        with no_grad():
            entered.set()
            release.wait(timeout=10.0)

    holder = threading.Thread(target=hold_no_grad)
    holder.start()
    try:
        assert entered.wait(timeout=10.0)
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        out = linear(x, Tensor(np.ones((4, 3))))
    finally:
        release.set()
        holder.join(timeout=10.0)
    assert not holder.is_alive()
    assert out.requires_grad


def test_grad_accumulates_across_consumers():
    x = Tensor(np.array([2.0, 3.0]), requires_grad=True)
    y = add(mul(x, x), x)  # x^2 + x, dy/dx = 2x + 1
    y.backward(np.ones(2))
    np.testing.assert_allclose(x.grad, [5.0, 7.0], atol=1e-15)


def test_causal_mask_rejects_bad_pads():
    with pytest.raises(ShapeError):
        causal_mask(2, 4, [0])
    for pad in (-1, 4):
        with pytest.raises(ShapeError):
            causal_mask(1, 4, [pad])
    # a cached pass: the pad bound is the key length, not the query count
    assert causal_mask(1, 4, 2, positions=[3]).tolist() == [[[False, False, True, True]]]


@settings(max_examples=25, deadline=None)
@given(
    batch=st.integers(1, 3),
    seq=st.integers(2, 6),
    past=st.integers(0, 4),
    data=st.data(),
)
def test_causal_mask_property(batch, seq, past, data):
    pads = data.draw(st.lists(st.integers(0, seq - 1), min_size=batch, max_size=batch))
    mask = causal_mask(batch, seq, pads)
    for b in range(batch):
        for i in range(seq):
            for j in range(seq):
                assert mask[b, i, j] == (pads[b] <= j <= i)

    # a pass over a cached history: fewer queries than keys, at the last
    # positions (a cached prefill, or a single decode row when queries == 1)
    key_len = past + seq
    queries = data.draw(st.integers(1, seq))
    positions = list(range(key_len - queries, key_len))
    mask = causal_mask(batch, key_len, pads, positions)
    assert mask.dtype == bool and mask.shape == (batch, queries, key_len)
    for b in range(batch):
        for i, p in enumerate(positions):
            for j in range(key_len):
                assert mask[b, i, j] == (pads[b] <= j <= p)
    # the formula SegmentModel used before it called causal_mask
    pos = np.asarray(positions, dtype=np.int64)
    j = np.arange(key_len)
    old = (j[None, None, :] <= pos[None, :, None]) & (
        j[None, None, :] >= np.asarray(pads)[:, None, None]
    )
    assert mask.tobytes() == old.tobytes()
