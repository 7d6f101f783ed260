import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stacklm import tensor as T
from stacklm.tensor import Tape, Tensor

erf = np.vectorize(math.erf, otypes=[np.float64])


def finite_difference(fn, arrays, wrt, h=1e-5):
    """Central-difference gradient of scalar fn(*arrays) w.r.t. arrays[wrt]."""
    base = [a.copy() for a in arrays]
    grad = np.zeros_like(base[wrt])
    flat = base[wrt].reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        up = fn(*base)
        flat[i] = keep - h
        down = fn(*base)
        flat[i] = keep
        gflat[i] = (up - down) / (2.0 * h)
    return grad


def analytic_grads(fn, arrays):
    """Tape gradient of scalar fn(*tensors) w.r.t. every input array."""
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    with Tape() as tape:
        loss = fn(*tensors)
    tape.backward(loss)
    return [t.grad if t.grad is not None else np.zeros_like(t.data) for t in tensors]


def assert_gradcheck(fn_tensor, fn_numpy, arrays, rel=1e-4):
    analytic = analytic_grads(fn_tensor, arrays)
    for i in range(len(arrays)):
        numeric = finite_difference(fn_numpy, arrays, i)
        scale = np.maximum(np.abs(numeric), 1.0)
        err = np.max(np.abs(analytic[i] - numeric) / scale)
        assert err < rel, f"gradient mismatch on input {i}: max rel err {err}"


def rng(seed=0):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# matmul
# ---------------------------------------------------------------------------


def test_matmul_identity():
    a = Tensor(np.eye(2))
    b = Tensor(np.array([[3.0, 4.0], [5.0, 6.0]]))
    assert np.array_equal(T.matmul(a, b).data, b.data)


def test_matmul_hand_checked():
    out = T.matmul(Tensor(np.array([[1.0, 2.0]])), Tensor(np.array([[3.0], [4.0]])))
    assert out.data.tolist() == [[11.0]]


def test_matmul_shape_mismatch_names_both_shapes():
    with pytest.raises(T.ShapeError) as exc:
        T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))
    assert "(2, 3)" in str(exc.value) and "(4, 5)" in str(exc.value)


def test_matmul_gradcheck_4x5_5x3():
    g = rng(1)
    a, b = g.normal(size=(4, 5)), g.normal(size=(5, 3))
    assert_gradcheck(
        lambda x, y: T.sum_all(T.matmul(x, y)),
        lambda x, y: (x @ y).sum(),
        [a, b],
    )


def test_matmul_batched_gradcheck():
    g = rng(2)
    a, b = g.normal(size=(2, 3, 4)), g.normal(size=(2, 4, 2))
    assert_gradcheck(
        lambda x, y: T.sum_all(T.matmul(x, y)),
        lambda x, y: (x @ y).sum(),
        [a, b],
    )


def test_matmul_weight_apply_gradcheck():
    g = rng(3)
    a, w = g.normal(size=(2, 3, 4)), g.normal(size=(4, 5))
    assert_gradcheck(
        lambda x, y: T.sum_all(T.matmul(x, y)),
        lambda x, y: (x @ y).sum(),
        [a, w],
    )


# ---------------------------------------------------------------------------
# layer norm
# ---------------------------------------------------------------------------


def test_layer_norm_constant_row_maps_to_bias():
    out = T.layer_norm(Tensor(np.array([[5.0, 5.0, 5.0, 5.0]])), Tensor(np.ones(4)), Tensor(np.zeros(4)))
    assert np.allclose(out.data, 0.0)


def test_layer_norm_already_normalized_row():
    out = T.layer_norm(Tensor(np.array([[1.0, -1.0]])), Tensor(np.ones(2)), Tensor(np.zeros(2)), eps=1e-12)
    assert np.allclose(out.data, [[1.0, -1.0]], atol=1e-6)


def test_layer_norm_row_statistics():
    x = rng(4).normal(size=(3, 8))
    out = T.layer_norm(Tensor(x), Tensor(np.ones(8)), Tensor(np.zeros(8))).data
    assert np.all(np.abs(out.mean(axis=-1)) < 1e-6)
    assert np.all(np.abs(out.var(axis=-1) - 1.0) < 1e-3)


def test_layer_norm_empty_dim_rejected():
    with pytest.raises(T.ShapeError):
        T.layer_norm(Tensor(np.zeros((2, 0))), Tensor(np.zeros(0)), Tensor(np.zeros(0)))


def test_layer_norm_gradcheck():
    g = rng(5)
    x, gain, bias = g.normal(size=(3, 6)), g.normal(size=6), g.normal(size=6)
    eps = 1e-5

    def np_ln(x, gain, bias):
        mu = x.mean(-1, keepdims=True)
        var = ((x - mu) ** 2).mean(-1, keepdims=True)
        return (((x - mu) / np.sqrt(var + eps)) * gain + bias).sum()

    assert_gradcheck(
        lambda x, g_, b_: T.sum_all(T.layer_norm(x, g_, b_, eps)),
        np_ln,
        [x, gain, bias],
    )


# ---------------------------------------------------------------------------
# softmax cross entropy
# ---------------------------------------------------------------------------


def test_cross_entropy_uniform_logits():
    logits = Tensor(np.zeros((3, 10)))
    loss = T.softmax_cross_entropy(logits, np.array([0, 4, 9]))
    assert loss.item() == pytest.approx(np.log(10.0), rel=1e-12)


def test_cross_entropy_perfect_prediction_limit():
    logits = np.full((1, 5), -1e4)
    logits[0, 2] = 1e4
    loss = T.softmax_cross_entropy(Tensor(logits), np.array([2]))
    assert loss.item() == pytest.approx(0.0, abs=1e-12)


def test_cross_entropy_mask_selects_single_example():
    g = rng(6)
    logits = g.normal(size=(2, 7))
    targets = np.array([3, 5])
    masked = T.softmax_cross_entropy(Tensor(logits), targets, np.array([1.0, 0.0]))
    single = T.softmax_cross_entropy(Tensor(logits[:1]), targets[:1])
    assert masked.item() == pytest.approx(single.item(), rel=1e-12)


def test_cross_entropy_target_out_of_range():
    with pytest.raises(IndexError):
        T.softmax_cross_entropy(Tensor(np.zeros((1, 4))), np.array([4]))


def test_cross_entropy_all_zero_mask_is_zero_loss():
    logits = Tensor(rng(7).normal(size=(2, 4)), requires_grad=True)
    with Tape() as tape:
        loss = T.softmax_cross_entropy(logits, np.array([0, 1]), np.zeros(2))
    assert loss.item() == 0.0
    tape.backward(loss)
    assert np.all(logits.grad == 0.0)


def test_cross_entropy_gradcheck():
    g = rng(8)
    logits = g.normal(size=(4, 6))
    targets = np.array([1, 0, 5, 3])
    mask = np.array([1.0, 0.0, 2.0, 1.0])

    def np_loss(x):
        z = x - x.max(-1, keepdims=True)
        lp = z - np.log(np.exp(z).sum(-1, keepdims=True))
        nll = -lp[np.arange(4), targets]
        return (nll * mask).sum() / mask.sum()

    assert_gradcheck(lambda x: T.softmax_cross_entropy(x, targets, mask), np_loss, [logits])


# ---------------------------------------------------------------------------
# remaining primitive family
# ---------------------------------------------------------------------------


def test_gelu_fixed_point():
    assert T.gelu(Tensor(np.array([0.0]))).data[0] == 0.0


def test_dropout_p_zero_is_identity():
    x = Tensor(rng(9).normal(size=(2, 3)))
    out = T.dropout(x, 0.0, None, layer=0, slot=0)
    assert out is x


def test_dropout_probability_validated():
    x = Tensor(np.zeros((1, 2)))
    with pytest.raises(ValueError):
        T.dropout(x, 1.0, None, 0, 0)
    with pytest.raises(ValueError):
        T.dropout(x, -0.1, None, 0, 0)


def test_dropout_masks_are_counter_determined():
    x = Tensor(np.ones((2, 5)))
    stream = T.DropoutRng(seed=7, step=3, example_ids=[10, 11])
    a = T.dropout(x, 0.5, stream, layer=1, slot=0).data
    b = T.dropout(x, 0.5, T.DropoutRng(7, 3, [10, 11]), layer=1, slot=0).data
    assert np.array_equal(a, b)
    # a different slot draws a different mask
    c = T.dropout(x, 0.5, stream, layer=1, slot=1).data
    assert not np.array_equal(a, c)
    # per-example keying: swapping rows swaps masks
    d = T.dropout(x, 0.5, T.DropoutRng(7, 3, [11, 10]), layer=1, slot=0).data
    assert np.array_equal(d[0], a[1]) and np.array_equal(d[1], a[0])


def test_embedding_gradient_is_scatter_add():
    g = rng(10)
    table = g.normal(size=(5, 3))
    ids = np.array([1, 3, 1])
    upstream = g.normal(size=(3, 3))

    t = Tensor(table.copy(), requires_grad=True)
    with Tape() as tape:
        looked = T.embedding_lookup(t, ids)
        loss = T.sum_all(T.mul(looked, Tensor(upstream)))
    tape.backward(loss)

    numeric = finite_difference(lambda tb: (tb[ids] * upstream).sum(), [table], 0)
    assert np.max(np.abs(t.grad - numeric)) < 1e-6
    assert np.allclose(t.grad[1], upstream[0] + upstream[2])
    assert np.allclose(t.grad[0], 0.0)


def test_embedding_rejects_out_of_range_ids():
    with pytest.raises(IndexError):
        T.embedding_lookup(Tensor(np.zeros((4, 2))), np.array([4]))


@pytest.mark.parametrize("seed", range(6))
def test_elementwise_and_structural_gradchecks(seed):
    g = rng(100 + seed)
    a = g.normal(size=(3, 4))
    b = g.normal(size=(3, 4))
    bias = g.normal(size=4)

    assert_gradcheck(lambda x, y: T.sum_all(T.add(x, y)), lambda x, y: (x + y).sum(), [a, b])
    assert_gradcheck(lambda x, y: T.sum_all(T.mul(x, y)), lambda x, y: (x * y).sum(), [a, b])
    assert_gradcheck(lambda x, v: T.sum_all(T.add(x, v)), lambda x, v: (x + v).sum(), [a, bias])
    assert_gradcheck(lambda x: T.sum_all(T.scale(x, 2.5)), lambda x: (2.5 * x).sum(), [a])
    weights = g.normal(size=(3, 4))
    assert_gradcheck(
        lambda x: T.sum_all(T.mul(T.gelu(x), Tensor(weights))),
        lambda x: (0.5 * x * (1 + erf(x / np.sqrt(2))) * weights).sum(),
        [a],
    )
    assert_gradcheck(
        lambda x: T.sum_all(T.mul(T.tanh(x), Tensor(weights))),
        lambda x: (np.tanh(x) * weights).sum(),
        [a],
    )
    assert_gradcheck(
        lambda x: T.sum_all(T.mul(T.transpose(x, (1, 0)), Tensor(weights.T))),
        lambda x: (x.T * weights.T).sum(),
        [a],
    )
    assert_gradcheck(
        lambda x: T.sum_all(T.mul(T.reshape(x, (2, 6)), Tensor(weights.reshape(2, 6)))),
        lambda x: (x.reshape(2, 6) * weights.reshape(2, 6)).sum(),
        [a],
    )
    assert_gradcheck(
        lambda x: T.sum_all(T.mul(T.narrow(x, 1, 1, 2), Tensor(weights[:, 1:3]))),
        lambda x: (x[:, 1:3] * weights[:, 1:3]).sum(),
        [a],
    )
    assert_gradcheck(
        lambda x: T.sum_all(T.mul(T.select(x, 0, 1), Tensor(weights[:, 0]))),
        lambda x: (x[:, 0] * weights[:, 0]).sum(),
        [a],
    )


def test_softmax_gradcheck_and_mask():
    g = rng(11)
    x = g.normal(size=(2, 5))
    w = g.normal(size=(2, 5))
    masked = np.zeros((2, 5))
    masked[:, 3:] = T.MASK_VALUE

    def np_softmax(x):
        z = x + masked
        z = z - z.max(-1, keepdims=True)
        e = np.exp(z)
        return ((e / e.sum(-1, keepdims=True)) * w).sum()

    assert_gradcheck(
        lambda t: T.sum_all(T.mul(T.softmax(t, additive_mask=masked), Tensor(w))),
        np_softmax,
        [x],
    )


def test_softmax_rows_sum_to_one():
    x = rng(12).normal(size=(4, 9)) * 5
    out = T.softmax(Tensor(x)).data
    assert np.all(np.abs(out.sum(-1) - 1.0) < 1e-6)


def test_dropout_gradcheck_fixed_mask():
    g = rng(13)
    x = g.normal(size=(2, 6))
    stream = T.DropoutRng(seed=3, step=0, example_ids=[0, 1])
    mask = stream.keep_mask(layer=0, slot=0, shape=(2, 6), p=0.4)

    assert_gradcheck(
        lambda t: T.sum_all(T.dropout(t, 0.4, T.DropoutRng(3, 0, [0, 1]), 0, 0)),
        lambda x: (x * mask).sum(),
        [x],
    )


# ---------------------------------------------------------------------------
# tape behaviour
# ---------------------------------------------------------------------------


def test_backward_twice_is_an_error():
    x = Tensor(np.ones(3), requires_grad=True)
    with Tape() as tape:
        loss = T.sum_all(x)
    tape.backward(loss)
    with pytest.raises(RuntimeError):
        tape.backward(loss)


def test_backward_releases_consumed_nodes():
    # Tensor has __slots__ and no weakref slot, so watch an intermediate's array
    x = Tensor(np.linspace(-1.0, 1.0, 5), requires_grad=True)
    with Tape() as tape:
        h = T.gelu(x)
        loss = T.sum_all(h)
    held = weakref.ref(h.data)
    del h
    assert held() is not None  # the live tape's nodes still hold it
    tape.backward(loss)
    assert held() is None
    assert x.grad is not None


def test_backward_linearity():
    g = rng(14)
    x_data = g.normal(size=(3, 3))

    def run(which):
        x = Tensor(x_data.copy(), requires_grad=True)
        with Tape() as tape:
            a = T.sum_all(T.gelu(x))
            b = T.sum_all(T.mul(x, x))
            loss = {"a": a, "b": b, "sum": T.add(a, b)}[which]
        tape.backward(loss)
        return x.grad

    assert np.allclose(run("sum"), run("a") + run("b"), rtol=1e-12)


def test_repeated_runs_bit_identical():
    def run():
        g = np.random.default_rng(99)
        x = Tensor(g.normal(size=(4, 4)), requires_grad=True)
        stream = T.DropoutRng(seed=5, step=2, example_ids=[0, 1, 2, 3])
        with Tape() as tape:
            h = T.dropout(T.gelu(x), 0.3, stream, 0, 0)
            loss = T.sum_all(T.mul(h, h))
        tape.backward(loss)
        return loss.item(), x.grad.copy()

    l1, g1 = run()
    l2, g2 = run()
    assert l1 == l2
    assert np.array_equal(g1, g2)


def test_checkpoint_matches_plain_backward_bitwise():
    g = rng(15)
    x_data = g.normal(size=(2, 8)).astype(np.float32)
    w_data = g.normal(size=(8, 8)).astype(np.float32)

    def block(params, stream):
        def fn(h):
            h = T.matmul(h, params)
            h = T.gelu(h)
            return T.dropout(h, 0.25, stream, 0, 0)

        return fn

    def run(use_checkpoint):
        x = Tensor(x_data.copy(), requires_grad=True)
        w = Tensor(w_data.copy(), requires_grad=True)
        stream = T.DropoutRng(seed=1, step=0, example_ids=[0, 1])
        fn = block(w, stream)
        with Tape() as tape:
            h = T.checkpoint(fn, x) if use_checkpoint else fn(x)
            loss = T.sum_all(T.mul(h, h))
        tape.backward(loss)
        return loss.item(), x.grad.copy(), w.grad.copy()

    plain = run(False)
    ckpt = run(True)
    assert plain[0] == ckpt[0]
    assert np.array_equal(plain[1], ckpt[1])
    assert np.array_equal(plain[2], ckpt[2])


# ---------------------------------------------------------------------------
# dropout stream contract
# ---------------------------------------------------------------------------


def test_dropout_keep_rate_matches_one_minus_p():
    for p in (0.1, 0.3, 0.5):
        mask = T.DropoutRng(seed=11, step=4, example_ids=[3, 1, 4, 5]).keep_mask(2, 1, (4, 512, 512), p)
        kept = mask > 0
        # 1M Bernoulli(1 - p) draws: the standard error is below 5e-4
        assert abs(kept.mean() - (1.0 - p)) < 2.5e-3
        assert np.all(np.abs(kept.mean(axis=(1, 2)) - (1.0 - p)) < 5e-3)
        # neighbouring elements are independent: both kept at rate (1 - p)**2
        pairs = (kept[..., 1:] & kept[..., :-1]).mean()
        assert abs(pairs - (1.0 - p) ** 2) < 2.5e-3
        assert set(np.unique(mask).tolist()) == {0.0, float(np.float32(1.0 / (1.0 - p)))}


def test_dropout_mask_ignores_row_position():
    full = T.DropoutRng(seed=5, step=9, example_ids=[0, 1, 2, 3]).keep_mask(1, 2, (4, 3, 7), 0.4)
    shard = T.DropoutRng(seed=5, step=9, example_ids=[2, 3]).keep_mask(1, 2, (2, 3, 7), 0.4)
    assert np.array_equal(full[2:], shard)


def test_dropout_mask_depends_on_every_key_field():
    def mask(seed=1, step=2, layer=3, slot=4):
        return T.DropoutRng(seed, step, [0, 1]).keep_mask(layer, slot, (2, 64), 0.5)

    base = mask()
    assert np.array_equal(base, mask())
    for changed in (dict(seed=2), dict(step=3), dict(layer=4), dict(slot=5)):
        assert not np.array_equal(base, mask(**changed)), changed
    # rows keyed by different example ids differ too
    assert not np.array_equal(base[0], base[1])


def test_dropout_p_near_one_clamps_threshold():
    for p in (1.0 - 2.0**-40, float(np.nextafter(1.0, 0.0))):
        mask = T.DropoutRng(0, 0, [0, 1]).keep_mask(0, 0, (2, 1000), p)
        assert mask.dtype == np.float32
        assert np.all(np.isfinite(mask))
        assert np.count_nonzero(mask) <= 1
        out = T.dropout(Tensor(np.ones((2, 1000), dtype=np.float32)), p, T.DropoutRng(0, 0, [0, 1]), 0, 0)
        assert np.all(np.isfinite(out.data))


# ---------------------------------------------------------------------------
# erf (the gelu kernel) against math.erf
# ---------------------------------------------------------------------------

ERF32_BOUND = 2.0**-21


@settings(max_examples=400, deadline=None)
@given(
    st.one_of(
        st.lists(st.floats(width=32), min_size=1, max_size=24).map(lambda v: np.array(v, dtype=np.float32)),
        st.lists(st.floats(), min_size=1, max_size=24).map(lambda v: np.array(v, dtype=np.float64)),
    )
)
def test_erf_property_against_math_erf(x):
    y = T._erf(x)
    assert y.dtype == x.dtype and y.shape == x.shape
    nan = np.isnan(x)
    assert np.array_equal(np.isnan(y), nan)
    num, xs = y[~nan], x[~nan]
    assert np.all(np.abs(num) <= 1.0)
    mirrored = T._erf(-x)[~nan]
    assert np.array_equal(mirrored, -num) and np.array_equal(np.signbit(mirrored), ~np.signbit(num))
    exact = erf(xs.astype(np.float64))
    if x.dtype == np.float32:
        assert np.all(np.abs(num - exact) <= ERF32_BOUND)
    else:
        assert np.array_equal(num, exact)


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
def test_erf_signed_zero_infinity_and_nan(dtype):
    y = T._erf(np.array([0.0, -0.0, np.inf, -np.inf, np.nan], dtype=dtype))
    assert y.dtype == dtype
    assert list(y[:4]) == [0.0, 0.0, 1.0, -1.0]
    assert list(np.signbit(y[:2])) == [False, True]
    assert np.isnan(y[4])
    assert T._erf(np.array(0.5, dtype=dtype)).shape == ()


def test_erf_float32_dense_grid():
    x = np.linspace(-6.0, 6.0, 400_001, dtype=np.float32)
    y = T._erf(x)
    assert np.abs(y - erf(x.astype(np.float64))).max() <= ERF32_BOUND
    assert np.abs(y).max() <= 1.0


# ---------------------------------------------------------------------------
# dtype preservation
# ---------------------------------------------------------------------------


class _RecordingTape(Tape):
    """A tape that also keeps each node's output and backward closure."""

    def __init__(self):
        super().__init__()
        self.recorded = []

    def record(self, inputs, output, backward_fn):
        super().record(inputs, output, backward_fn)
        self.recorded.append((output, backward_fn))


def _primitive_cases(dtype):
    g = rng(21)

    def arr(*shape):
        return g.normal(size=shape).astype(dtype)

    causal = np.where(np.tri(4, dtype=bool), 0.0, T.MASK_VALUE).astype(dtype)
    ids = np.array([[0, 2, 1], [3, 3, 0]])
    return {
        "add": (lambda a, b: T.add(a, b), [arr(2, 3, 4), arr(4)]),
        "add_mask": (lambda a: T.add(a, Tensor(causal)), [arr(2, 4, 4)]),
        "mul": (lambda a, b: T.mul(a, b), [arr(2, 3), arr(2, 3)]),
        "scale": (lambda a: T.scale(a, 0.125), [arr(2, 3)]),
        "matmul": (lambda a, b: T.matmul(a, b), [arr(2, 3, 4), arr(4, 5)]),
        "matmul_batched": (lambda a, b: T.matmul(a, b), [arr(2, 3, 4), arr(2, 4, 5)]),
        "transpose": (lambda a: T.transpose(a, (1, 0, 2)), [arr(2, 3, 4)]),
        "reshape": (lambda a: T.reshape(a, (6, 4)), [arr(2, 3, 4)]),
        "narrow": (lambda a: T.narrow(a, 1, 1, 2), [arr(2, 4)]),
        "select": (lambda a: T.select(a, 0, 1), [arr(2, 3, 4)]),
        "sum_all": (lambda a: T.sum_all(a), [arr(2, 3)]),
        "gelu": (lambda a: T.gelu(a), [arr(2, 3)]),
        "tanh": (lambda a: T.tanh(a), [arr(2, 3)]),
        "softmax": (lambda a: T.softmax(a, additive_mask=causal), [arr(2, 4, 4)]),
        "layer_norm": (lambda x, w, b: T.layer_norm(x, w, b), [arr(2, 3, 4), arr(4), arr(4)]),
        "embedding_lookup": (lambda t: T.embedding_lookup(t, ids), [arr(4, 5)]),
        "dropout": (lambda a: T.dropout(a, 0.3, T.DropoutRng(0, 0, [0, 1]), 0, 0), [arr(2, 3)]),
        "softmax_cross_entropy": (
            lambda a: T.softmax_cross_entropy(a, ids, np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 1.0]])),
            [arr(2, 3, 4)],
        ),
        "softmax_cross_entropy_normalized": (
            lambda a: T.softmax_cross_entropy(a, ids, normalizer=12.0),
            [arr(2, 3, 4)],
        ),
        "checkpoint": (lambda a, w: T.checkpoint(lambda h: T.gelu(T.matmul(h, w)), a), [arr(2, 3), arr(3, 3)]),
    }


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
@pytest.mark.parametrize("prim", sorted(_primitive_cases(np.float64)))
def test_primitive_preserves_dtype_forward_and_backward(prim, dtype):
    fn, arrays = _primitive_cases(dtype)[prim]
    inputs = [Tensor(a, requires_grad=True) for a in arrays]
    with _RecordingTape() as tape:
        out = fn(*inputs)
    assert out.dtype == dtype, f"{prim} forward returned {out.dtype}"
    assert tape.recorded, f"{prim} recorded nothing"
    # call every backward closure directly: Tape.backward casts what it
    # accumulates, which would hide a closure that returns another dtype
    for node_out, backward_fn in tape.recorded:
        assert node_out.dtype == dtype
        for grad in backward_fn(np.ones_like(node_out.data)):
            if grad is not None:
                assert grad.dtype == dtype, f"{prim} backward returned {grad.dtype}"
