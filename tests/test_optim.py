import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stacklm.model import ConfigError, ModelConfig, ModelParams, build_model, wants_weight_decay
from stacklm.optim import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    BERT_PRETRAIN_SCHEDULE,
    CHUNK,
    GPT_PRETRAIN_SCHEDULE,
    WEIGHT_DECAY,
    LossScaler,
    OptimizerState,
    ScheduleError,
    TrainSchedule,
    adam_step,
    clip_global_norm,
    loss_scaler_step,
    lr_at,
)
from stacklm.tensor import Tensor


# ---------------------------------------------------------------------------
# learning-rate schedule
# ---------------------------------------------------------------------------


def test_gpt_schedule_anchors():
    s = GPT_PRETRAIN_SCHEDULE
    assert lr_at(s, 3000) == pytest.approx(1.5e-4, rel=0, abs=0)
    assert lr_at(s, 300_000) == 1e-5
    assert lr_at(s, 450_000) == 1e-5
    midpoint = 3000 + (300_000 - 3000) // 2
    assert lr_at(s, midpoint) == pytest.approx(8.0e-5, rel=1e-12)


def test_bert_schedule_anchors():
    s = BERT_PRETRAIN_SCHEDULE
    assert s.decay_shape == "linear"
    assert lr_at(s, 10_000) == pytest.approx(1.0e-4)
    assert lr_at(s, 0) == 0.0
    # linear decay: three quarters through the decay leg
    step = 10_000 + (s.total_steps - 10_000) * 3 // 4
    assert lr_at(s, step) == pytest.approx(0.25e-4, rel=1e-9)
    assert lr_at(s, s.total_steps) == 0.0


def test_schedule_validation():
    with pytest.raises(ScheduleError):
        TrainSchedule(1e-4, 0, warmup_steps=10, total_steps=5)
    with pytest.raises(ScheduleError):
        TrainSchedule(1e-4, 2e-4, warmup_steps=0, total_steps=5)
    with pytest.raises(ScheduleError):
        TrainSchedule(1e-4, 0, 0, 5, decay_shape="staircase")
    with pytest.raises(ScheduleError):
        lr_at(GPT_PRETRAIN_SCHEDULE, -1)


@settings(max_examples=60, deadline=None)
@given(
    peak=st.floats(1e-6, 1e-2),
    frac=st.floats(0, 1),
    warmup=st.integers(0, 50),
    extra=st.integers(1, 200),
    shape=st.sampled_from(["cosine", "linear"]),
)
def test_schedule_continuous_and_monotone(peak, frac, warmup, extra, shape):
    s = TrainSchedule(peak, peak * frac, warmup, warmup + extra, shape)
    if warmup > 0:
        ramp = [lr_at(s, k) for k in range(warmup + 1)]
        assert all(b >= a for a, b in zip(ramp, ramp[1:]))
        assert ramp[-1] == pytest.approx(peak)
    tail = [lr_at(s, k) for k in range(warmup, warmup + extra + 10)]
    assert all(b <= a + 1e-18 for a, b in zip(tail, tail[1:]))
    assert tail[0] == pytest.approx(peak)
    assert tail[-1] == pytest.approx(s.min_lr, abs=1e-18)


# ---------------------------------------------------------------------------
# gradient clipping
# ---------------------------------------------------------------------------


LOSS_SCALES = (1.0, 2.0, 2.0**16)


def unscale_then_clip(grads, max_norm, loss_scale):
    """Reference: divide by the loss scale, then clip the unscaled gradients."""
    unscaled = {name: g / loss_scale for name, g in grads.items()}
    norm = math.sqrt(sum(float(np.sum(np.square(g, dtype=np.float64))) for g in unscaled.values()))
    if norm <= max_norm:
        return unscaled, norm
    return {name: g * (max_norm / norm) for name, g in unscaled.items()}, norm


def test_clip_below_threshold_unchanged():
    grads = {"a": np.array([0.3, 0.4])}
    out, norm = clip_global_norm(grads, 1.0)
    assert norm == pytest.approx(0.5)
    assert out["a"] is grads["a"]
    for scale in LOSS_SCALES:
        scaled = {"a": np.array([0.3, 0.4]) * scale}
        expect = unscale_then_clip(scaled, 1.0, scale)[0]["a"]
        out, norm = clip_global_norm(scaled, 1.0, loss_scale=scale)
        assert norm == pytest.approx(0.5)
        assert np.array_equal(out["a"], [0.3, 0.4])  # unscaled with the given scale
        assert np.array_equal(out["a"], expect)


def test_clip_three_four_five():
    out, norm = clip_global_norm({"a": np.array([3.0, 4.0])}, 1.0)
    assert norm == pytest.approx(5.0)
    assert np.allclose(out["a"], [0.6, 0.8])
    for scale in LOSS_SCALES:
        scaled = {"a": np.array([3.0, 4.0], dtype=np.float32) * scale}
        expect = unscale_then_clip(scaled, 1.0, scale)[0]["a"]
        out, norm = clip_global_norm(scaled, 1.0, loss_scale=scale)
        assert norm == 5.0
        assert np.array_equal(out["a"], expect)


def test_clip_concatenation_invariance():
    split, norm_split = clip_global_norm({"a": np.array([3.0]), "b": np.array([4.0])}, 1.0)
    joint, norm_joint = clip_global_norm({"ab": np.array([3.0, 4.0])}, 1.0)
    assert norm_split == norm_joint
    assert np.allclose(np.concatenate([split["a"], split["b"]]), joint["ab"])


def test_clip_nonfinite_signals_overflow():
    # a float64 gradient whose squares overflow counts as an overflow too
    for bad in (np.nan, np.inf, 1e200):
        for scale in LOSS_SCALES:
            grads = {"a": np.array([bad, 1.0]), "b": np.ones(3, dtype=np.float32)}
            with np.errstate(over="ignore"):
                out, norm = clip_global_norm(grads, 1.0, loss_scale=scale)
            assert not np.isfinite(norm)
            assert np.isnan(norm) == np.isnan(bad), (bad, scale)
            assert out["a"] is grads["a"] and out["b"] is grads["b"]


def test_clip_scales_the_given_arrays_in_place():
    grads = {"a": np.array([3.0, 4.0], dtype=np.float32), "b": np.array([[0.0]], dtype=np.float32)}
    before = {name: g for name, g in grads.items()}
    out, norm = clip_global_norm(grads, 1.0, loss_scale=2.0)
    assert norm == 2.5
    assert out is grads and all(out[name] is before[name] for name in grads)
    assert np.array_equal(grads["a"], np.array([0.6, 0.8], dtype=np.float32))


# Set before the chunked sum was measured: pairwise float64 sums of squares
# over chunks of CHUNK elements err by a few ulp, far below this.
CHUNKED_NORM_RTOL = 1e-13


@pytest.mark.parametrize("order", ["C", "F"])
def test_chunked_norm_matches_exact_sum(order):
    rng = np.random.default_rng(3)
    # several chunks, a ragged last one, and magnitudes spread over many octaves
    grads = {
        "w": np.asarray(rng.standard_normal((301, 257)) * np.exp(rng.uniform(-8, 8, (301, 257))), order=order),
        "b": rng.standard_normal(CHUNK + 5),
    }
    grads = {name: g.astype(np.float32, order="K") for name, g in grads.items()}
    assert grads["w"].flags[f"{order}_CONTIGUOUS"] and grads["w"].size > 2 * CHUNK
    exact = math.sqrt(math.fsum(float(x) ** 2 for g in grads.values() for x in g.ravel()))
    _, norm = clip_global_norm(grads, max_norm=math.inf)
    assert math.isclose(norm, exact, rel_tol=CHUNKED_NORM_RTOL)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=20))
def test_clip_post_norm_bounded(values):
    out, _ = clip_global_norm({"g": np.array(values)}, 1.0)
    assert np.sqrt(np.sum(out["g"] ** 2)) <= 1.0 + 1e-6


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=20),
    st.sampled_from(LOSS_SCALES),
    st.sampled_from([1e-3, 1.0, 1e5]),
    st.sampled_from([np.float32, np.float64]),
)
@example([6.0, 1.5e-323], 2.0, 1.0, np.float64)  # 0 here, 5e-324 divided first
def test_clip_unscale_matches_unscale_then_clip(values, scale, max_norm, dtype):
    """One call equals unscale-then-clip bit for bit, except at subnormal unscaled values.

    ``values`` still carry the scale.  Dividing by a power-of-two scale is
    exact unless the quotient is subnormal; there the reference rounds twice
    (divide, then clip) and the single multiply rounds once, so a gradient
    may differ by one subnormal step.  The float64 norm is exact unless an
    unscaled value or its square is subnormal.
    """
    half = len(values) // 2
    grads = {"g": np.array(values[:half], dtype=dtype), "h": np.array(values[half:], dtype=dtype)}
    expect, expect_norm = unscale_then_clip(grads, max_norm, scale)
    out, norm = clip_global_norm({name: g.copy() for name, g in grads.items()}, max_norm, loss_scale=scale)
    assert math.sqrt(sum(float(np.sum(np.square(g, dtype=np.float64))) for g in out.values())) <= max_norm * (1 + 1e-6)
    tiny = np.finfo(dtype).tiny
    norm_floor = max(tiny, math.sqrt(np.finfo(np.float64).tiny))
    norm_exact = True
    for name, g in grads.items():
        normal = (g == 0) | (np.abs(g / scale) >= tiny)
        assert out[name].dtype == dtype
        assert np.array_equal(out[name][normal], expect[name][normal]), name
        assert np.all(np.abs(out[name] - expect[name]) <= np.finfo(dtype).smallest_subnormal), name
        norm_exact &= bool(np.all((g == 0) | (np.abs(g / scale) >= norm_floor)))
    if norm_exact:
        assert norm == expect_norm
    else:  # subnormal parts move the norm by less than 1e-40
        assert math.isclose(norm, expect_norm, rel_tol=1e-15, abs_tol=1e-40)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


def toy_params():
    cfg = ModelConfig("decoder-only", 0, d_layer=4, n_heads=1, d_head=4, vocab_size=6, max_seq_len=4)
    return build_model(cfg, seed=0, dtype=np.float64)


def test_adam_zero_grads_no_decay_is_identity():
    params = toy_params()
    state = OptimizerState(params)
    before = {n: t.data.copy() for n, t in params.items()}
    adam_step(params, {n: np.zeros_like(t.data) for n, t in params.items()}, state, lr=1e-3)
    undecayed = [n for n, t in params.items() if not wants_weight_decay(n, t.shape)]
    assert undecayed
    for n in undecayed:
        assert np.array_equal(params[n].data, before[n])


def test_adam_lr_zero_is_identity_on_parameters():
    params = toy_params()
    state = OptimizerState(params)
    before = {n: t.data.copy() for n, t in params.items()}
    grads = {n: np.ones_like(t.data) for n, t in params.items()}
    adam_step(params, grads, state, lr=0.0)
    for n, t in params.items():
        assert np.array_equal(t.data, before[n])
    assert state.step == 1


def test_adam_single_step_hand_oracle():
    # p = 0, g = 1: first-step bias-corrected ratio is 1, so p -> -lr
    from stacklm.model import ModelParams
    from stacklm.tensor import Tensor

    params = ModelParams({"w": Tensor(np.zeros((1, 1)), requires_grad=True)})
    state = OptimizerState(params)
    adam_step(params, {"w": np.ones((1, 1))}, state, lr=1e-3)
    assert params["w"].data[0, 0] == pytest.approx(-1e-3, rel=1e-6)


def test_decoupled_weight_decay_factor():
    from stacklm.model import ModelParams
    from stacklm.tensor import Tensor

    params = ModelParams({"w": Tensor(np.full((1, 2), 2.0), requires_grad=True)})
    state = OptimizerState(params)
    for _ in range(3):
        adam_step(params, {"w": np.zeros((1, 2))}, state, lr=0.5)
    assert np.allclose(params["w"].data, 2.0 * (1 - 0.5 * 0.01) ** 3)


def per_tensor_adam_step(params, grads, state, lr):
    """The per-tensor update the arena replaced: the reference for its per-element arithmetic."""
    state.step += 1
    c1 = 1.0 - ADAM_BETA1 ** state.step
    c2 = 1.0 - ADAM_BETA2 ** state.step
    for name, g in grads.items():
        tensor = params[name]
        if wants_weight_decay(name, tensor.shape) and lr != 0.0:
            tensor.data *= 1.0 - lr * WEIGHT_DECAY
        m = state.m[name]
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * np.square(g)
        if lr != 0.0:
            tensor.data -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_arena_adam_is_bit_identical_to_per_tensor_adam(dtype):
    # a tied tok_emb larger than a chunk, so the decayed and undecayed segments both span chunks
    cfg = ModelConfig("encoder-only", 2, d_layer=64, n_heads=4, d_head=16, vocab_size=600, max_seq_len=32)
    arena = build_model(cfg, seed=4, dtype=dtype)
    assert arena.segments["undecayed"].stop - arena.segments["undecayed"].start > CHUNK
    ref_params = {name: Tensor(t.data.copy()) for name, t in arena.items()}
    ref_state = SimpleNamespace(step=0, m={name: np.zeros(t.shape, dtype) for name, t in arena.items()},
                                v={name: np.zeros(t.shape, dtype) for name, t in arena.items()})
    state = OptimizerState(arena)
    rng = np.random.default_rng(0)
    for lr in (1e-3, 0.0, 3e-2, 1e-3):
        grads = {name: (rng.standard_normal(t.shape) * 1e-2).astype(dtype) for name, t in arena.items()}
        per_tensor_adam_step(ref_params, grads, ref_state, lr)
        adam_step(arena, grads, state, lr)
        for name, t in arena.items():
            assert t.data.dtype == dtype
            for got, want in ((t.data, ref_params[name].data), (state.m[name], ref_state.m[name]),
                              (state.v[name], ref_state.v[name])):
                assert got.tobytes() == want.tobytes(), (name, lr)


def test_adam_needs_one_gradient_per_parameter():
    params = toy_params()
    state = OptimizerState(params)
    grads = {n: np.zeros_like(t.data) for n, t in params.items()}
    del grads["tok_emb"]
    with pytest.raises(ValueError, match="missing \\['tok_emb'\\]"):
        adam_step(params, grads, state, lr=1e-3)
    grads["tok_emb"] = np.zeros((1, 1))
    with pytest.raises(ValueError, match="gradient for tok_emb has shape"):
        adam_step(params, grads, state, lr=1e-3)


# ---------------------------------------------------------------------------
# the arena
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_arena_views_and_decayed_then_undecayed_layout(dtype):
    cfg = ModelConfig("encoder-decoder", 2, d_layer=8, n_heads=2, d_head=4, vocab_size=11, max_seq_len=8)
    params = build_model(cfg, seed=1, dtype=dtype)
    state = OptimizerState(params)
    flats = (params.flat, state.grad_flat, state.m_flat, state.v_flat)
    assert all(flat.dtype == dtype and flat.shape == (params.element_count(),) for flat in flats)
    decayed, undecayed = params.segments["decayed"], params.segments["undecayed"]
    assert (decayed.start, decayed.stop, undecayed.stop) == (0, undecayed.start, params.flat.size)
    for name, t in params.items():
        offset, shape = params.table[name]
        span = slice(offset, offset + t.size)
        inside = decayed if wants_weight_decay(name, shape) else undecayed
        assert inside.start <= span.start and span.stop <= inside.stop, name
        for flat, view in zip(flats, (t.data, state.grads[name], state.m[name], state.v[name])):
            assert view.shape == shape == t.shape and view.dtype == dtype
            assert view.base is not None and np.shares_memory(view, flat[span]), name
            assert view.__array_interface__["data"][0] == flat[span].__array_interface__["data"][0], name


def test_arena_copies_its_tensors_in_and_keeps_one_dtype():
    data = np.ones((2, 3), dtype=np.float32)
    params = ModelParams({"w": Tensor(data), "b": Tensor(np.zeros(3, dtype=np.float32))})
    assert not np.shares_memory(params["w"].data, data)
    params["w"].data += 1.0
    assert np.all(data == 1.0)
    with pytest.raises(ConfigError, match="parameters mix dtypes"):
        ModelParams({"w": Tensor(data), "b": Tensor(np.zeros(3))})


def test_decay_set_excludes_vectors_and_embeddings():
    assert wants_weight_decay("block0.attn.w_qkv", (4, 12))
    assert wants_weight_decay("mlm.w_transform", (4, 4))
    assert not wants_weight_decay("tok_emb", (100, 4))
    assert not wants_weight_decay("pos_emb", (16, 4))
    assert not wants_weight_decay("block0.ln1.gain", (4,))
    assert not wants_weight_decay("block0.ln1.bias", (4,))
    assert not wants_weight_decay("block0.attn.b_qkv", (12,))


# ---------------------------------------------------------------------------
# loss scaler
# ---------------------------------------------------------------------------


def test_growth_after_interval():
    scaler = LossScaler(scale=4.0, growth_interval=3, growth_factor=2.0)
    for _ in range(2):
        loss_scaler_step(scaler, True)
    assert scaler.scale == 4.0 and scaler.consecutive_good_steps == 2
    loss_scaler_step(scaler, True)
    assert scaler.scale == 8.0 and scaler.consecutive_good_steps == 0


def test_overflow_backs_off_and_resets():
    scaler = LossScaler(scale=16.0, growth_interval=10)
    loss_scaler_step(scaler, True)
    loss_scaler_step(scaler, False)
    assert scaler.scale == 8.0
    assert scaler.consecutive_good_steps == 0


def test_three_overflows_from_65536():
    scaler = LossScaler()
    assert scaler.scale == 65536.0
    for _ in range(3):
        loss_scaler_step(scaler, False)
    assert scaler.scale == 8192.0


def test_scaler_state_machine_exhaustive():
    """Every overflow/no-overflow sequence of length <= 12 against a
    independently coded reference transition table."""

    def reference(seq, scale0, interval):
        scale, counter = scale0, 0
        for overflow in seq:
            if overflow:
                scale *= 0.5
                counter = 0
            else:
                counter += 1
                if counter >= interval:
                    scale *= 2.0
                    counter = 0
        return scale, counter

    for length in range(1, 13):
        if length > 6:  # full enumeration up to 6, sampled corners beyond
            sequences = [tuple((i >> j) & 1 for j in range(length)) for i in range(0, 2**length, 37)]
        else:
            sequences = list(itertools.product([0, 1], repeat=length))
        for seq in sequences:
            scaler = LossScaler(scale=256.0, growth_interval=3)
            for overflow in seq:
                loss_scaler_step(scaler, not overflow)
            expect_scale, expect_counter = reference(seq, 256.0, 3)
            assert scaler.scale == expect_scale, seq
            assert scaler.consecutive_good_steps == expect_counter, seq
