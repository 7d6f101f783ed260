import functools
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stacklm import objectives
from stacklm import tensor as T
from stacklm.bpe import train_bpe
from stacklm.data import MaskingPolicy, PackedSequenceBatch, make_lm_batch, make_mlm_batch, make_seq2seq_batch, pack_documents
from stacklm.engine import (
    EngineConfig,
    TrainEngine,
    load_engine_checkpoint,
    save_engine_checkpoint,
    train_loop,
)
from stacklm.model import ConfigError, ModelConfig, ModelParams, build_model, config_to_text, forward, load_checkpoint, save_checkpoint
from stacklm.optim import GROWTH_INTERVAL, LossScaler, TrainSchedule
from stacklm.tensor import DropoutRng, ShapeError, Tape
from test_model import with_classifier


def model_and_engine(family="decoder-only", n_layers=2, seed=0, recompute=False, scaler=True, dropout=0.1):
    cfg = ModelConfig(
        family, n_layers, d_layer=16, n_heads=2, d_head=8, vocab_size=31, max_seq_len=16, dropout_p=dropout
    )
    params = build_model(cfg, seed=seed)
    engine_cfg = EngineConfig(
        schedule=TrainSchedule(1e-3, 1e-4, warmup_steps=5, total_steps=400),
        use_loss_scaler=scaler,
        recompute_activations=recompute,
        seed=seed,
    )
    return cfg, params, TrainEngine(params, cfg, engine_cfg)


def update_from(engine, grads, loss_value):
    """Writes ``grads`` into the engine's arena, then takes its update step from the arena."""
    views = engine.params.views(engine.optimizer.grad_flat)
    for name, g in grads.items():
        views[name][...] = g
    return engine._apply_update(loss_value)


def clear_grads(params):
    for _, t in params.items():
        t.grad = None


def lm_batches(seed=0, seq_len=12, batch_size=4, vocab=31):
    rng = np.random.default_rng(seed)
    docs = [list(rng.integers(5, vocab, size=rng.integers(6, 30))) for _ in range(12)]
    packed = pack_documents(docs, seq_len, eod_id=0, pad_id=2)
    return lambda k: make_lm_batch(packed, k, batch_size)


def test_two_runs_same_seed_identical_trajectory():
    def run():
        _, _, engine = model_and_engine(seed=3)
        history = train_loop(engine, lm_batches(), n_steps=100)
        return [m.loss for m in history]

    assert run() == run()


def test_loss_decreases_on_repetitive_corpus():
    # committed smoke budget: 200 steps must at least halve the initial loss
    _, _, engine = model_and_engine(seed=1, dropout=0.0)
    docs = [[5, 6, 7, 8, 9, 10, 11, 12] * 4 for _ in range(8)]
    packed = pack_documents(docs, 12, eod_id=0, pad_id=2)
    history = train_loop(engine, lambda k: make_lm_batch(packed, k, 4), n_steps=200)
    assert history[-1].loss < 0.5 * history[0].loss


@pytest.mark.parametrize("family", ["decoder-only", "encoder-only", "encoder-decoder"])
def test_recompute_equivalence_bitwise(family):
    vocab = train_bpe("aa bb cc dd ee ff gg hh " * 8, 300)

    def batch_fn(cfg):
        rng = np.random.default_rng(7)
        docs = [list(rng.integers(5, 30, size=20)) for _ in range(6)]
        packed = pack_documents(docs, 12, eod_id=vocab.eod_id, pad_id=vocab.pad_id)
        if family == "encoder-only":
            return lambda k: make_mlm_batch(packed, k, 4, MaskingPolicy(), vocab, seed=5)
        if family == "encoder-decoder":
            return lambda k: make_seq2seq_batch(packed, k, 4, eod_id=vocab.eod_id)
        return lambda k: make_lm_batch(packed, k, 4)

    results = []
    for recompute in (False, True):
        cfg, params, engine = model_and_engine(family=family, n_layers=4, seed=11, recompute=recompute)
        history = train_loop(engine, batch_fn(cfg), n_steps=3)
        results.append((history, {n: t.data.copy() for n, t in params.items()}))
    (h_plain, p_plain), (h_ckpt, p_ckpt) = results
    assert [m.loss for m in h_plain] == [m.loss for m in h_ckpt]
    for name in p_plain:
        assert np.array_equal(p_plain[name], p_ckpt[name]), name


def shard_gradients_agree(engine, batch, n_shards):
    """Criterion 7's check: per tensor, the sharded gradients within 1e-6 relative of the 1-shard ones."""
    full_grads, full_loss = engine.compute_gradients(batch, n_shards=1)
    shard_grads, shard_loss = engine.compute_gradients(batch, n_shards=n_shards)
    assert list(shard_grads) == engine.params.names()
    assert shard_loss == pytest.approx(full_loss, rel=1e-6)
    for name in full_grads:
        a, b = shard_grads[name], full_grads[name]
        assert np.all(np.isfinite(a)), name
        denom = max(float(np.max(np.abs(b))), 1e-12)
        assert float(np.max(np.abs(a - b))) / denom < 1e-6, name


@pytest.mark.parametrize("family", ["decoder-only", "encoder-only", "encoder-decoder"])
@pytest.mark.parametrize("n_shards", [2, 4])
def test_data_parallel_matches_full_batch(family, n_shards):
    """Sharded gradients must agree with full-batch gradients to 1e-6
    relative (per tensor).  The comparison is on the reduced gradients: the
    optimizer step that follows is the same deterministic code path, and
    parameters with mathematically zero gradient (key-projection biases)
    make a post-update elementwise comparison meaningless."""
    vocab = train_bpe("aa bb cc dd ee ff gg hh " * 8, 300)
    rng = np.random.default_rng(17)
    docs = [list(rng.integers(5, 30, size=24)) for _ in range(8)]
    packed = pack_documents(docs, 12, eod_id=vocab.eod_id, pad_id=vocab.pad_id)
    if family == "encoder-only":
        batch_fn = lambda k: make_mlm_batch(packed, k, 8, MaskingPolicy(), vocab, seed=5)
    elif family == "encoder-decoder":
        batch_fn = lambda k: make_seq2seq_batch(packed, k, 8, eod_id=vocab.eod_id)
    else:
        batch_fn = lambda k: make_lm_batch(packed, k, 8)

    _, _, engine = model_and_engine(family=family, n_layers=2, seed=23)
    shard_gradients_agree(engine, batch_fn(0), n_shards)


@pytest.mark.parametrize("n_shards", [2, 4])
def test_encoder_shard_without_masked_positions_matches_full_batch(n_shards):
    """A shard whose rows have no masked position scores no row in the masked-LM head; the sum still matches."""
    batch = family_batches("encoder-only", batch_size=8)(0)
    batch.loss_mask[:4] = 0.0  # the first half: shard 0 of 2, shards 0 and 1 of 4
    assert batch.loss_mask[4:].any()
    _, _, engine = model_and_engine(family="encoder-only", seed=61)
    shard_gradients_agree(engine, batch, n_shards)


def test_encoder_batch_without_masked_positions_still_trains():
    batch = family_batches("encoder-only")(0)
    batch.loss_mask[...] = 0.0  # the token loss is exactly zero; the segment-order loss remains
    _, params, engine = model_and_engine(family="encoder-only", seed=67)
    shard_gradients_agree(engine, batch, 2)
    before = params.flat.copy()
    metrics = engine.data_parallel_step(batch, 2)
    assert not metrics.skipped and math.isfinite(metrics.loss) and math.isfinite(metrics.grad_norm)
    assert np.all(np.isfinite(params.flat)) and not np.array_equal(params.flat, before)


def family_batches(family, batch_size=4, seq_len=12):
    vocab = train_bpe("aa bb cc dd ee ff gg hh " * 8, 300)
    rng = np.random.default_rng(13)
    docs = [list(rng.integers(5, 30, size=20)) for _ in range(8)]
    packed = pack_documents(docs, seq_len, eod_id=vocab.eod_id, pad_id=vocab.pad_id)
    if family == "encoder-only":
        return lambda k: make_mlm_batch(packed, k, batch_size, MaskingPolicy(), vocab, seed=5)
    if family == "encoder-decoder":
        return lambda k: make_seq2seq_batch(packed, k, batch_size, eod_id=vocab.eod_id)
    return lambda k: make_lm_batch(packed, k, batch_size)


def full_batch_objective(params, cfg, batch, rng):
    """The family objective on the whole batch, with each loss's default normalizer."""
    if cfg.family == "decoder-only":
        out = forward(params, cfg, batch.ids, mode="train", rng=rng)
        return objectives.lm_loss(out.logits, batch)
    if cfg.family == "encoder-only":
        # the masked-LM head scores only the masked positions
        masked = np.flatnonzero(batch.loss_mask)
        out = forward(params, cfg, batch.ids, mode="train", rng=rng, type_ids=batch.type_ids, positions=masked)
        return T.add(objectives.mlm_loss(out.logits, batch, positions=masked), objectives.sop_loss(out.sop_logits, batch))
    out = forward(
        params, cfg, batch.ids, mode="train", rng=rng,
        source_ids=batch.source_ids, source_attention_mask=batch.source_mask,
    )
    return objectives.seq2seq_loss(out.logits, batch)


@pytest.mark.parametrize("family", ["decoder-only", "encoder-only", "encoder-decoder"])
def test_one_objective_serves_every_family(family):
    cfg, params, _ = model_and_engine(family=family, seed=37)
    batch = family_batches(family)(0)
    expected = full_batch_objective(params, cfg, batch, DropoutRng(0, 0, batch.example_ids))
    out = forward(
        params, cfg, batch.ids, mode="train", rng=DropoutRng(0, 0, batch.example_ids), type_ids=batch.type_ids,
        source_ids=batch.source_ids, source_attention_mask=batch.source_mask,
    )
    assert objectives.loss(out, batch, batch).item() == expected.item()


@pytest.mark.parametrize("dtype, bound", [(np.float64, 1e-12), (np.float32, 1e-6)], ids=["float64", "float32"])
def test_masked_positions_objective_equals_all_positions(dtype, bound):
    """Scoring only the masked positions is the all-position objective: the other positions weigh nothing."""
    cfg = ModelConfig("encoder-only", 2, d_layer=16, n_heads=2, d_head=8, vocab_size=31, max_seq_len=16)
    params = build_model(cfg, seed=71, dtype=dtype)
    batch = family_batches("encoder-only")(0)
    positions = objectives.scored_positions(cfg.family, batch)
    assert 0 < positions.size < batch.loss_mask.size
    results = []
    for scored in (None, positions):
        clear_grads(params)
        with Tape() as tape:
            out = forward(params, cfg, batch.ids, mode="train", rng=DropoutRng(0, 0, batch.example_ids),
                          type_ids=batch.type_ids, positions=scored)
            loss = objectives.loss(out, batch, batch)
        tape.backward(loss)
        results.append((loss.item(), {name: t.grad.copy() for name, t in params.items()}))
    (all_loss, all_grads), (masked_loss, masked_grads) = results
    assert abs(masked_loss - all_loss) <= bound * abs(all_loss)
    for name, g in all_grads.items():
        assert masked_grads[name].dtype == dtype
        assert np.max(np.abs(masked_grads[name] - g)) <= bound * max(np.max(np.abs(g)), 1e-30), name


def fine_tuned_encoder(seed=0, n_classes=3):
    cfg, params, _ = model_and_engine(family="encoder-only", seed=seed)
    return cfg, with_classifier(params, cfg, n_classes)


def classifier_batch(n_classes=3, batch_size=4, seq_len=10, seed=0):
    rng = np.random.default_rng(seed)
    ids = rng.integers(5, 31, size=(batch_size, seq_len))
    attend = np.ones(ids.shape)
    attend[0, seq_len // 2 :] = 0.0
    return PackedSequenceBatch(
        ids=ids, loss_mask=attend, example_ids=np.arange(batch_size),
        labels=rng.integers(0, n_classes, size=batch_size), type_ids=np.zeros_like(ids), attention_mask=attend,
    )


def eval_loss(params, cfg, batch, whole):
    out = forward(
        params, cfg, batch.ids, mode="eval", type_ids=batch.type_ids, attention_mask=batch.attention_mask,
        source_ids=batch.source_ids, source_attention_mask=batch.source_mask,
    )
    return objectives.loss(out, batch, whole).item()


@pytest.mark.parametrize("family", ["decoder-only", "encoder-only", "encoder-decoder", "classifier"])
def test_shard_losses_over_the_whole_batch_sum_to_its_loss(family):
    if family == "classifier":
        cfg, params = fine_tuned_encoder(seed=53)
        batch = classifier_batch(seed=53)
    else:
        cfg, params, _ = model_and_engine(family=family, seed=53)
        batch = family_batches(family)(1)
    full = eval_loss(params, cfg, batch, batch)
    shards = [eval_loss(params, cfg, batch.shard(i, 2), batch) for i in range(2)]
    assert sum(shards) == pytest.approx(full, rel=1e-6)
    # each shard really is normalized over the whole batch, not over itself
    assert all(0.0 < value < full for value in shards)


def test_objective_rejects_a_batch_for_the_other_head():
    cfg, params = fine_tuned_encoder(seed=59)
    pretraining = family_batches("encoder-only")(0)
    with pytest.raises(ShapeError):
        eval_loss(params, cfg, pretraining, pretraining)
    cfg, params, _ = model_and_engine(family="encoder-only", seed=59)
    batch = classifier_batch(seed=59)
    with pytest.raises(ShapeError):
        eval_loss(params, cfg, batch, batch)


def test_single_shard_is_exactly_train_step():
    """``n_shards=1`` equals a hand-built unsharded step bit for bit: one tape
    over the full batch, default normalizers, then the engine's update."""
    for family in ("decoder-only", "encoder-only", "encoder-decoder"):
        batch_fn = family_batches(family)
        _, params, engine = model_and_engine(family=family, seed=29)
        history = train_loop(engine, batch_fn, n_steps=3, n_shards=1)

        cfg, ref_params, ref = model_and_engine(family=family, seed=29)
        expected = []
        for k in range(3):
            batch = batch_fn(k)
            clear_grads(ref_params)
            rng = DropoutRng(ref.cfg.seed, ref.step, batch.example_ids)
            with Tape() as tape:
                loss = full_batch_objective(ref_params, cfg, batch, rng)
                scaled = T.scale(loss, ref.scaler.scale)
            tape.backward(scaled)
            grads = {n: t.grad if t.grad is not None else np.zeros_like(t.data) for n, t in ref_params.items()}
            expected.append(update_from(ref, grads, float(loss.data)))

        assert [m.to_json() for m in history] == [m.to_json() for m in expected], family
        for name, t in params.items():
            assert np.array_equal(t.data, ref_params[name].data), (family, name)


@pytest.mark.parametrize("family", ["decoder-only", "encoder-only", "encoder-decoder"])
def test_pretraining_reaches_every_parameter(family):
    _, params, engine = model_and_engine(family=family, seed=31)
    grads, _ = engine.compute_gradients(family_batches(family)(0), n_shards=2)
    assert list(grads) == params.names()


def test_parameter_without_gradient_is_rejected():
    # no decoder block reads a depth-0 encoder's output, so its final norm gets no gradient
    _, params, engine = model_and_engine(family="encoder-decoder", n_layers=0)
    before = {name: t.data.copy() for name, t in params.items()}
    with pytest.raises(ConfigError, match=r"does not reach parameters enc_final\.gain, enc_final\.bias$"):
        engine.data_parallel_step(family_batches("encoder-decoder")(0))
    assert engine.step == 0
    for name, t in params.items():
        assert np.array_equal(t.data, before[name]), name


SHADOW_STEPS = 10
# The standard for changes that move float32 bits; never widen it.  On the
# code it was set against, the largest deviation over seeds 0-5 and the three
# families was 1.18e-7; the bound is twice that, rounded up.
SHADOW_BOUND = 2.4e-7


def shadow_runs(family, seed):
    """Train float32 and a float64 shadow from the same init: the config, the init and (losses, params) per run."""
    cfg = ModelConfig(family, 2, d_layer=32, n_heads=2, d_head=16, vocab_size=31, max_seq_len=32, dropout_p=0.1)
    params32 = build_model(cfg, seed=seed)
    init = {name: t.data.astype(np.float64) for name, t in params32.items()}
    params64 = ModelParams({name: data.shape for name, data in init.items()}, np.float64)
    for name, data in init.items():
        params64[name].data[...] = data
    schedule = TrainSchedule(1e-3, 0.0, warmup_steps=2, total_steps=SHADOW_STEPS)
    batch_fn = family_batches(family, seq_len=32)
    runs = []
    for params in (params32, params64):
        engine = TrainEngine(params, cfg, EngineConfig(schedule, seed=seed))
        runs.append((np.array([m.loss for m in train_loop(engine, batch_fn, SHADOW_STEPS)]), params))
    return cfg, init, runs


def shadow_loss_deviation(family, seed):
    """Largest relative deviation of float32 step losses from a float64 run from the same init."""
    _, _, ((losses32, _), (losses64, _)) = shadow_runs(family, seed)
    return float(np.max(np.abs(losses32 - losses64) / np.abs(losses64)))


@pytest.mark.parametrize("family", ["decoder-only", "encoder-only", "encoder-decoder"])
def test_float32_losses_track_float64_shadow(family):
    # nonzero: the shadow really ran in float64
    assert 0.0 < shadow_loss_deviation(family, seed=0) < SHADOW_BOUND


# The per-parameter standard: each parameter's float32 movement over the
# shadow run, relative to its own float64 movement.  Set on the code before
# the flat arena: the largest deviation over seeds 0-5 and the three families
# was 4.84e-5 (a layer-norm gain); the bound is twice that, rounded up.
# Never widen it.
SHADOW_PARAM_BOUND = 1.0e-4


def shadow_parameter_deviations(family, seed):
    """Each parameter's relative deviation ||d32 - d64|| / ||d64|| of its float32 movement from its float64 one.

    The key biases are left out: ``cross.b_k`` and the k third of
    ``attn.b_qkv`` add the same score to every key of a query, which softmax
    cancels, so their gradient is exactly zero.  Float32 Adam still moves
    them by normalized rounding noise, and float64 by almost nothing.
    """
    cfg, init, ((_, params32), (_, params64)) = shadow_runs(family, seed)
    deviations = {}
    for name, start in init.items():
        if name.endswith("cross.b_k"):
            continue
        keep = np.ones(start.shape, dtype=bool)
        if name.endswith("attn.b_qkv"):
            keep[cfg.d_layer : 2 * cfg.d_layer] = False
        moved32 = params32[name].data.astype(np.float64)[keep] - start[keep]
        moved64 = params64[name].data[keep] - start[keep]
        deviations[name] = float(np.linalg.norm(moved32 - moved64) / np.linalg.norm(moved64))
    return deviations


@pytest.mark.parametrize("family", ["decoder-only", "encoder-only", "encoder-decoder"])
def test_float32_parameters_track_float64_shadow(family):
    deviations = shadow_parameter_deviations(family, seed=0)
    assert all(0.0 < value < SHADOW_PARAM_BOUND for value in deviations.values()), deviations


def test_non_divisible_shards_rejected():
    _, _, engine = model_and_engine()
    batch = lm_batches()(0)  # batch of 4
    from stacklm.data import DataError

    with pytest.raises(DataError):
        engine.data_parallel_step(batch, 3)


def test_shard_compute_order_does_not_matter():
    # compute shard gradients in reverse order, reduce in fixed order: same result
    batch_fn = lm_batches(seed=9)
    _, params_a, engine_a = model_and_engine(seed=31)
    metrics_a = engine_a.data_parallel_step(batch_fn(0), 2)

    _, params_b, engine_b = model_and_engine(seed=31)
    engine = engine_b
    batch = batch_fn(0)
    scale = engine.scaler.scale
    from stacklm.tensor import DropoutRng, Tape
    from stacklm import tensor as T

    shard_grads = {}
    for index in reversed(range(2)):
        shard = batch.shard(index, 2)
        clear_grads(engine.params)
        rng = DropoutRng(engine.cfg.seed, engine.step, shard.example_ids)
        with Tape() as tape:
            out = forward(engine.params, engine.model_cfg, shard.ids, mode="train", rng=rng)
            loss = objectives.loss(out, shard, batch)
            scaled = T.scale(loss, scale)
        tape.backward(scaled)
        shard_grads[index] = {name: t.grad for name, t in engine.params.items() if t.grad is not None}
    combined = {}
    for name in engine.params.names():
        combined[name] = shard_grads[0][name] + shard_grads[1][name]
    clear_grads(engine.params)
    update_from(engine, combined, 0.0)
    for name, t in params_a.items():
        assert np.array_equal(t.data, params_b[name].data), name


def test_metrics_stream_fields():
    _, _, engine = model_and_engine()
    stream = io.StringIO()
    train_loop(engine, lm_batches(), n_steps=3, metrics_stream=stream)
    lines = stream.getvalue().strip().splitlines()
    assert len(lines) == 3
    record = json.loads(lines[0])
    assert set(record) == {"step", "loss", "lr", "grad_norm", "loss_scale", "skipped"}
    assert record["step"] == 0 and record["skipped"] is False
    assert record["loss_scale"] == 2.0**16


def test_skipped_step_on_overflow_keeps_parameters():
    for bad in (np.nan, np.inf):
        _, params, engine = model_and_engine()
        before = {n: t.data.copy() for n, t in params.items()}
        grads = {n: np.full_like(t.data, bad) for n, t in params.items()}
        metrics = update_from(engine, grads, 1.0)
        assert metrics.skipped
        assert engine.scaler.scale == 2.0**15
        # the observed non-finite norm is reported, inf for an inf gradient
        assert not np.isfinite(metrics.grad_norm) and np.isnan(metrics.grad_norm) == np.isnan(bad)
        assert engine.optimizer.step == 0
        m, v = params.views(engine.optimizer.m_flat), params.views(engine.optimizer.v_flat)
        for n, t in params.items():
            assert np.array_equal(t.data, before[n])
            assert not m[n].any() and not v[n].any(), n


def test_nonfinite_gradient_skips_step_without_loss_scaler():
    for bad in (np.inf, np.nan):
        _, params, engine = model_and_engine(scaler=False)
        before = {n: t.data.copy() for n, t in params.items()}
        grads = {n: np.zeros_like(t.data) for n, t in params.items()}
        grads["tok_emb"][1, 2] = bad
        metrics = update_from(engine, grads, 1.0)
        assert metrics.skipped and not np.isfinite(metrics.grad_norm)
        assert engine.optimizer.step == 0 and engine.step == 1
        m, v = params.views(engine.optimizer.m_flat), params.views(engine.optimizer.v_flat)
        for n, t in params.items():
            assert np.array_equal(t.data, before[n]), n
            assert not m[n].any() and not v[n].any(), n
        # the engine never steps a scaler that is off, on an overflow or otherwise
        assert engine.scaler == LossScaler(1.0, 0)
        # the run carries on: the next finite step updates as usual
        metrics = engine.data_parallel_step(lm_batches()(engine.step), 1)
        assert not metrics.skipped and engine.optimizer.step == 1
        assert all(np.all(np.isfinite(t.data)) for _, t in params.items())
        assert engine.scaler == LossScaler(1.0, 0)
    # without scaling the scale stays 1 past the growth interval:
    # start from the state GROWTH_INTERVAL - 1 good steps would leave
    engine.scaler.consecutive_good_steps = GROWTH_INTERVAL - 1
    for _ in range(2):
        grads = {n: np.zeros_like(t.data) for n, t in params.items()}
        assert update_from(engine, grads, 0.0).loss_scale == 1.0
    assert engine.scaler == LossScaler(1.0, GROWTH_INTERVAL - 1)


def test_checkpoint_restores_bit_identical_continuation(tmp_path):
    batch_fn = lm_batches(seed=2)
    for scaler in (True, False):
        _, params, engine = model_and_engine(seed=41, scaler=scaler)
        train_loop(engine, batch_fn, n_steps=5)
        path = str(tmp_path / f"engine-{scaler}.npz")
        save_engine_checkpoint(path, engine)

        cont = train_loop(engine, batch_fn, n_steps=5)

        restored = load_engine_checkpoint(path)
        assert restored.step == 5
        replay = train_loop(restored, batch_fn, n_steps=5)

        assert [m.loss for m in cont] == [m.loss for m in replay]
        assert restored.scaler == engine.scaler == (LossScaler(2.0**16, 10) if scaler else LossScaler(1.0, 0))
        for name, t in engine.params.items():
            assert np.array_equal(t.data, restored.params[name].data), name
        engine_m, restored_m = (e.params.views(e.optimizer.m_flat) for e in (engine, restored))
        for name in engine_m:
            assert np.array_equal(engine_m[name], restored_m[name])


def test_checkpoint_restores_moments_into_the_arena(tmp_path):
    _, _, engine = model_and_engine(seed=43)
    train_loop(engine, lm_batches(seed=3), n_steps=3)
    path = str(tmp_path / "engine.npz")
    save_engine_checkpoint(path, engine)
    restored = load_engine_checkpoint(path)
    for slot in ("m_flat", "v_flat"):
        flat, saved = getattr(restored.optimizer, slot), engine.params.views(getattr(engine.optimizer, slot))
        assert flat.any()
        for name, view in restored.params.views(flat).items():
            assert np.shares_memory(view, flat) and np.array_equal(view, saved[name]), name


@functools.cache
def _engine_checkpoint_bytes() -> bytes:
    """A tiny encoder's engine checkpoint, with moments that are not zero."""
    _, _, engine = model_and_engine("encoder-only", n_layers=1, seed=5)
    engine.optimizer.m_flat.fill(0.5)
    engine.optimizer.v_flat.fill(0.25)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.npz")
        save_engine_checkpoint(path, engine)
        return Path(path).read_bytes()


@settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_damaged_checkpoint_loads_or_raises_one_line_config_error(tmp_path, data):
    # a single flipped bit anywhere in the file, or the file cut short; ConfigError is what the CLI prints as one line
    damaged = bytearray(_engine_checkpoint_bytes())
    if data.draw(st.booleans(), label="truncate"):
        damaged = damaged[: data.draw(st.integers(0, len(damaged) - 1), label="length")]
    else:
        offset = data.draw(st.integers(0, len(damaged) - 1), label="offset")
        damaged[offset] ^= 1 << data.draw(st.integers(0, 7), label="bit")
    path = tmp_path / "model.npz"
    path.write_bytes(damaged)
    for load in (load_checkpoint, load_engine_checkpoint):
        try:
            load(str(path))
        except ConfigError as exc:
            assert str(exc).startswith(str(path)) and "\n" not in str(exc), exc


def test_unbalanced_npy_header_is_a_one_line_config_error(tmp_path):
    # numpy re-tokenizes a header it cannot parse, and a bracket left open is a tokenizer error, not a ValueError
    damaged = bytearray(_engine_checkpoint_bytes())
    with zipfile.ZipFile(io.BytesIO(damaged)) as archive:
        member = archive.getinfo("adam_m:block0.mlp.w_fc.npy")
    at = damaged.index(b"'shape': (", member.header_offset) + len(b"'shape':")
    damaged[at] ^= 1 << 3  # the space after the key becomes "(": "'shape':((16, 64)"
    path = tmp_path / "model.npz"
    path.write_bytes(damaged)
    with pytest.raises(ConfigError) as err:
        load_engine_checkpoint(str(path))
    assert str(err.value).startswith(str(path)) and "adam_m:block0.mlp.w_fc" in str(err.value)
    assert "\n" not in str(err.value)


RESTORE_PEAK = """
import sys
from stacklm.engine import load_engine_checkpoint

def kib(key):
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith(key + ":"))

before = kib("VmRSS")
engine = load_engine_checkpoint(sys.argv[1])
print((kib("VmHWM") - before) * 1024, engine.params.flat.nbytes)
"""


def test_restore_holds_the_parameters_and_each_moment_once(tmp_path):
    if not os.path.exists("/proc/self/status"):
        pytest.skip("needs /proc/self/status for VmRSS and VmHWM")
    # about 40 MB of float32 parameters, the largest tensor a tenth of them
    cfg = ModelConfig("decoder-only", 3, d_layer=512, n_heads=8, d_head=64, vocab_size=1000, max_seq_len=64)
    engine = TrainEngine(build_model(cfg, seed=0), cfg, EngineConfig(TrainSchedule(1e-3, 0.0, 0, 10)))
    engine.optimizer.m_flat.fill(1.0)
    engine.optimizer.v_flat.fill(2.0)
    path = str(tmp_path / "engine.npz")
    save_engine_checkpoint(path, engine)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", RESTORE_PEAK, path], capture_output=True, text=True, env=env,
                          check=True)
    rise, arena = map(int, proc.stdout.split())
    assert arena == engine.params.flat.nbytes > 35e6
    # the arena and the two moments, about three arenas; copying the moments into fresh buffers reads about five
    assert rise < 4 * arena, (rise / arena, arena)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_step_gradients_land_in_the_arena(dtype):
    cfg = ModelConfig("encoder-only", 1, d_layer=16, n_heads=2, d_head=8, vocab_size=31, max_seq_len=16)
    params = build_model(cfg, seed=3, dtype=dtype)
    engine = TrainEngine(params, cfg, EngineConfig(TrainSchedule(1e-3, 0.0, 0, 10), seed=3))
    grads, _ = engine.compute_gradients(family_batches("encoder-only")(0), n_shards=2)
    arena = engine.optimizer
    assert arena.grad_flat.any()
    views = params.views(arena.grad_flat)
    for name, g in grads.items():
        assert np.shares_memory(views[name], arena.grad_flat)
        assert g.dtype == views[name].dtype == dtype
        assert np.array_equal(g, views[name] / engine.scaler.scale), name
    # after a step no parameter holds a gradient, also after a pass that failed
    assert all(t.grad is None for _, t in params.items())
    with pytest.raises(ShapeError):
        engine.data_parallel_step(classifier_batch(seed=3))
    assert all(t.grad is None for _, t in params.items())
    train_loop(engine, family_batches("encoder-only"), 2)
    assert all(t.data.dtype == dtype and np.shares_memory(t.data, params.flat) for _, t in params.items())


def test_engine_checkpoint_round_trips_non_default_config(tmp_path):
    batch_fn = lm_batches(seed=4)
    for use_scaler in (False, True):
        cfg = ModelConfig("decoder-only", 2, d_layer=16, n_heads=2, d_head=8, vocab_size=31, max_seq_len=16)
        engine_cfg = EngineConfig(
            schedule=TrainSchedule(2e-3, 1e-5, warmup_steps=3, total_steps=50, decay_shape="linear"),
            use_loss_scaler=use_scaler,
            recompute_activations=True,
            seed=13,
        )
        engine = TrainEngine(build_model(cfg, seed=2), cfg, engine_cfg)
        train_loop(engine, batch_fn, n_steps=3)
        path = str(tmp_path / f"engine-{use_scaler}.npz")
        save_engine_checkpoint(path, engine)
        restored = load_engine_checkpoint(path)
        assert restored.cfg == engine.cfg
        assert restored.model_cfg == engine.model_cfg
        assert (restored.step, restored.optimizer.step) == (3, 3)
        assert restored.scaler == engine.scaler
        if use_scaler:
            assert restored.scaler.consecutive_good_steps == 3
        restored_v, engine_v = (e.params.views(e.optimizer.v_flat) for e in (restored, engine))
        for name in engine.params.names():
            assert np.array_equal(restored_v[name], engine_v[name]), name


def test_engine_record_with_the_scaler_factors_is_a_one_line_error(tmp_path):
    _, _, engine = model_and_engine(seed=47)
    path = str(tmp_path / "engine.npz")
    save_engine_checkpoint(path, engine)
    with np.load(path) as archive:
        arrays = {key: archive[key] for key in archive.files}
    meta = json.loads(arrays["meta"].tobytes().decode("utf-8"))
    assert meta["extra"]["scaler"] == {"scale": 2.0**16, "consecutive_good_steps": 0}
    # the values these fields held before they became constants
    for key, value in (("growth_interval", 2000), ("growth_factor", 2.0), ("backoff_factor", 0.5)):
        scaler = dict(meta["extra"]["scaler"], **{key: value})
        edited = dict(meta, extra=dict(meta["extra"], scaler=scaler))
        edited_path = str(tmp_path / f"{key}.npz")
        np.savez(edited_path, **dict(arrays, meta=np.frombuffer(json.dumps(edited).encode("utf-8"), dtype=np.uint8)))
        with pytest.raises(ConfigError, match="^" + re.escape(edited_path) + ".*" + key) as caught:
            load_engine_checkpoint(edited_path)
        assert "\n" not in str(caught.value)


def test_engine_checkpoint_is_a_model_checkpoint(tmp_path):
    cfg, params, engine = model_and_engine(seed=43)
    train_loop(engine, lm_batches(), n_steps=2)
    model_path, engine_path = str(tmp_path / "model.npz"), str(tmp_path / "engine.npz")
    save_checkpoint(model_path, params, cfg)
    save_engine_checkpoint(engine_path, engine)
    from_model, cfg_model, _ = load_checkpoint(model_path)
    from_engine, cfg_engine, _ = load_checkpoint(engine_path)
    assert cfg_engine == cfg_model == cfg
    assert from_engine.names() == from_model.names()
    for name, t in from_model.items():
        assert np.array_equal(from_engine[name].data, t.data), name
    with pytest.raises(ConfigError):
        load_engine_checkpoint(model_path)


def test_engine_checkpoint_rejects_seed_format_and_wrong_shapes(tmp_path):
    cfg, params, engine = model_and_engine(seed=47)
    path = str(tmp_path / "engine.npz")
    save_engine_checkpoint(path, engine)
    with np.load(path) as archive:
        arrays = {key: archive[key] for key in archive.files}

    # the previous engine format kept the config under "model_config"
    legacy = dict(arrays)
    meta = {"version": 1, "model_config": config_to_text(cfg), "step": 0, "optimizer_step": 0, "scaler": None}
    legacy["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    legacy_path = str(tmp_path / "legacy.npz")
    np.savez(legacy_path, **legacy)
    with pytest.raises(ConfigError):
        load_engine_checkpoint(legacy_path)

    # an engine record with the Adam, clip and loss-scale fields that EngineConfig no longer has,
    # and Adam slots without an engine record
    meta = json.loads(arrays["meta"].tobytes().decode("utf-8"))
    stale = dict(meta["extra"]["engine"], adam={"beta1": 0.9, "beta2": 0.999, "eps": 1e-8, "weight_decay": 0.01},
                 max_grad_norm=1.0, initial_loss_scale=2.0**16, scaler_growth_interval=2000)
    no_record = {key: value for key, value in meta["extra"].items() if key != "engine"}
    # an engine without loss scaling once recorded no scaler at all
    null_scaler = dict(meta["extra"], engine=dict(meta["extra"]["engine"], use_loss_scaler=False), scaler=None)
    # counters that are not non-negative ints with optimizer_step <= step, and a scale that is not finite
    counters = [{"step": "x"}, {"step": -3}, {"step": 1.5}, {"optimizer_step": True},
                {"step": 2, "optimizer_step": 3}, {"step": 2, "optimizer_step": -1}]
    # and scaler fields that are not finite positive factors, a positive interval or a non-negative count
    scalers = [{"scale": math.nan}, {"scale": math.inf}, {"growth_factor": math.nan}, {"growth_factor": math.inf},
               {"growth_factor": 0.0}, {"backoff_factor": math.nan}, {"backoff_factor": -0.5},
               {"growth_interval": "x"}, {"growth_interval": 0}, {"growth_interval": 1.5},
               {"consecutive_good_steps": -1}, {"consecutive_good_steps": "x"}, {"consecutive_good_steps": 2.0}]
    saved_cfg = meta["extra"]["engine"]
    infinite_rate = dict(saved_cfg, schedule=dict(saved_cfg["schedule"], peak_lr=math.inf))
    # engine flags that are not bools, and seeds that are not integers
    engine_edits = [{"use_loss_scaler": "no"}, {"use_loss_scaler": 1}, {"recompute_activations": "no"},
                    {"recompute_activations": None}, {"seed": "x"}, {"seed": None}, {"seed": 1.5}]
    for name, extra in (
        ("stale", dict(meta["extra"], engine=stale)), ("no-record", no_record), ("null-scaler", null_scaler),
        *((f"counters{i}", dict(meta["extra"], **edit)) for i, edit in enumerate(counters)),
        *((f"scaler{i}", dict(meta["extra"], scaler=dict(meta["extra"]["scaler"], **edit)))
          for i, edit in enumerate(scalers)),
        ("infinite-rate", dict(meta["extra"], engine=infinite_rate)),
        *((f"engine{i}", dict(meta["extra"], engine=dict(saved_cfg, **edit))) for i, edit in enumerate(engine_edits)),
    ):
        edited = dict(arrays, meta=np.frombuffer(json.dumps(dict(meta, extra=extra)).encode("utf-8"), dtype=np.uint8))
        edited_path = str(tmp_path / f"{name}.npz")
        np.savez(edited_path, **edited)
        with pytest.raises(ConfigError, match="^" + re.escape(edited_path)):
            load_engine_checkpoint(edited_path)

    bad = dict(arrays)
    bad["param:tok_emb"] = arrays["param:tok_emb"][:-1]
    bad_path = str(tmp_path / "bad.npz")
    np.savez(bad_path, **bad)
    with pytest.raises(ConfigError):
        load_engine_checkpoint(bad_path)
