import io
import json

import numpy as np
import pytest

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
from stacklm.optim import TrainSchedule
from stacklm.tensor import DropoutRng, ShapeError, Tape, Tensor
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
    batch = batch_fn(0)
    full_grads, full_loss = engine.compute_gradients(batch, n_shards=1)
    shard_grads, shard_loss = engine.compute_gradients(batch, n_shards=n_shards)
    assert shard_loss == pytest.approx(full_loss, rel=1e-6)
    for name in full_grads:
        a, b = shard_grads[name], full_grads[name]
        denom = max(float(np.max(np.abs(b))), 1e-12)
        assert float(np.max(np.abs(a - b))) / denom < 1e-6, name


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
        out = forward(params, cfg, batch.ids, mode="train", rng=rng, type_ids=batch.type_ids)
        return T.add(objectives.mlm_loss(out.logits, batch), objectives.sop_loss(out.sop_logits, batch))
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
            ref_params.zero_grads()
            rng = DropoutRng(ref.cfg.seed, ref.step, batch.example_ids)
            with Tape() as tape:
                loss = full_batch_objective(ref_params, cfg, batch, rng)
                scaled = T.scale(loss, ref.scaler.scale)
            tape.backward(scaled)
            grads = {n: t.grad if t.grad is not None else np.zeros_like(t.data) for n, t in ref_params.items()}
            expected.append(ref._apply_update(grads, float(loss.data)))

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
    params64 = ModelParams({name: Tensor(data.copy(), requires_grad=True, name=name) for name, data in init.items()})
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
            keep[cfg.d_attn : 2 * cfg.d_attn] = False
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
        engine.params.zero_grads()
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
    engine.params.zero_grads()
    engine._apply_update(combined, 0.0)
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
        metrics = engine._apply_update(grads, 1.0)
        assert metrics.skipped
        assert engine.scaler.scale == 2.0**15
        # the observed non-finite norm is reported, inf for an inf gradient
        assert not np.isfinite(metrics.grad_norm) and np.isnan(metrics.grad_norm) == np.isnan(bad)
        assert engine.optimizer.step == 0
        for n, t in params.items():
            assert np.array_equal(t.data, before[n])
            assert not engine.optimizer.m[n].any() and not engine.optimizer.v[n].any(), n


def test_nonfinite_gradient_skips_step_without_loss_scaler():
    for bad in (np.inf, np.nan):
        _, params, engine = model_and_engine(scaler=False)
        before = {n: t.data.copy() for n, t in params.items()}
        grads = {n: np.zeros_like(t.data) for n, t in params.items()}
        grads["tok_emb"][1, 2] = bad
        metrics = engine._apply_update(grads, 1.0)
        assert metrics.skipped and not np.isfinite(metrics.grad_norm)
        assert engine.optimizer.step == 0 and engine.step == 1
        for n, t in params.items():
            assert np.array_equal(t.data, before[n]), n
            assert not engine.optimizer.m[n].any() and not engine.optimizer.v[n].any(), n
        assert engine.scaler.scale == 1.0
        # the run carries on: the next finite step updates as usual
        metrics = engine.data_parallel_step(lm_batches()(engine.step), 1)
        assert not metrics.skipped and engine.optimizer.step == 1
        assert all(np.all(np.isfinite(t.data)) for _, t in params.items())
    # without scaling the scale stays 1 past the scaler's growth interval:
    # start from the state growth_interval - 1 good steps leave
    engine.scaler.consecutive_good_steps = engine.scaler.growth_interval - 1
    for _ in range(2):
        grads = {n: np.zeros_like(t.data) for n, t in params.items()}
        assert engine._apply_update(grads, 0.0).loss_scale == 1.0
    assert engine.scaler.consecutive_good_steps == 1


def test_checkpoint_restores_bit_identical_continuation(tmp_path):
    batch_fn = lm_batches(seed=2)
    _, params, engine = model_and_engine(seed=41)
    train_loop(engine, batch_fn, n_steps=5)
    path = str(tmp_path / "engine.npz")
    save_engine_checkpoint(path, engine)

    cont = train_loop(engine, batch_fn, n_steps=5)

    restored = load_engine_checkpoint(path)
    assert restored.step == 5
    replay = train_loop(restored, batch_fn, n_steps=5)

    assert [m.loss for m in cont] == [m.loss for m in replay]
    for name, t in engine.params.items():
        assert np.array_equal(t.data, restored.params[name].data), name
    for name in engine.optimizer.m:
        assert np.array_equal(engine.optimizer.m[name], restored.optimizer.m[name])


def test_checkpoint_restores_moments_into_the_arena(tmp_path):
    _, _, engine = model_and_engine(seed=43)
    train_loop(engine, lm_batches(seed=3), n_steps=3)
    path = str(tmp_path / "engine.npz")
    save_engine_checkpoint(path, engine)
    restored = load_engine_checkpoint(path).optimizer
    for flat, views, saved in ((restored.m_flat, restored.m, engine.optimizer.m),
                               (restored.v_flat, restored.v, engine.optimizer.v)):
        assert flat.any()
        for name, view in views.items():
            assert np.shares_memory(view, flat) and np.array_equal(view, saved[name]), name


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_step_gradients_land_in_the_arena(dtype):
    cfg = ModelConfig("encoder-only", 1, d_layer=16, n_heads=2, d_head=8, vocab_size=31, max_seq_len=16)
    params = build_model(cfg, seed=3, dtype=dtype)
    engine = TrainEngine(params, cfg, EngineConfig(TrainSchedule(1e-3, 0.0, 0, 10), seed=3))
    grads, _ = engine.compute_gradients(family_batches("encoder-only")(0), n_shards=2)
    arena = engine.optimizer
    assert arena.grad_flat.any()
    for name, g in grads.items():
        assert np.shares_memory(arena.grads[name], arena.grad_flat)
        assert g.dtype == arena.grads[name].dtype == dtype
        assert np.array_equal(g, arena.grads[name] / engine.scaler.scale), name
    # outside a step the tape writes fresh arrays again, also after a pass that failed
    assert all(t.grad is None and t.grad_buffer is None for _, t in params.items())
    with pytest.raises(ShapeError):
        engine.data_parallel_step(classifier_batch(seed=3))
    assert all(t.grad is None and t.grad_buffer is None for _, t in params.items())
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
        for name in engine.params.names():
            assert np.array_equal(restored.optimizer.v[name], engine.optimizer.v[name]), name


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
    for name, extra in (
        ("stale", dict(meta["extra"], engine=stale)), ("no-record", no_record), ("null-scaler", null_scaler),
    ):
        edited = dict(arrays, meta=np.frombuffer(json.dumps(dict(meta, extra=extra)).encode("utf-8"), dtype=np.uint8))
        np.savez(str(tmp_path / f"{name}.npz"), **edited)
        with pytest.raises(ConfigError):
            load_engine_checkpoint(str(tmp_path / f"{name}.npz"))

    bad = dict(arrays)
    bad["param:tok_emb"] = arrays["param:tok_emb"][:-1]
    bad_path = str(tmp_path / "bad.npz")
    np.savez(bad_path, **bad)
    with pytest.raises(ConfigError):
        load_engine_checkpoint(bad_path)
