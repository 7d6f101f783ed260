import json
import re
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stacklm import tensor as T
from stacklm.cost import reference_model_configs
from stacklm.model import (
    FAMILIES,
    ConfigError,
    InputError,
    ModelConfig,
    ModelParams,
    build_model,
    config_from_text,
    config_to_text,
    count_params,
    forward,
    load_checkpoint,
    load_config,
    parameter_inventory,
    save_checkpoint,
)
from stacklm.tensor import DropoutRng, Tape

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def tiny(family, n_layers=2, vocab=13, **kw):
    kw.setdefault("max_seq_len", 16)
    kw.setdefault("dropout_p", 0.1)
    return ModelConfig(family, n_layers, d_layer=8, n_heads=2, d_head=4, vocab_size=vocab, **kw)


# ---------------------------------------------------------------------------
# construction and accounting
# ---------------------------------------------------------------------------


def test_minimal_decoder_logit_shape():
    cfg = ModelConfig("decoder-only", 1, d_layer=4, n_heads=1, d_head=4, vocab_size=11, max_seq_len=8, dropout_p=0.0)
    params = build_model(cfg, seed=0)
    out = forward(params, cfg, np.array([[1, 2, 3]]))
    assert out.logits.shape == (1, 3, 11)


@pytest.mark.parametrize("family", ["decoder-only", "encoder-only", "encoder-decoder"])
def test_count_equals_instantiated_elements(family):
    cfg = tiny(family, n_layers=4)
    params = build_model(cfg, seed=1)
    assert count_params(cfg) == params.element_count()


def test_count_equals_instantiated_on_random_configs():
    rng = np.random.default_rng(7)
    for _ in range(10):
        family = ("decoder-only", "encoder-only", "encoder-decoder")[rng.integers(3)]
        n = int(rng.integers(0, 4)) * (2 if family == "encoder-decoder" else 1)
        heads = int(rng.integers(1, 4))
        cfg = ModelConfig(
            family,
            n,
            d_layer=heads * 4,
            n_heads=heads,
            d_head=4,
            vocab_size=int(rng.integers(8, 40)),
            max_seq_len=int(rng.integers(4, 16)),
        )
        assert count_params(cfg) == build_model(cfg, seed=0).element_count()


def test_zero_layer_config_is_embeddings_plus_heads():
    cfg = tiny("decoder-only", n_layers=0)
    names = [n for n, _, _ in parameter_inventory(cfg)]
    assert not any(n.startswith("block") for n in names)
    assert "tok_emb" in names and "final.gain" in names


def test_depth_doubling_doubles_block_subtotal():
    # blocks are the only depth-dependent parameters: count(2n) - count(n) == count(n) - count(0)
    for family, n_layers in (("encoder-only", 3), ("decoder-only", 3), ("encoder-decoder", 2)):
        zero, a, b = (count_params(tiny(family, n_layers=n)) for n in (0, n_layers, 2 * n_layers))
        assert b - a == a - zero > 0, family


def test_residual_projection_init_scale():
    # N=32 layers: residual projections shrink by 1/sqrt(2N) = 1/8
    cfg = ModelConfig("decoder-only", 32, d_layer=160, n_heads=2, d_head=80, vocab_size=64, max_seq_len=8)
    params = build_model(cfg, seed=3)
    sampled = params["block0.mlp.w_proj"].data.std()
    expected = 0.02 / np.sqrt(64.0)
    assert abs(sampled - expected) / expected < 0.10
    plain = params["block0.attn.w_qkv"].data.std()
    assert abs(plain - 0.02) / 0.02 < 0.10


def test_tied_embeddings_share_storage():
    cfg = tiny("decoder-only")
    params = build_model(cfg, seed=0)
    assert "lm_head" not in params
    ids = np.array([[1, 2, 3]])
    before = forward(params, cfg, ids).logits.data.copy()
    params["tok_emb"].data[...] += 0.05
    after = forward(params, cfg, ids).logits.data
    assert not np.array_equal(before, after)


def test_odd_layers_rejected_for_encoder_decoder():
    with pytest.raises(ConfigError):
        tiny("encoder-decoder", n_layers=3)


def test_head_width_mismatch_warns_not_raises():
    with pytest.warns(UserWarning):
        ModelConfig("decoder-only", 1, d_layer=10, n_heads=3, d_head=4, vocab_size=7, max_seq_len=4)


def test_reference_row_builds():
    # the 24-layer encoder row of the reference table, full width
    cfg = ModelConfig("encoder-only", 24, d_layer=1024, n_heads=16, d_head=64, vocab_size=21128)
    assert cfg.max_seq_len == 512
    assert count_params(cfg) == pytest.approx(330e6, rel=0.02)


# ---------------------------------------------------------------------------
# forward semantics
# ---------------------------------------------------------------------------


def test_causal_masking_bit_exact():
    cfg = tiny("decoder-only", n_layers=2, dropout_p=0.0)
    params = build_model(cfg, seed=5)
    rng = np.random.default_rng(11)
    ids = rng.integers(0, cfg.vocab_size, size=(1, 10))
    base = forward(params, cfg, ids).logits.data
    for trial in range(20):
        i = int(rng.integers(0, 9))
        j = int(rng.integers(i + 1, 10))
        perturbed = ids.copy()
        perturbed[0, j] = (perturbed[0, j] + 1 + trial) % cfg.vocab_size
        out = forward(params, cfg, perturbed).logits.data
        assert np.array_equal(out[0, : i + 1], base[0, : i + 1])


def test_encoder_attention_is_bidirectional():
    cfg = tiny("encoder-only", n_layers=2, dropout_p=0.0)
    params = build_model(cfg, seed=5)
    ids = np.arange(1, 9)[None, :] % cfg.vocab_size
    base = forward(params, cfg, ids).logits.data
    perturbed = ids.copy()
    perturbed[0, 7] = (perturbed[0, 7] + 1) % cfg.vocab_size
    out = forward(params, cfg, perturbed).logits.data
    assert not np.allclose(out[0, 0], base[0, 0])


def test_encoder_decoder_independent_lengths():
    cfg = tiny("encoder-decoder", n_layers=4, dropout_p=0.0)
    params = build_model(cfg, seed=2)
    src = np.array([[1, 2, 3, 4, 5]])
    tgt = np.array([[6, 7, 8]])
    out = forward(params, cfg, tgt, source_ids=src)
    assert out.logits.shape == (1, 3, cfg.vocab_size)
    # decoder output depends on the encoder input
    src2 = src.copy()
    src2[0, 0] = 9
    out2 = forward(params, cfg, tgt, source_ids=src2)
    assert not np.allclose(out.logits.data, out2.logits.data)


def test_encoder_only_outputs_auxiliary_heads():
    cfg = tiny("encoder-only", dropout_p=0.0)
    params = build_model(cfg, seed=0)
    out = forward(params, cfg, np.array([[1, 2, 3, 4]]), type_ids=np.array([[0, 0, 1, 1]]))
    assert out.logits.shape == (1, 4, cfg.vocab_size)
    assert out.sop_logits.shape == (1, 2)
    assert out.pooled.shape == (1, cfg.d_layer)


@pytest.mark.parametrize("family", ["decoder-only", "encoder-only", "encoder-decoder"])
def test_positions_score_only_those_rows(family):
    cfg = tiny(family, dropout_p=0.0)
    params = build_model(cfg, seed=2)
    ids = np.array([[3, 1, 4, 1, 5], [9, 2, 6, 5, 3]])
    kwargs = dict(type_ids=np.zeros_like(ids), source_ids=ids)
    everywhere = forward(params, cfg, ids, **kwargs)
    assert everywhere.positions is None and everywhere.logits.shape == (2, 5, cfg.vocab_size)
    for p in (np.array([7, 0, 4]), np.array([], dtype=np.int64)):
        out = forward(params, cfg, ids, positions=p, **kwargs)
        assert out.logits.shape == (len(p), cfg.vocab_size)
        assert out.positions is p
        rows = everywhere.logits.data.reshape(-1, cfg.vocab_size)[p]
        assert np.allclose(out.logits.data, rows, rtol=1e-5, atol=1e-6)
    with pytest.raises(IndexError):
        forward(params, cfg, ids, positions=np.array([10]), **kwargs)


def with_classifier(params, cfg, n_classes, seed=1):
    """The fine-tuned inventory of ``n_classes``: the body of ``params`` plus a random ``cls.*``."""
    rng = np.random.default_rng(seed)
    tuned = ModelParams({name: shape for name, shape, _ in parameter_inventory(cfg, n_classes)}, np.float32)
    for name, t in tuned.items():
        t.data[...] = rng.normal(size=t.shape) if name.startswith("cls.") else params[name].data
    return tuned


def test_classifier_head_is_the_only_output_head():
    cfg = tiny("encoder-only")
    params = with_classifier(build_model(cfg, seed=0), cfg, n_classes=3)
    with Tape() as tape:
        out = forward(params, cfg, np.array([[1, 2, 3, 4], [4, 3, 2, 1]]), mode="train", rng=DropoutRng(0, 0, [0, 1]))
    assert out.logits.shape == (2, 3)
    assert out.sop_logits is None and out.positions is None
    expected = out.pooled.data @ params["cls.w"].data + params["cls.b"].data
    assert np.allclose(out.logits.data, expected, rtol=1e-6, atol=1e-6)
    read = {name for inputs, _, _ in tape._nodes for name, p in params.items() if any(t is p for t in inputs)}
    assert {"pooler.w", "cls.w", "cls.b"} <= read
    assert not [name for name in read if name.startswith(("mlm.", "sop."))], read
    # ``predict`` scores every row; there are no vocabulary positions to pick
    with pytest.raises(InputError, match="no vocabulary head"):
        forward(params, cfg, np.array([[1, 2, 3, 4]]), positions=np.array([0]))


def test_overlong_sequence_rejected():
    cfg = tiny("decoder-only")
    params = build_model(cfg, seed=0)
    with pytest.raises(InputError):
        forward(params, cfg, np.zeros((1, cfg.max_seq_len + 1), dtype=int))


@pytest.mark.parametrize("family", ["decoder-only", "encoder-only", "encoder-decoder"])
def test_forward_takes_batches_only(family):
    cfg = tiny(family, n_layers=2, dropout_p=0.0)
    params = build_model(cfg, seed=6)
    ids = np.array([[3, 1, 4, 1, 5]])
    source = {"source_ids": ids} if family == "encoder-decoder" else {}
    assert forward(params, cfg, ids, **source).logits.shape == (1, 5, cfg.vocab_size)
    for bad in (ids[0], ids[None]):
        message = f"sequence ids must be a (batch, length) array, got shape {bad.shape}"
        with pytest.raises(InputError, match=re.escape(message)):
            forward(params, cfg, bad, **source)
        if family == "encoder-decoder":
            with pytest.raises(InputError, match="source ids must be a"):
                forward(params, cfg, ids, source_ids=bad)
    if family == "encoder-decoder":
        with pytest.raises(InputError, match=f"source length {cfg.max_seq_len + 1} exceeds"):
            forward(params, cfg, ids, source_ids=np.zeros((1, cfg.max_seq_len + 1), dtype=int))


def test_train_mode_needs_rng_when_dropout_active():
    cfg = tiny("decoder-only", dropout_p=0.1)
    params = build_model(cfg, seed=0)
    with pytest.raises(InputError):
        forward(params, cfg, np.array([[1, 2]]), mode="train")
    out = forward(params, cfg, np.array([[1, 2]]), mode="train", rng=DropoutRng(0, 0, [0]))
    assert out.logits.shape == (1, 2, cfg.vocab_size)


def test_forward_deterministic_given_seed():
    cfg = tiny("decoder-only", dropout_p=0.1)
    params = build_model(cfg, seed=0)
    ids = np.array([[3, 1, 4, 1, 5]])
    a = forward(params, cfg, ids, mode="train", rng=DropoutRng(9, 2, [0])).logits.data
    b = forward(params, cfg, ids, mode="train", rng=DropoutRng(9, 2, [0])).logits.data
    assert np.array_equal(a, b)


def test_recompute_forward_matches_plain():
    cfg = tiny("encoder-decoder", n_layers=4, dropout_p=0.1)
    params = build_model(cfg, seed=8)
    src = np.array([[1, 2, 3, 4]])
    tgt = np.array([[5, 6, 7]])
    kwargs = dict(mode="train", source_ids=src, rng=DropoutRng(1, 0, [0]))
    with Tape():
        plain = forward(params, cfg, tgt, **kwargs).logits.data
    with Tape():
        ckpt = forward(params, cfg, tgt, recompute=True, **kwargs).logits.data
    assert np.array_equal(plain, ckpt)


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
@pytest.mark.parametrize("family", ["decoder-only", "encoder-only", "encoder-decoder"])
def test_forward_outputs_keep_parameter_dtype(family, dtype):
    cfg = tiny(family, n_layers=2, dropout_p=0.1)
    params = build_model(cfg, seed=4, dtype=dtype)
    ids = np.array([[3, 1, 4, 1, 5], [9, 2, 6, 5, 3]])
    pad = np.array([[1, 1, 1, 1, 1], [1, 1, 1, 0, 0]])
    if family == "encoder-decoder":
        kwargs = dict(source_ids=ids, source_attention_mask=pad)
    else:
        kwargs = dict(attention_mask=pad)
    for mode in ("train", "eval"):
        with Tape():
            out = forward(params, cfg, ids, mode=mode, rng=DropoutRng(0, 0, [0, 1]), **kwargs)
        assert out.logits.dtype == dtype, (mode, out.logits.dtype)
        for extra in (out.sop_logits, out.pooled):
            assert extra is None or extra.dtype == dtype, (mode, extra.dtype)


def test_end_to_end_gradcheck_two_layer_model():
    cfg = ModelConfig(
        "decoder-only", 2, d_layer=4, n_heads=2, d_head=2, vocab_size=7, max_seq_len=6, dropout_p=0.0
    )
    params = build_model(cfg, seed=13, dtype=np.float64)
    ids = np.array([[1, 2, 3, 4]])
    targets = np.array([[2, 3, 4, 5]])

    def loss_value():
        out = forward(params, cfg, ids)
        return T.softmax_cross_entropy(out.logits, targets)

    with Tape() as tape:
        loss = loss_value()
    tape.backward(loss)

    h = 1e-5
    rng = np.random.default_rng(0)
    for name, t in params.items():
        flat = t.data.reshape(-1)
        gflat = t.grad.reshape(-1) if t.grad is not None else np.zeros_like(flat)
        for idx in rng.choice(flat.size, size=min(3, flat.size), replace=False):
            keep = flat[idx]
            flat[idx] = keep + h
            up = loss_value().item()
            flat[idx] = keep - h
            down = loss_value().item()
            flat[idx] = keep
            numeric = (up - down) / (2 * h)
            denom = max(abs(numeric), 1.0)
            assert abs(gflat[idx] - numeric) / denom < 1e-4, f"{name}[{idx}]"


# ---------------------------------------------------------------------------
# config and checkpoint files
# ---------------------------------------------------------------------------


def test_config_text_round_trip():
    cfg = tiny("encoder-only", n_layers=5)
    again = config_from_text(config_to_text(cfg))
    assert again == cfg


def test_config_parse_errors():
    with pytest.raises(ConfigError):
        config_from_text("nonsense line")
    with pytest.raises(ConfigError):
        config_from_text("unknown_key = 3")
    with pytest.raises(ConfigError):
        config_from_text("family = decoder-only\nfamily = encoder-only")
    valid = "family = decoder-only\nn_layers = 2\nd_layer = 8\nn_heads = 2\nd_head = 4\nvocab_size = 99\n"
    for bad in ("vocab_size = -5", "vocab_size = 0"):
        with pytest.raises(ConfigError, match="^t.cfg: vocab_size"):
            config_from_text(valid.replace("vocab_size = 99", bad), source="t.cfg")
    with pytest.raises(ConfigError, match="^t.cfg: max_seq_len"):
        config_from_text(valid + "max_seq_len = -4", source="t.cfg")
    # a value that fails to parse names the source, the line and the key
    with pytest.raises(ConfigError, match="^t.cfg:2: n_layers: "):
        config_from_text(valid.replace("n_layers = 2", "n_layers = two"), source="t.cfg")
    with pytest.raises(ConfigError, match="^t.cfg:7: unknown config key 'bias_init'"):
        config_from_text(valid + "bias_init = zeros", source="t.cfg")


def test_bundled_configs_are_canonical_reference_rows():
    # the configs and the bundled model table are two sources for the same architectures
    paths = sorted(CONFIGS.glob("*.cfg"))
    references = reference_model_configs()
    assert len(paths) == len(references) == 20
    for path in paths:
        cfg = load_config(str(path))
        assert path.read_text(encoding="utf-8") == config_to_text(cfg), path.name
        assert cfg == references[path.stem.upper()], path.name


def test_tie_embeddings_key_is_rejected(tmp_path):
    # the input embedding is always the output layer; the old switch is an unknown key
    text = config_to_text(tiny("encoder-only")) + "tie_embeddings = true\n"
    with pytest.raises(ConfigError, match="unknown config key 'tie_embeddings'"):
        config_from_text(text)
    path = tmp_path / "old.npz"
    _checkpoint_with_meta(path, json.dumps({"version": 1, "config": text, "extra": {}}).encode("utf-8"))
    with pytest.raises(ConfigError, match="unknown config key 'tie_embeddings'"):
        load_checkpoint(str(path))


def test_load_config_rejects_undecodable_bytes(tmp_path):
    path = tmp_path / "latin1.cfg"
    path.write_bytes("family = decoder-only  # caf\u00e9\n".encode("latin-1"))
    with pytest.raises(ConfigError, match="^" + re.escape(str(path))):
        load_config(str(path))


_CONFIG_LINES = st.tuples(
    st.sampled_from([f.name for f in fields(ModelConfig)] + ["bogus"]),
    st.sampled_from(["=", " = ", " "]),
    st.one_of(
        st.integers(-3, 2**70).map(str),
        st.sampled_from(FAMILIES + ("true", "false", "nan", "1e400", "0.5")),
        st.text(max_size=8),
    ),
).map("".join)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(max_size=80), st.lists(_CONFIG_LINES, max_size=10).map("\n".join)))
def test_any_config_text_parses_or_raises_config_error(text):
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # mismatched head widths only warn
            cfg = config_from_text(text)
    except ConfigError:
        return
    assert isinstance(cfg, ModelConfig)


def test_config_comments_and_whitespace():
    cfg = config_from_text(
        """
        # a reference model
        family = decoder-only
        n_layers = 2   # shallow
        d_layer = 8
        n_heads = 2
        d_head = 4
        vocab_size = 99
        """
    )
    assert cfg.n_layers == 2 and cfg.vocab_size == 99
    assert cfg.max_seq_len == 1024  # family default


def test_checkpoint_round_trip(tmp_path):
    cfg = tiny("encoder-only")
    params = build_model(cfg, seed=21)
    path = str(tmp_path / "model.npz")
    save_checkpoint(path, params, cfg, extra={"step": 7})
    loaded, cfg2, extra = load_checkpoint(path)
    assert cfg2 == cfg
    assert extra == {"step": 7}
    for name, t in params.items():
        assert np.array_equal(loaded[name].data, t.data)
    ids = np.array([[1, 2, 3]])
    assert np.array_equal(
        forward(params, cfg, ids).logits.data, forward(loaded, cfg2, ids).logits.data
    )


def test_truncated_or_foreign_checkpoint_is_config_error(tmp_path):
    cfg = tiny("encoder-only")
    path = tmp_path / "model.npz"
    save_checkpoint(str(path), build_model(cfg, seed=0), cfg)
    raw = path.read_bytes()
    bad = tmp_path / "bad.npz"
    for cut in (0, 1, len(raw) // 3, len(raw) - 1):
        bad.write_bytes(raw[:cut])
        with pytest.raises(ConfigError, match="is not a stacklm checkpoint"):
            load_checkpoint(str(bad))
    for arrays in ({"param:tok_emb": np.zeros((13, 8))}, {"meta": np.frombuffer(b"[1]", dtype=np.uint8)}):
        np.savez(str(bad), **arrays)
        with pytest.raises(ConfigError, match="is not a stacklm checkpoint"):
            load_checkpoint(str(bad))
    # True == 1 and 1.0 == 1 in Python, but only the integer is version 1
    for version in (True, 1.0):
        meta = {"version": version, "config": config_to_text(cfg), "extra": {}}
        _checkpoint_with_meta(bad, json.dumps(meta).encode("utf-8"))
        with pytest.raises(ConfigError, match="unsupported checkpoint version"):
            load_checkpoint(str(bad))


def test_checkpoint_loads_exactly_the_expected_parameters(tmp_path):
    cfg = tiny("encoder-only")
    tuned = with_classifier(build_model(cfg, seed=0), cfg, n_classes=3)
    path = tmp_path / "tuned.npz"
    save_checkpoint(str(path), tuned, cfg)
    loaded, _, _ = load_checkpoint(str(path))
    assert loaded.names() == tuned.names()
    for name, t in tuned.items():
        assert np.array_equal(loaded[name].data, t.data), name

    with np.load(str(path)) as archive:
        arrays = {key: archive[key] for key in archive.files}
    meta = json.loads(arrays["meta"].tobytes())
    shallower = dict(meta, config=config_to_text(replace(cfg, n_layers=1)))
    edits = (
        # the 2-layer arrays under a 1-layer config: block1.* is not in its inventory
        ({**arrays, "meta": np.frombuffer(json.dumps(shallower).encode("utf-8"), dtype=np.uint8)}, "block1"),
        ({**arrays, "param:cls.b": arrays["param:cls.b"][:-1]}, "cls.b"),
        ({key: a for key, a in arrays.items() if key != "param:cls.w"}, "cls.b"),
        ({**arrays, "param:stray": np.zeros(3)}, "stray"),
        # the fine-tuned format that kept the pretraining heads
        ({**arrays, "param:mlm.bias": np.zeros(cfg.vocab_size, np.float32)}, "mlm.bias"),
        ({key: a for key, a in arrays.items() if key != "param:pooler.w"}, "pooler.w"),
    )
    bad = tmp_path / "bad.npz"
    for edited, name in edits:
        np.savez(str(bad), **edited)
        with pytest.raises(ConfigError, match=name):
            load_checkpoint(str(bad))


def test_checkpoint_dtype_rules(tmp_path):
    cfg = tiny("encoder-only")
    params = build_model(cfg, seed=5, dtype=np.float64)
    path = tmp_path / "model.npz"
    save_checkpoint(str(path), params, cfg)
    loaded, _, _ = load_checkpoint(str(path))
    assert loaded.flat.dtype == np.float64
    for name, t in params.items():
        assert loaded[name].dtype == np.float64 and np.array_equal(loaded[name].data, t.data), name

    with np.load(str(path)) as archive:
        arrays = {key: archive[key] for key in archive.files}
    bad = tmp_path / "bad.npz"
    np.savez(str(bad), **{**arrays, "param:pooler.w": arrays["param:pooler.w"].astype(np.float32)})
    with pytest.raises(ConfigError, match=re.escape("parameters mix dtypes ['float32', 'float64']")):
        load_checkpoint(str(bad))
    # an array of text, or of complex numbers, is not a parameter
    for odd in (arrays["param:pooler.w"].astype(str), arrays["param:pooler.w"].astype(np.complex128)):
        np.savez(str(bad), **{**arrays, "param:pooler.w": odd})
        with pytest.raises(ConfigError, match=re.escape(f"{bad}: checkpoint array param:pooler.w holds")):
            load_checkpoint(str(bad))
    # the loader casts as Tensor does: any number type but float32 and float64 becomes float64
    np.savez(str(bad), **{key: a.astype(np.float16) if key.startswith("param:") else a for key, a in arrays.items()})
    loaded, _, _ = load_checkpoint(str(bad))
    assert loaded.flat.dtype == np.float64
    for name, t in params.items():
        assert loaded[name].dtype == np.float64, name
        assert np.array_equal(loaded[name].data, t.data.astype(np.float16).astype(np.float64)), name


def test_loading_holds_less_than_one_copy_of_the_parameters_on_the_heap(tmp_path):
    import tracemalloc

    cfg = ModelConfig("encoder-only", 8, d_layer=64, n_heads=4, d_head=16, vocab_size=200, max_seq_len=64)
    params = build_model(cfg, seed=0)
    largest = max(t.data.nbytes for _, t in params.items())
    assert largest < params.flat.nbytes / 10
    path = str(tmp_path / "model.npz")
    save_checkpoint(path, params, cfg)
    # the arena is an anonymous mapping, which tracemalloc does not count: the
    # peak is what loading holds beside it
    tracemalloc.start()
    try:
        loaded, _, _ = load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(loaded.flat, params.flat)
    assert peak < params.flat.nbytes / 2, (peak, params.flat.nbytes)


def _checkpoint_with_meta(path, meta: bytes) -> None:
    """A saved tiny encoder checkpoint whose meta record is replaced by ``meta``."""
    cfg = tiny("encoder-only")
    save_checkpoint(str(path), build_model(cfg, seed=0), cfg)
    with np.load(str(path)) as archive:
        arrays = {key: archive[key] for key in archive.files}
    arrays["meta"] = np.frombuffer(meta, dtype=np.uint8)
    np.savez(str(path), **arrays)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    data=st.data(),
    junk=st.one_of(
        st.binary(min_size=1, max_size=4),
        st.sampled_from([b"5", b"[1]", b"null", b"{}", b'"', b",", b"}", b"1.0", b"true"]),
    ),
)
def test_garbled_meta_loads_or_raises_config_error(tmp_path, data, junk):
    meta = {"version": 1, "config": config_to_text(tiny("encoder-only")), "extra": {"step": 7}}
    raw = json.dumps(meta).encode("utf-8")
    start = data.draw(st.integers(0, len(raw) - 1), label="offset")
    path = tmp_path / "garbled.npz"
    _checkpoint_with_meta(path, raw[:start] + junk + raw[start + len(junk) :])
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # mismatched head widths only warn
            params, cfg, extra = load_checkpoint(str(path))
    except ConfigError:
        return
    assert isinstance(cfg, ModelConfig) and isinstance(extra, dict)
    for name, shape, _ in parameter_inventory(cfg):
        assert params[name].shape == shape
