import numpy as np
import pytest

from stacklm import tensor as T
from stacklm.model import (
    ConfigError,
    InputError,
    ModelConfig,
    build_model,
    config_from_text,
    config_to_text,
    count_params,
    forward,
    load_checkpoint,
    parameter_inventory,
    save_checkpoint,
)
from stacklm.tensor import DropoutRng, Tape


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
    out = forward(params, cfg, np.array([1, 2, 3]))
    assert out.logits.shape == (3, 11)


@pytest.mark.parametrize("family", ["decoder-only", "encoder-only", "encoder-decoder"])
@pytest.mark.parametrize("tie", [True, False])
def test_count_equals_instantiated_elements(family, tie):
    cfg = tiny(family, n_layers=4, tie_embeddings=tie)
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
            tie_embeddings=bool(rng.integers(2)),
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
    cfg = tiny("decoder-only", tie_embeddings=True)
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


def test_overlong_sequence_rejected():
    cfg = tiny("decoder-only")
    params = build_model(cfg, seed=0)
    with pytest.raises(InputError):
        forward(params, cfg, np.zeros((1, cfg.max_seq_len + 1), dtype=int))


@pytest.mark.parametrize("family", ["decoder-only", "encoder-only", "encoder-decoder"])
def test_one_dimensional_call_matches_batched_row(family):
    cfg = tiny(family, n_layers=2, dropout_p=0.0)
    params = build_model(cfg, seed=6)
    ids, keep = np.array([3, 1, 4, 1, 5]), np.array([1, 1, 1, 1, 0])
    kwargs = dict(
        type_ids=np.array([0, 0, 1, 1, 1]), attention_mask=keep,
        source_ids=np.array([9, 2, 6, 5, 3]), source_attention_mask=keep,
    )
    single = forward(params, cfg, ids, **kwargs)
    batched = forward(params, cfg, ids[None], **{name: a[None] for name, a in kwargs.items()})
    assert np.array_equal(single.logits.data, batched.logits.data[0])
    if family == "encoder-decoder":
        with pytest.raises(InputError):
            forward(params, cfg, ids, source_ids=np.zeros(cfg.max_seq_len + 1, dtype=int))


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
