"""Depth-parameterized transformer families and exact parameter accounting.

Three families share the same pre-layer-norm block: a decoder-only stack
with causal self-attention, an encoder-only stack with a masked-token head,
a pooler and a two-way segment-order head, and an encoder-decoder stack
whose decoder blocks add cross-attention.  All three take one code path.
Self- and cross-attention differ only in their projections (a fused
``w_qkv`` against separate ``w_q``/``w_k``/``w_v``) and share one attention
core.  Every stack (the single stack, the encoder and the decoder) is
embedding, blocks and a final layer norm.  ``forward`` has one body and one
output head, the transposed token embedding: the input embedding is always
the output layer, so there is no separate ``lm_head``.  The encoder-only
family adds its masked-token transform before that head and the pooler and
segment-order head beside it.  A fine-tuned encoder is the body (every
parameter but the pretraining heads ``mlm.*``/``sop.*``) plus the
classifier ``cls.*`` over the pooled output, its only head.

``parameter_inventory`` is the single source of truth for parameter names
and shapes, of a pretraining model and of a fine-tuned one alike;
``build_model`` instantiates exactly the pretraining inventory and
``count_params`` sums it, so the analytic count always equals the
instantiated element count.  A checkpoint loads exactly one inventory.

Initialization: weights are drawn from Normal(0, 0.02); the projections
feeding a residual connection (attention output, second MLP matrix,
cross-attention output) are scaled by an extra 1/sqrt(2N) where N is the
total number of transformer layers.
"""

from __future__ import annotations

import json
import math
import mmap
import warnings
import zipfile
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from . import tensor as T
from .fileio import atomic_write
from .tensor import DropoutRng, Tensor

FAMILIES = ("decoder-only", "encoder-only", "encoder-decoder")

INIT_STD = 0.02
LAYER_NORM_EPS = 1e-5
MLP_WIDTH_FACTOR = 4
CHECKPOINT_VERSION = 1


class ConfigError(ValueError):
    pass


class InputError(ValueError):
    pass


@dataclass
class ModelConfig:
    """One row of the reference model table."""

    family: str
    n_layers: int
    d_layer: int
    n_heads: int
    d_head: int
    vocab_size: int
    max_seq_len: int = 0  # 0 resolves to the family default (512 encoder-only, 1024 otherwise)
    dropout_p: float = 0.1

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        if self.n_layers < 0 or self.d_layer <= 0 or self.n_heads <= 0 or self.d_head <= 0:
            raise ConfigError("layer count must be >= 0 and widths positive")
        if self.vocab_size <= 0:
            raise ConfigError(f"vocab_size must be positive, got {self.vocab_size}")
        if self.max_seq_len < 0:
            raise ConfigError(f"max_seq_len must be >= 0 (0 = family default), got {self.max_seq_len}")
        if self.family == "encoder-decoder" and self.n_layers % 2 != 0:
            raise ConfigError(f"encoder-decoder needs an even layer count, got {self.n_layers}")
        if self.max_seq_len == 0:
            self.max_seq_len = 512 if self.family == "encoder-only" else 1024
        if not 0.0 <= self.dropout_p < 1.0:
            raise ConfigError(f"dropout_p must lie in [0, 1), got {self.dropout_p}")
        if self.n_heads * self.d_head != self.d_layer:
            warnings.warn(
                f"n_heads * d_head = {self.n_heads * self.d_head} does not equal "
                f"d_layer = {self.d_layer}; attention will use width {self.n_heads * self.d_head}",
                stacklevel=2,
            )

    @property
    def d_attn(self) -> int:
        return self.n_heads * self.d_head

    @property
    def d_mlp(self) -> int:
        return MLP_WIDTH_FACTOR * self.d_layer


def _block_inventory(prefix: str, cfg: ModelConfig, cross: bool):
    d, da, dm = cfg.d_layer, cfg.d_attn, cfg.d_mlp
    inv = [
        (f"{prefix}.ln1.gain", (d,), "ones"),
        (f"{prefix}.ln1.bias", (d,), "zeros"),
        (f"{prefix}.attn.w_qkv", (d, 3 * da), "normal"),
        (f"{prefix}.attn.b_qkv", (3 * da,), "zeros"),
        (f"{prefix}.attn.w_out", (da, d), "residual"),
        (f"{prefix}.attn.b_out", (d,), "zeros"),
    ]
    if cross:
        inv += [
            (f"{prefix}.ln_cross.gain", (d,), "ones"),
            (f"{prefix}.ln_cross.bias", (d,), "zeros"),
            (f"{prefix}.cross.w_q", (d, da), "normal"),
            (f"{prefix}.cross.b_q", (da,), "zeros"),
            (f"{prefix}.cross.w_k", (d, da), "normal"),
            (f"{prefix}.cross.b_k", (da,), "zeros"),
            (f"{prefix}.cross.w_v", (d, da), "normal"),
            (f"{prefix}.cross.b_v", (da,), "zeros"),
            (f"{prefix}.cross.w_out", (da, d), "residual"),
            (f"{prefix}.cross.b_out", (d,), "zeros"),
        ]
    inv += [
        (f"{prefix}.ln2.gain", (d,), "ones"),
        (f"{prefix}.ln2.bias", (d,), "zeros"),
        (f"{prefix}.mlp.w_fc", (d, dm), "normal"),
        (f"{prefix}.mlp.b_fc", (dm,), "zeros"),
        (f"{prefix}.mlp.w_proj", (dm, d), "residual"),
        (f"{prefix}.mlp.b_proj", (d,), "zeros"),
    ]
    return inv


def parameter_inventory(cfg: ModelConfig, n_classes: Optional[int] = None) -> list[tuple[str, tuple[int, ...], str]]:
    """Every named parameter with its shape and init kind, in build order.

    With ``n_classes``, the fine-tuned encoder's: the pretraining heads
    ``mlm.*``/``sop.*`` give way to a zero classifier ``cls.*`` over the
    pooled output.
    """
    d, v = cfg.d_layer, cfg.vocab_size
    inv = [("tok_emb", (v, d), "normal"), ("pos_emb", (cfg.max_seq_len, d), "normal")]
    if cfg.family == "encoder-only":
        inv += [
            ("type_emb", (2, d), "normal"),
            ("emb_ln.gain", (d,), "ones"),
            ("emb_ln.bias", (d,), "zeros"),
        ]
    if cfg.family == "encoder-decoder":
        half = cfg.n_layers // 2
        for i in range(half):
            inv += _block_inventory(f"enc{i}", cfg, cross=False)
        inv += [("enc_final.gain", (d,), "ones"), ("enc_final.bias", (d,), "zeros")]
        for i in range(half):
            inv += _block_inventory(f"dec{i}", cfg, cross=True)
        inv += [("final.gain", (d,), "ones"), ("final.bias", (d,), "zeros")]
    else:
        for i in range(cfg.n_layers):
            inv += _block_inventory(f"block{i}", cfg, cross=False)
        inv += [("final.gain", (d,), "ones"), ("final.bias", (d,), "zeros")]
    if cfg.family == "encoder-only":
        inv += [
            ("mlm.w_transform", (d, d), "normal"),
            ("mlm.b_transform", (d,), "zeros"),
            ("mlm.ln.gain", (d,), "ones"),
            ("mlm.ln.bias", (d,), "zeros"),
            ("mlm.bias", (v,), "zeros"),
            ("pooler.w", (d, d), "normal"),
            ("pooler.b", (d,), "zeros"),
            ("sop.w", (d, 2), "normal"),
            ("sop.b", (2,), "zeros"),
        ]
    if n_classes is not None:
        inv = [entry for entry in inv if not entry[0].startswith(("mlm.", "sop."))]
        inv += [("cls.w", (d, n_classes), "zeros"), ("cls.b", (n_classes,), "zeros")]
    return inv


def count_params(cfg: ModelConfig) -> int:
    """Analytic parameter total; equals the instantiated element count."""
    return sum(int(np.prod(shape)) for _, shape, _ in parameter_inventory(cfg))


_EMBEDDING_NAMES = frozenset({"tok_emb", "pos_emb", "type_emb"})


def wants_weight_decay(name: str, shape: tuple[int, ...]) -> bool:
    """Matrices decay; vectors (biases and norm gains) and the embedding tables do not."""
    return len(shape) >= 2 and name not in _EMBEDDING_NAMES


def mapped_zeros(shape: tuple[int, ...], dtype) -> np.ndarray:
    """A zeroed array in an anonymous shared mapping of its own.

    A forked process reads and writes the same memory, and the memory goes
    back to the system when the array is freed: glibc keeps a freed heap
    block's pages, so a per-model buffer on the heap would leave its size
    in the process's footprint for good.
    """
    dtype = np.dtype(dtype)
    count = math.prod(shape)
    buffer = mmap.mmap(-1, max(count * dtype.itemsize, 1))
    return np.frombuffer(buffer, dtype, count=count).reshape(shape)


class ModelParams:
    """Named parameter tensors in the order of ``shapes``, made at zero in one flat buffer.

    ``flat`` holds every parameter in the one ``dtype``, and every
    tensor's ``data`` is its view of it.  ``table`` maps each name to its
    (offset, shape): the layout of the arena, which is ``flat`` plus the
    gradient and Adam moment buffers an optimizer state lays out the same
    way (``views``).  Tensors that take weight decay come first, so each
    decay group is one contiguous ``segments`` slice.  ``flat`` is a shared
    anonymous mapping: forked shard workers read the parameters the parent
    updates without a copy.
    """

    def __init__(self, shapes: dict[str, tuple[int, ...]], dtype):
        order = sorted(shapes, key=lambda name: not wants_weight_decay(name, shapes[name]))
        offsets, end, n_decayed = {}, 0, 0
        for name in order:
            offsets[name] = end
            end += math.prod(shapes[name])
            if wants_weight_decay(name, shapes[name]):
                n_decayed = end
        self.table = {name: (offsets[name], tuple(shape)) for name, shape in shapes.items()}
        self.segments = {"decayed": slice(0, n_decayed), "undecayed": slice(n_decayed, end)}
        self.flat = mapped_zeros((end,), dtype)
        self.tensors = {
            name: Tensor(view, requires_grad=True, name=name) for name, view in self.views(self.flat).items()
        }

    def reset(self, shapes: dict[str, tuple[int, ...]], kept: dict[str, Tensor]) -> None:
        """Lay out ``shapes`` in a new arena of this object's dtype and copy each tensor of ``kept`` into its view.

        Every other name starts at zero.  ``kept`` may hold this object's
        own tensors: the old arena is freed once nothing holds a view of it.
        """
        self.__init__(shapes, self.flat.dtype)
        for name, t in kept.items():
            self.tensors[name].data[...] = t.data

    def views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Each parameter's view of ``flat``, a buffer laid out like ``self.flat``."""
        return {
            name: flat[offset : offset + math.prod(shape)].reshape(shape)
            for name, (offset, shape) in self.table.items()
        }

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    def __contains__(self, name: str) -> bool:
        return name in self.tensors

    def names(self) -> list[str]:
        return list(self.tensors)

    def items(self):
        return self.tensors.items()

    def element_count(self) -> int:
        return self.flat.size

    def route_grads(self, grads: Optional[dict[str, np.ndarray]]) -> None:
        """Clear the gradients; the next backward writes each into its view in ``grads``, or fresh arrays if None."""
        for name, t in self.tensors.items():
            t.grad = None
            t.grad_buffer = None if grads is None else grads[name]


def build_model(cfg: ModelConfig, seed: int, dtype=np.float32) -> ModelParams:
    """Instantiate every inventory entry with the documented initialization."""
    rng = np.random.default_rng(seed)
    residual_scale = 1.0 / np.sqrt(2.0 * max(cfg.n_layers, 1))
    inventory = parameter_inventory(cfg)
    params = ModelParams({name: shape for name, shape, _ in inventory}, dtype)
    for name, shape, kind in inventory:
        data = params[name].data
        if kind == "normal":
            data[...] = rng.normal(0.0, INIT_STD, size=shape)
        elif kind == "residual":
            data[...] = rng.normal(0.0, INIT_STD * residual_scale, size=shape)
        elif kind == "ones":
            data.fill(1.0)
    return params


# ---------------------------------------------------------------------------
# Forward pass
# ---------------------------------------------------------------------------


@dataclass
class ModelOutput:
    """The head outputs of one forward pass.

    ``positions`` are the flat indices into ``batch * seq`` that the
    vocabulary ``logits`` score, one row each; None means every position,
    and then ``logits`` keep the batch's (batch, seq, V) shape.
    """

    logits: Tensor
    sop_logits: Optional[Tensor] = None
    pooled: Optional[Tensor] = None
    positions: Optional[np.ndarray] = None


def _causal_mask(t: int, dtype) -> np.ndarray:
    mask = np.where(np.tri(t, dtype=bool), 0.0, T.MASK_VALUE).astype(dtype)
    return mask[None, None, :, :]


def _pad_mask(attention_mask: Optional[np.ndarray], dtype) -> Optional[np.ndarray]:
    if attention_mask is None:
        return None
    keep = np.asarray(attention_mask, dtype=dtype)
    return ((1.0 - keep) * T.MASK_VALUE)[:, None, None, :]


def _linear(x: Tensor, p: ModelParams, prefix: str, suffix: str = "") -> Tensor:
    return T.add(T.matmul(x, p[f"{prefix}.w{suffix}"]), p[f"{prefix}.b{suffix}"])


def _norm(x: Tensor, p: ModelParams, prefix: str) -> Tensor:
    return T.layer_norm(x, p[f"{prefix}.gain"], p[f"{prefix}.bias"], LAYER_NORM_EPS)


def _split_heads(x: Tensor, cfg: ModelConfig) -> Tensor:
    b, t, _ = x.shape
    return T.transpose(T.reshape(x, (b, t, cfg.n_heads, cfg.d_head)), (0, 2, 1, 3))


def _attention(q, k, v, p, prefix, cfg, mask, rng, layer, slot):
    """Scaled dot-product attention over split heads, joined and projected by
    ``{prefix}.w_out``.  Dropout draws ``slot`` on the attention
    probabilities and ``slot + 1`` on the projected output."""
    scores = T.scale(T.matmul(q, T.transpose(k, (0, 1, 3, 2))), 1.0 / np.sqrt(cfg.d_head))
    probs = T.dropout(T.softmax(scores, additive_mask=mask), cfg.dropout_p, rng, layer, slot)
    ctx = T.matmul(probs, v)
    b, h, t, dh = ctx.shape
    ctx = T.reshape(T.transpose(ctx, (0, 2, 1, 3)), (b, t, h * dh))
    return T.dropout(_linear(ctx, p, prefix, "_out"), cfg.dropout_p, rng, layer, slot + 1)


def _block(x, p, prefix, cfg, mask, rng, layer, enc_out=None, enc_mask=None):
    """Self-attention, cross-attention to ``enc_out`` when given, then the
    MLP, each on a layer-normed input and added to the residual stream.
    Dropout slots: 0-1 self-attention, 2 MLP, 3-4 cross-attention."""
    da = cfg.d_attn
    qkv = _linear(_norm(x, p, f"{prefix}.ln1"), p, f"{prefix}.attn", "_qkv")
    q, k, v = (_split_heads(T.narrow(qkv, 2, i * da, da), cfg) for i in range(3))
    x = T.add(x, _attention(q, k, v, p, f"{prefix}.attn", cfg, mask, rng, layer, 0))
    if enc_out is not None:
        h = _norm(x, p, f"{prefix}.ln_cross")
        q, k, v = (
            _split_heads(_linear(src, p, f"{prefix}.cross", f"_{name}"), cfg)
            for src, name in ((h, "q"), (enc_out, "k"), (enc_out, "v"))
        )
        x = T.add(x, _attention(q, k, v, p, f"{prefix}.cross", cfg, enc_mask, rng, layer, 3))
    h = T.gelu(_linear(_norm(x, p, f"{prefix}.ln2"), p, f"{prefix}.mlp", "_fc"))
    return T.add(x, T.dropout(_linear(h, p, f"{prefix}.mlp", "_proj"), cfg.dropout_p, rng, layer, 2))


def _stack(
    p, cfg, ids, type_ids, prefix, layers, final, mask, rng, recompute, embed_layer, enc_out=None, enc_mask=None
):
    """Embed ``ids``, run blocks ``{prefix}0, {prefix}1, ...`` (dropout layer
    indices ``layers``; the embedding draws ``embed_layer``) and apply the
    layer norm ``final``.

    ``enc_out`` is captured by the block closure (not passed as a checkpoint
    input) so its gradient accumulates in the same order with and without
    recomputation.
    """
    x = T.add(T.embedding_lookup(p["tok_emb"], ids), T.embedding_lookup(p["pos_emb"], np.arange(ids.shape[1])))
    if cfg.family == "encoder-only":
        x = T.add(x, T.embedding_lookup(p["type_emb"], np.zeros_like(ids) if type_ids is None else type_ids))
        x = _norm(x, p, "emb_ln")
    x = T.dropout(x, cfg.dropout_p, rng, embed_layer, 0)
    for i, layer in enumerate(layers):

        def fn(h, name=f"{prefix}{i}", layer=layer):
            return _block(h, p, name, cfg, mask, rng, layer, enc_out, enc_mask)

        x = T.checkpoint(fn, x) if recompute else fn(x)
    return _norm(x, p, final)


def forward(
    params: ModelParams,
    cfg: ModelConfig,
    ids: np.ndarray,
    *,
    mode: str = "eval",
    source_ids: Optional[np.ndarray] = None,
    type_ids: Optional[np.ndarray] = None,
    attention_mask: Optional[np.ndarray] = None,
    source_attention_mask: Optional[np.ndarray] = None,
    rng: Optional[DropoutRng] = None,
    recompute: bool = False,
    positions: Optional[np.ndarray] = None,
) -> ModelOutput:
    """Run the stack for one batch of token ids.

    ``ids`` is (batch, seq); for encoder-decoder models it is the
    decoder input and ``source_ids`` feeds the encoder.  ``type_ids`` and
    ``attention_mask`` have the shape of ``ids``, ``source_attention_mask``
    that of ``source_ids``; a mask marks real positions with 1 (padding 0).
    Only the encoder-only family embeds ``type_ids``, and only the
    encoder-decoder family encodes a source.  ``mode`` is ``train``
    (dropout active, requires ``rng`` when dropout_p > 0) or ``eval``.

    ``logits`` are over the vocabulary, except for a fine-tuned encoder
    (``params`` carry ``cls.w``): then they are the (batch, n_classes)
    classifier logits over ``pooled``, and ``sop_logits`` is None.
    ``positions``, flat indices into ``batch * seq``, gathers those rows of
    the final hidden states before the vocabulary head, so the head (the
    encoder's masked-token transform, its layer norm, the projection and
    the bias) runs on ``len(positions)`` rows and ``logits`` are
    (len(positions), V).  None scores every position.
    """
    if mode not in ("train", "eval"):
        raise InputError(f"mode must be 'train' or 'eval', got {mode!r}")
    if positions is not None and "cls.w" in params:
        raise InputError("a fine-tuned encoder has no vocabulary head to score positions with")
    if cfg.family == "encoder-decoder" and source_ids is None:
        raise InputError("encoder-decoder forward needs source_ids")
    for what, a in (("sequence", ids), ("source", source_ids)):
        if a is None:
            continue
        if a.ndim != 2:
            raise InputError(f"{what} ids must be a (batch, length) array, got shape {a.shape}")
        if a.shape[1] > cfg.max_seq_len:
            raise InputError(f"{what} length {a.shape[1]} exceeds max_seq_len {cfg.max_seq_len}")
    if mode == "eval":
        rng = None
    elif cfg.dropout_p > 0.0 and rng is None:
        raise InputError("training mode with dropout needs a DropoutRng")
    dtype = params["tok_emb"].dtype

    enc_out = enc_mask = None
    prefix, layers, embed_layer = "block", range(cfg.n_layers), cfg.n_layers
    if cfg.family == "encoder-decoder":
        half = cfg.n_layers // 2
        enc_mask = _pad_mask(source_attention_mask, dtype)
        enc_out = _stack(
            params, cfg, source_ids, None, "enc", range(half), "enc_final", enc_mask, rng, recompute, embed_layer
        )
        prefix, layers, embed_layer = "dec", range(half, cfg.n_layers), cfg.n_layers + 1
    mask = None if cfg.family == "encoder-only" else _causal_mask(ids.shape[1], dtype)
    pad = _pad_mask(attention_mask, dtype)
    if pad is not None:
        mask = pad if mask is None else mask + pad
    x = _stack(
        params, cfg, ids, type_ids, prefix, layers, "final", mask, rng, recompute, embed_layer, enc_out, enc_mask
    )

    sop_logits = pooled = None
    if "cls.w" not in params:
        h = x
        if positions is not None:
            b, t, d = x.shape
            h = T.embedding_lookup(T.reshape(x, (b * t, d)), positions)
        if cfg.family == "encoder-only":
            h = _norm(T.gelu(_linear(h, params, "mlm", "_transform")), params, "mlm.ln")
        logits = T.matmul(h, T.transpose(params["tok_emb"], (1, 0)))
        if cfg.family == "encoder-only":
            logits = T.add(logits, params["mlm.bias"])
    if cfg.family == "encoder-only":
        pooled = T.tanh(_linear(T.select(x, 0, 1), params, "pooler"))
        if "cls.w" in params:
            logits = _linear(pooled, params, "cls")
        else:
            sop_logits = _linear(pooled, params, "sop")
    return ModelOutput(logits, sop_logits, pooled, positions)


# ---------------------------------------------------------------------------
# Config files and checkpoints
# ---------------------------------------------------------------------------


def config_to_text(cfg: ModelConfig) -> str:
    return "".join(f"{f.name} = {getattr(cfg, f.name)}\n" for f in fields(ModelConfig))


def config_from_text(text: str, source: str = "<config>") -> ModelConfig:
    """Parse the ``key = value`` config grammar (``#`` starts a comment)."""
    known = {f.name for f in fields(ModelConfig)}
    kwargs: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in known:
            raise ConfigError(f"{source}:{lineno}: unknown config key {key!r}")
        if key in kwargs:
            raise ConfigError(f"{source}:{lineno}: duplicate config key {key!r}")
        try:
            if key == "family":
                kwargs[key] = value
            elif key == "dropout_p":
                kwargs[key] = float(value)
            else:
                kwargs[key] = int(value)
        except ValueError as exc:
            raise ConfigError(f"{source}:{lineno}: {key}: {exc}") from None
    try:
        return ModelConfig(**kwargs)
    except (TypeError, ConfigError) as exc:
        raise ConfigError(f"{source}: {exc}") from None


def load_config(path: str) -> ModelConfig:
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text: {exc}") from None
    return config_from_text(text, source=path)


def save_checkpoint(
    path: str,
    params: ModelParams,
    cfg: ModelConfig,
    extra: Optional[dict] = None,
    slots: Optional[dict[str, np.ndarray]] = None,
) -> None:
    """Versioned checkpoint: named parameter arrays plus the config.

    ``extra`` is stored as JSON; each buffer of ``slots``, laid out like
    ``params.flat`` (e.g. an Adam moment), is stored as ``<slot>:<name>``.
    """
    meta = {
        "version": CHECKPOINT_VERSION,
        "config": config_to_text(cfg),
        "extra": extra or {},
    }
    arrays = {f"param:{name}": t.data for name, t in params.items()}
    for slot, flat in (slots or {}).items():
        arrays.update({f"{slot}:{name}": a for name, a in params.views(flat).items()})
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    with atomic_write(path, binary=True) as fh:
        np.savez(fh, **arrays)


# what reading a damaged archive raises: zipfile's CRC and header errors (BadZipFile), a member it cannot
# extract (RuntimeError), a seek outside the file (OSError), numpy's header and data errors (ValueError, EOFError)
_DAMAGED_ARCHIVE = (EOFError, OSError, RuntimeError, ValueError, zipfile.BadZipFile)


def _read_array(path: str, archive, key: str) -> np.ndarray:
    """``archive[key]``, which must read back whole and hold only finite numbers; else a ``ConfigError`` naming both."""
    try:
        arr = archive[key]
    except _DAMAGED_ARCHIVE as exc:
        # numpy's message for an oversized header spans lines, and an EOFError may have none
        reason = str(exc).partition("\n")[0] or type(exc).__name__
        raise ConfigError(f"{path}: checkpoint array {key} is damaged: {reason}") from None
    if arr.dtype.kind not in "biuf" or not np.isfinite(arr).all():
        raise ConfigError(f"{path}: checkpoint array {key} holds a NaN or an infinity, or is not numeric")
    return arr


def _read_slot(path: str, archive, slot: str, expected: dict[str, tuple[int, ...]]):
    """Each ``<slot>:<name>`` array of ``path`` as (name, array), read one at a time, checked against ``expected``."""
    prefix = f"{slot}:"
    missing = set(expected)
    for key in archive.files:
        if not key.startswith(prefix):
            continue
        name = key[len(prefix):]
        if name not in expected:
            raise ConfigError(f"{path}: checkpoint has an unexpected {slot} array {name!r}")
        arr = _read_array(path, archive, key)
        if arr.shape != expected[name]:
            raise ConfigError(f"{path}: checkpoint {slot} {name} has shape {arr.shape}, expected {expected[name]}")
        missing.discard(name)
        yield name, arr
    if missing:
        raise ConfigError(f"{path}: checkpoint is missing {slot} arrays: {sorted(missing)[:5]}")


def load_checkpoint(path: str, slots: tuple[str, ...] = ()) -> tuple[ModelParams, ModelConfig, dict]:
    """Parameters, config and ``extra``; each requested slot is added to
    ``extra`` as one buffer laid out like the parameters' ``flat``.

    The parameters are exactly the config's inventory: the fine-tuned one,
    with as many classes as ``cls.w`` has columns, for an encoder whose
    checkpoint carries ``cls.w``.  Each array is copied into its view of
    the arena as it is read.  The arena takes the stored dtype if it is
    float32 or float64, else float64; two dtypes are rejected.
    """
    # np.load(path) leaks its file when a damaged archive fails to open; a handle of ours closes on every path
    with open(path, "rb") as fh:
        try:
            archive = np.load(fh)
            meta = json.loads(archive["meta"].tobytes().decode("utf-8"))
            version = meta.get("version")
        except (AttributeError, IndexError, KeyError, *_DAMAGED_ARCHIVE):
            raise ConfigError(f"{path} is not a stacklm checkpoint: no .npz archive with a meta record") from None
        if type(version) is not int or version != CHECKPOINT_VERSION:
            raise ConfigError(f"{path}: unsupported checkpoint version {version!r}")
        if not isinstance(meta.get("config"), str):
            raise ConfigError(f"{path}: checkpoint meta has no model config text")
        if not isinstance(meta.get("extra"), dict):
            raise ConfigError(f"{path}: checkpoint meta has no 'extra' object")
        cfg = config_from_text(meta["config"], source=path)
        n_classes = None
        if cfg.family == "encoder-only" and "param:cls.w" in archive.files:
            n_classes = (_read_array(path, archive, "param:cls.w").shape or (0,))[-1]
        expected = {name: shape for name, shape, _ in parameter_inventory(cfg, n_classes)}
        params = None
        for name, arr in _read_slot(path, archive, "param", expected):
            dtype = arr.dtype if arr.dtype in (np.float32, np.float64) else np.dtype(np.float64)
            params = params or ModelParams(expected, dtype)
            if dtype != params.flat.dtype:
                raise ConfigError(f"{path}: parameters mix dtypes {sorted(map(str, (dtype, params.flat.dtype)))}")
            params[name].data[...] = arr
        extra = dict(meta["extra"])
        for slot in slots:
            extra[slot] = mapped_zeros(params.flat.shape, params.flat.dtype)
            views = params.views(extra[slot])
            for name, arr in _read_slot(path, archive, slot, expected):
                views[name][...] = arr
    return params, cfg, extra
