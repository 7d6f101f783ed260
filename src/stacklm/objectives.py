"""Training objectives, and the one place that chooses which a step optimizes.

``lm_loss`` is causal next-token prediction (each position conditions on
its prefix only); ``mlm_loss`` averages over corrupted positions, weighting
every position by its loss-mask entry so untouched positions contribute
nothing; ``sop_loss`` is the two-way segment-order head; ``seq2seq_loss``
is next-token prediction over the target block given the encoded source.

``loss`` chooses what a step optimizes: the cross entropy of the
classifier logits that ``model.forward`` returns when the parameters carry
the fine-tune head (``cls.w``), else the family objective; encoder
pretraining optimizes ``mlm_loss + sop_loss``.
``weights`` gives its full-batch denominators.

A loss called with an all-zero mask is defined as exactly zero, with a
zero gradient.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .data import PackedSequenceBatch
from .model import ModelOutput, ModelParams
from .tensor import Tensor


def lm_loss(logits: Tensor, batch: PackedSequenceBatch, normalizer: float | None = None) -> Tensor:
    """Next-token cross entropy with the causal shift applied here."""
    steps = logits.shape[-2] - 1
    if steps < 1:
        raise ValueError("next-token loss needs at least two positions")
    pred = T.narrow(logits, logits.ndim - 2, 0, steps)
    targets = batch.ids[..., 1:]
    mask = batch.loss_mask[..., 1:]
    return T.softmax_cross_entropy(pred, targets, mask, normalizer)


def mlm_loss(logits: Tensor, batch: PackedSequenceBatch, normalizer: float | None = None) -> Tensor:
    """Cross entropy averaged over the corrupted positions only."""
    if batch.mlm_targets is None:
        raise ValueError("batch has no masked-token targets")
    return T.softmax_cross_entropy(logits, batch.mlm_targets, batch.loss_mask, normalizer)


def sop_loss(sop_logits: Tensor, batch: PackedSequenceBatch, normalizer: float | None = None) -> Tensor:
    if batch.sop_labels is None:
        raise ValueError("batch has no segment-order labels")
    return T.softmax_cross_entropy(sop_logits, batch.sop_labels, np.ones(batch.batch_size), normalizer)


def seq2seq_loss(logits: Tensor, batch: PackedSequenceBatch, normalizer: float | None = None) -> Tensor:
    """Next-token loss over the target block given the full source."""
    if batch.target_out is None:
        raise ValueError("batch has no seq2seq targets")
    return T.softmax_cross_entropy(logits, batch.target_out, batch.loss_mask, normalizer)


def weights(params: ModelParams, family: str, batch: PackedSequenceBatch) -> tuple[float, ...]:
    """Full-batch denominators of the loss components ``loss`` sums."""
    if "cls.w" in params:
        return (float(batch.batch_size),)
    if family == "encoder-only":
        return (float(batch.loss_mask.sum()), float(batch.batch_size))
    if family == "decoder-only":
        return (float(batch.loss_mask[..., 1:].sum()),)
    return (float(batch.loss_mask.sum()),)


def loss(params: ModelParams, family: str, out: ModelOutput, batch: PackedSequenceBatch, normalizers) -> Tensor:
    """The training objective for ``out``, each component over its normalizer."""
    if "cls.w" in params:
        return T.softmax_cross_entropy(out.logits, batch.sop_labels, np.ones(batch.batch_size), normalizers[0])
    if family == "decoder-only":
        return lm_loss(out.logits, batch, normalizers[0])
    if family == "encoder-decoder":
        return seq2seq_loss(out.logits, batch, normalizers[0])
    return T.add(mlm_loss(out.logits, batch, normalizers[0]), sop_loss(out.sop_logits, batch, normalizers[1]))
