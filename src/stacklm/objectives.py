"""Training objectives, and the one place that chooses which a step optimizes.

Every pretraining batch carries ``targets`` aligned with the logits and a
``loss_mask`` weighing each position (``data`` does the causal shift), so
``lm_loss`` is the one token objective of all three families: causal
next-token, masked-token and seq2seq prediction.  ``sop_loss`` is the
two-way segment-order head.

``loss`` chooses what a step optimizes: the cross entropy of the
classifier logits that ``model.forward`` returns when the parameters carry
the fine-tune head (``cls.w``), else ``lm_loss``, plus ``sop_loss`` when the
model has a segment-order head (encoder pretraining).
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
    """Cross entropy of ``batch.targets``, each position weighted by ``batch.loss_mask``."""
    if batch.targets is None:
        raise ValueError("batch has no targets")
    return T.softmax_cross_entropy(logits, batch.targets, batch.loss_mask, normalizer)


# The families differ only in how their batches align targets; the names stay
# because the benchmark calls and traces each family's objective by name.
mlm_loss = seq2seq_loss = lm_loss


def sop_loss(sop_logits: Tensor, batch: PackedSequenceBatch, normalizer: float | None = None) -> Tensor:
    if batch.labels is None:
        raise ValueError("batch has no segment-order labels")
    return T.softmax_cross_entropy(sop_logits, batch.labels, np.ones(batch.batch_size), normalizer)


def weights(params: ModelParams, batch: PackedSequenceBatch) -> tuple[float, ...]:
    """Full-batch denominators of the loss components ``loss`` sums."""
    if "cls.w" in params:
        return (float(batch.batch_size),)
    return (float(batch.loss_mask.sum()), float(batch.batch_size))


def loss(params: ModelParams, out: ModelOutput, batch: PackedSequenceBatch, normalizers) -> Tensor:
    """The training objective for ``out``, each component over its normalizer."""
    if "cls.w" in params:
        return T.softmax_cross_entropy(out.logits, batch.labels, np.ones(batch.batch_size), normalizers[0])
    token = lm_loss(out.logits, batch, normalizers[0])
    if out.sop_logits is None:
        return token
    return T.add(token, sop_loss(out.sop_logits, batch, normalizers[1]))
