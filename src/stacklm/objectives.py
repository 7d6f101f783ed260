"""Training objectives for the three model families.

``lm_loss`` is causal next-token prediction (each position conditions on
its prefix only); ``mlm_loss`` averages over corrupted positions, weighting
every position by its loss-mask entry so untouched positions contribute
nothing; ``sop_loss`` is the two-way segment-order head; ``seq2seq_loss``
is next-token prediction over the target block given the encoded source.
Encoder pretraining optimizes ``mlm_loss + sop_loss``.

A loss called with an all-zero mask is defined as exactly zero, with a
zero gradient.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .data import PackedSequenceBatch
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
