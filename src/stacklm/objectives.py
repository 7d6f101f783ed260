"""Training objectives, and the one place that chooses which a step optimizes.

Every pretraining batch carries ``targets`` aligned with its positions and
a ``loss_mask`` weighing each position (``data`` does the causal shift), so
``lm_loss`` is the one token objective of all three families: causal
next-token, masked-token and seq2seq prediction.  The logits are aligned
with the targets at ``positions``: every position, or, when the model
scored only some (``ModelOutput.positions``, flat indices into
``batch * seq``), the targets and weights at those.  ``scored_positions``
picks them for a training step: the masked positions of an encoder-only
batch, whose other positions weigh nothing, and every position otherwise.
``sop_loss`` is the two-way segment-order head.

``loss`` decides what a step optimizes, and over what: a batch without
``targets`` is a classification batch, scored by the cross entropy of the
classifier logits against its ``labels``; any other batch is scored by
``lm_loss``, plus ``sop_loss`` when the model returned segment-order logits
(encoder pretraining).  Each term is normalized over the full batch the
(shard) batch was cut from, so shard losses sum to the full-batch loss.
``model.forward`` picks the output head from the parameters; a batch that
does not fit the logits it gets raises ``ShapeError``.

A loss called with an all-zero mask is defined as exactly zero, with a
zero gradient.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .data import PackedSequenceBatch
from .model import ModelOutput
from .tensor import Tensor


def scored_positions(family: str, batch: PackedSequenceBatch) -> np.ndarray | None:
    """The flat positions a training step scores: an encoder-only batch's weighted ones, else None (all)."""
    if family == "encoder-only" and batch.targets is not None:
        return np.flatnonzero(batch.loss_mask)
    return None


def lm_loss(
    logits: Tensor, batch: PackedSequenceBatch, normalizer: float | None = None, positions: np.ndarray | None = None
) -> Tensor:
    """Cross entropy of ``batch.targets``, each position weighted by ``batch.loss_mask``.

    With ``positions``, ``logits`` has one row per flat position, and the
    targets and weights are read at the same positions.
    """
    if batch.targets is None:
        raise ValueError("batch has no targets")
    targets, weights = batch.targets, batch.loss_mask
    if positions is not None:
        targets, weights = targets.reshape(-1)[positions], weights.reshape(-1)[positions]
    return T.softmax_cross_entropy(logits, targets, weights, normalizer)


# The families differ only in how their batches align targets; the names stay
# because the benchmark calls and traces each family's objective by name.
mlm_loss = seq2seq_loss = lm_loss


def sop_loss(sop_logits: Tensor, batch: PackedSequenceBatch, normalizer: float | None = None) -> Tensor:
    if batch.labels is None:
        raise ValueError("batch has no segment-order labels")
    return T.softmax_cross_entropy(sop_logits, batch.labels, np.ones(batch.batch_size), normalizer)


def loss(out: ModelOutput, batch: PackedSequenceBatch, whole: PackedSequenceBatch) -> Tensor:
    """The training objective for ``out`` on ``batch``, each term over its total in ``whole``."""
    if batch.targets is None:
        return T.softmax_cross_entropy(out.logits, batch.labels, np.ones(batch.batch_size), float(whole.batch_size))
    token = lm_loss(out.logits, batch, float(whole.loss_mask.sum()), out.positions)
    if out.sop_logits is None:
        return token
    return T.add(token, sop_loss(out.sop_logits, batch, float(whole.batch_size)))
