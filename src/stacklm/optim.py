"""Optimization recipe: warmup schedules, global clipping, Adam, loss scaling.

Clipping also unscales, and its non-finite global norm is the one overflow
signal that the ``LossScaler`` state machine acts on.

Adam runs with the AdamW constants below (beta1 0.9, beta2 0.999, eps
1e-8, weight decay 0.01).  Weight decay is decoupled (applied to the
parameter before the Adam delta, never mixed into the gradient).  Matrices
decay; vectors (biases and norm gains) and the embedding tables do not,
following the model lineage these recipes come from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelParams

DECAY_SHAPES = ("cosine", "linear")


class ScheduleError(ValueError):
    pass


@dataclass(frozen=True)
class TrainSchedule:
    """Linear warmup from zero, then cosine or linear decay to ``min_lr``."""

    peak_lr: float
    min_lr: float
    warmup_steps: int
    total_steps: int
    decay_shape: str = "cosine"

    def __post_init__(self):
        if not 0 <= self.warmup_steps <= self.total_steps:
            raise ScheduleError(
                f"warmup_steps must lie in [0, total_steps], got {self.warmup_steps} of {self.total_steps}"
            )
        if self.min_lr > self.peak_lr:
            raise ScheduleError(f"min_lr {self.min_lr} exceeds peak_lr {self.peak_lr}")
        if self.decay_shape not in DECAY_SHAPES:
            raise ScheduleError(f"decay_shape must be one of {DECAY_SHAPES}, got {self.decay_shape!r}")


# The published pretraining schedules.
GPT_PRETRAIN_SCHEDULE = TrainSchedule(peak_lr=1.5e-4, min_lr=1e-5, warmup_steps=3_000, total_steps=300_000, decay_shape="cosine")
BERT_PRETRAIN_SCHEDULE = TrainSchedule(peak_lr=1.0e-4, min_lr=0.0, warmup_steps=10_000, total_steps=500_000, decay_shape="linear")


def lr_at(schedule: TrainSchedule, step: int) -> float:
    """Learning rate after ``step`` iterations (ramp 0 -> peak over warmup,
    decay to ``min_lr`` at ``total_steps``, clamped afterwards)."""
    if step < 0:
        raise ScheduleError(f"step must be non-negative, got {step}")
    if step < schedule.warmup_steps:
        return schedule.peak_lr * step / schedule.warmup_steps
    if step >= schedule.total_steps:
        return schedule.min_lr
    progress = (step - schedule.warmup_steps) / (schedule.total_steps - schedule.warmup_steps)
    if schedule.decay_shape == "cosine":
        return schedule.min_lr + (schedule.peak_lr - schedule.min_lr) * 0.5 * (1.0 + math.cos(math.pi * progress))
    return schedule.peak_lr + (schedule.min_lr - schedule.peak_lr) * progress


def clip_global_norm(
    grads: dict[str, np.ndarray], max_norm: float = 1.0, loss_scale: float = 1.0
) -> tuple[dict[str, np.ndarray], float]:
    """Unscale gradients and rescale them so their joint L2 norm is at most ``max_norm``.

    ``grads`` still carry ``loss_scale``.  Their norm is taken once and
    divided by it; the gradients are then unscaled and clipped by a single
    multiply, and returned unchanged when that factor is 1.  Returns the
    gradients and the unscaled pre-clip norm.  A non-finite input (an
    overflow) is signalled by a non-finite returned norm with the gradients
    untouched, not by an exception.
    """
    total = 0.0
    for g in grads.values():
        total += float(np.sum(np.square(g, dtype=np.float64)))
    norm = math.sqrt(total) / loss_scale
    if not math.isfinite(norm):
        return grads, norm
    factor = (max_norm / norm if norm > max_norm else 1.0) / loss_scale
    if factor == 1.0:
        return grads, norm
    return {name: g * factor for name, g in grads.items()}, norm


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
WEIGHT_DECAY = 0.01

_EMBEDDING_NAMES = frozenset({"tok_emb", "pos_emb", "type_emb"})


def wants_weight_decay(name: str, shape: tuple[int, ...]) -> bool:
    return len(shape) >= 2 and name not in _EMBEDDING_NAMES


class OptimizerState:
    """Per-parameter Adam moments plus the shared step counter."""

    def __init__(self, params: ModelParams):
        self.step = 0
        self.m = {name: np.zeros_like(t.data) for name, t in params.items()}
        self.v = {name: np.zeros_like(t.data) for name, t in params.items()}
        self.decay = {name: wants_weight_decay(name, t.shape) for name, t in params.items()}


def adam_step(params: ModelParams, grads: dict[str, np.ndarray], state: OptimizerState, lr: float) -> None:
    """One bias-corrected Adam update with decoupled weight decay."""
    state.step += 1
    c1 = 1.0 - ADAM_BETA1 ** state.step
    c2 = 1.0 - ADAM_BETA2 ** state.step
    for name, g in grads.items():
        tensor = params[name]
        if g.shape != tensor.shape:
            raise ValueError(f"gradient for {name} has shape {g.shape}, expected {tensor.shape}")
        if state.decay[name] and lr != 0.0:
            tensor.data *= 1.0 - lr * WEIGHT_DECAY
        m = state.m[name]
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * np.square(g)
        if lr != 0.0:
            tensor.data -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)


@dataclass
class LossScaler:
    """Dynamic loss-scale state machine.

    A step with non-finite gradients is skipped, multiplies the scale by
    ``backoff_factor`` and resets the good-step counter; after
    ``growth_interval`` consecutive good steps the scale grows by
    ``growth_factor``.  From a power-of-two start the default factors keep
    every scale a power of two, so unscaling by it is exact unless the
    unscaled value is subnormal.
    """

    scale: float = 2.0**16
    growth_interval: int = 2000
    growth_factor: float = 2.0
    backoff_factor: float = 0.5
    consecutive_good_steps: int = 0

    def __post_init__(self):
        if self.scale <= 0:
            raise ValueError(f"loss scale must be positive, got {self.scale}")


def loss_scaler_step(scaler: LossScaler, finite: bool) -> None:
    """Advance the scaler after one step whose gradients were (not) ``finite``.

    The caller decides finiteness (``clip_global_norm`` returns a
    non-finite norm on overflow) and skips the update itself.
    """
    if not finite:
        scaler.scale *= scaler.backoff_factor
        scaler.consecutive_good_steps = 0
        return
    scaler.consecutive_good_steps += 1
    if scaler.consecutive_good_steps >= scaler.growth_interval:
        scaler.scale *= scaler.growth_factor
        scaler.consecutive_good_steps = 0
