"""Optimization recipe: warmup schedules, global clipping, Adam, loss scaling.

Clipping also unscales, and its non-finite global norm is the one overflow
signal that the ``LossScaler`` state machine acts on.

Adam runs with the AdamW constants below (beta1 0.9, beta2 0.999, eps
1e-8, weight decay 0.01).  Weight decay is decoupled (applied to the
parameter before the Adam delta, never mixed into the gradient).  Matrices
decay; vectors (biases and norm gains) and the embedding tables do not,
following the model lineage these recipes come from
(``model.wants_weight_decay``).

Clip and Adam run on flat memory in chunks of ``CHUNK`` elements: clip over the
arrays it is given (the engine gives it the arena's two weight-decay
segments), Adam over the arena, four parallel flat buffers laid out by
``ModelParams``: its parameters, and the gradients and moments of the
``OptimizerState``.  The arena is Adam's only input: the gradients it
applies are the ones in ``OptimizerState.grad_flat``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, mapped_zeros

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
        if not (math.isfinite(self.peak_lr) and math.isfinite(self.min_lr)):
            raise ScheduleError(f"peak_lr and min_lr must be finite, got {self.peak_lr} and {self.min_lr}")
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


# Elements per pass of clip and Adam: every temporary they make is at most this long.
CHUNK = 32768


def clip_global_norm(
    grads: dict[str, np.ndarray], max_norm: float = 1.0, loss_scale: float = 1.0
) -> tuple[dict[str, np.ndarray], float]:
    """Unscale gradients and clip them, in place, to a joint L2 norm of at most ``max_norm``.

    ``grads`` still carry ``loss_scale``.  Their squares are summed in
    float64, a chunk of at most ``CHUNK`` elements at a time in memory order,
    and the norm is divided by the scale; one multiply per array then
    unscales and clips them, skipped when that factor is 1.  Returns
    ``grads`` and the unscaled pre-clip norm.  A non-finite input (an
    overflow) is signalled by a non-finite returned norm with the gradients
    untouched, not by an exception.
    """
    total = 0.0
    squares = np.empty(min(CHUNK, max((g.size for g in grads.values()), default=0)), dtype=np.float64)
    for g in grads.values():
        flat = np.ravel(g, order="K")
        for start in range(0, flat.size, CHUNK):
            chunk = flat[start : start + CHUNK]
            total += float(np.square(chunk, out=squares[: chunk.size], dtype=np.float64).sum())
    norm = math.sqrt(total) / loss_scale
    if not math.isfinite(norm):
        return grads, norm
    factor = (max_norm / norm if norm > max_norm else 1.0) / loss_scale
    if factor != 1.0:
        for g in grads.values():
            g *= factor
    return grads, norm


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
WEIGHT_DECAY = 0.01


class OptimizerState:
    """Adam's step counter, and the gradient and moment buffers of the arena.

    ``grad_flat``, ``m_flat`` and ``v_flat`` are laid out like
    ``params.flat``, so each weight-decay segment is one slice of all four
    (``params.views`` gives each parameter's view of one).  Each is a
    mapping of its own: a restore that adopts stored moments frees the zero
    ones.  They live as long as the state, not the model.
    """

    def __init__(self, params: ModelParams):
        self.step = 0
        self.grad_flat, self.m_flat, self.v_flat = (mapped_zeros(params.flat.shape, params.flat.dtype) for _ in range(3))


def adam_step(params: ModelParams, state: OptimizerState, lr: float) -> None:
    """One bias-corrected Adam update of every parameter from ``state.grad_flat``, with decoupled weight decay.

    The update runs in place over each weight-decay segment of the arena, a
    chunk of at most ``CHUNK`` elements at a time with two chunk-sized
    temporaries.  Per element it is the arithmetic of a per-tensor update,
    in the same order.
    """
    state.step += 1
    c1 = 1.0 - ADAM_BETA1 ** state.step
    c2 = 1.0 - ADAM_BETA2 ** state.step
    step, denom = np.empty((2, min(CHUNK, params.flat.size)), dtype=params.flat.dtype)
    for segment, span in params.segments.items():
        decay = segment == "decayed" and lr != 0.0
        for start in range(span.start, span.stop, CHUNK):
            chunk = slice(start, min(start + CHUNK, span.stop))
            p, g, m, v = params.flat[chunk], state.grad_flat[chunk], state.m_flat[chunk], state.v_flat[chunk]
            t, d = step[: p.size], denom[: p.size]
            if decay:
                p *= 1.0 - lr * WEIGHT_DECAY
            m *= ADAM_BETA1
            m += np.multiply(g, 1.0 - ADAM_BETA1, out=t)
            v *= ADAM_BETA2
            np.square(g, out=t)
            v += np.multiply(t, 1.0 - ADAM_BETA2, out=t)
            if lr != 0.0:
                np.divide(m, c1, out=t)
                t *= lr
                np.divide(v, c2, out=d)
                np.sqrt(d, out=d)
                d += ADAM_EPS
                t /= d
                p -= t


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
        for name, value in (("loss scale", self.scale), ("growth_factor", self.growth_factor),
                            ("backoff_factor", self.backoff_factor)):
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if not (type(self.growth_interval) is int and self.growth_interval > 0):
            raise ValueError(f"growth_interval must be a positive int, got {self.growth_interval!r}")
        if not (type(self.consecutive_good_steps) is int and self.consecutive_good_steps >= 0):
            raise ValueError(f"consecutive_good_steps must be a non-negative int, got {self.consecutive_good_steps!r}")


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
