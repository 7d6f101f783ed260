"""Training engine: one-step recipe and deterministic simulated data parallelism.

A step runs one training forward (optionally discarding per-layer
activations and recomputing them during backward), takes the loss that
``objectives.loss`` chooses, for pretraining and fine-tuning alike, and
backpropagates it with the loss scale as the seed gradient.  One number
then decides the update: the global L2 norm of the summed, still scaled
gradients, divided by the loss scale.
A non-finite norm skips the step and backs the scaler off; otherwise one
multiply unscales and clips the gradients to norm 1 and one Adam update
runs at the scheduled rate.  The scaler is always there: with loss scaling
off it is fixed at scale 1 and never grows or backs off.  Every step runs
one body, ``data_parallel_step`` (alias ``train_step``): ``objectives.loss``
normalizes every one of ``n_shards`` shard losses (default one) over the
full batch, and shard gradients are summed in fixed shard-index order.  One
shard is exactly the full-batch step; more shards equal it up to
floating-point rounding.  A parameter the loss never reached
(a fine-tuned encoder's pretraining heads) has no gradient and is neither
clipped nor updated.

Metrics are emitted one line-delimited JSON record per step.  An engine
checkpoint is a model checkpoint that also carries the engine config, step
counters, loss-scaler state and Adam moments, and restores bit-identical
continuation.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import Callable, Optional, TextIO

import numpy as np

from . import objectives
from .data import PackedSequenceBatch
from .model import ConfigError, ModelConfig, ModelParams, forward, load_checkpoint, save_checkpoint
from .optim import (
    LossScaler,
    OptimizerState,
    TrainSchedule,
    adam_step,
    clip_global_norm,
    loss_scaler_step,
    lr_at,
)
from .tensor import DropoutRng, Tape


@dataclass
class EngineConfig:
    schedule: TrainSchedule
    use_loss_scaler: bool = True
    recompute_activations: bool = False
    seed: int = 0


@dataclass
class StepMetrics:
    step: int
    loss: float
    lr: float
    grad_norm: float
    loss_scale: float
    skipped: bool

    def to_json(self) -> str:
        return json.dumps(asdict(self))


def write_metrics(stream: TextIO, metrics: StepMetrics) -> None:
    stream.write(metrics.to_json() + "\n")
    stream.flush()


class TrainEngine:
    """Owns the parameters, optimizer state and step counter for one run."""

    def __init__(self, params: ModelParams, model_cfg: ModelConfig, engine_cfg: EngineConfig):
        self.params = params
        self.model_cfg = model_cfg
        self.cfg = engine_cfg
        self.optimizer = OptimizerState(params)
        # loss scaling off is a scale of 1 that never moves; float32 needs no more
        self.scaler = (
            LossScaler() if engine_cfg.use_loss_scaler else LossScaler(1.0, growth_factor=1.0, backoff_factor=1.0)
        )
        self.step = 0

    def _apply_update(self, grads: dict[str, np.ndarray], loss_value: float) -> StepMetrics:
        """One decision from the global norm of ``grads``, which carry the loss scale."""
        grads, norm = clip_global_norm(grads, loss_scale=self.scaler.scale)
        skipped = not math.isfinite(norm)
        loss_scaler_step(self.scaler, not skipped)
        lr = lr_at(self.cfg.schedule, self.step + 1)
        if not skipped:
            adam_step(self.params, grads, self.optimizer, lr)
        metrics = StepMetrics(
            step=self.step,
            loss=loss_value,
            lr=lr,
            grad_norm=norm,
            loss_scale=self.scaler.scale,
            skipped=skipped,
        )
        self.step += 1
        return metrics

    # -- public steps --------------------------------------------------------

    def _scaled_gradients(self, batch: PackedSequenceBatch, n_shards: int) -> tuple[dict[str, np.ndarray], float]:
        """Forward/backward only: (loss-scale times gradients, unscaled loss).

        Every shard loss is normalized over the full batch and shard
        gradients are summed, in place into the first shard's arrays, in
        fixed shard-index order.
        """
        combined: dict[str, np.ndarray] = {}
        loss_total = 0.0
        # at least one pass, so that ``shard`` rejects n_shards < 1
        for index in range(max(n_shards, 1)):
            shard = batch.shard(index, n_shards)
            self.params.zero_grads()
            rng = DropoutRng(self.cfg.seed, self.step, shard.example_ids)
            with Tape() as tape:
                out = forward(
                    self.params, self.model_cfg, shard.ids, mode="train", rng=rng,
                    recompute=self.cfg.recompute_activations,
                    type_ids=shard.type_ids, attention_mask=shard.attention_mask,
                    source_ids=shard.source_ids, source_attention_mask=shard.source_mask,
                )
                loss = objectives.loss(out, shard, batch)
                del out  # leave the outputs to the tape, which frees them as backward consumes it
            tape.backward(loss, seed_grad=self.scaler.scale)
            for name, t in self.params.items():
                if t.grad is None:
                    continue
                if name in combined:
                    combined[name] += t.grad
                else:
                    combined[name] = t.grad
            loss_total += float(loss.data)
        self.params.zero_grads()
        return combined, loss_total

    def compute_gradients(self, batch: PackedSequenceBatch, n_shards: int = 1) -> tuple[dict[str, np.ndarray], float]:
        """Unscaled full-batch gradients and loss, without touching any state."""
        grads, loss = self._scaled_gradients(batch, n_shards)
        return {name: g / self.scaler.scale for name, g in grads.items()}, loss

    def data_parallel_step(self, batch: PackedSequenceBatch, n_shards: int = 1) -> StepMetrics:
        """Shard the batch, reduce gradients in fixed shard order, update once."""
        grads, loss = self._scaled_gradients(batch, n_shards)
        return self._apply_update(grads, loss)

    # perfbench/ patches, and the acceptance suite calls, the step by this name
    train_step = data_parallel_step


def save_engine_checkpoint(path: str, engine: TrainEngine) -> None:
    """A model checkpoint plus engine config, step counters, scaler and Adam moments."""
    extra = {
        "engine": asdict(engine.cfg),
        "step": engine.step,
        "optimizer_step": engine.optimizer.step,
        "scaler": asdict(engine.scaler),
    }
    moments = {"adam_m": engine.optimizer.m, "adam_v": engine.optimizer.v}
    save_checkpoint(path, engine.params, engine.model_cfg, extra, slots=moments)


def load_engine_checkpoint(path: str) -> TrainEngine:
    params, model_cfg, extra = load_checkpoint(path, slots=("adam_m", "adam_v"))
    try:
        saved = extra["engine"]
        engine_cfg = EngineConfig(**{**saved, "schedule": TrainSchedule(**saved["schedule"])})
        engine = TrainEngine(params, model_cfg, engine_cfg)
        engine.step = extra["step"]
        engine.optimizer.step = extra["optimizer_step"]
        engine.scaler = LossScaler(**extra["scaler"])
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"{path}: cannot rebuild the engine from its record: {exc}") from None
    engine.optimizer.m = extra["adam_m"]
    engine.optimizer.v = extra["adam_v"]
    return engine


def train_loop(
    engine: TrainEngine,
    batch_fn: Callable[[int], PackedSequenceBatch],
    n_steps: int,
    metrics_stream: Optional[TextIO] = None,
    n_shards: int = 1,
) -> list[StepMetrics]:
    """Run ``n_steps`` training steps; batch ``k`` comes from ``batch_fn(k)``."""
    history = []
    for _ in range(n_steps):
        batch = batch_fn(engine.step)
        metrics = engine.data_parallel_step(batch, n_shards)
        if metrics_stream is not None:
            write_metrics(metrics_stream, metrics)
        history.append(metrics)
    return history
