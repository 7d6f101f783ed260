"""Training engine: one-step recipe and deterministic data parallelism.

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
floating-point rounding.  Every parameter gets a gradient: a model with a
parameter that the loss does not reach is rejected.

Parameters, gradients and Adam moments lie in the arena: the flat
parameter buffer of ``ModelParams`` and, laid out the same way, the
gradient and moment buffers of ``OptimizerState``.  The first shard's
backward writes each parameter's gradient straight into the arena, and
each later shard's lands in a buffer laid out like it and is added with
one flat add.  The update then runs over the arena's two weight-decay
segments: clip sums the squares in arena order (decayed tensors first), a
chunk at a time, and Adam updates in place.

Shards run on the machine's cores.  A step with more than one shard uses
``shard_processes(n_shards)`` processes: as many as the usable cores hold
at the configured BLAS threads per process, and never more than there are
shards.  The parent runs the first contiguous block of shards and forked
workers run the others, each its own block.  The parameter buffer is a
shared mapping, so the workers read the parameters the parent updates and
no step copies them.  Every worker writes each of its shards' gradients into its
own shared slot, laid out like the arena, and the parent adds the slots to
its own sum in shard-index order.  Every float operation therefore runs in
the order of the one-process loop and the result is bit-identical to it.
The workers are forked at an engine's first multi-process step and close
with the engine.  A worker sees module state as it was when it was forked:
a function patched into ``stacklm`` later does not reach it.

Metrics are emitted one line-delimited JSON record per step.  An engine
checkpoint is a model checkpoint that also carries the engine config, step
counters, loss-scaler state and Adam moments, and restores bit-identical
continuation.
"""

from __future__ import annotations

import json
import math
import os
import weakref
from dataclasses import asdict, dataclass
from typing import Callable, Iterator, Optional, TextIO

import numpy as np

from . import objectives
from .data import PackedSequenceBatch
from .model import ConfigError, ModelConfig, ModelParams, forward, load_checkpoint, mapped_zeros, save_checkpoint
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

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_JOIN_TIMEOUT_S = 5.0

# The parent's end of every open worker pipe.  A fork copies all of them, and
# a worker closes its copies first, so that each worker sees end-of-file as
# soon as its own parent end closes, or its parent dies.
_PARENT_ENDS: set = set()


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


# -- shards on the machine's cores --------------------------------------------


def _usable_cores() -> int:
    # Only Linux reports the cores this process may use.  Elsewhere count one,
    # so shards stay in this process: Windows cannot fork, and macOS's
    # Accelerate BLAS is not safe to use in a forked child.
    sched_getaffinity = getattr(os, "sched_getaffinity", None)
    return len(sched_getaffinity(0)) if sched_getaffinity else 1


def blas_threads() -> int:
    """BLAS threads per process: the first positive thread-count variable, else OpenBLAS's default of one per core."""
    for var in BLAS_THREAD_VARS:
        try:
            threads = int(os.environ[var])
        except (KeyError, ValueError):
            continue
        if threads > 0:
            return threads
    return _usable_cores()


def shard_processes(n_shards: int) -> int:
    """Processes a step of ``n_shards`` shards runs on, each with cores of its own for its BLAS threads."""
    if n_shards < 2:
        return 1
    return max(1, min(n_shards, _usable_cores() // blas_threads()))


def _shard_pass(params: ModelParams, model_cfg: ModelConfig, cfg: EngineConfig, step: int, scale: float,
                shard: PackedSequenceBatch, batch: PackedSequenceBatch, grads: dict[str, np.ndarray]) -> float:
    """Forward and backward of one shard: its loss; ``scale`` times each gradient is written into ``grads``."""
    params.route_grads(grads)
    try:
        rng = DropoutRng(cfg.seed, step, shard.example_ids)
        with Tape() as tape:
            out = forward(
                params, model_cfg, shard.ids, mode="train", rng=rng,
                recompute=cfg.recompute_activations,
                type_ids=shard.type_ids, attention_mask=shard.attention_mask,
                source_ids=shard.source_ids, source_attention_mask=shard.source_mask,
            )
            loss = objectives.loss(out, shard, batch)
            del out  # leave the outputs to the tape, which frees them as backward consumes it
        tape.backward(loss, seed_grad=scale)
        missing = [name for name, t in params.items() if t.grad is None]
    finally:
        params.zero_grads()  # a later backward outside a step writes fresh arrays, not into ``grads``
    if missing:
        raise ConfigError(f"the loss does not reach parameters {', '.join(missing)}")
    return float(loss.data)


def _worker_main(conn, params: ModelParams, shards: range, n_shards: int, slots: list[dict[str, np.ndarray]]) -> None:
    """A forked shard worker: one request per step, until end-of-file on ``conn``."""
    import signal

    for end in _PARENT_ENDS:
        end.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # an interrupt is the parent's to handle
    while True:
        try:
            batch, model_cfg, cfg, step, scale = conn.recv()
        except EOFError:
            return
        try:
            reply = (None, [
                _shard_pass(params, model_cfg, cfg, step, scale, batch.shard(index, n_shards), batch, slot)
                for index, slot in zip(shards, slots)
            ])
        except Exception as exc:
            reply = (type(exc), str(exc))
        try:
            conn.send(reply)
        except OSError:  # the parent closed the pool during this step
            return


class _ShardWorkers:
    """The forked workers of one engine: worker ``r`` runs the ``r``-th block of shards after the parent's."""

    def __init__(self, params: ModelParams, n_shards: int, n_procs: int):
        import multiprocessing  # about 13 ms; only a multi-process step pays it

        context = multiprocessing.get_context("fork")
        self.owner = os.getpid()
        self.key = (n_shards, n_procs)
        self.conns: list = []
        self.procs: list = []
        self.slots: list[np.ndarray] = []
        try:
            for r in range(1, n_procs):
                shards = range(r * n_shards // n_procs, (r + 1) * n_shards // n_procs)
                slots = mapped_zeros((len(shards), params.flat.size), params.flat.dtype)
                conn, child_end = context.Pipe()
                _PARENT_ENDS.add(conn)
                self.conns.append(conn)
                proc = context.Process(
                    target=_worker_main,
                    args=(child_end, params, shards, n_shards, [params.views(slot) for slot in slots]),
                    daemon=True,
                )
                proc.start()
                child_end.close()  # so that a dead worker is end-of-file here
                self.procs.append(proc)
                self.slots.append(slots)
        except BaseException:
            self.close()
            raise

    def start_step(self, batch: PackedSequenceBatch, model_cfg: ModelConfig, cfg: EngineConfig, step: int,
                   scale: float) -> None:
        request = (batch, model_cfg, cfg, step, scale)
        for conn, proc in zip(self.conns, self.procs):
            try:
                conn.send(request)
            except OSError:
                raise RuntimeError(f"shard worker {proc.pid} exited between steps") from None

    def gather(self) -> Iterator[tuple[float, np.ndarray]]:
        """Each worker shard's loss and flat gradient slot, in shard-index order; a worker's error is raised here."""
        for conn, proc, slots in zip(self.conns, self.procs, self.slots):
            try:
                error, payload = conn.recv()
            except (EOFError, OSError):
                raise RuntimeError(f"shard worker {proc.pid} exited during a step") from None
            if error is not None:
                raise error(payload)
            yield from zip(payload, slots)

    def close(self) -> None:
        if os.getpid() != self.owner:  # a forked copy of another engine's workers, collected in a worker
            return
        for conn in self.conns:
            _PARENT_ENDS.discard(conn)
            conn.close()
        for proc in self.procs:
            proc.join(_JOIN_TIMEOUT_S)
            if proc.is_alive():
                proc.kill()
                proc.join()


class TrainEngine:
    """Owns the parameters, optimizer state and step counter for one run."""

    def __init__(self, params: ModelParams, model_cfg: ModelConfig, engine_cfg: EngineConfig):
        self.params = params
        self.model_cfg = model_cfg
        self.cfg = engine_cfg
        self.optimizer = OptimizerState(params)
        self._grad_segments = {segment: self.optimizer.grad_flat[span] for segment, span in params.segments.items()}
        # loss scaling off is a scale of 1 that never moves; float32 needs no more
        self.scaler = (
            LossScaler() if engine_cfg.use_loss_scaler else LossScaler(1.0, growth_factor=1.0, backoff_factor=1.0)
        )
        self.step = 0
        self._workers: Optional[_ShardWorkers] = None
        self._workers_finalizer: Optional[weakref.finalize] = None

    def _apply_update(self, grads: dict[str, np.ndarray], loss_value: float) -> StepMetrics:
        """One decision from the global norm of ``grads``, one per parameter, which carry the loss scale.

        The gradients are the arena's, or are copied into it; clip then
        runs over the arena's two segments and Adam over the whole arena.
        """
        self.optimizer.load_grads(grads)
        _, norm = clip_global_norm(self._grad_segments, loss_scale=self.scaler.scale)
        skipped = not math.isfinite(norm)
        loss_scaler_step(self.scaler, not skipped)
        lr = lr_at(self.cfg.schedule, self.step + 1)
        if not skipped:
            adam_step(self.params, self.optimizer.grads, self.optimizer, lr)
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

    def _shard_workers(self, n_shards: int, n_procs: int) -> _ShardWorkers:
        """This engine's workers for the step's shard split, forked anew when it changed."""
        key = (n_shards, n_procs)
        if self._workers is None or self._workers.key != key:
            self._close_workers()
            self._workers = _ShardWorkers(self.params, n_shards, n_procs)
            self._workers_finalizer = weakref.finalize(self, self._workers.close)
        return self._workers

    def _close_workers(self) -> None:
        if self._workers is not None:
            self._workers_finalizer()
            self._workers = None

    def _scaled_gradients(self, batch: PackedSequenceBatch, n_shards: int) -> float:
        """Forward/backward only: leaves loss-scale times the gradients in the arena; returns the unscaled loss.

        Every shard loss is normalized over the full batch, and shard
        gradients are summed into the first shard's in fixed shard-index
        order: this process's block of shards first, then each worker's,
        while the workers compute theirs alongside.
        """
        n_procs = shard_processes(n_shards)
        # the parent's block, at least one shard so that ``shard`` rejects
        # n_shards < 1; cutting it first rejects a bad count before any fork
        own = [batch.shard(index, n_shards) for index in range(max(n_shards, 1) // n_procs)]
        workers = self._shard_workers(n_shards, n_procs) if n_procs > 1 else None
        params, optimizer, scale = self.params, self.optimizer, self.scaler.scale

        def shard_pass(shard: PackedSequenceBatch, grads: dict[str, np.ndarray]) -> float:
            return _shard_pass(params, self.model_cfg, self.cfg, self.step, scale, shard, batch, grads)

        try:
            if workers is not None:
                workers.start_step(batch, self.model_cfg, self.cfg, self.step, scale)
            loss_total = shard_pass(own[0], optimizer.grads)
            if len(own) > 1:
                scratch = np.empty_like(optimizer.grad_flat)
                views = params.views(scratch)
                for shard in own[1:]:
                    loss_total += shard_pass(shard, views)
                    optimizer.grad_flat += scratch
            if workers is not None:
                for loss, slot in workers.gather():
                    loss_total += loss
                    optimizer.grad_flat += slot
        except BaseException:
            self._close_workers()
            raise
        return loss_total

    def compute_gradients(self, batch: PackedSequenceBatch, n_shards: int = 1) -> tuple[dict[str, np.ndarray], float]:
        """Unscaled full-batch gradients and loss; parameters, moments and counters stay as they are."""
        loss = self._scaled_gradients(batch, n_shards)
        return {name: g / self.scaler.scale for name, g in self.optimizer.grads.items()}, loss

    def data_parallel_step(self, batch: PackedSequenceBatch, n_shards: int = 1) -> StepMetrics:
        """Shard the batch, reduce gradients in fixed shard order, update once."""
        loss = self._scaled_gradients(batch, n_shards)
        return self._apply_update(self.optimizer.grads, loss)

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
    for moments, saved in ((engine.optimizer.m, extra["adam_m"]), (engine.optimizer.v, extra["adam_v"])):
        for name, array in saved.items():
            moments[name][...] = array
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
