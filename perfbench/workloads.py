"""The four benchmark workloads.

Every workload is a closed loop with one client: the next step starts only
after the previous one returned.  A workload has three parts:

* ``setup(root, seed)``: everything the first step needs, from the corpus on disk
  to a built model and engine.  It returns the state plus the time of each
  setup stage.
* ``episode(state, tracer)``: one fixed amount of work from a freshly built
  model: training steps, then evaluation.  Its losses are a pure function
  of the seed, so every episode of a run must repeat them bit for bit.
* ``short_run(state)``: a few steps from a fresh model; the warm-up before
  timing, and the run whose steps ``tracemalloc`` watches.

The seed reaches the program only through the generated inputs: the order
of the corpus documents (pretraining), the synthetic task (depth sweep),
and the model, dropout and masking seeds.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import statistics
import time
from pathlib import Path
from typing import Callable

import numpy as np

import stacklm.evaluation as evaluation_mod
from stacklm import bpe, objectives
from stacklm import data as datap
from stacklm.cli import TOY_PROFILE
from stacklm.engine import EngineConfig, TrainEngine, train_loop
from stacklm.evaluation import (
    ClassificationDataset,
    FinetuneSettings,
    depth_sweep,
    finetune,
    make_synthetic_pair_task,
    synthetic_task_vocab,
)
from stacklm.model import ModelConfig, build_model, forward, load_config
from stacklm.optim import TrainSchedule

PRETRAIN_STEPS = 60  # the baseline episode: 0 skipped updates in 60 steps
EVAL_BATCHES = 8  # eval-mode batches after each pretraining episode
FINAL_STEPS = 10  # loss_final is the mean loss over this many last steps
SWEEP_DEPTHS = (1, 2, 4, 6, 8)  # odd count: the median step falls inside the depth-4 group
SWEEP_STEPS = 30  # fine-tune budget per depth
SWEEP_TRAIN_EXAMPLES = 64
SWEEP_DEV_EXAMPLES = 256  # eight predict batches of 32 per depth
SHORT_RUN_STEPS = 4


@dataclasses.dataclass
class Episode:
    wall_s: float = 0.0
    step_s: list[float] = dataclasses.field(default_factory=list)
    positions: list[int] = dataclasses.field(default_factory=list)
    losses: list[float] = dataclasses.field(default_factory=list)
    skipped: int = 0
    failed: int = 0  # operations that returned a non-finite loss or skipped the update
    eval_s: float = 0.0
    eval_examples: int = 0
    eval_batches: int = 0
    finetune_s: float = 0.0
    loss_final: float = float("nan")
    signature: tuple = ()
    problems: list[str] = dataclasses.field(default_factory=list)

    @property
    def operations(self) -> int:
        return len(self.step_s) + self.eval_batches

    def add_step(self, metrics) -> None:
        self.losses.append(metrics.loss)
        self.skipped += metrics.skipped
        self.failed += metrics.skipped or not math.isfinite(metrics.loss)


def _timed(fn: Callable, *args, **kwargs):
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - start


def toy_config(root: Path, name: str, vocab_size: int) -> ModelConfig:
    """``configs/<name>.cfg`` scaled down exactly as the CLI's ``--toy`` does."""
    cfg = load_config(str(root / "configs" / f"{name}.cfg"))
    return dataclasses.replace(
        cfg,
        n_layers=min(cfg.n_layers, TOY_PROFILE["max_depth"]),
        d_layer=TOY_PROFILE["d_layer"],
        n_heads=TOY_PROFILE["n_heads"],
        d_head=TOY_PROFILE["d_head"],
        max_seq_len=TOY_PROFILE["max_seq_len"],
        vocab_size=vocab_size,
    )


ENGINE_STEPS = ("train_step", "data_parallel_step")


@contextlib.contextmanager
def probe(owner, names: tuple[str, ...], after: Callable, before: Callable[[], None] = lambda: None):
    """Call ``before()`` and ``after(args, result, seconds)`` around every call of ``owner.<name>``.

    Measures the calls a public function makes internally: ``depth_sweep``
    runs ``finetune`` and ``evaluate``, and ``finetune`` runs the engine steps.
    """
    originals = {name: owner.__dict__[name] for name in names}

    def wrap(fn):
        def probed(*args, **kwargs):
            before()
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            after(args, result, time.perf_counter() - start)
            return result

        return probed

    for name, fn in originals.items():
        setattr(owner, name, wrap(fn))
    try:
        yield
    finally:
        for name, fn in originals.items():
            setattr(owner, name, fn)


def param_info(state) -> tuple[np.dtype, int]:
    """Parameter dtype and total parameter bytes of the workload's model."""
    params = build_model(state.cfg, seed=state.seed)
    return params["tok_emb"].dtype, sum(t.data.nbytes for _, t in params.items())


def _positions(batch) -> int:
    """Input positions of a batch: ``ids`` plus ``source_ids``, padding included."""
    return int(batch.ids.size + (0 if batch.source_ids is None else batch.source_ids.size))


# ---------------------------------------------------------------------------
# Pretraining
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class PretrainState:
    cfg: ModelConfig
    engine_cfg: EngineConfig
    batch_fn: Callable
    seed: int


class Pretrain:
    """Toy pretraining of one family from the bundled corpus."""

    def __init__(self, config: str, shards: int, recompute: bool):
        self.config = config
        self.shards = shards
        self.recompute = recompute

    def setup(self, root: Path, seed: int) -> tuple[PretrainState, dict[str, float]]:
        times: dict[str, float] = {}
        start = time.perf_counter()
        docs = datap.read_documents(str(root / "data" / "toy_corpus.txt"))
        docs = [docs[i] for i in np.random.default_rng(seed).permutation(len(docs))]
        vocab, times["bpe.train"] = _timed(bpe.train_bpe, docs, TOY_PROFILE["vocab_target"])
        streams, times["bpe.encode"] = _timed(datap.encode_corpus, docs, vocab)
        cfg = toy_config(root, self.config, vocab.size)
        packed, times["data.pack"] = _timed(datap.pack_documents, streams, cfg.max_seq_len, vocab.eod_id, vocab.pad_id)
        batch_size = TOY_PROFILE["batch_size"]
        if cfg.family == "encoder-only":
            policy = datap.MaskingPolicy()
            batch_fn = lambda k: datap.make_mlm_batch(packed, k, batch_size, policy, vocab, seed=seed)
        elif cfg.family == "encoder-decoder":
            batch_fn = lambda k: datap.make_seq2seq_batch(packed, k, batch_size, eod_id=vocab.eod_id)
        else:
            batch_fn = lambda k: datap.make_lm_batch(packed, k, batch_size)
        schedule = TrainSchedule(
            TOY_PROFILE["peak_lr"], TOY_PROFILE["min_lr"],
            min(TOY_PROFILE["warmup_steps"], PRETRAIN_STEPS), PRETRAIN_STEPS,
            "linear" if cfg.family == "encoder-only" else "cosine",
        )
        engine_cfg = EngineConfig(
            schedule=schedule, use_loss_scaler=True, recompute_activations=self.recompute, seed=seed
        )
        state = PretrainState(cfg, engine_cfg, batch_fn, seed)
        _, times["model.build"] = _timed(self._engine, state)
        times["total"] = time.perf_counter() - start
        return state, times

    @staticmethod
    def _engine(state: PretrainState) -> TrainEngine:
        return TrainEngine(build_model(state.cfg, seed=state.seed), state.cfg, state.engine_cfg)

    def _eval_loss(self, engine: TrainEngine, batch) -> float:
        """Eval-mode forward and objective, with no tape and no dropout."""
        cfg = engine.model_cfg
        if cfg.family == "decoder-only":
            out = forward(engine.params, cfg, batch.ids, mode="eval")
            return float(objectives.lm_loss(out.logits, batch).data)
        if cfg.family == "encoder-only":
            out = forward(engine.params, cfg, batch.ids, mode="eval", type_ids=batch.type_ids)
            return float(objectives.mlm_loss(out.logits, batch).data) + float(objectives.sop_loss(out.sop_logits, batch).data)
        out = forward(
            engine.params, cfg, batch.ids, mode="eval",
            source_ids=batch.source_ids, source_attention_mask=batch.source_mask,
        )
        return float(objectives.seq2seq_loss(out.logits, batch).data)

    def episode(self, state: PretrainState, tracer=None) -> Episode:
        ep = Episode()
        start = time.perf_counter()
        engine = self._engine(state)
        batch_fn = state.batch_fn
        step_scope = contextlib.nullcontext
        if tracer is not None:
            step_scope = tracer.training_step

            def batch_fn(k, inner=state.batch_fn):
                with tracer.span("data.batch"):
                    return inner(k)

        for _ in range(PRETRAIN_STEPS):
            t0 = time.perf_counter()
            with step_scope():
                (metrics,) = train_loop(engine, batch_fn, 1, n_shards=self.shards)
            ep.step_s.append(time.perf_counter() - t0)
            ep.add_step(metrics)
        eval_losses = []
        for i in range(EVAL_BATCHES):
            batch = state.batch_fn(PRETRAIN_STEPS + i)
            loss, seconds = _timed(self._eval_loss, engine, batch)
            eval_losses.append(loss)
            ep.failed += not math.isfinite(loss)
            ep.eval_s += seconds
            ep.eval_examples += batch.batch_size
            ep.eval_batches += 1
        ep.wall_s = time.perf_counter() - start
        # every batch cut from one packed corpus has the same shape
        ep.positions = [_positions(batch)] * PRETRAIN_STEPS
        ep.loss_final = statistics.fmean(ep.losses[-FINAL_STEPS:])
        ep.signature = (tuple(ep.losses), tuple(eval_losses))
        if not all(math.isfinite(x) for x in ep.losses + eval_losses):
            ep.problems.append("non-finite loss")
        if ep.skipped:
            ep.problems.append(f"{ep.skipped} skipped updates")
        if not ep.loss_final < ep.losses[0]:
            ep.problems.append(f"loss_final {ep.loss_final!r} is not below the first-step loss {ep.losses[0]!r}")
        return ep

    def short_run(self, state: PretrainState) -> None:
        train_loop(self._engine(state), state.batch_fn, SHORT_RUN_STEPS, n_shards=self.shards)


# ---------------------------------------------------------------------------
# Depth sweep
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class SweepState:
    cfg: ModelConfig
    vocab: bpe.TokenizerVocab
    train_set: ClassificationDataset
    dev_set: ClassificationDataset
    settings: FinetuneSettings
    seed: int


class DepthSweep:
    """``evaluation.depth_sweep`` itself, with its fine-tune, evaluate and step calls timed."""

    def setup(self, root: Path, seed: int) -> tuple[SweepState, dict[str, float]]:
        times: dict[str, float] = {"bpe.encode": 0.0, "data.pack": 0.0}
        start = time.perf_counter()
        vocab, times["bpe.train"] = _timed(synthetic_task_vocab)
        train_set = make_synthetic_pair_task(SWEEP_TRAIN_EXAMPLES, seed=seed, split="train")
        dev_set = make_synthetic_pair_task(SWEEP_DEV_EXAMPLES, seed=seed, split="dev")
        cfg = toy_config(root, "bert-c", vocab.size)
        settings = FinetuneSettings(learning_rate=1e-3, max_steps=SWEEP_STEPS, batch_size=8, seed=seed)
        state = SweepState(cfg, vocab, train_set, dev_set, settings, seed)
        _, times["model.build"] = _timed(build_model, dataclasses.replace(cfg, n_layers=SWEEP_DEPTHS[0]), seed)
        times["total"] = time.perf_counter() - start
        return state, times

    def episode(self, state: SweepState, tracer=None) -> Episode:
        """One sweep; with a tracer, its engine-step wrappers are already installed."""
        ep = Episode()

        def on_step(args, metrics, seconds):
            ep.step_s.append(seconds)
            ep.positions.append(_positions(args[1]))
            ep.add_step(metrics)

        def on_finetune(args, model, seconds):
            ep.finetune_s += seconds

        def on_evaluate(args, scores, seconds):
            ep.eval_s += seconds
            ep.eval_examples += len(args[2])
            ep.eval_batches += math.ceil(len(args[2]) / 32)  # predict()'s batch size

        start = time.perf_counter()
        with (
            probe(TrainEngine, ENGINE_STEPS, on_step),
            probe(evaluation_mod, ("finetune",), on_finetune),
            probe(evaluation_mod, ("evaluate",), on_evaluate),
        ):
            result = depth_sweep(
                state.cfg, SWEEP_DEPTHS, state.vocab, state.train_set, state.dev_set, state.settings,
                build_seed=state.seed,
            )
        ep.wall_s = time.perf_counter() - start
        rows = [(depth, scores.accuracy) for depth, scores in result.rows]
        per_depth = [ep.losses[i : i + SWEEP_STEPS] for i in range(0, len(ep.losses), SWEEP_STEPS)]
        ep.loss_final = statistics.fmean(statistics.fmean(losses[-FINAL_STEPS:]) for losses in per_depth)
        ep.signature = (tuple(ep.losses), tuple(rows), result.best_depth)
        if [depth for depth, _ in rows] != list(SWEEP_DEPTHS) or len(ep.losses) != SWEEP_STEPS * len(SWEEP_DEPTHS):
            ep.problems.append(f"sweep rows {rows} and {len(ep.losses)} steps do not cover depths {SWEEP_DEPTHS}")
        if not all(0.0 <= acc <= 1.0 for _, acc in rows):
            ep.problems.append(f"accuracy outside [0, 1] in {rows}")
        best_acc = max(acc for _, acc in rows)
        if result.best_depth != min(depth for depth, acc in rows if acc == best_acc):
            ep.problems.append(f"best depth {result.best_depth} is not the smallest most accurate depth of {rows}")
        if not all(math.isfinite(x) for x in ep.losses):
            ep.problems.append("non-finite fine-tune loss")
        if ep.skipped:
            ep.problems.append(f"{ep.skipped} skipped updates")
        return ep

    def short_run(self, state: SweepState) -> None:
        cfg = dataclasses.replace(state.cfg, n_layers=SWEEP_DEPTHS[-1])
        settings = dataclasses.replace(state.settings, max_steps=SHORT_RUN_STEPS)
        finetune(build_model(cfg, seed=state.seed), cfg, state.vocab, state.train_set, "pair-classifier", settings)


# Why each workload exists, and which layer it exercises or bypasses, is in
# README.md next to this file.
WORKLOADS: dict[str, object] = {
    "lm-pretrain": Pretrain("cpm-x-l", shards=1, recompute=False),
    "mlm-pretrain-dp2": Pretrain("bert-c", shards=2, recompute=False),
    "seq2seq-pretrain-recompute": Pretrain("cpm-2-x-s", shards=1, recompute=True),
    "depth-sweep": DepthSweep(),
}
