"""The benchmark's outside-in tracer still reaches every name it patches in ``src/``.

``perfbench/tracing.py`` measures stacklm by replacing module attributes and
class methods.  A refactor that renames one of them, or calls a function by
a path the tracer does not patch, silently drops that layer from the
benchmark; these tests catch both.
"""

import importlib.util
import os
from pathlib import Path

import numpy as np
import pytest

import stacklm.engine as engine_mod
import stacklm.evaluation as evaluation_mod
import stacklm.objectives as objectives_mod
import stacklm.tensor as tensor_mod
from stacklm.bpe import train_bpe
from stacklm.data import MaskingPolicy, make_lm_batch, make_mlm_batch, make_seq2seq_batch, pack_documents
from stacklm.engine import EngineConfig, TrainEngine, train_loop
from stacklm.evaluation import FinetuneSettings, finetune, make_synthetic_pair_task, synthetic_task_vocab
from stacklm.model import ModelConfig, build_model
from stacklm.optim import TrainSchedule

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
FAMILIES = ("decoder-only", "encoder-only", "encoder-decoder")
PATCHED_OWNERS = (
    tensor_mod, tensor_mod.Tape, tensor_mod.DropoutRng, engine_mod, evaluation_mod, objectives_mod, engine_mod.TrainEngine,
)


def load_tracer_class():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


def family_batch_fn(family):
    vocab = train_bpe("aa bb cc dd ee ff gg hh " * 8, 300)
    rng = np.random.default_rng(3)
    docs = [list(rng.integers(5, 30, size=20)) for _ in range(6)]
    packed = pack_documents(docs, 12, eod_id=vocab.eod_id, pad_id=vocab.pad_id)
    if family == "encoder-only":
        return lambda k: make_mlm_batch(packed, k, 4, MaskingPolicy(), vocab, seed=5)
    if family == "encoder-decoder":
        return lambda k: make_seq2seq_batch(packed, k, 4, eod_id=vocab.eod_id)
    return lambda k: make_lm_batch(packed, k, 4)


def pretrain_losses(family):
    cfg = ModelConfig(family, 2, d_layer=16, n_heads=2, d_head=8, vocab_size=31, max_seq_len=16, dropout_p=0.1)
    engine = TrainEngine(build_model(cfg, seed=2), cfg, EngineConfig(schedule=TrainSchedule(1e-3, 1e-4, 1, 10), seed=2))
    return [m.loss for m in train_loop(engine, family_batch_fn(family), n_steps=1, n_shards=2)]


def finetune_losses():
    vocab = synthetic_task_vocab()
    cfg = ModelConfig("encoder-only", 1, d_layer=16, n_heads=2, d_head=8, vocab_size=vocab.size, max_seq_len=32)
    settings = FinetuneSettings(learning_rate=1e-3, max_steps=2, batch_size=4)
    model = finetune(build_model(cfg, seed=1), cfg, vocab, make_synthetic_pair_task(8, seed=0), "pair-classifier", settings)
    return [m.loss for m in model.history]


def run_all():
    return {family: pretrain_losses(family) for family in FAMILIES}, finetune_losses()


def test_traced_run_records_every_layer_and_matches_untraced(monkeypatch):
    # one usable core: every shard runs in this process, where the tracer sees it
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    untraced = run_all()
    # the tracer patches functions only; module state such as counters may move
    before = {owner: {k: v for k, v in vars(owner).items() if callable(v)} for owner in PATCHED_OWNERS}
    tracer = load_tracer_class()(np.float32)
    tracer.install()
    try:
        assert engine_mod.forward is not before[engine_mod]["forward"]
        counts = []
        pretrain = {}
        for family in FAMILIES:
            pretrain[family] = pretrain_losses(family)
            counts.append(tracer.span_counts())
        tuned = finetune_losses()
        counts.append(tracer.span_counts())
    finally:
        tracer.uninstall()

    assert (pretrain, tuned) == untraced
    previous = {}
    for family, total in zip(FAMILIES + ("finetune",), counts):
        added = {name: total[name] - previous.get(name, 0) for name in total}
        previous = total
        # two shards per pretraining step; two single-shard fine-tune steps
        assert added.get("model.forward") == 2, (family, added)
        assert added.get("engine.step") == (1 if family in FAMILIES else 2), (family, added)
        for name in ("op.matmul.fwd", "op.matmul.bwd", "tensor.backward", "tensor.dropout_mask",
                     "optim.unscale", "optim.clip", "optim.adam"):
            assert added.get(name, 0) > 0, (family, name)
        # encoder pretraining adds the MLM and SOP losses; the fine-tune head has its own
        assert added.get("objectives.loss", 0) == {"encoder-only": 4, "finetune": 0}.get(family, 2), (family, added)
    assert tracer.forward_passes_per_step() == [2, 2, 2, 1, 1]

    for owner, attrs in before.items():
        now = {k: v for k, v in vars(owner).items() if callable(v)}
        assert now.keys() == attrs.keys(), owner
        for name, value in attrs.items():
            assert now[name] is value, (owner, name)


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="shard workers run on Linux only")
def test_traced_run_with_shard_workers_traces_the_parents_block(monkeypatch):
    """With two processes a worker runs the second shard, and its spans never reach the tracer."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    untraced = run_all()
    tracer = load_tracer_class()(np.float32)
    tracer.install()
    try:
        traced = run_all()
    finally:
        tracer.uninstall()
    assert traced == untraced
    assert tracer.forward_passes_per_step() == [1, 1, 1, 1, 1]
