"""Command-line entry point.

Every invocation owns one run directory (``--out``, defaulting to
``$STACKLM_OUT_ROOT/<command>`` or ``./runs/<command>``).  ``main`` opens it
before the command runs and, when the command returns, writes exactly one
``manifest.json`` there: the command, every parsed option (plus what the
command resolves from them, such as a model config), the seed (``--seed``
is on the training commands ``pretrain``, ``finetune`` and ``sweep`` only;
the others record ``null``), the toolkit version, the SHA-256 hash of every
file option given (each option the parser types ``InputFile``, under its
name), start/end timestamps and the runtime settings: the malloc thresholds
``main`` applied and, for ``pretrain``, the processes its shards ran on and
the BLAS threads of each.  A rerun with an equal manifest produces equal
outputs.

The ``--toy`` profile scales the pretraining recipe down by documented
factors (depth -> min(depth, 2), width -> 64, heads -> 4, head width -> 16,
sequence length -> 64, batch -> 8, vocabulary target -> 512, peak rate
1e-3 with 30 warmup steps) while keeping every structural piece of the
recipe (packing, schedule shape, clipping, loss scaling, checkpointing)
intact, so the full procedure runs in minutes on a laptop.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import time
from pathlib import Path
from typing import Optional

from . import __version__
from . import bpe
from . import data as datap
from .cost import (
    DEFAULT_PEAK_FLOPS,
    cost_table,
    load_cost_records,
    reference_model_configs,
    render_cost_csv,
    render_cost_report,
)
from .engine import (
    EngineConfig,
    TrainEngine,
    blas_threads,
    save_engine_checkpoint,
    shard_processes,
    train_loop,
    write_metrics,
)
from .evaluation import (
    HEAD_KINDS,
    FinetuneSettings,
    FinetunedModel,
    SweepError,
    depth_sweep,
    evaluate,
    finetune,
    load_tsv_dataset,
    make_synthetic_pair_task,
    render_sweep_csv,
    synthetic_task_vocab,
)
from .fileio import atomic_write
from .model import (
    InputError,
    ModelConfig,
    build_model,
    count_params,
    load_checkpoint,
    load_config,
    save_checkpoint,
)
from .optim import BERT_PRETRAIN_SCHEDULE, GPT_PRETRAIN_SCHEDULE, TrainSchedule

TOY_PROFILE = {
    "d_layer": 64,
    "n_heads": 4,
    "d_head": 16,
    "max_seq_len": 64,
    "batch_size": 8,
    "vocab_target": 512,
    "peak_lr": 1e-3,
    "min_lr": 1e-4,
    "warmup_steps": 30,
    "max_depth": 2,
}

# glibc malloc thresholds (mallopt parameter, value) that main() applies.
# With the defaults every numpy temporary above 128 KiB is mapped and
# unmapped again on every operation, which costs a page fault per page.
MALLOC_SETTINGS = {"M_MMAP_THRESHOLD": (-3, 32 * 2**20), "M_TRIM_THRESHOLD": (-1, 2**30)}


def apply_malloc_settings() -> dict[str, int]:
    """Set ``MALLOC_SETTINGS`` through glibc's ``mallopt``; returns those applied, none where there is no ``mallopt``."""
    import ctypes  # here, not at import: a library must not retune its host process's allocator

    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return {}
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    return {name: value for name, (param, value) in MALLOC_SETTINGS.items() if mallopt(param, value) == 1}


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _seed(text: str) -> int:
    """The type of ``--seed``: an integer >= 0, the range numpy's generators take."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"takes an integer >= 0, got {text!r}")
    return seed


class InputFile(str):
    """The type of a parser option that names a file the command reads; the manifest hashes it."""


class RunDirectory:
    """Owns one output directory and its manifest: every parsed option, and the hash of each ``InputFile`` option.

    The directory is created when ``file`` first hands out a path in it, so
    a run rejected for its inputs before it writes anything leaves none.
    """

    def __init__(self, args: argparse.Namespace, runtime: Optional[dict[str, object]] = None):
        root = os.environ.get("STACKLM_OUT_ROOT", "runs")
        self.path = Path(args.out) if args.out else Path(root) / args.command
        self.command = args.command
        self.started = time.time()
        self.options: dict[str, object] = {k: v for k, v in vars(args).items() if k != "fn"}
        self.inputs = {k: f"sha256:{_sha256(v)}" for k, v in self.options.items() if isinstance(v, InputFile)}
        self.runtime: dict[str, object] = dict(runtime or {})

    def file(self, name: str) -> str:
        self.path.mkdir(parents=True, exist_ok=True)
        return str(self.path / name)

    def finalize(self, seed: Optional[int]) -> None:
        manifest = {
            "command": self.command,
            "options": self.options,
            "seed": seed,
            "toolkit_version": __version__,
            "input_hashes": self.inputs,
            "started_unix": self.started,
            "finished_unix": time.time(),
            "runtime": self.runtime,
        }
        with atomic_write(self.file("manifest.json")) as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _apply_toy_profile(cfg: ModelConfig) -> ModelConfig:
    return dataclasses.replace(
        cfg,
        n_layers=min(cfg.n_layers, TOY_PROFILE["max_depth"]),
        d_layer=TOY_PROFILE["d_layer"],
        n_heads=TOY_PROFILE["n_heads"],
        d_head=TOY_PROFILE["d_head"],
        max_seq_len=TOY_PROFILE["max_seq_len"],
    )


def _resolve_vocab(args, corpus_docs: list[str], target: int) -> tuple[bpe.TokenizerVocab, bool]:
    """The given vocabulary, or one trained on the corpus; and whether it was trained (the run then saves it)."""
    if args.vocab:
        return bpe.load_vocab(args.vocab), False
    return bpe.train_bpe(corpus_docs, target), True


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_tokenize_train(args, run: RunDirectory) -> int:
    docs = datap.read_documents(args.corpus)
    vocab = bpe.train_bpe(docs, args.vocab_size)
    bpe.save_vocab(vocab, run.file("vocab.txt"))
    print(f"trained vocabulary of {vocab.size} tokens ({len(vocab.merges)} merges) -> {run.file('vocab.txt')}")
    return 0


def _pretrain_schedule(family: str, steps: int, toy: bool) -> TrainSchedule:
    if toy:
        return TrainSchedule(
            TOY_PROFILE["peak_lr"], TOY_PROFILE["min_lr"],
            min(TOY_PROFILE["warmup_steps"], steps), steps,
            "linear" if family == "encoder-only" else "cosine",
        )
    base = BERT_PRETRAIN_SCHEDULE if family == "encoder-only" else GPT_PRETRAIN_SCHEDULE
    return base


def cmd_pretrain(args, run: RunDirectory) -> int:
    for flag, value in (("--steps", args.steps), ("--batch-size", args.batch_size)):
        if value is not None and value < 1:
            raise ValueError(f"{flag} must be at least 1, got {value}")
    batch_size = args.batch_size or (TOY_PROFILE["batch_size"] if args.toy else 8)
    if args.shards < 1 or batch_size % args.shards:
        raise ValueError(f"--shards must be at least 1 and divide the batch size {batch_size}, got {args.shards}")
    cfg = load_config(args.config)
    if args.toy:
        cfg = _apply_toy_profile(cfg)
    docs = datap.read_documents(args.corpus)
    target = TOY_PROFILE["vocab_target"] if args.toy else cfg.vocab_size
    vocab, trained = _resolve_vocab(args, docs, target)
    cfg = dataclasses.replace(cfg, vocab_size=vocab.size)

    run.options.update(batch_size=batch_size, resolved_model_config=dataclasses.asdict(cfg))
    run.runtime.update(shard_processes=shard_processes(args.shards), blas_threads=blas_threads())

    streams = datap.encode_corpus(docs, vocab)
    packed = datap.pack_documents(streams, cfg.max_seq_len, vocab.eod_id, vocab.pad_id)
    if cfg.family == "encoder-only":
        policy = datap.MaskingPolicy()
        batch_fn = lambda k: datap.make_mlm_batch(packed, k, batch_size, policy, vocab, seed=args.seed)
    elif cfg.family == "encoder-decoder":
        batch_fn = lambda k: datap.make_seq2seq_batch(packed, k, batch_size, eod_id=vocab.eod_id)
    else:
        batch_fn = lambda k: datap.make_lm_batch(packed, k, batch_size)

    schedule = _pretrain_schedule(cfg.family, args.steps, args.toy)
    engine_cfg = EngineConfig(
        schedule=schedule,
        use_loss_scaler=not args.no_loss_scaler,
        recompute_activations=args.recompute,
        seed=args.seed,
    )
    engine = TrainEngine(build_model(cfg, seed=args.seed), cfg, engine_cfg)
    # the first step rejects a model that no run can train, such as one whose
    # loss misses a parameter, before the run directory exists
    history = train_loop(engine, batch_fn, 1, n_shards=args.shards)
    if trained:
        bpe.save_vocab(vocab, run.file("vocab.txt"))
    with open(run.file("metrics.jsonl"), "w", encoding="utf-8") as stream:
        write_metrics(stream, history[0])
        history += train_loop(engine, batch_fn, args.steps - 1, metrics_stream=stream, n_shards=args.shards)
    save_engine_checkpoint(run.file("model.npz"), engine)
    first, last = history[0].loss, history[-1].loss
    print(f"pretrained {cfg.family} ({cfg.n_layers} layers, d={cfg.d_layer}) for {args.steps} steps")
    print(f"loss {first:.4f} -> {last:.4f}; artifacts in {run.path}")
    return 0


def cmd_finetune(args, run: RunDirectory) -> int:
    params, cfg, _ = load_checkpoint(args.checkpoint)
    vocab = bpe.load_vocab(args.vocab)
    train_set = load_tsv_dataset(args.train)
    # the dev set is read, and so checked, before training: a run it rejects writes nothing
    dev = load_tsv_dataset(args.dev, label_vocab=train_set.label_vocab) if args.dev else None
    settings = FinetuneSettings(
        learning_rate=args.lr, epochs=args.epochs, batch_size=args.batch_size,
        max_steps=args.steps, seed=args.seed,
    )
    run.options["settings"] = dataclasses.asdict(settings)
    model = finetune(params, cfg, vocab, train_set, args.head, settings)
    save_checkpoint(
        run.file("finetuned.npz"), model.params, cfg,
        extra={"head": args.head, "label_vocab": model.label_vocab},
    )
    with atomic_write(run.file("metrics.jsonl")) as fh:
        for m in model.history:
            write_metrics(fh, m)
    print(f"fine-tuned {len(model.history)} steps; head={args.head}; saved {run.file('finetuned.npz')}")
    if dev is not None:
        metrics = evaluate(model, vocab, dev)
        print(_metrics_line(metrics))
        _write_metrics_json(run, metrics)
    return 0


def _metrics_line(metrics) -> str:
    parts = [f"accuracy={metrics.accuracy:.4f}"]
    if metrics.precision is not None:
        parts = [
            f"precision={metrics.precision:.4f}",
            f"recall={metrics.recall:.4f}",
            f"f1={metrics.f1:.4f}",
        ] + parts
    return "  ".join(parts)


def _write_metrics_json(run: RunDirectory, metrics) -> None:
    with atomic_write(run.file("metrics.json")) as fh:
        json.dump(dataclasses.asdict(metrics), fh, indent=2)
        fh.write("\n")


def cmd_eval(args, run: RunDirectory) -> int:
    params, cfg, extra = load_checkpoint(args.checkpoint)
    if "cls.w" not in params:
        raise ValueError(f"{args.checkpoint} has no classifier head; evaluate a fine-tuned checkpoint")
    vocab = bpe.load_vocab(args.vocab)
    if "label_vocab" not in extra:
        raise ValueError(f"{args.checkpoint} has no label vocabulary; evaluate a checkpoint that finetune wrote")
    labels, n_classes = extra["label_vocab"], params["cls.w"].shape[-1]
    source = f"{args.checkpoint}'s label vocabulary"
    if not (isinstance(labels, list) and all(isinstance(label, str) for label in labels)
            and len(set(labels)) == len(labels)):
        raise InputError(f"{source} must be a list of distinct strings, got {labels!r}")
    if len(labels) != n_classes:
        raise InputError(f"{source} {labels}: {len(labels)} labels for a classifier head of {n_classes} classes")
    dataset = load_tsv_dataset(args.data, label_vocab=labels)
    model = FinetunedModel(params, cfg, labels, [])
    metrics = evaluate(model, vocab, dataset, positive_label=args.positive_label)
    print(_metrics_line(metrics))
    _write_metrics_json(run, metrics)
    return 0


def cmd_sweep(args, run: RunDirectory) -> int:
    fields = args.depths.split(",")
    if not all(field.strip().isdecimal() for field in fields):
        raise ValueError(f"--depths takes comma-separated layer counts >= 0, got {args.depths!r}")
    depths = [int(field) for field in fields]
    task_files = (args.train, args.dev, args.vocab)
    if any(task_files) and not all(task_files):
        raise ValueError("--train, --dev and --vocab are given together or not at all")
    if args.train and args.task_examples is not None:
        raise ValueError("--task-examples sizes the bundled task and is not given with --train, --dev and --vocab")
    cfg = load_config(args.config)
    if args.toy:
        cfg = _apply_toy_profile(cfg)
    if args.train:
        train_set = load_tsv_dataset(args.train)
        dev_set = load_tsv_dataset(args.dev, label_vocab=train_set.label_vocab)
        vocab = bpe.load_vocab(args.vocab)
    else:
        # bundled synthetic task so the sweep procedure runs out of the box
        examples = run.options["task_examples"] = 64 if args.task_examples is None else args.task_examples
        train_set = make_synthetic_pair_task(examples, seed=args.seed, split="train")
        dev_set = make_synthetic_pair_task(max(8, examples // 4), seed=args.seed, split="dev")
        vocab = synthetic_task_vocab()
    cfg = dataclasses.replace(cfg, vocab_size=vocab.size)
    settings = FinetuneSettings(
        learning_rate=args.lr, max_steps=args.budget, batch_size=args.batch_size, seed=args.seed
    )
    run.options["settings"] = dataclasses.asdict(settings)
    name = Path(args.config).stem
    try:
        result = depth_sweep(cfg, depths, vocab, train_set, dev_set, settings, build_seed=args.seed)
    except SweepError as exc:
        with atomic_write(run.file("sweep_partial.csv")) as fh:
            fh.write(render_sweep_csv(name, exc.partial))
        print(f"sweep aborted: {exc}", file=sys.stderr)
        print(f"partial results: {run.file('sweep_partial.csv')}", file=sys.stderr)
        return 1
    csv_text = render_sweep_csv(name, result.rows)
    with atomic_write(run.file("sweep.csv")) as fh:
        fh.write(csv_text)
    print(csv_text, end="")
    print(f"best depth by dev accuracy (ties to smaller): {result.best_depth}")
    return 0


def cmd_cost(args, run: RunDirectory) -> int:
    rows = cost_table(reference_model_configs(), load_cost_records(args.table), args.peak_rate)
    report = render_cost_report(rows)
    print(report, end="")
    with atomic_write(run.file("cost_report.txt")) as fh:
        fh.write(report)
    with atomic_write(run.file("cost_report.csv")) as fh:
        fh.write(render_cost_csv(rows))
    run.options["table"] = args.table or "<bundled>"
    return 0


def cmd_count_params(args, run: RunDirectory) -> int:
    cfg = load_config(args.config)
    total = count_params(cfg)
    run.options["count"] = total
    print(f"{total} parameters ({total:.4g}) for {Path(args.config).stem}: "
          f"{cfg.family}, {cfg.n_layers} layers, d={cfg.d_layer}, vocab={cfg.vocab_size}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stacklm",
        description="Desk-scale pretraining, fine-tuning and depth sweeps for stacked transformer language models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seeded=False):
        if seeded:
            p.add_argument("--seed", type=_seed, default=0, help="run seed (default 0)")
        p.add_argument("--out", help="run directory (default $STACKLM_OUT_ROOT/<command>)")

    p = sub.add_parser("tokenize-train", help="train a byte-level BPE vocabulary on a text corpus")
    p.add_argument("--corpus", type=InputFile, required=True, help="plain-text corpus, blank-line separated documents")
    p.add_argument("--vocab-size", type=int, required=True)
    common(p)
    p.set_defaults(fn=cmd_tokenize_train)

    p = sub.add_parser("pretrain", help="pretrain a model from a config on a text corpus")
    p.add_argument("--config", type=InputFile, required=True, help="model config file")
    p.add_argument("--corpus", type=InputFile, required=True)
    p.add_argument("--vocab", type=InputFile, help="existing vocabulary file (default: train one)")
    p.add_argument("--steps", type=int, default=300)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--shards", type=int, default=1, help="data-parallel shards, run in parallel on the usable cores")
    p.add_argument("--toy", action="store_true", help="scale the config down to the toy profile")
    p.add_argument("--recompute", action="store_true", help="recompute activations during backward")
    p.add_argument("--no-loss-scaler", action="store_true", help="disable dynamic loss scaling")
    common(p, seeded=True)
    p.set_defaults(fn=cmd_pretrain)

    p = sub.add_parser("finetune", help="fine-tune an encoder checkpoint for classification")
    p.add_argument("--checkpoint", type=InputFile, required=True)
    p.add_argument("--vocab", type=InputFile, required=True)
    p.add_argument("--train", type=InputFile, required=True, help="TSV with text_a, text_b, label")
    p.add_argument("--dev", type=InputFile, help="optional dev TSV, evaluated after training")
    p.add_argument(
        "--head", choices=HEAD_KINDS, default="pair-classifier",
        help="both run the same classifier head; single-classifier only stops requiring text_b",
    )
    p.add_argument("--lr", type=float, default=2e-5)
    p.add_argument("--epochs", type=int, default=3)
    p.add_argument("--steps", type=int, help="hard step budget (overrides epochs)")
    p.add_argument("--batch-size", type=int, default=16)
    common(p, seeded=True)
    p.set_defaults(fn=cmd_finetune)

    p = sub.add_parser("eval", help="evaluate a fine-tuned checkpoint on a dataset")
    p.add_argument("--checkpoint", type=InputFile, required=True)
    p.add_argument("--vocab", type=InputFile, required=True)
    p.add_argument("--data", type=InputFile, required=True)
    p.add_argument("--positive-label")
    common(p)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("sweep", help="train the same model at several depths and report the best")
    p.add_argument("--config", type=InputFile, required=True)
    p.add_argument("--depths", required=True, help="comma-separated layer counts")
    p.add_argument("--train", type=InputFile, help="TSV train set (default: bundled synthetic task)")
    p.add_argument("--dev", type=InputFile, help="TSV dev set (required with --train)")
    p.add_argument("--vocab", type=InputFile, help="vocabulary file (required with --train)")
    p.add_argument("--budget", type=int, default=60, help="fine-tune steps per depth")
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--batch-size", type=int, default=8)
    p.add_argument("--task-examples", type=int, help="train examples of the bundled task (default 64; not with --train)")
    p.add_argument("--toy", action="store_true")
    common(p, seeded=True)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("cost", help="reproduce the published compute accounting")
    p.add_argument("--table", type=InputFile, help="cost CSV (default: bundled reference table)")
    p.add_argument("--peak-rate", type=float, default=DEFAULT_PEAK_FLOPS, help="per-device flops/s")
    common(p)
    p.set_defaults(fn=cmd_cost)

    p = sub.add_parser("count-params", help="analytic parameter count for a config")
    p.add_argument("--config", type=InputFile, required=True)
    common(p)
    p.set_defaults(fn=cmd_count_params)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    runtime = {"malloc": apply_malloc_settings()}
    try:
        run = RunDirectory(args, runtime)
        status = args.fn(args, run)
        run.finalize(getattr(args, "seed", None))
        return status
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"stacklm {args.command}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
