"""Fine-tuning and evaluation for sentence classification, plus depth sweeps.

Dataset files are tab-separated with a header line: ``text_a``, optional
``text_b`` and ``label``, matching common benchmark distributions so real
task files drop in unchanged.  A dataset is checked once, when it is built,
and each of its errors starts with its file's path.

A classification input is one sequence ``[sep] text_a [sep]`` (and
``text_b [sep]`` for pair tasks) where ``sep`` is the end-of-document
token; segment markers are 0 over the first block and 1 over the second,
and the classifier reads the pooled representation of position 0.  The
classifier head starts at zero, so an untrained head always predicts the
first label of the vocabulary (the majority-class baseline on balanced
data is the class-0 frequency).
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .bpe import TokenizerVocab, encode
from .data import PackedSequenceBatch
from .engine import EngineConfig, StepMetrics, TrainEngine, train_loop
from .model import ConfigError, InputError, ModelConfig, ModelParams, build_model, forward, parameter_inventory
from .optim import TrainSchedule

HEAD_KINDS = ("pair-classifier", "single-classifier")
PREDICT_BATCH_SIZE = 32


@dataclass
class LabeledExample:
    text_a: str
    text_b: Optional[str]
    label: str


@dataclass
class ClassificationDataset:
    """Examples read from ``source`` (a file path, or ``synthetic <split> task``), which takes no part in equality.

    A dataset has examples, each labelled from ``label_vocab``; every ``InputError`` it raises starts with ``source``.
    """

    examples: list[LabeledExample]
    source: str = field(compare=False)
    label_vocab: list[str]

    def __post_init__(self):
        if not self.examples:
            raise InputError(f"{self.source}: has no examples")
        known = set(self.label_vocab)
        for ex in self.examples:
            if ex.label not in known:
                raise InputError(f"{self.source}: label {ex.label!r} not in label vocabulary {self.label_vocab}")

    def __len__(self) -> int:
        return len(self.examples)

    def labels_as_ids(self) -> np.ndarray:
        index = {lab: i for i, lab in enumerate(self.label_vocab)}
        return np.array([index[ex.label] for ex in self.examples], dtype=np.int64)


def load_tsv_dataset(path: str, label_vocab: Optional[list[str]] = None) -> ClassificationDataset:
    """Tab-separated UTF-8 file, byte-order mark allowed, with a header naming text_a[, text_b], label."""
    with open(path, encoding="utf-8-sig", newline="") as fh:
        try:
            rows = list(csv.DictReader(fh, delimiter="\t"))
        except (csv.Error, UnicodeDecodeError) as exc:
            raise InputError(f"{path}: unreadable tab-separated file: {exc}") from None
    examples = []
    for row in rows:
        if row.get("text_a") is None or row.get("label") is None:
            raise InputError(f"{path}: rows need text_a and label columns")
        text_b = row.get("text_b")
        examples.append(LabeledExample(row["text_a"], text_b if text_b else None, row["label"]))
    if label_vocab is None:
        label_vocab = sorted({ex.label for ex in examples})
    return ClassificationDataset(examples, path, label_vocab)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


@dataclass
class EvalMetrics:
    accuracy: float
    precision: Optional[float] = None
    recall: Optional[float] = None
    f1: Optional[float] = None
    confusion: dict[str, int] = field(default_factory=dict)


def metrics_from_confusion(tp: int, fp: int, fn: int, tn: int) -> EvalMetrics:
    total = tp + fp + fn + tn
    if total == 0:
        raise InputError("empty confusion matrix")
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return EvalMetrics(
        accuracy=(tp + tn) / total,
        precision=precision,
        recall=recall,
        f1=f1,
        confusion={"tp": tp, "fp": fp, "fn": fn, "tn": tn},
    )


# ---------------------------------------------------------------------------
# Input encoding
# ---------------------------------------------------------------------------


def encode_for_classification(
    example: LabeledExample, vocab: TokenizerVocab, max_len: int
) -> tuple[list[int], list[int]]:
    sep = vocab.eod_id
    ids = [sep] + encode(example.text_a, vocab) + [sep]
    types = [0] * len(ids)
    if example.text_b is not None:
        b = encode(example.text_b, vocab) + [sep]
        ids += b
        types += [1] * len(b)
    return ids[:max_len], types[:max_len]


def _classifier_batch(
    dataset: ClassificationDataset,
    rows: np.ndarray,
    vocab: TokenizerVocab,
    max_len: int,
) -> PackedSequenceBatch:
    encoded = [encode_for_classification(dataset.examples[r], vocab, max_len) for r in rows]
    width = max(len(ids) for ids, _ in encoded)
    n = len(rows)
    ids = np.full((n, width), vocab.pad_id, dtype=np.int64)
    types = np.zeros((n, width), dtype=np.int64)
    attend = np.zeros((n, width), dtype=np.float64)
    for j, (seq, ty) in enumerate(encoded):
        ids[j, : len(seq)] = seq
        types[j, : len(seq)] = ty
        attend[j, : len(seq)] = 1.0
    labels = dataset.labels_as_ids()[rows]
    return PackedSequenceBatch(
        ids=ids,
        loss_mask=attend,
        example_ids=rows,
        labels=labels,
        type_ids=types,
        attention_mask=attend,
    )


# ---------------------------------------------------------------------------
# Fine-tuning
# ---------------------------------------------------------------------------


@dataclass
class FinetuneSettings:
    learning_rate: float = 2e-5
    epochs: int = 3
    batch_size: int = 16
    max_steps: Optional[int] = None  # overrides the epoch-derived budget
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise InputError(f"fine-tune learning rate must be finite and non-negative, got {self.learning_rate}")
        if self.batch_size < 1:
            raise InputError(f"batch size must be at least 1, got {self.batch_size}")
        if self.max_steps is not None and self.max_steps < 0:
            raise InputError(f"fine-tune step budget must be non-negative, got {self.max_steps}")
        if self.epochs < 0:
            raise InputError(f"fine-tune epochs must be non-negative, got {self.epochs}")


def _check_vocab(cfg: ModelConfig, vocab: TokenizerVocab) -> None:
    if vocab.size != cfg.vocab_size:
        raise InputError(f"a vocabulary of {vocab.size} tokens does not fit a model with vocab_size {cfg.vocab_size}")


def _check_finetune_inputs(cfg: ModelConfig, vocab: TokenizerVocab, dataset: ClassificationDataset, head: str) -> None:
    """What ``finetune`` rejects before it builds anything; no depth changes the outcome."""
    if cfg.family != "encoder-only":
        raise ConfigError(f"fine-tuning needs an encoder-only checkpoint, got {cfg.family}")
    if head not in HEAD_KINDS:
        raise ConfigError(f"head must be one of {HEAD_KINDS}, got {head!r}")
    if head == "pair-classifier" and any(ex.text_b is None for ex in dataset.examples):
        raise InputError(f"{dataset.source}: pair-classifier needs text_b on every example")
    _check_vocab(cfg, vocab)


@dataclass
class FinetunedModel:
    params: ModelParams
    config: ModelConfig
    label_vocab: list[str]
    history: list[StepMetrics]


def finetune(
    params: ModelParams,
    cfg: ModelConfig,
    vocab: TokenizerVocab,
    dataset: ClassificationDataset,
    head: str,
    settings: FinetuneSettings = FinetuneSettings(),
) -> FinetunedModel:
    """Replace the pretraining heads with a zero classifier head and train, in place.

    ``params`` is laid out again in the shapes of ``parameter_inventory(cfg,
    n_classes)`` for the dataset's label count.  It keeps its body, then
    trained, and its ``cls.*`` starts at zero, also where it carried one.  The
    returned model holds that same object: one copy of the body, never two.

    ``single-classifier`` runs the same head as ``pair-classifier``; it only
    stops requiring ``text_b`` on every example, an error that starts with
    ``dataset.source``.

    Deterministic given ``settings.seed``: batch order, dropout streams and
    the optimizer trajectory depend only on (dataset, settings).
    """
    _check_finetune_inputs(cfg, vocab, dataset, head)
    shapes = {name: shape for name, shape, _ in parameter_inventory(cfg, len(dataset.label_vocab))}
    params.reset(shapes, {name: params[name] for name in shapes if not name.startswith("cls.")})

    n = len(dataset)
    b = settings.batch_size
    total = settings.epochs * ((n + b - 1) // b) if settings.max_steps is None else settings.max_steps
    # one stream of whole epochs: batch k is rows [k*b, (k+1)*b) of back-to-back permutations
    order_rng = np.random.default_rng((0xF1E7, settings.seed))
    stream = np.concatenate([order_rng.permutation(n) for _ in range(max(1, (total * b + n - 1) // n))])

    def batch_fn(k: int) -> PackedSequenceBatch:
        return _classifier_batch(dataset, stream[k * b : (k + 1) * b], vocab, cfg.max_seq_len)

    # decay to zero one step past the budget: the engine takes step k at lr_at(k + 1)
    engine_cfg = EngineConfig(
        schedule=TrainSchedule(settings.learning_rate, 0.0, warmup_steps=0, total_steps=max(total, 1) + 1, decay_shape="linear"),
        seed=settings.seed,
    )
    engine = TrainEngine(params, cfg, engine_cfg)
    history = train_loop(engine, batch_fn, total)
    return FinetunedModel(params, cfg, list(dataset.label_vocab), history)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def predict(model: FinetunedModel, vocab: TokenizerVocab, dataset: ClassificationDataset) -> np.ndarray:
    _check_vocab(model.config, vocab)
    n = len(dataset)
    outputs = np.empty(n, dtype=np.int64)
    for start in range(0, n, PREDICT_BATCH_SIZE):
        rows = np.arange(start, min(start + PREDICT_BATCH_SIZE, n))
        batch = _classifier_batch(dataset, rows, vocab, model.config.max_seq_len)
        out = forward(
            model.params, model.config, batch.ids, mode="eval",
            type_ids=batch.type_ids, attention_mask=batch.attention_mask,
        )
        outputs[rows] = np.argmax(out.logits.data, axis=-1)
    return outputs


def _check_scored_labels(dataset: ClassificationDataset, labels: list[str]) -> None:
    """A model predicts ids into its own label vocabulary, so it scores only a dataset labelled from it."""
    if dataset.label_vocab != labels:
        raise InputError(f"{dataset.source}: label vocabulary {dataset.label_vocab} is not the model's {labels}")


def evaluate(
    model: FinetunedModel,
    vocab: TokenizerVocab,
    dataset: ClassificationDataset,
    positive_label: Optional[str] = None,
) -> EvalMetrics:
    """Confusion-matrix metrics; precision/recall/F1 for binary labels only.

    ``dataset`` must be labelled from the model's label vocabulary, in the
    same order.  ``positive_label`` must be one of the labels, and only a
    binary label vocabulary takes one; anything else raises ``InputError``.
    """
    _check_scored_labels(dataset, model.label_vocab)
    labels = dataset.label_vocab
    if positive_label is not None:
        if positive_label not in labels:
            raise InputError(f"positive label {positive_label!r} is not in the label vocabulary {labels}")
        if len(labels) != 2:
            raise InputError(f"positive label {positive_label!r} given for {len(labels)} labels {labels}: "
                             "precision, recall and F1 are binary-only")
    predictions = predict(model, vocab, dataset)
    truth = dataset.labels_as_ids()
    if len(labels) == 2:
        if positive_label is None:
            positive_label = "1" if "1" in labels else labels[-1]
        pos = labels.index(positive_label)
        tp = int(np.sum((predictions == pos) & (truth == pos)))
        fp = int(np.sum((predictions == pos) & (truth != pos)))
        fn = int(np.sum((predictions != pos) & (truth == pos)))
        tn = int(np.sum((predictions != pos) & (truth != pos)))
        return metrics_from_confusion(tp, fp, fn, tn)
    counts = {}
    for t, p in zip(truth, predictions):
        key = f"{labels[t]}->{labels[p]}"
        counts[key] = counts.get(key, 0) + 1
    return EvalMetrics(accuracy=float(np.mean(predictions == truth)), confusion=counts)


# ---------------------------------------------------------------------------
# Depth sweep
# ---------------------------------------------------------------------------


class SweepError(RuntimeError):
    """A depth failed; carries the rows, and the fine-tune histories, of the depths finished before the failure."""

    def __init__(self, message: str, partial: list[tuple[int, EvalMetrics]],
                 histories: list[tuple[int, list[StepMetrics]]]):
        super().__init__(message)
        self.partial = partial
        self.histories = histories


@dataclass
class SweepResult:
    """Each depth's dev metrics and fine-tune history, in the given depth order, and the chosen depth."""

    rows: list[tuple[int, EvalMetrics]]
    best_depth: int
    histories: list[tuple[int, list[StepMetrics]]]


def depth_sweep(
    base_cfg: ModelConfig,
    depths: Sequence[int],
    vocab: TokenizerVocab,
    train_set: ClassificationDataset,
    dev_set: ClassificationDataset,
    settings: FinetuneSettings,
    build_seed: int = 0,
) -> SweepResult:
    """Fine-tune otherwise-identical models at each depth and pick the best.

    Every depth gets the same seed and budget.  The winner is the
    argmax-accuracy depth, ties broken toward the smaller depth.  The
    datasets were checked when they were built; an input that no depth can
    train on is rejected before the first depth runs, and a failure of one
    depth raises ``SweepError``.  Every depth trains a ``pair-classifier`` head.
    """
    head = "pair-classifier"
    if len(depths) < 2:
        raise ConfigError("a depth sweep needs at least two depths")
    if len(set(depths)) < len(depths):
        raise ConfigError(f"a depth sweep runs each depth once, got {', '.join(map(str, depths))}")
    configs = [replace(base_cfg, n_layers=depth) for depth in depths]
    _check_finetune_inputs(base_cfg, vocab, train_set, head)
    _check_scored_labels(dev_set, train_set.label_vocab)
    rows: list[tuple[int, EvalMetrics]] = []
    histories: list[tuple[int, list[StepMetrics]]] = []
    for depth, cfg in zip(depths, configs):
        try:
            model = finetune(build_model(cfg, seed=build_seed), cfg, vocab, train_set, head, settings)
            rows.append((depth, evaluate(model, vocab, dev_set)))
            histories.append((depth, model.history))
            del model  # the next depth trains without this one's parameters
        except Exception as exc:
            raise SweepError(f"depth {depth} failed: {exc}", rows, histories) from exc
    best_depth, _ = max(
        ((depth, metrics.accuracy) for depth, metrics in rows),
        key=lambda item: (item[1], -item[0]),
    )
    return SweepResult(rows=rows, best_depth=best_depth, histories=histories)


def render_sweep_csv(model_name: str, rows: list[tuple[int, EvalMetrics]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["model", "depth", "precision", "recall", "f1", "acc"])
    for depth, m in rows:
        writer.writerow(
            [
                model_name,
                depth,
                "" if m.precision is None else f"{m.precision:.4f}",
                "" if m.recall is None else f"{m.recall:.4f}",
                "" if m.f1 is None else f"{m.f1:.4f}",
                f"{m.accuracy:.4f}",
            ]
        )
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Synthetic tasks (bundled so the pipeline is exercisable without real data)
# ---------------------------------------------------------------------------

_LEXICON = (
    "amber breeze cedar dusk ember frost gale harbor iris juniper "
    "kestrel lagoon meadow nectar opal prairie quartz raven summit thicket"
).split()
_SYNTHETIC_WORDS = 3


def make_synthetic_pair_task(n_examples: int, seed: int, split: str = "train") -> ClassificationDataset:
    """Balanced paraphrase-style pair task over three-word texts: label 1 iff the first words match."""
    rng = np.random.default_rng((0x5E7, seed, 0 if split == "train" else 1))
    examples = []
    for i in range(n_examples):
        label = i % 2
        first = rng.choice(_LEXICON)
        rest_a = rng.choice(_LEXICON, size=_SYNTHETIC_WORDS - 1)
        rest_b = rng.choice(_LEXICON, size=_SYNTHETIC_WORDS - 1)
        if label == 1:
            first_b = first
        else:
            others = [w for w in _LEXICON if w != first]
            first_b = others[rng.integers(len(others))]
        examples.append(
            LabeledExample(
                " ".join([first, *rest_a]),
                " ".join([first_b, *rest_b]),
                str(label),
            )
        )
    return ClassificationDataset(examples, f"synthetic {split} task", ["0", "1"])


def synthetic_task_vocab() -> TokenizerVocab:
    from .bpe import train_bpe

    return train_bpe(" ".join(_LEXICON * 4), 400)
