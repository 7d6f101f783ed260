"""Fine-tuning and evaluation for sentence classification, plus depth sweeps.

Dataset files are tab-separated with a header line: ``text_a``, optional
``text_b`` and ``label``, matching common benchmark distributions so real
task files drop in unchanged.

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
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .bpe import TokenizerVocab, encode
from .data import PackedSequenceBatch
from .engine import EngineConfig, StepMetrics, TrainEngine, train_loop
from .model import ConfigError, InputError, ModelConfig, ModelParams, build_model, classifier_head, forward
from .optim import TrainSchedule
from .tensor import Tensor

HEAD_KINDS = ("pair-classifier", "single-classifier")


@dataclass
class LabeledExample:
    text_a: str
    text_b: Optional[str]
    label: str


@dataclass
class ClassificationDataset:
    examples: list[LabeledExample]
    split: str
    label_vocab: list[str]

    def __post_init__(self):
        known = set(self.label_vocab)
        for ex in self.examples:
            if ex.label not in known:
                raise InputError(f"label {ex.label!r} not in label vocabulary {self.label_vocab}")

    def __len__(self) -> int:
        return len(self.examples)

    def labels_as_ids(self) -> np.ndarray:
        index = {lab: i for i, lab in enumerate(self.label_vocab)}
        return np.array([index[ex.label] for ex in self.examples], dtype=np.int64)


def load_tsv_dataset(path: str, split: str, label_vocab: Optional[list[str]] = None) -> ClassificationDataset:
    """Tab-separated file with a header naming text_a[, text_b], label."""
    with open(path, encoding="utf-8", newline="") as fh:
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
    return ClassificationDataset(examples, split, label_vocab)


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
        if self.batch_size < 1:
            raise InputError(f"batch size must be at least 1, got {self.batch_size}")


@dataclass
class FinetunedModel:
    params: ModelParams
    config: ModelConfig
    head: str
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
    """Append a zero-initialized classification head and train the stack.

    The head replaces the pretraining heads as the model's output: the
    masked-token and segment-order heads (and an untied ``lm_head``) are
    neither run nor updated, and the returned parameters carry them exactly
    as given.

    ``single-classifier`` runs the same head as ``pair-classifier``; it only
    stops requiring ``text_b`` on every example.

    Deterministic given ``settings.seed``: batch order, dropout streams and
    the optimizer trajectory depend only on (dataset, settings).
    """
    if cfg.family != "encoder-only":
        raise ConfigError(f"fine-tuning needs an encoder-only checkpoint, got {cfg.family}")
    if head not in HEAD_KINDS:
        raise ConfigError(f"head must be one of {HEAD_KINDS}, got {head!r}")
    if head == "pair-classifier" and any(ex.text_b is None for ex in dataset.examples):
        raise InputError("pair-classifier needs text_b on every example")
    dtype = params["tok_emb"].dtype
    tensors = dict(params.tensors)
    for name, shape in classifier_head(cfg, len(dataset.label_vocab)).items():
        tensors[name] = Tensor(np.zeros(shape, dtype=dtype), requires_grad=True, name=name)
    full = ModelParams(tensors)

    n = len(dataset)
    if n == 0:
        raise InputError("cannot fine-tune on an empty dataset")
    steps_per_epoch = max(1, (n + settings.batch_size - 1) // settings.batch_size)
    total = settings.epochs * steps_per_epoch if settings.max_steps is None else settings.max_steps
    order_rng = np.random.default_rng((0xF1E7, settings.seed))
    orders = [order_rng.permutation(n) for _ in range(max(1, (total * settings.batch_size) // n + 2))]

    def batch_fn(k: int) -> PackedSequenceBatch:
        start = k * settings.batch_size
        epoch, offset = divmod(start, n)
        picks = orders[epoch % len(orders)]
        rows = np.array([picks[(offset + j) % n] for j in range(settings.batch_size)])
        return _classifier_batch(dataset, rows, vocab, cfg.max_seq_len)

    # decay to zero one step past the budget: the engine takes step k at lr_at(k + 1)
    engine_cfg = EngineConfig(
        schedule=TrainSchedule(settings.learning_rate, 0.0, warmup_steps=0, total_steps=max(total, 1) + 1, decay_shape="linear"),
        seed=settings.seed,
    )
    engine = TrainEngine(full, cfg, engine_cfg)
    history = train_loop(engine, batch_fn, total)
    return FinetunedModel(full, cfg, head, list(dataset.label_vocab), history)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def predict(
    model: FinetunedModel, vocab: TokenizerVocab, dataset: ClassificationDataset, batch_size: int = 32
) -> np.ndarray:
    n = len(dataset)
    outputs = np.empty(n, dtype=np.int64)
    for start in range(0, n, batch_size):
        rows = np.arange(start, min(start + batch_size, n))
        batch = _classifier_batch(dataset, rows, vocab, model.config.max_seq_len)
        out = forward(
            model.params, model.config, batch.ids, mode="eval",
            type_ids=batch.type_ids, attention_mask=batch.attention_mask,
        )
        outputs[rows] = np.argmax(out.logits.data, axis=-1)
    return outputs


def evaluate(
    model: FinetunedModel,
    vocab: TokenizerVocab,
    dataset: ClassificationDataset,
    positive_label: Optional[str] = None,
) -> EvalMetrics:
    """Confusion-matrix metrics; precision/recall/F1 for binary labels only."""
    if len(dataset) == 0:
        raise InputError(f"cannot evaluate an empty {dataset.split} split")
    predictions = predict(model, vocab, dataset)
    truth = dataset.labels_as_ids()
    if len(dataset.label_vocab) == 2:
        if positive_label is None:
            positive_label = "1" if "1" in dataset.label_vocab else dataset.label_vocab[-1]
        pos = dataset.label_vocab.index(positive_label)
        tp = int(np.sum((predictions == pos) & (truth == pos)))
        fp = int(np.sum((predictions == pos) & (truth != pos)))
        fn = int(np.sum((predictions != pos) & (truth == pos)))
        tn = int(np.sum((predictions != pos) & (truth != pos)))
        return metrics_from_confusion(tp, fp, fn, tn)
    counts = {}
    for t, p in zip(truth, predictions):
        key = f"{dataset.label_vocab[t]}->{dataset.label_vocab[p]}"
        counts[key] = counts.get(key, 0) + 1
    return EvalMetrics(accuracy=float(np.mean(predictions == truth)), confusion=counts)


# ---------------------------------------------------------------------------
# Depth sweep
# ---------------------------------------------------------------------------


class SweepError(RuntimeError):
    """A depth failed; carries the rows finished before the failure."""

    def __init__(self, message: str, partial: list[tuple[int, EvalMetrics]]):
        super().__init__(message)
        self.partial = partial


@dataclass
class SweepResult:
    rows: list[tuple[int, EvalMetrics]]
    best_depth: int


def depth_sweep(
    base_cfg: ModelConfig,
    depths: Sequence[int],
    vocab: TokenizerVocab,
    train_set: ClassificationDataset,
    dev_set: ClassificationDataset,
    settings: FinetuneSettings,
    head: str = "pair-classifier",
    build_seed: int = 0,
) -> SweepResult:
    """Fine-tune otherwise-identical models at each depth and pick the best.

    Every depth gets the same seed and budget.  The winner is the
    argmax-accuracy depth, ties broken toward the smaller depth.
    """
    if len(depths) < 2:
        raise ConfigError("a depth sweep needs at least two depths")
    rows: list[tuple[int, EvalMetrics]] = []
    for depth in depths:
        try:
            cfg = replace(base_cfg, n_layers=depth)
            params = build_model(cfg, seed=build_seed)
            model = finetune(params, cfg, vocab, train_set, head, settings)
            rows.append((depth, evaluate(model, vocab, dev_set)))
        except Exception as exc:
            raise SweepError(f"depth {depth} failed: {exc}", rows) from exc
    best_depth, _ = max(
        ((depth, metrics.accuracy) for depth, metrics in rows),
        key=lambda item: (item[1], -item[0]),
    )
    return SweepResult(rows=rows, best_depth=best_depth)


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


def make_synthetic_pair_task(
    n_examples: int, seed: int, split: str = "train", n_words: int = 3
) -> ClassificationDataset:
    """Balanced paraphrase-style pair task: label 1 iff the first words match."""
    rng = np.random.default_rng((0x5E7, seed, 0 if split == "train" else 1))
    examples = []
    for i in range(n_examples):
        label = i % 2
        first = rng.choice(_LEXICON)
        rest_a = rng.choice(_LEXICON, size=n_words - 1)
        rest_b = rng.choice(_LEXICON, size=n_words - 1)
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
    return ClassificationDataset(examples, split, ["0", "1"])


def synthetic_task_vocab() -> TokenizerVocab:
    from .bpe import train_bpe

    return train_bpe(" ".join(_LEXICON * 4), 400)
