"""Corpus-to-batch pipeline: packing, masking and batch assembly.

Corpus files are UTF-8 plain text with one document per blank-line-separated
block.  Encoded documents are packed greedily into fixed-length sequences
(in corpus order, separated by the end-of-document token); the final partial
sequence is padded and its pad positions carry zero loss weight.

A pretraining batch aligns its targets with the logits: ``targets[b, t]`` is
what position ``t`` predicts and ``loss_mask[b, t]`` weighs it, so every
family's objective is one weighted cross entropy.  A causal batch's last
position gets target 0 and weight 0, as pads do.

Batch construction is deterministic: the content of batch ``k`` depends
only on (packed corpus, seed, k), never on timing, so sharded and replayed
runs see identical data.  Each masked-LM row draws its segment swap and then
its masking from one random stream keyed by (seed, k, example id).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Iterable, Optional, Sequence

import numpy as np

from .bpe import SPECIAL_NAMES, TokenizerVocab, encode

_MASK_DOMAIN = 0xB0CA


class DataError(ValueError):
    pass


@dataclass
class PackedSequenceBatch:
    """One training batch; optional fields depend on the objective."""

    ids: np.ndarray                       # (batch, seq_len) int64
    loss_mask: np.ndarray                 # (batch, seq_len) weight of each position's target
    example_ids: np.ndarray               # (batch,) global sequence indices
    targets: Optional[np.ndarray] = None  # (batch, seq_len) target id at each position
    labels: Optional[np.ndarray] = None   # (batch,) segment order (1 = original) or class id
    type_ids: Optional[np.ndarray] = None      # (batch, seq_len) segment markers
    attention_mask: Optional[np.ndarray] = None  # (batch, seq_len) 1 = attendable
    source_ids: Optional[np.ndarray] = None    # (batch, src_len) for seq2seq
    source_mask: Optional[np.ndarray] = None   # (batch, src_len) 1 = real token

    @property
    def batch_size(self) -> int:
        return self.ids.shape[0]

    def shard(self, index: int, n_shards: int) -> "PackedSequenceBatch":
        if n_shards < 1:
            raise DataError(f"need at least one shard, got {n_shards}")
        if self.batch_size % n_shards != 0:
            raise DataError(f"batch size {self.batch_size} not divisible by {n_shards} shards")
        step = self.batch_size // n_shards
        sl = slice(index * step, (index + 1) * step)
        parts = {f.name: getattr(self, f.name) for f in fields(self)}
        return PackedSequenceBatch(**{name: None if a is None else a[sl] for name, a in parts.items()})


@dataclass
class MaskingPolicy:
    """Whole-word n-gram corruption settings: a chosen token becomes the mask
    token with ``mask_prob``, a random token with ``random_prob``, else stays."""

    corruption_rate: float = 0.15
    ngram_max: int = 3
    mask_prob: float = 0.8
    random_prob: float = 0.1

    def __post_init__(self):
        if not 0.0 < self.corruption_rate < 1.0:
            raise DataError(f"corruption_rate must lie in (0, 1), got {self.corruption_rate}")
        if self.ngram_max < 1:
            raise DataError("ngram_max must be at least 1")
        if not (self.mask_prob >= 0.0 and self.random_prob >= 0.0 and self.mask_prob + self.random_prob <= 1.0):
            raise DataError(f"mask_prob {self.mask_prob} and random_prob {self.random_prob} must be >= 0 with a sum <= 1")


# ---------------------------------------------------------------------------
# Corpus IO
# ---------------------------------------------------------------------------


def read_documents(path: str) -> list[str]:
    """Blank-line-separated document blocks from a UTF-8 text file."""
    with open(path, encoding="utf-8") as fh:
        try:
            raw = fh.read()
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text: {exc}") from None
    docs = []
    for block in raw.split("\n\n"):
        block = block.strip("\n")
        if block.strip():
            docs.append(block)
    return docs


def encode_corpus(docs: Iterable[str], vocab: TokenizerVocab) -> list[list[int]]:
    return [encode(doc, vocab) for doc in docs]


# ---------------------------------------------------------------------------
# Packing
# ---------------------------------------------------------------------------


def pack_documents(
    token_streams: Sequence[Sequence[int]],
    seq_len: int,
    eod_id: int,
    pad_id: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Greedy in-order packing into (sequences, loss_mask) arrays.

    Each document is followed by the end-of-document id; sequences are cut
    every ``seq_len`` tokens, so documents may span sequence boundaries.
    Pad positions (final sequence only) get mask 0.
    """
    if seq_len < 2:
        raise DataError(f"seq_len must be at least 2, got {seq_len}")
    streams = [list(s) for s in token_streams if len(s) > 0]
    if not streams:
        raise DataError("packing needs at least one non-empty document")
    sequences: list[list[int]] = []
    buffer: list[int] = []
    for stream in streams:
        buffer.extend(stream)
        buffer.append(eod_id)
        while len(buffer) >= seq_len:
            sequences.append(buffer[:seq_len])
            buffer = buffer[seq_len:]
    pad_count = 0
    if buffer:
        pad_count = seq_len - len(buffer)
        sequences.append(buffer + [pad_id] * pad_count)
    ids = np.asarray(sequences, dtype=np.int64)
    mask = np.ones_like(ids, dtype=np.float64)
    if pad_count:
        mask[-1, seq_len - pad_count :] = 0.0
    return ids, mask


# ---------------------------------------------------------------------------
# Whole-word n-gram masking
# ---------------------------------------------------------------------------


def word_spans(row: np.ndarray, special_ids: frozenset[int]) -> list[tuple[int, int]]:
    """Maximal runs of non-special positions: the word units for masking."""
    is_word = np.zeros(len(row) + 2, dtype=np.int8)
    is_word[1:-1] = ~(row[:, None] == list(special_ids)).any(axis=1)
    edges = np.flatnonzero(np.diff(is_word)).tolist()
    return list(zip(edges[::2], edges[1::2]))


def apply_whole_word_ngram_mask(
    batch: PackedSequenceBatch,
    policy: MaskingPolicy,
    vocab: TokenizerVocab,
    rngs: Sequence[np.random.Generator],
) -> PackedSequenceBatch:
    """Corrupt whole-word n-grams of ``batch`` in place and weigh only them.

    Row ``r`` draws from ``rngs[r]``.  Word-level n-grams (n uniform in
    [1, ngram_max], capped at the remaining budget) are chosen until
    ceil(corruption_rate * word_count) word units are covered, at least one
    per sequence.  Every position of a chosen word then receives the mask
    token, a random content token or its original value according to the
    action split.  Special positions are never corrupted.  ``targets``
    become the original ids and ``loss_mask`` marks the chosen positions.
    """
    batch.targets = batch.ids.copy()
    batch.loss_mask.fill(0.0)
    content_base = len(SPECIAL_NAMES)
    for r, rng in enumerate(rngs):
        spans = word_spans(batch.ids[r], vocab.special_ids)
        if not spans:
            continue
        n_words = len(spans)
        target_count = max(1, math.ceil(policy.corruption_rate * n_words))
        chosen: set[int] = set()
        while len(chosen) < target_count:
            budget = target_count - len(chosen)
            n = int(rng.integers(1, min(policy.ngram_max, budget) + 1))
            open_words = [i for i in range(n_words) if i not in chosen]
            start = int(open_words[rng.integers(len(open_words))])
            for w in range(start, min(start + n, n_words)):
                chosen.add(w)
        for w in sorted(chosen):
            lo, hi = spans[w]
            for pos in range(lo, hi):
                batch.loss_mask[r, pos] = 1.0
                u = rng.random()
                if u < policy.mask_prob:
                    batch.ids[r, pos] = vocab.mask_id
                elif u < policy.mask_prob + policy.random_prob:
                    batch.ids[r, pos] = int(rng.integers(content_base, vocab.size))
    return batch


def make_sop_example(
    segment_a: Sequence[int], segment_b: Sequence[int], rng: np.random.Generator
) -> tuple[Sequence[int], Sequence[int], int]:
    """Swap the two segments with probability one half; label 1 = original order."""
    if len(segment_a) == 0 or len(segment_b) == 0:
        raise DataError("segment-order examples need two non-empty segments")
    if rng.random() < 0.5:
        return segment_b, segment_a, 0
    return segment_a, segment_b, 1


# ---------------------------------------------------------------------------
# Batch assembly
# ---------------------------------------------------------------------------


def _rows_for_batch(n_rows: int, batch_index: int, batch_size: int) -> np.ndarray:
    return (batch_index * batch_size + np.arange(batch_size)) % n_rows


def make_lm_batch(packed: tuple[np.ndarray, np.ndarray], batch_index: int, batch_size: int) -> PackedSequenceBatch:
    """Causal batch: position ``t`` predicts token ``t + 1``."""
    ids, mask = packed
    rows = _rows_for_batch(ids.shape[0], batch_index, batch_size)
    ids, mask = ids[rows], mask[rows]
    targets = np.zeros_like(ids)
    targets[:, :-1] = ids[:, 1:]
    loss_mask = np.zeros_like(mask)
    loss_mask[:, :-1] = mask[:, 1:]
    return PackedSequenceBatch(ids=ids, loss_mask=loss_mask, example_ids=rows, targets=targets)


def make_mlm_batch(
    packed: tuple[np.ndarray, np.ndarray],
    batch_index: int,
    batch_size: int,
    policy: MaskingPolicy,
    vocab: TokenizerVocab,
    seed: int,
) -> PackedSequenceBatch:
    """Masked-token batch with segment-order labels.

    Segments are the two contiguous halves of each packed sequence; they
    are swapped with probability one half before masking.  Segment markers
    are 0 over a row's first segment and 1 over its second.  Pads are
    special tokens, so masking alone decides the loss weights.
    """
    ids = packed[0]
    rows = _rows_for_batch(ids.shape[0], batch_index, batch_size)
    seq_len = ids.shape[1]
    half = seq_len // 2
    rngs = [np.random.default_rng((_MASK_DOMAIN, seed, batch_index, int(row))) for row in rows]
    out_ids = np.empty((batch_size, seq_len), dtype=np.int64)
    labels = np.empty(batch_size, dtype=np.int64)
    type_ids = np.zeros((batch_size, seq_len), dtype=np.int64)
    for j, (row, rng) in enumerate(zip(rows, rngs)):
        a, b, label = make_sop_example(ids[row, :half], ids[row, half:], rng)
        out_ids[j] = np.concatenate([a, b])
        type_ids[j, len(a):] = 1
        labels[j] = label
    batch = PackedSequenceBatch(
        ids=out_ids,
        loss_mask=np.zeros((batch_size, seq_len)),
        example_ids=rows,
        labels=labels,
        type_ids=type_ids,
    )
    return apply_whole_word_ngram_mask(batch, policy, vocab, rngs)


def make_seq2seq_batch(
    packed: tuple[np.ndarray, np.ndarray],
    batch_index: int,
    batch_size: int,
    eod_id: int,
) -> PackedSequenceBatch:
    """Split each packed sequence into source and target halves.

    The decoder input is the target shifted right behind an end-of-document
    start sentinel, so ``targets`` is the target block itself.
    """
    ids, mask = packed
    rows = _rows_for_batch(ids.shape[0], batch_index, batch_size)
    half = ids.shape[1] // 2
    src = ids[rows, :half]
    src_mask = mask[rows, :half]
    tgt = ids[rows, half:]
    tgt_mask = mask[rows, half:]
    dec_in = np.concatenate([np.full((batch_size, 1), eod_id, dtype=np.int64), tgt[:, :-1]], axis=1)
    return PackedSequenceBatch(
        ids=dec_in,
        loss_mask=tgt_mask,
        example_ids=rows,
        source_ids=src,
        source_mask=src_mask,
        targets=tgt,
    )
