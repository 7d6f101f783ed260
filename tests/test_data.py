import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stacklm import objectives
from stacklm import tensor as T
from stacklm.bpe import SPECIAL_NAMES, train_bpe
from stacklm.data import (
    DataError,
    MaskingPolicy,
    PackedSequenceBatch,
    apply_whole_word_ngram_mask,
    make_lm_batch,
    make_mlm_batch,
    make_seq2seq_batch,
    make_sop_example,
    pack_documents,
    read_documents,
    word_spans,
)
from stacklm.tensor import Tape, Tensor

EOD, PAD = 0, 2  # matches the special layout of the tokenizer


@pytest.fixture(scope="module")
def vocab():
    return train_bpe("alpha beta gamma delta epsilon zeta " * 6, 300)


# ---------------------------------------------------------------------------
# packing
# ---------------------------------------------------------------------------


def test_pack_two_documents_exactly():
    ids, mask = pack_documents([[11, 12, 13], [21, 22, 23]], seq_len=8, eod_id=EOD, pad_id=PAD)
    assert ids.tolist() == [[11, 12, 13, EOD, 21, 22, 23, EOD]]
    assert mask.tolist() == [[1.0] * 8]


def test_pack_pads_final_partial_sequence():
    ids, mask = pack_documents([[11, 12, 13]], seq_len=6, eod_id=EOD, pad_id=PAD)
    assert ids.tolist() == [[11, 12, 13, EOD, PAD, PAD]]
    assert mask.tolist() == [[1, 1, 1, 1, 0, 0]]


def test_long_document_spans_sequences():
    doc = list(range(10, 21))  # 11 tokens
    ids, mask = pack_documents([doc], seq_len=4, eod_id=EOD, pad_id=PAD)
    flat = [t for row in ids.tolist() for t in row]
    assert flat[:12] == doc + [EOD]
    assert ids.shape == (3, 4)


def test_token_count_conservation():
    rng = np.random.default_rng(3)
    docs = [list(rng.integers(5, 90, size=rng.integers(1, 40))) for _ in range(17)]
    ids, mask = pack_documents(docs, seq_len=16, eod_id=EOD, pad_id=PAD)
    unpadded = int(mask.sum())
    assert unpadded == sum(len(d) for d in docs) + len(docs)


def test_pack_rejects_bad_inputs():
    with pytest.raises(DataError):
        pack_documents([[1, 2]], seq_len=1, eod_id=EOD, pad_id=PAD)
    with pytest.raises(DataError):
        pack_documents([[], []], seq_len=8, eod_id=EOD, pad_id=PAD)


def test_packing_is_deterministic():
    docs = [[5, 6, 7], [8, 9], [10, 11, 12, 13]]
    a = pack_documents(docs, 6, EOD, PAD)
    b = pack_documents(docs, 6, EOD, PAD)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_read_documents(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text("doc one line a\nline b\n\ndoc two\n\n\ndoc three\n", encoding="utf-8")
    assert read_documents(str(path)) == ["doc one line a\nline b", "doc two", "doc three"]


# ---------------------------------------------------------------------------
# masking
# ---------------------------------------------------------------------------


def batch_of(rows, example_ids=None):
    ids = np.asarray(rows, dtype=np.int64)
    return PackedSequenceBatch(
        ids=ids,
        loss_mask=np.ones_like(ids, dtype=np.float64),
        example_ids=np.asarray(example_ids if example_ids is not None else range(len(rows))),
    )


def test_word_spans_split_on_specials(vocab):
    row = np.array([7, 8, vocab.splitter_id, 9, vocab.eod_id, 10, 11, vocab.pad_id])
    assert word_spans(row, vocab.special_ids) == [(0, 2), (3, 4), (5, 7)]


def _word_spans_loop(row, special_ids):
    spans, start = [], None
    for i, token in enumerate(row):
        if int(token) in special_ids:
            if start is not None:
                spans.append((start, i))
                start = None
        elif start is None:
            start = i
    if start is not None:
        spans.append((start, len(row)))
    return spans


@settings(max_examples=300, deadline=None)
@given(row=st.lists(st.integers(0, 7), max_size=40), special_ids=st.frozensets(st.integers(0, 7)))
@example(row=[0, 1, 0], special_ids=frozenset({0, 1}))  # every position special
@example(row=[5, 6, 7], special_ids=frozenset({0, 1}))  # no special position
@example(row=[0, 5, 6, 1], special_ids=frozenset({0, 1}))  # leading and trailing specials
@example(row=[], special_ids=frozenset({0}))
def test_word_spans_match_a_position_loop(row, special_ids):
    row = np.asarray(row, dtype=np.int64)
    assert word_spans(row, special_ids) == _word_spans_loop(row, special_ids)


def test_default_policy_action_split(vocab):
    # content tokens with a splitter at 40% of positions; every row has its own generator
    rng = np.random.default_rng(0)
    rows = rng.integers(len(SPECIAL_NAMES), vocab.size, size=(4000, 48))
    rows[rng.random(rows.shape) < 0.4] = vocab.splitter_id
    policy = MaskingPolicy()
    batch = batch_of(rows)
    original = batch.ids.copy()
    out = apply_whole_word_ngram_mask(batch, policy, vocab, [np.random.default_rng((21, r)) for r in range(len(rows))])
    masked = out.loss_mask.astype(bool)
    before, after = original[masked], out.ids[masked]
    n = before.size
    assert n > 15_000
    content = vocab.size - len(SPECIAL_NAMES)
    # a random replacement draws the original token with probability 1 / content
    expected = {
        "mask": policy.mask_prob,
        "changed": policy.random_prob * (1 - 1 / content),
        "unchanged": 1 - policy.mask_prob - policy.random_prob + policy.random_prob / content,
    }
    changed = (after != before) & (after != vocab.mask_id)
    observed = {
        "mask": np.mean(after == vocab.mask_id),
        "changed": np.mean(changed),
        "unchanged": np.mean(after == before),
    }
    for action, p in expected.items():
        assert abs(observed[action] - p) <= 4 * np.sqrt(p * (1 - p) / n), (action, observed[action], p)
    assert np.all((after[changed] >= len(SPECIAL_NAMES)) & (after[changed] < vocab.size))


def test_exact_word_count_masked(vocab):
    # four single-token words, rate 0.5, unigrams, mask action only
    policy = MaskingPolicy(corruption_rate=0.5, ngram_max=1, mask_prob=1.0, random_prob=0.0)
    base = 5
    row = [base, vocab.splitter_id, base + 1, vocab.splitter_id, base + 2, vocab.splitter_id, base + 3]
    for seed in range(25):
        batch = batch_of([row])
        out = apply_whole_word_ngram_mask(batch, policy, vocab, [np.random.default_rng(seed)])
        assert int(out.loss_mask.sum()) == 2
        masked_positions = np.flatnonzero(out.loss_mask[0])
        assert all(out.ids[0, p] == vocab.mask_id for p in masked_positions)
        # whole words only: masked positions are word positions
        assert all(p in (0, 2, 4, 6) for p in masked_positions)


def test_multi_token_words_never_split(vocab):
    # words of width 3: every chosen word masks all 3 positions
    policy = MaskingPolicy(corruption_rate=0.4, ngram_max=2, mask_prob=1.0, random_prob=0.0)
    row = [5, 6, 7, vocab.splitter_id, 8, 9, 10, vocab.splitter_id, 11, 12, 13]
    for seed in range(25):
        batch = batch_of([row])
        spans = [word_spans(batch.ids[0], vocab.special_ids)]
        out = apply_whole_word_ngram_mask(batch, policy, vocab, [np.random.default_rng(seed)])
        covered = out.loss_mask[0]
        for lo, hi in spans[0]:
            inside = covered[lo:hi]
            assert inside.sum() in (0, hi - lo), "a word was partially masked"


def test_specials_never_corrupted(vocab):
    policy = MaskingPolicy(corruption_rate=0.9, ngram_max=3)
    row = [5, vocab.eod_id, 6, 7, vocab.pad_id, vocab.splitter_id, 8]
    for seed in range(10):
        batch = batch_of([row])
        out = apply_whole_word_ngram_mask(batch, policy, vocab, [np.random.default_rng(seed)])
        for pos in (1, 4, 5):
            assert out.ids[0, pos] == row[pos]
            assert out.loss_mask[0, pos] == 0.0


def test_degenerate_rate_masks_at_least_one_word(vocab):
    policy = MaskingPolicy(corruption_rate=0.01, ngram_max=1)
    row = [5, vocab.splitter_id, 6, vocab.splitter_id, 7]
    batch = batch_of([row])
    out = apply_whole_word_ngram_mask(batch, policy, vocab, [np.random.default_rng(0)])
    assert out.loss_mask.sum() >= 1


def test_masking_policy_validation():
    with pytest.raises(DataError):
        MaskingPolicy(corruption_rate=0.0)
    with pytest.raises(DataError):
        MaskingPolicy(ngram_max=0)
    # the unchanged share is what the mask and random shares leave: each share >= 0, their sum <= 1
    for mask_prob, random_prob in ((1.2, -0.1), (0.7, 0.4), (-0.1, 0.5), (0.9, 0.2), (float("nan"), 0.1)):
        with pytest.raises(DataError, match="must be >= 0 with a sum <= 1"):
            MaskingPolicy(mask_prob=mask_prob, random_prob=random_prob)
    for mask_prob, random_prob in ((1.0, 0.0), (0.0, 1.0), (0.0, 0.0), (0.8, 0.1)):
        MaskingPolicy(mask_prob=mask_prob, random_prob=random_prob)


def test_mlm_targets_hold_original_ids(vocab):
    policy = MaskingPolicy(corruption_rate=0.5, ngram_max=1, mask_prob=1.0, random_prob=0.0)
    row = [5, vocab.splitter_id, 6, vocab.splitter_id, 7, vocab.splitter_id, 8]
    batch = batch_of([row])
    out = apply_whole_word_ngram_mask(batch, policy, vocab, [np.random.default_rng(4)])
    assert out.targets.tolist() == [row]


# ---------------------------------------------------------------------------
# segment order
# ---------------------------------------------------------------------------


def test_sop_label_semantics():
    swapped = unswapped = None
    for seed in range(50):
        a, b, label = make_sop_example([1, 2], [3, 4], np.random.default_rng(seed))
        if label == 1:
            assert (a, b) == ([1, 2], [3, 4])
            unswapped = seed
        else:
            assert (a, b) == ([3, 4], [1, 2])
            swapped = seed
    assert swapped is not None and unswapped is not None


def test_sop_swap_frequency():
    swaps = sum(1 - make_sop_example([1], [2], np.random.default_rng(seed))[2] for seed in range(10_000))
    assert 0.48 <= swaps / 10_000 <= 0.52


def test_sop_rejects_empty_segment():
    with pytest.raises(DataError):
        make_sop_example([], [1], np.random.default_rng(0))


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


def test_mlm_loss_uniform_logits():
    vocab_size = 21128
    batch = PackedSequenceBatch(
        ids=np.zeros((1, 4), dtype=np.int64),
        loss_mask=np.array([[1.0, 0.0, 1.0, 0.0]]),
        example_ids=np.array([0]),
        targets=np.array([[5, 6, 7, 8]]),
    )
    logits = Tensor(np.zeros((1, 4, vocab_size)))
    loss = objectives.mlm_loss(logits, batch)
    assert loss.item() == pytest.approx(np.log(vocab_size), rel=1e-9)


def test_sop_loss_perfect_head_goes_to_zero():
    batch = PackedSequenceBatch(
        ids=np.zeros((2, 2), dtype=np.int64),
        loss_mask=np.ones((2, 2)),
        example_ids=np.arange(2),
        labels=np.array([0, 1]),
    )
    logits = Tensor(np.array([[30.0, -30.0], [-30.0, 30.0]]))
    assert objectives.sop_loss(logits, batch).item() == pytest.approx(0.0, abs=1e-12)


def lm_batch_of(rows, masks=None):
    ids = np.array(rows)
    return make_lm_batch((ids, np.ones(ids.shape) if masks is None else np.array(masks)), 0, len(rows))


def test_lm_loss_two_token_sequence_is_single_step():
    rng = np.random.default_rng(8)
    logits = rng.normal(size=(1, 2, 9))
    loss = objectives.lm_loss(Tensor(logits), lm_batch_of([[3, 5]]))
    direct = T.softmax_cross_entropy(Tensor(logits[:, 0]), np.array([5]))
    assert loss.item() == pytest.approx(direct.item(), rel=1e-12)


def test_lm_loss_excludes_padded_targets():
    logits = Tensor(np.random.default_rng(0).normal(size=(1, 4, 7)))
    full = lm_batch_of([[1, 2, 3, 4]])
    padded = lm_batch_of([[1, 2, 3, 0]], [[1.0, 1.0, 1.0, 0.0]])
    short = lm_batch_of([[1, 2, 3]])
    short_loss = objectives.lm_loss(Tensor(logits.data[:, :3]), short)
    assert objectives.lm_loss(logits, padded).item() == pytest.approx(short_loss.item(), rel=1e-12)
    assert objectives.lm_loss(logits, full).item() != pytest.approx(short_loss.item(), rel=1e-6)


def test_lm_loss_needs_targets():
    batch = PackedSequenceBatch(ids=np.array([[1, 2]]), loss_mask=np.ones((1, 2)), example_ids=np.array([0]))
    with pytest.raises(ValueError, match="no targets"):
        objectives.lm_loss(Tensor(np.zeros((1, 2, 5))), batch)


def test_mlm_loss_invariant_to_unmasked_logits():
    rng = np.random.default_rng(1)
    logits = Tensor(rng.normal(size=(1, 3, 5)), requires_grad=True)
    batch = PackedSequenceBatch(
        ids=np.zeros((1, 3), dtype=np.int64),
        loss_mask=np.array([[0.0, 1.0, 0.0]]),
        example_ids=np.array([0]),
        targets=np.array([[1, 2, 3]]),
    )
    with Tape() as tape:
        loss = objectives.mlm_loss(logits, batch)
    tape.backward(loss)
    assert np.all(logits.grad[0, 0] == 0.0)
    assert np.all(logits.grad[0, 2] == 0.0)
    assert np.any(logits.grad[0, 1] != 0.0)


def test_empty_mask_counts_and_zero_loss():
    batch = PackedSequenceBatch(
        ids=np.zeros((1, 3), dtype=np.int64),
        loss_mask=np.zeros((1, 3)),
        example_ids=np.array([0]),
        targets=np.zeros((1, 3), dtype=np.int64),
    )
    logits = Tensor(np.random.default_rng(0).normal(size=(1, 3, 4)), requires_grad=True)
    with Tape() as tape:
        loss = objectives.mlm_loss(logits, batch)
    tape.backward(loss)
    assert loss.item() == 0.0
    assert logits.grad is not None and not logits.grad.any()


# ---------------------------------------------------------------------------
# batch assembly
# ---------------------------------------------------------------------------


def packed_fixture():
    rng = np.random.default_rng(0)
    docs = [list(rng.integers(5, 60, size=12)) for _ in range(7)]
    return pack_documents(docs, seq_len=8, eod_id=EOD, pad_id=PAD)


def test_lm_batches_cycle_deterministically():
    packed = packed_fixture()
    a = make_lm_batch(packed, 3, 4)
    b = make_lm_batch(packed, 3, 4)
    assert np.array_equal(a.ids, b.ids)
    assert np.array_equal(a.example_ids, b.example_ids)
    n = packed[0].shape[0]
    assert a.example_ids.tolist() == [(3 * 4 + j) % n for j in range(4)]


def test_lm_batch_aligns_next_token_targets():
    ids, mask = packed_fixture()
    assert mask[-1, -1] == 0.0  # the last packed row ends in pads
    batch = make_lm_batch((ids, mask), 0, ids.shape[0])
    assert np.array_equal(batch.ids, ids)
    assert np.array_equal(batch.targets[:, :-1], ids[:, 1:])
    assert np.array_equal(batch.loss_mask[:, :-1], mask[:, 1:])
    assert not batch.loss_mask[:, -1].any() and not batch.targets[:, -1].any()


def test_mlm_batch_has_all_fields(vocab):
    docs = [[7, 8, 9, 10, 11, 12, 13, 14] for _ in range(5)]
    packed = pack_documents(docs, seq_len=8, eod_id=vocab.eod_id, pad_id=vocab.pad_id)
    batch = make_mlm_batch(packed, 0, 4, MaskingPolicy(), vocab, seed=11)
    assert batch.ids.shape == (4, 8)
    assert batch.labels.shape == (4,)
    assert batch.type_ids.shape == (4, 8)
    assert batch.targets.shape == (4, 8)
    assert batch.loss_mask.sum() > 0
    assert set(batch.type_ids[:, :4].flat) == {0} and set(batch.type_ids[:, 4:].flat) == {1}
    again = make_mlm_batch(packed, 0, 4, MaskingPolicy(), vocab, seed=11)
    assert np.array_equal(batch.ids, again.ids)
    assert np.array_equal(batch.labels, again.labels)


def test_mlm_segment_markers_follow_the_swap_at_odd_length(vocab):
    ids = np.arange(16 * 7).reshape(16, 7) % 50 + 10
    batch = make_mlm_batch((ids, np.ones(ids.shape)), 0, 16, MaskingPolicy(), vocab, seed=0)
    assert set(batch.labels) == {0, 1}
    for row, label in zip(batch.type_ids, batch.labels):
        first = 3 if label == 1 else 4  # an original row starts with the 3 tokens of seq_len // 2
        assert row.tolist() == [0] * first + [1] * (7 - first), (row, label)


def test_seq2seq_batch_alignment():
    packed = packed_fixture()
    batch = make_seq2seq_batch(packed, 0, 2, eod_id=EOD)
    assert batch.source_ids.shape == (2, 4)
    assert batch.ids.shape == (2, 4)
    assert batch.ids[0, 0] == EOD
    assert np.array_equal(batch.ids[0, 1:], batch.targets[0, :-1])


def test_batch_shard_slices_all_fields(vocab):
    docs = [[7, 8, 9, 10, 11, 12, 13, 14] for _ in range(8)]
    packed = pack_documents(docs, seq_len=8, eod_id=vocab.eod_id, pad_id=vocab.pad_id)
    batch = make_mlm_batch(packed, 0, 4, MaskingPolicy(), vocab, seed=1)
    first = batch.shard(0, 2)
    second = batch.shard(1, 2)
    assert np.array_equal(np.concatenate([first.ids, second.ids]), batch.ids)
    assert np.array_equal(np.concatenate([first.labels, second.labels]), batch.labels)
    for bad_shards in (3, 0, -2):
        with pytest.raises(DataError):
            batch.shard(0, bad_shards)
    for whole in (batch, make_seq2seq_batch(packed, 0, 4, eod_id=vocab.eod_id), make_lm_batch(packed, 0, 4)):
        halves = (whole.shard(0, 2), whole.shard(1, 2))
        for field in dataclasses.fields(whole):
            value = getattr(whole, field.name)
            parts = [getattr(half, field.name) for half in halves]
            if value is None:
                assert parts == [None, None], field.name
            else:
                assert np.array_equal(np.concatenate(parts), value), field.name
