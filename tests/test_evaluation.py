import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import stacklm.evaluation as evaluation_mod
from stacklm.cost import reference_qqp_rows
from stacklm.engine import TrainEngine
from stacklm.evaluation import (
    ClassificationDataset,
    EvalMetrics,
    FinetuneSettings,
    LabeledExample,
    SweepError,
    depth_sweep,
    encode_for_classification,
    evaluate,
    finetune,
    load_tsv_dataset,
    make_synthetic_pair_task,
    metrics_from_confusion,
    render_sweep_csv,
    synthetic_task_vocab,
)
from stacklm.model import (
    ConfigError, InputError, ModelConfig, build_model, load_checkpoint, parameter_inventory, save_checkpoint,
)


@pytest.fixture(scope="module")
def vocab():
    return synthetic_task_vocab()


def encoder_cfg(vocab, n_layers=2, dropout=0.0):
    return ModelConfig(
        "encoder-only", n_layers, d_layer=64, n_heads=4, d_head=16,
        vocab_size=vocab.size, max_seq_len=64, dropout_p=dropout,
    )


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def test_hand_computed_confusion():
    m = metrics_from_confusion(tp=3, fp=1, fn=1, tn=5)
    assert m.precision == 0.75
    assert m.recall == 0.75
    assert m.f1 == 0.75
    assert m.accuracy == 0.8


def test_all_correct_is_all_ones():
    m = metrics_from_confusion(tp=4, fp=0, fn=0, tn=6)
    assert (m.precision, m.recall, m.f1, m.accuracy) == (1.0, 1.0, 1.0, 1.0)


def test_zero_denominators_define_zero():
    m = metrics_from_confusion(tp=0, fp=0, fn=2, tn=3)
    assert m.precision == 0.0 and m.recall == 0.0 and m.f1 == 0.0


@settings(max_examples=200, deadline=None)
@given(tp=st.integers(0, 500), fp=st.integers(0, 500), fn=st.integers(0, 500), tn=st.integers(0, 500))
def test_metric_identities_hold_exactly(tp, fp, fn, tn):
    if tp + fp + fn + tn == 0:
        return
    m = metrics_from_confusion(tp, fp, fn, tn)
    assert m.accuracy == (tp + tn) / (tp + fp + fn + tn)
    if m.precision + m.recall > 0:
        assert m.f1 == 2 * m.precision * m.recall / (m.precision + m.recall)
    else:
        assert m.f1 == 0.0
    assert 0.0 <= m.accuracy <= 1.0 and 0.0 <= m.f1 <= 1.0


def test_published_rows_f1_is_harmonic_mean():
    # recomputing F1 from each published precision/recall row lands within
    # 0.05 percentage points of the published F1
    for row in reference_qqp_rows():
        p, r = row["precision"], row["recall"]
        f1 = 2 * p * r / (p + r)
        assert abs(f1 - row["f1"]) < 0.05, row["model"]


# ---------------------------------------------------------------------------
# datasets
# ---------------------------------------------------------------------------


def test_tsv_round_trip(tmp_path, write_tsv):
    ds = make_synthetic_pair_task(10, seed=0)
    path = str(tmp_path / "task.tsv")
    write_tsv(ds, path)
    loaded = load_tsv_dataset(path)
    assert loaded.label_vocab == ["0", "1"]
    assert [e.text_a for e in loaded.examples] == [e.text_a for e in ds.examples]
    assert [e.label for e in loaded.examples] == [e.label for e in ds.examples]


def test_unreadable_tsv_is_input_error_naming_the_file(tmp_path):
    cases = {
        # one field longer than the csv module's default limit of 131072 characters
        "long-field.tsv": ("text_a\ttext_b\tlabel\n" + "a" * 140_000 + "\tb\t1\n").encode("utf-8"),
        "latin1.tsv": "text_a\ttext_b\tlabel\ncaf\u00e9\tb\t1\n".encode("latin-1"),
    }
    for name, raw in cases.items():
        path = tmp_path / name
        path.write_bytes(raw)
        with pytest.raises(InputError, match="^" + re.escape(str(path))):
            load_tsv_dataset(str(path))


def test_tsv_with_byte_order_mark_loads_the_same_dataset(tmp_path):
    raw = "text_a\ttext_b\tlabel\nazur\tbleu\t1\ncedar dusk\t\t0\n".encode("utf-8")
    plain, marked = tmp_path / "plain.tsv", tmp_path / "marked.tsv"
    plain.write_bytes(raw)
    marked.write_bytes(b"\xef\xbb\xbf" + raw)
    expected = load_tsv_dataset(str(plain))
    assert load_tsv_dataset(str(marked)) == expected
    assert [ex.text_a for ex in expected.examples] == ["azur", "cedar dusk"]


_TSV_BYTES = "text_a\ttext_b\tlabel\nazur \u00e9t\u00e9\tbleu\t1\ncedar dusk\tember\t0\n\"quoted\ttext\"\tx\t1\n".encode("utf-8")


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), junk=st.binary(min_size=1, max_size=4))
def test_garbled_tsv_loads_or_raises_input_error(tmp_path, data, junk):
    start = data.draw(st.integers(0, len(_TSV_BYTES) - 1), label="offset")
    path = tmp_path / "garbled.tsv"
    path.write_bytes(_TSV_BYTES[:start] + junk + _TSV_BYTES[start + len(junk) :])
    try:
        dataset = load_tsv_dataset(str(path))
    except InputError:
        return
    assert all(ex.label in dataset.label_vocab for ex in dataset.examples)


def test_label_vocabulary_enforced():
    with pytest.raises(InputError):
        ClassificationDataset([LabeledExample("a", None, "mystery")], "train", ["0", "1"])


def test_pair_encoding_layout(vocab):
    ex = LabeledExample("amber breeze", "cedar", "0")
    ids, types = encode_for_classification(ex, vocab, max_len=64)
    sep = vocab.eod_id
    assert ids[0] == sep
    assert ids.count(sep) == 3
    second_sep = ids.index(sep, 1)
    assert all(t == 0 for t in types[: second_sep + 1])
    assert all(t == 1 for t in types[second_sep + 1 :])


# ---------------------------------------------------------------------------
# fine-tune and evaluate
# ---------------------------------------------------------------------------


def test_finetune_rejects_wrong_family(vocab):
    cfg = ModelConfig("decoder-only", 1, 16, 2, 8, vocab_size=vocab.size, max_seq_len=32)
    params = build_model(cfg, seed=0)
    ds = make_synthetic_pair_task(8, seed=0)
    with pytest.raises(ConfigError):
        finetune(params, cfg, vocab, ds, "pair-classifier", FinetuneSettings(max_steps=1))


def test_finetune_holds_exactly_the_body_and_classifier(vocab, monkeypatch):
    engines = []

    class RecordingEngine(TrainEngine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            engines.append(self)

    monkeypatch.setattr(evaluation_mod, "TrainEngine", RecordingEngine)
    cfg = encoder_cfg(vocab, dropout=0.1)
    params = build_model(cfg, seed=3)
    before = {name: t.data.copy() for name, t in params.items()}
    # the zero head passes a zero gradient to the body on step 1; the later steps train it
    model = finetune(params, cfg, vocab, make_synthetic_pair_task(8, seed=0), "pair-classifier",
                     FinetuneSettings(learning_rate=1e-3, max_steps=3, batch_size=4))
    (engine,) = engines
    assert model.params is params  # the body is trained in place: one copy of it, never two
    names = [name for name, _, _ in parameter_inventory(cfg, 2)]
    m, v = params.views(engine.optimizer.m_flat), params.views(engine.optimizer.v_flat)
    assert model.params.names() == list(m) == list(v) == names
    assert not [name for name in names if name.startswith(("mlm.", "sop."))]
    for name in ("pooler.w", "block0.mlp.w_fc", "tok_emb"):
        assert not np.array_equal(model.params[name].data, before[name]), name
    assert model.params["cls.w"].data.any()


@pytest.mark.parametrize("field, named", [("max_steps", "step budget"), ("epochs", "epochs")])
def test_negative_finetune_budget_rejected(field, named):
    with pytest.raises(InputError, match=f"{named} must be non-negative, got -1$"):
        FinetuneSettings(**{field: -1})
    assert getattr(FinetuneSettings(**{field: 0}), field) == 0


@pytest.mark.parametrize("rate", [float("inf"), float("nan"), float("-inf"), -1e-3])
def test_finetune_rate_must_be_finite_and_non_negative(rate):
    with pytest.raises(InputError, match="learning rate must be finite and non-negative"):
        FinetuneSettings(learning_rate=rate, max_steps=3)
    assert FinetuneSettings(learning_rate=0.0).learning_rate == 0.0


def test_finetune_epochs_read_one_shuffled_stream(vocab, monkeypatch):
    # 10 examples in batches of 4 (4 does not divide 10): each epoch is one whole permutation
    rows = []
    classifier_batch = evaluation_mod._classifier_batch

    def recording_batch(dataset, picks, *args):
        rows.extend(int(r) for r in picks)
        return classifier_batch(dataset, picks, *args)

    monkeypatch.setattr(evaluation_mod, "_classifier_batch", recording_batch)
    cfg = encoder_cfg(vocab, n_layers=1)
    ds = make_synthetic_pair_task(10, seed=0)
    epochs = 3
    finetune(build_model(cfg, seed=0), cfg, vocab, ds, "pair-classifier",
             FinetuneSettings(learning_rate=1e-3, epochs=epochs, batch_size=4, seed=0))
    assert len(rows) == epochs * 3 * 4  # three batches of 4 per epoch
    for e in range(epochs):
        assert sorted(rows[e * 10 : (e + 1) * 10]) == list(range(10)), e


def test_zero_steps_gives_majority_class_baseline(vocab):
    cfg = encoder_cfg(vocab)
    params = build_model(cfg, seed=0)
    ds = make_synthetic_pair_task(40, seed=1)
    model = finetune(params, cfg, vocab, ds, "pair-classifier", FinetuneSettings(max_steps=0))
    metrics = evaluate(model, vocab, ds)
    class0 = sum(1 for e in ds.examples if e.label == "0") / len(ds)
    assert metrics.accuracy == pytest.approx(class0)


def test_toy_finetune_reaches_committed_accuracy(vocab):
    # committed fixture: seed 0, 400 steps (budget <= 500), lr 3e-3
    cfg = encoder_cfg(vocab)
    params = build_model(cfg, seed=0)
    train = make_synthetic_pair_task(200, seed=3, split="train")
    model = finetune(
        params, cfg, vocab, train, "pair-classifier",
        FinetuneSettings(learning_rate=3e-3, max_steps=400, batch_size=16, seed=0),
    )
    metrics = evaluate(model, vocab, train)
    assert metrics.accuracy > 0.95


def test_finetune_deterministic(vocab):
    ds = make_synthetic_pair_task(32, seed=5)

    def run():
        cfg = encoder_cfg(vocab)
        params = build_model(cfg, seed=7)
        model = finetune(params, cfg, vocab, ds, "pair-classifier",
                         FinetuneSettings(learning_rate=1e-3, max_steps=12, batch_size=8, seed=7))
        return [m.loss for m in model.history]

    assert run() == run()


def test_finetune_last_step_still_learns(vocab):
    cfg = encoder_cfg(vocab, n_layers=1)
    model = finetune(build_model(cfg, seed=0), cfg, vocab, make_synthetic_pair_task(8, seed=0), "pair-classifier",
                     FinetuneSettings(learning_rate=1e-3, max_steps=1, batch_size=4))
    assert model.history[-1].lr > 0.0
    assert np.any(model.params["cls.w"].data != 0.0)


def test_finetuned_checkpoint_fine_tunes_again_with_a_fresh_head(vocab, tmp_path):
    cfg = encoder_cfg(vocab, n_layers=1)
    settings = FinetuneSettings(learning_rate=1e-3, max_steps=2, batch_size=4)
    two = make_synthetic_pair_task(8, seed=0)
    first = finetune(build_model(cfg, seed=0), cfg, vocab, two, "pair-classifier", settings)
    path = str(tmp_path / "finetuned.npz")
    save_checkpoint(path, first.params, cfg)
    params, loaded_cfg, _ = load_checkpoint(path)
    assert params.names() == first.params.names()
    examples = [LabeledExample(t, None, l) for t, l in [("amber breeze", "x"), ("cedar dusk", "y"), ("gale", "z")]]
    three = ClassificationDataset(examples, "train", ["x", "y", "z"])
    again = finetune(params, loaded_cfg, vocab, three, "single-classifier", settings)
    assert again.params["cls.w"].shape == (cfg.d_layer, 3)
    assert again.params.names() == [name for name, _, _ in parameter_inventory(cfg, 3)]
    # a head the checkpoint carries gives way to a fresh one even at the same label count
    untrained = finetune(params, loaded_cfg, vocab, two, "pair-classifier", FinetuneSettings(max_steps=0))
    assert not untrained.params["cls.w"].data.any()


def test_evaluate_rejects_empty_split(vocab):
    cfg = encoder_cfg(vocab)
    params = build_model(cfg, seed=0)
    ds = make_synthetic_pair_task(8, seed=0)
    model = finetune(params, cfg, vocab, ds, "pair-classifier", FinetuneSettings(max_steps=0))
    # an empty dataset is rejected when it is built, so evaluation never sees one
    with pytest.raises(InputError, match="^dev: has no examples$"):
        empty = ClassificationDataset([], "dev", ["0", "1"])
        evaluate(model, vocab, empty)


def test_multiclass_yields_accuracy_only(vocab):
    cfg = encoder_cfg(vocab)
    params = build_model(cfg, seed=0)
    examples = [LabeledExample(t, None, l) for t, l in
                [("amber breeze", "x"), ("cedar dusk", "y"), ("ember frost", "z"), ("gale iris", "x")]]
    ds = ClassificationDataset(examples, "train", ["x", "y", "z"])
    model = finetune(params, cfg, vocab, ds, "single-classifier", FinetuneSettings(max_steps=1, batch_size=4))
    metrics = evaluate(model, vocab, ds)
    assert metrics.precision is None and metrics.f1 is None
    assert 0.0 <= metrics.accuracy <= 1.0
    assert metrics.confusion


def test_positive_label_must_be_a_label_of_a_binary_task(vocab):
    cfg = encoder_cfg(vocab, n_layers=1)
    examples = [LabeledExample(t, None, l) for t, l in [("amber breeze", "x"), ("cedar dusk", "y"), ("gale", "z")]]
    three = ClassificationDataset(examples, "dev", ["x", "y", "z"])
    model = finetune(build_model(cfg, seed=0), cfg, vocab, three, "single-classifier", FinetuneSettings(max_steps=0))
    with pytest.raises(InputError, match=re.escape("'zzz' is not in the label vocabulary ['x', 'y', 'z']")):
        evaluate(model, vocab, three, positive_label="zzz")
    with pytest.raises(InputError, match="given for 3 labels .*binary-only"):
        evaluate(model, vocab, three, positive_label="x")
    assert evaluate(model, vocab, three).precision is None
    two = make_synthetic_pair_task(8, seed=0)
    model = finetune(build_model(cfg, seed=0), cfg, vocab, two, "pair-classifier", FinetuneSettings(max_steps=0))
    with pytest.raises(InputError, match=re.escape("'zzz' is not in the label vocabulary ['0', '1']")):
        evaluate(model, vocab, two, positive_label="zzz")
    # the untrained head predicts the first label, "0", for every example
    assert evaluate(model, vocab, two, positive_label="0").confusion == {"tp": 4, "fp": 4, "fn": 0, "tn": 0}


def test_evaluate_scores_only_under_the_models_label_vocabulary(vocab):
    cfg = encoder_cfg(vocab, n_layers=1)
    two = make_synthetic_pair_task(8, seed=0)
    model = finetune(build_model(cfg, seed=0), cfg, vocab, two, "pair-classifier", FinetuneSettings(max_steps=0))
    swapped = ClassificationDataset(two.examples, "dev.tsv", ["1", "0"])
    ones = ClassificationDataset([ex for ex in two.examples if ex.label == "1"], "dev.tsv", ["1"])
    for dev in (swapped, ones):
        message = "^" + re.escape(f"dev.tsv: label vocabulary {dev.label_vocab} is not the model's ['0', '1']") + "$"
        with pytest.raises(InputError, match=message):
            evaluate(model, vocab, dev)
        # found before the first depth, not reported as that depth's failure
        with pytest.raises(InputError, match=message):
            depth_sweep(cfg, [1, 2], vocab, two, dev, FinetuneSettings(max_steps=0))


# ---------------------------------------------------------------------------
# depth sweep
# ---------------------------------------------------------------------------


def sweep_settings():
    return FinetuneSettings(learning_rate=1e-3, max_steps=8, batch_size=8, seed=0)


def test_depth_sweep_selection_and_determinism(vocab):
    base = encoder_cfg(vocab)
    train = make_synthetic_pair_task(32, seed=2, split="train")
    dev = make_synthetic_pair_task(16, seed=2, split="dev")
    a = depth_sweep(base, [1, 2, 3], vocab, train, dev, sweep_settings())
    b = depth_sweep(base, [1, 2, 3], vocab, train, dev, sweep_settings())
    assert [(d, m.accuracy) for d, m in a.rows] == [(d, m.accuracy) for d, m in b.rows]
    # each depth's fine-tune history, in depth order: the same run as a fine-tune at that depth alone
    assert [d for d, _ in a.histories] == [1, 2, 3] and a.histories == b.histories
    cfg = replace(base, n_layers=2)
    alone = finetune(build_model(cfg, seed=0), cfg, vocab, train, "pair-classifier", sweep_settings())
    assert a.histories[1][1] == alone.history and len(alone.history) == 8
    accs = {d: m.accuracy for d, m in a.rows}
    best = max(accs.values())
    assert a.best_depth == min(d for d, acc in accs.items() if acc == best)


def test_depth_sweep_tie_breaks_to_smaller_depth():
    rows = [(4, EvalMetrics(accuracy=0.8)), (2, EvalMetrics(accuracy=0.8)), (8, EvalMetrics(accuracy=0.7))]
    # reuse the selection rule through the public function by monkey-free math:
    best = max(((d, m.accuracy) for d, m in rows), key=lambda it: (it[1], -it[0]))
    assert best[0] == 2


def test_depth_sweep_argmax_invariant_under_monotone_transform(vocab):
    base = encoder_cfg(vocab)
    train = make_synthetic_pair_task(16, seed=4)
    dev = make_synthetic_pair_task(16, seed=4, split="dev")
    result = depth_sweep(base, [1, 2], vocab, train, dev, sweep_settings())
    transformed = [(d, np.exp(3 * m.accuracy) - 0.5) for d, m in result.rows]
    best = max(transformed, key=lambda it: (it[1], -it[0]))[0]
    assert best == result.best_depth


def test_depth_sweep_needs_two_depths(vocab):
    base = encoder_cfg(vocab)
    ds = make_synthetic_pair_task(8, seed=0)
    with pytest.raises(ConfigError):
        depth_sweep(base, [2], vocab, ds, ds, sweep_settings())


def failing_build_at_depth(monkeypatch, depth):
    """Make building the ``depth``-layer model fail, as running out of memory would."""
    real = evaluation_mod.build_model

    def build_model(cfg, seed=0):
        if cfg.n_layers == depth:
            raise MemoryError(f"cannot allocate a {depth}-layer model")
        return real(cfg, seed=seed)

    monkeypatch.setattr(evaluation_mod, "build_model", build_model)


def test_depth_sweep_failure_carries_partial_rows(vocab, monkeypatch):
    base = encoder_cfg(vocab)
    train = make_synthetic_pair_task(16, seed=6)
    dev = make_synthetic_pair_task(8, seed=6, split="dev")
    # a depth that cannot be a model is an input error, found before any depth runs
    with pytest.raises(ConfigError):
        depth_sweep(base, [1, -1, 2], vocab, train, dev, sweep_settings())
    failing_build_at_depth(monkeypatch, 3)
    with pytest.raises(SweepError) as exc:
        depth_sweep(base, [1, 3, 2], vocab, train, dev, sweep_settings())
    assert len(exc.value.partial) == 1
    assert exc.value.partial[0][0] == 1
    assert [(d, len(history)) for d, history in exc.value.histories] == [(1, 8)]


def test_sweep_csv_columns(vocab):
    rows = [(2, metrics_from_confusion(3, 1, 1, 5)), (4, EvalMetrics(accuracy=0.5))]
    text = render_sweep_csv("toy-encoder", rows)
    lines = text.strip().splitlines()
    assert lines[0] == "model,depth,precision,recall,f1,acc"
    assert lines[1].startswith("toy-encoder,2,0.7500,0.7500,0.7500,0.8000")
    assert lines[2] == "toy-encoder,4,,,,0.5000"
