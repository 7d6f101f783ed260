"""Acceptance suite: one test (and one printed PASS line) per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Two sub-rows of the bundled reference tables are internally
inconsistent and are encoded as strict expected failures with the analysis
in their docstrings; everything else must pass at the stated tolerance.
"""

import gc
import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from stacklm import bpe
from stacklm import tensor as T
from stacklm.cost import (
    CostRecord,
    eflops,
    load_cost_records,
    reference_model_configs,
    reference_qqp_rows,
    reference_reported_params,
)
from stacklm.data import make_lm_batch, pack_documents, read_documents
from stacklm.engine import EngineConfig, TrainEngine, train_loop
from stacklm.evaluation import (
    FinetuneSettings,
    depth_sweep,
    make_synthetic_pair_task,
    render_sweep_csv,
    synthetic_task_vocab,
)
from stacklm.model import ModelConfig, build_model, count_params, forward
from stacklm.optim import BERT_PRETRAIN_SCHEDULE, GPT_PRETRAIN_SCHEDULE, TrainSchedule, clip_global_norm, lr_at
from stacklm.tensor import DropoutRng, Tape, Tensor

from test_tensor import assert_gradcheck  # the finite-difference oracle

TOY_CORPUS = str(Path(__file__).resolve().parent.parent / "data" / "toy_corpus.txt")


def report(number: int, label: str) -> None:
    print(f"\n[ACCEPTANCE {number:>2}] PASS  {label}")


# ---------------------------------------------------------------------------
# 1. published cost-table reproduction
# ---------------------------------------------------------------------------


def test_criterion_1_eflops_table():
    """19 of 20 rows reproduce within 3% at the 312 Tflops/device rate in
    under a second (the remaining row is covered by the xfail below)."""
    start = time.time()
    records = load_cost_records()
    assert len(records) == 20
    deviations = {}
    for record in records:
        computed = eflops(record)
        deviations[record.model] = abs(computed - record.reported_eflops) / record.reported_eflops
    elapsed = time.time() - start
    for model, dev in deviations.items():
        if model == "CPM-X-EVA":
            continue
        assert dev <= 0.03, f"{model}: {100 * dev:.2f}%"
    assert elapsed < 1.0
    report(1, f"19/20 published cost rows within 3% (worst {100 * max(d for m, d in deviations.items() if m != 'CPM-X-EVA'):.2f}%), {elapsed * 1e3:.0f} ms")


@pytest.mark.xfail(
    strict=True,
    reason=(
        "The CPM-X-EVA row of the published cost table is internally "
        "inconsistent: 25h x 2 devices at any rate consistent with the other "
        "19 rows gives >= 3.8% deviation (312 Tflops/device gives 56.16 vs "
        "the reported 54, i.e. 4.0%).  The reported 54 Eflops corresponds to "
        "24h x 2 devices exactly.  No constant per-device rate satisfies all "
        "20 rows at 3%: this row needs <= 309.0 Tflops while the EPM-X-S row "
        "needs >= 309.9 Tflops."
    ),
)
def test_criterion_1_eflops_cpm_x_eva_row():
    record = next(r for r in load_cost_records() if r.model == "CPM-X-EVA")
    dev = abs(eflops(record) - record.reported_eflops) / record.reported_eflops
    assert dev <= 0.03


# ---------------------------------------------------------------------------
# 2. parameter counts
# ---------------------------------------------------------------------------


def test_criterion_2_parameter_counts():
    configs = reference_model_configs()
    reported = reference_reported_params()
    worst = {}
    for name, cfg in configs.items():
        if name == "CPM-2-X-M":
            continue  # covered by the xfail below
        tolerance = 0.10 if name.startswith("BERT-E") or name.startswith("BERT-X") else 0.02
        dev = abs(count_params(cfg) - reported[name]) / reported[name]
        assert dev <= tolerance, f"{name}: {100 * dev:.2f}% vs {100 * tolerance:.0f}%"
        worst[name] = dev
    report(2, f"19/20 reported totals matched (worst {100 * max(worst.values()):.2f}%)")


@pytest.mark.xfail(
    strict=True,
    reason=(
        "The reported CPM-2-X-S (2.9e9) and CPM-2-X-M (5.6e9) totals are "
        "mutually inconsistent for any accounting that is linear in depth: "
        "the S row implies an encoder+decoder layer-pair cost of at least "
        "455M parameters (to stay within 2%), the M row at most 466.7M, and "
        "the standard full inventory (attention 4d^2, cross-attention 4d^2, "
        "MLP 8d^2, plus biases and norms) costs 469.9M.  The standard "
        "accounting gives 5.7504e9 for CPM-2-X-M, a 2.69% deviation."
    ),
)
def test_criterion_2_cpm_2_x_m_row():
    cfg = reference_model_configs()["CPM-2-X-M"]
    reported = reference_reported_params()["CPM-2-X-M"]
    assert abs(count_params(cfg) - reported) / reported <= 0.02


def test_criterion_2_analytic_count_equals_instantiated():
    """Exact equality between the analytic count and the instantiated model.

    build_model and count_params consume the identical inventory, so the
    equality is checked by materializing witnesses: the smallest real table
    row in full (BERT-C, 326.6M parameters) plus width-reduced variants of
    every row (same depth and family, which is where inventories differ).
    Materializing the multi-billion-parameter rows would need tens of GB
    and adds nothing beyond those witnesses.
    """
    full = reference_model_configs()["BERT-C"]
    params = build_model(full, seed=0)
    assert params.element_count() == count_params(full)
    del params
    gc.collect()

    for name, cfg in reference_model_configs().items():
        slim = replace(cfg, d_layer=32, n_heads=2, d_head=16, vocab_size=97, max_seq_len=48)
        params = build_model(slim, seed=1)
        assert params.element_count() == count_params(slim), name
        del params
    report(2, "analytic count == instantiated element count (full BERT-C + 20 width-reduced rows)")


# ---------------------------------------------------------------------------
# 3. published metric-table consistency
# ---------------------------------------------------------------------------


def test_criterion_3_f1_internal_consistency():
    rows = reference_qqp_rows()
    assert len(rows) == 5
    worst = 0.0
    for row in rows:
        f1 = 2 * row["precision"] * row["recall"] / (row["precision"] + row["recall"])
        gap = abs(f1 - row["f1"])
        assert gap < 0.05, f"{row['model']}: recomputed {f1:.4f} vs {row['f1']}"
        worst = max(worst, gap)
    report(3, f"5/5 published F1 values match 2PR/(P+R) (worst gap {worst:.3f} points)")


# ---------------------------------------------------------------------------
# 4. gradient correctness
# ---------------------------------------------------------------------------


def test_criterion_4_gradchecks_random_shapes():
    """Every differentiable primitive at >= 50 randomized shapes, 64-bit,
    central differences, relative error < 1e-4."""
    checked = 0
    for seed in range(4):
        g = np.random.default_rng(1000 + seed)
        rows, cols = int(g.integers(2, 6)), int(g.integers(2, 7))
        a = g.normal(size=(rows, cols))
        b = g.normal(size=(rows, cols))
        bias = g.normal(size=cols)
        w = g.normal(size=(rows, cols))

        assert_gradcheck(lambda x, y: T.sum_all(T.add(x, y)), lambda x, y: (x + y).sum(), [a, b])
        assert_gradcheck(lambda x, v: T.sum_all(T.add(x, v)), lambda x, v: (x + v).sum(), [a, bias])
        assert_gradcheck(lambda x, y: T.sum_all(T.mul(x, y)), lambda x, y: (x * y).sum(), [a, b])
        assert_gradcheck(lambda x: T.sum_all(T.scale(x, 1.7)), lambda x: (1.7 * x).sum(), [a])
        checked += 4

        k, n = int(g.integers(2, 6)), int(g.integers(2, 5))
        m1, m2 = g.normal(size=(rows, k)), g.normal(size=(k, n))
        assert_gradcheck(lambda x, y: T.sum_all(T.matmul(x, y)), lambda x, y: (x @ y).sum(), [m1, m2])
        b1, b2 = g.normal(size=(2, rows, k)), g.normal(size=(2, k, n))
        assert_gradcheck(lambda x, y: T.sum_all(T.matmul(x, y)), lambda x, y: (x @ y).sum(), [b1, b2])
        checked += 2

        erf = np.vectorize(math.erf, otypes=[np.float64])

        assert_gradcheck(
            lambda x: T.sum_all(T.mul(T.gelu(x), Tensor(w))),
            lambda x: (0.5 * x * (1 + erf(x / np.sqrt(2))) * w).sum(),
            [a],
        )
        assert_gradcheck(
            lambda x: T.sum_all(T.mul(T.tanh(x), Tensor(w))),
            lambda x: (np.tanh(x) * w).sum(),
            [a],
        )
        assert_gradcheck(
            lambda x: T.sum_all(T.mul(T.transpose(x, (1, 0)), Tensor(w.T))),
            lambda x: (x.T * w.T).sum(),
            [a],
        )
        assert_gradcheck(
            lambda x: T.sum_all(T.mul(T.reshape(x, (cols, rows)), Tensor(w.reshape(cols, rows)))),
            lambda x: (x.reshape(cols, rows) * w.reshape(cols, rows)).sum(),
            [a],
        )
        width = int(g.integers(1, cols))
        assert_gradcheck(
            lambda x: T.sum_all(T.mul(T.narrow(x, 1, 0, width), Tensor(w[:, :width]))),
            lambda x: (x[:, :width] * w[:, :width]).sum(),
            [a],
        )
        assert_gradcheck(
            lambda x: T.sum_all(T.mul(T.select(x, 0, 1), Tensor(w[:, 0]))),
            lambda x: (x[:, 0] * w[:, 0]).sum(),
            [a],
        )
        checked += 6

        eps = 1e-5
        gain, lbias = g.normal(size=cols), g.normal(size=cols)

        def np_ln(x, gain, lbias):
            mu = x.mean(-1, keepdims=True)
            var = ((x - mu) ** 2).mean(-1, keepdims=True)
            return (((x - mu) / np.sqrt(var + eps)) * gain + lbias).sum()

        assert_gradcheck(
            lambda x, g_, b_: T.sum_all(T.layer_norm(x, g_, b_, eps)), np_ln, [a, gain, lbias]
        )

        def np_softmax(x):
            z = x - x.max(-1, keepdims=True)
            e = np.exp(z)
            return ((e / e.sum(-1, keepdims=True)) * w).sum()

        assert_gradcheck(
            lambda x: T.sum_all(T.mul(T.softmax(x), Tensor(w))), np_softmax, [a]
        )

        vocab = int(g.integers(3, 8))
        logits = g.normal(size=(rows, vocab))
        targets = g.integers(0, vocab, size=rows)
        mask = g.random(rows).round() + 0.5

        def np_xent(x):
            z = x - x.max(-1, keepdims=True)
            lp = z - np.log(np.exp(z).sum(-1, keepdims=True))
            nll = -lp[np.arange(rows), targets]
            return (nll * mask).sum() / mask.sum()

        assert_gradcheck(lambda x: T.softmax_cross_entropy(x, targets, mask), np_xent, [logits])

        table = g.normal(size=(6, cols))
        ids = g.integers(0, 6, size=rows)
        assert_gradcheck(
            lambda t: T.sum_all(T.mul(T.embedding_lookup(t, ids), Tensor(w))),
            lambda t: (t[ids] * w).sum(),
            [table],
        )

        stream = DropoutRng(seed, 0, list(range(rows)))
        keep = stream.keep_mask(0, 0, (rows, cols), 0.3)
        assert_gradcheck(
            lambda x: T.sum_all(T.dropout(x, 0.3, DropoutRng(seed, 0, list(range(rows))), 0, 0)),
            lambda x: (x * keep).sum(),
            [a],
        )
        checked += 5
    assert checked >= 50
    report(4, f"{checked} randomized primitive gradchecks at rel err < 1e-4 (float64)")


def test_criterion_4_end_to_end_two_layer_model():
    cfg = ModelConfig("decoder-only", 2, d_layer=4, n_heads=2, d_head=2, vocab_size=7, max_seq_len=6, dropout_p=0.0)
    params = build_model(cfg, seed=5, dtype=np.float64)
    ids = np.array([[1, 2, 3, 4]])
    targets = np.array([[2, 3, 4, 5]])

    def loss_value():
        return T.softmax_cross_entropy(forward(params, cfg, ids).logits, targets)

    with Tape() as tape:
        loss = loss_value()
    tape.backward(loss)
    h = 1e-5
    rng = np.random.default_rng(0)
    for name, t in params.items():
        flat = t.data.reshape(-1)
        gflat = t.grad.reshape(-1)
        for idx in rng.choice(flat.size, size=min(2, flat.size), replace=False):
            keep = flat[idx]
            flat[idx] = keep + h
            up = loss_value().item()
            flat[idx] = keep - h
            down = loss_value().item()
            flat[idx] = keep
            numeric = (up - down) / (2 * h)
            assert abs(gflat[idx] - numeric) / max(abs(numeric), 1.0) < 1e-4, f"{name}[{idx}]"
    report(4, "end-to-end 2-layer model matches finite differences on every parameter")


# ---------------------------------------------------------------------------
# 5. recipe anchors
# ---------------------------------------------------------------------------


def test_criterion_5_recipe_anchors():
    s = GPT_PRETRAIN_SCHEDULE
    assert (s.peak_lr, s.warmup_steps, s.total_steps, s.min_lr) == (1.5e-4, 3000, 300000, 1e-5)
    assert lr_at(s, 3000) == 1.5e-4
    assert lr_at(s, 0) == 0.0
    assert lr_at(s, 300000) == 1e-5
    assert lr_at(s, 10**6) == 1e-5

    b = BERT_PRETRAIN_SCHEDULE
    assert (b.peak_lr, b.warmup_steps, b.decay_shape) == (1.0e-4, 10000, "linear")
    assert lr_at(b, 10000) == 1.0e-4
    half = 10000 + (b.total_steps - 10000) // 2
    assert lr_at(b, half) == pytest.approx(0.5e-4, rel=1e-12)

    clipped, norm = clip_global_norm({"g": np.array([3.0, 4.0])}, 1.0)
    assert norm == 5.0
    assert np.allclose(clipped["g"], [0.6, 0.8])
    report(5, "schedule anchors (GPT cosine, BERT linear) and 3-4-5 clipping exact")


# ---------------------------------------------------------------------------
# 6. recomputation equivalence
# ---------------------------------------------------------------------------


def test_criterion_6_recompute_equivalence_20_trials():
    rng = np.random.default_rng(99)
    for trial in range(20):
        family = ("decoder-only", "encoder-only", "encoder-decoder")[int(rng.integers(3))]
        layers = int(rng.integers(1, 5))
        if family == "encoder-decoder":
            layers = 2 * max(1, layers // 2)
        heads = int(rng.integers(1, 3))
        d_head = int(rng.integers(2, 5)) * 2
        cfg = ModelConfig(
            family, layers, d_layer=heads * d_head, n_heads=heads, d_head=d_head,
            vocab_size=23, max_seq_len=10, dropout_p=float(rng.choice([0.0, 0.1, 0.2])),
        )
        seed = int(rng.integers(1 << 16))
        docs = [list(np.random.default_rng(seed).integers(5, 23, size=18)) for _ in range(4)]
        packed = pack_documents(docs, 8, eod_id=0, pad_id=2)

        from stacklm.bpe import train_bpe
        from stacklm.data import MaskingPolicy, make_mlm_batch, make_seq2seq_batch

        results = []
        for recompute in (False, True):
            params = build_model(cfg, seed=seed)
            engine = TrainEngine(
                params, cfg,
                EngineConfig(schedule=TrainSchedule(1e-3, 0, 0, 50), recompute_activations=recompute, seed=seed),
            )
            if family == "encoder-only":
                vocab = _RECOMPUTE_VOCAB
                batch = make_mlm_batch(packed, 0, 2, MaskingPolicy(), vocab, seed=seed)
            elif family == "encoder-decoder":
                batch = make_seq2seq_batch(packed, 0, 2, eod_id=0)
            else:
                batch = make_lm_batch(packed, 0, 2)
            metrics = engine.train_step(batch)
            results.append((metrics.loss, {n: t.data.copy() for n, t in params.items()}))
        (loss_a, p_a), (loss_b, p_b) = results
        assert loss_a == loss_b, f"trial {trial}"
        for name in p_a:
            assert np.array_equal(p_a[name], p_b[name]), f"trial {trial}: {name}"
    report(6, "activation recomputation bit-identical on 20 randomized models")


_RECOMPUTE_VOCAB = bpe.train_bpe("aa bb cc dd ee " * 6, 60)


# ---------------------------------------------------------------------------
# 7. data-parallel equivalence
# ---------------------------------------------------------------------------


def test_criterion_7_data_parallel_equivalence():
    """2- and 4-shard gradients match the full-batch gradients within 1e-6
    relative per parameter tensor.  Compared at the reduced-gradient stage:
    the optimizer step that consumes them is the identical deterministic
    code path, and key-projection biases have mathematically zero gradient,
    which makes an elementwise post-update comparison ill-posed."""
    rng = np.random.default_rng(7)
    docs = [list(rng.integers(5, 29, size=30)) for _ in range(8)]
    packed = pack_documents(docs, 10, eod_id=0, pad_id=2)
    batch = make_lm_batch(packed, 0, 8)
    cfg = ModelConfig("decoder-only", 2, d_layer=16, n_heads=2, d_head=8, vocab_size=29, max_seq_len=10)
    params = build_model(cfg, seed=71)
    engine = TrainEngine(params, cfg, EngineConfig(schedule=TrainSchedule(1e-3, 0, 0, 10), seed=71))
    full, full_loss = engine.compute_gradients(batch, n_shards=1)
    for n_shards in (2, 4):
        grads, loss = engine.compute_gradients(batch, n_shards=n_shards)
        assert loss == pytest.approx(full_loss, rel=1e-6)
        for name in full:
            denom = max(float(np.max(np.abs(full[name]))), 1e-12)
            err = float(np.max(np.abs(grads[name] - full[name]))) / denom
            assert err < 1e-6, f"{n_shards} shards, {name}: {err}"
    report(7, "2- and 4-shard gradients within 1e-6 relative of full batch")


# ---------------------------------------------------------------------------
# 8. desk-scale training
# ---------------------------------------------------------------------------


def test_criterion_8_toy_pretraining_halves_loss():
    """Committed budget: 300 steps of the toy-profile decoder on the bundled
    corpus (same settings the CLI --toy profile uses)."""
    start = time.time()
    docs = read_documents(TOY_CORPUS)
    vocab = bpe.train_bpe(docs, 512)
    cfg = ModelConfig(
        "decoder-only", 2, d_layer=64, n_heads=4, d_head=16,
        vocab_size=vocab.size, max_seq_len=64, dropout_p=0.1,
    )
    from stacklm.data import encode_corpus

    packed = pack_documents(encode_corpus(docs, vocab), 64, vocab.eod_id, vocab.pad_id)

    def run(steps):
        params = build_model(cfg, seed=0)
        engine = TrainEngine(
            params, cfg,
            EngineConfig(schedule=TrainSchedule(1e-3, 1e-4, 30, 300), seed=0),
        )
        return train_loop(engine, lambda k: make_lm_batch(packed, k, 8), steps)

    short_a = [m.loss for m in run(10)]
    short_b = [m.loss for m in run(10)]
    assert short_a == short_b  # deterministic per seed

    history = run(300)
    initial, final = history[0].loss, history[-1].loss
    assert initial == pytest.approx(np.log(vocab.size), rel=0.05)
    assert final < 0.5 * initial
    elapsed = time.time() - start
    assert elapsed < 300.0
    report(8, f"toy decoder loss {initial:.2f} -> {final:.2f} in 300 steps ({elapsed:.0f}s)")


# ---------------------------------------------------------------------------
# 9. tokenizer round trip
# ---------------------------------------------------------------------------


def test_criterion_9_round_trip_thousand_strings():
    docs = read_documents(TOY_CORPUS)
    vocab = bpe.train_bpe(docs, 512)
    alphabet = [chr(b) for sym in vocab.alphabet for b in sym if len(sym) == 1]
    rng = np.random.default_rng(0)
    for _ in range(1000):
        length = int(rng.integers(0, 40))
        text = "".join(rng.choice(alphabet) for _ in range(length))
        assert bpe.decode(bpe.encode(text, vocab), vocab) == text
    for doc in docs:
        assert bpe.decode(bpe.encode(doc, vocab), vocab) == doc
    report(9, "decode(encode(s)) == s on 1000 random strings and all 60 bundled documents")


# ---------------------------------------------------------------------------
# 10. causality
# ---------------------------------------------------------------------------


def test_criterion_10_causality_100_trials():
    cfg = ModelConfig("decoder-only", 2, d_layer=16, n_heads=2, d_head=8, vocab_size=31, max_seq_len=16, dropout_p=0.0)
    params = build_model(cfg, seed=13)
    rng = np.random.default_rng(5)
    for trial in range(100):
        length = int(rng.integers(3, 13))
        ids = rng.integers(0, 31, size=(1, length))
        base = forward(params, cfg, ids).logits.data
        i = int(rng.integers(0, length - 1))
        j = int(rng.integers(i + 1, length))
        perturbed = ids.copy()
        perturbed[0, j] = (perturbed[0, j] + 1 + int(rng.integers(29))) % 31
        out = forward(params, cfg, perturbed).logits.data
        assert np.array_equal(out[0, : i + 1], base[0, : i + 1]), f"trial {trial}"
    report(10, "decoder logits bit-invariant to future-position edits, 100 trials")


# ---------------------------------------------------------------------------
# 11. depth-sweep procedure (paper-scale accuracies are documentation only)
# ---------------------------------------------------------------------------


def test_criterion_11_depth_sweep_procedure():
    """The published task accuracies need full-scale pretraining and are
    never asserted; the deliverable is the deterministic 5-depth table and
    the argmax rule with ties toward the smaller depth."""
    vocab = synthetic_task_vocab()
    base = ModelConfig(
        "encoder-only", 2, d_layer=16, n_heads=2, d_head=8,
        vocab_size=vocab.size, max_seq_len=48, dropout_p=0.0,
    )
    train = make_synthetic_pair_task(16, seed=1, split="train")
    dev = make_synthetic_pair_task(8, seed=1, split="dev")
    settings = FinetuneSettings(learning_rate=1e-3, max_steps=2, batch_size=8, seed=1)
    depths = [50, 60, 70, 80, 90]

    first = depth_sweep(base, depths, vocab, train, dev, settings, build_seed=1)
    second = depth_sweep(base, depths, vocab, train, dev, settings, build_seed=1)

    assert [d for d, _ in first.rows] == depths
    table_a = render_sweep_csv("toy-encoder", first.rows)
    table_b = render_sweep_csv("toy-encoder", second.rows)
    assert table_a == table_b  # deterministic rerun
    assert len(table_a.strip().splitlines()) == 6

    accuracies = {d: m.accuracy for d, m in first.rows}
    best = max(accuracies.values())
    assert first.best_depth == min(d for d, a in accuracies.items() if a == best)
    report(11, f"5-depth sweep deterministic; argmax depth {first.best_depth} by the tie-break rule")
