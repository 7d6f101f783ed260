import dataclasses
import hashlib
import json
import os
import platform
import re
import subprocess
import sys
import tomllib
import zipfile
from pathlib import Path

import numpy as np
import pytest

from stacklm.cli import main
import stacklm
from stacklm.engine import load_engine_checkpoint
from stacklm.evaluation import FinetuneSettings, finetune, load_tsv_dataset, make_synthetic_pair_task
from stacklm.model import ModelConfig, build_model, save_checkpoint
from stacklm import bpe
from test_evaluation import failing_build_at_depth

REPO = Path(__file__).resolve().parent.parent
CONFIGS = REPO / "configs"
TOY_CORPUS = REPO / "data" / "toy_corpus.txt"


def test_no_arguments_prints_usage_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_flag_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["cost", "--definitely-not-a-flag"])
    assert exc.value.code == 2


def test_unknown_subcommand_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["launch-rockets"])
    assert exc.value.code == 2


@pytest.mark.parametrize("seed", ["abc", "-1"])
@pytest.mark.parametrize("command", ["pretrain", "finetune", "sweep"])
def test_bad_seed_is_a_parser_error_that_names_the_option(tmp_path, capsys, command, seed):
    with pytest.raises(SystemExit) as exc:
        main([command, "--seed", seed, "--out", str(tmp_path / "run")])
    assert exc.value.code == 2
    assert f"stacklm {command}: error: argument --seed: takes an integer >= 0, got '{seed}'" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_runtime_failure_exit_1(tmp_path, capsys):
    rc = main(["count-params", "--config", str(tmp_path / "missing.cfg"), "--out", str(tmp_path / "run")])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_pretrain_rejects_nonpositive_shards(tmp_path, capsys):
    # and a shard count that does not divide the toy batch of 8; all before any work
    for shards in ("0", "-2", "3"):
        rc = main([
            "pretrain", "--config", str(CONFIGS / "cpm-x-s.cfg"), "--corpus", str(TOY_CORPUS),
            "--toy", "--steps", "2", "--shards", shards, "--out", str(tmp_path / f"run{shards}"),
        ])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("stacklm pretrain: error:"), err
        assert not (tmp_path / f"run{shards}" / "metrics.jsonl").exists()
        assert not (tmp_path / f"run{shards}" / "vocab.txt").exists()


def test_pretrain_model_missing_a_parameter_leaves_no_run_directory(tmp_path, capsys):
    # no decoder block reads a depth-0 encoder's output, so its final norm gets no gradient
    text = (CONFIGS / "cpm-2-x-s.cfg").read_text(encoding="utf-8")
    config = tmp_path / "depth0.cfg"
    config.write_text(re.sub(r"(?m)^n_layers\s*=.*$", "n_layers = 0", text), encoding="utf-8")
    rc = main([
        "pretrain", "--toy", "--config", str(config), "--corpus", str(TOY_CORPUS),
        "--steps", "3", "--out", str(tmp_path / "o"),
    ])
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("stacklm pretrain: error:"), err
    assert "enc_final.gain, enc_final.bias" in err[0]
    assert not (tmp_path / "o").exists()


def test_bad_run_options_exit_1_with_one_line_error(tmp_path, capsys, write_tsv):
    vocab = bpe.train_bpe("some words repeat words repeat some", 60)
    vocab_path = tmp_path / "vocab.txt"
    bpe.save_vocab(vocab, str(vocab_path))
    cfg = ModelConfig("encoder-only", 1, d_layer=16, n_heads=2, d_head=8, vocab_size=vocab.size, max_seq_len=32)
    save_checkpoint(str(tmp_path / "model.npz"), build_model(cfg, seed=0), cfg)
    tsv = tmp_path / "train.tsv"
    write_tsv(make_synthetic_pair_task(8, seed=0), str(tsv))
    # truncated checkpoints, one without a meta record, and cost tables missing a column or a cell
    raw = (tmp_path / "model.npz").read_bytes()
    bad_checkpoints = []
    for cut in (0, 1, len(raw) // 3, len(raw) - 1):
        bad_checkpoints.append(tmp_path / f"cut{cut}.npz")
        bad_checkpoints[-1].write_bytes(raw[:cut])
    bad_checkpoints.append(tmp_path / "no-meta.npz")
    np.savez(str(bad_checkpoints[-1]), unrelated=np.zeros(3))
    # meta records with a non-object or missing 'extra', a non-text config or another version
    with np.load(str(tmp_path / "model.npz")) as archive:
        arrays = {key: archive[key] for key in archive.files}
    meta = json.loads(arrays["meta"].tobytes())
    no_extra = {k: v for k, v in meta.items() if k != "extra"}
    for i, bad_meta in enumerate(({**meta, "extra": 5}, {**meta, "extra": [1]}, no_extra, {**meta, "config": 123},
                                  {**meta, "version": 2})):
        bad_checkpoints.append(tmp_path / f"meta{i}.npz")
        record = np.frombuffer(json.dumps(bad_meta).encode("utf-8"), dtype=np.uint8)
        np.savez(str(bad_checkpoints[-1]), **{**arrays, "meta": record})
    # parameter arrays of two dtypes, one the inventory lacks, one of the wrong shape, and one missing
    for name, bad_arrays in (
        ("mixed", {**arrays, "param:tok_emb": arrays["param:tok_emb"].astype(np.float64)}),
        ("unexpected", {**arrays, "param:bogus": np.zeros(3, np.float32)}),
        ("shape", {**arrays, "param:tok_emb": np.zeros((vocab.size, 3), np.float32)}),
        ("missing", {key: a for key, a in arrays.items() if key != "param:pos_emb"}),
    ):
        bad_checkpoints.append(tmp_path / f"{name}.npz")
        np.savez(str(bad_checkpoints[-1]), **bad_arrays)
    # an array header that claims 16 KiB more than it holds, with the bytes behind it: numpy's error spans lines
    with zipfile.ZipFile(tmp_path / "model.npz") as src, zipfile.ZipFile(tmp_path / "header.npz", "w") as dst:
        for name in src.namelist():
            member = src.read(name)
            if name == "param:tok_emb.npy":
                length = int.from_bytes(member[8:10], "little") + 0x4000
                member = member[:8] + length.to_bytes(2, "little") + member[10:] + b" " * 0x4000
            dst.writestr(name, member)
    bad_checkpoints.append(tmp_path / "header.npz")
    # a checkpoint whose parameters hold one NaN
    nan_arrays = {**arrays, "param:block0.mlp.w_fc": arrays["param:block0.mlp.w_fc"].copy()}
    nan_arrays["param:block0.mlp.w_fc"][0, 0] = np.nan
    np.savez(str(tmp_path / "nan.npz"), **nan_arrays)
    # a 2-layer checkpoint whose config was edited to 1 layer, and one with no classifier head to evaluate
    deeper = dataclasses.replace(cfg, n_layers=2)
    save_checkpoint(str(tmp_path / "deeper.npz"), build_model(deeper, seed=0), cfg)
    bad_evals = [tmp_path / "deeper.npz", tmp_path / "model.npz"]
    # a vocabulary that does not fit the checkpoint, for fine-tuning and evaluation
    other_path = tmp_path / "other-vocab.txt"
    other = bpe.train_bpe("a different corpus with a bigger alphabet: xyz 0123456789", 90)
    bpe.save_vocab(other, str(other_path))
    tuned = finetune(build_model(cfg, seed=0), cfg, vocab, make_synthetic_pair_task(8, seed=0), "pair-classifier",
                     FinetuneSettings(max_steps=0))
    save_checkpoint(str(tmp_path / "tuned.npz"), tuned.params, cfg, extra={"label_vocab": tuned.label_vocab})
    # a three-label fine-tune, for which precision, recall and F1 are undefined
    three_tsv = tmp_path / "three.tsv"
    three_tsv.write_text("text_a\tlabel\nsome words\ta\nwords repeat\tb\nrepeat some\tc\n")
    three = load_tsv_dataset(str(three_tsv))
    tuned3 = finetune(build_model(cfg, seed=0), cfg, vocab, three, "single-classifier", FinetuneSettings(max_steps=0))
    save_checkpoint(str(tmp_path / "tuned3.npz"), tuned3.params, cfg, extra={"label_vocab": tuned3.label_vocab})
    (tmp_path / "no-steps.csv").write_text("model,time,gpus\nTINY,1h,1\n")
    (tmp_path / "short-row.csv").write_text("model,time,steps,gpus,reported_eflops\nTINY,1h\n")
    (tmp_path / "negative.csv").write_text("model,time,steps,gpus\nTINY,1h,5K,-2\n")
    (tmp_path / "infinite.csv").write_text("model,time,steps,gpus\nTINY,inf,5K,2\n")
    # a field over the csv module's 131072-character limit, and bytes that are not UTF-8
    (tmp_path / "long.csv").write_text("model,time,steps,gpus\n" + "T" * 140_000 + ",1h,5K,2\n")
    (tmp_path / "latin1.csv").write_bytes("model,time,steps,gpus\ncaf\u00e9,1h,5K,2\n".encode("latin-1"))
    (tmp_path / "header-only.csv").write_text("model,time,steps,gpus,reported_eflops\n")
    (tmp_path / "long.tsv").write_text("text_a\ttext_b\tlabel\n" + "a" * 140_000 + "\tb\t1\n")
    (tmp_path / "latin1.tsv").write_bytes("text_a\ttext_b\tlabel\ncaf\u00e9\tb\t1\n".encode("latin-1"))
    (tmp_path / "latin1.txt").write_bytes("caf\u00e9 au lait\n".encode("latin-1"))
    # dev and eval sets with a label the train set and the head lack, and one with no rows
    unseen_tsv = tmp_path / "unseen.tsv"
    unseen_tsv.write_text("text_a\ttext_b\tlabel\nsome words\trepeat\t7\n")
    (tmp_path / "header-only.tsv").write_text("text_a\ttext_b\tlabel\n")
    (tmp_path / "no-text-b.tsv").write_text("text_a\tlabel\nsome words\t0\nwords repeat\t1\n")
    # model configs with a bad vocabulary size, sequence length or value, and one that is not UTF-8
    valid = "family = decoder-only\nn_layers = 2\nd_layer = 8\nn_heads = 2\nd_head = 4\nvocab_size = 99\n"
    bad_configs = []
    for name, text in (
        ("vocab", valid.replace("vocab_size = 99", "vocab_size = -5")),
        ("seq", valid + "max_seq_len = -4\n"),
        ("depth", valid.replace("n_layers = 2", "n_layers = two")),
    ):
        bad_configs.append(tmp_path / f"{name}.cfg")
        bad_configs[-1].write_text(text)
    bad_configs.append(tmp_path / "latin1.cfg")
    bad_configs[-1].write_bytes(valid.encode("utf-8") + "# caf\u00e9\n".encode("latin-1"))
    pretrain = ["pretrain", "--config", str(CONFIGS / "cpm-x-s.cfg"), "--corpus", str(TOY_CORPUS), "--toy"]
    cases = [
        pretrain + ["--steps", "0"],
        pretrain + ["--steps", "-3"],
        pretrain + ["--steps", "1", "--batch-size", "0"],
        ["finetune", "--checkpoint", str(tmp_path / "model.npz"), "--vocab", str(vocab_path),
         "--train", str(tsv), "--batch-size", "0"],
        ["sweep", "--config", str(CONFIGS / "bert-c.cfg"), "--toy", "--depths", "1,2",
         "--train", str(tsv), "--dev", str(tsv)],
        # an option error is not reported as a failure of the first depth
        ["sweep", "--config", str(CONFIGS / "bert-c.cfg"), "--toy", "--depths", "1,2", "--batch-size", "0"],
        ["sweep", "--config", str(CONFIGS / "bert-c.cfg"), "--toy", "--depths", "1,2", "--budget", "-3"],
        # errors that no depth can avoid are rejected before the first depth runs
        ["sweep", "--config", str(CONFIGS / "cpm-2-x-s.cfg"), "--toy", "--depths", "2,4"],
        ["sweep", "--config", str(CONFIGS / "bert-c.cfg"), "--toy", "--depths=-1,2"],
        ["sweep", "--config", str(CONFIGS / "bert-c.cfg"), "--toy", "--depths", "1,2", "--task-examples", "0"],
        ["sweep", "--config", str(CONFIGS / "bert-c.cfg"), "--toy", "--depths", "1,2", "--task-examples", "-4"],
        ["sweep", "--config", str(CONFIGS / "bert-c.cfg"), "--toy", "--depths", "1,2", "--lr", "-1"],
        ["finetune", "--checkpoint", str(tmp_path / "model.npz"), "--vocab", str(vocab_path),
         "--train", str(tsv), "--steps", "-1"],
        ["cost", "--table", str(tmp_path / "no-steps.csv")],
        ["cost", "--table", str(tmp_path / "short-row.csv")],
        ["cost", "--table", str(tmp_path / "negative.csv")],
        ["cost", "--table", str(tmp_path / "infinite.csv")],
        ["cost", "--table", str(tmp_path / "long.csv")],
        ["cost", "--table", str(tmp_path / "latin1.csv")],
    ]
    # the message names what does not fit
    named = {
        ("finetune", "--checkpoint", str(tmp_path / "model.npz"), "--vocab", str(other_path), "--train", str(tsv)):
            f"{other.size} tokens",
        ("eval", "--checkpoint", str(tmp_path / "tuned.npz"), "--vocab", str(other_path), "--data", str(tsv)):
            f"vocab_size {vocab.size}",
        ("eval", "--checkpoint", str(tmp_path / "tuned.npz"), "--vocab", str(vocab_path), "--data", str(tsv),
         "--positive-label", "yes"): "'yes' is not in the label vocabulary ['0', '1']",
        ("eval", "--checkpoint", str(tmp_path / "tuned3.npz"), "--vocab", str(vocab_path), "--data", str(three_tsv),
         "--positive-label", "a"): "precision, recall and F1 are binary-only",
        ("pretrain", "--config", str(CONFIGS / "cpm-x-s.cfg"), "--corpus", str(tmp_path / "latin1.txt"), "--toy",
         "--steps", "1"): str(tmp_path / "latin1.txt"),
        # rates that are not finite
        **{("sweep", "--config", str(CONFIGS / "bert-c.cfg"), "--toy", "--depths", "1,2", "--lr", rate):
           "learning rate must be finite" for rate in ("inf", "nan")},
        **{("cost", "--peak-rate", rate): "peak_rate must be finite" for rate in ("nan", "inf")},
        # the rate is the report's, so a table with no rows cannot carry a bad one into the manifest
        **{("cost", "--table", str(tmp_path / "header-only.csv"), "--peak-rate", rate):
           "peak_rate must be finite and positive" for rate in ("nan", "inf", "0", "-1")},
        ("sweep", "--config", str(CONFIGS / "bert-c.cfg"), "--toy", "--depths", "1,1"): "runs each depth once",
        # a depth list that is not layer counts is an error of the flag, quoting what was given
        **{("sweep", "--config", str(CONFIGS / "bert-c.cfg"), "--toy", "--depths", depths):
           f"--depths takes comma-separated layer counts >= 0, got {depths!r}" for depths in ("1,,2", "a", "1,-2")},
        # a task file without --train would be ignored by the bundled task
        **{("sweep", "--config", str(CONFIGS / "bert-c.cfg"), "--toy", "--depths", "1,2", flag, str(path)):
           "--train, --dev and --vocab are given together or not at all"
           for flag, path in (("--dev", tsv), ("--vocab", vocab_path))},
        # and so would the bundled task's size beside the task files
        ("sweep", "--config", str(CONFIGS / "bert-c.cfg"), "--toy", "--depths", "1,2", "--train", str(tsv),
         "--dev", str(tsv), "--vocab", str(vocab_path), "--task-examples", "5"):
            "--task-examples sizes the bundled task and is not given with --train, --dev and --vocab",
        # fine-tuning checks its dev set before it trains
        ("finetune", "--checkpoint", str(tmp_path / "model.npz"), "--vocab", str(vocab_path), "--train", str(tsv),
         "--dev", str(unseen_tsv)): f"{unseen_tsv}: label '7' not in label vocabulary ['0', '1']",
        ("finetune", "--checkpoint", str(tmp_path / "model.npz"), "--vocab", str(vocab_path), "--train", str(tsv),
         "--dev", str(tmp_path / "header-only.tsv")): f"{tmp_path / 'header-only.tsv'}: has no examples",
        # and every dataset error starts with its file
        ("finetune", "--checkpoint", str(tmp_path / "model.npz"), "--vocab", str(vocab_path),
         "--train", str(tmp_path / "header-only.tsv")): f"error: {tmp_path / 'header-only.tsv'}: has no examples",
        ("finetune", "--checkpoint", str(tmp_path / "model.npz"), "--vocab", str(vocab_path),
         "--train", str(tmp_path / "no-text-b.tsv")):
            f"error: {tmp_path / 'no-text-b.tsv'}: pair-classifier needs text_b on every example",
        ("sweep", "--config", str(CONFIGS / "bert-c.cfg"), "--toy", "--depths", "1,2", "--train", str(tsv),
         "--dev", str(tmp_path / "header-only.tsv"), "--vocab", str(vocab_path)):
            f"error: {tmp_path / 'header-only.tsv'}: has no examples",
        # a parameter that is not finite
        ("finetune", "--checkpoint", str(tmp_path / "nan.npz"), "--vocab", str(vocab_path), "--train", str(tsv)):
            f"error: {tmp_path / 'nan.npz'}: checkpoint array param:block0.mlp.w_fc holds a NaN",
        # checkpoint and dataset errors name their file
        ("eval", "--checkpoint", str(tmp_path / "tuned.npz"), "--vocab", str(vocab_path), "--data", str(unseen_tsv)):
            f"{unseen_tsv}: label '7'",
        ("sweep", "--config", str(CONFIGS / "bert-c.cfg"), "--toy", "--depths", "1,2", "--train", str(tsv),
         "--dev", str(unseen_tsv), "--vocab", str(vocab_path)): f"{unseen_tsv}: label '7'",
        **{(command, "--checkpoint", str(bad), "--vocab", str(vocab_path), data, str(tsv)): str(bad)
           for bad in bad_checkpoints for command, data in (("eval", "--data"), ("finetune", "--train"))},
    }
    cases += [list(argv) for argv in named]
    for bad in ("long.tsv", "latin1.tsv"):
        cases.append(["sweep", "--config", str(CONFIGS / "bert-c.cfg"), "--toy", "--depths", "1,2",
                      "--train", str(tmp_path / bad), "--dev", str(tsv), "--vocab", str(vocab_path)])
    for bad in bad_configs:
        cases.append(["count-params", "--config", str(bad)])
    for bad in bad_evals:
        cases.append(["eval", "--checkpoint", str(bad), "--vocab", str(vocab_path), "--data", str(tsv)])
    # label vocabularies that are not distinct strings, one per class of the 2-class head, and none at all
    zeros_tsv = tmp_path / "zeros.tsv"
    zeros_tsv.write_text("text_a\ttext_b\tlabel\nsome words\trepeat\t0\nwords repeat\tsome\t0\n")
    for i, label_vocab in enumerate((5, ["0"], None, ["0", "1", "2"], "01", ["0", "0"])):
        save_checkpoint(str(tmp_path / f"labels{i}.npz"), tuned.params, cfg,
                        extra={} if label_vocab is None else {"label_vocab": label_vocab})
        cases.append(["eval", "--checkpoint", str(tmp_path / f"labels{i}.npz"), "--vocab", str(vocab_path),
                      "--data", str(zeros_tsv)])
        if label_vocab is None:
            named[tuple(cases[-1])] = f"{tmp_path / f'labels{i}.npz'} has no label vocabulary"
    for i, argv in enumerate(cases):
        rc = main(argv + ["--out", str(tmp_path / f"run{i}")])
        assert rc == 1, argv
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"stacklm {argv[0]}: error:"), (argv, err)
        assert named.get(tuple(argv), "") in err[0], err
        # a message that names a file names it once
        assert all(err[0].count(arg) <= 1 for arg in argv if arg.startswith(str(tmp_path))), err
        assert not (tmp_path / f"run{i}").exists(), argv


def test_truncated_vocab_exits_1_with_one_line_error(tmp_path, capsys):
    vocab = bpe.train_bpe("some words repeat words repeat some", 60)
    full = tmp_path / "vocab.txt"
    bpe.save_vocab(vocab, str(full))
    raw = full.read_bytes()
    # mid-file at a line boundary (the parser runs out of lines) and mid-line
    for name, length in (("lines", raw.index(b"merges")), ("cut", len(raw) - 3)):
        path = tmp_path / f"{name}.txt"
        path.write_bytes(raw[:length])
        rc = main([
            "pretrain", "--config", str(CONFIGS / "cpm-x-s.cfg"), "--corpus", str(TOY_CORPUS),
            "--toy", "--steps", "1", "--vocab", str(path), "--out", str(tmp_path / f"run-{name}"),
        ])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("stacklm pretrain: error:"), err


FILE_OPTION_RUNS = [
    (["tokenize-train", "--vocab-size", "300"], {"corpus": "corpus"}),
    (["pretrain", "--toy", "--steps", "1"], {"config": "config", "corpus": "corpus", "vocab": "vocab"}),
    (["finetune", "--steps", "1"], {"checkpoint": "model", "vocab": "vocab", "train": "train", "dev": "dev"}),
    (["eval"], {"checkpoint": "tuned", "vocab": "vocab", "data": "dev"}),
    (["sweep", "--toy", "--depths", "1,2", "--budget", "1"],
     {"config": "config", "train": "train", "dev": "dev", "vocab": "vocab"}),
    (["cost"], {"table": "table"}),
    (["count-params"], {"config": "config"}),
]


@pytest.mark.parametrize("argv, file_options", FILE_OPTION_RUNS, ids=[argv[0] for argv, _ in FILE_OPTION_RUNS])
def test_manifest_hashes_every_file_option(argv, file_options, tmp_path, write_tsv):
    vocab = bpe.train_bpe("some words repeat words repeat some", 60)
    cfg = ModelConfig("encoder-only", 1, d_layer=16, n_heads=2, d_head=8, vocab_size=vocab.size, max_seq_len=32)
    task = make_synthetic_pair_task(8, seed=0)
    tuned = finetune(build_model(cfg, seed=0), cfg, vocab, task, "pair-classifier", FinetuneSettings(max_steps=0))
    files = {"corpus": TOY_CORPUS, "config": CONFIGS / "bert-c.cfg", **{
        name: tmp_path / name for name in ("vocab", "model", "tuned", "train", "dev", "table")}}
    bpe.save_vocab(vocab, str(files["vocab"]))
    save_checkpoint(str(files["model"]), build_model(cfg, seed=0), cfg)
    save_checkpoint(str(files["tuned"]), tuned.params, cfg, extra={"label_vocab": tuned.label_vocab})
    write_tsv(task, str(files["train"]))
    write_tsv(make_synthetic_pair_task(8, seed=0, split="dev"), str(files["dev"]))
    files["table"].write_text("model,time,steps,gpus,reported_eflops\nTINY,1h,1K,1,1.12\n")
    for option, name in file_options.items():
        argv = argv + [f"--{option}", str(files[name])]
    assert main(argv + ["--out", str(tmp_path / "run")]) == 0
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert manifest["input_hashes"] == {
        option: f"sha256:{hashlib.sha256(files[name].read_bytes()).hexdigest()}" for option, name in file_options.items()
    }


def test_count_params_reference_value(tmp_path, capsys):
    rc = main([
        "count-params", "--config", str(CONFIGS / "cpm-x-l.cfg"), "--out", str(tmp_path / "run"),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "10150016000" in out  # approx 1.015e10
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert manifest["command"] == "count-params"
    assert manifest["options"]["count"] == 10150016000


def test_all_shipped_configs_validate(tmp_path):
    cfgs = sorted(CONFIGS.glob("*.cfg"))
    assert len(cfgs) == 20
    for cfg in cfgs:
        rc = main(["count-params", "--config", str(cfg), "--out", str(tmp_path / cfg.stem)])
        assert rc == 0, cfg


def test_cost_report_runs_exit_0(tmp_path, capsys):
    rc = main(["cost", "--out", str(tmp_path / "run")])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("model")
    assert "CPM-X-L" in out and "215.7" in out
    assert (tmp_path / "run" / "cost_report.csv").exists()
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert manifest["options"]["table"] == "<bundled>"


def test_cost_with_external_table(tmp_path, capsys):
    table = tmp_path / "table.csv"
    table.write_text("model,time,steps,gpus,reported_eflops\nTINY,1h,1K,1,1.12\n")
    rc = main(["cost", "--table", str(table), "--out", str(tmp_path / "run")])
    assert rc == 0
    assert "TINY" in capsys.readouterr().out


def test_tokenize_train_writes_vocab_and_cache(tmp_path):
    # no token cache: the run directory holds only the vocabulary and the manifest
    out = tmp_path / "run"
    rc = main([
        "tokenize-train", "--corpus", str(TOY_CORPUS), "--vocab-size", "400", "--out", str(out),
    ])
    assert rc == 0
    vocab = bpe.load_vocab(str(out / "vocab.txt"))
    assert vocab.size <= 400
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "vocab.txt"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["input_hashes"]["corpus"].startswith("sha256:")


@pytest.fixture(scope="module")
def pretrain_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("pretrain")
    rc = main([
        "pretrain", "--config", str(CONFIGS / "cpm-x-s.cfg"), "--corpus", str(TOY_CORPUS),
        "--toy", "--steps", "40", "--out", str(out), "--seed", "3",
    ])
    assert rc == 0
    return out


def test_pretrain_artifacts(pretrain_run):
    metrics = [json.loads(line) for line in (pretrain_run / "metrics.jsonl").read_text().splitlines()]
    assert len(metrics) == 40
    assert metrics[0]["step"] == 0
    assert sorted(path.name for path in pretrain_run.iterdir()) == [
        "manifest.json", "metrics.jsonl", "model.npz", "vocab.txt",
    ]
    engine = load_engine_checkpoint(str(pretrain_run / "model.npz"))
    assert engine.step == 40
    assert engine.optimizer.m_flat.any() and engine.optimizer.v_flat.any()
    manifest = json.loads((pretrain_run / "manifest.json").read_text())
    assert manifest["seed"] == 3
    assert manifest["options"]["resolved_model_config"]["n_layers"] == 2  # toy profile cap


def test_pretrain_on_shard_workers_records_runtime_and_reproduces_one_process(tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    runs = {}
    for cores in (1, 2):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cores=cores: set(range(cores)))
        out = tmp_path / str(cores)
        rc = main([
            "pretrain", "--config", str(CONFIGS / "bert-c.cfg"), "--corpus", str(TOY_CORPUS),
            "--toy", "--steps", "3", "--shards", "2", "--out", str(out),
        ])
        assert rc == 0
        runtime = json.loads((out / "manifest.json").read_text())["runtime"]
        assert (runtime["shard_processes"], runtime["blas_threads"]) == (cores, 1)
        runs[cores] = out
    if platform.libc_ver()[0] == "glibc":
        assert runtime["malloc"] == {"M_MMAP_THRESHOLD": 32 * 2**20, "M_TRIM_THRESHOLD": 2**30}
    assert (runs[1] / "metrics.jsonl").read_bytes() == (runs[2] / "metrics.jsonl").read_bytes()
    with np.load(runs[1] / "model.npz") as one, np.load(runs[2] / "model.npz") as two:
        assert one.files == two.files
        for name in one.files:
            assert np.array_equal(one[name], two[name]), name


def test_pretrain_rerun_reproduces_metrics(pretrain_run, tmp_path):
    out2 = tmp_path / "again"
    rc = main([
        "pretrain", "--config", str(CONFIGS / "cpm-x-s.cfg"), "--corpus", str(TOY_CORPUS),
        "--toy", "--steps", "40", "--out", str(out2), "--seed", "3",
    ])
    assert rc == 0
    a = (pretrain_run / "metrics.jsonl").read_text()
    b = (out2 / "metrics.jsonl").read_text()
    assert a == b


def test_finetune_eval_round_trip(tmp_path, write_tsv):
    # encoder pretrain (tiny), then finetune on a synthetic TSV, then eval
    pre_out = tmp_path / "pre"
    rc = main([
        "pretrain", "--config", str(CONFIGS / "bert-c.cfg"), "--corpus", str(TOY_CORPUS),
        "--toy", "--steps", "5", "--out", str(pre_out), "--seed", "0",
    ])
    assert rc == 0

    vocab_path = pre_out / "vocab.txt"
    train_tsv = tmp_path / "train.tsv"
    dev_tsv = tmp_path / "dev.tsv"
    write_tsv(make_synthetic_pair_task(24, seed=0), str(train_tsv))
    write_tsv(make_synthetic_pair_task(12, seed=0, split="dev"), str(dev_tsv))

    ft_out = tmp_path / "ft"
    rc = main([
        "finetune", "--checkpoint", str(pre_out / "model.npz"), "--vocab", str(vocab_path),
        "--train", str(train_tsv), "--dev", str(dev_tsv), "--steps", "4",
        "--batch-size", "8", "--out", str(ft_out),
    ])
    assert rc == 0
    assert (ft_out / "finetuned.npz").exists()
    assert json.loads((ft_out / "metrics.json").read_text())["accuracy"] >= 0.0

    ev_out = tmp_path / "ev"
    rc = main([
        "eval", "--checkpoint", str(ft_out / "finetuned.npz"), "--vocab", str(vocab_path),
        "--data", str(dev_tsv), "--out", str(ev_out),
    ])
    assert rc == 0
    payload = json.loads((ev_out / "metrics.json").read_text())
    assert 0.0 <= payload["accuracy"] <= 1.0
    assert payload["confusion"]

    # an option that changes the metrics is in the manifest
    rc = main([
        "eval", "--checkpoint", str(ft_out / "finetuned.npz"), "--vocab", str(vocab_path),
        "--data", str(dev_tsv), "--positive-label", "0", "--out", str(tmp_path / "ev0"),
    ])
    assert rc == 0
    options = [json.loads((d / "manifest.json").read_text())["options"] for d in (ev_out, tmp_path / "ev0")]
    assert [o["positive_label"] for o in options] == [None, "0"]


def test_sweep_bundled_task(tmp_path, capsys):
    out = tmp_path / "run"
    rc = main([
        "sweep", "--config", str(CONFIGS / "bert-c.cfg"), "--toy", "--depths", "1,2",
        "--budget", "4", "--task-examples", "16", "--out", str(out),
    ])
    assert rc == 0
    text = (out / "sweep.csv").read_text()
    lines = text.strip().splitlines()
    assert lines[0] == "model,depth,precision,recall,f1,acc"
    assert len(lines) == 3
    assert "best depth" in capsys.readouterr().out


def test_sweep_manifest_records_every_option(tmp_path):
    options = []
    # the manifest records the bundled task's size that the run used, also the default one
    for i, examples in enumerate((["--task-examples", "16"], [])):
        out = tmp_path / str(i)
        rc = main([
            "sweep", "--config", str(CONFIGS / "bert-c.cfg"), "--toy", "--depths", "1,2",
            "--budget", "1", *examples, "--out", str(out),
        ])
        assert rc == 0
        options.append(json.loads((out / "manifest.json").read_text())["options"])
    assert options[0]["task_examples"] == 16 and options[1]["task_examples"] == 64
    assert options[0]["settings"] == options[1]["settings"]


def test_sweep_abort_dumps_partial_and_exits_nonzero(tmp_path, capsys, monkeypatch):
    failing_build_at_depth(monkeypatch, 3)
    out = tmp_path / "run"
    rc = main([
        "sweep", "--config", str(CONFIGS / "bert-c.cfg"), "--toy", "--depths", "1,3,2",
        "--budget", "2", "--task-examples", "8", "--out", str(out),
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert "aborted" in err
    partial = (out / "sweep_partial.csv").read_text().strip().splitlines()
    assert partial[0] == "model,depth,precision,recall,f1,acc"
    assert len(partial) == 2  # only depth 1 finished


def test_out_root_env_variable(tmp_path, monkeypatch):
    monkeypatch.setenv("STACKLM_OUT_ROOT", str(tmp_path / "root"))
    rc = main(["count-params", "--config", str(CONFIGS / "bert-c.cfg")])
    assert rc == 0
    assert (tmp_path / "root" / "count-params" / "manifest.json").exists()


def test_console_entry_point_runs(tmp_path):
    src = str(Path(stacklm.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "stacklm.cli", "count-params", "--config", str(CONFIGS / "bert-c.cfg"),
         "--out", str(tmp_path / "run")],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert "parameters" in proc.stdout


def test_import_needs_only_numpy():
    """Importing the package loads nothing outside the standard library,
    numpy and stacklm, and numpy is the only declared runtime dependency."""
    code = (
        "import sys; before = set(sys.modules); import stacklm.cli, stacklm.objectives; "
        "print(' '.join(sorted({m.split('.')[0] for m in set(sys.modules) - before})))"
    )
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    loaded = set(proc.stdout.split())
    assert "stacklm" in loaded and "numpy" in loaded
    assert loaded - set(sys.stdlib_module_names) - {"numpy", "stacklm"} == set()
    with open(REPO / "pyproject.toml", "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    assert [re.match(r"[A-Za-z0-9_.-]+", d).group(0) for d in deps] == ["numpy"]
