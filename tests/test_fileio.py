from pathlib import Path

import numpy as np
import pytest

from stacklm import bpe, cli
from stacklm.cli import RunDirectory, main
from stacklm.evaluation import SweepError, make_synthetic_pair_task
from stacklm.fileio import atomic_write
from stacklm.model import ModelConfig, build_model, load_checkpoint, save_checkpoint

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _only(directory, name):
    assert sorted(p.name for p in directory.iterdir()) == [name]


def test_atomic_write_replaces_on_success_and_keeps_previous_on_error(tmp_path):
    path = tmp_path / "out.txt"
    path.write_bytes(b"previous\n")
    with pytest.raises(RuntimeError, match="mid-write"):
        with atomic_write(str(path)) as fh:
            fh.write("partial")
            fh.flush()
            raise RuntimeError("mid-write")
    assert path.read_bytes() == b"previous\n"
    _only(tmp_path, "out.txt")
    with atomic_write(str(path)) as fh:
        fh.write("café\n")
    assert path.read_bytes() == "café\n".encode("utf-8")
    _only(tmp_path, "out.txt")


def test_checkpoint_write_failing_midway_keeps_previous_file(tmp_path, monkeypatch):
    cfg = ModelConfig("decoder-only", 1, d_layer=8, n_heads=2, d_head=4, vocab_size=11, max_seq_len=8)
    path = tmp_path / "model.npz"
    save_checkpoint(str(path), build_model(cfg, seed=0), cfg, extra={"step": 1})
    before = path.read_bytes()

    def savez_then_fail(fh, **arrays):
        fh.write(b"PK\x03\x04 partial archive")
        raise OSError("disk full")

    monkeypatch.setattr(np, "savez", savez_then_fail)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(str(path), build_model(cfg, seed=1), cfg, extra={"step": 2})
    assert path.read_bytes() == before
    _only(tmp_path, "model.npz")
    monkeypatch.undo()
    assert load_checkpoint(str(path))[2] == {"step": 1}


def test_manifest_write_failing_midway_keeps_previous_file(tmp_path):
    run = RunDirectory("cost", str(tmp_path))
    run.finalize(seed=3)
    manifest = (tmp_path / "manifest.json").read_bytes()
    run.options = {"ok": 1, "zz_unserializable": object()}  # json.dump fails after writing a prefix
    with pytest.raises(TypeError):
        run.finalize(seed=3)
    assert (tmp_path / "manifest.json").read_bytes() == manifest
    _only(tmp_path, "manifest.json")


def _no_temp_files(directory):
    assert not [p.name for p in directory.iterdir() if p.name.endswith(".tmp")]


def test_finetune_metrics_write_failing_midway_keeps_previous_file(tmp_path, monkeypatch, write_tsv):
    vocab = bpe.train_bpe("some words repeat words repeat some", 60)
    bpe.save_vocab(vocab, str(tmp_path / "vocab.txt"))
    cfg = ModelConfig("encoder-only", 1, d_layer=8, n_heads=2, d_head=4, vocab_size=vocab.size, max_seq_len=32)
    save_checkpoint(str(tmp_path / "model.npz"), build_model(cfg, seed=0), cfg)
    write_tsv(make_synthetic_pair_task(4, seed=0), str(tmp_path / "train.tsv"))
    out = tmp_path / "run"
    out.mkdir()
    (out / "metrics.jsonl").write_bytes(b"previous\n")

    def write_then_fail(stream, metrics):
        stream.write(metrics.to_json()[:5])
        raise OSError("disk full")

    monkeypatch.setattr(cli, "write_metrics", write_then_fail)
    rc = main(["finetune", "--checkpoint", str(tmp_path / "model.npz"), "--vocab", str(tmp_path / "vocab.txt"),
               "--train", str(tmp_path / "train.tsv"), "--steps", "1", "--batch-size", "4", "--out", str(out)])
    assert rc == 1
    assert (out / "metrics.jsonl").read_bytes() == b"previous\n"
    _no_temp_files(out)


def test_partial_sweep_write_failing_midway_keeps_previous_file(tmp_path, monkeypatch):
    out = tmp_path / "run"
    out.mkdir()
    (out / "sweep_partial.csv").write_bytes(b"previous\n")

    def abort(*args, **kwargs):
        raise SweepError("depth 2 failed: boom", [])

    def render_fails(*args):
        raise OSError("disk full")

    monkeypatch.setattr(cli, "depth_sweep", abort)
    monkeypatch.setattr(cli, "render_sweep_csv", render_fails)
    rc = main(["sweep", "--config", str(CONFIGS / "bert-c.cfg"), "--toy", "--depths", "1,2", "--out", str(out)])
    assert rc == 1
    assert (out / "sweep_partial.csv").read_bytes() == b"previous\n"
    _no_temp_files(out)
