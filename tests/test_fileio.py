import numpy as np
import pytest

from stacklm.cli import RunDirectory
from stacklm.fileio import atomic_write
from stacklm.model import ModelConfig, build_model, load_checkpoint, save_checkpoint


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
