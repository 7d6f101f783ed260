"""Shards on forked workers: bit-identical to the one-process loop, and no worker outlives its owner.

The tests make the engine see two usable cores at one BLAS thread (the
digest test also one core, and three), so a multi-shard step runs on the
parent and one worker (two in the digest test's three-core split).
"""

import gc
import hashlib
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from stacklm import objectives
from stacklm import tensor as T
from stacklm.data import DataError
from stacklm.engine import shard_processes, train_loop
from stacklm.model import ConfigError
from test_engine import family_batches, lm_batches, model_and_engine

try:
    from numpy._core._exceptions import _ArrayMemoryError
except ImportError:  # numpy < 2
    from numpy.core._exceptions import _ArrayMemoryError

SRC = Path(__file__).resolve().parent.parent / "src"
# shards fork only where the engine can read the usable cores
pytestmark = pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="shard workers run on Linux only")


def use_cores(monkeypatch, cores):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")


@pytest.fixture
def two_processes(monkeypatch):
    use_cores(monkeypatch, 2)
    assert shard_processes(2) == shard_processes(4) == 2
    assert shard_processes(1) == 1


def run_digest(family, n_shards, batch_size, recompute, expect_workers):
    _, params, engine = model_and_engine(family=family, seed=5, recompute=recompute)
    history = train_loop(engine, family_batches(family, batch_size=batch_size), 3, n_shards=n_shards)
    assert len(multiprocessing.active_children()) == expect_workers
    digest = hashlib.sha256()
    for metrics in history:
        digest.update(metrics.to_json().encode())
    m, v = params.views(engine.optimizer.m_flat), params.views(engine.optimizer.v_flat)
    for name, t in params.items():
        for array in (t.data, m[name], v[name]):
            digest.update(array.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("family", ["decoder-only", "encoder-only", "encoder-decoder"])
def test_worker_steps_are_bit_identical_to_one_process(family, monkeypatch):
    # (shards, batch rows, cores, workers): equal blocks on two processes; then the parent runs
    # shard 0 and one worker shards 1-2; then blocks of 1, 1 and 2 shards on three processes
    splits = [(2, 8, 2, 1), (4, 8, 2, 1), (3, 6, 2, 1), (4, 8, 3, 2)]
    alone, forked = [], []
    for n_shards, batch_size, cores, workers in splits:
        for recompute in (False, True):
            use_cores(monkeypatch, 1)
            alone.append(run_digest(family, n_shards, batch_size, recompute, expect_workers=0))
            use_cores(monkeypatch, cores)
            assert shard_processes(n_shards) == workers + 1
            forked.append(run_digest(family, n_shards, batch_size, recompute, expect_workers=workers))
    assert forked == alone


class ShardFailure(Exception):
    pass


def test_worker_error_reaches_parent_and_closes_workers(two_processes, monkeypatch):
    parent = os.getpid()
    loss = objectives.loss

    def failing_in_worker(out, shard, batch):
        if os.getpid() != parent:
            raise ShardFailure(f"bad shard {shard.example_ids.tolist()}")
        return loss(out, shard, batch)

    monkeypatch.setattr(objectives, "loss", failing_in_worker)
    _, _, engine = model_and_engine()
    batch = lm_batches()(0)
    with pytest.raises(ShardFailure, match=r"^bad shard \[2, 3\]$"):
        engine.data_parallel_step(batch, 2)
    assert multiprocessing.active_children() == []
    assert engine.step == 0

    # an exception whose constructor takes other arguments than its message arrives as itself
    def out_of_memory_in_worker(out, shard, batch):
        if os.getpid() != parent:
            raise _ArrayMemoryError((1 << 20, 1 << 20), np.dtype(np.float64))
        return loss(out, shard, batch)

    monkeypatch.setattr(objectives, "loss", out_of_memory_in_worker)
    with pytest.raises(MemoryError, match=r"^Unable to allocate 8\.00 TiB for an array with shape"):
        engine.data_parallel_step(batch, 2)
    assert multiprocessing.active_children() == []

    # one that cannot be pickled arrives as a RuntimeError naming its type
    class LocalFailure(Exception):
        pass

    def unpicklable_in_worker(out, shard, batch):
        if os.getpid() != parent:
            raise LocalFailure(f"bad shard {shard.example_ids.tolist()}")
        return loss(out, shard, batch)

    monkeypatch.setattr(objectives, "loss", unpicklable_in_worker)
    with pytest.raises(RuntimeError, match=r"^LocalFailure: bad shard \[2, 3\]$"):
        engine.data_parallel_step(batch, 2)
    assert multiprocessing.active_children() == []
    assert engine.step == 0

    # the next step forks afresh, from the module state it then finds
    monkeypatch.setattr(objectives, "loss", loss)
    engine.data_parallel_step(batch, 2)
    assert engine.step == 1

    # no decoder block reads a depth-0 encoder's output, so its final norm gets no gradient;
    # the parent's loss reads it at weight 0, so the error can only come from the worker
    _, params, engine = model_and_engine(family="encoder-decoder", n_layers=0)
    unused = [params["enc_final.gain"], params["enc_final.bias"]]

    def reaching_all_in_parent(out, shard, batch):
        value = loss(out, shard, batch)
        if os.getpid() == parent:
            value = T.add(value, T.scale(T.add(*(T.sum_all(t) for t in unused)), 0.0))
        return value

    monkeypatch.setattr(objectives, "loss", reaching_all_in_parent)
    with pytest.raises(ConfigError, match=r"does not reach parameters enc_final\.gain, enc_final\.bias$"):
        engine.data_parallel_step(family_batches("encoder-decoder")(0), 2)
    assert multiprocessing.active_children() == []
    assert engine.step == 0


def test_no_worker_outlives_its_engine(two_processes):
    _, _, engine = model_and_engine()
    engine.data_parallel_step(lm_batches()(0), 2)
    (worker,) = multiprocessing.active_children()
    del engine
    gc.collect()
    assert multiprocessing.active_children() == []
    with pytest.raises(ProcessLookupError):
        os.kill(worker.pid, 0)


def test_worker_collecting_a_copied_engine_leaves_its_workers_alone(two_processes, monkeypatch, capfd):
    # a worker's memory holds a copy of every engine the parent had at the fork;
    # collecting one there must not try to close workers that are not its own
    parent = os.getpid()
    loss = objectives.loss

    def collecting_in_worker(out, shard, batch):
        if os.getpid() != parent:
            gc.collect()
        return loss(out, shard, batch)

    # report a failing finalizer on stderr, where the worker's output goes
    monkeypatch.setattr(sys, "unraisablehook", sys.__unraisablehook__)
    gc.disable()
    try:
        _, _, older = model_and_engine()
        older.data_parallel_step(lm_batches()(0), 2)
        older.cycle = older  # garbage only the cyclic collector frees
        del older
        monkeypatch.setattr(objectives, "loss", collecting_in_worker)
        _, _, engine = model_and_engine()
        engine.data_parallel_step(lm_batches()(0), 2)
        del engine
    finally:
        gc.enable()
    gc.collect()
    assert multiprocessing.active_children() == []
    assert "Exception ignored" not in capfd.readouterr().err


def test_bad_shard_count_starts_no_process(two_processes):
    assert shard_processes(3) == 2
    _, _, engine = model_and_engine()
    with pytest.raises(DataError):
        engine.data_parallel_step(lm_batches()(0), 3)  # batch of 4
    assert multiprocessing.active_children() == []


CHILD = """
import multiprocessing, os, sys
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.sched_getaffinity = lambda pid: {0, 1}
sys.path.insert(0, sys.argv[1])
from test_engine import lm_batches, model_and_engine
_, _, engine = model_and_engine()
batch = lm_batches()(0)
engine.data_parallel_step(batch, 2)
(worker,) = multiprocessing.active_children()
print(worker.pid, flush=True)
while True:
    engine.data_parallel_step(batch, 2)
"""


def gone(pid):
    """No such process, or one that exited and waits for its new parent to reap it."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] in ("Z", "X")
    except OSError:
        return True


def test_killed_parent_leaves_no_worker():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    child = subprocess.Popen(
        [sys.executable, "-c", CHILD, str(Path(__file__).resolve().parent)], env=env, stdout=subprocess.PIPE, text=True
    )
    worker = None
    try:
        worker = int(child.stdout.readline())
        child.send_signal(signal.SIGKILL)
        child.wait(timeout=10)
        deadline = time.monotonic() + 5.0
        while not gone(worker) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert gone(worker)
    finally:
        child.kill()
        child.wait(timeout=10)
        child.stdout.close()
        if worker is not None and not gone(worker):
            os.kill(worker, signal.SIGKILL)
