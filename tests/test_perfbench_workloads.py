"""The benchmark's workload entry points still run against ``src/``.

``perfbench/workloads.py`` builds and drives stacklm through its public
names, and its ``probe`` replaces ``TrainEngine`` step methods and
``stacklm.evaluation`` functions by name.  A change under ``src/`` that
breaks one of them fails here rather than only in a benchmark run.
"""

import importlib.util
import math
import sys
from pathlib import Path

import pytest

import stacklm.evaluation as evaluation_mod
from stacklm.engine import TrainEngine

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ROOT / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_probed_names_exist(workloads):
    for name in workloads.ENGINE_STEPS:
        assert name in TrainEngine.__dict__, name
    for name in ("finetune", "evaluate"):
        assert callable(getattr(evaluation_mod, name, None)), name


@pytest.mark.parametrize("name", ["mlm-pretrain-dp2", "depth-sweep"])
def test_workload_sets_up_and_runs(workloads, name):
    workload = workloads.WORKLOADS[name]
    state, _ = workload.setup(ROOT, seed=7)
    workload.short_run(state)


@pytest.mark.parametrize("name", ["lm-pretrain", "mlm-pretrain-dp2", "seq2seq-pretrain-recompute"])
def test_pretraining_eval_objective_runs(workloads, name):
    workload = workloads.WORKLOADS[name]
    state, _ = workload.setup(ROOT, seed=7)
    loss = workload._eval_loss(workload._engine(state), state.batch_fn(0))
    assert math.isfinite(loss)
