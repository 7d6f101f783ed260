"""Outside-in span tracing of stacklm's public functions.

The tracer patches module attributes and class methods of stacklm from the
benchmark's own process, so nothing under ``src/`` changes.  Every wrapped
call records one span (name, start, end, parent, step id) in memory; the
spans are aggregated into per-layer metrics and written out when the
benchmark ends.  ``uninstall`` restores every original attribute.

Span names:

* ``op.<prim>.fwd``: a call of the ``stacklm.tensor`` primitive ``<prim>``.
* ``op.<prim>.bwd``: the backward closure that primitive put on the tape
  (``Tape.record`` is wrapped to wrap the closure).
* ``tensor.backward``: ``Tape.backward``; its self time is gradient
  accumulation plus the node walk.
* ``tensor.dropout_mask``: ``DropoutRng.keep_mask``.
* ``model.forward``: ``forward`` as the engine and the fine-tune loss call it.
* ``objectives.loss``: ``lm_loss``, ``mlm_loss``, ``sop_loss``, ``seq2seq_loss``.
* ``optim.unscale`` / ``optim.clip`` / ``optim.adam``: ``loss_scaler_step``,
  ``clip_global_norm`` and ``adam_step`` as the engine calls them.
* ``engine.step``: ``TrainEngine.train_step`` / ``data_parallel_step``.
* ``data.batch``: the benchmark's own call of a batch function.
* ``step``: the root of one training step; all spans inside share its id.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter

PRIMS = (
    "matmul", "add", "mul", "scale", "transpose", "reshape", "narrow", "select", "sum_all",
    "gelu", "tanh", "softmax", "layer_norm", "embedding_lookup", "dropout",
    "softmax_cross_entropy", "checkpoint",
)

LOSS_FUNCTIONS = ("lm_loss", "mlm_loss", "sop_loss", "seq2seq_loss")

OPTIM_SPANS = {"loss_scaler_step": "optim.unscale", "clip_global_norm": "optim.clip", "adam_step": "optim.adam"}


class Tracer:
    """In-memory span store plus the patches that feed it."""

    def __init__(self, param_dtype):
        self.param_dtype = param_dtype
        self.name: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.step: list[int] = []
        self.counts: Counter[str] = Counter()
        self.n_steps = 0
        self._open: list[int] = []
        self._prims: list[str] = []
        self._step_id = -1
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _begin(self, name: str) -> int:
        index = len(self.name)
        self.name.append(name)
        self.parent.append(self._open[-1] if self._open else -1)
        self.step.append(self._step_id)
        self.end.append(0.0)
        self._open.append(index)
        self.start.append(time.perf_counter())
        return index

    def _finish(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self._begin(name)
        try:
            yield
        finally:
            self._finish(index)

    @contextlib.contextmanager
    def training_step(self):
        """Root span of one step; a step already open is reused."""
        if self._step_id >= 0:
            yield
            return
        self._step_id = self.n_steps
        self.n_steps += 1
        try:
            with self.span("step"):
                yield
        finally:
            self._step_id = -1

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._finish(index)

        return traced

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        import stacklm.engine as engine_mod
        import stacklm.evaluation as evaluation_mod
        import stacklm.objectives as objectives_mod
        import stacklm.tensor as tensor_mod

        for prim in PRIMS:
            self._patch(tensor_mod, prim, self._traced_prim(prim, getattr(tensor_mod, prim)))

        tracer = self
        record = tensor_mod.Tape.record

        def traced_record(tape, inputs, output, backward_fn):
            tracer.counts["tape_nodes"] += tracer._step_id >= 0
            prim = tracer._prims[-1] if tracer._prims else "unknown"
            return record(tape, inputs, output, tracer._wrap(f"op.{prim}.bwd", backward_fn))

        self._patch(tensor_mod.Tape, "record", traced_record)
        self._patch(tensor_mod.Tape, "backward", self._wrap("tensor.backward", tensor_mod.Tape.backward))
        self._patch(tensor_mod.DropoutRng, "keep_mask", self._wrap("tensor.dropout_mask", tensor_mod.DropoutRng.keep_mask))
        self._patch(engine_mod, "forward", self._wrap("model.forward", engine_mod.forward))
        self._patch(evaluation_mod, "forward", self._wrap("model.forward", evaluation_mod.forward))
        for fn_name in LOSS_FUNCTIONS:
            self._patch(objectives_mod, fn_name, self._wrap("objectives.loss", getattr(objectives_mod, fn_name)))
        for fn_name, span_name in OPTIM_SPANS.items():
            self._patch(engine_mod, fn_name, self._wrap(span_name, getattr(engine_mod, fn_name)))
        for method in ("train_step", "data_parallel_step"):
            self._patch(engine_mod.TrainEngine, method, self._traced_step(getattr(engine_mod.TrainEngine, method)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _traced_prim(self, prim: str, fn):
        name = f"op.{prim}.fwd"
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer._begin(name)
            tracer._prims.append(prim)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._prims.pop()
                tracer._finish(index)
            if tracer._step_id >= 0:
                tracer.counts["prim_outputs"] += 1
                tracer.counts["off_dtype_outputs"] += out.dtype != tracer.param_dtype
            return out

        return traced

    def _traced_step(self, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with tracer.training_step(), tracer.span("engine.step"):
                return fn(*args, **kwargs)

        return traced

    # -- results -----------------------------------------------------------

    def self_times(self) -> Counter[str]:
        """Summed self time (s) per span name, over spans inside a step."""
        covered = [0.0] * len(self.name)
        for index, parent in enumerate(self.parent):
            if parent >= 0:
                covered[parent] += self.end[index] - self.start[index]
        totals: Counter[str] = Counter()
        for index, name in enumerate(self.name):
            if self.step[index] >= 0:
                totals[name] += self.end[index] - self.start[index] - covered[index]
        return totals

    def span_counts(self) -> Counter[str]:
        """Number of spans per name, over spans inside a step."""
        return Counter(name for name, step in zip(self.name, self.step) if step >= 0)

    def forward_passes_per_step(self) -> list[int]:
        passes = [0] * self.n_steps
        for name, step in zip(self.name, self.step):
            if step >= 0 and name == "model.forward":
                passes[step] += 1
        return passes

    def write(self, path: str) -> None:
        """One span per line: id, parent, step, name, start and end in µs."""
        origin = self.start[0] if self.start else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,step,name,start_us,end_us\n")
            for index, name in enumerate(self.name):
                fh.write(
                    f"{index},{self.parent[index]},{self.step[index]},{name},"
                    f"{(self.start[index] - origin) * 1e6:.1f},{(self.end[index] - origin) * 1e6:.1f}\n"
                )
