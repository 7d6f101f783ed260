"""stacklm training benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from anywhere inside a stacklm checkout; the program is imported from
``src/``.  One invocation runs one workload in this process (``all`` runs
each workload in a fresh child process, one after another).  The run prints
every metric with its unit, then, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  It
exits 1 when a correctness gate fails and 2 when the checkout is not a
stacklm checkout.  Details go to ``perfbench/out/``.

``--trace 0`` measures with nothing wrapped.  ``--trace 1`` alternates
untraced episodes with episodes in which stacklm's public functions are
wrapped (``tracing.py``); both kinds must give bit-identical losses, and
the ratio of their median step times is the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One client process with a fixed BLAS thread count; main() sets it before
# anything loads numpy, and child processes inherit it.
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# glibc malloc settings, fixed like the BLAS threads.  With the defaults,
# numpy's temporaries above 128 KiB are mmap'd and unmapped on every op, so a
# step pays tens of thousands of page faults, whose cost follows the load on
# the shared host rather than the program.  glibc reads these only when a
# process starts, so main() re-executes itself once with them set.
MALLOC_SETTINGS = {"MALLOC_MMAP_THRESHOLD_": "33554432", "MALLOC_TRIM_THRESHOLD_": "1073741824"}

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOAD_NAMES = ("lm-pretrain", "mlm-pretrain-dp2", "seq2seq-pretrain-recompute", "depth-sweep")
REQUIRED_FILES = (
    "src/stacklm/__init__.py",
    "data/toy_corpus.txt",
    "configs/cpm-x-l.cfg",
    "configs/bert-c.cfg",
    "configs/cpm-2-x-s.cfg",
)
SETUP_REPEATS = 7
IMPORT_PROBES = 5
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import stacklm.cli, stacklm.objectives; "
    "print(time.perf_counter() - t)"
)

E2E_UNITS = {
    "setup_s": "s",
    "tokens_per_s": "1/s",
    "step_ms.p50": "ms",
    "step_ms.tail": "ms",
    "wall_s": "s",
    "eval_examples_per_s": "1/s",
    "loss_final": "nats",
    "peak_rss_mb": "MB",
}


def layer_units() -> dict[str, str]:
    from tracing import PRIMS

    units = {
        "setup.import_ms": "ms",
        "bpe.train_ms": "ms",
        "bpe.encode_ms": "ms",
        "data.pack_ms": "ms",
        "model.build_ms": "ms",
        "data.batch_ms": "ms",
        "model.forward_ms": "ms",
        "objectives.loss_ms": "ms",
        "tensor.backward_ms": "ms",
        "tensor.tape_nodes": "count",
        "tensor.dropout_mask_ms": "ms",
        "tensor.dropout_mask_calls": "count",
        "tensor.off_dtype_ratio": "ratio",
    }
    for prim in PRIMS:
        units.update({f"op.{prim}.fwd_ms": "ms", f"op.{prim}.bwd_ms": "ms", f"op.{prim}.calls": "count"})
    units.update(
        {
            "optim.unscale_ms": "ms",
            "optim.clip_ms": "ms",
            "optim.adam_ms": "ms",
            "optim.skipped_steps": "count",
            "engine.self_ms": "ms",
            "engine.shard_passes": "count",
            "engine.reduce_bytes": "bytes",
            "mem.step_peak_mb": "MB",
            "evaluation.finetune_ms": "ms",
            "evaluation.predict_ms": "ms",
            "trace.overhead_ratio": "ratio",
        }
    )
    return units


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas_build(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        return "unknown"
    return blas.get("openblas configuration") or f"{blas.get('name')} {blas.get('version')}"


def _git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy as np

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_build": _blas_build(np),
        "blas_threads": BLAS_THREADS,
        "malloc": {var: os.environ.get(var) for var in MALLOC_SETTINGS},
        "git_commit": _git_commit(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def import_seconds() -> list[float]:
    """Time ``import stacklm`` in fresh interpreters, the way a run pays it."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    samples = []
    for _ in range(IMPORT_PROBES):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def run_phase(workload, state, seconds: float, tracer=None) -> list:
    """Episodes, back to back, while the next one still fits in ``seconds``.

    With a tracer, episodes alternate untraced and traced (even and odd
    indices), so drift in the machine's speed hits both halves alike.
    """
    episodes = []
    start = time.perf_counter()
    while len(episodes) < 2 or time.perf_counter() - start + episodes[-1].wall_s <= seconds:
        if tracer is not None and len(episodes) % 2:
            tracer.install()
            try:
                episodes.append(workload.episode(state, tracer))
            finally:
                tracer.uninstall()
        else:
            episodes.append(workload.episode(state))
    return episodes


def step_peaks_mb(workload, state) -> list[float]:
    """tracemalloc peak over each engine step of a short run."""
    import tracemalloc

    from workloads import ENGINE_STEPS, probe

    from stacklm.engine import TrainEngine

    base = [0]
    peaks = []

    def before():
        tracemalloc.reset_peak()
        base[0] = tracemalloc.get_traced_memory()[0]

    def after(args, metrics, seconds):
        peaks.append((tracemalloc.get_traced_memory()[1] - base[0]) / 2**20)

    tracemalloc.start()
    try:
        with probe(TrainEngine, ENGINE_STEPS, after, before):
            workload.short_run(state)
    finally:
        tracemalloc.stop()
    return peaks


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its rank."""
    ordered = sorted(samples)
    n = len(ordered)
    return ordered[n - 11], 100.0 * (n - 11) / (n - 1)


def end_to_end(episodes: list, setup_s: float) -> tuple[dict[str, float], dict]:
    """Run metrics; the tail is taken within each episode and its median reported.

    A tail over all steps of a run is its few slowest steps, so it follows
    whatever else the host did in those moments; one tail per episode, and
    the median of those, follows the program.
    """
    steps = [s for ep in episodes for s in ep.step_s]
    tails = [tail(ep.step_s) for ep in episodes]
    tail_rank = tails[0][1]
    metrics = {
        "setup_s": setup_s,
        "tokens_per_s": sum(sum(ep.positions) for ep in episodes) / sum(steps),
        "step_ms.p50": statistics.median(steps) * 1e3,
        "step_ms.tail": statistics.median(t for t, _ in tails) * 1e3,
        "wall_s": statistics.median(ep.wall_s for ep in episodes),
        "eval_examples_per_s": sum(ep.eval_examples for ep in episodes) / sum(ep.eval_s for ep in episodes),
        "loss_final": episodes[0].loss_final,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "step_ms.tail": f"p{tail_rank:.2f} of {len(episodes[0].step_s)} steps, median of {len(episodes)} episodes",
        "episodes": len(episodes),
    }
    return metrics, notes


def per_layer(tracer, untraced: list, traced: list, setup: dict, import_s: float, peaks: list, param_bytes: int) -> dict:
    """Span-derived metrics per traced step; setup, memory and evaluation timed around whole calls."""
    from tracing import PRIMS

    n = tracer.n_steps
    self_s = tracer.self_times()
    spans = tracer.span_counts()
    passes = tracer.forward_passes_per_step()
    outputs = tracer.counts["prim_outputs"]

    def per_step_ms(span: str) -> float:
        return self_s[span] * 1e3 / n

    metrics = {
        "setup.import_ms": import_s * 1e3,
        "bpe.train_ms": setup["bpe.train"] * 1e3,
        "bpe.encode_ms": setup["bpe.encode"] * 1e3,
        "data.pack_ms": setup["data.pack"] * 1e3,
        "model.build_ms": setup["model.build"] * 1e3,
        "data.batch_ms": self_s["data.batch"] * 1e3 / spans["data.batch"] if spans["data.batch"] else 0.0,
        "model.forward_ms": per_step_ms("model.forward"),
        "objectives.loss_ms": per_step_ms("objectives.loss"),
        "tensor.backward_ms": per_step_ms("tensor.backward"),
        "tensor.tape_nodes": tracer.counts["tape_nodes"] / n,
        "tensor.dropout_mask_ms": per_step_ms("tensor.dropout_mask"),
        "tensor.dropout_mask_calls": spans["tensor.dropout_mask"] / n,
        "tensor.off_dtype_ratio": tracer.counts["off_dtype_outputs"] / outputs if outputs else 0.0,
    }
    for prim in PRIMS:
        metrics[f"op.{prim}.fwd_ms"] = per_step_ms(f"op.{prim}.fwd")
        metrics[f"op.{prim}.bwd_ms"] = per_step_ms(f"op.{prim}.bwd")
        metrics[f"op.{prim}.calls"] = spans[f"op.{prim}.fwd"] / n
    eval_examples = sum(ep.eval_examples for ep in untraced)
    metrics.update(
        {
            "optim.unscale_ms": per_step_ms("optim.unscale"),
            "optim.clip_ms": per_step_ms("optim.clip"),
            "optim.adam_ms": per_step_ms("optim.adam"),
            "optim.skipped_steps": sum(ep.skipped for ep in traced),
            "engine.self_ms": per_step_ms("engine.step"),
            "engine.shard_passes": statistics.fmean(passes),
            "engine.reduce_bytes": statistics.fmean(p * param_bytes if p > 1 else 0 for p in passes),
            "mem.step_peak_mb": statistics.median(peaks),
            "evaluation.finetune_ms": statistics.median(ep.finetune_s for ep in untraced) * 1e3,
            "evaluation.predict_ms": sum(ep.eval_s for ep in untraced) * 1e3 / eval_examples,
            "trace.overhead_ratio": statistics.median(s for ep in traced for s in ep.step_s)
            / statistics.median(s for ep in untraced for s in ep.step_s),
        }
    )
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    workload = workloads.WORKLOADS[name]
    env = environment(seed)
    print(f"perfbench {name}: seed={seed} seconds={seconds:g} trace={int(trace)}")
    print("environment: " + json.dumps(env, sort_keys=True))

    problems: list[str] = []
    episodes: list = []
    attempted = failed = 0
    metrics: dict[str, float] = {}
    notes: dict = {}
    tracer = None
    try:
        imports = import_seconds()
        setups = []
        for _ in range(SETUP_REPEATS):
            state, times = workload.setup(ROOT, seed)
            setups.append(times)
        setup = {key: statistics.median(t[key] for t in setups) for key in setups[0]}
        import_s = statistics.median(imports)
        notes.update(import_probe_s=imports, setup_repeat_s=[t["total"] for t in setups])
        workload.short_run(state)
        if not trace:
            episodes = run_phase(workload, state, seconds)
            metrics, more = end_to_end(episodes, import_s + setup["total"])
            notes.update(more)
        else:
            from tracing import Tracer

            peaks = step_peaks_mb(workload, state)
            param_dtype, param_bytes = workloads.param_info(state)
            tracer = Tracer(param_dtype)
            episodes = run_phase(workload, state, seconds, tracer)
            untraced, traced = episodes[0::2], episodes[1::2]
            metrics = per_layer(tracer, untraced, traced, setup, import_s, peaks, param_bytes)
            notes["loss_final"] = {"untraced": untraced[0].loss_final, "traced": traced[0].loss_final}
            if traced[0].loss_final != untraced[0].loss_final:
                problems.append(
                    f"traced loss_final {traced[0].loss_final!r} differs from untraced {untraced[0].loss_final!r}"
                )
    except Exception:  # a raising step is a failed operation; report it, do not crash
        traceback.print_exc()
        problems.append("an operation raised")
        attempted += 1
        failed += 1

    for index, ep in enumerate(episodes):
        attempted += ep.operations
        failed += ep.failed
        problems += [f"episode {index}: {p}" for p in ep.problems]
        if ep.signature != episodes[0].signature:
            problems.append(f"episode {index} did not repeat episode 0 bit for bit")
    if not metrics:
        problems.append("no metrics measured")

    units = layer_units() if trace else E2E_UNITS
    for key, unit in units.items():
        if key in metrics:
            note = notes.get(key, "")
            print(f"  {key:<32} {metrics[key]:>14.6g} {unit:<6} {note}")
    print(f"  {'failed_ratio':<32} {failed / max(attempted, 1):>14.6g} ratio  ({failed} of {attempted} operations)")
    for problem in problems:
        print(f"GATE FAILED: {problem}")
    correct = not problems and failed == 0

    OUT.mkdir(exist_ok=True)
    stem = f"{name}.seed{seed}.trace{int(trace)}"
    record = {
        "workload": name, "environment": env, "seconds": seconds, "correct": correct,
        "attempted": attempted, "failed": failed, "problems": problems, "notes": notes,
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items() if key in metrics},
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    if tracer is not None:
        tracer.write(str(OUT / f"{stem}.spans.csv"))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": record["metrics"]}))
    return 0 if correct else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in a fresh child process, one after another."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(child.stderr)
        lines = child.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1]) if lines else {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        merged["correct"] &= result["correct"] and child.returncode == 0
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}/{key}": value for key, value in result["metrics"].items()})
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the measured phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if argv is None and any(os.environ.get(var) != value for var, value in MALLOC_SETTINGS.items()):
        os.environ.update(MALLOC_SETTINGS)
        os.execv(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]])
    os.environ.update({var: str(BLAS_THREADS) for var in BLAS_THREAD_VARS})
    missing = [path for path in REQUIRED_FILES if not (ROOT / path).is_file()]
    if missing:
        print(f"perfbench: {ROOT} is not a stacklm checkout; missing {', '.join(missing)}", file=sys.stderr)
        return 2
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
