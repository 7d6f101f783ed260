"""Hash every file a fixed matrix of stacklm CLI runs writes, to show that a change leaves outputs byte-identical.

    python scripts/outputs.py --out <dir> [--tree <checkout>] [--against <record>]

Runs the CLI of ``--tree`` (default: the checkout this script is in) with
``OPENBLAS_NUM_THREADS=1`` over ``matrix()``, each command in its own run
directory under ``<dir>/runs``, and writes ``<dir>/outputs.json``: the sha256
of every file the runs wrote.

- ``.npz`` archives are hashed array by array: their zip members carry
  timestamps.  The JSON ``meta`` record is hashed under one entry per
  top-level key, and one per key of its ``extra`` object (for example
  ``…/model.npz:meta.extra.scaler``), so that a comparison names the record
  that changed.
- Manifests are hashed after dropping their timestamps and ``out``.  Every
  path a command is given is relative to ``<dir>``, which links the checkout
  as ``<dir>/tree``, so manifests name the same paths whichever checkout ran.
- The bundled configs and corpus come from ``--tree``.  The TSV files of the
  synthetic pair task are written by this checkout, so that two records of
  different trees read the same ones.

``--against <record>`` lists the files whose hash differs from that earlier
record's, or that only one of the two has, and exits 1 if there are any.
The digests depend on the numpy and BLAS build, so compare records taken on
one machine, for example one with ``--tree`` at the parent commit and one at
the change.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
PRETRAINED = "runs/pretrain-bert-c-shards2"  # the run that finetune, eval and the TSV sweep read


def matrix() -> dict[str, list[str]]:
    """Each command's name (its run directory under ``runs/``) and arguments, in run order."""
    corpus = ["--corpus", "tree/data/toy_corpus.txt"]
    task = ["--train", "tasks/train.tsv", "--dev", "tasks/dev.tsv"]
    finetuned = ["--checkpoint", "runs/finetune/finetuned.npz", "--vocab", f"{PRETRAINED}/vocab.txt"]
    sweep = ["sweep", "--config", "tree/configs/bert-c.cfg", "--toy", "--depths", "1,2,4", "--budget", "80",
             "--lr", "3e-3"]
    commands = {"tokenize-train": ["tokenize-train", *corpus, "--vocab-size", "300"]}
    pretrains = {
        PRETRAINED: ["bert-c", "--shards", "2"],
        "runs/pretrain-cpm-x-l-shards4": ["cpm-x-l", "--shards", "4"],
        "runs/pretrain-cpm-2-x-s-recompute": ["cpm-2-x-s", "--recompute"],
        "runs/pretrain-bert-c-recompute": ["bert-c", "--recompute"],
    }
    # 16 steps reach batch 15, the first to hold the bundled corpus's padded last row
    for run, (config, *flags) in pretrains.items():
        commands[run.removeprefix("runs/")] = [
            "pretrain", "--config", f"tree/configs/{config}.cfg", *corpus, "--toy", "--steps", "16", *flags
        ]
    commands.update({
        "finetune": ["finetune", "--checkpoint", f"{PRETRAINED}/model.npz", "--vocab", f"{PRETRAINED}/vocab.txt",
                     *task, "--steps", "80", "--batch-size", "8", "--lr", "3e-3"],
        "eval": ["eval", *finetuned, "--data", "tasks/dev.tsv"],
        "eval-positive-label": ["eval", *finetuned, "--data", "tasks/dev.tsv", "--positive-label", "1"],
        "sweep-bundled": sweep,
        "sweep-tsv": [*sweep, *task, "--vocab", f"{PRETRAINED}/vocab.txt"],
        "cost": ["cost"],
        "count-params": ["count-params", "--config", "tree/configs/bert-c.cfg"],
    })
    return {name: [*argv, "--out", f"runs/{name}"] for name, argv in commands.items()}


def write_tasks(directory: Path) -> None:
    """The bundled synthetic pair task, as the TSV files ``load_tsv_dataset`` reads."""
    sys.path.insert(0, str(ROOT / "src"))
    from stacklm.evaluation import make_synthetic_pair_task

    directory.mkdir()
    for split, n in (("train", 64), ("dev", 16)):
        with open(directory / f"{split}.tsv", "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, delimiter="\t")
            writer.writerow(["text_a", "text_b", "label"])
            for ex in make_synthetic_pair_task(n, seed=0, split=split).examples:
                writer.writerow([ex.text_a, ex.text_b, ex.label])


def _sha256_json(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def digests(path: Path, name: str) -> dict[str, str]:
    """``name``'s sha256, or one per array and ``meta`` record of an ``.npz``; a manifest loses its timestamps and
    ``out`` first."""
    if path.suffix == ".npz":
        found = {}
        with np.load(path) as archive:
            for key in archive.files:
                a = archive[key]
                if key != "meta":
                    found[f"{name}:{key}"] = hashlib.sha256(f"{a.dtype.str}{a.shape}".encode() + a.tobytes()).hexdigest()
                    continue
                meta = json.loads(a.tobytes().decode("utf-8"))
                for field, value in meta.items():
                    if field == "extra":
                        found.update({f"{name}:meta.extra.{k}": _sha256_json(v) for k, v in value.items()})
                    else:
                        found[f"{name}:meta.{field}"] = _sha256_json(value)
        return found
    if path.name == "manifest.json":
        manifest = json.loads(path.read_text(encoding="utf-8"))
        del manifest["started_unix"], manifest["finished_unix"], manifest["options"]["out"]
        return {name: _sha256_json(manifest)}
    return {name: hashlib.sha256(path.read_bytes()).hexdigest()}


def take_record(out: Path, tree: Path) -> dict:
    if out.exists() and any(out.iterdir()):
        raise SystemExit(f"{out} is not empty; give a new directory")
    out.mkdir(parents=True, exist_ok=True)
    (out / "tree").symlink_to(tree, target_is_directory=True)
    write_tasks(out / "tasks")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(tree / "src"))
    commands = matrix()
    for name, argv in commands.items():
        print(f"stacklm {' '.join(argv)}", flush=True)
        done = subprocess.run([sys.executable, "-c", "import sys; from stacklm.cli import main; sys.exit(main())",
                               *argv], cwd=out, env=env, capture_output=True, text=True)
        if done.returncode != 0:
            raise SystemExit(f"{name} exited {done.returncode}:\n{done.stderr}")
    files: dict[str, str] = {}
    for path in sorted((out / "runs").rglob("*")):
        if path.is_file():
            files.update(digests(path, path.relative_to(out).as_posix()))
    record = {
        "environment": {"python": platform.python_version(), "numpy": np.__version__, "machine": platform.machine()},
        "commands": commands,
        "files": files,
    }
    (out / "outputs.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"{len(files)} files and npz arrays hashed -> {out / 'outputs.json'}")
    return record


def compare(record: dict, other_path: Path) -> int:
    other = json.loads(other_path.read_text(encoding="utf-8"))
    if other["environment"] != record["environment"]:
        print(f"warning: environments differ: {other['environment']} and {record['environment']}")
    ours, theirs = record["files"], other["files"]
    differing = [name for name in sorted(ours.keys() | theirs.keys()) if ours.get(name) != theirs.get(name)]
    for name in differing:
        where = "differs" if name in ours and name in theirs else f"only in {'this run' if name in ours else other_path}"
        print(f"{name}: {where}")
    print(f"{len(differing)} of {len(ours.keys() | theirs.keys())} files and npz arrays differ from {other_path}")
    return 1 if differing else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True, help="new directory for the runs and outputs.json")
    parser.add_argument("--tree", type=Path, default=ROOT, help="checkout whose CLI runs (default: this one)")
    parser.add_argument("--against", type=Path, help="an earlier outputs.json to compare with")
    args = parser.parse_args()
    record = take_record(args.out.resolve(), args.tree.resolve())
    return compare(record, args.against) if args.against else 0


if __name__ == "__main__":
    sys.exit(main())
