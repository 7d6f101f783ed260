"""Compute accounting: parameter totals, Eflops figures and projections.

Two accountings live here and must not be conflated:

* ``eflops`` models total training compute as wall time x device count x a
  constant per-device peak rate (default 312 Tflops, the tensor-core peak
  of the training hardware).  This is the relation that reproduces the
  published cost table; it is a reconstruction, the table itself never
  states its formula.  The rate belongs to the report, not to a row:
  ``cost_table`` takes it, checks it once, and renders every row at it.
* ``theoretical_train_flops`` is the standard 6 x parameters x tokens
  projection.  It is labeled theoretical and is never compared against the
  published table, which is time-times-capacity accounting.

Durations such as ``45h38m`` parse to exact fractional hours; step counts
accept ``K``/``M`` suffixes.
"""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass
from importlib import resources
from typing import Iterable, Optional

from .model import ModelConfig, count_params

DEFAULT_PEAK_FLOPS = 312e12  # per device, flops/second

_DURATION = re.compile(r"^(?:(\d+(?:\.\d+)?)h)?(?:(\d+(?:\.\d+)?)m)?$")


class CostError(ValueError):
    pass


def _finite_non_negative(value):
    if not 0 <= value < math.inf:
        raise CostError(f"must be finite and non-negative, got {value}")
    return value


def parse_duration_hours(text: str) -> float:
    """``"45h38m"`` -> 45 + 38/60; plain numbers are hours."""
    text = text.strip()
    if not text:
        raise CostError("empty duration")
    try:
        hours = float(text)
    except ValueError:
        match = _DURATION.match(text)
        if not match or (match.group(1) is None and match.group(2) is None):
            raise CostError(f"cannot parse duration {text!r}") from None
        hours = float(match.group(1) or 0.0) + float(match.group(2) or 0.0) / 60.0
    return _finite_non_negative(hours)


def parse_count(text: str) -> int:
    """``"750K"`` -> 750000, ``"2.8M"`` -> 2800000."""
    text = text.strip()
    if not text:
        raise CostError("empty count")
    factor = 1
    if text[-1] in "kK":
        factor, text = 1_000, text[:-1]
    elif text[-1] in "mM":
        factor, text = 1_000_000, text[:-1]
    try:
        count = int(round(float(text) * factor))
    except (ValueError, OverflowError):
        raise CostError(f"cannot parse count {text!r}") from None
    return _finite_non_negative(count)


@dataclass
class CostRecord:
    """One row of the published cost table."""

    model: str
    wall_hours: float
    steps: int
    gpus: int
    reported_eflops: Optional[float] = None

    def __post_init__(self):
        if self.wall_hours < 0 or self.steps < 0 or self.gpus < 0:
            raise CostError("cost record fields must be non-negative")


def eflops(record: CostRecord, peak_rate: float = DEFAULT_PEAK_FLOPS) -> float:
    """Total exaflops: seconds x devices x per-device peak / 1e18."""
    return record.wall_hours * 3600.0 * record.gpus * peak_rate / 1e18


def theoretical_train_flops(cfg: ModelConfig, tokens: int) -> float:
    """Classic 6 x parameters x tokens projection (theoretical only)."""
    return 6.0 * count_params(cfg) * tokens


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------

_REPORT_COLUMNS = (
    "model",
    "time",
    "steps",
    "gpus",
    "params",
    "layers",
    "eflops_computed",
    "eflops_reported",
    "deviation_pct",
)


def _format_hours(hours: float) -> str:
    whole = int(hours)
    minutes = round((hours - whole) * 60)
    if minutes == 60:
        whole, minutes = whole + 1, 0
    return f"{whole}h{minutes:02d}m" if minutes else f"{whole}h"


def cost_table(
    configs: dict[str, ModelConfig],
    records: Iterable[CostRecord],
    peak_rate: float = DEFAULT_PEAK_FLOPS,
) -> list[list[str]]:
    """One row of cells per record, in ``_REPORT_COLUMNS`` order, at one per-device ``peak_rate``.

    Models without a config get blank params/layers; records without a
    reported value (or a reported 0) get a blank deviation.
    """
    if not (math.isfinite(peak_rate) and peak_rate > 0):
        raise CostError(f"peak_rate must be finite and positive, got {peak_rate}")
    rows = []
    for record in records:
        cfg = configs.get(record.model)
        computed, reported = eflops(record, peak_rate), record.reported_eflops
        rows.append([
            record.model,
            _format_hours(record.wall_hours),
            str(record.steps),
            str(record.gpus),
            "" if cfg is None else str(count_params(cfg)),
            "" if cfg is None else str(cfg.n_layers),
            f"{computed:.1f}",
            "" if reported is None else f"{reported:g}",
            "" if not reported else f"{100 * (computed - reported) / reported:+.2f}%",
        ])
    return rows


def render_cost_report(rows: list[list[str]]) -> str:
    """Aligned text table (header always present, even for no rows)."""
    table = [list(_REPORT_COLUMNS)] + rows
    widths = [max(len(line[i]) for line in table) for i in range(len(_REPORT_COLUMNS))]
    out = []
    for line in table:
        out.append("  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip())
    return "\n".join(out) + "\n"


def render_cost_csv(rows: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(_REPORT_COLUMNS)
    writer.writerows(rows)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Bundled reference tables
# ---------------------------------------------------------------------------


def _read_packaged_csv(name: str) -> list[dict[str, str]]:
    text = resources.files("stacklm.refs").joinpath(name).read_text(encoding="utf-8")
    return list(csv.DictReader(io.StringIO(text)))


def load_cost_records(path: Optional[str] = None) -> list[CostRecord]:
    """Cost rows from a CSV file (columns model,time,steps,gpus,reported_eflops);
    defaults to the bundled reference table.  Errors name the file, the data
    row (counted from 1) and the column."""
    if path is None:
        raw = _read_packaged_csv("cost_table.csv")
    else:
        with open(path, encoding="utf-8", newline="") as fh:
            try:
                raw = list(csv.DictReader(fh))
            except (csv.Error, UnicodeDecodeError) as exc:
                raise CostError(f"{path}: unreadable CSV table: {exc}") from None
    records = []
    for index, row in enumerate(raw, start=1):
        where = f"{path or 'bundled cost table'}: row {index}"
        records.append(
            CostRecord(
                model=_cell(row, "model", str.strip, where),
                wall_hours=_cell(row, "time", parse_duration_hours, where),
                steps=_cell(row, "steps", parse_count, where),
                gpus=_cell(row, "gpus", lambda t: _finite_non_negative(int(t)), where),
                reported_eflops=_cell(row, "reported_eflops", _optional_eflops, where, ""),
            )
        )
    return records


def _optional_eflops(text: str) -> Optional[float]:
    return _finite_non_negative(float(text)) if text.strip() else None


def _cell(row: dict[str, Optional[str]], column: str, parse, where: str, default: Optional[str] = None):
    """``parse(row[column])``; a missing column, a short row or a bad value is a ``CostError``."""
    text = row.get(column, default)
    if text is None:
        raise CostError(f"{where}: no value for column {column!r}")
    try:
        return parse(text)
    except ValueError as exc:
        raise CostError(f"{where}: column {column!r}: {exc}") from None


def reference_model_configs() -> dict[str, ModelConfig]:
    """Configs for every row of the bundled model table."""
    configs = {}
    for row in _read_packaged_csv("model_table.csv"):
        configs[row["model"]] = ModelConfig(
            family=row["family"],
            n_layers=int(row["n_layers"]),
            d_layer=int(row["d_layer"]),
            n_heads=int(row["n_heads"]),
            d_head=int(row["d_head"]),
            vocab_size=int(row["vocab_size"]),
            max_seq_len=int(row["max_seq_len"]),
        )
    return configs


def reference_reported_params() -> dict[str, float]:
    return {row["model"]: float(row["reported_params"]) for row in _read_packaged_csv("model_table.csv")}


def reference_qqp_rows() -> list[dict[str, float | str]]:
    rows = []
    for row in _read_packaged_csv("qqp_dev_reference.csv"):
        rows.append(
            {
                "model": row["model"],
                "precision": float(row["precision"]),
                "recall": float(row["recall"]),
                "f1": float(row["f1"]),
                "accuracy": float(row["accuracy"]),
            }
        )
    return rows
