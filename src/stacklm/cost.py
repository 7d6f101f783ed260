"""Compute accounting: parameter totals, Eflops figures and projections.

Two accountings live here and must not be conflated:

* ``eflops`` models total training compute as wall time x device count x a
  constant per-device peak rate (default 312 Tflops, the tensor-core peak
  of the training hardware).  This is the relation that reproduces the
  published cost table; it is a reconstruction, the table itself never
  states its formula.
* ``theoretical_train_flops`` is the standard 6 x parameters x tokens
  projection.  It is labeled theoretical and is never compared against the
  published table, which is time-times-capacity accounting.

Durations such as ``45h38m`` parse to exact fractional hours; step counts
accept ``K``/``M`` suffixes.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass
from importlib import resources
from typing import Iterable, Optional

from .model import ModelConfig, count_params

DEFAULT_PEAK_FLOPS = 312e12  # per device, flops/second

_DURATION = re.compile(r"^(?:(\d+(?:\.\d+)?)h)?(?:(\d+(?:\.\d+)?)m)?$")


class CostError(ValueError):
    pass


def parse_duration_hours(text: str) -> float:
    """``"45h38m"`` -> 45 + 38/60; plain numbers are hours."""
    text = text.strip()
    if not text:
        raise CostError("empty duration")
    try:
        return float(text)
    except ValueError:
        pass
    match = _DURATION.match(text)
    if not match or (match.group(1) is None and match.group(2) is None):
        raise CostError(f"cannot parse duration {text!r}")
    hours = float(match.group(1) or 0.0)
    minutes = float(match.group(2) or 0.0)
    return hours + minutes / 60.0


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
        return int(round(float(text) * factor))
    except ValueError:
        raise CostError(f"cannot parse count {text!r}") from None


@dataclass
class CostRecord:
    """One row of the published cost table."""

    model: str
    wall_hours: float
    steps: int
    gpus: int
    peak_rate: float = DEFAULT_PEAK_FLOPS
    reported_eflops: Optional[float] = None

    def __post_init__(self):
        if self.wall_hours < 0 or self.steps < 0 or self.gpus < 0:
            raise CostError("cost record fields must be non-negative")
        if self.peak_rate <= 0:
            raise CostError("peak_rate must be positive")


def eflops(record: CostRecord) -> float:
    """Total exaflops: seconds x devices x per-device peak / 1e18."""
    return record.wall_hours * 3600.0 * record.gpus * record.peak_rate / 1e18


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


@dataclass
class CostReportRow:
    model: str
    time: str
    steps: int
    gpus: int
    params: Optional[int]
    layers: Optional[int]
    eflops_computed: float
    eflops_reported: Optional[float]

    @property
    def deviation(self) -> Optional[float]:
        if self.eflops_reported in (None, 0):
            return None
        return (self.eflops_computed - self.eflops_reported) / self.eflops_reported


def _format_hours(hours: float) -> str:
    whole = int(hours)
    minutes = round((hours - whole) * 60)
    if minutes == 60:
        whole, minutes = whole + 1, 0
    return f"{whole}h{minutes:02d}m" if minutes else f"{whole}h"


def cost_table(
    configs: dict[str, ModelConfig],
    records: Iterable[CostRecord],
) -> list[CostReportRow]:
    """Per-model rows pairing computed and reported Eflops.

    Models without a config get blank params/layers; records without a
    reported value get a blank deviation.
    """
    rows = []
    for record in records:
        cfg = configs.get(record.model)
        rows.append(
            CostReportRow(
                model=record.model,
                time=_format_hours(record.wall_hours),
                steps=record.steps,
                gpus=record.gpus,
                params=count_params(cfg) if cfg is not None else None,
                layers=cfg.n_layers if cfg is not None else None,
                eflops_computed=eflops(record),
                eflops_reported=record.reported_eflops,
            )
        )
    return rows


def _row_cells(row: CostReportRow) -> list[str]:
    dev = row.deviation
    return [
        row.model,
        row.time,
        str(row.steps),
        str(row.gpus),
        "" if row.params is None else str(row.params),
        "" if row.layers is None else str(row.layers),
        f"{row.eflops_computed:.1f}",
        "" if row.eflops_reported is None else f"{row.eflops_reported:g}",
        "" if dev is None else f"{100 * dev:+.2f}%",
    ]


def render_cost_report(rows: list[CostReportRow]) -> str:
    """Aligned text table (header always present, even for no rows)."""
    table = [list(_REPORT_COLUMNS)] + [_row_cells(r) for r in rows]
    widths = [max(len(line[i]) for line in table) for i in range(len(_REPORT_COLUMNS))]
    out = []
    for line in table:
        out.append("  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip())
    return "\n".join(out) + "\n"


def render_cost_csv(rows: list[CostReportRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(_REPORT_COLUMNS)
    for row in rows:
        writer.writerow(_row_cells(row))
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Bundled reference tables
# ---------------------------------------------------------------------------


def _read_packaged_csv(name: str) -> list[dict[str, str]]:
    text = resources.files("stacklm.refs").joinpath(name).read_text(encoding="utf-8")
    return list(csv.DictReader(io.StringIO(text)))


def load_cost_records(path: Optional[str] = None, peak_rate: float = DEFAULT_PEAK_FLOPS) -> list[CostRecord]:
    """Cost rows from a CSV file (columns model,time,steps,gpus,reported_eflops);
    defaults to the bundled reference table.  Errors name the file, the data
    row (counted from 1) and the column."""
    if path is None:
        raw = _read_packaged_csv("cost_table.csv")
    else:
        with open(path, encoding="utf-8", newline="") as fh:
            raw = list(csv.DictReader(fh))
    records = []
    for index, row in enumerate(raw, start=1):
        where = f"{path or 'bundled cost table'}: row {index}"
        records.append(
            CostRecord(
                model=_cell(row, "model", str.strip, where),
                wall_hours=_cell(row, "time", parse_duration_hours, where),
                steps=_cell(row, "steps", parse_count, where),
                gpus=_cell(row, "gpus", int, where),
                peak_rate=peak_rate,
                reported_eflops=_cell(row, "reported_eflops", lambda t: float(t) if t.strip() else None, where, ""),
            )
        )
    return records


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
