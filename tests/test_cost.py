import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stacklm.cost import (
    DEFAULT_PEAK_FLOPS,
    CostError,
    CostRecord,
    cost_table,
    eflops,
    load_cost_records,
    parse_count,
    parse_duration_hours,
    reference_model_configs,
    reference_qqp_rows,
    reference_reported_params,
    render_cost_csv,
    render_cost_report,
    theoretical_train_flops,
)
from stacklm.model import ModelConfig, count_params


def test_duration_parsing_exact():
    assert parse_duration_hours("45h38m") == pytest.approx(45 + 38 / 60, rel=1e-15)
    assert parse_duration_hours("96h") == 96.0
    assert parse_duration_hours("30m") == 0.5
    assert parse_duration_hours("12.5") == 12.5
    with pytest.raises(CostError):
        parse_duration_hours("yesterday")


def test_count_parsing():
    assert parse_count("750K") == 750_000
    assert parse_count("2.8M") == 2_800_000
    assert parse_count("100") == 100
    with pytest.raises(CostError):
        parse_count("many")


def test_eflops_published_anchor_rows():
    assert eflops(CostRecord("CPM-X-L", 24, 100_000, 8)) == pytest.approx(215.65, abs=0.01)
    assert eflops(CostRecord("CPM-2-X-M", 138, 80_000, 8)) == pytest.approx(1240.0, abs=0.1)
    assert eflops(CostRecord("BERT-X-CN-S", 96, 880_000, 1)) == pytest.approx(107.8, abs=0.05)
    assert eflops(CostRecord("none", 0, 0, 8)) == 0.0


def test_eflops_linear_in_time_and_gpus():
    base = eflops(CostRecord("m", 10, 0, 2))
    assert eflops(CostRecord("m", 20, 0, 2)) == pytest.approx(2 * base)
    assert eflops(CostRecord("m", 10, 0, 4)) == pytest.approx(2 * base)


@settings(max_examples=50, deadline=None)
@given(hours=st.floats(0, 1000), gpus=st.integers(0, 64), k=st.floats(0.1, 10))
def test_eflops_scaling_property(hours, gpus, k):
    a = eflops(CostRecord("m", hours, 0, gpus))
    b = eflops(CostRecord("m", hours * k, 0, gpus))
    assert b == pytest.approx(a * k, rel=1e-9, abs=1e-12)


def test_tokens_and_theoretical_flops():
    tiny = ModelConfig("decoder-only", 0, 2, 1, 2, vocab_size=10, max_seq_len=4)
    assert theoretical_train_flops(tiny, 10**6) == 6.0 * count_params(tiny) * 10**6


def test_theoretical_flops_depth_linearity():
    shallow = ModelConfig("decoder-only", 2, 8, 2, 4, vocab_size=50, max_seq_len=16)
    deep = ModelConfig("decoder-only", 4, 8, 2, 4, vocab_size=50, max_seq_len=16)
    zero = ModelConfig("decoder-only", 0, 8, 2, 4, vocab_size=50, max_seq_len=16)
    tokens = 1000
    overhead = theoretical_train_flops(zero, tokens)
    assert theoretical_train_flops(deep, tokens) - overhead == pytest.approx(
        2 * (theoretical_train_flops(shallow, tokens) - overhead)
    )


def test_bundled_reference_tables_load():
    records = load_cost_records()
    assert len(records) == 20
    configs = reference_model_configs()
    assert len(configs) == 20
    assert set(r.model for r in records) == set(configs)
    assert len(reference_qqp_rows()) == 5
    assert reference_reported_params()["CPM-X-L"] == 10_300_000_000


def test_reference_rows_mostly_within_three_percent():
    records = load_cost_records()
    outside = {
        r.model: abs(dev)
        for r in records
        if (dev := (eflops(r) - r.reported_eflops) / r.reported_eflops) is not None
        and abs(dev) > 0.03
    }
    # one published row is internally inconsistent (its time implies ~4%)
    assert set(outside) == {"CPM-X-EVA"}
    assert outside["CPM-X-EVA"] == pytest.approx(0.04, abs=0.001)


def test_cost_table_report_and_blanks():
    configs = reference_model_configs()
    records = load_cost_records()
    rows = cost_table(configs, records)
    assert len(rows) == 20
    by_model = {r.model: r for r in rows}
    assert by_model["CPM-X-L"].params == count_params(configs["CPM-X-L"])
    assert by_model["CPM-X-L"].layers == 128

    # unknown model and missing reference produce blanks, not errors
    extra = cost_table({}, [CostRecord("mystery", 1, 10, 1)])
    text = render_cost_report(rows + extra)
    assert "mystery" in text
    assert text.splitlines()[0].startswith("model")
    csv_text = render_cost_csv(rows)
    assert csv_text.count("\n") == 21  # header + 20 rows


def test_empty_report_is_header_only():
    text = render_cost_report([])
    assert text.splitlines() == [
        "model  time  steps  gpus  params  layers  eflops_computed  eflops_reported  deviation_pct"
    ]


def test_malformed_cost_table_names_file_row_and_column(tmp_path):
    tables = {
        "no-steps.csv": ("model,time,gpus\nX,1h,1\n", "row 1: no value for column 'steps'"),
        "short-row.csv": ("model,time,steps,gpus,reported_eflops\nX,1h,1K,1,\nY,2h\n", "row 2: no value for column"),
        "bad-cell.csv": ("model,time,steps,gpus\nX,1h,1K,four\n", "row 1: column 'gpus'"),
    }
    for name, (text, detail) in tables.items():
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        with pytest.raises(CostError, match="^" + re.escape(f"{path}: {detail}")):
            load_cost_records(str(path))


def test_load_cost_records_from_file(tmp_path):
    path = tmp_path / "costs.csv"
    path.write_text("model,time,steps,gpus,reported_eflops\nX,2h30m,10K,4,\n", encoding="utf-8")
    records = load_cost_records(str(path))
    assert records[0].wall_hours == 2.5
    assert records[0].steps == 10_000
    assert records[0].reported_eflops is None
    assert records[0].peak_rate == DEFAULT_PEAK_FLOPS
