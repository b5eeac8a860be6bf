import json

import pytest

from infosearch_eval.harness import METRICS, DimensionSummary, evaluate_system
from infosearch_eval.metrics import wise_per
from infosearch_eval.report import FORMATS, render
from infosearch_eval.synth import SynthSpec, gen_synthetic_dataset, gen_synthetic_runs


def sample_rows():
    spec = SynthSpec(seed=2)
    ds = gen_synthetic_dataset(spec)
    rs = gen_synthetic_runs(ds, spec, "random")
    return [("sys", row) for row in evaluate_system(ds, rs)[1]]


def test_per_gap_table_row():
    # published gap for actual -3.0 against ideal 65.9
    assert wise_per(-3.0, 65.9, 100.0) == pytest.approx(104.6, abs=0.05)


def test_per_gap_boundaries():
    assert wise_per(50.0, 50.0, 100.0) == 0.0
    assert wise_per(0.0, 50.0, 100.0) == 100.0
    assert wise_per(1.0, 0.0, 100.0) is None
    assert wise_per(1.0, -2.0, 100.0) is None


def test_render_deterministic():
    rows = sample_rows()
    for fmt in FORMATS:
        assert render(rows, fmt) == render(rows, fmt)


def test_csv_single_row():
    row = sample_rows()[0]
    data = render([row], "csv").decode()
    lines = data.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("system_id,scope,ndcg_ori")


def test_markdown_row_count():
    rows = sample_rows()  # 6 dims + overall
    md = render(rows, "markdown").decode()
    data_lines = [ln for ln in md.splitlines() if ln.split("|")[1].strip() == "sys"]
    assert len(data_lines) == 7


def test_display_rounds_half_away_from_zero():
    def mk(v):  # v * 100 is exactly +-0.25
        row = DimensionSummary("overall", **dict.fromkeys(METRICS, v), query_count=1)
        return [("s", row)]
    assert b",0.3," in render(mk(0.0025), "csv")
    assert b",-0.3," in render(mk(-0.0025), "csv")


def test_structured_keeps_full_precision():
    rows = sample_rows()
    lines = render(rows, "structured").decode().splitlines()
    rec = json.loads(lines[0])
    assert rec["wise_act"] == rows[0][1].wise_act * 100.0


def test_structured_row_bytes():
    # key order and the x100 Per. expression fix the jsonl bytes
    for line in render(sample_rows(), "structured").decode().splitlines():
        rec = json.loads(line)
        assert list(rec) == ["system_id", "scope", *METRICS]
        act, ideal = rec["wise_act"], rec["wise_ideal"]
        assert rec["per"] == 100.0 * (ideal - act) / ideal
