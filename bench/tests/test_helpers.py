"""Tests for the benchmark's own helpers.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
REPO = BENCH.parent
sys.path[:0] = [str(BENCH), str(REPO / "src")]

import run  # noqa: E402
from checks import check_cov, check_manifest, check_series, digests  # noqa: E402
from spans import LAYER_METRICS, Span, layer_metrics, self_times, valid_metric_name  # noqa: E402


def test_self_time_subtracts_union_of_overlapping_children():
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("b", 3.0, 6.0, 0),  # overlaps a: together they cover [1, 6]
        Span("c", 8.0, 12.0, 0),  # sticks out of root: only [8, 10] counts
        Span("a.child", 2.0, 3.5, 1),  # nested: covers a, not root again
    ]
    assert self_times(spans) == pytest.approx([3.0, 1.5, 3.0, 4.0, 1.5])


def test_self_time_of_childless_and_contained_children():
    spans = [Span("p", 0.0, 5.0, -1), Span("x", 1.0, 2.0, 0), Span("y", 1.5, 1.8, 0)]
    assert self_times(spans) == pytest.approx([4.0, 1.0, 0.3])


def test_layer_metrics_sum_spans_by_layer():
    spans = [
        Span("cosim.run_hybrid", 0.0, 4.0, -1),
        Span("scheduler.schedule", 1.0, 2.0, 0),
        Span("batch_power.accumulate", 2.0, 2.5, 0),
        Span("batch_power.accumulate", 2.5, 3.0, 0),
    ]
    counts = {"segment_runs": 4, "completed_runs": 3, "sched_events": 10}
    m = layer_metrics(spans, counts, [0, 10, 20])
    assert m["cosim.run_hybrid.self_s"] == pytest.approx(2.0)
    assert m["batch_power.accumulate.calls"] == 2
    assert m["scheduler.completed_run_frac"] == pytest.approx(0.75)
    assert m["scheduler.us_per_event"] == pytest.approx(1e5)
    assert m["scheduler.queue_delay_p50_s"] == 10
    assert set(m) == {name for _layer, name, _unit in LAYER_METRICS}


@pytest.mark.parametrize(
    "name",
    ["wall_s", "cosim.run_hybrid.self_s", "outputs.mb_per_s", "0x", "a-b_c.d", "x" * 64],
)
def test_metric_name_accepted(name):
    assert valid_metric_name(name)


@pytest.mark.parametrize(
    "name", ["", "wall s", "_wall", ".x", "a/b", "mb/s", "é", "x" * 65, "a\n"]
)
def test_metric_name_rejected(name):
    assert not valid_metric_name(name)


def test_every_reported_metric_name_is_valid():
    reported = [n for n, _ in run.END_TO_END] + [n for n, _ in run.PER_LAYER]
    assert len(set(reported)) == len(reported)
    assert all(valid_metric_name(n) for n in reported)
    assert all(valid_metric_name(n) for _layer, n, _unit in LAYER_METRICS)


def test_interquartile_mean_drops_the_outer_quarters():
    assert run.interquartile_mean([100.0, 2.0, 4.0, 1.0, 3.0]) == 3.0
    assert run.interquartile_mean([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 80.0]) == 4.5
    assert run.interquartile_mean([1.0, 2.0]) == 1.5


def test_benchmark_json_lists_what_the_run_reports():
    doc = json.loads((REPO / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(run.PER_LAYER)
    # long_horizon can be run by hand but is not one of the measured workloads
    assert [w["name"] for w in doc["workloads"]] == ["quickstart", "large_cluster"]
    assert all(w["name"] in run.WORKLOADS for w in doc["workloads"])


def _write_outputs(out: Path) -> None:
    from dcpowersim.outputs import write_manifest

    out.mkdir()
    rows = ["minute,p_total_kw,p_batch_kw,p_inf_kw,g_inf,g_batch"]
    rows += [f"{m},10,4,6,{m % 3},{40 + m % 5}" for m in range(1440)]
    (out / "series.csv").write_text("\n".join(rows) + "\n")
    (out / "metrics.json").write_text(json.dumps({"cov": 0.2146841548181642}))
    write_manifest(out, "cfg", {}, ["series.csv", "metrics.json"])


def test_manifest_check_flags_a_corrupted_copy(tmp_path):
    good = tmp_path / "good"
    _write_outputs(good)
    assert check_manifest(good) == []
    bad = tmp_path / "bad"
    shutil.copytree(good, bad)
    data = bytearray((bad / "series.csv").read_bytes())
    data[-3] ^= 1  # one flipped bit in the last row
    (bad / "series.csv").write_bytes(bytes(data))
    problems = check_manifest(bad)
    assert len(problems) == 1 and "series.csv" in problems[0]
    assert digests(good)["series.csv"] != digests(bad)["series.csv"]
    (bad / "metrics.json").unlink()
    assert len(check_manifest(bad)) == 2


def test_series_check_flags_missing_rows_and_overcommitted_minutes(tmp_path):
    out = tmp_path / "out"
    _write_outputs(out)
    series = out / "series.csv"
    assert check_series(series, 1, 48) == []
    assert "rows" in check_series(series, 2, 48)[0]
    lines = series.read_text().splitlines()
    lines[5] = "4,10,4,6,8,40.5"  # 48.5 GPUs in use
    series.write_text("\n".join(lines[:-1]) + "\n")
    problems = check_series(series, 1, 48)
    assert len(problems) == 2
    assert "1439 rows" in problems[0] and "1 minutes" in problems[1]


def test_cov_check_allows_last_digit_rounding_only(tmp_path):
    out = tmp_path / "out"
    _write_outputs(out)
    assert check_cov("n_minutes=1440\ncov=0.214684155\n", out / "metrics.json") == []
    assert check_cov("cov=0.214684156\n", out / "metrics.json") == []
    assert check_cov("cov=0.214684255\n", out / "metrics.json") != []
    assert check_cov("mean=1\n", out / "metrics.json") != []
