import csv
import json
from types import SimpleNamespace

import numpy as np
import pytest

from dcpowersim.cli import main
from dcpowersim.config import canonical_hash, load_bundle
from dcpowersim.cosim import run_hybrid
from dcpowersim.outputs import (
    JOB_POWER_COLUMNS,
    SERIES_COLUMNS,
    SWEEP_COLUMNS,
    file_sha256,
    fmt,
    read_series_csv,
    sweep_header,
    write_job_power_csv,
    write_series_csv,
)
from dcpowersim.sweep import EXTRA_COLUMNS, expand_grid, summarize

from test_cosim import tiny_doc


class TestCellFormat:
    def test_nine_significant_digits(self):
        assert fmt(1.0 / 3.0) == "0.333333333"
        assert fmt(123456789012.0) == "1.23456789e+11"
        assert fmt(2.5) == "2.5"

    def test_bools_are_bits(self):
        assert fmt(True) == "1"
        assert fmt(False) == "0"
        assert fmt(np.bool_(True)) == "1"

    def test_ints_and_strings_verbatim(self):
        assert fmt(7) == "7"
        assert fmt(np.int64(-3)) == "-3"
        assert fmt("SWF") == "SWF"


class TestSeriesFile:
    def test_round_trip(self, tmp_path):
        result = SimpleNamespace(
            horizon_minutes=3,
            p_total_kw=np.array([1.5, 2.25, 0.0]),
            p_batch_kw=np.array([1.0, 2.0, 0.0]),
            p_inf_kw=np.array([0.5, 0.25, 0.0]),
            g_inf=np.array([2, 2, 0]),
            busy_batch=np.array([4.0, 4.0, 0.0]),
        )
        path = tmp_path / "series.csv"
        write_series_csv(path, result)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(SERIES_COLUMNS)
        assert lines[1] == "0,1.5,1,0.5,2,4"
        back = read_series_csv(path)
        assert np.array_equal(back["p_total_kw"], result.p_total_kw)
        assert np.array_equal(back["g_inf"], result.g_inf.astype(float))

    def test_job_power_rows(self, tmp_path):
        path = tmp_path / "job_power.csv"
        write_job_power_csv(path, [(3, np.array([0.5, 0.25])), (4, np.array([1.0]))])
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(JOB_POWER_COLUMNS)
        assert lines[1:] == ["3,0,0.5", "3,1,0.25", "4,0,1"]

    def test_sweep_header_layout(self):
        header = sweep_header(EXTRA_COLUMNS)
        assert header[: len(SWEEP_COLUMNS)] == SWEEP_COLUMNS
        assert header[-1] == "error"
        assert "cov_inf" in header


@pytest.fixture()
def cfg_path(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(tiny_doc()))
    return str(path)


def write_scenario(tmp_path, name="scen.json", **fields) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(fields))
    return str(path)


class TestGenerateCommand:
    def test_empty_horizon_header_only(self, tmp_path, cfg_path):
        scen = write_scenario(tmp_path, horizon_days=0, total_gpus=4)
        out = tmp_path / "g"
        assert main(["generate", "batch", "--config", cfg_path,
                     "--scenario", scen, "--out", str(out), "--seed", "1"]) == 0
        assert (out / "arrivals.csv").read_text() == "timestamp_s,group\n"
        assert (out / "jobs.csv").read_text().count("\n") == 1

        out2 = tmp_path / "gi"
        assert main(["generate", "inference", "--config", cfg_path,
                     "--scenario", scen, "--out", str(out2), "--seed", "1"]) == 0
        assert (out2 / "requests.csv").read_text() == "timestamp_s,group,template,tokens\n"

    def test_same_seed_byte_identical(self, tmp_path, cfg_path):
        scen = write_scenario(tmp_path, horizon_days=1, total_gpus=4)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["generate", "batch", "--config", cfg_path,
                         "--scenario", scen, "--out", str(out), "--seed", "9"]) == 0
            outs.append(out)
        for name in ("arrivals.csv", "jobs.csv", "job_power.csv", "manifest.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_week_of_jobs_within_four_sigma(self, tmp_path, cfg_path):
        scen = write_scenario(tmp_path, horizon_days=7, total_gpus=4)
        out = tmp_path / "wk"
        assert main(["generate", "batch", "--config", cfg_path,
                     "--scenario", scen, "--out", str(out), "--seed", "1"]) == 0
        n_jobs = (out / "jobs.csv").read_text().count("\n") - 1
        mean = 6.0 * 7  # Poisson counts: dispersion 0 in the tiny config
        sigma = mean**0.5
        assert abs(n_jobs - mean) <= 4 * sigma

    def test_manifest_contents(self, tmp_path, cfg_path):
        scen = write_scenario(tmp_path, horizon_days=1, total_gpus=4)
        out = tmp_path / "m"
        main(["generate", "batch", "--config", cfg_path,
              "--scenario", scen, "--out", str(out), "--seed", "1"])
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest) == {"package_version", "config_hash", "scenario", "files"}
        assert manifest["config_hash"] == canonical_hash(tiny_doc())
        assert "derived_seed" in manifest["scenario"]
        for name, digest in manifest["files"].items():
            assert file_sha256(out / name) == digest

    def test_env_var_output_dir(self, tmp_path, cfg_path, monkeypatch):
        scen = write_scenario(tmp_path, horizon_days=0, total_gpus=4)
        out = tmp_path / "from_env"
        monkeypatch.setenv("DCPOWERSIM_OUT", str(out))
        assert main(["generate", "batch", "--config", cfg_path,
                     "--scenario", scen, "--seed", "1"]) == 0
        assert (out / "jobs.csv").exists()


class TestSimulateCommand:
    def run(self, tmp_path, cfg_path, out_name, **fields):
        scen = write_scenario(
            tmp_path, name=f"{out_name}.json",
            total_gpus=4, horizon_days=1, utilization_target=0.25, **fields,
        )
        out = tmp_path / out_name
        rc = main(["simulate", "--config", cfg_path, "--scenario", scen,
                   "--out", str(out), "--seed", "5"])
        return rc, out

    def test_share_zero_no_inference_power(self, tmp_path, cfg_path):
        rc, out = self.run(tmp_path, cfg_path, "s0", share_target=0.0)
        assert rc == 0
        series = read_series_csv(out / "series.csv")
        assert not series["p_inf_kw"].any()
        assert series["p_total_kw"].any()

    def test_share_one_no_batch_power(self, tmp_path, cfg_path):
        rc, out = self.run(tmp_path, cfg_path, "s1", share_target=1.0)
        assert rc == 0
        series = read_series_csv(out / "series.csv")
        assert not series["p_batch_kw"].any()
        assert not series["g_batch"].any()

    def test_rerun_byte_identical(self, tmp_path, cfg_path):
        _, out_a = self.run(tmp_path, cfg_path, "ra", share_target=0.5)
        _, out_b = self.run(tmp_path, cfg_path, "rb", share_target=0.5)
        for name in ("series.csv", "busy.csv", "trace.csv", "jobs.csv",
                     "requests.csv", "detail.csv", "metrics.json", "manifest.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_config_error_exit_code(self, tmp_path, capsys):
        doc = tiny_doc()
        doc["schema_version"] = 99
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        rc = main(["simulate", "--config", str(bad), "--out", str(tmp_path / "x")])
        assert rc == 1
        assert "configuration error" in capsys.readouterr().err

    def test_missing_config_exit_code(self, tmp_path, capsys):
        rc = main(["simulate", "--config", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "x")])
        assert rc == 1

    def infeasible(self, tmp_path, cfg_path, capsys, seed, **fields):
        """Exit code and stderr lines of a scenario the cluster cannot hold."""
        scen = write_scenario(tmp_path, total_gpus=4, horizon_days=1, **fields)
        rc = main(["simulate", "--config", cfg_path, "--scenario", scen,
                   "--out", str(tmp_path / "inf"), "--seed", str(seed)])
        return rc, capsys.readouterr().err.splitlines()

    def test_uncapped_overflow_is_configuration_error(
        self, tmp_path, cfg_path, capsys
    ):
        rc, err = self.infeasible(tmp_path, cfg_path, capsys, 5, cap_mode="uncapped",
                                  share_target=1.0, utilization_target=2.0)
        assert rc == 1
        assert err[0] == "configuration error:"
        assert len(err) == 2
        assert err[1].startswith("cap_mode 'uncapped': inference alone needs ")
        assert " GPUs in minute " in err[1]
        assert " over total_gpus 4" in err[1]

    def test_scenario_type_error_exit_code(self, tmp_path, cfg_path, capsys):
        scen = write_scenario(tmp_path, total_gpus="8", horizon_days=1.5)
        rc = main(["simulate", "--config", cfg_path, "--scenario", scen,
                   "--out", str(tmp_path / "bad")])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            "configuration error:",
            "total_gpus must be an integer, got '8'",
            "horizon_days must be an integer, got 1.5",
        ]


class TestSweepCommand:
    def sweep_doc(self, tmp_path, **extra):
        doc = {
            "shares": [0.0, 0.5, 1.0],
            "seeds": [1],
            "scenario": {"total_gpus": 4, "horizon_days": 1,
                         "utilization_target": 0.25},
        }
        doc.update(extra)
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_three_scenarios_three_rows(self, tmp_path, cfg_path):
        out = tmp_path / "sw"
        rc = main(["sweep", "--config", cfg_path,
                   "--scenario", self.sweep_doc(tmp_path), "--out", str(out)])
        assert rc == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert len(lines) == 4
        assert lines[0].startswith(",".join(SWEEP_COLUMNS[:3]))
        ids = [line.split(",")[0] for line in lines[1:]]
        assert ids == sorted(ids)

    def test_parallel_matches_serial(self, tmp_path, cfg_path):
        doc = self.sweep_doc(tmp_path)
        out_serial = tmp_path / "p1"
        out_par = tmp_path / "p3"
        assert main(["sweep", "--config", cfg_path, "--scenario", doc,
                     "--out", str(out_serial), "--parallel", "1"]) == 0
        assert main(["sweep", "--config", cfg_path, "--scenario", doc,
                     "--out", str(out_par), "--parallel", "3"]) == 0
        assert (out_serial / "sweep.csv").read_bytes() == (out_par / "sweep.csv").read_bytes()
        for series in sorted(p.name for p in out_serial.glob("series_*.csv")):
            assert (out_serial / series).read_bytes() == (out_par / series).read_bytes()

    def test_failing_row_populates_error_and_exit_two(self, tmp_path, cfg_path):
        doc = self.sweep_doc(
            tmp_path,
            shares=[0.0, 0.5],
            scenario={"total_gpus": 4, "horizon_days": 1,
                      "utilization_target": 10.0, "cap_mode": "uncapped"},
        )
        out = tmp_path / "fail"
        rc = main(["sweep", "--config", cfg_path, "--scenario", doc,
                   "--out", str(out)])
        assert rc == 2
        lines = (out / "sweep.csv").read_text().splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        by_share = {row["share_target"]: row for row in rows}
        assert by_share["0"]["error"] == ""
        assert by_share["0.5"]["error"] != ""
        assert by_share["0.5"]["cov"] == ""


    def test_row_cells_follow_header(self, tmp_path, cfg_path):
        doc_path = self.sweep_doc(
            tmp_path,
            shares=[0.0, 0.5],
            scenario={"total_gpus": 4, "horizon_days": 1,
                      "utilization_target": 10.0, "cap_mode": "uncapped"},
        )
        out = tmp_path / "layout"
        assert main(["sweep", "--config", cfg_path, "--scenario", doc_path,
                     "--out", str(out)]) == 2
        with open(out / "sweep.csv", encoding="utf-8", newline="") as fh:
            header, *body = list(csv.reader(fh))
        assert tuple(header) == sweep_header(EXTRA_COLUMNS)
        assert [len(row) for row in body] == [len(header)] * 2
        rows = {row[0]: dict(zip(header, row)) for row in body}

        bundle = load_bundle(tiny_doc())
        with open(doc_path, encoding="utf-8") as fh:
            scenarios = expand_grid(json.load(fh), dict(bundle.scenario_defaults))
        by_share = {s.share_target: s for s in scenarios}

        ok = by_share[0.0]
        expected = summarize(run_hybrid(bundle, ok))
        assert rows[ok.scenario_id] == {
            **{column: fmt(value) for column, value in expected.items()},
            "error": "",
        }

        failed = by_share[0.5]
        cells = rows[failed.scenario_id]
        filled = {
            "scenario_id": failed.scenario_id,
            "share_target": "0.5",
            "utilization_target": "10",
            "policy": failed.policy,
            "ckpt_s": fmt(failed.ckpt_seconds),
        }
        assert {c: cells[c] for c in filled} == filled
        assert cells["error"].startswith("ConfigurationError: cap_mode 'uncapped'")
        blank = set(header) - set(filled) - {"error"}
        assert {c: cells[c] for c in blank} == dict.fromkeys(blank, "")


class TestMetricsCommands:
    @pytest.fixture()
    def series_path(self, tmp_path, cfg_path):
        scen = write_scenario(tmp_path, total_gpus=4, horizon_days=1,
                              utilization_target=0.25, share_target=0.5)
        out = tmp_path / "run"
        assert main(["simulate", "--config", cfg_path, "--scenario", scen,
                     "--out", str(out), "--seed", "5"]) == 0
        return str(out / "series.csv")

    def test_metrics_output_lines(self, series_path, capsys):
        assert main(["metrics", series_path, "--ramp-horizons", "1,15"]) == 0
        got = dict(
            line.split("=", 1) for line in capsys.readouterr().out.splitlines()
        )
        assert got["n_minutes"] == "1440"
        assert set(got) == {"n_minutes", "mean_p_total_kw", "cov",
                            "ramp1_med", "ramp15_med"}
        series = read_series_csv(series_path)
        assert float(got["mean_p_total_kw"]) == pytest.approx(
            series["p_total_kw"].mean(), rel=1e-6
        )

    def test_diagnose_output_lines(self, series_path, capsys):
        rc = main(["diagnose", series_path, "--delta-minutes", "60"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("slope=")
        assert "intercept=" in out
        assert "n_pairs=" in out

    def test_diagnose_unknown_column(self, series_path, capsys):
        rc = main(["diagnose", series_path, "--x-column", "bogus"])
        assert rc == 1
        assert "bogus" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["metrics", "{series}", "--ramp-horizons", "0"], "--ramp-horizons"),
            (["metrics", "{series}", "--ramp-horizons", "1,x"], "--ramp-horizons"),
            (["metrics", "{series}", "--ramp-horizons", "1440"], "{series}"),
            (["metrics", "{header_only}"], "{header_only}"),
            (["diagnose", "{series}", "--delta-minutes", "0"], "--delta-minutes"),
            (["diagnose", "{series}", "--delta-minutes", "100000"], "{series}"),
            (["diagnose", "{header_only}"], "{header_only}"),
        ],
    )
    def test_bad_input_is_one_line_configuration_error(
        self, series_path, tmp_path, capsys, argv, named
    ):
        header_only = tmp_path / "header_only.csv"
        header_only.write_text(",".join(SERIES_COLUMNS) + "\n")
        paths = {"series": series_path, "header_only": str(header_only)}
        rc = main([arg.format(**paths) for arg in argv])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        err = captured.err.splitlines()
        assert err[0] == "configuration error:"
        assert len(err) == 2
        assert named.format(**paths) in err[1]
