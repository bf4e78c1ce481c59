import concurrent.futures
import csv
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dcpowersim import cli, outputs, sweep
from dcpowersim.cli import main
from dcpowersim.config import canonical_hash, load_bundle
from dcpowersim.cosim import (
    generate_jobs,
    job_power_trace,
    run_hybrid,
    scenario_from_dict,
)
from dcpowersim.defaults import default_bundle_doc
from dcpowersim.outputs import (
    JOB_POWER_COLUMNS,
    SERIES_COLUMNS,
    SWEEP_COLUMNS,
    file_sha256,
    fmt,
    read_series_csv,
    write_job_power_csv,
    write_jobs_csv,
    write_series_csv,
)
from dcpowersim.sweep import expand_grid, summarize

from oracles import ROW_WRITERS, flatten_requests_whole, rows_requests_csv
from test_cosim import parts_a_run_draws, tiny_doc


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


def kernel_texts(column) -> list[str]:
    """Each cell of ``column`` as the CSV writers' numeric kernels render it."""
    kernel, data = outputs._renderer(column)
    cells, used = kernel(data)
    return [bytes(row[mask]).decode() for row, mask in zip(cells, used)]


def float_edges() -> list[float]:
    """Ties at the ninth digit, exact or only in decimal (the double lies
    just above or below, while its product with ten rounds onto the tie), a
    carry into the next decade, each power of ten from 1e-4 to 1e9 with its
    two neighbours, and cells the kernel leaves to the format itself."""
    powers = [float(f"1e{k}") for k in range(-4, 10)]
    near = [float(np.nextafter(p, side)) for p in powers for side in (0.0, np.inf)]
    return [100000000.5, 100000001.5, 56379300.45, 35722124.15, 999999999.5,
            *powers, *near, -0.0, 5e-324, np.inf, -np.inf, np.nan]


class TestNumericKernels:
    """The byte-matrix kernels render every numeric cell exactly as fmt."""

    @given(st.lists(st.floats(), min_size=1, max_size=64))
    @settings(max_examples=300, deadline=None)
    def test_floats(self, values):
        assert kernel_texts(np.array(values)) == [fmt(v) for v in values]

    @given(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=64))
    @settings(deadline=None)
    def test_int64(self, values):
        assert kernel_texts(np.array(values, dtype=np.int64)) == [fmt(v) for v in values]
        assert kernel_texts(values) == [fmt(v) for v in values]

    @given(st.lists(st.booleans(), min_size=1, max_size=16))
    @settings(deadline=None)
    def test_bools(self, values):
        assert kernel_texts(np.array(values)) == [fmt(v) for v in values]
        assert kernel_texts(values) == [fmt(v) for v in values]

    @pytest.mark.parametrize("value", float_edges(), ids=repr)
    def test_float_edges(self, value):
        assert kernel_texts(np.array([value, -value])) == [fmt(value), fmt(-value)]

    @pytest.mark.parametrize(
        "value",
        [-(2**63), -(2**63) + 1, 2**63 - 1, -(10**18), 10**18, 10**18 - 1, 0, True, False,
         2**64, -(2**63) - 1],
        ids=repr,
    )
    def test_int_and_bool_edges(self, value):
        # an int64 or bool array takes the digit kernel, a list of cells
        # (the only way to pass an int beyond int64) the fmt texts
        if -(2**63) <= value < 2**63:
            assert kernel_texts(np.array([value])) == [fmt(value)]
        assert kernel_texts([value]) == [fmt(value)]


class TestSeriesFile:
    def test_round_trip(self, tmp_path):
        result = SimpleNamespace(
            scenario=SimpleNamespace(horizon_minutes=3),
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

    def test_zero_byte_file_has_no_header_row(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_bytes(b"")
        with pytest.raises(ValueError, match="no header row"):
            read_series_csv(path)

    def test_job_power_rows(self, tmp_path):
        path = tmp_path / "job_power.csv"
        write_job_power_csv(path, [3, 4], np.array([0.5, 0.25, 1.0]), np.array([2, 1]))
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(JOB_POWER_COLUMNS)
        assert lines[1:] == ["3,0,0.5", "3,1,0.25", "4,0,1"]

    def test_sweep_header_layout(self):
        header = SWEEP_COLUMNS
        assert header[0] == "scenario_id"
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


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "batch", "--scenario", "{scenario}"],
        ["generate", "inference", "--scenario", "{scenario}"],
        ["simulate", "--scenario", "{scenario}", "--share", "0.5"],
        ["sweep", "--scenario", "{sweep}"],
        ["sweep", "--scenario", "{sweep}", "--parallel", "2"],
    ],
    ids=["generate_batch", "generate_inference", "simulate", "sweep", "sweep_parallel"],
)
def test_manifest_lists_exactly_the_files_written(argv, tmp_path, cfg_path):
    paths = {
        "scenario": write_scenario(tmp_path, total_gpus=4, horizon_days=1),
        "sweep": write_scenario(
            tmp_path, name="sweep.json", shares=[0.0, 0.5, 1.0],
            scenario={"total_gpus": 4, "horizon_days": 1},
        ),
    }
    out = tmp_path / "out"
    argv = [arg.format(**paths) for arg in argv]
    assert main(argv + ["--config", cfg_path, "--seed", "1", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    written = {p.name for p in out.iterdir()} - {"manifest.json"}
    assert written and set(manifest["files"]) == written


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
        for kind, names in (
            ("batch", ("arrivals.csv", "jobs.csv", "job_power.csv", "manifest.json")),
            ("inference", ("requests.csv", "manifest.json")),
        ):
            outs = []
            for name in ("a", "b"):
                out = tmp_path / kind / name
                assert main(["generate", kind, "--config", cfg_path,
                             "--scenario", scen, "--out", str(out), "--seed", "9"]) == 0
                outs.append(out)
            for name in names:
                assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_week_of_jobs_within_four_sigma(self, tmp_path, cfg_path):
        scen = write_scenario(tmp_path, horizon_days=7, total_gpus=4)
        out = tmp_path / "wk"
        assert main(["generate", "batch", "--config", cfg_path,
                     "--scenario", scen, "--out", str(out), "--seed", "1"]) == 0
        n_jobs = (out / "jobs.csv").read_text().count("\n") - 1
        # the scenario's batch GPU-hours (share 0.5 and utilization 0.7 by
        # default, on 4 GPUs for 7 days) over the 2 GPU-hours of every tiny
        # job; Poisson counts: dispersion 0 in the tiny config
        mean = 0.5 * 0.7 * 4 * 7 * 24 / 2.0
        sigma = mean**0.5
        assert abs(n_jobs - mean) <= 4 * sigma

    # job_power.csv pins every job's power trace, template choice, shocks
    # and AR(1) arithmetic; recorded before the traces of all jobs were
    # synthesized in one pass, from the jobs of 3 default-bundle days at
    # unit rate under the scenario id "generate", seed 1
    def test_job_power_digest_pinned(self, tmp_path, bundle):
        scen = scenario_from_dict(
            {"scenario_id": "generate", "horizon_days": 3, "seed": 1},
            bundle.scenario_defaults,
        )
        jobs, _ = generate_jobs(bundle, scen, 1.0)
        write_jobs_csv(tmp_path / "jobs.csv", jobs)
        write_job_power_csv(
            tmp_path / "job_power.csv", [j.job_id for j in jobs],
            *job_power_trace(bundle, jobs, scen.root_seed),
        )
        assert (tmp_path / "jobs.csv").read_text().count("\n") == 401
        assert file_sha256(tmp_path / "job_power.csv") == (
            "8ad5d48834c426c9fcbd20e1f0d48da69dd4d1b9f9c8ba3e4235a1ad8a715dce"
        )

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


class TestGenerateDrawsTheRunsWorkload:
    """``generate`` draws the workload ``simulate`` runs. For one bundle,
    scenario file and seed, ``generate batch`` writes ``simulate``'s
    jobs.csv, and ``generate inference`` writes the rows of the request
    parts ``run_hybrid`` streams. Every scenario field that sizes the
    workload is away from its default."""

    SCENARIO = {"total_gpus": 12, "horizon_days": 1, "share_target": 0.25,
                "utilization_target": 0.9, "verbosity_scale": 1.3, "speed_class": "F"}

    @pytest.mark.parametrize("which", ["default", "tiny"])
    def test_generate_writes_what_the_run_draws(self, tmp_path, cfg_path, bundle, which):
        config = "default"
        if which == "tiny":
            bundle, config = load_bundle(tiny_doc()), cfg_path
        scen = write_scenario(tmp_path, **self.SCENARIO)
        outs = {}
        for command in (["simulate"], ["generate", "batch"], ["generate", "inference"]):
            outs[command[-1]] = out = tmp_path / command[-1]
            assert main([*command, "--config", config, "--scenario", scen,
                         "--seed", "1", "--out", str(out)]) == 0
        jobs = (outs["batch"] / "jobs.csv").read_bytes()
        assert jobs == (outs["simulate"] / "jobs.csv").read_bytes()
        assert jobs.count(b"\n") > 1
        manifests = [json.loads((out / "manifest.json").read_text()) for out in outs.values()]
        assert all(m["scenario"] == manifests[0]["scenario"] for m in manifests)

        scenario = scenario_from_dict({**self.SCENARIO, "seed": 1}, bundle.scenario_defaults)
        assert scenario.root_seed == manifests[0]["scenario"]["derived_seed"]
        drawn = parts_a_run_draws(bundle, scenario)
        assert sum(p.times.size for p in drawn) > 0
        rows_requests_csv(tmp_path / "drawn.csv", [flatten_requests_whole(drawn)])
        requests = (outs["inference"] / "requests.csv").read_bytes()
        assert requests == (tmp_path / "drawn.csv").read_bytes()


class TestSimulateCommand:
    def run(self, tmp_path, cfg_path, out_name, **fields):
        fields = {"total_gpus": 4, "horizon_days": 1, "utilization_target": 0.25, **fields}
        scen = write_scenario(tmp_path, name=f"{out_name}.json", **fields)
        out = tmp_path / out_name
        rc = main(["simulate", "--config", cfg_path, "--scenario", scen,
                   "--out", str(out), "--seed", "5"])
        return rc, out

    @staticmethod
    def metrics(out) -> dict:
        return json.loads((out / "metrics.json").read_text())

    def test_share_zero_no_inference_power(self, tmp_path, cfg_path):
        rc, out = self.run(tmp_path, cfg_path, "s0", share_target=0.0)
        assert rc == 0
        series = read_series_csv(out / "series.csv")
        assert not series["p_inf_kw"].any()
        assert series["p_total_kw"].any()
        # a metric the run cannot give is JSON null, not an empty string
        metrics = self.metrics(out)
        assert metrics["cov_inf"] is None
        assert isinstance(metrics["cov_batch"], float)

    def test_share_one_no_batch_power(self, tmp_path, cfg_path):
        rc, out = self.run(tmp_path, cfg_path, "s1", share_target=1.0)
        assert rc == 0
        series = read_series_csv(out / "series.csv")
        assert not series["p_batch_kw"].any()
        assert not series["g_batch"].any()
        metrics = self.metrics(out)
        assert metrics["cov_batch"] is None
        assert isinstance(metrics["cov_inf"], float)

    def test_zero_horizon_metrics_are_null(self, tmp_path, cfg_path):
        rc, out = self.run(tmp_path, cfg_path, "h0", horizon_days=0)
        assert rc == 0
        metrics = self.metrics(out)
        empty = ["cov", "ramp1_med", "ramp5_med", "ramp15_med", "cov_batch", "cov_inf",
                 "mean_p_total_kw", "share_realized", "utilization_realized"]
        assert {name: metrics[name] for name in empty} == dict.fromkeys(empty)
        assert metrics["unmet_frac"] == 0.0

    def test_rerun_byte_identical(self, tmp_path, cfg_path):
        _, out_a = self.run(tmp_path, cfg_path, "ra", share_target=0.5)
        _, out_b = self.run(tmp_path, cfg_path, "rb", share_target=0.5)
        for name in ("series.csv", "busy.csv", "trace.csv", "jobs.csv",
                     "detail.csv", "metrics.json", "manifest.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_trace_rows_keyed_as_readme_says(self, tmp_path, cfg_path):
        scen = write_scenario(tmp_path, total_gpus=4, horizon_days=1,
                              share_target=0.5, utilization_target=0.75)
        out = tmp_path / "key"
        assert main(["simulate", "--config", cfg_path, "--scenario", scen,
                     "--out", str(out), "--seed", "5"]) == 0
        with open(out / "trace.csv", encoding="utf-8", newline="") as fh:
            rows = [{k: int(v) for k, v in row.items()} for row in csv.DictReader(fh)]
        runs: dict[tuple, list] = {}
        for row in rows:
            runs.setdefault((row["job_id"], row["segment_id"]), []).append(row)
        assert len(runs) < len(rows)  # preempted segments ran again
        keys = {(r["job_id"], r["segment_id"], r["start_s"]) for r in rows}
        assert len(keys) == len(rows)
        by_job: dict[int, set] = {}
        for (job_id, segment_id), seg_runs in runs.items():
            by_job.setdefault(job_id, set()).add(segment_id)
            done = [r for r in seg_runs if r["completed"]]
            last = max(seg_runs, key=lambda r: r["start_s"])
            assert done in ([], [last])
        assert all(ids == set(range(len(ids))) for ids in by_job.values())

    # series.csv digests recorded before batch power was added up in chunks;
    # any change to the order of floating-point additions changes them
    @pytest.mark.parametrize(
        "ckpt, digest",
        [
            (100.0, "bd80451c90deef30c88471bb2ace13b4bec727a268fc1d20b2686a56d002431c"),
            (float("inf"),
             "b6b09f69b2735d79f4eae70e88f27dfa4fd5334c934d3d2c8e47ce7774991128"),
        ],
        ids=["ckpt_100", "ckpt_inf"],
    )
    def test_series_digest_pinned(self, tmp_path, cfg_path, ckpt, digest):
        out = self.pinned_run(tmp_path, cfg_path, ckpt)
        assert file_sha256(out / "series.csv") == digest

    # trace.csv pins every scheduler decision and requests.csv every token
    # draw; recorded before the backfill scan kept running segments in end
    # order and before token draws went through a guide table, when
    # simulate wrote the request log that generate inference now writes
    @pytest.mark.parametrize(
        "ckpt, name, digest",
        [
            (100.0, "trace.csv",
             "890d6e3cf4ffa8456c3a59085db78c07688d6a18c975dc55b8ea8d8782e1dd1d"),
            (float("inf"), "trace.csv",
             "983eba0297154ad302ffc6de4242d17e4a0b31e4b397d488c43a57631c5ac635"),
            (100.0, "requests.csv",
             "b885005574e1375ed73a4171f791a724456fd67f959e18df71921d020560521d"),
        ],
        ids=["trace_ckpt_100", "trace_ckpt_inf", "requests"],
    )
    def test_trace_and_requests_digest_pinned(self, tmp_path, cfg_path, ckpt, name, digest):
        command = ["generate", "inference"] if name == "requests.csv" else ["simulate"]
        out = self.pinned_run(tmp_path, cfg_path, ckpt, command)
        assert file_sha256(out / name) == digest

    @pytest.fixture(scope="class")
    def default_bundle_run(self, tmp_path_factory) -> Path:
        """The outputs of a 12-GPU, one-day default-bundle run at seed 1,
        and the request log ``generate inference`` writes for it."""
        tmp_path = tmp_path_factory.mktemp("parts")
        scen = write_scenario(tmp_path, total_gpus=12, horizon_days=1)
        out = tmp_path / "parts"
        for command in (["simulate"], ["generate", "inference"]):
            assert main([*command, "--config", "default", "--scenario", scen,
                         "--out", str(out / command[-1]), "--seed", "1"]) == 0
        return out

    # the tiny bundle has one group and one template; this run's 13191
    # requests span all 35 (group, template) pairs of the default bundle
    def test_requests_digest_pinned_across_parts(self, default_bundle_run):
        out = default_bundle_run / "inference"
        with open(out / "requests.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 13191
        assert len({(r["group"], r["template"]) for r in rows}) == 35
        assert file_sha256(out / "requests.csv") == (
            "10b3e7c607f8bf5164106985bb096f2708119542c95c0ee79a1ad702cdd456ea"
        )

    # the same run's other files, recorded while every cell was still
    # rendered one at a time in Python
    @pytest.mark.parametrize(
        "name, digest",
        [
            ("series.csv", "323a0189686147368690c4d8fbdb4d65ba6c947faa7f6f21265007b7d4a9f5e6"),
            ("detail.csv", "3bdf7e4f26b4394e118ac766cfe83034bdc88874d468028a627c402e35a56745"),
            ("busy.csv", "523803afec3142d875aa2b522208c0d57c60d7060fe75d5d0d7ae705665ffe7e"),
            ("jobs.csv", "6068f6211e4e3099b518e1b50a954911f3425ca518f0e01e6fde56f6cb0a4dee"),
        ],
        ids=["series", "detail", "busy", "jobs"],
    )
    def test_default_bundle_digest_pinned(self, default_bundle_run, name, digest):
        assert file_sha256(default_bundle_run / "simulate" / name) == digest

    def pinned_run(self, tmp_path, cfg_path, ckpt, command=("simulate",)) -> Path:
        scen = write_scenario(tmp_path, total_gpus=4, horizon_days=1, share_target=0.5,
                              utilization_target=0.75, ckpt_seconds=ckpt)
        out = tmp_path / "pinned"
        assert main([*command, "--config", cfg_path, "--scenario", scen,
                     "--out", str(out), "--seed", "5"]) == 0
        return out

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

    def test_infinite_checkpoints_write_strict_json(self, tmp_path, cfg_path):
        rc, out = self.run(tmp_path, cfg_path, "nockpt", ckpt_seconds=float("inf"))
        assert rc == 0

        def reject(constant):
            raise ValueError(f"not strict JSON: {constant}")

        docs = {
            name: json.loads((out / name).read_text(), parse_constant=reject)
            for name in ("metrics.json", "manifest.json")
        }
        assert docs["metrics.json"]["ckpt_s"] == "inf"
        assert docs["manifest.json"]["scenario"]["ckpt_seconds"] == "inf"

    def test_huge_checkpoint_interval_runs_like_infinite(self, tmp_path, cfg_path):
        # 1e19 s lies past the int64 range; like inf, it never checkpoints
        outs = []
        for name, ckpt in (("huge", 1e19), ("never", float("inf"))):
            rc, out = self.run(tmp_path, cfg_path, name, share_target=0.5, ckpt_seconds=ckpt)
            assert rc == 0
            outs.append(out)
        huge, never = outs
        for name in ("series.csv", "busy.csv", "trace.csv", "jobs.csv", "detail.csv"):
            assert (huge / name).read_bytes() == (never / name).read_bytes(), name
        metrics = [json.loads((out / "metrics.json").read_text()) for out in outs]
        assert [m.pop("ckpt_s") for m in metrics] == [1e19, "inf"]
        assert metrics[0] == metrics[1]

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

    def test_seed_flag_fills_absent_seeds_axis(self, tmp_path, cfg_path):
        doc = json.loads(Path(self.sweep_doc(tmp_path, shares=[0.5])).read_text())
        del doc["seeds"]
        path = tmp_path / "noseeds.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "seeded"
        assert main(["sweep", "--config", cfg_path, "--scenario", str(path),
                     "--out", str(out), "--seed", "7"]) == 0
        with open(out / "sweep.csv", encoding="utf-8", newline="") as fh:
            assert [row["scenario_id"] for row in csv.DictReader(fh)] == [
                "sh0.5_ut0.25_seed7"
            ]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["scenario"]["sweep"]["seeds"] == [7]

    def test_bundle_loaded_once(self, tmp_path, cfg_path, monkeypatch):
        calls = []

        def counting(source):
            calls.append(source)
            return load_bundle(source)

        for module in ("cli", "sweep"):
            monkeypatch.setattr(f"dcpowersim.{module}.load_bundle", counting)
        rc = main(["sweep", "--config", cfg_path,
                   "--scenario", self.sweep_doc(tmp_path), "--out", str(tmp_path)])
        assert rc == 0
        assert len(calls) == 1
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config_hash"] == canonical_hash(tiny_doc())

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

    def test_parallel_workers_capped_at_grid_size(self, tmp_path, cfg_path, monkeypatch):
        widths = []

        class InlineExecutor:
            """Records the pool width and runs each task in this process."""

            def __init__(self, max_workers):
                widths.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        # run_sweep imports the pool class from its module when it starts workers
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlineExecutor)
        assert main(["sweep", "--config", cfg_path, "--scenario", self.sweep_doc(tmp_path),
                     "--out", str(tmp_path / "capped"), "--parallel", "8"]) == 0
        assert widths == [3]

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
        assert tuple(header) == SWEEP_COLUMNS
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


def awkward_names_doc() -> dict:
    """The tiny bundle with a comma and a double quote in its group names and
    template id, so csv quotes those cells."""
    text = json.dumps(tiny_doc())
    for old, new in (("tiny", 'ti,ny "b"'), ("req", 're"q,\nx'), ("T", 'T,"1"')):
        text = text.replace(json.dumps(old), json.dumps(new))
    return json.loads(text)


def multi_line_failure(bundle, scenario):
    """Stands in for run_hybrid: fails at share 0.5, with an error text that
    spans lines and holds a comma and a double quote."""
    if scenario.share_target == 0.5:
        raise RuntimeError('first line, "quoted"\nsecond line')
    return run_hybrid(bundle, scenario)


def test_row_reference_covers_every_csv_writer():
    names = {n for n in dir(outputs) if n.startswith("write_") and n.endswith("_csv")}
    assert set(ROW_WRITERS) == names


class TestWritersMatchRowReference:
    """Every package CSV writer writes the bytes of the per-row reference in
    oracles.py, over one chunk and over many."""

    @pytest.fixture(params=[None, 3], ids=["one_chunk", "chunks_of_3"], autouse=True)
    def chunk_rows(self, request, monkeypatch):
        if request.param is not None:
            monkeypatch.setattr(outputs, "_CHUNK_ROWS", request.param)

    def both(self, monkeypatch, tmp_path, argv) -> dict[str, bytes]:
        """Run ``argv`` with the package writers and with the reference ones;
        the two output trees must be equal, manifest.json included."""
        trees = []
        for name, writers in (("columnar", {}), ("reference", ROW_WRITERS)):
            out = tmp_path / name
            with monkeypatch.context() as m:
                for attr, writer in writers.items():
                    for module in (cli, sweep):
                        if hasattr(module, attr):
                            m.setattr(module, attr, writer)
                main(argv + ["--out", str(out)])
            trees.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert trees[0] == trees[1]
        return trees[0]

    def run(self, monkeypatch, tmp_path, command, doc, share) -> dict[str, bytes]:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        scen = write_scenario(
            tmp_path, total_gpus=4, horizon_days=1, utilization_target=0.75,
            share_target=share,
        )
        argv = [*command, "--config", str(cfg), "--scenario", scen, "--seed", "5"]
        return self.both(monkeypatch, tmp_path / command[-1], argv)

    def test_simulate(self, monkeypatch, tmp_path):
        tree = self.run(monkeypatch, tmp_path, ["simulate"], tiny_doc(), 0.5)
        assert all(tree[name].count(b"\n") > 4 for name in tree if name.endswith(".csv"))
        completed = {row.rsplit(b",", 1)[1] for row in tree["trace.csv"].splitlines()[1:]}
        assert completed == {b"0", b"1"}

    def test_share_zero_writes_no_requests(self, monkeypatch, tmp_path):
        tree = self.run(monkeypatch, tmp_path, ["generate", "inference"], tiny_doc(), 0.0)
        assert tree["requests.csv"] == b"timestamp_s,group,template,tokens\n"

    def test_share_one_writes_no_jobs(self, monkeypatch, tmp_path):
        tree = self.run(monkeypatch, tmp_path, ["simulate"], tiny_doc(), 1.0)
        assert tree["jobs.csv"].count(b"\n") == 1
        assert tree["trace.csv"].count(b"\n") == 1

    def test_quoted_names(self, monkeypatch, tmp_path):
        tree = self.run(monkeypatch, tmp_path, ["simulate"], awkward_names_doc(), 0.5)
        assert b'"ti,ny ""b"""' in tree["jobs.csv"]
        tree = self.run(
            monkeypatch, tmp_path, ["generate", "inference"], awkward_names_doc(), 0.5
        )
        assert b'"re""q,\nx","T,""1"""' in tree["requests.csv"]

    @pytest.mark.parametrize("days", [0, 1])
    def test_generate_batch(self, monkeypatch, tmp_path, cfg_path, days):
        scen = write_scenario(tmp_path, total_gpus=4, horizon_days=days)
        argv = ["generate", "batch", "--config", cfg_path, "--scenario", scen,
                "--seed", "1"]
        tree = self.both(monkeypatch, tmp_path, argv)
        names = ("arrivals.csv", "jobs.csv", "job_power.csv")
        lines = [tree[name].count(b"\n") for name in names]
        if days == 0:
            assert lines == [1, 1, 1]  # header only
        else:
            assert min(lines) > 4

    def test_empty_sweep(self, monkeypatch, tmp_path, cfg_path):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"shares": [], "seeds": [1]}))
        argv = ["sweep", "--config", cfg_path, "--scenario", str(grid)]
        tree = self.both(monkeypatch, tmp_path, argv)
        assert tree["sweep.csv"] == (",".join(SWEEP_COLUMNS) + "\n").encode()

    def test_sweep_with_empty_cells_and_multi_line_error(
        self, monkeypatch, tmp_path, cfg_path
    ):
        monkeypatch.setattr(sweep, "run_hybrid", multi_line_failure)
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({
            "shares": [0.0, 0.5, 1.0], "seeds": [1],
            "scenario": {"total_gpus": 4, "horizon_days": 1, "utilization_target": 0.25},
        }))
        argv = ["sweep", "--config", cfg_path, "--scenario", str(grid)]
        tree = self.both(monkeypatch, tmp_path, argv)
        reader = csv.DictReader(tree["sweep.csv"].decode().splitlines(True))
        by_share = {row["share_target"]: row for row in reader}
        assert by_share["0"]["cov_inf"] == ""
        assert by_share["0.5"]["error"] == 'RuntimeError: first line, "quoted"\nsecond line'


# stands for an input path that is a directory, not a file
DIRECTORY = object()


def zero_rate_bundle() -> str:
    """The default bundle as JSON with every batch and inference log rate at
    -1000, so each side's expected work underflows to zero."""
    doc = default_bundle_doc()
    for group in doc["batch_arrivals"]["groups"].values():
        group["daytype_log_mean"] = dict.fromkeys(group["daytype_log_mean"], -1000.0)
    for group in doc["inference_arrivals"]["groups"].values():
        for key in ("log_rate_weekday", "log_rate_weekend"):
            group[key] = [-1000.0] * len(group[key])
    return json.dumps(doc)


ZERO_RATES = zero_rate_bundle()


class TestBadInputFiles:
    """Malformed or wrong-typed input files end in one configuration error."""

    @staticmethod
    def default_with(*path_and_value):
        """The default bundle as JSON with the field at ``path`` replaced."""
        *keys, last, value = path_and_value
        doc = default_bundle_doc()
        node = doc
        for key in keys:
            node = node[key]
        node[last] = value
        return json.dumps(doc)

    @pytest.mark.parametrize(
        "command, flag, content",
        [
            ("simulate", "--config", '{"schema_version": 1,'),
            ("simulate", "--config", "[1, 2]"),
            ("simulate", "--config",
             ("batch_arrivals", "groups", "low", "dispersion", "x")),
            ("simulate", "--config",
             ("llm_templates", "templates", 0, "max_batch", "x")),
            ("simulate", "--config",
             ("batch_jobs", "groups", "low", "time_limits", 0, "limit_s", None)),
            ("simulate", "--config", ("tokens", [])),
            ("simulate", "--config", ("scenario_defaults", "x")),
            ("sweep", "--scenario", '{"shares": ["x"]}'),
            ("sweep", "--scenario", '{"shares": 0.5}'),
            ("simulate", "--scenario", '{"timezones": {"offsets_hours": "x"}}'),
            ("simulate", "--config", DIRECTORY),
            ("simulate", "--scenario", DIRECTORY),
            ("metrics", "series", DIRECTORY),
            ("simulate", "--config", b"\xff\xfe{\x00}\x00"),
            ("simulate", "--config",
             ("batch_jobs", "groups", "low", "time_limits", 0, "gpus", 0, "gpus", 0)),
            ("simulate --share 0.5", "--config", ZERO_RATES),
        ],
        ids=[
            "malformed-json",
            "bundle-list",
            "dispersion-string",
            "max-batch-string",
            "limit-null",
            "section-list",
            "defaults-string",
            "grid-share-string",
            "grid-axis-scalar",
            "timezones-string",
            "config-directory",
            "scenario-directory",
            "series-directory",
            "config-utf16-bytes",
            "gpu-count-zero",
            "zero-expected-work",
        ],
    )
    def test_bad_file_is_configuration_error(
        self, tmp_path, capsys, command, flag, content
    ):
        path = tmp_path / "input.json"
        if content is DIRECTORY:
            path.mkdir()
        elif isinstance(content, bytes):
            path.write_bytes(content)
        else:
            if isinstance(content, tuple):
                content = self.default_with(*content)
            path.write_text(content)
        if flag == "series":
            argv = [command, str(path)]
        else:
            config = str(path) if flag == "--config" else "default"
            argv = command.split() + ["--config", config, "--out", str(tmp_path / "out")]
        if flag == "--scenario":
            argv += ["--scenario", str(path)]
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("configuration error")
        assert "Traceback" not in err
        if content is DIRECTORY or isinstance(content, bytes):
            assert str(path) in err
        if content is ZERO_RATES:
            assert err.splitlines()[1:] == [
                "batch work targeted but expected base work is zero",
                "inference work targeted but expected base work is zero",
            ]

    def test_infinite_utilization_flag(self, tmp_path, capsys):
        rc = main(["simulate", "--config", "default", "--utilization", "inf",
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            "configuration error:",
            "utilization_target must be positive and finite, got inf",
        ]


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
            (["metrics", "{torn}"], "{torn}"),
            (["diagnose", "{torn}"], "{torn}"),
            (["metrics", "{nan}"], "{nan}: not a numeric CSV: line 501 has a non-finite cell"),
            (["diagnose", "{nan}"], "{nan}: not a numeric CSV: line 501 has a non-finite cell"),
            (["metrics", "{empty}"], "{empty}: not a numeric CSV: no header row"),
            (["diagnose", "{empty}"], "{empty}: not a numeric CSV: no header row"),
            (["simulate", "--config", "default", "--policy", "BAD", "--out", "{out}"],
             "unknown policy 'BAD', expected one of ('FCFS_BACKFILL', 'SWF')"),
            (["simulate", "--config", "default", "--speed-class", "Q", "--out", "{out}"],
             "speed_class must be one of ('F', 'M', 'S'), got 'Q'"),
            # a cell that is not a number is named by its line, 1_000 too,
            # which float() reads but the series parser does not
            (["metrics", "{abc}"], "{abc}: not a numeric CSV: line 52 has a cell that is not a number"),
            (["diagnose", "{underscore}"],
             "{underscore}: not a numeric CSV: line 52 has a cell that is not a number"),
            # integers too large for any float are not finite
            (["simulate", "--config", "default", "--scenario", "{huge_util}", "--out", "{out}"],
             "utilization_target must be positive and finite, got 1000"),
            (["simulate", "--config", "default", "--scenario", "{huge_verbosity}",
              "--out", "{out}"], "verbosity_scale must be positive and finite, got 1000"),
            (["sweep", "--config", "default", "--scenario", "{huge_grid}", "--out", "{out}"],
             "utilization_target must be positive and finite, got 1000"),
        ],
    )
    def test_bad_input_is_one_line_configuration_error(
        self, series_path, tmp_path, capsys, argv, named
    ):
        header_only = tmp_path / "header_only.csv"
        header_only.write_text(",".join(SERIES_COLUMNS) + "\n")
        empty = tmp_path / "empty.csv"
        empty.write_bytes(b"")
        lines = Path(series_path).read_text().splitlines()
        # a p_total_kw cell on line 501 that parses as a float but is not a number
        nan = tmp_path / "nan.csv"
        cells = lines[500].split(",")
        nan.write_text("\n".join([*lines[:500], ",".join([cells[0], "nan", *cells[2:]]),
                                  *lines[501:]]) + "\n")
        # a p_total_kw cell on line 52 that is not a number at all, and one
        # that float() reads as 1000 but the series parser rejects
        extra = {}
        for name, text in (("abc", "abc"), ("underscore", "1_000")):
            cells = lines[51].split(",")
            extra[name] = tmp_path / f"{name}.csv"
            extra[name].write_text("\n".join([*lines[:51], ",".join([cells[0], text, *cells[2:]]),
                                              *lines[52:]]) + "\n")
        huge = 10**400
        extra["huge_util"] = write_scenario(tmp_path, "util.json", utilization_target=huge)
        extra["huge_verbosity"] = write_scenario(tmp_path, "verb.json", verbosity_scale=huge)
        extra["huge_grid"] = write_scenario(tmp_path, "grid.json", utilizations=[huge])
        # one row cut short: its columns would come out shorter than the rest
        lines[701] = ",".join(lines[701].split(",")[:4])
        torn = tmp_path / "torn.csv"
        torn.write_text("\n".join(lines) + "\n")
        paths = {"series": series_path, "header_only": str(header_only), "torn": str(torn),
                 "nan": str(nan), "empty": str(empty), "out": str(tmp_path / "out"),
                 **{name: str(path) for name, path in extra.items()}}
        rc = main([arg.format(**paths) for arg in argv])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        err = captured.err.splitlines()
        assert err[0] == "configuration error:"
        assert len(err) == 2
        assert named.format(**paths) in err[1]
