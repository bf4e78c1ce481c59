"""README lists that must match the code they describe."""

import json
import re
from pathlib import Path

import pytest

import dcpowersim
from dcpowersim.cli import main
from dcpowersim.config import _SECTIONS
from dcpowersim.cosim import Scenario

from test_cosim import tiny_doc

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def listed_names(marker: str) -> list[str]:
    """Backticked names in the sentence that starts at ``marker``, leaving
    out parenthesized remarks such as a field's allowed values."""
    start = README.index(marker) + len(marker)
    end = re.compile(r"\.\s").search(README, start).start()
    sentence = re.sub(r"\([^)]*\)", "", README[start:end])
    return re.findall(r"`(\w+)`", sentence)


def test_scenario_fields_match_dataclass():
    assert listed_names("Scenario fields:") == list(Scenario.__dataclass_fields__)


def test_bundle_sections_match_loader():
    assert listed_names("six sections:") == list(_SECTIONS)


def test_top_level_exports_match_all():
    listed = listed_names("The top-level package exports only the library surface:")
    assert sorted(listed) == sorted([*dcpowersim.__all__, "__version__"])


def listed_columns(file_name: str) -> list[str]:
    """The backticked names after ``columns`` in the output table's row for
    ``file_name``."""
    row = next(line for line in README.splitlines() if line.startswith(f"| `{file_name}`"))
    return re.findall(r"`(\w+)`", row.split("columns", 1)[1])


@pytest.fixture(scope="module")
def written_out(tmp_path_factory):
    """The output directories of simulate and generate inference, by
    command, for one scenario."""
    tmp = tmp_path_factory.mktemp("readme")
    cfg = tmp / "cfg.json"
    cfg.write_text(json.dumps(tiny_doc()))
    scen = tmp / "scen.json"
    scen.write_text(json.dumps({"total_gpus": 4, "horizon_days": 1}))
    outs = {}
    for command in (["simulate"], ["generate", "inference"]):
        outs[command[-1]] = out = tmp / command[-1]
        args = [*command, "--config", str(cfg), "--scenario", str(scen), "--out", str(out)]
        assert main([*args, "--seed", "1"]) == 0
    return outs


@pytest.mark.parametrize(
    "file_name",
    ["series.csv", "detail.csv", "busy.csv", "trace.csv", "jobs.csv", "requests.csv"],
)
def test_output_columns_match_written_headers(written_out, file_name):
    command = "inference" if file_name == "requests.csv" else "simulate"
    with open(written_out[command] / file_name, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
    assert listed_columns(file_name) == header
