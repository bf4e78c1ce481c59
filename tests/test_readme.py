"""README lists that must match the code they describe."""

import re
from pathlib import Path

import dcpowersim
from dcpowersim.cosim import Scenario

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


def test_top_level_exports_match_all():
    listed = listed_names("The top-level package exports only the library surface:")
    assert sorted(listed) == sorted([*dcpowersim.__all__, "__version__"])
