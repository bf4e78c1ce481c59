import pytest
from hypothesis import Phase, settings
from hypothesis.vendor.pretty import for_type_by_name

from dcpowersim import default_bundle

# Hypothesis's explain phase replays a failing example while tracing every
# line, to annotate the report. It decides no outcome, but it can stretch one
# failure of a @given test to minutes and a gigabyte, so every test runs
# without it.
settings.register_profile("no_explain", phases=[p for p in Phase if p is not Phase.explain])
settings.load_profile("no_explain")

# Hypothesis prints a dataclass argument field by field. The default bundle
# would print as hundreds of kilobytes, and the "overly large repr" warning,
# an error under this suite's warning filter, would replace the falsifying
# example in the report; a short name shows the example instead.
for_type_by_name(
    "dcpowersim.config", "ModelBundle",
    lambda bundle, printer, cycle: printer.text(f"<ModelBundle {bundle.config_hash[:12]}>"),
)


@pytest.fixture(scope="session")
def bundle():
    """One shared default model bundle; treated as read-only."""
    return default_bundle()
