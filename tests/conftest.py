import pytest
from hypothesis import Phase, settings

from dcpowersim import default_bundle

# Hypothesis's explain phase replays a failing example while tracing every
# line, to annotate the report. It decides no outcome, but it can stretch one
# failure of a @given test to minutes and a gigabyte, so every test runs
# without it.
settings.register_profile("no_explain", phases=[p for p in Phase if p is not Phase.explain])
settings.load_profile("no_explain")


@pytest.fixture(scope="session")
def bundle():
    """One shared default model bundle; treated as read-only."""
    return default_bundle()
