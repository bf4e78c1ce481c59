"""Co-simulation of batch training and LLM inference on shared GPUs.

The package generates synthetic workloads from calibrated statistical
models, schedules them on a shared GPU pool with inference priority,
synthesizes minute-level power, and computes grid-facing variability
metrics across workload-composition sweeps.

The top level exports the library surface only; every other name is
imported from its own submodule.
"""

from .config import ModelBundle, load_bundle
from .cosim import HybridResult, Scenario, run_hybrid, scenario_from_dict
from .defaults import default_bundle, default_bundle_doc
from .errors import ConfigurationError
from .metrics import cov, daily_profile, ramp_rate, transmission_diagnostic
from .sweep import run_sweep

__version__ = "0.1.0"

__all__ = [
    "ConfigurationError",
    "HybridResult",
    "ModelBundle",
    "Scenario",
    "cov",
    "daily_profile",
    "default_bundle",
    "default_bundle_doc",
    "load_bundle",
    "ramp_rate",
    "run_hybrid",
    "run_sweep",
    "scenario_from_dict",
    "transmission_diagnostic",
]
