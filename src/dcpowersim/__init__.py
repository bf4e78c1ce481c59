"""Co-simulation of batch training and LLM inference on shared GPUs.

The package generates synthetic workloads from calibrated statistical
models, schedules them on a shared GPU pool with inference priority,
synthesizes minute-level power, and computes grid-facing variability
metrics across workload-composition sweeps.

The top level exports the library surface only; every other name is
imported from its own submodule. Each exported name is loaded from its
submodule on first access (PEP 562), so ``import dcpowersim`` alone
imports no submodule and a command line run compiles only what it uses.
"""

import importlib

__version__ = "0.1.0"

# each exported name and the submodule that owns it
_OWNERS = {
    "ConfigurationError": "errors",
    "HybridResult": "cosim",
    "ModelBundle": "config",
    "Scenario": "cosim",
    "cov": "metrics",
    "daily_profile": "metrics",
    "default_bundle": "defaults",
    "default_bundle_doc": "defaults",
    "load_bundle": "config",
    "ramp_rate": "metrics",
    "run_hybrid": "cosim",
    "run_sweep": "sweep",
    "scenario_from_dict": "cosim",
    "transmission_diagnostic": "metrics",
}

__all__ = list(_OWNERS)


def __getattr__(name: str):
    if name not in _OWNERS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_OWNERS[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
