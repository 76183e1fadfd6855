"""Planning, bounding and simulating lossy in-network linear computation
on Gaussian tree networks: distortion-accumulation identities, outer and
inner bounds on the sum rate, rate allocation, and exact/Monte-Carlo
validation, for both single-sink aggregation and all-node consensus.

Every name below is imported from its module on first use (PEP 562), so
``import gausstree`` loads nothing, and numpy is loaded only by what needs
it: the simulator and the numeric allocators.
"""

import sys

_EXPORTS = {
    "allocation": (
        "RateAllocation",
        "allocate_consensus",
        "allocate_consensus_numeric",
        "allocate_equal_incremental",
        "allocate_numeric_penalized",
        "rates_for_profile",
    ),
    "bounds": (
        "BoundsReport",
        "ConsensusProfile",
        "DistortionProfile",
        "derive_distortions",
        "full_report",
        "inner_bound_minimized",
        "line_gap_asymptote",
        "outer_bound_closed_form",
        "outer_bound_incremental",
    ),
    "errors": ("ConsistencyError", "InfeasibleError", "InputError"),
    "infomeasures": ("TestChannelLaw", "test_channel_law"),
    "network": (
        "DirectedEdge",
        "TreeError",
        "TreeNetwork",
        "make_line",
        "parse_tree",
    ),
    "simulator": (
        "AnalyticModel",
        "SimulationConfig",
        "SimulationResult",
        "analytic_mmse_check",
        "simulate_aggregation",
        "simulate_dithered_baseline",
    ),
}

#: The module each exported name comes from.  ``cli`` is not among them:
#: importing it here would make ``python -m gausstree.cli`` warn that the
#: module ran after its package had imported it.
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"


def _module(name: str):
    # __import__, unlike importlib.import_module, is timed by -X importtime.
    __import__(f"{__name__}.{name}")
    return sys.modules[f"{__name__}.{name}"]


def __getattr__(name: str):
    if name in _EXPORTS:
        return _module(name)
    module = _ORIGIN.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_module(module), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_ORIGIN})
