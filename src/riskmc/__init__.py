"""Monte Carlo schedule/cost risk analysis for activity networks.

Model a project as an activity-on-node CPM network with probabilistic
durations and discrete risk events, simulate it reproducibly, and compute
distributions, percentiles, contingency reserves, sensitivity indices
(CI/CrI/SSI), risk baselines (SRB/CRB) with control indices (SCoI/CCoI)
and ARI, Triad percentile control, and SEVM endpoint forecasts.

Each public name loads its module on first use, so parsing and
validating a project never loads numpy.
"""

import importlib

__version__ = "0.1.0"

# public name -> the module that defines it
_HOMES = {
    **dict.fromkeys(("AriReport", "ControlIndices", "ControlObservation", "RiskBaseline",
                     "SevmForecast", "TriadReport", "activity_risk_index",
                     "control_indices", "cross_section", "risk_baselines",
                     "sevm_forecast", "triad"), "control"),
    **dict.fromkeys(("CpmResult", "PathMatrix", "earned_schedule", "enumerate_paths",
                     "forward_backward", "plan"), "cpm"),
    "Distribution": "distributions",
    "RiskMcError": "errors",
    **dict.fromkeys(("SensitivityReport", "contingency_reserve", "sensitivity_report"),
                    "indices"),
    **dict.fromkeys(("Ensemble", "HistogramTable", "histogram_and_cdf", "percentiles",
                     "run_ensemble"), "montecarlo"),
    **dict.fromkeys(("Activity", "ProjectSpec", "RiskEvent", "ValidatedNetwork",
                     "validate"), "network"),
    **dict.fromkeys(("parse_project", "parse_project_text", "render_project"),
                    "projectfile"),
    "plot": "svgplot",
}

__all__ = sorted(_HOMES)


def __getattr__(name):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{home}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(_HOMES))
