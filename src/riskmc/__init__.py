"""Monte Carlo schedule/cost risk analysis for activity networks.

Model a project as an activity-on-node CPM network with probabilistic
durations and discrete risk events, simulate it reproducibly, and compute
distributions, percentiles, contingency reserves, sensitivity indices
(CI/CrI/SSI), risk baselines (SRB/CRB) with control indices (SCoI/CCoI)
and ARI, Triad percentile control, and SEVM endpoint forecasts.
"""

from .control import (
    AriReport,
    ControlIndices,
    ControlObservation,
    RiskBaseline,
    SevmForecast,
    TriadReport,
    activity_risk_index,
    control_indices,
    cross_section,
    risk_baselines,
    sevm_forecast,
    triad,
)
from .cpm import (
    CpmResult,
    PathMatrix,
    earned_schedule,
    enumerate_paths,
    forward_backward,
    plan,
)
from .distributions import Distribution
from .errors import RiskMcError
from .indices import (
    SensitivityReport,
    contingency_reserve,
    criticality_index,
    cruciality_index,
    schedule_sensitivity_index,
    sensitivity_report,
)
from .montecarlo import (
    Ensemble,
    HistogramTable,
    SimConfig,
    empirical_percentile,
    histogram_and_cdf,
    run_ensemble,
)
from .network import (
    Activity,
    ProjectSpec,
    RiskEvent,
    ValidatedNetwork,
    validate,
)
from .projectfile import parse_project, parse_project_text, render_project

__version__ = "0.1.0"

__all__ = [
    "Activity", "AriReport", "ControlIndices", "ControlObservation", "CpmResult",
    "Distribution", "Ensemble", "HistogramTable", "PathMatrix", "ProjectSpec",
    "RiskBaseline", "RiskEvent", "RiskMcError", "SensitivityReport",
    "SevmForecast", "SimConfig", "TriadReport", "ValidatedNetwork",
    "activity_risk_index", "contingency_reserve", "control_indices",
    "criticality_index", "cross_section", "cruciality_index", "earned_schedule",
    "empirical_percentile", "enumerate_paths", "forward_backward", "histogram_and_cdf",
    "parse_project", "parse_project_text", "plan", "plot", "render_project",
    "risk_baselines", "run_ensemble", "schedule_sensitivity_index",
    "sensitivity_report", "sevm_forecast", "triad", "validate",
]


def __getattr__(name):
    # the SVG renderer loads on first use, since most commands draw nothing
    if name == "plot":
        from .svgplot import plot
        return plot
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
