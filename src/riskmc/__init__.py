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
    PlannedValueCurve,
    earned_schedule,
    enumerate_paths,
    forward_backward,
    plan,
    planned_value_curve,
)
from .csvout import export_csv
from .distributions import Distribution, mean
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
    expand_duration_risk,
    validate,
)
from .projectfile import parse_project, parse_project_text, render_project
from .svgplot import plot

__version__ = "0.1.0"

__all__ = [
    "Activity", "AriReport", "ControlIndices", "ControlObservation", "CpmResult",
    "Distribution", "Ensemble", "HistogramTable", "PathMatrix", "PlannedValueCurve",
    "ProjectSpec", "RiskBaseline", "RiskEvent", "RiskMcError", "SensitivityReport",
    "SevmForecast", "SimConfig", "TriadReport", "ValidatedNetwork",
    "activity_risk_index", "contingency_reserve", "control_indices",
    "criticality_index", "cross_section", "cruciality_index", "earned_schedule",
    "empirical_percentile", "enumerate_paths", "expand_duration_risk", "export_csv",
    "forward_backward", "histogram_and_cdf", "mean", "parse_project",
    "parse_project_text", "plan", "planned_value_curve", "plot", "render_project",
    "risk_baselines", "run_ensemble", "schedule_sensitivity_index",
    "sensitivity_report", "sevm_forecast", "triad", "validate",
]
