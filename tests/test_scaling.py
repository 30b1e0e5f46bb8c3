"""Scale equivariance: with time scaled by 2**k and money by 2**j
(netgen.scaled_spec), every time output scales by 2**k and every money
output by 2**j, and indices, variance shares, percentile ranks and
neighbours stay put. Powers of two are exact, so the rule is bitwise
wherever no value leaves the normal floats."""

import math

import numpy as np
import pytest

from netgen import scaled_spec
from riskmc import (
    ControlObservation,
    control_indices,
    criticality_index,
    risk_baselines,
    run_ensemble,
    sensitivity_report,
    sevm_forecast,
    triad,
    validate,
)

OBSERVED = (4.0, 430.0, 445.0)  # figure3's control instant: t, EV, AC


def outputs(spec, k, j):
    """(time, money, scale-free) outputs of `spec` at 2**k in time and 2**j
    in money, 2000 runs at seed 3, observed at OBSERVED scaled alike."""
    ens = run_ensemble(validate(scaled_spec(spec, k, j)), 2000, 3)
    t, ev, ac = OBSERVED
    obs = ControlObservation(t=math.ldexp(t, k), ev=math.ldexp(ev, j), ac=math.ldexp(ac, j))
    base = risk_baselines(ens)
    budget = control_indices(obs, base)
    tri = triad(obs, ens)
    reports = [sensitivity_report(ens, method) for method in ("pearson", "spearman")]
    forecasts = [sevm_forecast(obs, ens, estimator=e) for e in ("mean", "linear")]
    time = dict(totals=ens.total_duration, sigma=base.sigma_duration,
                node_sigma=reports[0].sigma, scoi=budget.scoi, triad=tri.section_t,
                eac=[f.eac_duration for f in forecasts])
    money = dict(totals=ens.total_cost, sigma=base.sigma_cost, ccoi=budget.ccoi,
                 triad=tri.section_c, eac=[f.eac_cost for f in forecasts])
    free = dict(ci=criticality_index(ens), report_ci=[r.ci for r in reports],
                cri=[r.cri for r in reports], ssi=[r.ssi for r in reports],
                schedule_shares=base.schedule_shares, cost_shares=base.cost_shares,
                percentiles=[tri.schedule_percentile, tri.cost_percentile],
                neighbours=[f.neighbor_runs for f in forecasts])
    return time, money, free


@pytest.mark.parametrize("k, j", [(10, -10), (-500, 450), (-60, 3)])
def test_outputs_scale_with_time_and_money_bit_for_bit(figure3_spec, k, j):
    unit, scaled = outputs(figure3_spec, 0, 0), outputs(figure3_spec, k, j)
    for want, got, shift in zip(unit, scaled, (k, j, 0)):
        for name, value in want.items():
            expected = np.ldexp(value, shift) if shift else np.asarray(value)
            assert np.asarray(got[name]).tobytes() == expected.tobytes(), (name, shift)
