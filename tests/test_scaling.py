"""Scale equivariance: with time scaled by 2**k and money by 2**j
(netgen.scaled_spec), every time output scales by 2**k and every money
output by 2**j, and indices, variance shares, percentile ranks and
neighbours stay put. Powers of two are exact, so the rule is bitwise
wherever no value leaves the normal floats, and every command's printed
values keep it to their nine significant digits."""

import contextlib
import csv
import io
import math
import re

import numpy as np
import pytest

from netgen import random_dag_spec, scaled_spec
from riskmc import cli
from riskmc import (
    ControlObservation,
    control_indices,
    plan as cpm_plan,
    render_project,
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
    free = dict(report_ci=[r.ci for r in reports],
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


@pytest.mark.parametrize("k, j", [(900, 0), (-900, 0), (0, 900), (0, -900), (1000, 1000),
                                  (-1000, -1000)])
def test_outputs_scale_at_the_ends_of_the_float_range(figure3_spec, k, j):
    # where sums pass the float range or products leave the normal floats,
    # values are taken on rescaled runs and round apart by a few ulps
    unit, scaled = outputs(figure3_spec, 0, 0), outputs(figure3_spec, k, j)
    for want, got, shift in zip(unit[:2], scaled[:2], (k, j)):
        for name, value in want.items():
            np.testing.assert_allclose(got[name], np.ldexp(value, shift), rtol=2e-15, atol=0,
                                       err_msg=name)
    for name, value in unit[2].items():
        if name in ("cri", "schedule_shares", "cost_shares"):
            np.testing.assert_allclose(scaled[2][name], value, rtol=0, atol=1e-15, err_msg=name)
        else:
            assert np.asarray(scaled[2][name]).tobytes() == np.asarray(value).tobytes(), name


# -- the CLI -----------------------------------------------------------------

CLI_PAIRS = [(10, -10), (-60, 3), (-500, 450), (900, 0), (0, -900)]
SIM = ["--runs", "2000", "--seed", "3"]
OBSERVE = object()  # stands for the network's observation, scaled like it
COMMANDS = {
    "cpm": ["cpm"],
    "simulate": ["simulate", *SIM],
    "indices-pearson": ["indices", *SIM, "--cri-method", "pearson"],
    "indices-spearman": ["indices", *SIM, "--cri-method", "spearman"],
    "contingency-cost": ["contingency", *SIM, "--percentile", "80", "--dimension", "cost"],
    "contingency-duration": ["contingency", *SIM, "--percentile", "80",
                             "--dimension", "duration"],
    "baseline": ["baseline", *SIM],
    "control": ["control", *SIM, "--observe", OBSERVE],
    "forecast-mean": ["forecast", *SIM, "--observe", OBSERVE, "--estimator", "mean"],
    "forecast-linear": ["forecast", *SIM, "--observe", OBSERVE, "--estimator", "linear"],
    **{f"plot-{kind}": ["plot", *SIM, "--kind", kind, "--observe", OBSERVE]
       for kind in cli.PLOT_KINDS},
}
# the unit of each scaled CSV column, or of each scaled metric of the
# (metric, value) tables: "t" scales by 2**k, "c" by 2**j; every other
# cell (labels, run ids, indices, ranks, percentiles, statuses) is equal
UNITS = {
    "cpm.csv": dict(duration="t", ES="t", EF="t", LS="t", LF="t", total_float="t"),
    "planned_value.csv": dict(t="t", PV="c"),
    "percentiles.csv": dict(duration="t", cost="c"),
    "endpoints.csv": dict(duration="t", cost="c"),
    "sensitivity.csv": dict(sigma_i="t"),
    "baseline.csv": dict(t="t", SRB="t", CRB="c"),
    "neighbors.csv": dict(section_t="t", section_c="c", duration="t", cost="c"),
    "contingency-cost": "c",
    "contingency-duration": "t",
}
METRIC_UNITS = dict(SCoI="t", CCoI="c", schedule_deviation="t", cost_deviation="c",
                    SRB_t="t", CRB_t="c", earned_time="t", EAC_duration="t", EAC_cost="c",
                    duration_p5="t", duration_p95="t", cost_p5="c", cost_p95="c")


def _random_network_and_observation():
    spec = random_dag_spec(np.random.default_rng(11), n_real=8, with_risks=2)
    plan = cpm_plan(validate(spec))
    return spec, (plan.duration / 2, plan.bac / 2, plan.bac * 0.5625)


def run_commands(spec, observed, k, j, root):
    """{command: (exit code, error type, stdout, {file: text})} of every
    command in COMMANDS on `spec` scaled by 2**k in time and 2**j in money,
    observed at `observed` scaled alike, with its files under `root`."""
    t, ev, ac = observed
    observe = f"t={math.ldexp(t, k)!r},ev={math.ldexp(ev, j)!r},ac={math.ldexp(ac, j)!r}"
    project = root / "scaled.project"
    project.write_text(render_project(scaled_spec(spec, k, j)), encoding="utf-8")
    results = {}
    for command, argv in COMMANDS.items():
        out = root / command
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main([observe if a is OBSERVE else a for a in argv]
                            + ["--project", str(project), "--out", str(out)])
        error = stderr.getvalue().partition(":")[0] if code else None
        files = {p.name: p.read_text(encoding="utf-8") for p in sorted(out.glob("*"))}
        results[command] = code, error, stdout.getvalue(), files
    return results


@pytest.fixture(scope="module")
def cli_outputs(figure3_spec, tmp_path_factory):
    """cli_outputs(name, k, j): run_commands on figure3 or the random
    network, each scale run once."""
    networks = {"figure3": (figure3_spec, OBSERVED), "random": _random_network_and_observation()}
    cache = {}

    def outputs(name, k, j):
        if (name, k, j) not in cache:
            cache[name, k, j] = run_commands(*networks[name], k, j,
                                             tmp_path_factory.mktemp("scaled"))
        return cache[name, k, j]
    return outputs


def _assert_scaled(got, want, unit, k, j, where):
    """`got` is `want` scaled by the unit's power of two, within one unit in
    the ninth significant digit (each side is rounded to nine); an unscaled
    cell is equal as text."""
    if unit is None:
        assert got == want, where
        return
    g, w = float(got), math.ldexp(float(want), k if unit == "t" else j)
    assert g == w or abs(g - w) <= 1e-8 * max(abs(g), abs(w)), (where, got, want)


@pytest.mark.parametrize("name", ["figure3", "random"])
@pytest.mark.parametrize("k, j", CLI_PAIRS)
def test_cli_outputs_scale_with_time_and_money(cli_outputs, name, k, j):
    unit, scaled = cli_outputs(name, 0, 0), cli_outputs(name, k, j)
    for command, (code, error, stdout, files) in unit.items():
        got_code, got_error, got_stdout, got_files = scaled[command]
        assert (got_code, got_error) == (code, error), command
        assert got_files.keys() == files.keys(), command
        if command in UNITS:  # the contingency reserve on stdout
            _assert_scaled(got_stdout.strip(), stdout.strip(), UNITS[command], k, j, command)
        else:
            assert got_stdout == stdout, command
        for file, text in files.items():
            if file.endswith(".svg"):
                assert not re.search(r"\b(nan|inf)\b", got_files[file], re.I), (command, file)
                continue
            want_rows = list(csv.reader(io.StringIO(text)))
            got_rows = list(csv.reader(io.StringIO(got_files[file])))
            assert got_rows[0] == want_rows[0] and len(got_rows) == len(want_rows), file
            units = UNITS.get(file, {})
            for got_row, want_row in zip(got_rows[1:], want_rows[1:]):
                for column, got, want in zip(want_rows[0], got_row, want_row):
                    if want_rows[0] == ["metric", "value"] and column == "value":
                        unit_of = METRIC_UNITS.get(want_row[0])
                    else:
                        unit_of = units.get(column)
                    _assert_scaled(got, want, unit_of, k, j, (command, file, want_row[0]))
