import xml.etree.ElementTree as ET

import numpy as np
import pytest

from netgen import chain_spec
from riskmc import (
    ControlObservation,
    Distribution,
    SimConfig,
    cross_section,
    histogram_and_cdf,
    plan,
    plot,
    risk_baselines,
    run_ensemble,
    sensitivity_report,
    sevm_forecast,
    validate,
)
from riskmc.control import completion_fraction
from riskmc.errors import ConfigError, ShapeMismatch


@pytest.fixture(scope="module")
def stack(figure3_network):
    net = figure3_network
    ens = run_ensemble(net, SimConfig(n_runs=2000, seed=88))
    planned = plan(net)
    return net, ens, planned


def series_count(path):
    tree = ET.parse(path)  # also proves the file is well-formed XML
    return sum(1 for e in tree.iter() if e.get("class") == "series")


def test_every_kind_renders_valid_svg(stack, tmp_path):
    _, ens, planned = stack
    hist = histogram_and_cdf(ens.total_cost, bins=20)
    base = risk_baselines(ens)
    rep = sensitivity_report(ens)
    obs = ControlObservation(t=4.0, ev=0.5 * ens.plan.bac, ac=0.52 * ens.plan.bac)
    section_t, section_c = cross_section(ens, completion_fraction(obs, ens))
    triad_data = {"section_t": section_t, "section_c": section_c,
                  "observed_t": obs.t, "observed_ac": obs.ac}
    forecast = sevm_forecast(obs, ens)

    expected_series = {
        "pv": (planned, 1),
        "pdfcdf": (hist, 2),          # bars + cumulative line
        "scatter": (ens, 3),          # cloud + two marginals
        "ci_bars": (rep, 2),          # bars + id labels
        "srb_crb": (base, 2),
        "triad": (triad_data, 4),     # cloud, 2 median lines, observation
        "sevm": (forecast, 3),        # early, late, observation
    }
    for kind, (data, n_series) in expected_series.items():
        out = tmp_path / f"{kind}.svg"
        plot(kind, data, out)
        assert series_count(out) == n_series, kind


def test_plot_is_deterministic(stack, tmp_path):
    _, ens, _ = stack
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    plot("scatter", ens, a)
    plot("scatter", ens, b)
    assert a.read_bytes() == b.read_bytes()


def test_constant_sample_pdfcdf(tmp_path):
    hist = histogram_and_cdf(np.full(50, 3.0))
    out = tmp_path / "flat.svg"
    plot("pdfcdf", hist, out)
    assert series_count(out) == 2


def test_sevm_deterministic_project_single_color(tmp_path):
    net = validate(chain_spec([Distribution.point(3)] * 2, fixed=5, rate=1))
    ens = run_ensemble(net, SimConfig(n_runs=300, seed=2))
    obs = ControlObservation(t=3.0, ev=0.5 * ens.plan.bac, ac=0.5 * ens.plan.bac)
    forecast = sevm_forecast(obs, ens, k_neighbors=100)
    out = tmp_path / "sevm.svg"
    plot("sevm", forecast, out)
    assert series_count(out) == 2  # all-early cloud + observation marker
    assert "finishing late" not in out.read_text()


def test_shape_mismatch(stack, tmp_path):
    _, ens, _ = stack
    with pytest.raises(ShapeMismatch):
        plot("pv", ens, tmp_path / "x.svg")
    with pytest.raises(ShapeMismatch):
        plot("nonsense", ens, tmp_path / "x.svg")
    with pytest.raises(ShapeMismatch):
        plot("triad", {"section_t": [1.0]}, tmp_path / "x.svg")
    with pytest.raises(ShapeMismatch):
        plot("triad", {"section_t": [1.0, 2.0], "section_c": [1.0],
                       "observed_t": 1.0, "observed_ac": 1.0}, tmp_path / "x.svg")


def test_srb_endpoint_matches_sigma(stack, tmp_path):
    # rightmost plotted SRB sample, at the planned end, equals the reported sigma
    _, ens, planned = stack
    base = risk_baselines(ens)
    out = tmp_path / "srb.svg"
    plot("srb_crb", base, out)
    assert base.srb_at(planned.duration) == pytest.approx(base.sigma_duration, rel=1e-6)


@pytest.mark.parametrize("kind", ["pv", "srb_crb"])
def test_grid_points_sample_the_plan(stack, tmp_path, kind):
    _, ens, planned = stack
    data = planned if kind == "pv" else risk_baselines(ens)
    for points in (2, 17, 101):
        out = tmp_path / f"{points}.svg"
        plot(kind, data, out, grid_points=points)
        polyline = ET.parse(out).find(".//{*}polyline")
        assert len(polyline.get("points").split()) == points
    with pytest.raises(ConfigError):
        plot(kind, data, tmp_path / "x.svg", grid_points=1)
    assert not (tmp_path / "x.svg").exists()
