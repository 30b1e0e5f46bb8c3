import xml.etree.ElementTree as ET

import numpy as np
import pytest

from netgen import chain_spec
from riskmc import (
    ControlObservation,
    Distribution,
    histogram_and_cdf,
    plan,
    plot,
    risk_baselines,
    run_ensemble,
    sensitivity_report,
    sevm_forecast,
    triad,
    validate,
)
from riskmc.errors import ConfigError


@pytest.fixture(scope="module")
def stack(figure3_network):
    net = figure3_network
    ens = run_ensemble(net, 2000, 88)
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
    forecast = sevm_forecast(obs, ens)

    expected_series = {
        "pv": (planned, 1),
        "pdfcdf": (hist, 2),          # bars + cumulative line
        "scatter": (ens, 3),          # cloud + two marginals
        "ci_bars": (rep, 2),          # bars + id labels
        "srb_crb": (base, 2),
        "triad": (triad(obs, ens), 4),     # cloud, 2 median lines, observation
        "sevm": (forecast, 3),        # early, late, observation
    }
    for kind, (report, n_series) in expected_series.items():
        out = tmp_path / f"{kind}.svg"
        plot(report, out)
        assert series_count(out) == n_series, kind


def test_plot_is_deterministic(stack, tmp_path):
    _, ens, _ = stack
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    plot(ens, a)
    plot(ens, b)
    assert a.read_bytes() == b.read_bytes()


def test_constant_sample_pdfcdf(tmp_path):
    hist = histogram_and_cdf(np.full(50, 3.0))
    out = tmp_path / "flat.svg"
    plot(hist, out)
    assert series_count(out) == 2


def test_sevm_deterministic_project_single_color(tmp_path):
    net = validate(chain_spec([Distribution.point(3)] * 2, fixed=5, rate=1))
    ens = run_ensemble(net, 300, 2)
    obs = ControlObservation(t=3.0, ev=0.5 * ens.plan.bac, ac=0.5 * ens.plan.bac)
    forecast = sevm_forecast(obs, ens, k_neighbors=100)
    out = tmp_path / "sevm.svg"
    plot(forecast, out)
    assert series_count(out) == 2  # all-early cloud + observation marker
    assert "finishing late" not in out.read_text()


def test_plot_refuses_a_report_without_a_chart(stack, tmp_path):
    _, ens, _ = stack
    with pytest.raises(TypeError):
        plot(ens.total_cost, tmp_path / "x.svg")
    assert not (tmp_path / "x.svg").exists()


def test_srb_endpoint_matches_sigma(stack, tmp_path):
    # rightmost plotted SRB sample, at the planned end, equals the reported sigma
    _, ens, planned = stack
    base = risk_baselines(ens)
    out = tmp_path / "srb.svg"
    plot(base, out)
    assert base.srb_at(planned.duration) == pytest.approx(base.sigma_duration, rel=1e-6)


@pytest.mark.parametrize("kind", ["pv", "srb_crb"])
def test_grid_points_sample_the_plan(stack, tmp_path, kind):
    _, ens, planned = stack
    data = planned if kind == "pv" else risk_baselines(ens)
    for points in (2, 17, 101):
        out = tmp_path / f"{points}.svg"
        plot(data, out, grid_points=points)
        polyline = ET.parse(out).find(".//{*}polyline")
        assert len(polyline.get("points").split()) == points
    with pytest.raises(ConfigError):
        plot(data, tmp_path / "x.svg", grid_points=1)
    assert not (tmp_path / "x.svg").exists()
