import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskmc import (
    ControlObservation,
    activity_risk_index,
    control_indices,
    enumerate_paths,
    histogram_and_cdf,
    plan,
    risk_baselines,
    run_ensemble,
    sensitivity_report,
    sevm_forecast,
    triad,
)
from riskmc.csvout import (
    _BLOCK,
    MAX_GRID_POINTS,
    baseline_table,
    endpoint_table,
    metric_table,
    neighbor_table,
    percentile_table,
    pv_table,
    tabulate,
    write_csv,
    write_table,
)
from riskmc.errors import ConfigError


@pytest.fixture(scope="module")
def stack(figure3_network):
    ens = run_ensemble(figure3_network, 1000, 55)
    return figure3_network, ens


def _fmt(value) -> str:
    """The per-cell formatter write_csv replaced, kept as its oracle."""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.9g}"
    return str(value)


def _oracle_csv(header, columns) -> str:
    """csv.writer over the oracle's cells, one row at a time."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for k in range(len(columns[0])):
        writer.writerow([_fmt(col[k]) for col in columns])
    return buf.getvalue()


def _csv(header, columns) -> str:
    buf = io.StringIO()
    write_csv(buf, header, columns)
    return buf.getvalue()


def test_number_formatting():
    text = _csv(("f", "b", "i"), (np.array([1.0, 0.123456789123, 1234567891.23]),
                                  np.array([True, False, True]), np.array([3, 0, -4])))
    assert text.splitlines() == [
        "f,b,i",
        "1,1,3",
        "0.123456789,0,0",
        "1.23456789e+09,1,-4",  # 9 significant digits
    ]


FLOATS = st.one_of(st.sampled_from([-0.0, 0.0, 5e-324, 2.5e-310, 1e300, 3.0, -7.0, 1e16]),
                   st.floats())
STRINGS = st.one_of(st.sampled_from([",", '"', "\n", "", 'a "b", c', "\\\"x"]), st.text())
ROWS = (0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ROWS), st.lists(FLOATS, min_size=1, max_size=12),
       st.lists(st.integers(-2**63, 2**63 - 1), min_size=1, max_size=12),
       st.lists(st.booleans(), min_size=1, max_size=12),
       st.lists(STRINGS, min_size=1, max_size=12),
       st.lists(st.integers(0, 255), min_size=1, max_size=12))
def test_write_csv_matches_the_per_cell_oracle(n_rows, floats, ints, bools, strings, octets):
    # each column repeats its drawn cells out to the row count, so blocks
    # start at different offsets into them
    columns = (np.resize(np.array(floats), n_rows),
               np.resize(np.array(ints, dtype=np.int64), n_rows),
               np.resize(np.array(bools), n_rows),
               [strings[k % len(strings)] for k in range(n_rows)],
               np.resize(np.array(octets, dtype=np.uint8), n_rows))
    header = ("float", "int", "bool", "name, quoted", "uint8")
    assert _csv(header, columns).encode() == _oracle_csv(header, columns).encode()


def test_every_table_matches_the_per_cell_oracle(stack):
    net, ens = stack
    baseline = risk_baselines(ens)
    obs = ControlObservation(t=4.0, ev=430.0, ac=445.0)
    forecast = sevm_forecast(obs, ens, k_neighbors=200)
    tables = [
        tabulate(plan(net)),
        tabulate(enumerate_paths(net)),
        tabulate(sensitivity_report(ens)),
        tabulate(activity_risk_index(baseline)),
        tabulate(histogram_and_cdf(ens.total_cost)),
        tabulate(forecast),
        metric_table(control_indices(obs, baseline), triad(obs, ens)),
        pv_table(plan(net), 11),
        baseline_table(baseline, 11),
        percentile_table(ens),
        endpoint_table(ens),
        neighbor_table(forecast),
    ]
    for header, columns in tables:
        assert _csv(header, columns) == _oracle_csv(header, columns), header


def test_sensitivity_export_shape(stack, tmp_path):
    net, ens = stack
    report = sensitivity_report(ens)
    out = tmp_path / "sens.csv"
    write_table(out, *tabulate(report))
    lines = out.read_text().splitlines()
    assert lines[0] == "id,name,CI,CrI,SSI,sigma_i"
    assert len(lines) == 1 + len(net.nodes)


def test_reexport_is_byte_identical(stack, tmp_path):
    _, ens = stack
    report = sensitivity_report(ens)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_table(a, *tabulate(report))
    write_table(b, *tabulate(report))
    assert a.read_bytes() == b.read_bytes()


def test_percentile_table_roundtrip_9_digits(stack):
    _, ens = stack
    header, columns = percentile_table(ens)
    parsed = list(csv.reader(io.StringIO(_csv(header, columns))))
    assert parsed[0] == list(header)
    for raw, row in zip(parsed[1:], zip(*columns), strict=True):
        for got, want in zip(raw[1:], row[1:]):
            assert float(got) == pytest.approx(float(want), rel=1e-8)


def test_quoting_of_awkward_names(tmp_path):
    header = ("id", "name")
    columns = (("A1",), ('embedded "quotes", commas',))
    parsed = list(csv.reader(io.StringIO(_csv(header, columns))))
    assert parsed[1] == ["A1", 'embedded "quotes", commas']


def test_cpm_and_endpoint_tables(stack):
    net, ens = stack
    header, columns = tabulate(plan(net))
    assert header[0] == "id" and len(header) == len(columns)
    assert all(len(col) == len(net.nodes) for col in columns)
    header, columns = endpoint_table(ens)
    assert header == ("run", "duration", "cost")
    assert all(len(col) == ens.n_runs for col in columns)


def test_unknown_report_type_rejected(tmp_path):
    with pytest.raises(TypeError):
        write_table(tmp_path / "x.csv", *tabulate(object()))


@pytest.mark.parametrize("grid_points", [1, MAX_GRID_POINTS + 1, 10**12])
def test_grid_out_of_range_is_a_config_error(stack, grid_points):
    net, ens = stack
    with pytest.raises(ConfigError, match="grid_points must be in"):
        pv_table(plan(net), grid_points)
    with pytest.raises(ConfigError, match="grid_points must be in"):
        baseline_table(risk_baselines(ens), grid_points)
