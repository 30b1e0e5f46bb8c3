import csv
import io

import pytest

from riskmc import SimConfig, export_csv, plan, run_ensemble, sensitivity_report
from riskmc.csvout import (
    endpoint_table,
    fmt,
    percentile_table,
    rows_to_csv,
    tabulate,
)


@pytest.fixture(scope="module")
def stack(figure3_network):
    ens = run_ensemble(figure3_network, SimConfig(n_runs=1000, seed=55))
    return figure3_network, ens


def test_number_formatting():
    assert fmt(1.0) == "1"
    assert fmt(0.123456789123) == "0.123456789"
    assert fmt(1234567891.23) == "1.23456789e+09"  # 9 significant digits
    assert fmt(True) == "1"
    assert fmt(3) == "3"


def test_sensitivity_export_shape(stack, tmp_path):
    net, ens = stack
    report = sensitivity_report(ens)
    out = tmp_path / "sens.csv"
    export_csv(report, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "id,name,CI,CrI,SSI,sigma_i"
    assert len(lines) == 1 + len(net.nodes)


def test_reexport_is_byte_identical(stack, tmp_path):
    _, ens = stack
    report = sensitivity_report(ens)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    export_csv(report, a)
    export_csv(report, b)
    assert a.read_bytes() == b.read_bytes()


def test_percentile_table_roundtrip_9_digits(stack):
    _, ens = stack
    header, rows = percentile_table(ens)
    text = rows_to_csv(header, rows)
    parsed = list(csv.reader(io.StringIO(text)))
    assert parsed[0] == list(header)
    for raw, row in zip(parsed[1:], rows):
        for got, want in zip(raw[1:], row[1:]):
            assert float(got) == pytest.approx(float(want), rel=1e-8)


def test_quoting_of_awkward_names(tmp_path):
    header = ("id", "name")
    rows = [("A1", 'embedded "quotes", commas')]
    text = rows_to_csv(header, rows)
    parsed = list(csv.reader(io.StringIO(text)))
    assert parsed[1] == ["A1", 'embedded "quotes", commas']


def test_cpm_and_endpoint_tables(stack):
    net, ens = stack
    header, rows = tabulate(plan(net))
    assert header[0] == "id" and len(rows) == len(net.nodes)
    header, rows = endpoint_table(ens)
    assert header == ("run", "duration", "cost")
    assert len(rows) == ens.n_runs


def test_unknown_report_type_rejected(tmp_path):
    with pytest.raises(TypeError):
        export_csv(object(), tmp_path / "x.csv")
