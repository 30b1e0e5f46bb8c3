"""Output checks for each CLI command of a session.

The checks hold for any seed and survive legitimate numeric changes,
such as a new sampler: they test identities and orderings, never values.
Each returns a list of problems; an empty list means the output passed.
CSV values carry 9 significant digits, which sets the tolerances.
"""

from __future__ import annotations

import csv
import math
import re

REL = 1e-8  # a little above the 5e-9 relative rounding of 9 significant digits


def _table(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _close(a, b, scale):
    return abs(a - b) <= REL * scale


def check(command, out_dir, stdout, stderr, ctx):
    """Problems with one command's output; `ctx` carries facts between commands."""
    try:
        return _CHECKS[command](out_dir, stdout, stderr, ctx)
    except (OSError, ValueError, KeyError, IndexError, AttributeError) as exc:
        return [f"{command}: unreadable output ({type(exc).__name__}: {exc})"]


def _validate(out_dir, stdout, stderr, ctx):
    got = dict(line.split(": ", 1) for line in stdout.splitlines() if ": " in line)
    facts = ctx["facts"]
    problems = []
    if int(got["nodes"]) != facts["nodes"]:
        problems.append(f"validate: {got['nodes']} nodes, generated {facts['nodes']}")
    if int(got["paths"]) != facts["paths"]:
        problems.append(f"validate: {got['paths']} paths, generated {facts['paths']}")
    return problems


def _simulate(out_dir, stdout, stderr, ctx):
    header, rows = _table(out_dir / "percentiles.csv")
    problems = []
    if header != ["percentile", "duration", "cost"]:
        problems.append(f"simulate: percentiles.csv header {header}")
    values = [[float(x) for x in row] for row in rows]
    for col, what in ((1, "duration"), (2, "cost")):
        column = [v[col] for v in values]
        if not all(math.isfinite(x) for x in column):
            problems.append(f"simulate: non-finite {what} percentile")
        if any(b < a for a, b in zip(column, column[1:])):
            problems.append(f"simulate: {what} percentiles decrease")
    p90 = [v[2] for v in values if v[0] == 90.0]
    if len(p90) != 1:
        problems.append("simulate: no single p90 row")
    else:
        ctx["p90_cost"] = p90[0]
    with open(out_dir / "endpoints.csv", "rb") as fh:
        n_rows = sum(1 for _ in fh) - 1
    if n_rows != ctx["runs"]:
        problems.append(f"simulate: endpoints.csv has {n_rows} runs, expected {ctx['runs']}")
    return problems


def _indices(out_dir, stdout, stderr, ctx):
    header, rows = _table(out_dir / "sensitivity.csv")
    col = {name: k for k, name in enumerate(header)}
    problems = []
    if len(rows) != ctx["facts"]["nodes"]:
        problems.append(f"indices: {len(rows)} rows for {ctx['facts']['nodes']} nodes")
    for row in rows:
        ci, cri = float(row[col["CI"]]), float(row[col["CrI"]])
        if not (0.0 <= ci <= 1.0 and 0.0 <= cri <= 1.0):
            problems.append(f"indices: {row[0]} has CI {ci}, CrI {cri} outside [0, 1]")
        if row[0] in ("A0", "Af") and ci != 1.0:
            problems.append(f"indices: dummy {row[0]} has CI {ci}, not 1")
    return problems


def _contingency(out_dir, stdout, stderr, ctx):
    reserve = float(stdout.strip())
    if "p90_cost" not in ctx:
        return ["contingency: no simulate output earlier in the session"]
    expected = ctx["p90_cost"] - ctx["bac"]
    if not _close(reserve, expected, abs(ctx["p90_cost"]) + abs(ctx["bac"])):
        return [f"contingency: {reserve!r} != p90 {ctx['p90_cost']!r} - BAC {ctx['bac']!r}"]
    return []


def _baseline(out_dir, stdout, stderr, ctx):
    problems = []
    _, rows = _table(out_dir / "baseline.csv")
    srb, crb = float(rows[-1][1]), float(rows[-1][2])
    m = re.search(r"sigma duration: (\S+)\s+sigma cost: (\S+)", stderr)
    sd_t, sd_c = float(m.group(1)), float(m.group(2))
    if not _close(srb, sd_t, max(abs(srb), abs(sd_t))):
        problems.append(f"baseline: last SRB {srb!r} != sigma duration {sd_t!r}")
    if not _close(crb, sd_c, max(abs(crb), abs(sd_c))):
        problems.append(f"baseline: last CRB {crb!r} != sigma cost {sd_c!r}")
    _, ari_rows = _table(out_dir / "ari.csv")
    total = math.fsum(float(row[3]) for row in ari_rows)
    if abs(total - 100.0) > 1e-6:
        problems.append(f"baseline: ARI sums to {total!r}, not 100")
    return problems


def _control(out_dir, stdout, stderr, ctx):
    _, rows = _table(out_dir / "control.csv")
    values = dict((row[0], row[1]) for row in rows)
    problems = []
    for key in ("schedule_percentile", "cost_percentile"):
        if not 0.0 <= float(values[key]) <= 100.0:
            problems.append(f"control: {key} {values[key]} outside [0, 100]")
    if values["schedule_status"] not in ("ahead", "on", "delayed"):
        problems.append(f"control: schedule_status {values['schedule_status']!r}")
    if values["cost_status"] not in ("under", "on", "over"):
        problems.append(f"control: cost_status {values['cost_status']!r}")
    return problems


def _forecast(out_dir, stdout, stderr, ctx):
    _, rows = _table(out_dir / "forecast.csv")
    v = {row[0]: float(row[1]) for row in rows}
    problems = []
    for axis in ("duration", "cost"):
        if not v[f"{axis}_p5"] <= v[f"{axis}_p95"]:
            problems.append(f"forecast: {axis} interval {v[f'{axis}_p5']}..{v[f'{axis}_p95']}")
    for key in ("P_late", "P_overrun"):
        if not 0.0 <= v[key] <= 1.0:
            problems.append(f"forecast: {key} {v[key]} outside [0, 1]")
    _, neighbors = _table(out_dir / "neighbors.csv")
    if len(neighbors) != int(v["k"]):
        problems.append(f"forecast: {len(neighbors)} neighbor rows for k = {v['k']:g}")
    return problems


_CHECKS = {
    "validate": _validate,
    "simulate": _simulate,
    "indices": _indices,
    "contingency": _contingency,
    "baseline": _baseline,
    "control": _control,
    "forecast": _forecast,
}
