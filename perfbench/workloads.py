"""Seeded synthetic projects and the CLI session each workload runs.

This is the benchmark's own copy of the random-network generator, so an
edit to the test helpers can never change a workload silently. The
generator writes the project text itself (the canonical format that
``riskmc.projectfile.render_project`` produces); riskmc only ever sees
the rendered ``.project`` file and the CLI flags.

Every law kind, risk kind and layer size is an exact count per workload,
and only the parameters, costs and edges vary with the seed. The cost of
a session then depends on the seed only through the path count and the
normal-law redraws, which keeps the spread between seeds small.
"""

from __future__ import annotations

import itertools
import math
import zlib
from dataclasses import dataclass

import numpy as np

LAWS = ("point", "discrete", "uniform", "triangular", "normal", "pert")
DYADIC = [0.25 * k for k in range(1, 33)]  # exact in float64, all > 0
DYADIC_PROBS = [(0.5, 0.5), (0.25, 0.75), (0.25, 0.25, 0.5)]
IMPACT_LAWS = ("uniform", "triangular", "pert", "discrete")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    activities: int          # real activities, besides the dummy start and end
    width: int               # activities per layer of the DAG
    extra_pred: float        # share of activities with a second predecessor
    law_mix: dict            # law kind -> number of activities with it
    duration_risks: int
    cost_risks: int
    runs: int
    workers: int
    session: tuple           # CLI commands, in order
    load: dict               # module -> expected share of the traced self time


WORKLOADS = {w.name: w for w in (
    Workload(
        name="many-runs",
        why="few nodes and many runs: per-draw sampling, PERT inverse CDF, "
            "the trajectory grid and the endpoint CSV dominate",
        activities=10, width=3, extra_pred=0.3,
        law_mix={"pert": 3, "triangular": 2, "uniform": 2, "normal": 1,
                 "discrete": 1, "point": 1},
        duration_risks=1, cost_risks=1,
        runs=50_000, workers=1,
        session=("simulate", "indices", "baseline", "contingency"),
        load={"projectfile": "light", "network": "light", "cpm": "light",
              "distributions": "heavy", "montecarlo": "heavy", "indices": "light",
              "control": "light (baseline only)", "csvout": "moderate"},
    ),
    Workload(
        name="monitor",
        why="a 150-node network under control on two workers: the O(n*m^2) "
            "control cross-section behind Triad and SEVM dominates",
        activities=144, width=12, extra_pred=0.3,
        law_mix={"pert": 36, "triangular": 36, "uniform": 30, "normal": 15,
                 "discrete": 15, "point": 12},
        duration_risks=6, cost_risks=6,
        runs=1_000, workers=2,
        session=("validate", "simulate", "control", "forecast"),
        load={"projectfile": "light", "network": "light",
              "cpm": "heavy (window_fraction), light (plan, paths)",
              "distributions": "light", "montecarlo": "moderate", "indices": "none",
              "control": "heavy", "csvout": "light"},
    ),
)}


@dataclass(frozen=True)
class Project:
    text: str
    facts: dict              # counts recorded with every result
    bac: float               # planned cost at expected durations
    planned_duration: float


def generate(workload: Workload, seed: int) -> Project:
    """The workload's project for `seed`; the same seed gives the same text."""
    rng = np.random.default_rng([seed, zlib.crc32(workload.name.encode())])
    n = workload.activities
    assert sum(workload.law_mix.values()) == n, workload.name
    kinds = [k for k, count in workload.law_mix.items() for _ in range(count)]
    kinds = [kinds[i] for i in rng.permutation(n)]
    pert_modes = itertools.cycle((0.25, 0.5, 0.75))
    laws = [_law(rng, k, pert_modes) for k in kinds]
    fixed = rng.integers(1, 21, size=n)   # nonzero, so every activity earns value
    rate = rng.integers(0, 3, size=n)
    preds = _layered_dag(rng, n, workload.width, workload.extra_pred)

    targets = rng.choice(n, size=workload.duration_risks + workload.cost_risks,
                         replace=False)
    risks = []
    for r, target in enumerate(targets):
        kind = "duration" if r < workload.duration_risks else "cost"
        impact = _law(rng, IMPACT_LAWS[r % len(IMPACT_LAWS)], pert_modes)
        risks.append((f"R{r + 1}", kind, int(target),
                      float(rng.choice([0.25, 0.5, 0.75])), impact))

    ids = ["A0"] + [f"B{i + 1}" for i in range(n)] + ["Af"]
    has_succ = set(p for ps in preds for p in ps)
    lines = ["[activities]", 'A0 "start" point(0) fixed=0 rate=0']
    for i in range(n):
        lines.append(f'{ids[i + 1]} "work {i + 1}" {_render(laws[i])} '
                     f"fixed={int(fixed[i])} rate={int(rate[i])}")
    lines.append('Af "finish" point(0) fixed=0 rate=0')
    lines += ["", "[risks]"]
    for rid, kind, target, p, impact in risks:
        lines.append(f'{rid} "risk {rid[1:]}" p={_num(p)} kind={kind} '
                     f"target={ids[target + 1]} impact={_render(impact)}")
    lines += ["", "[precedence]"]
    for i in range(n):
        lines.append(f"{ids[i + 1]} <- " + " ".join(ids[p + 1] if p >= 0 else "A0"
                                                     for p in preds[i]))
    lines.append("Af <- " + " ".join(ids[i + 1] for i in range(n) if i not in has_succ))
    text = "\n".join(lines) + "\n"

    # expected durations; a duration risk adds p * mean(impact) in series
    # after its target, exactly as validation expands it into a node
    dur = [_mean(law) for law in laws]
    for _, kind, target, p, impact in risks:
        if kind == "duration":
            dur[target] += p * _mean(impact)
    finish, paths = [0.0] * n, [0] * n
    for i in range(n):
        finish[i] = max(finish[p] if p >= 0 else 0.0 for p in preds[i]) + dur[i]
        paths[i] = sum(paths[p] if p >= 0 else 1 for p in preds[i])
    sinks = [i for i in range(n) if i not in has_succ]
    bac = math.fsum(float(fixed[i]) + float(rate[i]) * _mean(laws[i]) for i in range(n))

    law_mix = {k: kinds.count(k) for k in LAWS}
    for *_, impact in risks:
        law_mix[impact[0]] += 1
    facts = {
        "activities": n + 2,
        "nodes": n + 2 + workload.duration_risks,
        "duration_risks": workload.duration_risks,
        "cost_risks": workload.cost_risks,
        "edges": sum(len(p) for p in preds) + len(sinks),
        "paths": sum(paths[i] for i in sinks),
        "law_mix": law_mix,
        "bytes": len(text.encode()),
    }
    return Project(text=text, facts=facts, bac=bac,
                   planned_duration=max(finish[i] for i in sinks))


def session_argv(workload: Workload, command: str, project, out, seed: int,
                 project_info: Project) -> list:
    """CLI arguments (after `riskmc`) for one command of the session."""
    argv = [command, "--project", str(project)]
    if command == "validate":
        return argv
    argv += ["--runs", str(workload.runs), "--seed", str(seed),
             "--workers", str(workload.workers)]
    if command == "contingency":
        argv += ["--percentile", "90", "--dimension", "cost"]
    else:
        argv += ["--out", str(out)]
    if command in ("control", "forecast"):
        argv += ["--observe", observation(project_info)]
    return argv


def observation(project: Project) -> str:
    """Half the value earned at 55 % of the planned time, at 55 % of BAC spent."""
    bac, pd = project.bac, project.planned_duration
    return f"t={0.55 * pd!r},ev={0.5 * bac!r},ac={0.55 * bac!r}"


def _layered_dag(rng, n, width, extra_pred):
    """Predecessor lists (-1 is the start dummy) of a layered, sparse DAG.

    Each activity after the first layer takes one predecessor from the
    layer before it; an exact share takes a second, distinct one.
    """
    preds = [[-1] if i < width else [(i // width - 1) * width + int(rng.integers(0, width))]
             for i in range(n)]
    later = range(width, n)
    for i in rng.choice(later, size=round(extra_pred * len(later)), replace=False):
        lo = (i // width - 1) * width
        other = [j for j in range(lo, lo + width) if j != preds[i][0]]
        preds[i].append(int(rng.choice(other)))
        preds[i].sort()
    return preds


def _law(rng, kind, pert_modes):
    if kind == "point":
        return ("point", float(rng.choice(DYADIC)))
    if kind == "discrete":
        probs = DYADIC_PROBS[int(rng.integers(0, len(DYADIC_PROBS)))]
        values = np.sort(rng.choice(DYADIC, size=len(probs), replace=False))
        return ("discrete", tuple(zip(values.tolist(), probs)))
    if kind == "normal":
        return ("normal", float(rng.integers(5, 15)), float(rng.integers(1, 3)))
    if kind == "pert":
        # betaincinv's cost per draw depends on the shape (from under 0.1 to
        # over 5 us), so the mode sits at a fixed share of the range and the
        # seed moves only location and width
        a, width = (float(x) for x in rng.choice(DYADIC, size=2))
        return ("pert", a, a + next(pert_modes) * width, a + width)
    points = np.sort(rng.choice(DYADIC, size=3 if kind != "uniform" else 2,
                                replace=False)).tolist()
    return (kind, *points)


def _mean(law):
    kind, *p = law
    if kind == "point":
        return p[0]
    if kind == "discrete":
        return math.fsum(v * q for v, q in p[0])
    if kind == "uniform":
        return (p[0] + p[1]) / 2.0
    if kind == "triangular":
        return (p[0] + p[1] + p[2]) / 3.0
    if kind == "pert":
        return (p[0] + 4.0 * p[1] + p[2]) / 6.0
    return p[0]  # normal: untruncated mu, as riskmc plans with it


def _render(law):
    kind, *p = law
    if kind == "discrete":
        return "discrete(" + ",".join(f"{_num(v)}:{_num(q)}" for v, q in p[0]) + ")"
    return f"{kind}(" + ",".join(_num(x) for x in p) + ")"


def _num(x):
    x = float(x)
    return str(int(x)) if x == int(x) else repr(x)


