"""Seeded random project builders and trajectory views used across the tests."""

import numpy as np

from riskmc import Activity, Distribution, ProjectSpec, RiskEvent

DYADIC = [0.25 * k for k in range(0, 33)]       # exact in float64
DYADIC_PROBS = [(1.0,), (0.5, 0.5), (0.25, 0.75), (0.25, 0.25, 0.5)]


def dummy(activity_id, name="dummy"):
    return Activity(id=activity_id, name=name, duration=Distribution.point(0))


def chain_spec(distributions, fixed=0.0, rate=0.0):
    """A0 -> B1 -> ... -> Bn -> Af serial project."""
    acts = [dummy("A0", "start")]
    for k, dist in enumerate(distributions, start=1):
        acts.append(Activity(id=f"B{k}", name=f"step {k}", duration=dist,
                             fixed_cost=fixed, variable_cost_rate=rate))
    acts.append(dummy("Af", "finish"))
    n = len(acts)
    matrix = [[0] * n for _ in range(n)]
    for i in range(1, n):
        matrix[i][i - 1] = 1
    return ProjectSpec(activities=acts, precedence=matrix)


def parallel_spec(distributions, fixed=0.0, rate=0.0):
    """A0 fans out to one activity per law, all joining at Af."""
    acts = [dummy("A0", "start")]
    for k, dist in enumerate(distributions, start=1):
        acts.append(Activity(id=f"B{k}", name=f"branch {k}", duration=dist,
                             fixed_cost=fixed, variable_cost_rate=rate))
    acts.append(dummy("Af", "finish"))
    n = len(acts)
    matrix = [[0] * n for _ in range(n)]
    for i in range(1, n - 1):
        matrix[i][0] = 1
        matrix[n - 1][i] = 1
    return ProjectSpec(activities=acts, precedence=matrix)


def ladder_spec(stages):
    """A0, then `stages` rungs of two activities each wired to both of the
    rung before, then Af: 2 + 2 * stages activities and 2 ** stages paths."""
    acts = [dummy("A0", "start")]
    prev = ["A0"]
    pairs = []
    for k in range(stages):
        rung = [f"L{k}", f"R{k}"]
        for node_id in rung:
            acts.append(Activity(id=node_id, name=node_id, duration=Distribution.point(1)))
            pairs += [(node_id, p) for p in prev]
        prev = rung
    acts.append(dummy("Af", "finish"))
    pairs += [("Af", p) for p in prev]
    pos = {a.id: i for i, a in enumerate(acts)}
    matrix = [[0] * len(acts) for _ in acts]
    for succ, pred in pairs:
        matrix[pos[succ]][pos[pred]] = 1
    return ProjectSpec(activities=acts, precedence=matrix)


def trajectories(ens, points):
    """Each run's exact cost and earned-value trajectories at `points` uniform
    times on [0, max(1.5 x planned duration, latest finish)], as
    (n_runs, points) arrays read through cost_at/ev_at."""
    last = max(1.5 * ens.planned_duration, float(ens.total_duration.max()))
    times = np.linspace(0.0, last, points)
    cost = np.column_stack([ens.cost_at(t) for t in times])
    ev = np.column_stack([ens.ev_at(t) for t in times])
    return cost, ev


def random_dag_spec(rng, n_real=5, edge_prob=0.4, discrete_only=False,
                    max_atoms=3, with_risks=0):
    """Random single-source/single-sink DAG with random laws and costs."""
    acts = [dummy("A0", "start")]
    for k in range(1, n_real + 1):
        acts.append(Activity(
            id=f"B{k}", name=f"work {k}",
            duration=_random_dist(rng, discrete_only, max_atoms),
            fixed_cost=float(rng.integers(0, 21)),
            variable_cost_rate=float(rng.integers(0, 3)),
        ))
    acts.append(dummy("Af", "finish"))
    n = len(acts)
    matrix = [[0] * n for _ in range(n)]
    for i in range(1, n - 1):           # random forward edges between real nodes
        for j in range(1, i):
            if rng.random() < edge_prob:
                matrix[i][j] = 1
    for i in range(1, n - 1):           # wire orphans to the dummies
        if not any(matrix[i][j] for j in range(n)):
            matrix[i][0] = 1
        if not any(matrix[s][i] for s in range(n)):
            matrix[n - 1][i] = 1

    risks = []
    for r in range(with_risks):
        kind = "duration" if rng.random() < 0.5 else "cost"
        target = f"B{int(rng.integers(1, n_real + 1))}"
        risks.append(RiskEvent(
            id=f"R{r + 1}", name=f"risk {r + 1}",
            probability=float(rng.choice([0.25, 0.5, 0.75])),
            kind=kind, target=target,
            impact=_random_dist(rng, discrete_only, max_atoms),
        ))
    return ProjectSpec(activities=acts, precedence=matrix, risks=risks)


def _random_dist(rng, discrete_only, max_atoms):
    if discrete_only:
        return random_discrete(rng, max_atoms)
    kind = rng.choice(["point", "discrete", "uniform", "triangular", "normal", "pert"])
    if kind == "point":
        return Distribution.point(rng.choice(DYADIC))
    if kind == "discrete":
        return random_discrete(rng, max_atoms)
    if kind == "uniform":
        a, b = np.sort(rng.choice(DYADIC, size=2))
        return Distribution.uniform(a, b)
    if kind == "normal":
        return Distribution.normal(float(rng.integers(5, 15)), float(rng.integers(0, 3)))
    a, m, b = np.sort(rng.choice(DYADIC, size=3))
    return Distribution(kind, (float(a), float(m), float(b)))


def random_discrete(rng, max_atoms=3):
    options = [p for p in DYADIC_PROBS if 2 <= len(p) <= max_atoms] or [(0.5, 0.5)]
    probs = options[int(rng.integers(0, len(options)))]
    values = rng.choice(DYADIC, size=len(probs), replace=False)
    return Distribution.discrete(list(zip(np.sort(values), probs)))
