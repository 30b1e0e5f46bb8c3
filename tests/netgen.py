"""Seeded random project builders and trajectory views used across the tests."""

import math
from dataclasses import replace

import numpy as np

from riskmc import Activity, Distribution, ProjectSpec, RiskEvent, forward_backward

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
    pairs = [(acts[i].id, acts[i - 1].id) for i in range(1, len(acts))]
    return ProjectSpec(activities=acts, precedence=pairs)


def parallel_spec(distributions, fixed=0.0, rate=0.0):
    """A0 fans out to one activity per law, all joining at Af."""
    acts = [dummy("A0", "start")]
    for k, dist in enumerate(distributions, start=1):
        acts.append(Activity(id=f"B{k}", name=f"branch {k}", duration=dist,
                             fixed_cost=fixed, variable_cost_rate=rate))
    acts.append(dummy("Af", "finish"))
    branches = [a.id for a in acts[1:-1]]
    pairs = [(b, "A0") for b in branches] + [("Af", b) for b in branches]
    return ProjectSpec(activities=acts, precedence=pairs)


def normal_pert_spec():
    """Normal and PERT laws as durations and as duration- and cost-risk
    impacts, with PERT modes inside and at both ends of their ranges."""
    laws = [Distribution.normal(10, 2), Distribution.pert(1, 2, 6),
            Distribution.pert(2, 6, 6), Distribution.normal(3, 2)]
    acts = [dummy("A0", "start")]
    acts += [Activity(id=f"B{k}", name=f"work {k}", duration=law, fixed_cost=5.0 * k,
                      variable_cost_rate=float(k % 3))
             for k, law in enumerate(laws, start=1)]
    acts.append(dummy("Af", "finish"))
    pairs = [("B1", "A0"), ("B2", "A0"), ("B3", "B1"), ("B3", "B2"), ("B4", "B1"),
             ("Af", "B3"), ("Af", "B4")]
    risks = [
        RiskEvent(id="R1", name="slip", probability=0.5, kind="duration", target="B1",
                  impact=Distribution.pert(0, 0, 4)),
        RiskEvent(id="R2", name="spend", probability=0.25, kind="cost", target="B2",
                  impact=Distribution.normal(5, 3)),
        RiskEvent(id="R3", name="late", probability=0.75, kind="duration", target="B3",
                  impact=Distribution.normal(1, 2)),
        RiskEvent(id="R4", name="extra", probability=0.5, kind="cost", target="B4",
                  impact=Distribution.pert(0, 1.5, 3)),
    ]
    return ProjectSpec(activities=acts, precedence=pairs, risks=risks)


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
    return ProjectSpec(activities=acts, precedence=pairs)


def duration_matrix(ens):
    """The ensemble's node durations, (n_nodes, n_runs), re-drawn row by row
    through Ensemble.duration_rows()."""
    return np.array(list(ens.duration_rows()))


def cost_matrix(ens):
    """The ensemble's node costs, (n_nodes, n_runs), formed row by row
    through Ensemble.node_costs(), each over its freshly drawn durations."""
    return np.array([ens.node_costs(j, d) for j, d in enumerate(ens.duration_rows())])


def block_windows(ens):
    """The ensemble's (start, finish, node_costs), each (n_nodes, n_runs),
    joined from the blocks of Ensemble.blocks()."""
    blocks = [block[1:] for block in ens.blocks()]
    return tuple(np.concatenate(parts, axis=1) for parts in zip(*blocks))


def critical_flags(ens):
    """Each run's critical flags, (n_nodes, n_runs) bool, rebuilt with one
    forward_backward call per run (a run's flags depend on its durations
    alone), after checking that they count to the ensemble's critical_runs.
    About 0.15 ms a run: for small ensembles only."""
    flags = np.array([forward_backward(ens.network, d).critical for d in duration_matrix(ens).T]).T
    assert np.array_equal(flags.sum(axis=1), ens.critical_runs)
    return flags


def trajectories(ens, points):
    """Each run's exact cost and earned-value trajectories at `points` uniform
    times on [0, max(1.5 x planned duration, latest finish)], as
    (n_runs, points) arrays read through cost_at/ev_at."""
    last = max(1.5 * ens.plan.duration, float(ens.total_duration.max()))
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
    real = [a.id for a in acts[1:-1]]
    pairs = [(succ, pred) for i, succ in enumerate(real)  # random forward edges
             for pred in real[:i] if rng.random() < edge_prob]
    has_pred = {succ for succ, _ in pairs}
    has_succ = {pred for _, pred in pairs}
    pairs += [(b, "A0") for b in real if b not in has_pred]   # wire orphans to the dummies
    pairs += [("Af", b) for b in real if b not in has_succ]

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
    return ProjectSpec(activities=acts, precedence=pairs, risks=risks)


def with_degenerate_nodes(rng, spec, share=0.25):
    """`spec` with about `share` of its real activities made cost-free and
    about `share` made instantaneous (point(0)): zero-cost nodes and
    zero-length windows, including value steps where a costed window has
    zero length."""
    acts = list(spec.activities)
    for k in range(1, len(acts) - 1):
        u = rng.random()
        if u < share:
            acts[k] = replace(acts[k], fixed_cost=0.0, variable_cost_rate=0.0)
        elif u < 2 * share:
            acts[k] = replace(acts[k], duration=Distribution.point(0))
    return ProjectSpec(acts, spec.precedence, spec.risks)


def scaled_spec(spec, k, j):
    """`spec` with time scaled by 2**k and money by 2**j: every duration law
    (durations and duration-risk impacts) times 2**k, fixed costs and
    cost-risk impacts times 2**j, rates times 2**(j - k). Probabilities are
    kept, and every scaling is by a power of two, so exact in floats."""
    acts = [replace(a, duration=_scaled_law(a.duration, k),
                    fixed_cost=math.ldexp(a.fixed_cost, j),
                    variable_cost_rate=math.ldexp(a.variable_cost_rate, j - k))
            for a in spec.activities]
    risks = [replace(r, impact=_scaled_law(r.impact, k if r.kind == "duration" else j))
             for r in spec.risks]
    return ProjectSpec(acts, spec.precedence, risks)


def _scaled_law(law, k):
    if law.kind == "discrete":
        return Distribution.discrete((math.ldexp(v, k), p) for v, p in law.params)
    return Distribution(law.kind, tuple(math.ldexp(v, k) for v in law.params))


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
