"""Project network types, duration-risk expansion, and structural validation."""

from __future__ import annotations

import math
import re
from collections import deque
from dataclasses import dataclass

from .distributions import Distribution
from .errors import (
    BadDefinition,
    BadDummy,
    BadPrecedence,
    BadRiskTarget,
    CycleDetected,
    DuplicateId,
    MultipleSinks,
    MultipleSources,
    UnknownPredecessor,
)

ID_PATTERN = r"[A-Za-z0-9_.\-]+"  # the syntax of an activity or risk id
_ID_RE = re.compile(rf"^{ID_PATTERN}$")

RISK_KINDS = ("duration", "cost")


def _check_name(owner, ident, name):
    """A name is one line of text: project files are read line by line, and
    the CSV tables quote only a newline, not the other line breaks."""
    if name.splitlines() not in ([], [name]):
        raise BadDefinition(f"{owner} {ident}: name must be one line, got {name!r}")


@dataclass(frozen=True)
class Activity:
    id: str
    name: str
    duration: Distribution
    fixed_cost: float = 0.0
    variable_cost_rate: float = 0.0

    def __post_init__(self):
        if not _ID_RE.match(self.id):
            raise BadDefinition(f"invalid activity id {self.id!r}")
        _check_name("activity", self.id, self.name)
        for field in ("fixed_cost", "variable_cost_rate"):
            if not 0.0 <= getattr(self, field) < math.inf:  # also rejects nan
                raise BadDefinition(f"activity {self.id}: {field} must be finite and >= 0")


@dataclass(frozen=True)
class RiskEvent:
    id: str
    name: str
    probability: float
    kind: str
    target: str
    impact: Distribution

    def __post_init__(self):
        if not _ID_RE.match(self.id):
            raise BadDefinition(f"invalid risk id {self.id!r}")
        _check_name("risk", self.id, self.name)
        if not 0.0 <= self.probability <= 1.0:
            raise BadDefinition(f"risk {self.id}: probability must be in [0, 1]")
        if self.kind not in RISK_KINDS:
            raise BadDefinition(f"risk {self.id}: kind must be one of {RISK_KINDS}")


@dataclass(frozen=True)
class ProjectSpec:
    """Activities (including the dummy start/end), precedence pairs, risks.

    `precedence` holds `(successor id, predecessor id)` pairs: `("A1", "A0")`
    means A1 has A0 as a predecessor. Any iterable of pairs is accepted and
    stored as a sorted tuple, each pair once, so equal relations compare equal.
    """

    activities: tuple
    precedence: tuple
    risks: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "activities", tuple(self.activities))
        object.__setattr__(self, "precedence",
                           tuple(sorted({(succ, pred) for succ, pred in self.precedence})))
        object.__setattr__(self, "risks", tuple(self.risks))


@dataclass(frozen=True)
class Node:
    """One schedulable unit of the validated network (activity or risk node)."""

    index: int
    id: str
    name: str
    base: Distribution
    gate: float | None  # activation probability for risk nodes, None for activities
    fixed_cost: float
    variable_cost_rate: float
    preds: tuple
    succs: tuple

    def mean_duration(self) -> float:
        # risk nodes follow the mixture (1-p) * point(0) + p * impact
        mu = self.base.mean()
        return self.gate * mu if self.gate is not None else mu


@dataclass(frozen=True)
class CostRisk:
    id: str
    probability: float
    impact: Distribution
    target: int  # node index in the validated network


@dataclass(frozen=True)
class ValidatedNetwork:
    """Topologically ordered, risk-expanded network. Immutable."""

    nodes: tuple
    cost_risks: tuple

    @property
    def source(self) -> int:
        return 0

    @property
    def sink(self) -> int:
        return len(self.nodes) - 1

    def ids(self) -> tuple:
        return tuple(n.id for n in self.nodes)

    def names(self) -> tuple:
        return tuple(n.name for n in self.nodes)

    # numpy arrays over the nodes; numpy loads with the first of them, so
    # parsing and validating never load it
    def mean_durations(self):
        import numpy as np
        return np.array([n.mean_duration() for n in self.nodes])

    def fixed_costs(self):
        import numpy as np
        return np.array([n.fixed_cost for n in self.nodes])

    def rates(self):
        import numpy as np
        return np.array([n.variable_cost_rate for n in self.nodes])


def count_paths(network: ValidatedNetwork) -> int:
    """Number of source->sink paths, counted backwards over the DAG without listing them."""
    counts = [0] * len(network.nodes)
    counts[network.sink] = 1
    for node in reversed(network.nodes):
        if node.succs:
            counts[node.index] = sum(counts[s] for s in node.succs)
    return counts[network.source]


def validate(spec: ProjectSpec) -> ValidatedNetwork:
    """Check structure, expand duration risks, and topologically order.

    Ordering is deterministic: FIFO Kahn with successors scanned in
    declaration order (activities first, risk nodes appended in risk
    declaration order).
    """
    acts = spec.activities
    ids = [a.id for a in acts]

    seen = set()
    for entity_id in ids + [r.id for r in spec.risks]:
        if entity_id in seen:
            raise DuplicateId(f"duplicate id {entity_id!r}")
        seen.add(entity_id)

    position = {a_id: k for k, a_id in enumerate(ids)}
    preds = {a_id: [] for a_id in ids}
    for succ, pred in spec.precedence:
        if not {succ, pred} <= position.keys():
            raise UnknownPredecessor(f"precedence pair {succ} <- {pred} names an undeclared id")
        if succ == pred:
            raise BadPrecedence(f"activity {succ!r} is listed as its own predecessor")
        preds[succ].append(pred)
    for pred_list in preds.values():
        pred_list.sort(key=position.__getitem__)

    _check_acyclic(ids, preds)

    has_succ = {pred for _, pred in spec.precedence}
    sources = [i for i in ids if not preds[i]]
    sinks = [i for i in ids if i not in has_succ]
    if len(sources) != 1:
        raise MultipleSources(sources)
    if len(sinks) != 1:
        raise MultipleSinks(sinks)

    by_id = {a.id: a for a in acts}
    for dummy_id in (sources[0], sinks[0]):
        a = by_id[dummy_id]
        law = a.duration  # a point mass at 0 only when every value parameter is 0
        values = [v for v, _ in law.params] if law.kind == "discrete" else law.params
        if any(values) or a.fixed_cost != 0.0 or a.variable_cost_rate != 0.0:
            raise BadDummy(f"dummy {dummy_id!r} must have zero duration and zero cost")

    for r in spec.risks:
        if r.target not in by_id:
            raise BadRiskTarget(f"risk {r.id!r} targets unknown activity {r.target!r}")
        if r.kind == "duration" and r.target == sinks[0]:
            raise BadRiskTarget(f"risk {r.id!r} may not target the end dummy {r.target!r}")

    order_hint = list(ids)
    for r in spec.risks:
        if r.kind == "duration":
            _insert_risk_node(preds, order_hint, r)

    topo, _ = _kahn(order_hint, preds)  # risk nodes sit in series: still acyclic
    index = {node_id: k for k, node_id in enumerate(topo)}

    succ_lists = {i: [] for i in topo}
    for node_id in topo:
        for p in preds[node_id]:
            succ_lists[p].append(index[node_id])

    risk_by_id = {r.id: r for r in spec.risks}
    nodes = []
    for k, node_id in enumerate(topo):
        if node_id in by_id:
            a = by_id[node_id]
            base, gate = a.duration, None
            name, fixed, rate = a.name, a.fixed_cost, a.variable_cost_rate
        else:
            r = risk_by_id[node_id]
            base, gate = r.impact, r.probability
            name, fixed, rate = r.name, 0.0, 0.0
        nodes.append(Node(
            index=k, id=node_id, name=name, base=base, gate=gate,
            fixed_cost=fixed, variable_cost_rate=rate,
            preds=tuple(sorted(index[p] for p in preds[node_id])),
            succs=tuple(sorted(succ_lists[node_id])),
        ))

    cost_risks = tuple(
        CostRisk(id=r.id, probability=r.probability, impact=r.impact, target=index[r.target])
        for r in spec.risks if r.kind == "cost"
    )
    return ValidatedNetwork(nodes=tuple(nodes), cost_risks=cost_risks)


def _insert_risk_node(preds, order_hint, risk):
    target = risk.target
    successors = [i for i in order_hint if target in preds[i]]
    for s in successors:
        # reroute target->s through the risk node, preserving pred order
        preds[s] = [risk.id if p == target else p for p in preds[s]]
    preds[risk.id] = [target]
    order_hint.append(risk.id)


def _check_acyclic(ids, preds):
    _, leftover = _kahn(ids, preds)
    if not leftover:
        return
    # walk predecessor links inside the leftover set until a node repeats
    inside = set(leftover)
    walk, seen_at = [leftover[0]], {leftover[0]: 0}
    while True:
        nxt = next(p for p in preds[walk[-1]] if p in inside)
        if nxt in seen_at:
            cycle = walk[seen_at[nxt]:] + [nxt]
            raise CycleDetected(reversed(cycle))
        seen_at[nxt] = len(walk)
        walk.append(nxt)


def _kahn(order, preds):
    """FIFO Kahn order over `order`, successors scanned in that order.

    Returns (the sorted nodes, the nodes left over on or behind a cycle).
    """
    remaining = {i: len(preds[i]) for i in order}
    succ = {i: [] for i in order}
    for i in order:
        for p in preds[i]:
            succ[p].append(i)
    queue = deque(i for i in order if remaining[i] == 0)
    out = []
    while queue:
        v = queue.popleft()
        out.append(v)
        for s in succ[v]:
            remaining[s] -= 1
            if remaining[s] == 0:
                queue.append(s)
    return out, [i for i in order if remaining[i] > 0]
