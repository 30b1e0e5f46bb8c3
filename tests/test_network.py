import hashlib
import time
from dataclasses import replace

import numpy as np
import pytest

import oracles
from netgen import chain_spec, dummy, random_dag_spec
from riskmc import (
    Activity,
    Distribution,
    ProjectSpec,
    RiskEvent,
    parse_project_text,
    render_project,
    run_ensemble,
    validate,
)
from riskmc.errors import (
    BadDummy,
    BadRiskTarget,
    CycleDetected,
    DuplicateId,
    MultipleSinks,
    MultipleSources,
    UnknownPredecessor,
)

FIGURE3_ORDER = ("A0", "A1", "A2", "A5", "A6", "A3", "A4", "Af")


def eight_node_matrix_spec():
    """The published 8x8 matrix's edges with the risk nodes written as activities."""
    ids = ["A0", "A1", "A2", "A3", "A4", "A5", "A6", "Af"]
    acts = [dummy("A0", "start")]
    for i in ids[1:-1]:
        acts.append(Activity(id=i, name=i, duration=Distribution.point(0)))
    acts.append(dummy("Af", "finish"))
    ones = [("A1", "A0"), ("A2", "A0"), ("A5", "A1"), ("A6", "A2"),
            ("A3", "A5"), ("A4", "A5"), ("A4", "A6"), ("Af", "A3"), ("Af", "A4")]
    return ProjectSpec(activities=acts, precedence=ones)


def test_eight_node_matrix_topological_order():
    net = validate(eight_node_matrix_spec())
    assert net.ids() == FIGURE3_ORDER


def test_fixture_expansion_matches_published_matrix(figure3_network):
    net = figure3_network
    assert net.ids() == FIGURE3_ORDER
    assert len(net.nodes) == 8  # 6 activities + 2 duration risks
    by_id = {n.id: n for n in net.nodes}
    preds = {n.id: tuple(net.nodes[p].id for p in n.preds) for n in net.nodes}
    assert preds == {"A0": (), "A1": ("A0",), "A2": ("A0",), "A5": ("A1",),
                     "A6": ("A2",), "A3": ("A5",), "A4": ("A5", "A6"),
                     "Af": ("A3", "A4")}
    assert by_id["A5"].gate is not None and by_id["A6"].gate is not None
    assert by_id["A3"].gate is None
    assert len(net.cost_risks) == 1 and net.cost_risks[0].id == "R3"
    assert net.nodes[net.cost_risks[0].target].id == "A3"


def test_smallest_valid_network_is_three_node_chain():
    spec = chain_spec([Distribution.point(2)])
    net = validate(spec)
    assert net.ids() == ("A0", "B1", "Af")
    assert [n.preds for n in net.nodes] == [(), (0,), (1,)]


def test_two_cycle_detected():
    acts = [dummy("A0"), Activity(id="A1", name="a", duration=Distribution.point(1)),
            Activity(id="A3", name="b", duration=Distribution.point(1)), dummy("Af")]
    with pytest.raises(CycleDetected) as err:
        validate(ProjectSpec(activities=acts, precedence=[("A1", "A3"), ("A3", "A1")]))
    assert set(err.value.cycle) >= {"A1", "A3"}


def test_multiple_sources_and_sinks():
    spec = chain_spec([Distribution.point(1), Distribution.point(1)])
    pairs = set(spec.precedence) - {("B1", "A0")}  # B1 loses its tie to the start dummy
    with pytest.raises(MultipleSources) as err:
        validate(ProjectSpec(activities=spec.activities, precedence=pairs))
    assert "B1" in err.value.ids

    # B2 now hangs off the start dummy, stranding B1 without successors
    pairs = set(spec.precedence) - {("B2", "B1")} | {("B2", "A0")}
    with pytest.raises(MultipleSinks) as err:
        validate(ProjectSpec(activities=spec.activities, precedence=pairs))
    assert "B1" in err.value.ids


def test_duplicate_id_rejected():
    acts = [dummy("A0"), Activity(id="B1", name="x", duration=Distribution.point(1)),
            Activity(id="B1", name="y", duration=Distribution.point(1)), dummy("Af")]
    pairs = [("B1", "A0"), ("Af", "B1")]
    with pytest.raises(DuplicateId):
        validate(ProjectSpec(activities=acts, precedence=pairs))


@pytest.mark.parametrize("pair", [("B1", "nowhere"), ("nowhere", "A0")])
def test_pair_naming_an_unknown_activity_is_unknown_predecessor(pair):
    spec = chain_spec([Distribution.point(1)])
    bad = ProjectSpec(spec.activities, set(spec.precedence) | {pair})
    with pytest.raises(UnknownPredecessor) as err:
        validate(bad)
    assert "nowhere" in str(err.value)
    with pytest.raises(UnknownPredecessor) as err:  # rendered, the pair is named on parsing
        parse_project_text(render_project(bad))
    assert "nowhere" in str(err.value)


def _with_dummy(index, law, fixed_cost=0.0):
    spec = chain_spec([Distribution.point(1)])
    acts = list(spec.activities)
    acts[index] = replace(acts[index], duration=law, fixed_cost=fixed_cost)
    return ProjectSpec(activities=acts, precedence=spec.precedence)


@pytest.mark.parametrize("index, law, fixed_cost", [
    (0, Distribution.point(0), 5.0),
    (0, Distribution.normal(0, 1), 0.0),  # mean 0, but it draws from its truncation at 0
    (-1, Distribution.normal(0, 1), 0.0),
    (0, Distribution.uniform(0, 5e-324), 0.0),  # its mean rounds to 0
    (0, Distribution.discrete([(0, 0.5), (5e-324, 0.5)]), 0.0),
], ids=["costed start", "normal start", "normal end", "subnormal uniform", "subnormal atom"])
def test_dummy_with_cost_or_nonzero_law_rejected(index, law, fixed_cost):
    with pytest.raises(BadDummy, match="must have zero duration and zero cost"):
        validate(_with_dummy(index, law, fixed_cost))


@pytest.mark.parametrize("law", [
    Distribution.point(0), Distribution.point(-0.0), Distribution.uniform(0, 0),
    Distribution.triangular(0, 0, 0), Distribution.pert(0, 0, 0),
    Distribution.discrete([(0, 1)]), Distribution.normal(0, 0),
], ids=["point", "negative zero", "uniform", "triangular", "pert", "discrete", "normal"])
def test_point_mass_at_zero_dummy_accepted(law):
    for index in (0, -1):
        validate(_with_dummy(index, law))


def test_risk_target_must_exist():
    spec = chain_spec([Distribution.point(1)])
    risk = RiskEvent(id="R1", name="r", probability=0.5, kind="duration",
                     target="nope", impact=Distribution.point(1))
    with pytest.raises(BadRiskTarget):
        validate(ProjectSpec(spec.activities, spec.precedence, (risk,)))


def test_duration_risk_may_not_target_end_dummy():
    spec = chain_spec([Distribution.point(1)])
    risk = RiskEvent(id="R1", name="r", probability=0.5, kind="duration",
                     target="Af", impact=Distribution.point(1))
    with pytest.raises(BadRiskTarget):
        validate(ProjectSpec(spec.activities, spec.precedence, (risk,)))


# -- duration-risk expansion -------------------------------------------------

def test_expand_reroutes_single_successor():
    spec = chain_spec([Distribution.point(2)])
    risk = RiskEvent(id="R1", name="slip", probability=0.5, kind="duration",
                     target="B1", impact=Distribution.point(1))
    expanded = validate(ProjectSpec(spec.activities, spec.precedence, (risk,)))
    assert expanded.ids() == ("A0", "B1", "R1", "Af")
    preds = {n.id: tuple(expanded.nodes[p].id for p in n.preds) for n in expanded.nodes}
    assert preds == {"A0": (), "B1": ("A0",), "R1": ("B1",), "Af": ("R1",)}


def test_expand_reroutes_all_successors():
    # B1 fans out to C1 and C2; the risk node takes over both edges
    acts = [dummy("A0"), Activity(id="B1", name="b", duration=Distribution.point(1)),
            Activity(id="C1", name="c1", duration=Distribution.point(1)),
            Activity(id="C2", name="c2", duration=Distribution.point(1)), dummy("Af")]
    pairs = [("B1", "A0"), ("C1", "B1"), ("C2", "B1"), ("Af", "C1"), ("Af", "C2")]
    risk = RiskEvent(id="R1", name="slip", probability=0.5, kind="duration",
                     target="B1", impact=Distribution.point(1))
    expanded = validate(ProjectSpec(activities=acts, precedence=pairs, risks=(risk,)))
    preds = {n.id: {expanded.nodes[p].id for p in n.preds} for n in expanded.nodes}
    assert preds["R1"] == {"B1"}
    assert preds["C1"] == {"R1"}
    assert preds["C2"] == {"R1"}
    succs = {n.id: {expanded.nodes[s].id for s in n.succs} for n in expanded.nodes}
    assert succs["B1"] == {"R1"}


def test_probability_zero_risk_never_activates():
    spec = chain_spec([Distribution.point(2)])
    risk = RiskEvent(id="R1", name="noop", probability=0.0, kind="duration",
                     target="B1", impact=Distribution.uniform(1, 2))
    net = validate(ProjectSpec(spec.activities, spec.precedence, (risk,)))
    ens = run_ensemble(net, 500, 3)
    assert (ens.durations[net.ids().index("R1")] == 0.0).all()
    assert (ens.total_duration == 2.0).all()


def test_expansion_preserves_paths():
    rng = np.random.default_rng(40)
    for _ in range(20):
        spec = random_dag_spec(rng, n_real=5, with_risks=0)
        net = validate(spec)
        before = oracles.brute_paths(oracles.pred_lists(net))
        target = f"B{int(rng.integers(1, 6))}"
        risk = RiskEvent(id="RX", name="x", probability=0.5, kind="duration",
                         target=target, impact=Distribution.point(1))
        expanded = validate(ProjectSpec(spec.activities, spec.precedence, (risk,)))
        after = oracles.brute_paths(oracles.pred_lists(expanded))
        assert len(after) == len(before)
        # dropping the risk node from every expanded path recovers the originals
        ridx = expanded.ids().index("RX")
        old_ids = [net.nodes[i].id for i in range(len(net.nodes))]
        recovered = sorted(tuple(old_ids.index(expanded.nodes[i].id)
                                 for i in path if i != ridx) for path in after)
        assert recovered == sorted(before)


def test_topological_order_property():
    rng = np.random.default_rng(41)
    for _ in range(30):
        spec = random_dag_spec(rng, n_real=int(rng.integers(2, 9)),
                               with_risks=int(rng.integers(0, 3)))
        net = validate(spec)
        for node in net.nodes:
            assert all(p < node.index for p in node.preds)
            assert all(s > node.index for s in node.succs)


def test_validate_render_roundtrip_isomorphic(figure3_spec, figure3_network):
    net = figure3_network
    again = validate(parse_project_text(render_project(figure3_spec)))
    assert again.ids() == net.ids()
    assert [n.preds for n in again.nodes] == [n.preds for n in net.nodes]
    assert [n.base for n in again.nodes] == [n.base for n in net.nodes]
    assert [n.gate for n in again.nodes] == [n.gate for n in net.nodes]


def test_mean_duration_of_risk_node():
    risk = RiskEvent(id="R1", name="r", probability=0.25, kind="duration",
                     target="B1", impact=Distribution.uniform(2, 4))
    spec = chain_spec([Distribution.point(1)])
    net = validate(ProjectSpec(spec.activities, spec.precedence, (risk,)))
    node = net.nodes[net.ids().index("R1")]
    assert node.mean_duration() == pytest.approx(0.25 * 3.0)


def layered_project(n_real, width):
    """Canonical project text of `n_real` unit activities in layers of
    `width`, each wired to three of the layer before, and its edge count."""
    ids = ["A0"] + [f"B{k}" for k in range(1, n_real + 1)] + ["Af"]
    lines = ["[activities]"]
    lines += [f'{i} "x" point({0 if i in ("A0", "Af") else 1}) fixed=0 rate=0' for i in ids]
    lines += ["", "[precedence]"]
    edges = 0
    for k in range(1, n_real + 1):
        first = (k - 1) // width * width - width + 1  # the layer before starts here
        preds = [0] if first < 1 else sorted(first + (k + d) % width for d in (0, 1, 2))
        lines.append(f"{ids[k]} <- " + " ".join(ids[p] for p in preds))
        edges += len(preds)
    lines.append("Af <- " + " ".join(ids[n_real - width + 1:n_real + 1]))
    return "\n".join(lines) + "\n", edges + width


def test_thousands_of_activities_parse_validate_and_render_in_edge_time():
    # precedence is stored as edge pairs: a dense n x n matrix took ~6 s here
    text, edges = layered_project(4000, 20)
    start = time.perf_counter()
    spec = parse_project_text(text)
    net = validate(spec)
    rendered = render_project(spec)
    elapsed = time.perf_counter() - start
    assert len(spec.precedence) == edges
    assert len(net.nodes) == 4002 and net.ids()[-1] == "Af"
    assert rendered == text
    assert elapsed <= 1.5, elapsed


def test_random_dag_spec_keeps_its_draw_order():
    # pins the networks every seeded test sees: a change to the generator's
    # draw order moves this hash
    spec = random_dag_spec(np.random.default_rng(137), n_real=12, with_risks=3)
    digest = hashlib.sha256(render_project(spec).encode()).hexdigest()
    assert digest == "9470d14e7f3c5b970f9ac90f02dcfd0bf6318f6fd91130bd77cfa32cc44a03b8"
