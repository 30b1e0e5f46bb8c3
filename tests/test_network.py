import numpy as np
import pytest

import oracles
from netgen import chain_spec, dummy, random_dag_spec
from riskmc import (
    Activity,
    Distribution,
    ProjectSpec,
    RiskEvent,
    SimConfig,
    expand_duration_risk,
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
)

FIGURE3_ORDER = ("A0", "A1", "A2", "A5", "A6", "A3", "A4", "Af")


def eight_node_matrix_spec():
    """The published 8x8 matrix with the risk nodes written as activities."""
    ids = ["A0", "A1", "A2", "A3", "A4", "A5", "A6", "Af"]
    acts = [dummy("A0", "start")]
    for i in ids[1:-1]:
        acts.append(Activity(id=i, name=i, duration=Distribution.point(0)))
    acts.append(dummy("Af", "finish"))
    ones = [("A1", "A0"), ("A2", "A0"), ("A5", "A1"), ("A6", "A2"),
            ("A3", "A5"), ("A4", "A5"), ("A4", "A6"), ("Af", "A3"), ("Af", "A4")]
    pos = {i: k for k, i in enumerate(ids)}
    matrix = [[0] * 8 for _ in range(8)]
    for succ, pred in ones:
        matrix[pos[succ]][pos[pred]] = 1
    return ProjectSpec(activities=acts, precedence=matrix)


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
    assert by_id["A5"].is_risk and by_id["A6"].is_risk
    assert not by_id["A3"].is_risk
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
    matrix = [[0, 0, 0, 0],
              [0, 0, 1, 0],
              [0, 1, 0, 0],
              [0, 0, 0, 0]]
    with pytest.raises(CycleDetected) as err:
        validate(ProjectSpec(activities=acts, precedence=matrix))
    assert set(err.value.cycle) >= {"A1", "A3"}


def test_multiple_sources_and_sinks():
    spec = chain_spec([Distribution.point(1), Distribution.point(1)])
    rows = [list(r) for r in spec.precedence]
    rows[1][0] = 0  # B1 loses its tie to the start dummy
    with pytest.raises(MultipleSources) as err:
        validate(ProjectSpec(activities=spec.activities, precedence=rows))
    assert "B1" in err.value.ids

    rows = [list(r) for r in spec.precedence]
    rows[2][1] = 0  # B2 now hangs off the start dummy, stranding B1 without successors
    rows[2][0] = 1
    with pytest.raises(MultipleSinks) as err:
        validate(ProjectSpec(activities=spec.activities, precedence=rows))
    assert "B1" in err.value.ids


def test_duplicate_id_rejected():
    acts = [dummy("A0"), Activity(id="B1", name="x", duration=Distribution.point(1)),
            Activity(id="B1", name="y", duration=Distribution.point(1)), dummy("Af")]
    matrix = [[0, 0, 0, 0], [1, 0, 0, 0], [1, 0, 0, 0], [0, 1, 1, 0]]
    with pytest.raises(DuplicateId):
        validate(ProjectSpec(activities=acts, precedence=matrix))


def test_costed_dummy_rejected():
    spec = chain_spec([Distribution.point(1)])
    acts = list(spec.activities)
    acts[0] = Activity(id="A0", name="start", duration=Distribution.point(0), fixed_cost=5)
    with pytest.raises(BadDummy):
        validate(ProjectSpec(activities=acts, precedence=spec.precedence))


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
    net = validate(chain_spec([Distribution.point(2)]))
    risk = RiskEvent(id="R1", name="slip", probability=0.5, kind="duration",
                     target="B1", impact=Distribution.point(1))
    expanded = expand_duration_risk(net, risk)
    assert expanded.ids() == ("A0", "B1", "R1", "Af")
    preds = {n.id: tuple(expanded.nodes[p].id for p in n.preds) for n in expanded.nodes}
    assert preds == {"A0": (), "B1": ("A0",), "R1": ("B1",), "Af": ("R1",)}


def test_expand_reroutes_all_successors():
    # B1 fans out to C1 and C2; the risk node takes over both edges
    acts = [dummy("A0"), Activity(id="B1", name="b", duration=Distribution.point(1)),
            Activity(id="C1", name="c1", duration=Distribution.point(1)),
            Activity(id="C2", name="c2", duration=Distribution.point(1)), dummy("Af")]
    matrix = [[0] * 5 for _ in range(5)]
    matrix[1][0] = 1
    matrix[2][1] = 1
    matrix[3][1] = 1
    matrix[4][2] = 1
    matrix[4][3] = 1
    net = validate(ProjectSpec(activities=acts, precedence=matrix))
    risk = RiskEvent(id="R1", name="slip", probability=0.5, kind="duration",
                     target="B1", impact=Distribution.point(1))
    expanded = expand_duration_risk(net, risk)
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
    ens = run_ensemble(net, SimConfig(n_runs=500, seed=3))
    risk_col = net.index_of("R1")
    assert (ens.durations[:, risk_col] == 0.0).all()
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
        expanded = expand_duration_risk(net, risk)
        after = oracles.brute_paths(oracles.pred_lists(expanded))
        assert len(after) == len(before)
        # dropping the risk node from every expanded path recovers the originals
        ridx = expanded.index_of("RX")
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


def test_validate_render_roundtrip_isomorphic(figure3_network):
    net = figure3_network
    again = validate(parse_project_text(render_project(net.spec)))
    assert again.ids() == net.ids()
    assert [n.preds for n in again.nodes] == [n.preds for n in net.nodes]
    assert [n.base for n in again.nodes] == [n.base for n in net.nodes]
    assert [n.gate for n in again.nodes] == [n.gate for n in net.nodes]


def test_mean_duration_of_risk_node():
    risk = RiskEvent(id="R1", name="r", probability=0.25, kind="duration",
                     target="B1", impact=Distribution.uniform(2, 4))
    spec = chain_spec([Distribution.point(1)])
    net = validate(ProjectSpec(spec.activities, spec.precedence, (risk,)))
    node = net.nodes[net.index_of("R1")]
    assert node.mean_duration() == pytest.approx(0.25 * 3.0)
