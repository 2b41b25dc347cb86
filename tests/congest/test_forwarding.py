"""One-hop forwarding, the simulator's set-up tables and the walk replay.

``Network`` builds its neighbour tables from CSR ``tolist()`` slices and
``replay_walk_run`` runs every step of a clean replay on one
``Network``; both are checked here against per-element / per-step
oracles: the tables against a scalar walk over ``Graph`` accessors, the
replay against one ``forward_demands`` call per step.
"""

import numpy as np
import pytest

import repro.congest.reliable as reliable
from repro.congest import FaultPlan, FaultSpec, Network, forward_demands
from repro.congest.native import replay_walk_run
from repro.graphs import Graph, random_regular, with_random_weights
from repro.graphs.graph import WeightedGraph
from repro.rng import derive_rng
from repro.walks import run_lazy_walks


def _tables_oracle(graph):
    """The tables element by element, as the old per-node loops built
    them."""
    lists, sets, arcs, weights = [], [], [], []
    for v in range(graph.num_nodes):
        neighbors = tuple(int(w) for w in graph.neighbors(v))
        lists.append(neighbors)
        sets.append(frozenset(neighbors))
        arcs.append(
            {
                int(graph.indices[a]): int(a)
                for a in range(graph.indptr[v], graph.indptr[v + 1])
            }
        )
        if isinstance(graph, WeightedGraph):
            weights.append(
                tuple(
                    float(graph.weights[graph.arc_edge[a]])
                    for a in graph.arcs_of(v)
                )
            )
        else:
            weights.append(None)
    return lists, sets, arcs, weights


def _assert_tables(graph):
    network = Network(graph)
    lists, sets, arcs, weights = _tables_oracle(graph)
    assert network._neighbor_lists == lists
    assert network._neighbor_sets == sets
    assert network._neighbor_arcs == arcs
    assert network._weight_lists == weights
    for v in range(graph.num_nodes):
        for value in network._neighbor_lists[v]:
            assert type(value) is int
        for target, arc in network._neighbor_arcs[v].items():
            assert type(target) is int and type(arc) is int
        if weights[v] is not None:
            assert all(type(w) is float for w in network._weight_lists[v])


class TestNetworkTables:
    def test_random_regular(self):
        _assert_tables(random_regular(64, 6, np.random.default_rng(500)))

    def test_multigraph_last_parallel_arc_wins(self):
        graph = Graph(4, [(0, 1), (1, 2), (0, 1), (2, 3), (1, 0), (0, 3)])
        _assert_tables(graph)
        network = Network(graph)
        parallel = [
            a for a in graph.arcs_of(0) if int(graph.indices[a]) == 1
        ]
        assert len(parallel) == 3
        assert network.arc_of(0, 1) == parallel[-1]

    def test_weighted_graph(self):
        graph = with_random_weights(
            random_regular(32, 4, np.random.default_rng(501)),
            np.random.default_rng(502),
        )
        _assert_tables(graph)
        assert Network(graph).context(5).edge_weights is not None

    def test_weighted_multigraph(self):
        graph = WeightedGraph(3, [(0, 1), (1, 2), (1, 0)], [0.5, 2.0, 1.25])
        _assert_tables(graph)

    def test_isolated_node(self):
        graph = Graph(5, [(0, 1), (1, 2), (2, 0), (3, 1)])
        _assert_tables(graph)
        context = Network(graph).context(4)
        assert context.neighbors == () and context.degree == 0

    def test_empty_graph(self):
        _assert_tables(Graph(3, []))


class TestForwardDemands:
    def test_iterator_inputs_get_the_full_round_budget(self):
        """150 demands on one edge need 150 rounds; the budget must be
        counted from the demands, not from a consumed iterator."""
        graph = Graph(2, [(0, 1)])
        expected = forward_demands(graph, [0] * 150, [1] * 150)
        assert expected == (150, 150)
        got = forward_demands(
            graph, iter([0] * 150), (target for target in [1] * 150)
        )
        assert got == expected

    def test_array_and_list_inputs_agree(self):
        graph = random_regular(32, 4, np.random.default_rng(503))
        rng = np.random.default_rng(504)
        origins = rng.integers(0, 32, size=200)
        targets = graph.indices[
            graph.indptr[origins] + rng.integers(0, 4, size=200)
        ]
        assert forward_demands(graph, origins, targets) == forward_demands(
            graph, origins.tolist(), targets.tolist()
        )


def _walk_run(graph, seed, walks=48, steps=12):
    rng = np.random.default_rng(seed)
    starts = rng.integers(0, graph.num_nodes, size=walks)
    return run_lazy_walks(graph, starts, steps, rng, record_trajectory=True)


def _replay_oracle(graph, run, validate):
    """One forward_demands call (and one Network) per walk step."""
    per_step = []
    messages = 0
    for step in range(run.steps):
        before = run.trajectory[step]
        after = run.trajectory[step + 1]
        moved = before != after
        if not moved.any():
            per_step.append(0)
            continue
        rounds, sent = forward_demands(
            graph, before[moved], after[moved], validate=validate
        )
        per_step.append(rounds)
        messages += sent
    return per_step, messages


class TestReplayWalkRun:
    @pytest.fixture(scope="class")
    def graph(self):
        return random_regular(48, 4, np.random.default_rng(505))

    @pytest.mark.parametrize("validate", ["full", "first_round", "off"])
    @pytest.mark.parametrize("seed", [506, 507])
    def test_matches_per_step_oracle(self, graph, validate, seed):
        run = _walk_run(graph, seed)
        replay = replay_walk_run(graph, run, validate=validate)
        per_step, messages = _replay_oracle(graph, run, validate)
        assert replay.per_step == per_step
        assert replay.messages == messages
        assert replay.rounds == sum(max(1, r) for r in per_step)
        assert replay.rounds == run.schedule_rounds()

    def test_all_stay_steps(self, graph):
        run = _walk_run(graph, 508, walks=1, steps=1)
        run.trajectory[1] = run.trajectory[0]
        replay = replay_walk_run(graph, run)
        assert replay.per_step == [0] and replay.messages == 0

    def test_rate_zero_plan_equals_no_plan(self, graph, monkeypatch):
        run = _walk_run(graph, 509)
        calls = []
        monkeypatch.setattr(
            reliable,
            "reliable_forward_demands",
            lambda *a, **k: calls.append(1),
        )
        plan = FaultPlan(FaultSpec.parse("drop=0"), rng=derive_rng(510, 0))
        assert replay_walk_run(graph, run, faults=plan) == replay_walk_run(
            graph, run
        )
        assert calls == []

    def test_active_plan_takes_the_arq_path(self, graph, monkeypatch):
        run = _walk_run(graph, 511)
        moving_steps = sum(
            bool((run.trajectory[s] != run.trajectory[s + 1]).any())
            for s in range(run.steps)
        )
        calls = []
        original = reliable.reliable_forward_demands

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(reliable, "reliable_forward_demands", counting)
        plan = FaultPlan(
            FaultSpec.parse("drop=0.05"), rng=derive_rng(512, 0)
        )
        replay = replay_walk_run(graph, run, faults=plan)
        assert len(calls) == moving_steps > 0
        assert replay.rounds >= run.schedule_rounds()
