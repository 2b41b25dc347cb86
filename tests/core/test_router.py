"""Tests for the hierarchical router (Theorem 1.2 behaviour)."""

import numpy as np
import pytest

from repro.congest.detector import CrashView
from repro.core import Router, build_hierarchy
from repro.core.router import RoutingError
from repro.graphs import grid_torus, hypercube, random_regular
from repro.params import Params


class TestDelivery:
    def test_permutation_delivered(self, router64):
        n = 64
        rng = np.random.default_rng(70)
        perm = rng.permutation(n)
        result = router64.route(np.arange(n), perm)
        assert result.delivered
        assert result.num_packets == n

    def test_final_vnodes_at_destinations(self, router64, hierarchy64):
        n = 64
        rng = np.random.default_rng(71)
        perm = rng.permutation(n)
        result = router64.route(np.arange(n), perm)
        hosts = hierarchy64.g0.virtual.host[result.final_vnodes]
        assert np.array_equal(hosts, perm)

    def test_self_destinations(self, router64):
        result = router64.route(np.arange(10), np.arange(10))
        assert result.delivered

    def test_single_packet(self, router64):
        result = router64.route(np.array([3]), np.array([40]))
        assert result.delivered
        assert result.num_packets == 1

    def test_empty_instance(self, router64):
        result = router64.route(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        )
        assert result.delivered
        assert result.cost_rounds >= 0

    def test_all_to_one_heavy_load(self, router64):
        """Concentrated destination load triggers phasing but delivers."""
        sources = np.arange(64)
        destinations = np.zeros(64, dtype=np.int64)
        result = router64.route(sources, destinations)
        assert result.delivered
        assert result.num_phases >= 1

    def test_repeated_pairs(self, router64):
        sources = np.full(20, 5, dtype=np.int64)
        destinations = np.full(20, 50, dtype=np.int64)
        result = router64.route(sources, destinations)
        assert result.delivered

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_demand_seeds(self, router64, seed):
        rng = np.random.default_rng(seed)
        sources = rng.integers(0, 64, size=100)
        destinations = rng.integers(0, 64, size=100)
        assert router64.route(sources, destinations).delivered


class TestValidation:
    def test_shape_mismatch(self, router64):
        with pytest.raises(ValueError, match="align"):
            router64.route(np.arange(4), np.arange(5))

    def test_out_of_range(self, router64):
        with pytest.raises(ValueError, match="out of range"):
            router64.route(np.array([0]), np.array([64]))
        with pytest.raises(ValueError, match="out of range"):
            router64.route(np.array([-1]), np.array([0]))


class TestCostAccounting:
    def test_costs_positive(self, router64):
        rng = np.random.default_rng(72)
        result = router64.route(np.arange(64), rng.permutation(64))
        assert result.prep_rounds > 0
        assert result.cost_g0_rounds > 0
        assert result.cost_rounds > result.prep_rounds

    def test_cost_composition(self, router64, hierarchy64):
        rng = np.random.default_rng(73)
        result = router64.route(np.arange(64), rng.permutation(64))
        assert result.cost_rounds == pytest.approx(
            result.prep_rounds
            + result.cost_g0_rounds * hierarchy64.g0.round_cost
        )

    def test_level_costs_recorded(self, router64, hierarchy64):
        rng = np.random.default_rng(74)
        result = router64.route(np.arange(64), rng.permutation(64))
        assert 0 in result.level_costs
        bottom = hierarchy64.depth
        assert result.level_costs[bottom].bottom_rounds > 0

    def test_invocation_counts_doubling(self, router64, hierarchy64):
        """Level i is invoked at most 2^i times (Lemma 3.4's recursion)."""
        rng = np.random.default_rng(75)
        result = router64.route(np.arange(64), rng.permutation(64))
        for level, cost in result.level_costs.items():
            assert cost.invocations <= 2**level

    def test_ledger_charge(self, router64):
        from repro.core import RoundLedger

        ledger = RoundLedger()
        rng = np.random.default_rng(76)
        router64.route(np.arange(64), rng.permutation(64), ledger=ledger)
        assert "route/instance" in ledger.by_label()

    def test_more_packets_cost_no_less(self, router64):
        rng = np.random.default_rng(77)
        small = router64.route(
            rng.integers(0, 64, 8), rng.integers(0, 64, 8)
        )
        big = router64.route(np.arange(64), rng.permutation(64))
        assert big.cost_g0_rounds >= small.cost_g0_rounds * 0.3


class TestPhasing:
    def test_phase_count_respects_promise(self, router64):
        """Load K times above the promise needs ~K phases."""
        sources = np.repeat(np.arange(64), 12)
        rng = np.random.default_rng(78)
        destinations = rng.integers(0, 64, size=sources.shape[0])
        result = router64.route(sources, destinations)
        assert result.delivered
        # At 12 packets/node with a promise of d*log2(n) = 36 the load fits
        # one phase for sources, but the random destinations may spike.
        assert 1 <= result.num_phases <= 4


class TestOtherTopologies:
    @pytest.mark.parametrize(
        "factory,n",
        [
            (lambda: hypercube(6), 64),
            (lambda: grid_torus(8, 8), 64),
            (lambda: random_regular(96, 8, np.random.default_rng(79)), 96),
        ],
    )
    def test_permutation_on_family(self, factory, n, params):
        graph = factory()
        rng = np.random.default_rng(80)
        hierarchy = build_hierarchy(graph, params, rng)
        router = Router(hierarchy, params=params, rng=rng)
        perm = rng.permutation(n)
        assert router.route(np.arange(n), perm).delivered


class TestMissingPortalPath:
    def test_missing_portal_raises(self, hierarchy64, params):
        router = Router(
            hierarchy64, params=params, rng=np.random.default_rng(81)
        )
        # Sabotage the portal table.
        router.portals.tables[0][:, :] = -1
        rng = np.random.default_rng(82)
        with pytest.raises(RoutingError, match="missing portal"):
            router.route(np.arange(64), rng.permutation(64))


class TestTracing:
    def test_trace_disabled_by_default(self, router64):
        rng = np.random.default_rng(83)
        result = router64.route(np.arange(64), rng.permutation(64))
        assert result.packet_hops is None

    def test_trace_records_hops(self, router64, hierarchy64):
        rng = np.random.default_rng(84)
        result = router64.route(
            np.arange(64), rng.permutation(64), trace=True
        )
        assert result.packet_hops is not None
        assert result.packet_hops.shape == (64,)
        bound = 2 ** (hierarchy64.depth + 1) - 1
        assert result.packet_hops.max() <= bound

    def test_self_destination_zero_hops_possible(self, router64):
        result = router64.route(
            np.array([5]), np.array([5]), trace=True
        )
        # The packet may land on its destination's canonical vnode during
        # preparation; its hop count is small either way.
        assert result.packet_hops[0] >= 0

    def test_trace_consistent_across_phases(self, router64):
        sources = np.arange(64)
        destinations = np.zeros(64, dtype=np.int64)  # phased demand
        result = router64.route(sources, destinations, trace=True)
        assert result.delivered
        assert result.packet_hops.shape == (64,)


def _scalar_hop(router, level, portals, target_parts):
    """One packet at a time, one ``rng.integers`` draw each: the oracle
    for the vectorized :meth:`Router._hop`."""
    overlay = router.hierarchy.overlay_at(level)
    parts_next = router.hierarchy.parts_at(level + 1)
    landed = np.empty_like(portals)
    chosen_arcs = np.empty_like(portals)
    for i, (portal, part) in enumerate(zip(portals, target_parts)):
        arcs = np.arange(overlay.indptr[portal], overlay.indptr[portal + 1])
        valid = arcs[parts_next[overlay.indices[arcs]] == part]
        if router._self_heal and valid.size:
            live = valid[~router._dead_vnode[overlay.indices[valid]]]
            if live.size:
                valid = live
        if valid.size == 0:
            raise RoutingError(
                f"portal {int(portal)} lost its boundary edge to part "
                f"{int(part)} at level {level + 1}"
            )
        arc = int(valid[router.rng.integers(0, valid.size)])
        landed[i] = overlay.indices[arc]
        chosen_arcs[i] = arc
    congestion = np.bincount(chosen_arcs).max() if portals.size else 0
    return landed, float(congestion)


def _hop_packets(hierarchy, level, count, seed):
    """Random (portal, target part) pairs with at least one arc from the
    portal into the part, repeats included."""
    overlay = hierarchy.overlay_at(level)
    parts_next = hierarchy.parts_at(level + 1)
    rng = np.random.default_rng(seed)
    portals, parts = [], []
    while len(portals) < count:
        vnode = int(rng.integers(0, overlay.num_nodes))
        heads = overlay.neighbors(vnode)
        if heads.size:
            portals.append(vnode)
            parts.append(int(rng.choice(parts_next[heads])))
    return np.array(portals, dtype=np.int64), np.array(parts, dtype=np.int64)


def _run_both(router, level, portals, parts):
    """``(oracle outcome, vectorized outcome)``, each with the generator
    state it leaves; both start from the same state."""
    outcomes = []
    start = router.rng.bit_generator.state
    for hop in (
        lambda: _scalar_hop(router, level, portals, parts),
        lambda: router._hop(level, portals, parts),
    ):
        router.rng.bit_generator.state = start
        try:
            result = hop()
        except RoutingError as error:
            result = str(error)
        outcomes.append((result, router.rng.bit_generator.state))
    return outcomes


def _assert_same(outcomes):
    (expected, expected_state), (actual, actual_state) = outcomes
    if isinstance(expected, str):
        assert actual == expected
    else:
        assert np.array_equal(actual[0], expected[0])
        assert actual[0].dtype == expected[0].dtype
        assert actual[1] == expected[1]
    assert actual_state == expected_state


class TestVectorizedHop:
    """``Router._hop`` draws and lands exactly like the per-packet loop."""

    @pytest.fixture()
    def router(self, hierarchy64, router64, params):
        return Router(
            hierarchy64, portals=router64.portals, params=params,
            rng=np.random.default_rng(90),
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_scalar_loop(self, router, hierarchy64, seed):
        for level in range(hierarchy64.depth):
            portals, parts = _hop_packets(hierarchy64, level, 200, seed)
            _assert_same(_run_both(router, level, portals, parts))

    def test_empty_packet_set(self, router):
        empty = np.empty(0, dtype=np.int64)
        outcomes = _run_both(router, 0, empty, empty)
        _assert_same(outcomes)
        assert outcomes[1][0][0].size == 0

    def test_stranded_portal_error(self, router, hierarchy64):
        portals, parts = _hop_packets(hierarchy64, 0, 12, 3)
        parts[5] = hierarchy64.parts_at(1).max() + 1  # no arc leads there
        outcomes = _run_both(router, 0, portals, parts)
        _assert_same(outcomes)
        assert outcomes[1][0].startswith(f"portal {int(portals[5])} ")

    def test_self_heal_prefers_live_and_falls_back_to_dead(
        self, hierarchy64, router64, params
    ):
        portals, parts = _hop_packets(hierarchy64, 0, 300, 4)
        overlay = hierarchy64.overlay_at(0)
        host = hierarchy64.g0.virtual.host
        parts_next = hierarchy64.parts_at(1)
        # Kill the hosts of every boundary head of packet 0, so its
        # portal keeps only dead edges, plus a few more hosts.
        heads = overlay.neighbors(portals[0])
        dead_hosts = set(host[heads[parts_next[heads] == parts[0]]].tolist())
        dead_hosts |= {3, 17, 40}
        view = CrashView(64, ((0, 10**6, frozenset(dead_hosts)),), 0.0)
        router = Router(
            hierarchy64, portals=router64.portals, params=params,
            rng=np.random.default_rng(91), recovery="self-heal",
            crash_view=view,
        )
        assert router._self_heal
        dead = router._dead_vnode
        fallback = partial = 0
        for portal, part in zip(portals, parts):
            heads = overlay.neighbors(portal)
            valid = heads[parts_next[heads] == part]
            fallback += bool(dead[valid].all())
            partial += bool(dead[valid].any() and not dead[valid].all())
        assert fallback and partial
        _assert_same(_run_both(router, 0, portals, parts))
