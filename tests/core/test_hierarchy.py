"""Tests for the hierarchical embedding (Lemmas 3.1 / 3.2 structure)."""

import copy

import numpy as np
import pytest

from repro.core import RepairReport, build_hierarchy, repair_overlay
from repro.graphs import Graph, random_regular
from repro.params import Params


class TestStructure:
    def test_depth_positive(self, hierarchy64):
        assert hierarchy64.depth >= 1

    def test_levels_indexed(self, hierarchy64):
        for i, level in enumerate(hierarchy64.levels, start=1):
            assert level.index == i

    def test_part_sizes_shrink_by_beta(self, hierarchy64):
        previous = hierarchy64.g0.virtual.count
        for level in hierarchy64.levels:
            sizes = np.bincount(level.parts)
            assert sizes.max() < previous
            previous = sizes.max()

    def test_last_level_is_clique(self, hierarchy64):
        assert hierarchy64.levels[-1].is_clique
        for level in hierarchy64.levels[:-1]:
            assert not level.is_clique

    def test_clique_level_complete_per_part(self, hierarchy64):
        level = hierarchy64.levels[-1]
        parts = level.parts
        overlay = level.overlay
        # Pick one part and verify it is a clique.
        part_id = parts[0]
        members = np.flatnonzero(parts == part_id)
        for i, u in enumerate(members):
            neighbors = set(int(w) for w in overlay.neighbors(int(u)))
            expected = set(int(w) for w in members) - {int(u)}
            assert neighbors == expected

    def test_overlay_edges_stay_within_parts(self, hierarchy64):
        for level in hierarchy64.levels:
            for u, v in level.overlay.edges():
                assert level.parts[u] == level.parts[v]

    def test_parts_match_partition(self, hierarchy64):
        for level in hierarchy64.levels:
            assert np.array_equal(
                level.parts,
                hierarchy64.partition.all_parts_at_level(level.index),
            )

    def test_nonclique_parts_internally_connected(self, hierarchy64):
        """Each part's random graph must be connected for routing."""
        for level in hierarchy64.levels:
            overlay = level.overlay
            parts = level.parts
            for part_id in np.unique(parts):
                members = np.flatnonzero(parts == part_id)
                seen = {int(members[0])}
                frontier = [int(members[0])]
                while frontier:
                    node = frontier.pop()
                    for w in overlay.neighbors(node):
                        w = int(w)
                        if w not in seen:
                            seen.add(w)
                            frontier.append(w)
                assert seen == set(int(x) for x in members)


class TestCosts:
    def test_emulation_costs_positive(self, hierarchy64):
        for level in hierarchy64.levels:
            assert level.emulation_cost >= 1.0
            assert level.build_cost > 0

    def test_emulation_chain_multiplies(self, hierarchy64):
        factor = 1.0
        for i, level in enumerate(hierarchy64.levels, start=1):
            factor *= level.emulation_cost
            assert hierarchy64.emulation_to_g0(i) == pytest.approx(factor)

    def test_emulation_to_g_includes_g0(self, hierarchy64):
        assert hierarchy64.emulation_to_g(0) == pytest.approx(
            hierarchy64.g0.round_cost
        )

    def test_emulation_cost_polylog(self, hierarchy64):
        """Lemma 3.1: one G_i round embeds in O(log^2 n) G_{i-1} rounds."""
        n = hierarchy64.g0.base_graph.num_nodes
        log_n = np.log2(n)
        for level in hierarchy64.levels:
            assert level.emulation_cost <= 12 * log_n**2

    def test_construction_rounds_recorded(self, hierarchy64):
        labels = hierarchy64.ledger.by_label()
        assert "g0/build" in labels
        assert any(label.startswith("hierarchy/build") for label in labels)
        assert hierarchy64.construction_rounds() > 0

    def test_seed_broadcast_charged(self, hierarchy64):
        assert "partition/seed-broadcast" in hierarchy64.ledger.by_label()


class TestAccessors:
    def test_overlay_at_zero(self, hierarchy64):
        assert hierarchy64.overlay_at(0) is hierarchy64.g0.overlay

    def test_parts_at_zero_all_root(self, hierarchy64):
        assert np.all(hierarchy64.parts_at(0) == 0)

    def test_beta_property(self, hierarchy64):
        assert hierarchy64.beta == hierarchy64.partition.beta == 4


class TestVariants:
    def test_walk_overlay_variant_matches_structure(self, expander64):
        params = Params.default().with_overrides(use_walk_overlays=True)
        h = build_hierarchy(
            expander64, params, np.random.default_rng(50), beta=4
        )
        assert h.depth >= 2
        for level in h.levels[:-1]:
            degrees = level.overlay.degrees
            assert degrees.min() >= 1

    def test_depth_override(self, expander64):
        h = build_hierarchy(
            expander64, Params.default(), np.random.default_rng(51),
            beta=4, depth=2,
        )
        assert h.depth <= 2

    def test_disconnected_rejected(self):
        g = Graph(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError):
            build_hierarchy(g, Params.default(), np.random.default_rng(0))

    def test_default_arguments(self):
        g = random_regular(32, 4, np.random.default_rng(52))
        h = build_hierarchy(g)
        assert h.depth >= 1


def _loop_repair_overlay(hierarchy, dead_vnodes, rng, context=None):
    """The per-edge loop version of :func:`repair_overlay`, kept as the
    oracle for the array version."""
    dead = frozenset(int(v) for v in dead_vnodes)
    replaced, dropped = {}, {}
    total_cost = 0.0
    if not dead:
        return RepairReport((), replaced, dropped, 0.0)
    num_vnodes = hierarchy.g0.virtual.count
    walk_length = max(4, int(round(3.0 * np.log2(max(2, num_vnodes)))))
    for level in hierarchy.levels:
        edges = level.overlay.edge_array
        if edges.size == 0:
            continue
        tails, heads = edges[:, 0], edges[:, 1]
        hit = np.fromiter(
            (int(u) in dead or int(v) in dead for u, v in zip(tails, heads)),
            dtype=bool,
            count=edges.shape[0],
        )
        if not hit.any():
            continue
        kept = [(int(u), int(v)) for u, v in zip(tails[~hit], heads[~hit])]
        adjacency = {}
        for u, v in kept:
            adjacency.setdefault(u, set()).add(v)
            adjacency.setdefault(v, set()).add(u)
        parts = level.parts
        members_of = {}
        for part in {int(parts[u]) for u in dead if u < parts.shape[0]}:
            members_of[part] = [
                int(w)
                for w in np.flatnonzero(parts == part).tolist()
                if int(w) not in dead
            ]
        n_replaced = n_dropped = 0
        for u, v in zip(tails[hit], heads[hit]):
            u, v = int(u), int(v)
            live_end = None
            if u not in dead and v in dead:
                live_end = u
            elif v not in dead and u in dead:
                live_end = v
            if live_end is None or level.is_clique:
                n_dropped += 1
                continue
            part = int(parts[live_end])
            pool = members_of.get(part)
            if pool is None:
                pool = [
                    int(w)
                    for w in np.flatnonzero(parts == part).tolist()
                    if int(w) not in dead
                ]
                members_of[part] = pool
            taken = adjacency.get(live_end, set())
            candidates = [
                w for w in pool if w != live_end and w not in taken
            ]
            if not candidates:
                n_dropped += 1
                continue
            w = candidates[int(rng.integers(0, len(candidates)))]
            kept.append((live_end, w))
            adjacency.setdefault(live_end, set()).add(w)
            adjacency.setdefault(w, set()).add(live_end)
            n_replaced += 1
        level.overlay = Graph(level.overlay.num_nodes, kept)
        if n_replaced:
            replaced[level.index] = n_replaced
        if n_dropped:
            dropped[level.index] = n_dropped
        cost = (
            2.0 * n_replaced * walk_length
            * hierarchy.emulation_to_g(level.index - 1)
        )
        if cost > 0.0:
            total_cost += cost
            target = context if context is not None else hierarchy.ledger
            target.charge(
                f"recovery/repair-level-{level.index}",
                cost,
                replaced=n_replaced,
                dropped=n_dropped,
            )
    return RepairReport(tuple(sorted(dead)), replaced, dropped, total_cost)


class _RecordingContext:
    def __init__(self):
        self.charges = []

    def charge(self, label, rounds, **detail):
        self.charges.append((label, rounds, detail))


def _charges(ledger):
    return [(c.label, c.rounds, c.detail) for c in ledger.charges]


def _assert_repair_matches_loop(hierarchy, dead, seed=80, context=False):
    want_h, got_h = copy.deepcopy(hierarchy), copy.deepcopy(hierarchy)
    want_rng = np.random.default_rng(seed)
    got_rng = np.random.default_rng(seed)
    want_ctx = _RecordingContext() if context else None
    got_ctx = _RecordingContext() if context else None
    want = _loop_repair_overlay(want_h, dead, want_rng, want_ctx)
    got = repair_overlay(got_h, dead, got_rng, got_ctx)
    assert got == want
    for want_level, got_level in zip(want_h.levels, got_h.levels):
        a, b = want_level.overlay.edge_array, got_level.overlay.edge_array
        assert a.dtype == b.dtype
        assert np.array_equal(a, b), want_level.index
        assert np.array_equal(
            want_level.overlay.indices, got_level.overlay.indices
        )
    assert _charges(got_h.ledger) == _charges(want_h.ledger)
    if context:
        assert got_ctx.charges == want_ctx.charges
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
    return got


class TestRepairOverlayMatchesLoop:
    def test_empty_dead_set(self, hierarchy64):
        report = _assert_repair_matches_loop(hierarchy64, [])
        assert report == RepairReport((), {}, {}, 0.0)

    @pytest.mark.parametrize("vnode", [0, 17, 101])
    def test_one_dead_vnode(self, hierarchy64, vnode):
        report = _assert_repair_matches_loop(hierarchy64, [vnode])
        assert report.replaced

    def test_several_dead_vnodes_via_context(self, hierarchy64):
        dead = np.random.default_rng(81).choice(
            hierarchy64.g0.virtual.count, size=12, replace=False
        )
        _assert_repair_matches_loop(hierarchy64, dead, seed=82, context=True)

    def test_whole_part_dead(self, hierarchy64):
        bottom = hierarchy64.levels[-1]
        dead = np.flatnonzero(bottom.parts == bottom.parts[5])
        report = _assert_repair_matches_loop(hierarchy64, dead)
        assert report.dropped

    def test_clique_level_drops_only(self, hierarchy64):
        bottom = hierarchy64.levels[-1]
        assert bottom.is_clique
        report = _assert_repair_matches_loop(hierarchy64, [9])
        assert bottom.index not in report.replaced
        assert report.dropped[bottom.index] == int(
            np.count_nonzero((bottom.overlay.edge_array == 9).any(axis=1))
        )

    def test_no_live_non_adjacent_candidate(self, hierarchy64):
        # Keep one node x and a single overlay neighbour y alive in x's
        # first-level part: x and y each lose edges, and the only live
        # member left is already adjacent, so both edges are dropped.
        level = hierarchy64.levels[0]
        assert not level.is_clique
        edges = level.overlay.edge_array
        x, y = (int(e) for e in edges[0])
        part = np.flatnonzero(level.parts == level.parts[x])
        dead = [int(w) for w in part if w not in (x, y)]
        assert level.overlay.degree(x) > 1
        report = _assert_repair_matches_loop(hierarchy64, dead)
        assert level.index not in report.replaced
        assert report.dropped[level.index] > 0
