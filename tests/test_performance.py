"""Performance regression guards.

Loose wall-clock ceilings on the vectorized kernels: these are not
micro-benchmarks (see benchmarks/) but tripwires against accidentally
de-vectorizing a hot path.  Thresholds are ~10x typical laptop times.
"""

import time

import numpy as np
import pytest

from repro.graphs import random_regular
from repro.walks import degree_proportional_starts, run_lazy_walks
from repro.walks.correlated import run_correlated_walks


@pytest.fixture(scope="module")
def big_graph():
    return random_regular(1024, 8, np.random.default_rng(310))


class TestKernelSpeed:
    def test_walk_engine_throughput(self, big_graph):
        """~1.6M walk-steps should take well under 10 seconds."""
        rng = np.random.default_rng(311)
        starts = degree_proportional_starts(big_graph, 2)  # 16384 walks
        begin = time.perf_counter()  # reprolint: disable=R003 (measurement)
        run_lazy_walks(big_graph, starts, 100, rng)
        elapsed = time.perf_counter() - begin  # reprolint: disable=R003
        assert elapsed < 10.0, f"walk engine too slow: {elapsed:.1f}s"

    def test_correlated_engine_throughput(self, big_graph):
        rng = np.random.default_rng(312)
        starts = degree_proportional_starts(big_graph, 1)
        begin = time.perf_counter()  # reprolint: disable=R003 (measurement)
        run_correlated_walks(big_graph, starts, 50, rng)
        elapsed = time.perf_counter() - begin  # reprolint: disable=R003
        assert elapsed < 10.0, f"correlated engine too slow: {elapsed:.1f}s"

    def test_spectral_gap_large_graph(self, big_graph):
        from repro.graphs import spectral_gap

        begin = time.perf_counter()  # reprolint: disable=R003 (measurement)
        gap = spectral_gap(big_graph)
        elapsed = time.perf_counter() - begin  # reprolint: disable=R003
        assert gap > 0
        assert elapsed < 10.0, f"sparse gap too slow: {elapsed:.1f}s"

    def test_hierarchy_build_moderate(self):
        from repro.core import build_hierarchy
        from repro.params import Params

        graph = random_regular(256, 8, np.random.default_rng(313))
        begin = time.perf_counter()  # reprolint: disable=R003 (measurement)
        build_hierarchy(graph, Params.default(), np.random.default_rng(314))
        elapsed = time.perf_counter() - begin  # reprolint: disable=R003
        assert elapsed < 30.0, f"hierarchy build too slow: {elapsed:.1f}s"

    def test_scheduler_throughput(self, big_graph):
        """4096 packets x 64 hops through the vectorized scheduler —
        sub-second when vectorized, ~10x ceiling against regression."""
        from repro.analysis.perf import circulation_paths
        from repro.baselines import schedule_paths

        paths = circulation_paths(big_graph, 4096, 64)
        begin = time.perf_counter()  # reprolint: disable=R003 (measurement)
        result = schedule_paths(paths, seed=316)
        elapsed = time.perf_counter() - begin  # reprolint: disable=R003
        assert result.rounds == 64
        assert elapsed < 2.0, f"scheduler too slow: {elapsed:.1f}s"

    def test_simulator_throughput(self):
        """The walk protocol through Network.run at n=128: the per-round
        delivery loop must stay O(messages), not O(n * degree)."""
        from repro.congest.walk_protocol import run_walk_protocol

        graph = random_regular(128, 6, np.random.default_rng(317))
        starts = np.repeat(np.arange(128), 2)
        begin = time.perf_counter()  # reprolint: disable=R003 (measurement)
        outcome = run_walk_protocol(graph, starts, 16, seed=318)
        elapsed = time.perf_counter() - begin  # reprolint: disable=R003
        assert (outcome.returned_to == starts).all()
        assert elapsed < 5.0, f"simulator too slow: {elapsed:.1f}s"

    def test_routing_instance_fast(self, hierarchy64, router64):
        rng = np.random.default_rng(315)
        begin = time.perf_counter()  # reprolint: disable=R003 (measurement)
        for _ in range(10):
            router64.route(np.arange(64), rng.permutation(64))
        elapsed = time.perf_counter() - begin  # reprolint: disable=R003
        assert elapsed < 10.0, f"routing too slow: {elapsed:.1f}s"


def _best_of(runs, fn):
    best = float("inf")
    for _ in range(runs):
        begin = time.perf_counter()  # reprolint: disable=R003 (measurement)
        fn()
        elapsed = time.perf_counter() - begin  # reprolint: disable=R003
        best = min(best, elapsed)
    return best


class TestChurnPathSpeed:
    """Tripwires for the array code on the churn path.  Times below are
    from a 2-vCPU x86-64 VM (Python 3.11, numpy 2.4)."""

    def test_graph_construction(self):
        """200k edges in ~30 ms; the per-edge loop it replaced took
        ~1.2 s on the same host."""
        from repro.graphs import Graph

        rng = np.random.default_rng(330)
        n = 50_000
        tails = rng.integers(0, n, size=200_000)
        heads = (tails + rng.integers(1, n, size=200_000)) % n
        edges = np.stack([tails, heads], axis=1)
        elapsed = _best_of(3, lambda: Graph(n, edges))
        assert elapsed < 0.3, f"Graph construction too slow: {elapsed:.2f}s"

    def test_boundary_nodes_on_g0_overlay(self):
        """The n=512 G0 overlay (110,592 edges, beta=64) in ~40 ms; the
        Python-set loop it replaced took ~0.3 s on the same host, so
        the ceiling sits at ~5x rather than 10x."""
        from repro.core import build_g0, build_partition
        from repro.core.portals import _boundary_nodes
        from repro.params import Params

        graph = random_regular(512, 6, np.random.default_rng(331))
        params = Params.default()
        g0 = build_g0(graph, params, np.random.default_rng(332))
        partition = build_partition(
            g0.virtual, params, np.random.default_rng(333)
        )
        parts = partition.all_parts_at_level(1)
        elapsed = _best_of(
            3, lambda: _boundary_nodes(g0.overlay, parts, partition.beta)
        )
        assert elapsed < 0.2, f"boundary discovery too slow: {elapsed:.2f}s"


class TestNativePathSpeed:
    """Tripwires for the native path's store-and-forward loop and the
    simulator's set-up.  Times below are from a 2-vCPU x86-64 VM
    (Python 3.11, numpy 2.4)."""

    def test_scheduler_saturated_walk_paths(self):
        """18,432 walk paths on the n=256 6-regular graph (442k hops,
        350 rounds, ~82% of the directed edges busy per round) in
        ~65 ms; a per-packet Python loop would take seconds."""
        from repro.baselines import schedule_paths_csr

        graph = random_regular(256, 6, np.random.default_rng(340))
        starts = np.repeat(graph.arc_tails, 12)
        run = run_lazy_walks(
            graph, starts, 48, np.random.default_rng(341),
            record_trajectory=True,
        )
        trajectory = run.trajectory.T
        keep = np.ones(trajectory.shape, dtype=bool)
        keep[:, 1:] = trajectory[:, 1:] != trajectory[:, :-1]
        nodes = trajectory[keep]
        offsets = np.zeros(trajectory.shape[0] + 1, dtype=np.int64)
        np.cumsum(keep.sum(axis=1), out=offsets[1:])
        elapsed = _best_of(
            3, lambda: schedule_paths_csr(nodes, offsets, seed=342)
        )
        result = schedule_paths_csr(nodes, offsets, seed=342)
        assert result.rounds == 350
        assert elapsed < 0.6, f"saturated scheduler too slow: {elapsed:.2f}s"

    def test_network_setup(self):
        """Network(graph) at n=1024, degree 8 in ~4.5 ms (the per-element
        build it replaced took ~12 ms)."""
        from repro.congest import Network

        graph = random_regular(1024, 8, np.random.default_rng(343))
        elapsed = _best_of(3, lambda: Network(graph))
        assert elapsed < 0.03, f"Network set-up too slow: {elapsed:.3f}s"
