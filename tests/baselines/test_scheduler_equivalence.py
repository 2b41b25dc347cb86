"""Seed-for-seed equivalence of the vectorized scheduler and its oracle.

The vectorized :func:`repro.baselines.routing_baselines.schedule_paths`
must replicate the scalar dict-and-deque reference packet-for-packet:
same ``rounds``, ``delivered``, ``max_queue`` and ``total_hops`` on the
same seed, across adversarial path sets (duplicate-edge contention,
length-1 paths, sparse node ids, queues drained and refilled in one
round, edge counts on both sides of the sort-dtype switches) and the
workloads the pipeline actually produces (walk trajectories, saturated
native-build path systems, circulations), from lists and from CSR
arrays of any integer dtype.
"""

import numpy as np
import pytest

from repro.analysis.perf import circulation_paths
from repro.baselines.routing_baselines import (
    schedule_paths,
    schedule_paths_csr,
)
from repro.baselines.routing_baselines_ref import schedule_paths_ref
from repro.graphs import random_regular
from repro.walks import degree_proportional_starts, run_lazy_walks


def _both(paths, seed):
    vec = schedule_paths(paths, rng=np.random.default_rng(seed))
    ref = schedule_paths_ref(paths, rng=np.random.default_rng(seed))
    return vec, ref


def _csr(paths, dtype):
    offsets = np.zeros(len(paths) + 1, dtype=np.int64)
    np.cumsum([len(path) for path in paths], out=offsets[1:])
    nodes = np.array([v for path in paths for v in path], dtype=dtype)
    return nodes, offsets


def _walk_paths(graph, walks_per_arc, steps, seed):
    """Lazy-walk trajectories with stays dropped, one walk per
    (arc tail, copy) — the shape of the native G0 construction."""
    starts = np.repeat(graph.arc_tails, walks_per_arc)
    run = run_lazy_walks(
        graph, starts, steps, np.random.default_rng(seed),
        record_trajectory=True,
    )
    paths = []
    for col in run.trajectory.T:
        keep = np.ones(col.shape[0], dtype=bool)
        keep[1:] = col[1:] != col[:-1]
        paths.append(col[keep].tolist())
    return paths


def _circulant_paths(num_nodes, shifts, walks, steps, seed):
    """Every arc ``i -> i + s`` of a circulant digraph as a one-hop
    packet, plus random walks along its arcs: exactly
    ``num_nodes * len(shifts)`` distinct directed edges."""
    rng = np.random.default_rng(seed)
    shifts = np.asarray(shifts)
    nodes = np.arange(num_nodes)
    paths = [
        [int(v), int((v + s) % num_nodes)] for s in shifts for v in nodes
    ]
    position = rng.integers(0, num_nodes, size=walks)
    trails = [position]
    for _ in range(steps):
        position = (position + rng.choice(shifts, size=walks)) % num_nodes
        trails.append(position)
    paths.extend(np.stack(trails, axis=1).tolist())
    return paths


def _random_paths(rng, num_paths, num_nodes, max_len, offset=0):
    paths = []
    for _ in range(num_paths):
        length = int(rng.integers(1, max_len + 1))
        paths.append(
            [int(x) + offset for x in rng.integers(0, num_nodes, size=length)]
        )
    return paths


class TestRandomizedEquivalence:
    @pytest.mark.parametrize("trial", range(20))
    def test_random_path_sets(self, trial):
        rng = np.random.default_rng((400, trial))
        num_nodes = int(rng.integers(4, 40))
        paths = _random_paths(
            rng, int(rng.integers(1, 80)), num_nodes, int(rng.integers(1, 12))
        )
        vec, ref = _both(paths, (401, trial))
        assert vec == ref

    @pytest.mark.parametrize("trial", range(8))
    def test_duplicate_edge_contention(self, trial):
        """Many verbatim copies of the same paths pile onto shared edges."""
        rng = np.random.default_rng((402, trial))
        base = _random_paths(rng, 6, 10, 8)
        paths = []
        for _ in range(12):
            paths.extend([list(p) for p in base])
        vec, ref = _both(paths, (403, trial))
        assert vec == ref
        assert vec.max_queue > 1  # the workload really contends

    def test_single_path_copies_queue_depth(self):
        paths = [[0, 1, 2, 3]] * 25
        vec, ref = _both(paths, 404)
        assert vec == ref
        assert vec.max_queue == 25
        assert vec.rounds == 3 + 24  # pipeline drain: hops + (copies - 1)

    @pytest.mark.parametrize("trial", range(6))
    def test_sparse_node_ids(self, trial):
        """Huge id spread forces the np.unique fallback path."""
        rng = np.random.default_rng((405, trial))
        paths = _random_paths(rng, 30, 10, 8)
        spread = [
            [node * 10_000_019 for node in path] for path in paths
        ]
        vec, ref = _both(spread, (406, trial))
        assert vec == ref


class TestDegenerateInputs:
    def test_empty_input(self):
        vec, ref = _both([], 407)
        assert vec == ref
        assert vec.rounds == 0 and vec.total_hops == 0

    def test_all_length_one_paths(self):
        paths = [[3], [7], [3]]
        vec, ref = _both(paths, 408)
        assert vec == ref
        assert vec.rounds == 0 and vec.max_queue == 0

    def test_mixed_length_one_and_real_paths(self):
        paths = [[5], [0, 1], [9], [1, 0, 1], [2]]
        vec, ref = _both(paths, 409)
        assert vec == ref

    def test_rng_consumption_matches(self):
        """Both implementations consume exactly one permutation call."""
        paths = [[0, 1, 2], [2, 1, 0], [1]]
        rng_vec = np.random.default_rng(410)
        rng_ref = np.random.default_rng(410)
        schedule_paths(paths, rng=rng_vec)
        schedule_paths_ref(paths, rng=rng_ref)
        assert rng_vec.integers(1 << 30) == rng_ref.integers(1 << 30)

    def test_seed_keyword_matches(self):
        paths = [[0, 1, 2, 1], [1, 2, 0], [2, 0]] * 4
        assert schedule_paths(paths, seed=411) == schedule_paths_ref(
            paths, seed=411
        )


class TestPipelineWorkloads:
    def test_walk_trajectory_workload(self):
        """Compressed lazy-walk trajectories — the native-G0 shape."""
        graph = random_regular(64, 6, np.random.default_rng(412))
        starts = degree_proportional_starts(graph, 2)
        run = run_lazy_walks(
            graph, starts, 24, np.random.default_rng(413),
            record_trajectory=True,
        )
        paths = []
        for col in run.trajectory.T:
            keep = np.ones(col.shape[0], dtype=bool)
            keep[1:] = col[1:] != col[:-1]
            paths.append(col[keep].tolist())
        vec, ref = _both(paths, 414)
        assert vec == ref

    def test_circulation_workload(self):
        """Contention-free circulation: rounds == hops, unit queues."""
        graph = random_regular(128, 8, np.random.default_rng(415))
        paths = circulation_paths(graph, 256, 20)
        vec, ref = _both(paths, 416)
        assert vec == ref
        assert vec.rounds == 20
        assert vec.max_queue == 1

    def test_round_budget_exceeded_matches(self):
        paths = [[0, 1, 2, 3, 4]] * 10
        with pytest.raises(RuntimeError, match="round budget"):
            schedule_paths(paths, seed=417, max_rounds=3)
        with pytest.raises(RuntimeError, match="round budget"):
            schedule_paths_ref(paths, seed=417, max_rounds=3)


class TestLeanLoopInvariants:
    """Cases aimed at the departure-round queue state and the narrow
    sort keys of the vectorized loop."""

    def test_saturated_native_shape(self):
        """Walk paths on a random regular graph, 12 per arc: nearly every
        directed edge forwards a packet every round."""
        graph = random_regular(24, 4, np.random.default_rng(420))
        paths = _walk_paths(graph, 12, 30, 421)
        vec, ref = _both(paths, 422)
        assert vec == ref
        busy = vec.total_hops / (vec.rounds * graph.num_arcs)
        assert busy > 0.75

    def test_queue_drained_and_refilled_in_one_round(self):
        """Seed 1 enqueues A=[2,0,1,0] on (2,0), B=[2,1] on (2,1) and
        C=[1,2,1,0,2] on (1,2), in that key order.  In round 1 queue
        (2,1) ships B and receives C, so its key survives in its old
        place, ahead of (0,1), which A keys afresh.  In round 2 C
        therefore reaches (1,0) before A and the run ends in round 4;
        re-keying (2,1) behind (0,1) would queue A first and take 5."""
        paths = [[2, 0, 1, 0], [2, 1], [1, 2, 1, 0, 2]]
        vec, ref = _both(paths, 1)
        assert vec == ref
        assert ref.rounds == 4

    @pytest.mark.parametrize("trial", range(30))
    def test_dense_refill_churn(self, trial):
        """Many short paths over few nodes: queues drain and refill in
        the same round all the time."""
        rng = np.random.default_rng((424, trial))
        paths = _random_paths(rng, int(rng.integers(20, 120)), 5, 6)
        vec, ref = _both(paths, (425, trial))
        assert vec == ref

    @pytest.mark.parametrize(
        "num_nodes, shifts",
        [
            (17, range(1, 16)),  # 255 edges: uint8 keys
            (32, range(1, 9)),  # 256 edges: uint16 keys
            (1285, range(1, 52)),  # 65,535 edges: uint16 keys
            (512, range(1, 129)),  # 65,536 edges: uint32 keys
        ],
    )
    def test_sort_dtype_boundaries(self, num_nodes, shifts):
        shifts = list(shifts)
        paths = _circulant_paths(num_nodes, shifts, 200, 40, num_nodes)
        distinct = {
            (path[i], path[i + 1])
            for path in paths
            for i in range(len(path) - 1)
        }
        assert len(distinct) == num_nodes * len(shifts)
        vec, ref = _both(paths, (426, num_nodes))
        assert vec == ref
        assert vec.max_queue > 1

    @pytest.mark.parametrize("dtype", [np.int32, np.int64, np.uint16])
    def test_csr_node_dtypes(self, dtype):
        graph = random_regular(32, 4, np.random.default_rng(427))
        paths = _walk_paths(graph, 3, 16, 428)
        paths.extend([[5], [7, 7], [3, 9, 3]])
        nodes, offsets = _csr(paths, dtype)
        vec = schedule_paths_csr(
            nodes, offsets, rng=np.random.default_rng(429)
        )
        ref = schedule_paths_ref(paths, rng=np.random.default_rng(429))
        assert vec == ref

    def test_int32_node_ids_near_the_top(self):
        """int32 ids far from zero: the hop keys are formed in int64."""
        rng = np.random.default_rng(430)
        base = _random_paths(rng, 60, 12, 9)
        top = np.iinfo(np.int32).max - 20
        paths = [[top - v for v in path] for path in base]
        nodes, offsets = _csr(paths, np.int32)
        vec = schedule_paths_csr(
            nodes, offsets, rng=np.random.default_rng(431)
        )
        ref = schedule_paths_ref(paths, rng=np.random.default_rng(431))
        assert vec == ref
