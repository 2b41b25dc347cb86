"""Naive routing baselines for the E1 comparison.

Two contrast points for the hierarchical router:

* **BFS store-and-forward**: each packet follows a shortest path; edges
  carry one packet per direction per round (FIFO with random priorities).
  Simple and good when congestion is low, but hot edges serialize —
  no load-balancing structure.
* **Blind random-walk delivery**: each packet walks until it happens to
  hit its destination.  Demonstrates why raw walks do not route (the
  paper's opening observation): expected hitting time ``Theta(m / d(t))``
  per packet.

The scheduler here is the *vectorized* implementation (packets as CSR
arrays, per-round winner selection with numpy); the original scalar
dict-and-deque implementation lives on as the semantic oracle in
:mod:`repro.baselines.routing_baselines_ref` and the equivalence suite
proves the two produce identical results seed for seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from ..graphs.graph import Graph
from ..rng import resolve_rng
from ..walks.engine import run_lazy_walks

__all__ = [
    "StoreAndForwardResult",
    "bfs_store_and_forward",
    "schedule_paths",
    "schedule_paths_csr",
    "RandomWalkDeliveryResult",
    "random_walk_delivery",
]


@dataclass
class StoreAndForwardResult:
    """Outcome of the store-and-forward schedule.

    Attributes:
        rounds: rounds until the last packet arrived.
        delivered: whether every packet arrived (always True on success).
        max_queue: worst per-edge queue length observed.
        total_hops: sum of path lengths.
    """

    rounds: int
    delivered: bool
    max_queue: int
    total_hops: int


def bfs_store_and_forward(
    graph: Graph,
    sources: np.ndarray,
    destinations: np.ndarray,
    rng: np.random.Generator | None = None,
    max_rounds: int = 1_000_000,
    seed: int | None = None,
) -> StoreAndForwardResult:
    """Route packets along BFS shortest paths with unit edge capacity.

    Each directed edge forwards at most one packet per round; contended
    packets queue FIFO (arrival order randomized by ``rng``).
    """
    rng = resolve_rng(rng, seed)
    sources = np.asarray(sources, dtype=np.int64)
    destinations = np.asarray(destinations, dtype=np.int64)
    paths = _shortest_paths(graph, sources, destinations)
    return schedule_paths(paths, rng=rng, max_rounds=max_rounds)


def schedule_paths(
    paths: list[list[int]],
    rng: np.random.Generator | None = None,
    max_rounds: int = 1_000_000,
    seed: int | None = None,
) -> StoreAndForwardResult:
    """Store-and-forward scheduling of *explicit* packet paths.

    Each directed edge (consecutive path pair) forwards one packet per
    round; contended packets queue FIFO in randomized arrival order.
    Used both for shortest-path routing and for delivering overlay
    messages along their embedded walk paths (``repro.congest.native``).

    This is the vectorized scheduler: paths live in CSR arrays and every
    directed-edge queue is an array-backed linked list, so one round
    costs a handful of numpy ops over the *busy queues* (no per-packet
    Python).  It replicates the reference discipline of
    :func:`..routing_baselines_ref.schedule_paths_ref`
    packet-for-packet — including the dict-insertion drain order — so
    ``rounds``/``delivered``/``max_queue``/``total_hops`` are identical
    on the same seed (one ``rng.permutation`` is the entire randomness
    of both implementations).
    """
    rng = resolve_rng(rng, seed)
    num_packets = len(paths)
    lengths = np.fromiter(map(len, paths), dtype=np.int64, count=num_packets)
    offsets = np.zeros(num_packets + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    nodes = np.fromiter(
        chain.from_iterable(paths), dtype=np.int64, count=int(offsets[-1])
    )
    return schedule_paths_csr(
        nodes, offsets, rng=rng, max_rounds=max_rounds
    )


def schedule_paths_csr(
    nodes: np.ndarray,
    offsets: np.ndarray,
    rng: np.random.Generator | None = None,
    max_rounds: int = 1_000_000,
    seed: int | None = None,
) -> StoreAndForwardResult:
    """:func:`schedule_paths` on paths already in CSR form.

    Packet ``i``'s path is ``nodes[offsets[i]:offsets[i + 1]]``.  The
    native pipeline assembles its embedded-path systems as flat arrays
    (:mod:`repro.congest.native`); this entry point schedules them
    without a list-of-lists round trip.  Semantics are *identical* to
    :func:`schedule_paths` on the inflated lists — including the single
    ``rng.permutation(num_packets)`` draw — so both entries produce the
    same result on the same packet set and seed.

    Every nonempty queue forwards its head every round, so a queue's
    packets leave in consecutive rounds: ``due[e]``, the round in which
    the last packet queued on edge ``e`` leaves, is the whole queue
    state.  After round ``t``'s appends the queue holds ``due[e] - t``
    packets, stays keyed iff ``due[e] > t``, and a round-``t`` append
    keys it afresh iff ``due[e] < t`` — so a queue drained and refilled
    in the same round keeps its place in drain order, as the
    reference's end-of-round dict rebuild does.
    """
    rng = resolve_rng(rng, seed)
    nodes = np.asarray(nodes)
    offsets = np.asarray(offsets, dtype=np.int64)
    num_packets = int(offsets.shape[0]) - 1
    lengths = np.diff(offsets)
    total_hops = int((lengths - 1).sum()) if num_packets else 0
    order = rng.permutation(num_packets)
    entered = lengths > 1
    if not entered.any():
        return StoreAndForwardResult(
            rounds=0, delivered=True, max_queue=0, total_hops=total_hops
        )
    # A hop starts at every node that is not the last of its path.
    starts_hop = np.ones(nodes.shape[0], dtype=bool)
    starts_hop[offsets[1:] - 1] = False
    tails = nodes[:-1][starts_hop[:-1]]
    heads = nodes[1:][starts_hop[:-1]]
    del starts_hop
    # Dense directed-edge ids for the (tail, head) hop keys — dense so
    # the per-edge queue arrays stay small and cache-resident.  int64
    # keys regardless of the caller's node dtype: span**2 can overflow
    # int32 for large node-id ranges.
    low = int(nodes.min())
    span = int(nodes.max()) - low + 1
    keys = (tails.astype(np.int64) - low) * span + (heads - low)
    del tails, heads
    if span * span <= 4_194_304:
        # Presence table + scatter: same dense ids as
        # np.unique(return_inverse=True) without sorting every hop.
        seen = np.zeros(span * span, dtype=bool)
        seen[keys] = True
        uniq = np.flatnonzero(seen)
        del seen
        num_edges = int(uniq.shape[0])
        lut = np.empty(span * span, dtype=np.int32)
        lut[uniq] = np.arange(num_edges, dtype=np.int32)
        hop_edge = lut[keys]
        del lut, uniq
    else:
        uniq_keys, hop_edge = np.unique(keys, return_inverse=True)
        num_edges = int(uniq_keys.shape[0])
        hop_edge = hop_edge.astype(np.int32)
        del uniq_keys
    del keys
    num_hops = int(hop_edge.shape[0])
    # Packet p's hops are hop_offsets[p]:hop_offsets[p + 1].
    hop_offsets = np.zeros(num_packets + 1, dtype=np.int64)
    np.cumsum(np.maximum(lengths - 1, 0), out=hop_offsets[1:])
    # next_edge[h]: the edge of the hop after h, -1 at a path's last hop.
    next_edge = np.empty(num_hops, dtype=np.int32)
    next_edge[:-1] = hop_edge[1:]
    next_edge[hop_offsets[1:][entered] - 1] = -1
    # Queue e's sentinel is slot e of the link array; packet p is slot
    # num_edges + p, and cursor[slot] is its current hop.  These arrays
    # are per packet, not per hop, and stay intp: numpy indexes with
    # intp arrays without a conversion pass.
    link = np.empty(num_edges + num_packets, dtype=np.intp)
    cursor = np.empty(num_edges + num_packets, dtype=np.intp)
    tail = np.empty(num_edges, dtype=np.intp)
    due = np.full(num_edges, -1, dtype=np.int64)
    key_dtype = np.min_scalar_type(num_edges)
    initial = order[entered[order]]  # packets entering, permutation order
    first_hop = hop_offsets[initial]
    initial += num_edges
    cursor[initial] = first_hop
    edges = hop_edge[first_hop].astype(np.intp)
    del order, entered, lengths, hop_edge, hop_offsets, first_hop
    grouped = np.argsort(edges.astype(key_dtype), kind="stable")
    queues, starts, _, due_after = _enqueue_groups(
        link, tail, due, 0, edges, initial, grouped
    )
    max_queue = int(due_after.max())
    busy = queues[np.argsort(grouped[starts])]
    pending = int(initial.shape[0])
    del initial, edges, grouped, queues, starts, due_after
    rounds = 0
    while pending:
        rounds += 1
        if rounds > max_rounds:
            raise RuntimeError("store-and-forward exceeded the round budget")
        movers = link[busy]  # dict-insertion (drain) order
        link[busy] = link[movers]
        hop = cursor[movers]
        cursor[movers] = hop + 1
        edges = next_edge[hop]
        alive = edges >= 0
        cont = movers[alive]  # still in drain order
        pending -= movers.shape[0] - cont.shape[0]
        if cont.shape[0]:
            edges = edges[alive]
            grouped = np.argsort(edges.astype(key_dtype), kind="stable")
            queues, starts, due_before, due_after = _enqueue_groups(
                link, tail, due, rounds, edges.astype(np.intp), cont, grouped
            )
            peak = int(due_after.max()) - rounds
            if peak > max_queue:
                max_queue = peak
            # End-of-round dict rebuild: emptied queues lose their key,
            # queues keyed this round join at the end in first-append
            # order (a group's first append is its earliest position).
            busy = busy[due[busy] > rounds]
            fresh = (due_before < rounds).nonzero()[0]
            if fresh.shape[0]:
                first_at = grouped[starts[fresh]]
                busy = np.concatenate(
                    (busy, queues[fresh[np.argsort(first_at)]])
                )
        else:
            busy = busy[due[busy] > rounds]
    return StoreAndForwardResult(
        rounds=rounds,
        delivered=True,
        max_queue=max_queue,
        total_hops=total_hops,
    )


def _enqueue_groups(
    link: np.ndarray,
    tail: np.ndarray,
    due: np.ndarray,
    now: int,
    queues: np.ndarray,
    items: np.ndarray,
    grouped: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Append a batch of items to array-backed FIFO queues.

    The queue kernel both store-and-forward simulators share (this
    module's scheduler and
    :func:`repro.congest.walk_engine_vec.simulate_walk_timing`).  Each
    queue is a linked list through ``link``: queue ``q``'s head is
    ``link[q]`` (its sentinel slot), item slots follow the sentinels,
    and ``tail[q]`` is its last item.  Links past a tail are never read,
    so there are no terminators.  ``due[q] - now`` is the queue's
    backlog; it is empty iff ``due[q] <= now``.

    Args:
        link, tail, due: the queue state, updated in place.
        now: the backlog origin (the current round for the scheduler,
            0 for plain counts).
        queues: per item, its queue id.
        items: item slots to append.
        grouped: a permutation of the batch that groups it by queue,
            each group in its append order (a stable sort of
            ``queues`` by queue, or by ``(queue, key)``).

    Returns:
        ``(queue_ids, starts, due_before, due_after)`` per touched
        queue in queue-id order; ``starts`` indexes each group's first
        item in ``grouped``.
    """
    run = items[grouped]
    run_queue = queues[grouped]
    count = run.shape[0]
    bounds_mask = np.empty(count + 1, dtype=bool)
    bounds_mask[0] = bounds_mask[count] = True
    np.not_equal(run_queue[1:], run_queue[:-1], out=bounds_mask[1:count])
    bounds = bounds_mask.nonzero()[0]
    starts = bounds[:-1]
    queue_ids = run_queue[starts]
    due_before = due[queue_ids]
    # One scatter chains every group; the cross-group links it also
    # writes sit past a tail and are overwritten by the next append.
    link[run[:-1]] = run[1:]
    link[np.where(due_before <= now, queue_ids, tail[queue_ids])] = run[starts]
    tail[queue_ids] = run[bounds[1:] - 1]
    due_after = np.maximum(due_before, now) + (bounds[1:] - starts)
    due[queue_ids] = due_after
    return queue_ids, starts, due_before, due_after


def _shortest_paths(
    graph: Graph, sources: np.ndarray, destinations: np.ndarray
) -> list[list[int]]:
    """One shortest path per packet, via BFS parents from each source."""
    parents_cache: dict[int, np.ndarray] = {}
    paths: list[list[int]] = []
    for src, dst in zip(sources, destinations):
        src, dst = int(src), int(dst)
        if src not in parents_cache:
            parents_cache[src] = _bfs_parents(graph, src)
        parents = parents_cache[src]
        if parents[dst] < 0 and dst != src:
            raise ValueError(f"{dst} unreachable from {src}")
        path = [dst]
        while path[-1] != src:
            path.append(int(parents[path[-1]]))
        path.reverse()
        paths.append(path)
    return paths


def _bfs_parents(graph: Graph, source: int) -> np.ndarray:
    parents = np.full(graph.num_nodes, -1, dtype=np.int64)
    parents[source] = source
    frontier = [source]
    while frontier:
        nxt = []
        for node in frontier:
            for neighbor in graph.neighbors(node):
                neighbor = int(neighbor)
                if parents[neighbor] < 0:
                    parents[neighbor] = node
                    nxt.append(neighbor)
        frontier = nxt
    parents[source] = source
    return parents


@dataclass
class RandomWalkDeliveryResult:
    """Outcome of blind random-walk delivery.

    Attributes:
        rounds: walk steps until the last packet was absorbed (or cap).
        delivered: fraction of packets that reached their destination.
        mean_hitting_time: average absorption step over delivered packets.
    """

    rounds: int
    delivered: float
    mean_hitting_time: float


def random_walk_delivery(
    graph: Graph,
    sources: np.ndarray,
    destinations: np.ndarray,
    rng: np.random.Generator | None = None,
    max_steps: int = 100_000,
    seed: int | None = None,
) -> RandomWalkDeliveryResult:
    """Let each packet walk blindly until it hits its destination."""
    rng = resolve_rng(rng, seed)
    sources = np.asarray(sources, dtype=np.int64)
    destinations = np.asarray(destinations, dtype=np.int64)
    positions = sources.copy()
    absorbed = positions == destinations
    hit_time = np.zeros(sources.shape[0], dtype=np.int64)
    step = 0
    while not absorbed.all() and step < max_steps:
        step += 1
        active = ~absorbed
        batch = run_lazy_walks(graph, positions[active], 1, rng)
        positions[active] = batch.positions
        newly = active & (positions == destinations)
        hit_time[newly] = step
        absorbed |= newly
    delivered = float(absorbed.mean()) if absorbed.size else 1.0
    mean_hit = float(hit_time[absorbed].mean()) if absorbed.any() else 0.0
    return RandomWalkDeliveryResult(
        rounds=step, delivered=delivered, mean_hitting_time=mean_hit
    )
