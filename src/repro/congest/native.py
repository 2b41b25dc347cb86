"""A CONGEST-native ``G0``: overlay edges as embedded paths.

The fastest paths in this library treat overlay graphs abstractly and
charge measured emulation costs.  This module builds the level-zero
overlay the way the distributed algorithm actually does, end to end:

1. the construction walks run through the message-passing walk protocol
   (per-edge queues, remembered directions, reversal);
2. every overlay edge *keeps the walk path that created it* — the
   embedded route its messages will travel;
3. delivering one message per overlay edge (one native ``G0`` round) is
   executed by store-and-forward scheduling of those embedded paths
   under unit edge capacity.

The native round cost is then compared against the vectorized
calibration of :func:`repro.core.embedding.build_g0` (see
``tests/congest/test_native.py``) — closing the loop between the
accounted and the executed pipeline.

The construction walks default to the array-native engine
(:mod:`repro.congest.walk_engine_vec`), which executes the identical
protocol — same tape, same queues, same rounds — from flat numpy state,
keeping base graphs up to ``n ~ 4096`` practical; the per-node scalar
simulation is retained (``engine="scalar"``) as the equivalence oracle.
The level-1 construction batches its sampling walks over the overlay
CSR and assembles the embedded chains with array ops.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain as _chain

import numpy as np

from ..baselines.routing_baselines import schedule_paths_csr
from ..graphs.graph import Graph
from ..rng import derive_rng
from .forwarding import _forward_on, forward_demands
from .network import Network
from .walk_engine_vec import forward_pass_vec
from .walk_state import ForwardWalkNode, WalkState, WalkTape

__all__ = [
    "NativeG0",
    "NativeLevel",
    "WalkReplay",
    "build_native_g0",
    "build_native_level1",
    "replay_walk_run",
]


@dataclass
class NativeG0:
    """A level-zero overlay with embedded paths.

    Attributes:
        graph: the base graph.
        overlay: the overlay graph over virtual-node ids.
        vnode_host: real node of each virtual node.
        edge_paths: per overlay edge, the real-node path embedding it
            (from the tail's host to the head's host).
        build_rounds: CONGEST rounds of the construction (forward +
            reverse walk protocol).
        round_rounds: measured rounds of one native overlay round
            (one message per overlay edge, both directions).
    """

    graph: Graph
    overlay: Graph
    vnode_host: np.ndarray
    edge_paths: list[list[int]]
    build_rounds: int
    round_rounds: int


def _forward_pass_with_paths(
    graph: Graph,
    starts: np.ndarray,
    length: int,
    seed: int,
    validate: str = "full",
    engine: str = "vectorized",
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Run the forward walk protocol and reconstruct each token's path.

    Both engines read the same :class:`WalkTape`, so endpoints, paths
    and rounds are bit-identical; ``engine="scalar"`` runs the per-node
    oracle through the simulator, the default runs the array engine.
    Returns ``(endpoints, flat, pptr, rounds)``; walk ``w``'s path is
    ``flat[pptr[w]:pptr[w + 1]]`` — the real nodes the token moved
    through (stays omitted), starting at its origin.
    """
    starts = np.asarray(starts, dtype=np.int64)
    num_walks = int(starts.shape[0])
    tape = WalkTape.sample(seed, num_walks, length)
    if engine == "vectorized":
        endpoints, batch, rounds = forward_pass_vec(graph, starts, tape)
        # Inflate the move CSR into per-walk paths (origin first).
        counts = batch.move_counts()
        pptr = np.zeros(num_walks + 1, dtype=np.int64)
        np.cumsum(counts + 1, out=pptr[1:])
        flat = np.empty(int(pptr[-1]), dtype=np.int64)
        flat[pptr[:-1]] = starts
        content = np.ones(flat.shape[0], dtype=bool)
        content[pptr[:-1]] = False
        flat[content] = batch.mv_target
        return endpoints, flat, pptr, rounds
    if engine != "scalar":
        raise ValueError(
            f"engine must be 'vectorized' or 'scalar', got {engine!r}"
        )
    network = Network(graph)
    n = graph.num_nodes
    states = [WalkState() for _ in range(n)]
    per_node: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for walk_id, origin in enumerate(starts):
        per_node[int(origin)].append((walk_id, length))
    forward = [
        ForwardWalkNode(network.context(v), states[v], tape, per_node[v])
        for v in range(n)
    ]
    stats = network.run(
        forward, max_rounds=10000 * (length + 1), validate=validate
    )
    endpoints = np.full(starts.shape[0], -1, dtype=np.int64)
    for v, state in enumerate(states):
        for walk_id in state.finished_here:
            endpoints[walk_id] = v
    # Reconstruct paths by replaying the reversal centrally: pop the
    # visit stacks from the endpoint back to the origin.
    stacks = [
        {walk: list(senders) for walk, senders in state.visit_stack.items()}
        for state in states
    ]
    paths: list[list[int]] = []
    for walk_id, origin in enumerate(starts):
        node = int(endpoints[walk_id])
        reverse_path = [node]
        while True:
            stack = stacks[node].get(walk_id)
            if not stack:
                break
            node = stack.pop()
            reverse_path.append(node)
        if reverse_path[-1] != int(origin):
            raise RuntimeError("path reconstruction lost the origin")
        paths.append(list(reversed(reverse_path)))
    pptr = np.zeros(num_walks + 1, dtype=np.int64)
    np.cumsum(
        np.fromiter(map(len, paths), dtype=np.int64, count=num_walks),
        out=pptr[1:],
    )
    flat = np.fromiter(
        _chain.from_iterable(paths), dtype=np.int64, count=int(pptr[-1])
    )
    return endpoints, flat, pptr, stats.rounds


def _reverse_rows_csr(flat: np.ndarray, pptr: np.ndarray) -> np.ndarray:
    """Reverse each CSR row in place-order: row ``w`` of the result is
    row ``w`` of ``flat`` backwards."""
    total = int(flat.shape[0])
    counts = np.diff(pptr)
    walk_of = np.repeat(
        np.arange(counts.shape[0], dtype=np.int64), counts
    )
    mirror = pptr[walk_of] + pptr[walk_of + 1] - 1 - np.arange(
        total, dtype=np.int64
    )
    return flat[mirror]


def _rows_csr(
    flat: np.ndarray, ptr: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Rows ``rows`` of a CSR, in that order, as a new CSR."""
    lens = ptr[rows + 1] - ptr[rows]
    out_ptr = np.zeros(rows.shape[0] + 1, dtype=np.int64)
    np.cumsum(lens, out=out_ptr[1:])
    gather = np.repeat(ptr[rows] - out_ptr[:-1], lens)
    gather += np.arange(int(out_ptr[-1]), dtype=np.int64)
    return flat[gather], out_ptr


def _both_ways_csr(
    flat: np.ndarray, ptr: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Every row, then every row reversed: one message per overlay edge
    in each direction."""
    return (
        np.concatenate((flat, _reverse_rows_csr(flat, ptr))),
        np.concatenate((ptr, ptr[1:] + ptr[-1])),
    )


def _traversing_csr(
    flat: np.ndarray, ptr: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The rows with more than one node (the paths that cross a wire),
    in order — the packet set every scheduler call here takes."""
    lens = np.diff(ptr)
    keep = lens > 1
    out_ptr = np.zeros(int(np.count_nonzero(keep)) + 1, dtype=np.int64)
    np.cumsum(lens[keep], out=out_ptr[1:])
    return flat[np.repeat(keep, lens)], out_ptr


def _csr_lists(flat: np.ndarray, ptr: np.ndarray) -> list[list[int]]:
    """A CSR as a list of int lists (the public ``edge_paths`` form)."""
    values = flat.tolist()
    bounds = ptr.tolist()
    return [values[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def build_native_g0(
    graph: Graph,
    walks_per_vnode: int,
    degree: int,
    length: int,
    seed: int = 0,
    validate: str = "full",
    engine: str = "vectorized",
) -> NativeG0:
    """Build a native ``G0`` with embedded paths and measure one round.

    The construction walks run through the walk-protocol engine
    (array-native by default, the per-node scalar oracle with
    ``engine="scalar"`` — same tape, bit-identical outcome); everything
    downstream (path delivery, native-round measurement) goes through
    the vectorized scheduler, which keeps ``n ~ 1024`` and beyond
    practical.

    Args:
        graph: connected base graph.
        walks_per_vnode: construction walks per virtual node.
        degree: out-neighbours kept per virtual node.
        length: walk length (use ``~2 tau_mix``).
        seed: seed of the shared walk-decision tape.
        validate: outbox-validation mode for the simulator (see
            :meth:`repro.congest.network.Network.run`; scalar engine
            only).
        engine: ``"vectorized"`` or ``"scalar"``.
    """
    if not graph.is_connected():
        raise ValueError("native G0 requires a connected graph")
    vnode_host = graph.arc_tails
    num_vnodes = int(vnode_host.shape[0])
    starts = np.repeat(vnode_host, walks_per_vnode)
    owners = np.repeat(np.arange(num_vnodes), walks_per_vnode)
    endpoints, path_flat, path_ptr, build_rounds = _forward_pass_with_paths(
        graph, starts, length, seed, validate=validate, engine=engine
    )
    # The reversal (to tell sources their endpoints) costs about the same
    # again; run it through the scheduler on the row-reversed paths.
    reverse = schedule_paths_csr(
        _reverse_rows_csr(path_flat, path_ptr),
        path_ptr,
        rng=derive_rng(seed, 98),
    )
    build_rounds += reverse.rounds

    rng = derive_rng(seed, 99)
    # Map endpoints to uniform virtual nodes of the landing hosts.
    offsets = (
        rng.random(endpoints.shape[0]) * graph.degrees[endpoints]
    ).astype(np.int64)
    target_vnodes = graph.indptr[endpoints] + offsets
    # Select up to `degree` distinct targets per owner, remembering which
    # walk produced each kept edge (for its path).
    by_owner: dict[int, dict[int, int]] = {}
    for walk_id, (owner, target) in enumerate(
        zip(owners.tolist(), target_vnodes.tolist())
    ):
        if target == owner:
            continue
        bucket = by_owner.setdefault(owner, {})
        if target not in bucket and len(bucket) < degree:
            bucket[target] = walk_id
    edges: list[tuple[int, int]] = []
    kept_walks: list[int] = []
    for owner, bucket in sorted(by_owner.items()):
        for target, walk_id in bucket.items():
            edges.append((owner, target))
            kept_walks.append(walk_id)
    edge_flat, edge_ptr = _rows_csr(
        path_flat, path_ptr, np.array(kept_walks, dtype=np.int64)
    )
    overlay = Graph(num_vnodes, edges)
    # One native overlay round: a message along every edge, both ways.
    native_round = schedule_paths_csr(
        *_traversing_csr(*_both_ways_csr(edge_flat, edge_ptr)),
        rng=derive_rng(seed, 100),
    )
    return NativeG0(
        graph=graph,
        overlay=overlay,
        vnode_host=vnode_host,
        edge_paths=_csr_lists(edge_flat, edge_ptr),
        build_rounds=build_rounds,
        round_rounds=native_round.rounds,
    )


def _arc_segments(g0: NativeG0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per overlay arc, its embedded path oriented tail-host → head-host,
    minus the first node (the walk's host whenever the arc is taken).

    Returns ``(nodes, seg_start, seg_len)``: arc ``a``'s segment is
    ``nodes[seg_start[a]:seg_start[a] + seg_len[a]]``.  ``nodes`` is
    the G0 edge paths' both-ways CSR (every path, then every path
    reversed), so an arc's segment is the row of its edge — reversed
    when the arc runs head to tail — without its first node.  The paths
    are read from ``g0.edge_paths``, so every consistency check applies
    to the lists callers see.
    """
    overlay = g0.overlay
    edge_paths = g0.edge_paths
    num_edges = len(edge_paths)
    lens = np.fromiter(map(len, edge_paths), dtype=np.int64, count=num_edges)
    ptr = np.zeros(num_edges + 1, dtype=np.int64)
    np.cumsum(lens, out=ptr[1:])
    # Node ids fit int32 by a wide margin; the chain arrays are the
    # largest objects this builder touches, so the narrow dtype halves
    # the memory traffic of every gather below.
    flat = np.fromiter(
        _chain.from_iterable(edge_paths), dtype=np.int32, count=int(ptr[-1])
    )
    nodes, both_ptr = _both_ways_csr(flat, ptr)
    arc_edge = overlay.arc_edge
    present = np.flatnonzero(arc_edge < num_edges)
    eids = arc_edge[present]
    tail_host = g0.vnode_host[overlay.arc_tails[present]]
    nonempty = lens[eids] > 0
    first = np.full(eids.shape[0], -1, dtype=np.int64)
    last = np.full(eids.shape[0], -1, dtype=np.int64)
    first[nonempty] = flat[ptr[eids[nonempty]]]
    last[nonempty] = flat[ptr[eids[nonempty] + 1] - 1]
    forward = nonempty & (tail_host == first)
    bad = np.flatnonzero(~forward & ~(nonempty & (tail_host == last)))
    if bad.shape[0]:
        arc = int(present[bad[0]])
        path = edge_paths[int(eids[bad[0]])]
        ends = (
            f"starts at {path[0]} and ends at {path[-1]}, neither of "
            "which is" if path else "is empty, so it cannot start at"
        )
        raise ValueError(
            f"G0 edge path for overlay arc {arc} {ends} the arc's tail "
            f"host {int(tail_host[bad[0]])}; edge_paths is inconsistent "
            "with the overlay"
        )
    if present.shape[0] < overlay.num_arcs:
        missing = np.flatnonzero(arc_edge >= num_edges).tolist()
        raise ValueError(
            f"overlay arcs {missing[:8]}{'...' if len(missing) > 8 else ''} "
            f"have no embedded G0 path ({num_edges} edge paths for "
            f"{overlay.num_arcs} arcs); the G0 overlay is inconsistent — "
            "e.g. built over a disconnected graph"
        )
    rows = np.where(forward, eids, eids + num_edges)
    seg_start = both_ptr[rows] + 1
    return nodes, seg_start, both_ptr[rows + 1] - seg_start


def _assemble_chains(
    g0: NativeG0,
    segments: tuple[np.ndarray, np.ndarray, np.ndarray],
    owners: np.ndarray,
    arcs_taken: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate per-walk G0 segments, dropping consecutive duplicates.

    ``segments`` is :func:`_arc_segments`' output; ``arcs_taken`` is
    ``(length, num_walks)``, entry ``-1`` meaning the walk stayed that
    step.  Returns CSR arrays ``(nodes, offsets)``: walk ``w``'s
    real-node chain is ``nodes[offsets[w]:offsets[w + 1]]``, starting
    at its owner's host.  (Host-local repeats cost no rounds, hence the
    duplicate drop.)
    """
    num_walks = int(owners.shape[0])
    seg_nodes, seg_start, seg_len = segments
    # Crossing events, ordered walk-major then step-major — the order the
    # scalar loop appended segments in.
    events = arcs_taken.T
    mask = events >= 0
    ev_counts = mask.sum(axis=1)
    ev_arcs = events[mask]
    ev_walks = np.repeat(np.arange(num_walks, dtype=np.int64), ev_counts)
    ev_len = seg_len[ev_arcs]
    ev_cum = np.zeros(ev_len.shape[0] + 1, dtype=np.int64)
    np.cumsum(ev_len, out=ev_cum[1:])
    total_content = int(ev_cum[-1])
    # Gather all segment nodes in event order (CSR expansion): element j
    # of event e sits at seg_start[arc_e] + (j - ev_cum[e]), so one
    # fused repeat of the per-event base plus a single iota covers the
    # whole gather.
    iota = np.arange(total_content, dtype=np.int64)
    content = seg_nodes[
        np.repeat(seg_start[ev_arcs] - ev_cum[:-1], ev_len) + iota
    ]
    # Interleave with the per-walk start hosts: exactly one start node
    # precedes each walk's content, so content element j lands at global
    # position j + (its walk index) + 1.
    ev_ptr = np.zeros(num_walks + 1, dtype=np.int64)
    np.cumsum(ev_counts, out=ev_ptr[1:])
    walk_extra = ev_cum[ev_ptr[1:]] - ev_cum[ev_ptr[:-1]]
    offsets = np.zeros(num_walks + 1, dtype=np.int64)
    np.cumsum(walk_extra + 1, out=offsets[1:])
    nodes = np.empty(int(offsets[-1]), dtype=np.int32)
    starts_at = offsets[:-1]
    nodes[starts_at] = g0.vnode_host[owners]
    if total_content:
        rep_walks = np.repeat(ev_walks, ev_len)
        nodes[iota + rep_walks + 1] = content
    # Compress consecutive duplicates within each walk (walk boundaries
    # always survive).
    keep = np.ones(nodes.shape[0], dtype=bool)
    keep[1:] = nodes[1:] != nodes[:-1]
    keep[starts_at] = True
    walk_of = np.repeat(
        np.arange(num_walks, dtype=np.int64), walk_extra + 1
    )
    kept_counts = np.bincount(walk_of[keep], minlength=num_walks)
    out_offsets = np.zeros(num_walks + 1, dtype=np.int64)
    np.cumsum(kept_counts, out=out_offsets[1:])
    return nodes[keep], out_offsets


@dataclass
class WalkReplay:
    """Outcome of executing a recorded walk batch as real message passing.

    Attributes:
        rounds: executed CONGEST rounds, summed over walk steps with the
            engine's per-step floor of one round (``sum_t max(1, r_t)``),
            so it is directly comparable to
            :meth:`repro.walks.engine.WalkRun.schedule_rounds`.
        per_step: executed rounds of each walk step (no floor).
        messages: total token messages delivered.
    """

    rounds: int
    per_step: list[int]
    messages: int


def replay_walk_run(
    graph: Graph,
    run,
    validate: str = "full",
    faults=None,
    context=None,
    workers: int = 1,
) -> WalkReplay:
    """Execute a recorded walk batch through the CONGEST simulator.

    Replays each walk step's token movements as real messages — every
    node forwards at most one token per directed edge per round, with a
    barrier between steps — under the simulator's validation.  This is
    how a backend *executes* the exact trajectories a vectorized engine
    sampled: the structure built from the walks is bit-identical, while
    the rounds are measured on the wire (Lemma 2.5 guarantees they equal
    the engine's ``schedule_rounds()`` charge; callers assert that).

    Args:
        graph: the base graph the walks ran on.
        run: a :class:`repro.walks.engine.WalkRun` recorded with
            ``record_trajectory=True``.
        validate: outbox-validation mode for
            :meth:`repro.congest.network.Network.run`.
        faults: optional :class:`~repro.congest.faults.FaultPlan`; with
            an active plan each step's tokens travel the reliable ARQ
            path instead — the structure stays identical (retries, not
            resampling) while the executed rounds grow past the engine's
            clean charge; the surplus is the measured fault overhead.
        context: optional :class:`repro.runtime.RunContext` that the
            reliable path charges ``faults/retry-rounds`` to.
        workers: delivery processes per step (see
            :meth:`repro.congest.network.Network.run`); round accounting
            is unchanged.  Ignored under active faults.

    Returns:
        A :class:`WalkReplay` with the executed round/message counts.

    Raises:
        ValueError: if ``run`` has no recorded trajectory.
        RuntimeError: if any step fails to deliver all its tokens on the
            clean wire.
        DeliveryTimeout: if faults defeat the retry budget of any step.
    """
    trajectory = getattr(run, "trajectory", None)
    if trajectory is None:
        raise ValueError(
            "replay_walk_run needs a WalkRun recorded with "
            "record_trajectory=True"
        )
    # A clean wire replays every step on one simulator; an active plan
    # sends each step through forward_demands' reliable ARQ path.
    clean = faults is None or faults.spec.is_null
    network = Network(graph) if clean else None
    per_step: list[int] = []
    messages = 0
    for step in range(run.steps):
        before = trajectory[step]
        after = trajectory[step + 1]
        moved = before != after
        if not moved.any():
            per_step.append(0)
            continue
        if network is not None:
            rounds, sent = _forward_on(
                network,
                before[moved].tolist(),
                after[moved].tolist(),
                validate=validate,
                workers=workers,
            )
        else:
            rounds, sent = forward_demands(
                graph,
                before[moved],
                after[moved],
                validate=validate,
                faults=faults,
                context=context,
                workers=workers,
            )
        per_step.append(rounds)
        messages += sent
    rounds = int(sum(max(1, r) for r in per_step))
    return WalkReplay(rounds=rounds, per_step=per_step, messages=messages)


@dataclass
class NativeLevel:
    """A native level-1 overlay: edges embed *chains* of G0 paths.

    Attributes:
        parts: level-1 part id per virtual node.
        overlay: the level-1 overlay graph.
        edge_paths: per overlay edge, its real-node path (the
            concatenation of the G0-edge paths the sampling walk took).
        build_rounds: measured rounds of the construction walks.
        round_rounds: measured rounds of one native level-1 round.
    """

    parts: np.ndarray
    overlay: Graph
    edge_paths: list[list[int]]
    build_rounds: int
    round_rounds: int


def build_native_level1(
    g0: NativeG0,
    beta: int,
    degree: int,
    length: int,
    seed: int = 0,
) -> NativeLevel:
    """Build a native level-1 overlay on top of a native ``G0``.

    Sampling walks step across ``G0`` overlay edges; every step is
    *executed* as a traversal of the edge's embedded path, so the level-1
    edges end up embedded as chains of ``G0`` paths — exactly the nested
    embedding of Figure 1, with every message physically routed.

    Args:
        g0: a :class:`NativeG0`.
        beta: number of level-1 parts (hash-assigned).
        degree: same-part neighbours kept per virtual node.
        length: overlay walk length.
        seed: randomness seed.
    """
    rng = derive_rng(seed, 0)
    num_vnodes = g0.overlay.num_nodes
    parts = rng.integers(0, beta, size=num_vnodes)
    segments = _arc_segments(g0)
    walks_per = max(degree * beta, 2 * degree)
    indptr = g0.overlay.indptr
    indices = g0.overlay.indices
    overlay_degrees = g0.overlay.degrees
    # --- Batched lazy walk over the overlay CSR: all walks step together.
    num_walks = num_vnodes * walks_per
    owners = np.repeat(np.arange(num_vnodes, dtype=np.int64), walks_per)
    positions = owners.copy()
    # arcs_taken[step, w] is the overlay arc walk w crossed at `step`, or
    # -1 if it stayed put (lazy step or isolated vnode).
    arcs_taken = np.full((length, num_walks), -1, dtype=np.int64)
    for step in range(length):
        move = rng.random(num_walks) >= 0.5
        move &= overlay_degrees[positions] > 0
        if not move.any():
            continue
        pos = positions[move]
        arcs = indptr[pos] + rng.integers(0, overlay_degrees[pos])
        arcs_taken[step, move] = arcs
        positions[move] = indices[arcs]
    chains, chain_offsets = _assemble_chains(g0, segments, owners, arcs_taken)
    del segments, arcs_taken
    # --- Same-part endpoint selection, in vnode-major walk order.
    edges: list[tuple[int, int]] = []
    edge_path_walks: list[int] = []
    kept: dict[int, set[int]] = {}
    same_part = parts[positions] == parts[owners]
    candidates = np.flatnonzero(same_part & (positions != owners))
    for walk_id, vnode, position in zip(
        candidates.tolist(),
        owners[candidates].tolist(),
        positions[candidates].tolist(),
    ):
        bucket = kept.setdefault(vnode, set())
        if len(bucket) < degree and position not in bucket:
            bucket.add(position)
            edges.append((vnode, position))
            edge_path_walks.append(walk_id)
    # Schedule every traversing chain straight from the CSR.
    build = schedule_paths_csr(
        *_traversing_csr(chains, chain_offsets), rng=derive_rng(seed, 1)
    )
    edge_flat, edge_ptr = _rows_csr(
        chains, chain_offsets, np.array(edge_path_walks, dtype=np.int64)
    )
    del chains, chain_offsets
    native_round = schedule_paths_csr(
        *_traversing_csr(*_both_ways_csr(edge_flat, edge_ptr)),
        rng=derive_rng(seed, 2),
    )
    return NativeLevel(
        parts=parts,
        overlay=Graph(num_vnodes, edges),
        edge_paths=_csr_lists(edge_flat, edge_ptr),
        build_rounds=build.rounds,
        round_rounds=native_round.rounds,
    )
