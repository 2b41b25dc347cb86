"""Vectorized random-walk engines with congestion measurement.

Every walk phase in the paper is scheduled by Lemma 2.5: one synchronous
walk *step* of all tokens costs (in CONGEST rounds) the maximum number of
tokens that must cross a single edge in that step.  The engines here
advance all tokens one step at a time with numpy and record exactly that
per-step maximum, so round accounting uses the *measured* congestion of
the true random process rather than the lemma's upper bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..graphs.graph import Graph

__all__ = [
    "WalkRun",
    "advance_lazy_step",
    "run_lazy_walks",
    "run_regular_walks",
]


def advance_lazy_step(
    positions: np.ndarray,
    move: np.ndarray,
    choice_u: np.ndarray,
    indptr: np.ndarray,
    indices: np.ndarray,
    degrees: np.ndarray,
    num_arcs: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Advance all walks one lazy step over a CSR adjacency.

    The shared inner step of every walk engine in this repo —
    :func:`run_lazy_walks` here and the trajectory presampler in
    :mod:`repro.congest.walk_engine_vec` — so the arc choice is the
    *same arithmetic* everywhere: ``floor(u * degree)`` with the uniform
    ``choice_u``, truncated exactly like the scalar protocol's
    ``int(u * degree)``.

    Args:
        positions: current node per walk.
        move: per walk, whether it moves this step; must already fold in
            the stay coin AND the degree-0 guard.
        choice_u: uniform draw in ``[0, 1)`` per walk (consumed even for
            stays — the caller's draw order is part of its contract).
        indptr: CSR row pointers of the (possibly filtered) adjacency.
        indices: CSR neighbour array.
        degrees: out-degree per node in that adjacency.
        num_arcs: ``len(indices)`` (0 allowed: nothing moves).

    Returns:
        ``(new_positions, chosen_arcs)`` — the arc indices are
        meaningful only where ``move`` is True but stay in bounds
        everywhere, so callers can gather congestion stats unmasked.
    """
    offsets = (choice_u * degrees[positions]).astype(np.int64)
    chosen_arcs = indptr[positions] + offsets
    # Degree-0 positions never move, but their (meaningless) arc index
    # must stay in bounds for the vectorized gather.
    chosen_arcs = np.minimum(chosen_arcs, max(0, num_arcs - 1))
    if num_arcs:
        positions = np.where(move, indices[chosen_arcs], positions)
    return positions, chosen_arcs


@dataclass
class WalkRun:
    """Outcome of running a batch of independent walks.

    Attributes:
        starts: start node of each walk.
        positions: final node of each walk.
        steps: number of synchronous steps performed.
        edge_congestion: per step, the max number of tokens crossing any
            single edge (0 if no token moved that step).
        max_node_load: per step, the max number of tokens resident at any
            single node *after* the step (Lemma 2.4's quantity).
    """

    starts: np.ndarray
    positions: np.ndarray
    steps: int
    edge_congestion: list[int] = field(default_factory=list)
    max_node_load: list[int] = field(default_factory=list)

    @property
    def num_walks(self) -> int:
        """Number of walks in the batch."""
        return int(self.starts.shape[0])

    def schedule_rounds(self) -> int:
        """CONGEST rounds of the Lemma 2.5 schedule for this batch.

        Each step runs as one phase whose length is the max edge load
        (at least 1, since the step itself takes a round even if short).
        """
        return int(sum(max(1, c) for c in self.edge_congestion))

    def peak_node_load(self) -> int:
        """Worst per-node token load over all steps (Lemma 2.4)."""
        return max(self.max_node_load) if self.max_node_load else 0


def _step_stats(
    graph: Graph,
    positions: np.ndarray,
    chosen_arcs: np.ndarray,
    moved: np.ndarray,
) -> tuple[int, int]:
    """Measured (max arc load, max node load) for one completed step.

    Congestion is per *directed* arc: the CONGEST model allows one message
    per edge per direction per round, so opposite-direction tokens cross
    simultaneously.
    """
    if moved.any():
        arc_counts = np.bincount(chosen_arcs[moved], minlength=graph.num_arcs)
        edge_congestion = int(arc_counts.max())
    else:
        edge_congestion = 0
    node_counts = np.bincount(positions, minlength=graph.num_nodes)
    return edge_congestion, int(node_counts.max())


#: Bound on the per-block scratch of :func:`run_lazy_walks`, in array
#: cells: a block of ``b`` steps over ``width`` walks keeps ``b * width``
#: uniforms, positions and arcs plus ``b * bins`` counters.  Batches at
#: least this wide (every construction batch) run one step per block.
_BLOCK_CELLS = 1 << 16


def _block_max_counts(
    rows: list[np.ndarray], bins: int, mask: np.ndarray | None = None
) -> list[int]:
    """Per step, the max number of entries of its row sharing one bin.

    One ``bincount`` covers the whole block: step ``t`` counts into bins
    ``[t * bins, (t + 1) * bins)``.  ``mask`` (shape ``(steps, width)``)
    keeps only the entries to count.
    """
    if len(rows) == 1:
        keys = rows[0][None]
    else:
        keys = np.array(rows)
        keys += np.arange(len(rows), dtype=np.int64)[:, None] * bins
    if mask is not None:
        keys = keys[mask]
    counts = np.bincount(keys.ravel(), minlength=len(rows) * bins)
    return counts.reshape(len(rows), bins).max(axis=1).tolist()


def _lazy_block(
    graph: Graph,
    positions: np.ndarray,
    steps: int,
    rng: np.random.Generator,
    trajectory: list[np.ndarray] | None,
) -> tuple[np.ndarray, list[int], list[int]]:
    """Advance every walk ``steps`` lazy steps off one block of uniforms.

    Returns the new positions and, per step, the max arc load and the
    max node load.  Everything else the block allocates is freed on
    return, so a one-step block peaks no higher than a plain step.
    """
    uniforms = rng.random((steps, 2, positions.shape[0]))
    # A walk on a degree-0 node never moves and one on a positive-degree
    # node only reaches positive-degree nodes, so the degree-0 guard of
    # the block's first step holds for all its steps.
    move = (uniforms[:, 0] < 0.5) & (graph.degrees[positions] > 0)
    choices = uniforms[:, 1].copy()
    del uniforms  # the stay coins are folded into ``move``
    arc_rows = []
    node_rows = []
    for coin, choice in zip(move, choices):
        positions, chosen_arcs = advance_lazy_step(
            positions, coin, choice,
            graph.indptr, graph.indices, graph.degrees, graph.num_arcs,
        )
        arc_rows.append(chosen_arcs)
        node_rows.append(positions)
    if trajectory is not None:
        trajectory.extend(node_rows)
    # Congestion is per *directed* arc: the CONGEST model allows one
    # message per edge per direction per round, so opposite-direction
    # tokens cross simultaneously.
    congestion = _block_max_counts(arc_rows, max(1, graph.num_arcs), move)
    loads = _block_max_counts(node_rows, max(1, graph.num_nodes))
    return positions, congestion, loads


def run_lazy_walks(
    graph: Graph,
    starts: np.ndarray,
    steps: int,
    rng: np.random.Generator,
    record_trajectory: bool = False,
) -> WalkRun:
    """Run lazy random walks (stay w.p. 1/2, else uniform incident edge).

    Steps run in blocks: one ``rng.random((block, 2, width))`` draw per
    block yields exactly the per-step (stay coin, arc choice) stream of
    ``2 * width`` uniforms, and the block's per-step congestion and
    node loads come from one ``bincount`` each.  The block length keeps
    the scratch near ``_BLOCK_CELLS``.

    Args:
        graph: the graph to walk on.
        starts: start node per walk, shape ``(W,)``.
        steps: number of synchronous steps.
        rng: randomness source.
        record_trajectory: if True, attach ``run.trajectory`` of shape
            ``(steps + 1, W)`` (memory-heavy; for tests).

    Returns:
        A :class:`WalkRun` with measured per-step congestion.
    """
    starts = np.asarray(starts, dtype=np.int64)
    positions = starts.copy()
    run = WalkRun(starts=starts, positions=positions, steps=steps)
    trajectory = [starts.copy()] if record_trajectory else None
    cells_per_step = max(starts.shape[0], graph.num_arcs, graph.num_nodes, 1)
    block = max(1, _BLOCK_CELLS // cells_per_step)
    for done in range(0, steps, block):
        positions, congestion, loads = _lazy_block(
            graph, positions, min(block, steps - done), rng, trajectory
        )
        run.edge_congestion.extend(congestion)
        run.max_node_load.extend(loads)
    run.positions = positions
    if trajectory is not None:
        run.trajectory = np.stack(trajectory)  # type: ignore[attr-defined]
    return run


def run_regular_walks(
    graph: Graph,
    starts: np.ndarray,
    steps: int,
    rng: np.random.Generator,
    record_trajectory: bool = False,
) -> WalkRun:
    """Run ``2*Delta``-regular walks (Definition 2.2).

    Each token moves to each incident edge w.p. ``1/(2*Delta)`` and stays
    otherwise, giving a uniform stationary distribution.
    """
    starts = np.asarray(starts, dtype=np.int64)
    positions = starts.copy()
    run = WalkRun(starts=starts, positions=positions, steps=steps)
    trajectory = [starts.copy()] if record_trajectory else None
    indptr = graph.indptr
    degrees = graph.degrees
    delta = max(1, graph.max_degree)
    for _ in range(steps):
        move_probability = degrees[positions] / (2.0 * delta)
        move = rng.random(positions.shape[0]) < move_probability
        offsets = (
            rng.random(positions.shape[0]) * degrees[positions]
        ).astype(np.int64)
        # Guard isolated nodes (degree 0): they never move.
        offsets = np.minimum(offsets, np.maximum(degrees[positions] - 1, 0))
        chosen_arcs = indptr[positions] + offsets
        chosen_arcs = np.minimum(chosen_arcs, max(0, graph.num_arcs - 1))
        if graph.num_arcs:
            positions = np.where(move, graph.indices[chosen_arcs], positions)
        congestion, node_load = _step_stats(graph, positions, chosen_arcs, move)
        run.edge_congestion.append(congestion)
        run.max_node_load.append(node_load)
        if trajectory is not None:
            trajectory.append(positions.copy())
    run.positions = positions
    if trajectory is not None:
        run.trajectory = np.stack(trajectory)  # type: ignore[attr-defined]
    return run
