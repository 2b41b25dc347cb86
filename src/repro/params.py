"""Tunable constants for the routing/MST construction.

The paper states its constants for asymptotic w.h.p. guarantees (e.g.
``200 log n`` random walks per virtual node when building the level-zero
overlay ``G0``).  At the sizes a Python simulation can reach
(``n <= 4096``), the literal constants are far larger than needed for the
structural guarantees to hold and make runs infeasible.  All constants
therefore live in one :class:`Params` dataclass:

* :meth:`Params.default` — constants calibrated for simulable sizes; the
  structural guarantees (overlay degrees, successful-walk counts, portal
  availability, part balance) still hold w.h.p. at these sizes and are
  asserted by the test suite.
* :meth:`Params.paper` — the literal constants from the paper, usable on
  small inputs for fidelity checks.

See DESIGN.md section 4 ("Scaled constants").
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np


@dataclass(frozen=True)
class Params:
    """All tunable constants of the hierarchical routing construction.

    Attributes:
        g0_walks_per_vnode_factor: number of walks each virtual node starts
            when building ``G0``, as a multiple of ``log2 n``.  The paper
            uses 200; the overlay keeps half of the successful ones.
        g0_degree_factor: out-degree of each ``G0`` node as a multiple of
            ``log2 n``.  The paper uses 100 (half the walk count).
        mixing_slack: multiplier on the measured/estimated mixing time used
            as the walk length (the paper's remark after Definition 2.1
            runs walks for ``O(tau_mix)`` steps to sharpen the deviation).
        beta: branching factor of the hierarchy; ``None`` means use the
            paper's optimum ``2^ceil(sqrt(log2 n * log2 log2 n))`` capped
            for feasibility (see :func:`repro.theory.optimal_beta`).
        level_walks_factor: walks per node, per target sample, as a multiple
            of ``beta`` when building level ``i >= 1`` overlays (the paper
            starts ``O(beta log n)`` walks so that ``Theta(log n)`` land in
            the node's own part).
        level_degree_factor: overlay degree within a part as a multiple of
            ``log2 n`` (the paper's ``Theta(log n)`` samples).
        level_walk_length_factor: length of overlay walks as a multiple of
            ``log2 n`` (overlay random graphs mix in ``O(log n)`` steps).
        bottom_size_factor: recursion stops when parts have at most
            ``bottom_size_factor * log2 n`` nodes; such parts use the
            complete graph (paper: parts of size ``O(log n)``).
        portal_walks_factor: walks per node per sibling part during portal
            discovery, as a multiple of ``beta`` (paper: ``beta`` walks).
        portal_redundancy_factor: under ``recovery="self-heal"``, number
            of independent portals each node holds per sibling part, as
            a multiple of ``log2 n`` (``k = O(log n)`` — a crashed
            portal then strands a packet only if all ``k`` are down).
        hash_independence: ``W`` for the ``W``-wise independent partition
            hash, as a multiple of ``log2 n`` (paper: ``Theta(log n)``).
        packets_per_node_factor: routing-load promise — each node may be
            source/destination of ``d(v) * packets_per_node_factor *
            log2 n`` packets per routing instance.
        use_walk_portals: if True, discover portals with the faithful
            walk-based procedure (Lemma 3.3); if False, sample the
            identical uniform-boundary-node distribution directly and
            charge the analytic cost (fast path; see DESIGN.md §4.3).
        use_walk_overlays: if True, build each level overlay from actual
            ``2*Delta``-regular walks on the previous overlay (costs a
            ``beta`` factor more simulation time); if False, sample the
            identical uniform same-part neighbour distribution directly.
            Either way the emulation cost is *measured* on a calibration
            walk batch.
        use_correlated_walks: if True, the G0 construction walks and the
            routing preparation walks run token-balanced (correlated)
            instead of independent, removing the additive ``log n`` from
            the Lemma 2.5 schedule (the paper's deferred ``k = o(log n)``
            refinement; see :mod:`repro.walks.correlated`).
    """

    g0_walks_per_vnode_factor: float = 8.0
    g0_degree_factor: float = 4.0
    mixing_slack: float = 2.0
    beta: int | None = None
    level_walks_factor: float = 4.0
    level_degree_factor: float = 4.0
    level_walk_length_factor: float = 3.0
    bottom_size_factor: float = 4.0
    portal_walks_factor: float = 2.0
    portal_redundancy_factor: float = 1.0
    hash_independence: float = 1.0
    packets_per_node_factor: float = 1.0
    use_walk_portals: bool = False
    use_walk_overlays: bool = False
    use_correlated_walks: bool = False

    @classmethod
    def default(cls) -> "Params":
        """Constants calibrated for simulable sizes (``n <= 4096``)."""
        return cls()

    @classmethod
    def paper(cls) -> "Params":
        """The literal constants from the paper (feasible only for tiny n)."""
        return cls(
            g0_walks_per_vnode_factor=200.0,
            g0_degree_factor=100.0,
            mixing_slack=2.0,
            level_walks_factor=8.0,
            level_degree_factor=8.0,
            bottom_size_factor=8.0,
            portal_walks_factor=4.0,
            hash_independence=2.0,
            use_walk_portals=True,
            use_walk_overlays=True,
        )

    @classmethod
    def fast(cls) -> "Params":
        """Aggressively reduced constants for large benchmark sweeps.

        Guarantees become "with good probability" rather than w.h.p.; used
        only where the benchmark verifies delivery/corectness explicitly.
        """
        return cls(
            g0_walks_per_vnode_factor=4.0,
            g0_degree_factor=2.0,
            mixing_slack=1.5,
            level_walks_factor=3.0,
            level_degree_factor=3.0,
            level_walk_length_factor=2.0,
            bottom_size_factor=6.0,
        )

    def with_overrides(self, **kwargs) -> "Params":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)

    # -- derived quantities -------------------------------------------------

    def g0_walks_per_vnode(self, n: int) -> int:
        """Number of walks each virtual node starts when building G0."""
        return max(4, int(round(self.g0_walks_per_vnode_factor * _log2(n))))

    def g0_degree(self, n: int) -> int:
        """Out-degree of each G0 node."""
        return max(2, int(round(self.g0_degree_factor * _log2(n))))

    def level_degree(self, n: int) -> int:
        """Number of same-part overlay neighbours sampled per node."""
        return max(2, int(round(self.level_degree_factor * _log2(n))))

    def level_walk_length(self, n: int) -> int:
        """Length of the regular walks used to build level overlays."""
        return max(4, int(round(self.level_walk_length_factor * _log2(n))))

    def bottom_size(self, n: int) -> int:
        """Part size below which the recursion bottoms out on a clique."""
        return max(4, int(round(self.bottom_size_factor * _log2(n))))

    def portal_redundancy(self, n: int) -> int:
        """Independent portals per (node, sibling) under self-heal."""
        return max(2, int(round(self.portal_redundancy_factor * _log2(n))))

    def hash_wise(self, n: int) -> int:
        """Independence ``W`` of the partition hash family."""
        return max(4, int(round(self.hash_independence * _log2(n))))

    def packets_per_node(
        self, n: int, degree: int | np.ndarray
    ) -> int | np.ndarray:
        """Routing-load promise for a node of the given degree.

        ``degree`` may also be an array of degrees, giving an ``int64``
        array of promises; ``np.round`` rounds half to even, like
        ``round``, so each entry equals the scalar call.
        """
        promise = np.maximum(
            1,
            np.round(
                self.packets_per_node_factor
                * np.asarray(degree)
                * _log2(n)
            ).astype(np.int64),
        )
        return int(promise) if promise.ndim == 0 else promise


def _log2(n: int) -> float:
    """log2 clamped away from zero so tiny graphs get sane constants."""
    return max(1.0, math.log2(max(2, n)))
