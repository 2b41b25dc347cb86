"""Tests for the Params presets and derived quantities."""

import math

import numpy as np
import pytest

from repro.params import Params


class TestPresets:
    def test_default_reasonable(self):
        p = Params.default()
        assert p.g0_walks_per_vnode_factor >= p.g0_degree_factor
        assert p.mixing_slack >= 1.0

    def test_paper_preset_uses_literal_constants(self):
        p = Params.paper()
        assert p.g0_walks_per_vnode_factor == 200.0
        assert p.g0_degree_factor == 100.0
        assert p.use_walk_portals
        assert p.use_walk_overlays

    def test_fast_cheaper_than_default(self):
        fast, default = Params.fast(), Params.default()
        assert fast.g0_walks_per_vnode_factor < default.g0_walks_per_vnode_factor
        assert fast.level_degree_factor <= default.level_degree_factor

    def test_frozen(self):
        p = Params.default()
        with pytest.raises(Exception):
            p.mixing_slack = 3.0  # type: ignore[misc]

    def test_with_overrides(self):
        p = Params.default().with_overrides(beta=8, mixing_slack=3.0)
        assert p.beta == 8
        assert p.mixing_slack == 3.0
        # Original untouched.
        assert Params.default().beta is None


class TestDerived:
    def test_g0_walks_scale_log(self):
        p = Params.default()
        assert p.g0_walks_per_vnode(1024) == round(
            p.g0_walks_per_vnode_factor * 10
        )

    def test_degree_at_most_walks(self):
        p = Params.default()
        for n in (16, 256, 4096):
            assert p.g0_degree(n) <= p.g0_walks_per_vnode(n)

    def test_minimums_on_tiny_graphs(self):
        p = Params.default()
        assert p.g0_walks_per_vnode(2) >= 4
        assert p.g0_degree(2) >= 2
        assert p.bottom_size(2) >= 4
        assert p.hash_wise(2) >= 4

    def test_packets_per_node_scales_with_degree(self):
        p = Params.default()
        assert p.packets_per_node(1024, 8) == 2 * p.packets_per_node(1024, 4)

    def test_level_quantities(self):
        p = Params.default()
        n = 256
        assert p.level_degree(n) == round(p.level_degree_factor * 8)
        assert p.level_walk_length(n) == round(p.level_walk_length_factor * 8)

    def test_monotone_in_n(self):
        p = Params.default()
        for fn in (
            p.g0_walks_per_vnode,
            p.g0_degree,
            p.level_degree,
            p.bottom_size,
        ):
            assert fn(4096) >= fn(64)


class TestPacketsPerNodeArrayForm:
    """One call over a degree array equals the per-degree calls."""

    DEGREES = np.arange(65)
    SIZES = (1, 2, 3, 64, 512, 4096)

    @pytest.mark.parametrize("factor", [1.0, 0.25, 0.3])
    @pytest.mark.parametrize("n", SIZES)
    def test_array_equals_scalar(self, factor, n):
        p = Params.default().with_overrides(packets_per_node_factor=factor)
        promise = p.packets_per_node(n, self.DEGREES)
        assert promise.dtype == np.int64
        assert promise.shape == self.DEGREES.shape
        scalar = [p.packets_per_node(n, int(d)) for d in self.DEGREES]
        assert all(type(value) is int for value in scalar)
        assert promise.tolist() == scalar
        # The original scalar formula, Python's round included.
        log_n = max(1.0, math.log2(max(2, n)))
        reference = [
            max(1, int(round(factor * int(d) * log_n))) for d in self.DEGREES
        ]
        assert scalar == reference

    def test_ties_round_half_even(self):
        p = Params.default().with_overrides(packets_per_node_factor=0.25)
        raw = 0.25 * self.DEGREES * 1.0  # n=2: log2 clamps to 1
        assert np.any(raw % 1 == 0.5)
        promise = p.packets_per_node(2, self.DEGREES)
        assert promise[10] == 2  # 2.5 -> 2
        assert promise[14] == 4  # 3.5 -> 4
        assert p.packets_per_node(2, 10) == 2


class TestCorrelatedFlag:
    def test_default_off(self):
        assert not Params.default().use_correlated_walks

    def test_override(self):
        assert Params.default().with_overrides(
            use_correlated_walks=True
        ).use_correlated_walks
