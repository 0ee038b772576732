import itertools

import numpy as np
import pytest

from relayalloc.rate_model import SnrConfig, build_capacity_matrix
from relayalloc.scenario import (
    FadingParams,
    NumberingScheme,
    Topology,
    draw_channel_powers,
    draw_channel_powers_keyed,
    fading_params,
    grid_topology,
    linear_topology,
    pair_uniforms,
    permute_relays,
    random_topology,
    renumber,
    trial_permutations,
)
from relayalloc.selector import brute_force_select

from conftest import caps_from_links


class TestTopologies:
    def test_linear_midpoint(self):
        topo = linear_topology(1)
        assert np.allclose(topo.relay_positions, [[0.5, 0.0]])

    def test_linear_equispaced(self):
        topo = linear_topology(3)
        assert topo.relay_positions[:, 0] == pytest.approx([0.25, 0.5, 0.75])
        assert np.all(topo.relay_positions[:, 1] == 0.0)

    def test_linear_empty_pool(self):
        topo = linear_topology(0)
        assert topo.n_relays == 0
        assert np.linalg.norm(topo.positions[1] - topo.positions[0]) == pytest.approx(1.0)

    def test_grid_degenerate_side_one(self):
        assert np.allclose(grid_topology(1).relay_positions, [[0.5, 0.0]])

    def test_grid_two_by_two(self):
        topo = grid_topology(2)
        xs = sorted(set(np.round(topo.relay_positions[:, 0], 9)))
        ys = sorted(set(np.round(topo.relay_positions[:, 1], 9)))
        assert xs == pytest.approx([1 / 3, 2 / 3])
        assert ys == pytest.approx([-1 / 6, 1 / 6])

    def test_grid_three_by_three(self):
        topo = grid_topology(3)
        assert topo.n_relays == 9

    def test_random_reproducible_and_bounded(self):
        a = random_topology(9, 42)
        b = random_topology(9, 42)
        c = random_topology(9, 43)
        assert np.array_equal(a.positions, b.positions)
        assert not np.array_equal(a.positions, c.positions)
        # inside the 3x3 grid's bounding rectangle
        rel = a.relay_positions
        assert rel[:, 0].min() >= 0.25 and rel[:, 0].max() <= 0.75
        assert np.abs(rel[:, 1]).max() <= 0.25

    def test_random_nonsquare_pool(self):
        assert random_topology(5, 1).n_relays == 5


class TestFadingParams:
    def test_unit_distance(self):
        lam = fading_params(linear_topology(0)).lam
        assert lam[0, 1] == pytest.approx(1.0)

    def test_half_distance(self):
        lam = fading_params(linear_topology(1)).lam
        assert lam[0, 1] == pytest.approx(0.5**2.5)

    def test_symmetric(self):
        lam = fading_params(grid_topology(2)).lam
        assert np.allclose(lam, lam.T)

    def test_coincident_nodes_rejected(self):
        topo = Topology(positions=np.array([[0.0, 0.0], [0.5, 0.5], [0.5, 0.5], [1.0, 0.0]]))
        with pytest.raises(ValueError):
            fading_params(topo)

    def test_distance_scaling(self):
        base = fading_params(linear_topology(2))
        doubled = fading_params(
            Topology(positions=2.0 * linear_topology(2).positions, p_a=2.5)
        )
        off = ~np.eye(4, dtype=bool)
        assert doubled.lam[off] == pytest.approx(base.lam[off] * 2**2.5)


class TestDrawChannelPowers:
    def test_sample_mean_matches_exponential(self):
        params = fading_params(linear_topology(0))  # single unit-distance link
        rng = np.random.default_rng(5)
        draws = np.array(
            [draw_channel_powers(params, rng)[0, 1] for _ in range(100_000)]
        )
        assert draws.mean() == pytest.approx(1.0, abs=0.02)

    def test_positive_and_symmetric(self):
        params = fading_params(grid_topology(2))
        p = draw_channel_powers(params, np.random.default_rng(0))
        off = ~np.eye(6, dtype=bool)
        assert np.all(p[off] > 0)
        assert np.allclose(p, p.T)

    def test_fixed_seed_identical(self):
        params = fading_params(linear_topology(2))
        a = draw_channel_powers(params, np.random.default_rng(7))
        b = draw_channel_powers(params, np.random.default_rng(7))
        assert np.array_equal(a, b)


class TestKeyedStreams:
    def test_deterministic_and_chunk_stable(self):
        params = fading_params(linear_topology(2))
        full = draw_channel_powers_keyed(params, 11, 10)
        again = draw_channel_powers_keyed(params, 11, 10)
        tail = draw_channel_powers_keyed(params, 11, 4, start=6)
        assert np.array_equal(full, again)
        assert np.array_equal(full[6:], tail)

    @pytest.mark.parametrize("start", [1, 3, 4, 5, 101, 125003])
    def test_seeking_reproduces_the_stream(self, start):
        # a seek jumps whole Philox counters (4 doubles) and discards the rest;
        # it must land on the exact bits a replay from trial 0 gives
        n = 7
        uniforms = pair_uniforms(5, 2, 0xFFFFFFFF, start + n)
        assert np.array_equal(pair_uniforms(5, 2, 0xFFFFFFFF, n, start=start), uniforms[start:])
        perms = trial_permutations(5, 3, start + n)
        assert np.array_equal(trial_permutations(5, 3, n, start=start), perms[start:])

    def test_seed_changes_draws(self):
        params = fading_params(linear_topology(2))
        assert not np.allclose(
            draw_channel_powers_keyed(params, 1, 4), draw_channel_powers_keyed(params, 2, 4)
        )

    def test_nested_pools_share_link_draws(self):
        # appending a relay must not disturb the draws of existing links
        pos_small = np.array([[0, 0], [0.3, 0.1], [1, 0]], dtype=float)
        pos_big = np.array([[0, 0], [0.3, 0.1], [0.6, -0.2], [1, 0]], dtype=float)
        small = draw_channel_powers_keyed(fading_params(Topology(pos_small)), 3, 8)
        big = draw_channel_powers_keyed(fading_params(Topology(pos_big)), 3, 8)
        assert np.allclose(big[:, 0, 1], small[:, 0, 1])  # s - r1
        assert np.allclose(big[:, 0, 3], small[:, 0, 2])  # s - d
        assert np.allclose(big[:, 1, 3], small[:, 1, 2])  # r1 - d

    def test_pair_uniforms_in_unit_interval(self):
        u = pair_uniforms(0, 1, 2, 1000)
        assert u.min() >= 0.0 and u.max() < 1.0

    def test_trial_permutations_are_permutations(self):
        perms = trial_permutations(9, 5, 200)
        assert perms.shape == (200, 5)
        for row in perms:
            assert sorted(row) == [1, 2, 3, 4, 5]
        assert np.array_equal(perms, trial_permutations(9, 5, 200))
        assert np.array_equal(perms[50:], trial_permutations(9, 5, 150, start=50))


class TestRenumber:
    def test_instantaneous_source_sort(self):
        caps = caps_from_links(
            3, {(0, 1): 0.5, (0, 2): 2.0, (0, 3): 1.0, (0, 4): 1.0,
                (1, 4): 1.0, (2, 4): 1.0, (3, 4): 1.0}
        )
        order = renumber(caps, NumberingScheme.INSTANTANEOUS_SOURCE_RELAY)
        assert order == (2, 3, 1)

    def test_instantaneous_greedy_chain(self):
        caps = caps_from_links(
            3, {(0, 1): 3.0, (0, 2): 1.0, (0, 3): 1.0,
                (1, 2): 0.2, (1, 3): 0.9, (2, 3): 0.5,
                (1, 4): 1.0, (2, 4): 1.0, (3, 4): 1.0, (0, 4): 1.0},
        )
        order = renumber(caps, NumberingScheme.INSTANTANEOUS_RELAY_RELAY)
        assert order == (1, 3, 2)

    def test_average_descending_identity_on_line(self):
        assert renumber(linear_topology(4), NumberingScheme.AVERAGE_DESCENDING) == (1, 2, 3, 4)

    def test_average_descending_on_grid_is_storage_order(self):
        # relays are stored column-major toward the destination, top to bottom
        assert renumber(grid_topology(3), NumberingScheme.AVERAGE_DESCENDING) == tuple(range(1, 10))

    def test_average_linear_serpentine(self):
        order = renumber(grid_topology(3), NumberingScheme.AVERAGE_LINEAR)
        assert order == (1, 2, 3, 6, 5, 4, 7, 8, 9)
        # consecutive numbers are adjacent nodes
        pos = grid_topology(3).relay_positions
        gaps = [np.linalg.norm(pos[a - 1] - pos[b - 1]) for a, b in zip(order, order[1:])]
        assert max(gaps) == pytest.approx(0.25)

    def test_average_rejected_on_random_layout(self):
        topo = random_topology(4, 0)
        with pytest.raises(ValueError):
            renumber(topo, NumberingScheme.AVERAGE_DESCENDING)

    def test_random_is_seeded_permutation(self):
        topo = grid_topology(2)
        a = renumber(topo, NumberingScheme.RANDOM, np.random.default_rng(4))
        b = renumber(topo, NumberingScheme.RANDOM, np.random.default_rng(4))
        assert a == b
        assert sorted(a) == [1, 2, 3, 4]
        with pytest.raises(ValueError):
            renumber(topo, NumberingScheme.RANDOM)

    def test_every_scheme_returns_permutation(self, rng):
        topo = grid_topology(2)
        params = fading_params(topo)
        powers = draw_channel_powers(params, rng)
        caps = build_capacity_matrix(powers, None, SnrConfig(10.0))
        for scheme in NumberingScheme:
            src = topo if scheme.value.startswith("average") else caps
            order = renumber(src, scheme, rng=np.random.default_rng(0))
            assert sorted(order) == [1, 2, 3, 4]

    def test_heuristics_never_beat_exhaustive_numbering(self, rng):
        # oracle: the best rate over all relay orderings dominates each heuristic
        topo = grid_topology(2)
        params = fading_params(topo)
        for _ in range(5):
            powers = draw_channel_powers(params, rng)
            caps = build_capacity_matrix(powers, None, SnrConfig(10.0))
            best_any = max(
                brute_force_select(
                    build_capacity_matrix(
                        permute_relays(powers, perm), None, SnrConfig(10.0)
                    )
                ).best.rate
                for perm in itertools.permutations(range(1, 5))
            )
            for scheme in NumberingScheme:
                src = topo if scheme.value.startswith("average") else caps
                order = renumber(src, scheme, rng=np.random.default_rng(1))
                rate = brute_force_select(
                    build_capacity_matrix(permute_relays(powers, order), None, SnrConfig(10.0))
                ).best.rate
                assert rate <= best_any + 1e-9


class TestPermuteRelays:
    def test_reindexing(self):
        m = np.arange(16, dtype=float).reshape(4, 4)
        out = permute_relays(m, (2, 1))
        idx = [0, 2, 1, 3]
        assert np.array_equal(out, m[np.ix_(idx, idx)])

    def test_requires_permutation(self):
        with pytest.raises(ValueError):
            permute_relays(np.zeros((4, 4)), (1, 1))
