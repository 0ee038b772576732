import itertools
import re

import numpy as np
import pytest

from relayalloc.rate_model import SnrConfig, build_capacity_matrix
from relayalloc.scenario import (
    FadingParams,
    NumberingScheme,
    Topology,
    draw_channel_powers_keyed,
    fading_params,
    grid_topology,
    instantaneous_orders,
    linear_topology,
    pair_uniforms,
    permute_relays,
    random_topology,
    renumber,
    trial_orders,
    trial_permutations,
)
from relayalloc.selector import brute_force_select

from conftest import caps_from_links, greedy_relay_relay_orders


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

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_nonfinite_positions_rejected(self, bad):
        with pytest.raises(ValueError, match=r"positions must be finite: node 1 at \(0\.5, "):
            Topology(positions=np.array([[0.0, 0.0], [0.5, bad], [1.0, 0.0]]))

    @pytest.mark.parametrize("scale", [np.nan, np.inf])
    def test_nonfinite_scale_rejected(self, scale):
        with pytest.raises(ValueError, match="positions must be finite: node 1 at"):
            grid_topology(2, scale=scale)
        with pytest.raises(ValueError, match="positions must be finite: node 1 at"):
            random_topology(4, 0, scale=scale)

    def test_callers_positions_stay_writeable(self):
        pos = np.array([[0.0, 0.0], [0.5, 0.0], [1.0, 0.0]])
        topo = Topology(positions=pos)
        assert pos.flags.writeable and not topo.positions.flags.writeable
        pos[1, 1] = 0.25
        assert topo.positions[1, 1] == 0.0


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

    @pytest.mark.parametrize("topo, pair, value", [
        # (1/3)^700 underflows to 0
        (linear_topology(2, p_a=700.0), "nodes 0 and 1", "0.333333^700 is 0,"),
        # (1/3)^650 is a denormal whose mean power 1/lambda overflows
        (linear_topology(2, p_a=650.0), "nodes 0 and 1", "0.333333^650 is 7.4"),
        # 1000^200 overflows to inf, a mean power of 0
        (Topology(positions=np.array([[0.0, 0.0], [0.5, 0.1], [1000.0, 0.0]]), p_a=200.0),
         "nodes 0 and 2", "1000^200 is inf,"),
    ])
    def test_lambda_outside_float_range_rejected(self, topo, pair, value):
        want = re.escape(f"{pair}: lambda = d^p_a = {value}")
        with pytest.raises(ValueError, match=want) as err:
            fading_params(topo)
        assert "lower p_a" in str(err.value)

    def test_distance_scaling(self):
        base = fading_params(linear_topology(2))
        doubled = fading_params(
            Topology(positions=2.0 * linear_topology(2).positions, p_a=2.5)
        )
        off = ~np.eye(4, dtype=bool)
        assert doubled.lam[off] == pytest.approx(base.lam[off] * 2**2.5)

    def test_callers_lambda_stays_writeable(self):
        lam = np.array([[0.0, 2.0], [2.0, 0.0]])
        params = FadingParams(lam=lam)
        assert lam.flags.writeable and not params.lam.flags.writeable
        lam[0, 1] = 3.0
        assert params.lam[0, 1] == 2.0


class TestDrawChannelPowers:
    def test_sample_mean_matches_exponential(self):
        params = fading_params(linear_topology(0))  # single unit-distance link
        draws = draw_channel_powers_keyed(params, 5, 100_000)[:, 0, 1]
        assert draws.mean() == pytest.approx(1.0, abs=0.02)

    def test_positive_and_symmetric(self):
        params = fading_params(grid_topology(2))
        p = draw_channel_powers_keyed(params, 0, 3)
        off = ~np.eye(6, dtype=bool)
        assert np.all(p[:, off] > 0)
        assert np.array_equal(p, p.transpose(0, 2, 1))

    def test_fixed_seed_identical(self):
        params = fading_params(linear_topology(2))
        a = draw_channel_powers_keyed(params, 7, 5)
        b = draw_channel_powers_keyed(params, 7, 5)
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

    def test_draws_are_symmetric_per_pair_exponentials(self):
        params = fading_params(grid_topology(2))
        n = params.lam.shape[0]
        powers = draw_channel_powers_keyed(params, 7, 9, start=3)
        assert np.array_equal(powers, powers.transpose(0, 2, 1))
        assert not powers[:, np.arange(n), np.arange(n)].any()
        for i, j in itertools.combinations(range(n), 2):
            key_j = 0xFFFFFFFF if j == n - 1 else j
            u = pair_uniforms(7, i, key_j, 9, start=3)
            assert np.array_equal(powers[:, i, j], -params.mean_power[i, j] * np.log1p(-u))

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

    def test_tied_source_links_keep_the_smaller_label(self):
        caps = caps_from_links(
            4, {(0, 1): 1.0, (0, 2): 2.0, (0, 3): 1.0, (0, 4): 2.0, (0, 5): 1.0}
        )
        order = renumber(caps, NumberingScheme.INSTANTANEOUS_SOURCE_RELAY)
        assert order == (2, 4, 1, 3)

    def test_tied_greedy_step_keeps_the_smaller_label(self):
        # from the source, relays 2 and 3 tie; from relay 2, relays 1 and 3
        # tie; relay 4 has no link from relay 1, so it goes last
        caps = caps_from_links(
            4, {(0, 1): 1.0, (0, 2): 3.0, (0, 3): 3.0, (0, 4): 2.0,
                (2, 1): 2.0, (2, 3): 2.0, (2, 4): 1.0, (1, 3): 0.5, (0, 5): 1.0},
        )
        order = renumber(caps, NumberingScheme.INSTANTANEOUS_RELAY_RELAY)
        assert order == (2, 1, 3, 4)

    @pytest.mark.parametrize("n_relays", range(1, 10))
    def test_relay_relay_orders_match_greedy_loop(self, rng, n_relays):
        # continuous links, then integers 0..2, where most steps tie
        n = n_relays + 2
        stacks = (
            rng.random((300, n, n)),
            rng.integers(0, 3, size=(300, n, n)).astype(float),
            rng.random((n, n, 300)).transpose(2, 0, 1),  # link-major, as the sweep's
        )
        for links in stacks:
            got = instantaneous_orders(links, NumberingScheme.INSTANTANEOUS_RELAY_RELAY)
            assert np.array_equal(got, greedy_relay_relay_orders(links))

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

    def test_random_has_only_per_trial_orders(self):
        # random orders are keyed per trial (trial_permutations), never drawn
        # for one matrix
        topo = grid_topology(2)
        caps = build_capacity_matrix(
            draw_channel_powers_keyed(fading_params(topo), 3, 1)[0], None, SnrConfig(10.0)
        )
        for src in (topo, caps):
            with pytest.raises(ValueError, match="trial_permutations"):
                renumber(src, NumberingScheme.RANDOM)

    def test_every_scheme_returns_permutation(self):
        topo = grid_topology(2)
        params = fading_params(topo)
        powers = draw_channel_powers_keyed(params, 3, 1)
        for scheme in NumberingScheme:
            order = tuple(trial_orders(powers, topo, scheme, 0)[0])
            assert sorted(order) == [1, 2, 3, 4]

    def test_heuristics_never_beat_exhaustive_numbering(self):
        # oracle: the best rate over all relay orderings dominates each heuristic
        topo = grid_topology(2)
        params = fading_params(topo)
        for powers in draw_channel_powers_keyed(params, 3, 5):
            best_any = max(
                brute_force_select(
                    build_capacity_matrix(
                        permute_relays(powers, perm), None, SnrConfig(10.0)
                    )
                ).best.rate
                for perm in itertools.permutations(range(1, 5))
            )
            for scheme in NumberingScheme:
                order = tuple(trial_orders(powers[None], topo, scheme, 1)[0])
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
