import itertools
import re

import numpy as np
import pytest
from numpy.random import Generator, Philox

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
    permute_relays,
    random_topology,
    renumber,
    trial_orders,
    trial_permutations,
)
from relayalloc.selector import brute_force_select

from conftest import caps_from_links, greedy_relay_relay_orders


def jumped_uniforms(seed, word, skip, n):
    """n doubles of the Philox stream keyed (seed, word) after its first
    ``skip``, reached by numpy's own counter jump ``Philox.advance``."""
    bits = Philox(key=np.array([seed, word], dtype=np.uint64)).advance(skip // 4)
    return Generator(bits).random(skip % 4 + n)[skip % 4:]


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

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_random_layout_seed_outside_the_key_word_rejected(self, seed):
        # a layout seed follows the draws' rule, so numpy never sees it
        with pytest.raises(ValueError, match=re.escape(f"seed {seed} is outside 0..2**64 - 1")):
            random_topology(3, seed)

    def test_random_layout_seeds_at_the_ends_of_the_key_word(self):
        assert random_topology(3, 0).n_relays == random_topology(3, 2**64 - 1).n_relays == 3

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_nonfinite_positions_rejected(self, bad):
        with pytest.raises(ValueError, match=r"positions must be finite: node 1 at \(0\.5, "):
            Topology(positions=np.array([[0.0, 0.0], [0.5, bad], [1.0, 0.0]]))

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

    @pytest.mark.parametrize("lam", [5.0, [1.0, 2.0], np.ones((2, 3))],
                             ids=["scalar", "vector", "2x3"])
    def test_nonsquare_lambda_rejected(self, lam):
        with pytest.raises(ValueError, match=r"lambda matrix must be square, got \("):
            FadingParams(lam=lam)

    # NaN; inf, whose mean power is 0; and a denormal whose mean power overflows
    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -2.0, 1e-310])
    def test_off_diagonal_lambda_rejected(self, bad):
        lam = np.full((3, 3), np.inf)
        lam[0, 1] = lam[1, 0] = lam[0, 2] = lam[2, 0] = 1.0
        lam[1, 2] = lam[2, 1] = bad
        with pytest.raises(ValueError, match="off-diagonal lambda entries must be positive and "
                                             "finite, with a finite mean power 1/lambda"):
            FadingParams(lam=lam)

    def test_asymmetric_lambda_rejected(self):
        with pytest.raises(ValueError, match="lambda matrix must be symmetric"):
            FadingParams(lam=np.array([[np.inf, 1.0], [2.0, np.inf]]))

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

    @pytest.mark.parametrize("start", [0, 1, 3, 4, 5, 101, 125003, 2**62 - 1])
    def test_seeking_reproduces_the_stream(self, start):
        # a seek sets the Philox counter to start // 4 and discards the
        # start % 4 doubles left; it must land on the exact bits of numpy's
        # own counter jump, and of a replay from trial 0 where one is short
        # enough to run.  2^62 - 1 is the last trial a one-relay sweep may have
        n = 7
        # three relays' permutations read 3 doubles per trial, from the
        # stream of the destination's key paired with itself
        reserved = (0xFFFFFFFF << 32) | 0xFFFFFFFF
        u = jumped_uniforms(5, reserved, 3 * start, 3 * n).reshape(n, 3)
        perms = trial_permutations(5, 3, n, start=start)
        assert np.array_equal(perms, np.argsort(u, axis=1, kind="stable") + 1)
        if start < 2**20:
            params = fading_params(linear_topology(2))
            assert np.array_equal(draw_channel_powers_keyed(params, 5, n, start=start),
                                  draw_channel_powers_keyed(params, 5, start + n)[start:])
            assert np.array_equal(perms, trial_permutations(5, 3, start + n)[start:])

    def test_draws_are_symmetric_per_pair_exponentials(self):
        # one bit generator, re-keyed and seeked per pair, gives each pair's
        # own stream bit for bit, at any start
        params = fading_params(grid_topology(2))
        n = params.lam.shape[0]
        for start in (0, 1, 3, 4, 5, 101, 125003, 2**62 - 1):
            powers = draw_channel_powers_keyed(params, 7, 9, start=start)
            assert np.array_equal(powers, powers.transpose(0, 2, 1))
            assert not powers[:, np.arange(n), np.arange(n)].any()
            for i, j in itertools.combinations(range(n), 2):
                key_j = 0xFFFFFFFF if j == n - 1 else j
                u = jumped_uniforms(7, (i << 32) | key_j, start, 9)
                want = -params.mean_power[i, j] * np.log1p(-u)
                assert np.array_equal(powers[:, i, j], want), (start, i, j)

    def test_seed_changes_draws(self):
        params = fading_params(linear_topology(2))
        assert not np.allclose(
            draw_channel_powers_keyed(params, 1, 4), draw_channel_powers_keyed(params, 2, 4)
        )

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_the_key_word_rejected(self, seed):
        # reduced into 64 bits, -1 would draw as 2^64 - 1 does and 2^64 as 0
        params = fading_params(linear_topology(2))
        message = re.escape(f"seed {seed} is outside 0..2**64 - 1")
        for draw in (lambda: draw_channel_powers_keyed(params, seed, 4),
                     lambda: trial_permutations(seed, 2, 4)):
            with pytest.raises(ValueError, match=message):
                draw()

    def test_seeds_at_the_ends_of_the_key_word_differ(self):
        params = fading_params(linear_topology(2))
        ends = [draw_channel_powers_keyed(params, seed, 4) for seed in (0, 2**64 - 1)]
        assert not np.allclose(*ends)

    def test_nested_pools_share_link_draws(self):
        # appending a relay must not disturb the draws of existing links
        pos_small = np.array([[0, 0], [0.3, 0.1], [1, 0]], dtype=float)
        pos_big = np.array([[0, 0], [0.3, 0.1], [0.6, -0.2], [1, 0]], dtype=float)
        small = draw_channel_powers_keyed(fading_params(Topology(pos_small)), 3, 8)
        big = draw_channel_powers_keyed(fading_params(Topology(pos_big)), 3, 8)
        assert np.allclose(big[:, 0, 1], small[:, 0, 1])  # s - r1
        assert np.allclose(big[:, 0, 3], small[:, 0, 2])  # s - d
        assert np.allclose(big[:, 1, 3], small[:, 1, 2])  # r1 - d

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

    @pytest.mark.parametrize("n_relays", range(10))
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

    def test_scheme_needs_its_input(self):
        caps = caps_from_links(2, {(0, 1): 1.0, (0, 2): 2.0})
        with pytest.raises(ValueError, match="average_linear numbering requires a Topology"):
            renumber(caps, NumberingScheme.AVERAGE_LINEAR)
        with pytest.raises(ValueError, match="instantaneous_source_relay numbering requires "
                                             "a LinkCapacityMatrix"):
            renumber(linear_topology(2), NumberingScheme.INSTANTANEOUS_SOURCE_RELAY)
        # an average or random order is not read from the links
        for scheme in (NumberingScheme.AVERAGE_DESCENDING, NumberingScheme.RANDOM):
            with pytest.raises(ValueError, match=f"instantaneous_orders needs an instantaneous "
                                                 f"numbering scheme, got {scheme.value}"):
                instantaneous_orders(caps.caps[None], scheme)

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
