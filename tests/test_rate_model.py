import itertools

import numpy as np
import pytest

from relayalloc.rate_model import (
    MAX_CAPACITY,
    LinkCapacityMatrix,
    RateMatrix,
    RelaySubset,
    SnrConfig,
    build_capacity_matrix,
    build_rate_matrix,
    mutual_informations,
    snr_from_db,
)
from relayalloc.selector import brute_force_select, equal_time_select, recursive_select

from conftest import symmetric_exponential_caps


def link_capacity(snr: SnrConfig, channel_power: float) -> float:
    """One link's capacity, read from a 2-node build_capacity_matrix."""
    powers = np.array([[0.0, channel_power], [channel_power, 0.0]])
    return float(build_capacity_matrix(powers, None, snr).caps[0, 1])


class TestLinkCapacity:
    def test_log2_of_four(self):
        assert link_capacity(SnrConfig(1.0), 3.0) == pytest.approx(2.0)

    def test_dead_link(self):
        assert link_capacity(SnrConfig(5.0), 0.0) == 0.0

    def test_unit(self):
        assert link_capacity(SnrConfig(1.0), 1.0) == pytest.approx(1.0)

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            link_capacity(SnrConfig(1.0), -0.1)

    def test_snr_must_be_positive(self):
        with pytest.raises(ValueError):
            SnrConfig(0.0)

    @pytest.mark.parametrize("snr", [np.inf, np.nan])
    def test_snr_must_be_finite(self, snr):
        with pytest.raises(ValueError):
            SnrConfig(snr)

    def test_snr_from_db(self):
        assert snr_from_db(10) == 10.0
        assert snr_from_db(-30.0) == pytest.approx(1e-3)
        assert snr_from_db(-4000.0) == 0.0  # underflow: every link absent

    @pytest.mark.parametrize("db", [4000.0, 1e308, np.inf, -np.inf, np.nan])
    def test_snr_from_db_must_be_finite(self, db):
        with pytest.raises(ValueError, match="has no finite linear SNR"):
            snr_from_db(db)

    def test_monotone_in_power_and_snr(self, rng):
        powers = np.sort(rng.exponential(size=20))
        caps = [link_capacity(SnrConfig(2.0), p) for p in powers]
        assert np.all(np.diff(caps) >= 0)
        snrs = np.sort(rng.exponential(size=20)) + 1e-3
        caps = [link_capacity(SnrConfig(s), 1.5) for s in snrs]
        assert np.all(np.diff(caps) >= 0)


class TestBuildCapacityMatrix:
    def test_two_node_network(self):
        powers = np.array([[0.0, 3.0], [3.0, 0.0]])
        caps = build_capacity_matrix(powers, None, SnrConfig(1.0))
        assert caps.caps[0, 1] == pytest.approx(2.0)
        assert caps.n_relays == 0

    def test_masked_link_is_zero_regardless_of_power(self):
        powers = np.full((4, 4), 9.0)
        mask = np.ones((4, 4), dtype=bool)
        mask[1, 2] = False
        caps = build_capacity_matrix(powers, mask, SnrConfig(1.0))
        assert caps.caps[1, 2] == 0.0
        assert caps.caps[2, 1] > 0.0

    def test_unit_powers_full_mask(self):
        caps = build_capacity_matrix(np.ones((3, 3)), None, SnrConfig(1.0))
        off = ~np.eye(3, dtype=bool)
        assert np.allclose(caps.caps[off], 1.0)
        assert np.all(caps.caps[np.eye(3, dtype=bool)] == 0.0)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            build_capacity_matrix(np.ones((3, 3)), np.ones((4, 4), dtype=bool), SnrConfig(1.0))

    def test_not_square(self):
        with pytest.raises(ValueError):
            build_capacity_matrix(np.ones((3, 2)), None, SnrConfig(1.0))

    def test_single_node_rejected(self):
        with pytest.raises(ValueError, match="need at least source and destination nodes"):
            build_capacity_matrix(np.ones((1, 1)), None, SnrConfig(1.0))

    @pytest.mark.parametrize("other", [1.0, np.nan])
    def test_negative_power_rejected_beside_nan(self, other):
        # a NaN elsewhere does not hide the negative power
        powers = np.ones((4, 4))
        powers[0, 3], powers[2, 1] = other, -0.5
        with pytest.raises(ValueError, match="^channel powers must be nonnegative$"):
            build_capacity_matrix(powers, None, SnrConfig(1.0))

    def test_nan_power_on_a_link_is_not_finite(self):
        powers = np.ones((4, 4))
        powers[1, 3] = np.nan
        with pytest.raises(ValueError, match="^capacities must be finite$"):
            build_capacity_matrix(powers, None, SnrConfig(1.0))

    def test_nan_power_on_diagonal_or_masked_link_stores_zero(self):
        powers = np.ones((4, 4))
        powers[2, 2] = powers[1, 3] = np.nan
        mask = np.ones((4, 4), dtype=bool)
        mask[1, 3] = False
        caps = build_capacity_matrix(powers, mask, SnrConfig(1.0))
        assert caps.caps[2, 2] == 0.0 and caps.caps[1, 3] == 0.0
        # every other link has capacity log2(1 + 1) = 1
        assert np.array_equal(caps.caps, np.where(mask & ~np.eye(4, dtype=bool), 1.0, 0.0))

    def test_callers_powers_and_mask_stay_as_they_were(self):
        powers = np.full((3, 3), 3.0)
        mask = np.ones((3, 3), dtype=bool)
        mask[0, 2] = False
        caps = build_capacity_matrix(powers, mask, SnrConfig(1.0))
        assert caps.caps[0, 2] == 0.0 and caps.caps[0, 1] == 2.0
        assert np.array_equal(powers, np.full((3, 3), 3.0))
        assert mask.sum() == 8 and mask[0, 0]


class TestLinkCapacityMatrix:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_capacity_rejected(self, bad):
        caps = np.array([[0.0, 2.0, 1.0], [2.0, 0.0, bad], [1.0, bad, 0.0]])
        with pytest.raises(ValueError, match="^capacities must be finite$"):
            LinkCapacityMatrix(caps)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_capacity_named_before_a_negative_one(self, bad):
        caps = np.array([[0.0, -2.0, 1.0], [2.0, 0.0, bad], [1.0, 3.0, 0.0]])
        with pytest.raises(ValueError, match="^capacities must be finite$"):
            LinkCapacityMatrix(caps)

    @pytest.mark.parametrize("bad", [-1.0, -5e-324])
    def test_negative_capacity_rejected(self, bad):
        caps = np.array([[0.0, 2.0, 1.0], [2.0, 0.0, 3.0], [1.0, bad, 0.0]])
        with pytest.raises(ValueError, match="^capacities must be nonnegative$"):
            LinkCapacityMatrix(caps)

    @pytest.mark.parametrize("bad", [np.finfo(float).max, np.nextafter(MAX_CAPACITY, np.inf)])
    def test_capacity_above_the_bound_rejected(self, bad):
        caps = np.array([[0.0, 2.0, 1.0], [2.0, 0.0, bad], [1.0, 3.0, 0.0]])
        with pytest.raises(ValueError, match=r"^capacities must be at most MAX_CAPACITY = 2\*\*1000$"):
            LinkCapacityMatrix(caps)

    def test_capacity_at_the_bound_accepted(self):
        caps = np.array([[0.0, MAX_CAPACITY], [MAX_CAPACITY, 0.0]])
        assert LinkCapacityMatrix(caps).direct_capacity == MAX_CAPACITY == 2.0**1000
        # the largest capacity a float SNR can give is far below the bound
        top = build_capacity_matrix(np.ones((2, 2)), None, SnrConfig(np.finfo(float).max))
        assert top.direct_capacity == 1024.0

    @pytest.mark.parametrize("shape", [(3, 4), (4, 3), (9,), (), (2, 3, 3)])
    def test_wrong_shapes_rejected(self, shape):
        with pytest.raises(ValueError, match=r"^capacities must be a square matrix of at least 2x2"):
            LinkCapacityMatrix(np.zeros(shape))

    @pytest.mark.parametrize("n_relays", [-1, -2])
    def test_negative_pool_rejected(self, n_relays):
        # the (n_relays + 2)^2 matrix of a negative pool is smaller than 2x2
        n = n_relays + 2
        with pytest.raises(ValueError, match=r"of at least 2x2, got shape"):
            LinkCapacityMatrix(np.zeros((n, n)))

    @pytest.mark.parametrize("n_relays", [0, 1, 5])
    def test_pool_and_destination_come_from_the_shape(self, n_relays):
        n = n_relays + 2
        caps = np.zeros((n, n))
        caps[0, n - 1] = 1.5
        lcm = LinkCapacityMatrix(caps)
        assert lcm.n_relays == n_relays
        assert lcm.destination == n - 1
        assert lcm.direct_capacity == 1.5

    def test_diagonal_is_unused(self, rng):
        # a nonzero diagonal is accepted and changes no selector's answer
        for n_relays in range(4):
            zero = symmetric_exponential_caps(rng, n_relays)
            caps = np.array(zero.caps)
            np.fill_diagonal(caps, rng.exponential(size=n_relays + 2))
            lcm = LinkCapacityMatrix(caps)
            for select in (brute_force_select, recursive_select, equal_time_select):
                want, got = select(zero).best, select(lcm).best
                assert (got.subset, got.rate) == (want.subset, want.rate)

    def test_callers_arrays_stay_writeable(self):
        caps = np.array([[0.0, 2.0, 1.0], [2.0, 0.0, 3.0], [1.0, 3.0, 0.0]])
        lcm = LinkCapacityMatrix(caps)
        assert caps.flags.writeable and not lcm.caps.flags.writeable
        caps[0, 1] = 5.0
        assert lcm.caps[0, 1] == 2.0


class TestRelaySubset:
    def test_must_be_ascending(self):
        with pytest.raises(ValueError):
            RelaySubset((2, 1))
        with pytest.raises(ValueError):
            RelaySubset((1, 1))

    def test_indices_start_at_one(self):
        with pytest.raises(ValueError, match=r"relay indices start at 1, got \(0,\)"):
            RelaySubset((0,))

    def test_bounds_checked_against_pool(self, rng):
        caps = symmetric_exponential_caps(rng, 2)
        with pytest.raises(ValueError):
            build_rate_matrix(caps, RelaySubset((3,)))


class TestBuildRateMatrix:
    def caps(self):
        # capacities chosen distinct so layout mistakes are visible
        a = np.array(
            [
                [0.0, 1.0, 2.0, 3.0],
                [1.0, 0.0, 4.0, 5.0],
                [2.0, 4.0, 0.0, 6.0],
                [3.0, 5.0, 6.0, 0.0],
            ]
        )
        return LinkCapacityMatrix(a)

    def test_full_two_relay_layout(self):
        rm = build_rate_matrix(self.caps(), RelaySubset((1, 2)))
        expected = np.array(
            [
                [1.0, 0.0, 0.0],   # r1 hears the source
                [2.0, 4.0, 0.0],   # r2 hears source and r1
                [3.0, 5.0, 6.0],   # destination hears everyone
            ]
        )
        assert np.array_equal(rm.entries, expected)

    def test_single_relay_after_removal(self):
        rm = build_rate_matrix(self.caps(), RelaySubset((2,)))
        assert np.array_equal(rm.entries, np.array([[2.0, 0.0], [3.0, 6.0]]))

    def test_empty_subset_is_direct_link(self):
        rm = build_rate_matrix(self.caps(), RelaySubset(()))
        assert np.array_equal(rm.entries, np.array([[3.0]]))

    def test_lower_triangular_on_random_subsets(self, rng):
        caps = symmetric_exponential_caps(rng, 6)
        for _ in range(50):
            size = rng.integers(0, 7)
            sub = tuple(sorted(rng.choice(np.arange(1, 7), size=size, replace=False)))
            rm = build_rate_matrix(caps, RelaySubset(sub))
            assert np.all(rm.entries[np.triu_indices(len(sub) + 1, k=1)] == 0.0)

    def test_removal_consistency(self, rng):
        # dropping relay k of the subset deletes row k and column k+1 (1-based)
        caps = symmetric_exponential_caps(rng, 6)
        for sub in itertools.combinations(range(1, 7), 3):
            full = build_rate_matrix(caps, RelaySubset(sub)).entries
            for k in range(3):
                reduced = build_rate_matrix(
                    caps, RelaySubset(sub[:k] + sub[k + 1 :])
                ).entries
                manual = np.delete(np.delete(full, k, axis=0), k + 1, axis=1)
                assert np.array_equal(reduced, manual)

    def test_masked_chain_link_gives_zero_diagonal(self):
        a = self.caps()
        caps = np.array(a.caps)
        caps[1, 2] = caps[2, 1] = 0.0
        broken = LinkCapacityMatrix(caps)
        rm = build_rate_matrix(broken, RelaySubset((1, 2)))
        assert rm.entries[1, 1] == 0.0  # the r1 -> r2 decode link

    def test_rate_matrix_validates_triangularity(self):
        with pytest.raises(ValueError):
            RateMatrix([[1.0, 0.5], [1.0, 1.0]])

    @pytest.mark.parametrize("entries", [np.zeros((2, 3)), np.zeros(2), np.zeros((0, 0)),
                                         np.zeros((2, 2, 2))])
    def test_rate_matrix_must_be_square_and_nonempty(self, entries):
        with pytest.raises(ValueError, match="^rate matrix must be square and nonempty"):
            RateMatrix(entries)

    @pytest.mark.parametrize("m", [0, 1, 4])
    def test_subset_size_comes_from_the_shape(self, m):
        assert RateMatrix(np.eye(m + 1)).m == m

    def test_callers_array_stays_writeable(self):
        entries = np.array([[1.0, 0.0], [2.0, 3.0]])
        # a view of the caller's array is not frozen either
        for given in (entries, entries[:, :]):
            rm = RateMatrix(given)
            assert given.flags.writeable and not rm.entries.flags.writeable
        entries[1, 0] = 5.0
        assert rm.entries[1, 0] == 2.0


class TestMutualInformations:
    def test_hand_product(self):
        rm = RateMatrix([[2.0, 0.0], [1.0, 2.0]])
        info = mutual_informations(rm, np.array([2 / 3, 1 / 3]))
        assert info == pytest.approx([4 / 3, 4 / 3])

    def test_zero_times(self):
        rm = RateMatrix([[2.0, 0.0], [1.0, 2.0]])
        assert np.array_equal(mutual_informations(rm, np.zeros(2)), np.zeros(2))

    def test_direct_transmission(self):
        rm = RateMatrix([[3.5]])
        assert mutual_informations(rm, np.array([1.0])) == pytest.approx([3.5])

    def test_length_mismatch(self):
        rm = RateMatrix([[2.0, 0.0], [1.0, 2.0]])
        with pytest.raises(ValueError):
            mutual_informations(rm, np.ones(3))

    def test_nonfinite_rejected(self):
        rm = RateMatrix([[2.0, 0.0], [1.0, 2.0]])
        with pytest.raises(ValueError):
            mutual_informations(rm, np.array([np.inf, 0.0]))
