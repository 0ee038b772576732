import itertools

import numpy as np
import pytest

from relayalloc.rate_model import (
    LinkCapacityMatrix,
    RateMatrix,
    RelaySubset,
    SnrConfig,
    build_capacity_matrix,
    build_rate_matrix,
    link_capacity,
    mutual_informations,
)

from conftest import symmetric_exponential_caps


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


class TestLinkCapacityMatrix:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_capacity_rejected(self, bad):
        caps = np.array([[0.0, 2.0, 1.0], [2.0, 0.0, bad], [1.0, bad, 0.0]])
        with pytest.raises(ValueError, match="finite"):
            LinkCapacityMatrix(n_relays=1, caps=caps, link_mask=~np.eye(3, dtype=bool))


class TestRelaySubset:
    def test_must_be_ascending(self):
        with pytest.raises(ValueError):
            RelaySubset((2, 1))
        with pytest.raises(ValueError):
            RelaySubset((1, 1))

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
        mask = ~np.eye(4, dtype=bool)
        return LinkCapacityMatrix(n_relays=2, caps=a, link_mask=mask)

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
        mask = np.array(a.link_mask)
        caps[1, 2] = caps[2, 1] = 0.0
        mask[1, 2] = mask[2, 1] = False
        broken = LinkCapacityMatrix(n_relays=2, caps=caps, link_mask=mask)
        rm = build_rate_matrix(broken, RelaySubset((1, 2)))
        assert rm.entries[1, 1] == 0.0  # the r1 -> r2 decode link

    def test_rate_matrix_validates_triangularity(self):
        with pytest.raises(ValueError):
            RateMatrix(m=1, entries=[[1.0, 0.5], [1.0, 1.0]])


class TestMutualInformations:
    def test_hand_product(self):
        rm = RateMatrix(m=1, entries=[[2.0, 0.0], [1.0, 2.0]])
        info = mutual_informations(rm, np.array([2 / 3, 1 / 3]))
        assert info == pytest.approx([4 / 3, 4 / 3])

    def test_zero_times(self):
        rm = RateMatrix(m=1, entries=[[2.0, 0.0], [1.0, 2.0]])
        assert np.array_equal(mutual_informations(rm, np.zeros(2)), np.zeros(2))

    def test_direct_transmission(self):
        rm = RateMatrix(m=0, entries=[[3.5]])
        assert mutual_informations(rm, np.array([1.0])) == pytest.approx([3.5])

    def test_length_mismatch(self):
        rm = RateMatrix(m=1, entries=[[2.0, 0.0], [1.0, 2.0]])
        with pytest.raises(ValueError):
            mutual_informations(rm, np.ones(3))

    def test_nonfinite_rejected(self):
        rm = RateMatrix(m=1, entries=[[2.0, 0.0], [1.0, 2.0]])
        with pytest.raises(ValueError):
            mutual_informations(rm, np.array([np.inf, 0.0]))
