import itertools

import numpy as np
import pytest

from relayalloc.allocator import (
    AllocationResult,
    RejectReason,
    SingularMatrix,
    TimeAllocation,
    allocate,
    solve_lower_triangular,
    verify_equalization,
)
from relayalloc.rate_model import (
    LinkCapacityMatrix,
    RateMatrix,
    RelaySubset,
    build_rate_matrix,
    mutual_informations,
)
from relayalloc.selector import brute_force_select, recursive_select, subsets_by_size

from conftest import symmetric_exponential_caps


def rm(entries):
    entries = np.asarray(entries, dtype=float)
    return RateMatrix(m=entries.shape[0] - 1, entries=entries)


class TestSolveLowerTriangular:
    def test_hand_solve(self):
        x = solve_lower_triangular(rm([[2, 0], [1, 2]]), np.ones(2))
        assert x == pytest.approx([0.5, 0.25])

    def test_identity(self, rng):
        v = rng.normal(size=4)
        ident = rm(np.eye(4))
        assert solve_lower_triangular(ident, v) == pytest.approx(v)

    def test_zero_diagonal_is_singular(self):
        with pytest.raises(SingularMatrix):
            solve_lower_triangular(rm([[1, 0], [1, 0]]), np.ones(2))

    def test_residual_is_tiny(self, rng):
        for _ in range(20):
            m = rng.integers(1, 7)
            entries = np.tril(rng.exponential(size=(m, m)) + 1e-3)
            rhs = rng.normal(size=m)
            x = solve_lower_triangular(rm(entries), rhs)
            assert np.abs(entries @ x - rhs).max() < 1e-9

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            solve_lower_triangular(rm([[1, 0], [1, 1]]), np.ones(3))


class TestAllocate:
    def test_relay_beats_direct(self):
        res = allocate(rm([[2, 0], [1, 2]]), RelaySubset((1,)))
        assert res.feasible
        assert res.times.t == pytest.approx([2 / 3, 1 / 3])
        assert res.rate == pytest.approx(4 / 3)

    def test_dominated_relay_rejected(self):
        res = allocate(rm([[1, 0], [2, 2]]), RelaySubset((1,)))
        assert not res.feasible
        assert res.reject_reason is RejectReason.NONPOSITIVE_TIME
        assert res.reject_index == 1
        # unnormalized slot of the relay is (1 - 2) / 2 < 0
        assert res.times.t[1] < 0

    def test_direct_transmission(self):
        res = allocate(rm([[3.0]]), RelaySubset(()))
        assert res.feasible
        assert res.times.t == pytest.approx([1.0])
        assert res.rate == pytest.approx(3.0)

    def test_singular_rejected(self):
        res = allocate(rm([[1, 0], [1, 0]]), RelaySubset((1,)))
        assert not res.feasible
        assert res.reject_reason is RejectReason.SINGULAR
        assert res.times is None

    def test_zero_direct_link_is_singular(self):
        res = allocate(rm([[0.0]]), RelaySubset(()))
        assert res.reject_reason is RejectReason.SINGULAR

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_exact_cancellation_leaves_no_infinite_times(self):
        # subset (2, 3, 4, 5, 6) of this integer instance has a slot sum of
        # about -1.7e-16 and durations u / s that sum to exactly 0, so
        # renormalizing them divided by zero and gave infinite times
        caps = np.array([
            [0, 2, 3, 1, 3, 3, 0, 1], [2, 0, 1, 0, 1, 1, 2, 2], [3, 1, 0, 1, 2, 2, 2, 3],
            [1, 0, 1, 0, 2, 3, 0, 0], [3, 1, 2, 2, 0, 2, 0, 1], [3, 1, 2, 3, 2, 0, 1, 2],
            [0, 2, 2, 0, 0, 1, 0, 3], [1, 2, 3, 0, 1, 2, 3, 0],
        ], dtype=float)
        lcm = LinkCapacityMatrix(6, caps, caps > 0)
        sub = RelaySubset((2, 3, 4, 5, 6))
        res = allocate(build_rate_matrix(lcm, sub), sub)
        assert res.reject_reason is RejectReason.NEGATIVE_RATE
        assert res.rate < 0
        assert res.times is None
        for other in subsets_by_size(6):
            r = allocate(build_rate_matrix(lcm, RelaySubset(other)), RelaySubset(other))
            assert r.times is None or np.all(np.isfinite(r.times.t)), other
        brute = brute_force_select(lcm)
        trace = []
        walk = recursive_select(lcm, trace=trace)
        assert walk.best.subset == brute.best.subset
        assert walk.best.rate == pytest.approx(brute.best.rate, rel=1e-9)
        for _sub, result, _blocks in trace:
            assert result is None or result.times is None or np.all(
                np.isfinite(result.times.t))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_durations_at_positive_rate(self):
        # u = (1e250, -1e250, 1e-100) sums to 1e-100 > 0, and u / s overflows:
        # a nonpositive slot, reported without times
        entries = [[1e-250, 0, 0], [1, 1, 0], [1e-250, 1e-250, 1e100]]
        res = allocate(rm(entries), RelaySubset((1, 2)))
        assert res.reject_reason is RejectReason.NONPOSITIVE_TIME
        assert res.times is None
        assert res.rate == pytest.approx(1e100)
        caps = np.zeros((4, 4))
        for (i, j), value in {(0, 1): 1e-250, (0, 2): 1.0, (1, 2): 1.0, (0, 3): 1e-250,
                              (1, 3): 1e-250, (2, 3): 1e100}.items():
            caps[i, j] = caps[j, i] = value
        lcm = LinkCapacityMatrix(2, caps, caps > 0)
        assert build_rate_matrix(lcm, RelaySubset((1, 2))).entries.tolist() == entries
        assert recursive_select(lcm).best.subset == brute_force_select(lcm).best.subset


class TestTimeAllocation:
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite_durations(self, bad):
        with pytest.raises(ValueError, match="finite"):
            TimeAllocation(np.array([0.5, bad, 0.5]))

    def test_rejects_durations_not_summing_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            TimeAllocation(np.array([0.5, 0.6]))


class TestVerifyEqualization:
    def test_solution_equalizes(self):
        matrix = rm([[2, 0], [1, 2]])
        res = allocate(matrix, RelaySubset((1,)))
        assert verify_equalization(matrix, res) <= 1e-9 * res.rate

    def test_perturbed_allocation_deviates(self):
        matrix = rm([[2, 0], [1, 2]])
        fake = AllocationResult(
            subset=RelaySubset((1,)),
            times=TimeAllocation(np.array([0.7, 0.3])),
            rate=4 / 3,
            feasible=True,
        )
        # I1 = 1.4 and I_D = 1.3: not equalized
        assert verify_equalization(matrix, fake) == pytest.approx(0.4 - 1 / 3)

    def test_degenerate_direct_case(self):
        matrix = rm([[3.0]])
        res = allocate(matrix, RelaySubset(()))
        assert verify_equalization(matrix, res) == 0.0

    def test_requires_feasible(self):
        matrix = rm([[1, 0], [2, 2]])
        res = allocate(matrix, RelaySubset((1,)))
        with pytest.raises(ValueError):
            verify_equalization(matrix, res)


class TestAllocationProperties:
    def test_equalization_sum_and_positivity_on_random_instances(self, rng):
        for _ in range(300):
            m = int(rng.integers(0, 6))
            entries = np.tril(rng.exponential(size=(m + 1, m + 1)))
            res = allocate(rm(entries), RelaySubset(tuple(range(1, m + 1))))
            if not res.feasible:
                continue
            t = res.times.t
            assert abs(t.sum() - 1.0) <= 1e-12
            assert np.all(t > 1e-12)
            info = mutual_informations(rm(entries), t)
            assert np.abs(info - res.rate).max() <= 1e-9 * res.rate

    def test_scale_covariance(self, rng):
        # scaling every capacity by c > 0 keeps t and multiplies the rate by c
        for _ in range(50):
            m = int(rng.integers(1, 6))
            entries = np.tril(rng.exponential(size=(m + 1, m + 1)) + 1e-6)
            c = float(rng.exponential() + 0.1)
            sub = RelaySubset(tuple(range(1, m + 1)))
            base = allocate(rm(entries), sub)
            scaled = allocate(rm(c * entries), sub)
            assert base.feasible == scaled.feasible
            if base.feasible:
                assert scaled.times.t == pytest.approx(base.times.t, rel=1e-9)
                assert scaled.rate == pytest.approx(c * base.rate, rel=1e-9)

    def test_equalizer_is_maxmin_optimal_on_simplex_grid(self, rng):
        # the returned rate is within 1e-2 of the best min-mutual-information
        # over a 1e-3-step grid of the two-relay time simplex
        step = 1e-3
        t0, t1 = np.meshgrid(np.arange(0, 1 + step, step), np.arange(0, 1 + step, step))
        keep = t0 + t1 <= 1.0 + 1e-12
        grid = np.column_stack([t0[keep], t1[keep], 1.0 - t0[keep] - t1[keep]])
        for _ in range(10):
            caps = symmetric_exponential_caps(rng, 2)
            best = brute_force_select(caps).best
            full = build_rate_matrix(caps, RelaySubset((1, 2))).entries
            grid_best = (grid @ full.T).min(axis=1).max()
            assert grid_best <= best.rate + 1e-2

    def test_rejected_subset_dominance(self, rng):
        # Once a subset is rejected for a nonpositive slot, the optimum over
        # its relay pool is already achieved by a strict subset.
        for _ in range(40):
            caps = symmetric_exponential_caps(rng, 4)
            for size in (2, 3, 4):
                for sub in itertools.combinations(range(1, 5), size):
                    res = allocate(build_rate_matrix(caps, RelaySubset(sub)), RelaySubset(sub))
                    if res.reject_reason is not RejectReason.NONPOSITIVE_TIME:
                        continue
                    rates = {}
                    for k in range(size + 1):
                        for strict in itertools.combinations(sub, k):
                            r = allocate(
                                build_rate_matrix(caps, RelaySubset(strict)),
                                RelaySubset(strict),
                            )
                            if r.feasible:
                                rates[strict] = r.rate
                    pool_best = max(rates.values())
                    strict_best = max(v for k, v in rates.items() if k != sub)
                    assert pool_best == strict_best
