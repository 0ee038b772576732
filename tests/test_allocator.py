import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relayalloc.allocator import (
    TIME_TOL,
    AllocationResult,
    RejectReason,
    SingularMatrix,
    TimeAllocation,
    allocate,
    copy_where,
    judge,
    node_rates,
    select_mask,
    slot_times,
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

from conftest import reference_judge, reference_slot_times, symmetric_exponential_caps


def rm(entries):
    return RateMatrix(entries)


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
        # subset (2, 3, 4) of this integer instance (draw 8646 of
        # default_rng(0), upper triangle in 0..3) has a slot sum of about
        # -1.7e-16 and durations u / s that sum to exactly 0, so
        # renormalizing them divided by zero and gave infinite times
        caps = np.array([
            [0, 3, 3, 1, 3, 3, 2, 0], [3, 0, 0, 0, 2, 1, 2, 2], [3, 0, 0, 1, 2, 0, 0, 2],
            [1, 0, 1, 0, 1, 3, 2, 1], [3, 2, 2, 1, 0, 1, 3, 3], [3, 1, 0, 3, 1, 0, 3, 1],
            [2, 2, 0, 2, 3, 3, 0, 1], [0, 2, 2, 1, 3, 1, 1, 0],
        ], dtype=float)
        lcm = LinkCapacityMatrix(caps)
        sub = RelaySubset((2, 3, 4))
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
        lcm = LinkCapacityMatrix(caps)
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

    def test_callers_array_stays_writeable(self):
        t = np.array([0.25, 0.75])
        times = TimeAllocation(t)
        assert t.flags.writeable and not times.t.flags.writeable
        t[0] = 0.5
        assert times.t[0] == 0.25


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


class TestCopyWhere:
    """copy_where is np.where(mask, src, dst) written into dst, bit for bit."""

    SPECIAL = {
        np.float64: [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -1.5, 1.7e308],
        np.int64: [0, -1, 1, np.iinfo(np.int64).min, np.iinfo(np.int64).max],
    }

    @pytest.mark.parametrize("dtype", [np.float64, np.int64])
    @pytest.mark.parametrize("density", [0.0, 0.5, 1.0])
    def test_equals_where_bit_for_bit(self, rng, dtype, density):
        special = np.array(self.SPECIAL[dtype], dtype=dtype)
        n = 1000
        if dtype is np.float64:
            dst, src = rng.normal(size=n), rng.normal(size=n)
        else:
            dst, src = rng.integers(-(2**62), 2**62, size=(2, n))
        # every special value against every other, and against ordinary ones
        pairs = np.array(list(itertools.product(special, repeat=2)), dtype=dtype)
        dst[: len(pairs)], src[: len(pairs)] = pairs.T
        m = len(special)
        dst[-2 * m : -m], src[-m:] = special, special
        mask = rng.random(n) < density
        # an array, and a scalar broadcast over dst
        for x in (src, src[7]):
            want = np.where(mask, x, dst)
            got = dst.copy()
            copy_where(got, x, select_mask(mask))
            assert got.dtype == want.dtype
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_writes_through_a_view_and_leaves_src_alone(self):
        buf = np.full((2, 4), -np.inf)
        src = np.array([1.0, np.nan, -0.0, 2.0])
        copy_where(buf[1], src, select_mask(np.array([True, True, True, False])))
        assert np.array_equal(buf[0], np.full(4, -np.inf))
        assert np.array_equal(buf[1].view(np.int64),
                              np.array([1.0, np.nan, -0.0, -np.inf]).view(np.int64))
        assert np.array_equal(src, [1.0, np.nan, -0.0, 2.0], equal_nan=True)


# The special values of a node's slot sum and smallest slot
VERDICT_VALUES = [-math.inf, -1.0, -0.0, 0.0, 5e-324, 1e-13, 1.0, 1e308, math.inf, math.nan]


def test_node_rates_is_judge_on_every_special_pair():
    # a (10, 10) block: row i has slot sum VERDICT_VALUES[i], column j the
    # smallest slot VERDICT_VALUES[j]; each node is judge's one-slot subset
    s, min_u = np.meshgrid(VERDICT_VALUES, VERDICT_VALUES, indexing="ij")
    # the (2, T) uint8 buffer that batch_optimized passes
    counts = np.zeros((2, len(VERDICT_VALUES)), dtype=np.uint8)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        rate = node_rates(s, min_u, counts)
        want_rate = 1.0 / s
    want_counts = np.zeros_like(counts)
    for (i, j), x in np.ndenumerate(s):
        res = judge(RelaySubset(()), (min_u[i, j],), x)
        want_counts[0, j] += res.reject_reason is RejectReason.NEGATIVE_RATE
        want_counts[1, j] += res.feasible
        where = (x, min_u[i, j])
        if res.feasible:
            assert rate[i, j].view(np.int64) == want_rate[i, j].view(np.int64), where
        else:
            assert math.isnan(rate[i, j]), where
    assert np.array_equal(counts, want_counts)
    # the counts are added to what the caller holds
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        node_rates(s, min_u, counts)
    assert np.array_equal(counts, 2 * want_counts)
    # one-row blocks add their flag planes; their rates are the block's rows
    rows = np.zeros_like(counts)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i in range(len(s)):
            one = node_rates(s[i:i + 1], min_u[i:i + 1], rows)
            assert np.array_equal(one.view(np.int64), rate[i:i + 1].view(np.int64))
    assert np.array_equal(rows, want_counts)


# -- the Python-float verdict against the numpy one ----------------------------

SPECIAL_SLOTS = [0.0, -0.0, 1.0, -1.0, 0.5, 3.0, math.nan, math.inf, -math.inf, 1e300, -1e300,
                 1e-300, -1e-300, 1.7e308, -1.7e308, 5e-324, TIME_TOL, -TIME_TOL]


@st.composite
def slot_vectors(draw):
    """(u, s): unnormalized slots and a slot sum, ordinary and extreme.

    Entries mix special values, 1e+-300 magnitudes and ordinary floats, or
    are all positive, as a feasible solution's are; some vectors also carry
    the negations of some of their entries, so that they cancel exactly.
    ``s`` is the slots' own left-to-right sum, or positive, negative, zero,
    NaN or inf.
    """
    entry = st.one_of(
        st.sampled_from(SPECIAL_SLOTS),
        st.floats(-10.0, 10.0),
        st.builds(lambda m, e: m * 10.0**e, st.floats(-10.0, 10.0), st.integers(-300, 300)),
        st.floats(),
    )
    if draw(st.booleans()):
        # a solution of a feasible kind, to reach the feasible verdict
        entry = st.floats(1e-3, 1e3)
    u = draw(st.lists(entry, min_size=0, max_size=11))
    if u and draw(st.booleans()):
        k = draw(st.integers(1, len(u)))
        u = draw(st.permutations(u + [-x for x in u[:k]]))[:12]
    own_sum = list(itertools.accumulate(u))[-1] if u else 0.0
    if draw(st.booleans()):
        return u, own_sum
    s = draw(st.one_of(
        st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 1.0, -1.0,
                         1e-300, -1e-300, 1e300, 5e-324, -5e-324]),
        st.floats(),
    ))
    return u, s


def outcome(f, *args):
    """What ``f(*args)`` returns, or the type and message of what it raises."""
    try:
        return "ok", f(*args)
    except Exception as exc:  # noqa: BLE001 - the reference may raise anything
        return type(exc), str(exc)


def assert_same_times(got, want):
    assert (got is None) == (want is None)
    if want is not None:
        assert np.array_equal(got.t, want.t)
        assert np.array_equal(np.signbit(got.t), np.signbit(want.t))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(slot_vectors())
@example(([TIME_TOL, 1.0], 1.0))  # a slot of exactly TIME_TOL is not feasible
@example(([1.0, -0.0], 1.0))  # the durations keep the zero's sign
# magnitudes beyond the float range, whose renormalizing sum stays finite,
# or overflows to inf and leaves zeros, which are refused
@example(([1e308, -1e308, 1.0], 1.0))
@example(([1e298, 1e298, -1e298, -1e298, 1e-10], 1e-10))
def test_judge_and_slot_times_equal_numpy_reference(case):
    u, s = case
    sub = RelaySubset(tuple(range(1, len(u))))
    for got, want in (
        (outcome(judge, sub, tuple(u), s), outcome(reference_judge, sub, tuple(u), s)),
        (outcome(judge, sub, np.array(u), s), outcome(reference_judge, sub, np.array(u), s)),
    ):
        assert got[0] == want[0], (got, want)
        if got[0] != "ok":
            assert got[1] == want[1]
            continue
        res, ref = got[1], want[1]
        assert res.subset == ref.subset
        assert res.rate == ref.rate
        assert res.feasible == ref.feasible
        assert res.reject_reason is ref.reject_reason
        assert res.reject_index == ref.reject_index
        assert_same_times(res.times, ref.times)
    got = outcome(slot_times, np.array(u), s)
    want = outcome(reference_slot_times, np.array(u), s)
    assert got[0] == want[0], (got, want)
    if got[0] == "ok":
        assert_same_times(got[1], want[1])
    else:
        assert got[1] == want[1]
