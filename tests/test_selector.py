import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relayalloc.allocator import RejectReason, SingularMatrix, allocate
from relayalloc.rate_model import (
    LinkCapacityMatrix,
    RelaySubset,
    SnrConfig,
    build_capacity_matrix,
    build_rate_matrix,
)
from relayalloc.scenario import (
    draw_channel_powers_keyed,
    fading_params,
    linear_topology,
    random_topology,
)
from relayalloc.selector import (
    NoFeasibleSolution,
    batch_equal_time,
    batch_optimized,
    brute_force_select,
    equal_time_select,
    extend_inverse,
    extend_solution,
    op_count,
    recursive_select,
    root_blocks,
    subsets_by_size,
    worst_case_ops,
)

from conftest import (
    batch_brute_equal_time,
    batch_brute_force,
    caps_from_links,
    exponential_caps_batch,
    recursive_select_blocks,
    symmetric_exponential_caps,
)


class TestBruteForce:
    def test_single_relay_beats_direct(self):
        caps = caps_from_links(1, {(0, 1): 2.0, (1, 2): 2.0, (0, 2): 1.0})
        out = brute_force_select(caps)
        assert out.best.subset.indices == (1,)
        assert out.best.times.t == pytest.approx([2 / 3, 1 / 3])
        assert out.best.rate == pytest.approx(4 / 3)
        assert out.candidates_evaluated == 2

    def test_dominated_relay_leaves_direct(self):
        caps = caps_from_links(1, {(0, 1): 1.0, (1, 2): 2.0, (0, 2): 2.0})
        out = brute_force_select(caps)
        assert out.best.subset.indices == ()
        assert out.best.rate == pytest.approx(2.0)

    def test_missing_inter_relay_link_forces_smaller_subset(self):
        # both single relays dominated by the direct link and no r1-r2 link:
        # the winner is direct transmission
        caps = caps_from_links(
            2, {(0, 1): 1.0, (0, 2): 1.0, (1, 3): 1.0, (2, 3): 1.0, (0, 3): 2.0}
        )
        out = brute_force_select(caps)
        assert out.best.subset.indices == ()
        assert out.best.rate == pytest.approx(2.0)

    def test_no_feasible_solution_only_without_direct_link(self):
        with pytest.raises(NoFeasibleSolution):
            brute_force_select(caps_from_links(0, {}))

    def test_pool_monotonicity(self, rng):
        # appending one more candidate relay never decreases the optimum
        for _ in range(30):
            caps_big = symmetric_exponential_caps(rng, 4)
            sub_ids = [0, 1, 2, 3, 5]  # drop relay 4, keep source/dest
            small = LinkCapacityMatrix(
                n_relays=3,
                caps=caps_big.caps[np.ix_(sub_ids, sub_ids)],
                link_mask=caps_big.link_mask[np.ix_(sub_ids, sub_ids)],
            )
            assert brute_force_select(caps_big).best.rate >= (
                brute_force_select(small).best.rate - 1e-12
            )

    def test_exact_tie_prefers_fewer_then_lex(self):
        # two interchangeable relays: identical rates by symmetry
        caps = caps_from_links(
            2, {(0, 1): 2.0, (0, 2): 2.0, (1, 3): 2.0, (2, 3): 2.0, (0, 3): 1.0, (1, 2): 1.0}
        )
        out = brute_force_select(caps)
        assert out.best.subset.indices == (1,)


class TestRecursiveSelect:
    def test_matches_brute_force_on_random_instances(self, rng):
        for n_relays in range(0, 7):
            for _ in range(60):
                caps = symmetric_exponential_caps(rng, n_relays)
                b = brute_force_select(caps)
                r = recursive_select(caps)
                assert r.best.subset.indices == b.best.subset.indices
                assert r.best.rate == pytest.approx(b.best.rate, rel=1e-9)
                assert r.candidates_evaluated + r.candidates_pruned == 2**n_relays

    def test_direct_only_pool(self):
        caps = caps_from_links(0, {(0, 1): 1.7})
        out = recursive_select(caps)
        assert out.best.subset.indices == ()
        assert out.best.rate == pytest.approx(1.7)

    def test_matches_brute_force_under_partial_connectivity(self, rng):
        for _ in range(200):
            caps_full = symmetric_exponential_caps(rng, 4)
            caps = np.array(caps_full.caps)
            mask = np.array(caps_full.link_mask)
            iu, ju = np.triu_indices(6, 1)
            drop = rng.random(iu.size) < 0.3
            for i, j in zip(iu[drop], ju[drop]):
                if (i, j) == (0, 5):
                    continue  # keep the direct link so an optimum exists
                caps[i, j] = caps[j, i] = 0.0
                mask[i, j] = mask[j, i] = False
            lcm = LinkCapacityMatrix(n_relays=4, caps=caps, link_mask=mask)
            b = brute_force_select(lcm)
            r = recursive_select(lcm)
            assert r.best.subset.indices == b.best.subset.indices
            assert r.best.rate == pytest.approx(b.best.rate, rel=1e-9)

    def test_survives_missing_last_relay_destination_link(self):
        # r1 cannot reach the destination, so {1} is singular, yet {1,2} is
        # the optimum and must still be explored
        caps = caps_from_links(
            2, {(0, 1): 3.0, (0, 2): 0.5, (1, 2): 4.0, (0, 3): 0.2, (2, 3): 3.0}
        )
        out = recursive_select(caps)
        assert out.best.subset.indices == (1, 2)
        assert out.best.subset.indices == brute_force_select(caps).best.subset.indices

    def test_prune_skips_subtree(self):
        # strong direct link and weak relay chain: {1,2} comes out with
        # t0 < 0, so {1,2,3} must never be evaluated
        caps = caps_from_links(
            3,
            {
                (0, 1): 1.0, (0, 2): 10.0, (0, 3): 1.0, (0, 4): 5.0,
                (1, 2): 1.0, (1, 3): 1.0, (2, 3): 1.0,
                (1, 4): 0.1, (2, 4): 0.1, (3, 4): 1.0,
            },
        )
        sub12 = RelaySubset((1, 2))
        res12 = allocate(build_rate_matrix(caps, sub12), sub12)
        assert not res12.feasible
        assert res12.times.t[0] < 0  # the engineered violation

        trace = []
        out = recursive_select(caps, trace=trace)
        visited = {t[0] for t in trace}
        assert (1, 2) in visited
        assert (1, 2, 3) not in visited
        assert out.candidates_pruned > 0
        assert out.best.subset.indices == brute_force_select(caps).best.subset.indices

    def test_pruned_subsets_are_all_infeasible(self, rng):
        # shadow check of the subtree-pruning rule
        for _ in range(50):
            caps = symmetric_exponential_caps(rng, 6)
            trace = []
            recursive_select(caps, trace=trace)
            visited = {t[0] for t in trace}
            for sub in subsets_by_size(6):
                if sub in visited:
                    continue
                res = allocate(build_rate_matrix(caps, RelaySubset(sub)), RelaySubset(sub))
                assert not res.feasible, f"pruned subset {sub} was feasible"

    def test_no_feasible_solution(self):
        with pytest.raises(NoFeasibleSolution):
            recursive_select(caps_from_links(1, {(0, 1): 1.0}))  # no paths to d


class TestFloatWalk:
    """recursive_select against the blocks-based oracle and the batched walk."""

    @pytest.mark.parametrize("family", ["fading", "exponential", "masked", "integer"])
    def test_matches_blocks_oracle(self, rng, family):
        for caps in scalar_cases(rng, family):
            try:
                want = recursive_select_blocks(caps)
            except NoFeasibleSolution:
                with pytest.raises(NoFeasibleSolution):
                    recursive_select(caps)
                continue
            got = recursive_select(caps)
            assert got.best.subset == want.best.subset
            assert got.best.rate == pytest.approx(want.best.rate, rel=1e-12, abs=0)
            if family != "integer":
                # on exact cancellations the oracle's renormalized durations
                # and the walk's slot / s can disagree in sign, so the two may
                # prune differently; only the chosen subset and rate must agree
                assert counters(got) == counters(want)

    @pytest.mark.parametrize("n_relays", range(9))
    def test_equals_batched_walk_exactly(self, rng, n_relays):
        cases = oracle_cases(rng, n_relays, 60)
        for name in ("fading", "masked"):
            assert_scalar_equals_batched(cases[name], where=f"{name}, N={n_relays}")

    def test_equals_batched_walk_exactly_on_layouts(self):
        stack = np.stack([caps.caps for caps in fading_instances(8)])
        assert_scalar_equals_batched(stack, where="random_topology(9)")
        # with a path-loss exponent of 6 a 9-relay line mostly picks 8 or 9
        # relays, where the slot sum follows numpy's pairwise order (_add_slot)
        params = fading_params(linear_topology(9, p_a=6.0))
        powers = draw_channel_powers_keyed(params, 11, 40)
        snrs = 10.0 ** (np.array([10.0, 20.0, 30.0]) / 10.0)
        stack = np.concatenate([np.log2(1.0 + snr * powers) for snr in snrs])
        assert_scalar_equals_batched(stack, where="linear_topology(9, p_a=6)")

    @pytest.mark.parametrize("family", ["exponential", "masked", "integer"])
    def test_trace_changes_no_outcome(self, rng, family):
        for caps in scalar_cases(rng, family, max_relays=7):
            try:
                plain = recursive_select(caps)
            except NoFeasibleSolution:
                with pytest.raises(NoFeasibleSolution):
                    recursive_select(caps, trace=[])
                continue
            trace = []
            traced = recursive_select(caps, trace=trace)
            assert traced.best.subset == plain.best.subset
            assert traced.best.rate == plain.best.rate
            np.testing.assert_array_equal(traced.best.times.t, plain.best.times.t)
            assert counters(traced) == counters(plain)
            assert len(trace) == plain.candidates_evaluated

    @pytest.mark.parametrize("family", ["exponential", "masked"])
    def test_traced_verdicts_match_allocate(self, rng, family):
        for caps in scalar_cases(rng, family, max_relays=7):
            trace = []
            recursive_select(caps, trace=trace)
            for sub, result, _blocks in trace:
                ref = allocate(build_rate_matrix(caps, RelaySubset(sub)), RelaySubset(sub))
                if result is None:  # broken decode chain
                    assert ref.reject_reason is RejectReason.SINGULAR, sub
                    continue
                assert result.feasible == ref.feasible, sub
                assert result.reject_reason is ref.reject_reason, sub


class TestExtendInverse:
    def test_first_extension_from_empty(self, rng):
        caps = symmetric_exponential_caps(rng, 3)
        blocks = extend_inverse(root_blocks(caps), caps, 1)
        rm = build_rate_matrix(caps, RelaySubset((1,))).entries
        assert np.abs(blocks.full_inverse @ rm - np.eye(2)).max() < 1e-10

    def test_noncontiguous_extension_matches_fresh_inverse(self, rng):
        caps = symmetric_exponential_caps(rng, 3)
        blocks = extend_inverse(root_blocks(caps), caps, 1)
        blocks = extend_inverse(blocks, caps, 3)
        assert blocks.subset == (1, 3)
        fresh = np.linalg.inv(build_rate_matrix(caps, RelaySubset((1, 3))).entries)
        assert np.abs(blocks.full_inverse - fresh).max() < 1e-10

    def test_identity_like_capacities(self):
        caps = caps_from_links(
            2, {(0, 1): 1.0, (0, 2): 1.0, (0, 3): 1.0, (1, 2): 1.0, (1, 3): 1.0, (2, 3): 1.0}
        )
        blocks = extend_inverse(root_blocks(caps), caps, 1)
        blocks = extend_inverse(blocks, caps, 2)
        fresh = np.linalg.inv(build_rate_matrix(caps, RelaySubset((1, 2))).entries)
        assert np.abs(blocks.full_inverse - fresh).max() < 1e-12

    def test_identity_along_every_tree_path(self, rng):
        caps = symmetric_exponential_caps(rng, 5)
        trace = []
        recursive_select(caps, trace=trace)
        for sub, _result, blocks in trace:
            if blocks is None or blocks.dest_row is None or not sub:
                continue
            rm = build_rate_matrix(caps, RelaySubset(sub)).entries
            err = np.abs(blocks.full_inverse @ rm - np.eye(len(sub) + 1)).max()
            assert err < 1e-10

    def test_zero_chain_link_raises(self):
        caps = caps_from_links(2, {(0, 1): 1.0, (0, 2): 1.0, (1, 3): 1.0, (2, 3): 1.0, (0, 3): 1.0})
        blocks = extend_inverse(root_blocks(caps), caps, 1)
        with pytest.raises(SingularMatrix):
            extend_inverse(blocks, caps, 2)  # r1-r2 link absent

    def test_zero_destination_link_raises(self):
        caps = caps_from_links(1, {(0, 1): 1.0, (0, 2): 1.0})
        with pytest.raises(SingularMatrix):
            extend_inverse(root_blocks(caps), caps, 1)  # r1-d link absent

    def test_descending_index_rejected(self, rng):
        caps = symmetric_exponential_caps(rng, 3)
        blocks = extend_inverse(root_blocks(caps), caps, 2)
        with pytest.raises(ValueError):
            extend_inverse(blocks, caps, 1)


class TestExtendSolution:
    def test_matches_fresh_allocate_along_paths(self, rng):
        for _ in range(40):
            caps = symmetric_exponential_caps(rng, 6)
            trace = []
            recursive_select(caps, trace=trace)
            for sub, result, blocks in trace:
                if blocks is None or blocks.dest_row is None or not sub:
                    continue
                t, rate = extend_solution(blocks)
                ref = allocate(build_rate_matrix(caps, RelaySubset(sub)), RelaySubset(sub))
                assert rate == pytest.approx(
                    ref.rate, rel=1e-9
                ), f"rate mismatch on {sub}"
                assert t.t == pytest.approx(ref.times.t, rel=1e-7, abs=1e-9)

    def test_base_case_is_single_relay_allocate(self, rng):
        caps = symmetric_exponential_caps(rng, 2)
        blocks = extend_inverse(root_blocks(caps), caps, 1)
        t, rate = extend_solution(blocks)
        ref = allocate(build_rate_matrix(caps, RelaySubset((1,))), RelaySubset((1,)))
        assert rate == pytest.approx(ref.rate)
        assert t.t == pytest.approx(ref.times.t)

    def test_negative_rate_extensions_are_rejected_by_selector(self, rng):
        # extensions with nonpositive rate exist and the tree search must
        # reject them by the rate-sign check
        seen = 0
        for _ in range(50):
            caps = symmetric_exponential_caps(rng, 5)
            trace = []
            recursive_select(caps, trace=trace)
            for _sub, result, _blocks in trace:
                if result is not None and result.reject_reason is RejectReason.NEGATIVE_RATE:
                    assert not result.feasible
                    seen += 1
        assert seen > 0, "no negative-rate extension found in 50 random instances"


class TestEqualTime:
    def test_tie_prefers_direct(self):
        caps = caps_from_links(1, {(0, 1): 2.0, (1, 2): 2.0, (0, 2): 1.0})
        out = equal_time_select(caps)
        # relay subset also achieves rate 1 under t=(1/2, 1/2): tie, direct wins
        assert out.best.subset.indices == ()
        assert out.best.rate == pytest.approx(1.0)

    def test_never_beats_optimized(self, rng):
        for _ in range(100):
            caps = symmetric_exponential_caps(rng, 4)
            assert equal_time_select(caps).best.rate <= (
                brute_force_select(caps).best.rate + 1e-12
            )

    def test_direct_only(self):
        caps = caps_from_links(0, {(0, 1): 2.5})
        assert equal_time_select(caps).best.rate == pytest.approx(2.5)


class TestOpCounts:
    def test_paper_values(self):
        assert op_count(1) == 17
        assert op_count(2) == 32
        assert op_count(3) == 53

    def test_worst_case_totals(self):
        assert worst_case_ops(1) == 17
        assert worst_case_ops(2) == 2 * 17 + 32
        assert worst_case_ops(3) == 3 * 17 + 3 * 32 + 53

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            op_count(0)
        with pytest.raises(ValueError):
            worst_case_ops(0)

    def test_worst_case_no_overflow(self):
        assert worst_case_ops(64) > 2**64  # exact integer arithmetic

    def test_reported_ops_reach_worst_case_without_pruning(self):
        # a fully feasible instance evaluates every subset
        caps = caps_from_links(
            2,
            {(0, 1): 5.0, (0, 2): 4.0, (1, 2): 6.0, (0, 3): 1.0, (1, 3): 5.0, (2, 3): 6.0},
        )
        out = recursive_select(caps)
        if out.candidates_pruned == 0:
            assert out.op_count_reported == worst_case_ops(2)
        assert brute_force_select(caps).op_count_reported == worst_case_ops(2)


def counted_extension(chain_inv, f_new, f_dest, t11, t21, t22):
    """Mirror of the O(p^2) extension with explicit scalar operation counting.

    Returns (new bottom rows of the inverse, ops) where ops counts every
    scalar multiply, divide, add, and subtract.
    """
    p = chain_inv.shape[0]
    ops = 0
    fb_new = np.zeros(p)
    fb_dest = np.zeros(p)
    for j in range(p):
        for i in range(p):
            fb_new[j] += f_new[i] * chain_inv[i, j]
            fb_dest[j] += f_dest[i] * chain_inv[i, j]
            ops += 4
    # T2 inverse: [[1/a, 0], [-c/(a*b), 1/b]]
    inv_a = 1.0 / t11
    inv_b = 1.0 / t22
    cross = -t21 * inv_a * inv_b
    ops += 4
    g_new = np.zeros(p)
    g_dest = np.zeros(p)
    for j in range(p):
        g_new[j] = -inv_a * fb_new[j]
        g_dest[j] = -(cross * fb_new[j] + inv_b * fb_dest[j])
        ops += 4
    return g_new, g_dest, cross, inv_a, inv_b, ops


class TestCountedExtension:
    def test_counted_mirror_matches_extend_inverse(self, rng):
        caps = symmetric_exponential_caps(rng, 6)
        blocks = root_blocks(caps)
        for j in (1, 2, 4, 5):
            parent = blocks
            blocks = extend_inverse(parent, caps, j)
            p = len(parent.subset)
            tx = np.array((0, *parent.subset[:-1]), dtype=int) if parent.subset else np.array([], int)
            last = parent.subset[-1] if parent.subset else 0
            g_new, g_dest, cross, inv_a, inv_b, _ops = counted_extension(
                parent.chain_inv,
                caps.caps[tx, j],
                caps.caps[tx, caps.destination],
                caps.caps[last, j],
                caps.caps[last, caps.destination],
                caps.caps[j, caps.destination],
            )
            assert blocks.chain_inv[p, :p] == pytest.approx(g_new, rel=1e-12, abs=1e-14)
            assert blocks.dest_row[:p] == pytest.approx(g_dest, rel=1e-12, abs=1e-14)
            assert blocks.dest_row[p] == pytest.approx(cross)
            assert blocks.dest_row[p + 1] == pytest.approx(inv_b)
            assert blocks.chain_inv[p, p] == pytest.approx(inv_a)

    def test_measured_ops_quadratic_bound(self, rng):
        # one extension step costs at most 6 q^2 scalar operations
        for q in range(1, 33):
            p = q - 1
            chain_inv = np.tril(rng.normal(size=(p, p)))
            *_rest, ops = counted_extension(
                chain_inv,
                rng.exponential(size=p),
                rng.exponential(size=p),
                1.0,
                1.0,
                1.0,
            )
            assert ops <= 6 * q * q, f"q={q}: {ops} > {6 * q * q}"


class TestBatchEngines:
    def test_batch_agrees_with_per_instance_selectors(self, rng):
        caps_b = exponential_caps_batch(rng, 4, 200)
        opt = batch_optimized(caps_b)
        eq = batch_equal_time(caps_b)
        subs = list(subsets_by_size(4))
        mask = ~np.eye(6, dtype=bool)
        for k in range(200):
            lcm = LinkCapacityMatrix(4, caps_b[k] * mask, mask)
            b = brute_force_select(lcm)
            assert subs[opt["best_id"][k]] == b.best.subset.indices
            assert opt["rate"][k] == pytest.approx(b.best.rate, rel=1e-12)
            e = equal_time_select(lcm)
            assert subs[eq["best_id"][k]] == e.best.subset.indices
            assert eq["rate"][k] == pytest.approx(e.best.rate, rel=1e-12)

    def test_batch_reject_counters_match_allocate(self, rng):
        caps_b = exponential_caps_batch(rng, 3, 100)
        opt = batch_optimized(caps_b)
        mask = ~np.eye(5, dtype=bool)
        for k in range(100):
            lcm = LinkCapacityMatrix(3, caps_b[k] * mask, mask)
            assert batch_reject_counts(opt, k) == allocate_reject_counts(lcm)

    def test_exact_cancellation_verdict_matches_allocate(self):
        # subset (1, 2, 3, 4, 6, 7, 8) of this integer instance has an exact
        # slot sum of 0; the sign of its floating-point sum over 8 slots, and
        # so its reject reason, depends on the order of the additions
        upper = [3, 0, 2, 2, 1, 1, 3, 3, 2, 2, 0, 1, 3, 3, 0, 1, 3, 1, 1, 0, 0, 1, 3,
                 3, 1, 2, 1, 0, 2, 1, 0, 1, 0, 1, 2, 1, 3, 0, 1, 2, 3, 3, 3, 3, 3]
        caps = np.zeros((10, 10))
        caps[np.triu_indices(10, 1)] = upper
        caps += caps.T
        lcm = LinkCapacityMatrix(8, caps, ~np.eye(10, dtype=bool))
        assert batch_reject_counts(batch_optimized(caps[None]), 0) == allocate_reject_counts(lcm)

    @pytest.mark.parametrize("n_relays", range(9))
    def test_walk_matches_brute_force_oracle(self, rng, n_relays):
        for name, caps_b in oracle_cases(rng, n_relays, 200).items():
            for walk, oracle in (
                (batch_optimized, batch_brute_force),
                (batch_equal_time, batch_brute_equal_time),
            ):
                got, want = walk(caps_b), oracle(caps_b)
                assert got.keys() == want.keys()
                for key in want:
                    where = f"{walk.__name__} {key} on {name} caps, N={n_relays}"
                    if key == "rate":
                        np.testing.assert_allclose(got[key], want[key], rtol=1e-12,
                                                   atol=0, err_msg=where)
                    else:
                        np.testing.assert_array_equal(got[key], want[key], err_msg=where)

    def test_walk_and_oracle_raise_on_the_same_trial(self, rng):
        caps_b = exponential_caps_batch(rng, 3, 10)
        caps_b[4] = 0.0  # every subset of trial 4 is singular
        for engine in (batch_optimized, batch_brute_force):
            with pytest.raises(NoFeasibleSolution, match="trial 4 "):
                engine(caps_b)
            with pytest.raises(NoFeasibleSolution, match="trial 0 "):
                engine(np.zeros((5, 4, 4)))


def allocate_reject_counts(caps):
    """Reject reasons allocate gives over every subset of one instance."""
    counts = dict.fromkeys(
        (RejectReason.SINGULAR, RejectReason.NEGATIVE_RATE, RejectReason.NONPOSITIVE_TIME), 0
    )
    for sub in subsets_by_size(caps.n_relays):
        res = allocate(build_rate_matrix(caps, RelaySubset(sub)), RelaySubset(sub))
        if res.reject_reason in counts:
            counts[res.reject_reason] += 1
    return counts


def batch_reject_counts(out, k):
    return {
        RejectReason.SINGULAR: out["n_singular"][k],
        RejectReason.NEGATIVE_RATE: out["n_negative_rate"][k],
        RejectReason.NONPOSITIVE_TIME: out["n_nonpositive_time"][k],
    }


def oracle_cases(rng, n_relays, n_draws):
    """Named capacity stacks in which every trial has a feasible subset.

    Fading draws, the same with 30% of links masked (the direct link kept),
    without a direct link, and small integers, whose many exact rate ties
    exercise the tie rule.
    """
    n = n_relays + 2
    dest = n - 1
    off_diagonal = ~np.eye(n, dtype=bool)
    fading = exponential_caps_batch(rng, n_relays, n_draws)
    masked = fading * (rng.random(fading.shape) < 0.7)
    masked[:, 0, dest] = fading[:, 0, dest]
    integer = rng.integers(0, 4, size=fading.shape) * off_diagonal.astype(float)
    integer[:, 0, dest] = rng.integers(1, 4, size=n_draws)
    cases = {"fading": fading, "masked": masked, "integer": integer}
    if n_relays:
        # with every relay link present, any single relay is feasible
        no_direct = fading.copy()
        no_direct[:, 0, dest] = 0.0
        integer_no_direct = rng.integers(1, 4, size=fading.shape) * off_diagonal.astype(float)
        integer_no_direct[:, 0, dest] = 0.0
        cases.update(no_direct=no_direct, integer_no_direct=integer_no_direct)
    return cases


def counters(outcome):
    return (
        outcome.candidates_evaluated, outcome.candidates_pruned, outcome.op_count_reported
    )


def fading_instances(n_layouts):
    """Seeded random_topology(9) fading instances, each at 0, 5, ..., 20 dB."""
    for seed in range(n_layouts):
        powers = draw_channel_powers_keyed(fading_params(random_topology(9, seed)), seed, 1)[0]
        for db in (0.0, 5.0, 10.0, 15.0, 20.0):
            yield build_capacity_matrix(powers, None, SnrConfig(10.0 ** (db / 10.0)))


def scalar_cases(rng, family, max_relays=9):
    """LinkCapacityMatrix instances of one family for the scalar selectors.

    ``fading``: 9-relay random layouts (see fading_instances); for the other
    families, pools of 0..max_relays relays with exponential capacities,
    the same with 30% of the links masked (the direct link kept), or
    integers 0..3 with every zero masked, which may leave no feasible subset.
    """
    if family == "fading":
        yield from fading_instances(20)
        return
    for n_relays in range(max_relays + 1):
        n = n_relays + 2
        for _ in range(20):
            caps = symmetric_exponential_caps(rng, n_relays).caps
            if family == "masked":
                keep = np.triu(rng.random((n, n)) < 0.7, 1)
                keep[0, n - 1] = True
                caps = caps * (keep | keep.T)
            elif family == "integer":
                caps = np.triu(rng.integers(0, 4, size=(n, n)), 1).astype(float)
                caps = caps + caps.T
            yield LinkCapacityMatrix(n_relays, caps, caps > 0)


def assert_scalar_equals_batched(caps_b, where):
    """recursive_select on each matrix of the stack equals batch_optimized exactly."""
    n_relays = caps_b.shape[1] - 2
    walk = batch_optimized(caps_b)
    subsets = list(subsets_by_size(n_relays))
    for k, caps in enumerate(caps_b):
        got = recursive_select(LinkCapacityMatrix(n_relays, caps, caps > 0)).best
        assert got.subset.indices == subsets[walk["best_id"][k]], (where, k)
        assert got.rate == walk["rate"][k], (where, k)


@st.composite
def integer_instances(draw):
    """Small instances with capacities in 0..3, a random link mask and
    possibly no direct link: exact ties and cancellations are common."""
    n_relays = draw(st.integers(0, 5))
    n = n_relays + 2
    cells = st.lists(st.integers(0, 3), min_size=n * n, max_size=n * n)
    flags = st.lists(st.booleans(), min_size=n * n, max_size=n * n)
    mask = np.array(draw(flags)).reshape(n, n) & ~np.eye(n, dtype=bool)
    caps = np.array(draw(cells), dtype=float).reshape(n, n) * mask
    return LinkCapacityMatrix(n_relays=n_relays, caps=caps, link_mask=mask)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(integer_instances())
def test_scalar_and_batched_selectors_agree(caps):
    batch = caps.caps[None]
    try:
        want = brute_force_select(caps).best
    except NoFeasibleSolution:
        with pytest.raises(NoFeasibleSolution):
            recursive_select(caps)
        with pytest.raises(NoFeasibleSolution):
            batch_optimized(batch)
        return
    got = recursive_select(caps).best
    assert got.subset == want.subset
    assert got.rate == pytest.approx(want.rate, rel=1e-9)
    walk = batch_optimized(batch)
    assert list(subsets_by_size(caps.n_relays))[walk["best_id"][0]] == want.subset.indices
    assert walk["rate"][0] == pytest.approx(want.rate, rel=1e-12)
    # the scalar and batched walks run the same float recurrence
    assert walk["rate"][0] == got.rate
