import itertools
import warnings

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
    RATE_TIE_TOL,
    SPARSE_SHARE,
    NoFeasibleSolution,
    _beats,
    _Best,
    _tie_tol,
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
    full_width_offer,
    recursive_select_blocks,
    recursive_select_per_node,
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
            small = LinkCapacityMatrix(caps_big.caps[np.ix_(sub_ids, sub_ids)])
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
                assert r.best.rate == b.best.rate
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
            iu, ju = np.triu_indices(6, 1)
            drop = rng.random(iu.size) < 0.3
            for i, j in zip(iu[drop], ju[drop]):
                if (i, j) == (0, 5):
                    continue  # keep the direct link so an optimum exists
                caps[i, j] = caps[j, i] = 0.0
            lcm = LinkCapacityMatrix(caps)
            b = brute_force_select(lcm)
            r = recursive_select(lcm)
            assert r.best.subset.indices == b.best.subset.indices
            assert r.best.rate == b.best.rate

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
        # t0 < 0, so {1,2,3} must never be evaluated.  The source's link to
        # relay 1 is strong enough that {1} has a positive slot sum, so the
        # walk reaches {1,2} before it prunes
        caps = caps_from_links(
            3,
            {
                (0, 1): 5.0, (0, 2): 10.0, (0, 3): 1.0, (0, 4): 5.0,
                (1, 2): 1.0, (1, 3): 1.0, (2, 3): 1.0,
                (1, 4): 0.1, (2, 4): 1.0, (3, 4): 1.0,
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
            for sub in skipped_subsets(caps, trace):
                res = allocate(build_rate_matrix(caps, RelaySubset(sub)), RelaySubset(sub))
                assert not res.feasible, f"pruned subset {sub} was feasible"

    def test_chain_slot_prunes_the_childs_subtree(self):
        # {1,2} fixes relay 1's slot at (1 - a02 / a01) / a12 = -9 while its
        # slot sum stays positive.  Every descendant inherits that slot, so
        # {1,2,3} is skipped without being evaluated; {1} passes on only the
        # source's slot, 1 / a01 > 0, and is descended into.  Without the
        # link (2, 4) {1,2} is singular, but it passes on the same slot
        links = {
            (0, 1): 1.0, (0, 2): 10.0, (0, 3): 1.0, (0, 4): 5.0,
            (1, 2): 1.0, (1, 3): 1.0, (2, 3): 1.0,
            (1, 4): 5.0, (2, 4): 0.1, (3, 4): 1.0,
        }
        no_dest = {link: c for link, c in links.items() if link != (2, 4)}
        for case in (links, no_dest):
            caps = caps_from_links(3, case)
            sub12 = RelaySubset((1, 2))
            res12 = allocate(build_rate_matrix(caps, sub12), sub12)
            if case is links:
                assert res12.rate > 0
                assert res12.times.t[0] > 0 > res12.times.t[1]
            else:
                assert res12.reject_reason is RejectReason.SINGULAR
            sub123 = RelaySubset((1, 2, 3))
            assert not allocate(build_rate_matrix(caps, sub123), sub123).feasible

            trace = []
            out = recursive_select(caps, trace=trace)
            assert [t[0] for t in trace] == [(), (1,), (1, 2), (1, 3), (2,), (2, 3), (3,)]
            assert out.candidates_pruned == 1
            assert out.candidates_evaluated == 7
            assert out.best.subset.indices == brute_force_select(caps).best.subset.indices

    @pytest.mark.parametrize("family", ["fading", "masked", "integer"])
    def test_skipped_subsets_are_infeasible(self, rng, family):
        # criterion 5 covers exponential pools of 6 relays; these families
        # add masked links, exact integer cancellations and fading layouts
        if family == "fading":
            cases = [caps for caps in fading_pools() if caps.n_relays <= 7]
        else:
            cases = scalar_cases(rng, family, max_relays=7)
        n_skipped = 0
        for k, caps in enumerate(cases):
            trace = []
            try:
                recursive_select(caps, trace=trace)
            except NoFeasibleSolution:
                pass
            for sub in skipped_subsets(caps, trace):
                res = allocate(build_rate_matrix(caps, RelaySubset(sub)), RelaySubset(sub))
                assert not res.feasible, (family, k, sub)
                n_skipped += 1
        assert n_skipped > 0

    def test_skipped_extreme_subsets_are_infeasible(self, extreme_instances):
        n_skipped = 0
        for k, (caps, verdicts) in enumerate(extreme_instances):
            trace = []
            try:
                recursive_select(caps, trace=trace)
            except NoFeasibleSolution:
                pass
            for sub in skipped_subsets(caps, trace):
                assert not verdicts[sub].feasible, (k, sub)
                n_skipped += 1
        assert n_skipped > 0

    @pytest.mark.parametrize("family", ["fading", "exponential", "masked", "integer"])
    def test_no_descendant_of_a_nonpositive_slot_is_traced(self, rng, family):
        # completeness of the prune: a node that passes a nonpositive slot
        # on to its descendants, singular or not, has none of them walked
        cases = fading_pools() if family == "fading" else scalar_cases(rng, family)
        n_cut = 0
        for k, caps in enumerate(cases):
            trace = []
            try:
                recursive_select(caps, trace=trace)
            except NoFeasibleSolution:
                pass
            visited = [t[0] for t in trace]
            for sub, _result, blocks in trace:
                if blocks is None:  # broken decode chain
                    continue
                if not np.all(blocks.u_chain > 0.0):
                    n_cut += 1
                    p = len(sub)
                    below = [v for v in visited if len(v) > p and v[:p] == sub]
                    assert not below, (family, k, sub, below)
        assert n_cut > 0

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
        # relays, whose slot sums add 9 or 10 terms
        params = fading_params(linear_topology(9, p_a=6.0))
        powers = draw_channel_powers_keyed(params, 11, 40)
        snrs = 10.0 ** (np.array([10.0, 20.0, 30.0]) / 10.0)
        stack = np.concatenate([np.log2(1.0 + snr * powers) for snr in snrs])
        assert_scalar_equals_batched(stack, where="linear_topology(9, p_a=6)")

    @pytest.mark.parametrize("n_relays", range(10))
    def test_selectors_agree_exactly(self, rng, n_relays):
        # brute force, the scalar walk and the batched walk add the slots in
        # one order, so they return the same subset at the same rate
        subsets = list(subsets_by_size(n_relays))
        for name, caps_b in oracle_cases(rng, n_relays, 8).items():
            walk = batch_optimized(caps_b)
            for k, caps in enumerate(caps_b):
                lcm = LinkCapacityMatrix(caps)
                want = brute_force_select(lcm).best
                got = recursive_select(lcm).best
                where = (name, n_relays, k)
                assert got.subset == want.subset, where
                assert got.rate == want.rate, where
                assert subsets[walk["best_id"][k]] == want.subset.indices, where
                assert walk["rate"][k] == want.rate, where

    @pytest.mark.parametrize("n_relays", [15, 16])
    def test_walks_equal_allocate_on_large_pools(self, n_relays):
        # a 15- or 16-relay line with a path-loss exponent of 6 picks 7 to 13
        # relays on these draws at 30 dB (5 to 10 with a tenth of the links
        # masked), so the winners' rows and slot sums are long.  In the
        # "chain" family only the links i -> i + 1 are present: the full set
        # is the one nonsingular subset, and its N + 1 slots are summed.
        n = n_relays + 2
        params = fading_params(linear_topology(n_relays, p_a=6.0))
        full = np.log2(1.0 + 1e3 * draw_channel_powers_keyed(params, 7, 8))
        keep = np.triu(np.random.default_rng(n_relays).random(full.shape) < 0.9, 1)
        keep[:, 0, n - 1] = True
        chain = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) == 1
        families = {
            "full": full,
            "masked": full * (keep | keep.transpose(0, 2, 1)),
            "chain": full * chain,
        }
        stack = np.concatenate(list(families.values()))
        names = [name for name, caps_b in families.items() for _ in caps_b]
        walk = batch_optimized(stack)
        subsets = list(subsets_by_size(n_relays))
        for k, (name, caps) in enumerate(zip(names, stack)):
            lcm = LinkCapacityMatrix(caps)
            got = recursive_select(lcm).best
            want = allocate(build_rate_matrix(lcm, got.subset), got.subset)
            where = (name, n_relays, k)
            assert want.feasible, where
            assert got.rate == want.rate, where
            assert subsets[walk["best_id"][k]] == got.subset.indices, where
            assert walk["rate"][k] == want.rate, where
            if name == "chain":
                assert got.subset.indices == tuple(range(1, n - 1)), where

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


# Link capacities spanning the admissible range: absent, just above
# SINGULARITY_TOL, tiny, ordinary and huge.  Products and quotients of these
# overflow the solves to inf and NaN slots, which must be rejected.
EXTREME_CAPACITIES = np.array([0.0, 1e-299, 1e-200, 1.0, 10.0, 1e10])


@pytest.fixture(scope="module")
def extreme_instances():
    """2000 seeded 3-relay instances with links drawn from EXTREME_CAPACITIES,
    each with allocate's result for every subset."""
    n = 5
    codes = np.random.default_rng(9).integers(0, len(EXTREME_CAPACITIES), size=(2000, 10))
    cases = []
    for row in codes:
        caps = np.zeros((n, n))
        caps[np.triu_indices(n, 1)] = EXTREME_CAPACITIES[row]
        lcm = LinkCapacityMatrix(caps)
        cases.append((lcm, {
            sub: allocate(build_rate_matrix(lcm, RelaySubset(sub)), RelaySubset(sub))
            for sub in subsets_by_size(3)
        }))
    return cases


class TestExactWalk:
    """recursive_select against the per-node walk it was derived from: the
    same outcome, slot bytes, counters and trace on every instance."""

    @pytest.mark.parametrize("family", ["fading", "exponential", "masked", "integer"])
    def test_equals_per_node_oracle(self, rng, family):
        cases = fading_pools() if family == "fading" else scalar_cases(rng, family)
        for k, caps in enumerate(cases):
            where = (family, caps.n_relays, k)
            want = walk_outcome(recursive_select_per_node, caps)
            assert walk_outcome(recursive_select, caps) == want, where
            if k % 4 == 0:
                want_trace, got_trace = [], []
                assert walk_outcome(recursive_select_per_node, caps, want_trace) == want
                assert walk_outcome(recursive_select, caps, got_trace) == want, where
                assert trace_key(got_trace) == trace_key(want_trace), where

    def test_extreme_magnitudes_equal_per_node_oracle(self, extreme_instances):
        for k, (caps, _) in enumerate(extreme_instances[:400]):
            want_trace, got_trace = [], []
            want = walk_outcome(recursive_select_per_node, caps, want_trace)
            assert walk_outcome(recursive_select, caps, got_trace) == want, k
            assert trace_key(got_trace) == trace_key(want_trace), k


def result_key(result):
    """Every field of an AllocationResult, its slot durations as bytes."""
    if result is None:
        return None
    times = None if result.times is None else result.times.t.tobytes()
    return (result.subset.indices, times, result.rate, result.feasible,
            result.reject_reason, result.reject_index)


def trace_key(trace):
    """A trace's subsets, results and inverse blocks, arrays as bytes."""
    def blocks_key(b):
        if b is None:
            return None
        dest_row = None if b.dest_row is None else b.dest_row.tobytes()
        return (b.subset, b.chain_inv.tobytes(), dest_row, b.u_chain.tobytes())

    return [(sub, result_key(res), blocks_key(b)) for sub, res, b in trace]


def walk_outcome(select, caps, trace=None):
    """The winner's fields and the three counters, or the NoFeasibleSolution."""
    try:
        out = select(caps, trace)
    except NoFeasibleSolution as exc:
        return ("no feasible subset", str(exc))
    return (result_key(out.best), out.candidates_evaluated, out.candidates_pruned,
            out.op_count_reported)


def fading_pools():
    """Fading instances on pools of 0..9 relays at 0, 10 and 20 dB: the line
    for N = 0, four random layouts for each N >= 1."""
    layouts = [linear_topology(0)] + [
        random_topology(n_relays, seed) for n_relays in range(1, 10) for seed in range(4)
    ]
    for seed, topo in enumerate(layouts):
        powers = draw_channel_powers_keyed(fading_params(topo), seed, 1)[0]
        for db in (0.0, 10.0, 20.0):
            yield build_capacity_matrix(powers, None, SnrConfig(10.0 ** (db / 10.0)))


class TestExtremeMagnitudes:
    """One verdict for every selector, also where the slots overflow."""

    def test_selectors_agree_and_rates_are_finite(self, extreme_instances):
        subsets = list(subsets_by_size(3))
        n_infeasible = 0
        for k, (caps, _) in enumerate(extreme_instances):
            picks = []
            for select in (recursive_select, brute_force_select):
                try:
                    best = select(caps).best
                except NoFeasibleSolution:
                    picks.append(None)
                    continue
                assert best.feasible and np.isfinite(best.rate), (k, select.__name__)
                picks.append(best.subset.indices)
            try:
                out = batch_optimized(caps.caps[None])
            except NoFeasibleSolution:
                picks.append(None)
            else:
                assert np.isfinite(out["rate"][0]), k
                picks.append(subsets[out["best_id"][0]])
            assert picks[0] == picks[1] == picks[2], (k, picks)
            n_infeasible += picks[0] is None
        # the family exercises both outcomes
        assert 0 < n_infeasible < len(extreme_instances)

    def test_traced_verdicts_match_allocate(self, extreme_instances):
        for k, (caps, verdicts) in enumerate(extreme_instances):
            trace = []
            try:
                recursive_select(caps, trace=trace)
            except NoFeasibleSolution:
                pass
            for sub, result, _blocks in trace:
                if result is not None:  # None: a broken decode chain
                    assert result.feasible == verdicts[sub].feasible, (k, sub)

    def test_batched_reject_total_matches_allocate(self, extreme_instances):
        # the walk and allocate add the slots in one order, so they overflow
        # alike: the reasons split as allocate's do, not only the total
        for k, (caps, verdicts) in enumerate(extreme_instances):
            try:
                out = batch_optimized(caps.caps[None])
            except NoFeasibleSolution:
                continue
            total = sum(int(out[key][0]) for key in
                        ("n_singular", "n_negative_rate", "n_nonpositive_time"))
            assert total == sum(not v.feasible for v in verdicts.values()), k
            reasons = [v.reject_reason for v in verdicts.values()]
            assert batch_reject_counts(out, 0) == {
                reason: reasons.count(reason) for reason in batch_reject_counts(out, 0)
            }, k


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

    def test_tiny_capacities_do_not_underflow(self):
        # t11 * t22 = 1e-500 underflows to 0, though each link is admissible
        caps = caps_from_links(2, {
            (0, 1): 1e-250, (1, 3): 1e-250, (0, 2): 1.0, (1, 2): 1.0, (2, 3): 1.0,
            (0, 3): 0.5,
        })
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            blocks = extend_inverse(root_blocks(caps), caps, 1)
            plain = recursive_select(caps)
            trace = []
            traced = recursive_select(caps, trace=trace)
        assert blocks.dest_row[-1] == 1e250
        assert plain.best.subset.indices == (2,)
        assert traced.best.subset == plain.best.subset
        assert traced.best.rate == plain.best.rate
        np.testing.assert_array_equal(traced.best.times.t, plain.best.times.t)
        assert counters(traced) == counters(plain)
        assert len(trace) == plain.candidates_evaluated


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
        for k in range(200):
            lcm = LinkCapacityMatrix(caps_b[k])
            b = brute_force_select(lcm)
            assert subs[opt["best_id"][k]] == b.best.subset.indices
            assert opt["rate"][k] == b.best.rate
            e = equal_time_select(lcm)
            assert subs[eq["best_id"][k]] == e.best.subset.indices
            assert eq["rate"][k] == pytest.approx(e.best.rate, rel=1e-12)

    def test_batch_reject_counters_match_allocate(self, rng):
        caps_b = exponential_caps_batch(rng, 3, 100)
        opt = batch_optimized(caps_b)
        for k in range(100):
            lcm = LinkCapacityMatrix(caps_b[k])
            assert batch_reject_counts(opt, k) == allocate_reject_counts(lcm)

    def test_exact_cancellation_verdict_matches_allocate(self):
        # subset (1, 2, 3, 4, 6, 7, 8) of this integer instance has an exact
        # slot sum of 0; the sign of its floating-point sum over 8 slots, and
        # so its reject reason, depends on the order of the additions: left
        # to right it is negative, in numpy's pairwise order positive
        upper = [3, 0, 2, 2, 1, 1, 3, 3, 2, 2, 0, 1, 3, 3, 0, 1, 3, 1, 1, 0, 0, 1, 3,
                 3, 1, 2, 1, 0, 2, 1, 0, 1, 0, 1, 2, 1, 3, 0, 1, 2, 3, 3, 3, 3, 3]
        caps = np.zeros((10, 10))
        caps[np.triu_indices(10, 1)] = upper
        caps += caps.T
        lcm = LinkCapacityMatrix(caps)
        assert batch_reject_counts(batch_optimized(caps[None]), 0) == allocate_reject_counts(lcm)

    @pytest.mark.parametrize("n_relays", range(9))
    def test_walk_matches_brute_force_oracle(self, rng, n_relays):
        for name, caps_b in oracle_cases(rng, n_relays, 200).items():
            for walk, oracle in (
                (batch_optimized, batch_brute_force),
                (batch_equal_time, batch_brute_equal_time),
            ):
                assert_walk_equals_oracle(walk, oracle, caps_b, f"{name}, N={n_relays}")
        # the singular accounting: absent, NaN and +inf links
        for name, caps_b in singular_cases(rng, n_relays, 200).items():
            assert_walk_equals_oracle(
                batch_optimized, batch_brute_force, caps_b, f"{name}, N={n_relays}")

    @pytest.mark.parametrize("n_relays", [9, 10])
    def test_walk_matches_brute_force_oracle_on_large_masked_pools(self, rng, n_relays):
        caps_b = oracle_cases(rng, n_relays, 200)["masked"]
        assert_walk_equals_oracle(batch_optimized, batch_brute_force, caps_b,
                                  f"masked, N={n_relays}")

    @pytest.mark.parametrize("n_relays", range(9))
    def test_layout_and_unread_entries_change_nothing(self, rng, n_relays):
        # the selectors read only the links i < j, and a link-major stack
        # (the transposed view of a C-contiguous (n, n, T) array) is read
        # in place: neither layout nor the unread entries may move a bit
        n = n_relays + 2
        lower = np.tril_indices(n)
        for name, caps_b in oracle_cases(rng, n_relays, 60).items():
            link_major = np.ascontiguousarray(caps_b.transpose(1, 2, 0)).transpose(2, 0, 1)
            assert link_major.transpose(1, 2, 0).flags.c_contiguous
            unread = caps_b.copy()
            unread[:, lower[0], lower[1]] = np.nan
            for select in (batch_optimized, batch_equal_time):
                want = select(caps_b)
                for variant, stack in (("link-major", link_major), ("NaN lower", unread)):
                    got = select(stack)
                    assert got.keys() == want.keys()
                    for key in want:
                        assert np.array_equal(got[key], want[key]), (
                            select.__name__, key, variant, name)

    @pytest.mark.parametrize("n_relays", [9, 10])
    def test_counts_past_the_block_buffer_match_brute_force(self, rng, n_relays):
        # node_rates counts into a uint8 buffer, which batch_optimized empties
        # into its int64 totals before 255 rows could overflow it; here a
        # trial has more than 255 nodes of one counted verdict in one call
        caps_b = exponential_caps_batch(rng, n_relays, 40)
        want = batch_brute_force(caps_b)
        feasible = ((1 << n_relays) - want["n_singular"] - want["n_negative_rate"]
                    - want["n_nonpositive_time"])
        assert np.any((want["n_negative_rate"] > 255) | (feasible > 255))
        assert_walk_equals_oracle(batch_optimized, batch_brute_force, caps_b,
                                  f"fading, N={n_relays}")

    def test_infinite_block_maximum_keeps_the_finite_rates(self):
        # the root's children are {1} at +inf and {2} at 1.67 over a direct
        # 1.18: +inf is never taken from a later subset, so the block's
        # finite rate must still be merged, and {1, 2} at 1.37 loses to it
        caps = np.zeros((4, 4))
        for (i, j), value in {(0, 1): np.inf, (0, 2): 3.86, (0, 3): 1.18, (1, 2): 0.25,
                              (1, 3): np.inf, (2, 3): 2.16}.items():
            caps[i, j] = caps[j, i] = value
        got = batch_equal_time(caps[None])
        assert list(subsets_by_size(2))[got["best_id"][0]] == (2,)
        assert got["rate"][0] == pytest.approx(1.67)
        assert_walk_equals_oracle(batch_equal_time, batch_brute_equal_time, caps[None],
                                  "+inf links")

    def test_walk_and_oracle_raise_on_the_same_trial(self, rng):
        caps_b = exponential_caps_batch(rng, 3, 10)
        caps_b[4] = 0.0  # every subset of trial 4 is singular
        for engine in (batch_optimized, batch_brute_force):
            with pytest.raises(NoFeasibleSolution, match="trial 4 "):
                engine(caps_b)
            with pytest.raises(NoFeasibleSolution, match="trial 0 "):
                engine(np.zeros((5, 4, 4)))


def assert_walk_equals_oracle(walk, oracle, caps_b, where):
    """A batched selector returns its brute-force oracle's keys and arrays."""
    got, want = walk(caps_b), oracle(caps_b)
    assert got.keys() == want.keys()
    for key in want:
        np.testing.assert_array_equal(
            got[key], want[key], err_msg=f"{walk.__name__} {key} on {where} caps")


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


def singular_cases(rng, n_relays, n_draws):
    """Named capacity stacks for the singular accounting of batch_optimized.

    Fading draws with 10% of the links i < j NaN or +inf (the direct link
    kept), and, from two relays on, with only the link (0, 2) absent.  That
    makes {2} and every subset that starts with relay 2 singular, but not
    {1, 2}, where the link enters only as a multiplier.  Only the links
    i < j hold NaN: the brute-force oracle zeroes the unread entries of a
    rate matrix by multiplying, which a NaN survives.
    """
    n = n_relays + 2
    fading = exponential_caps_batch(rng, n_relays, n_draws)
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    cases = {}
    for name, value in (("nan_links", np.nan), ("inf_links", np.inf)):
        stack = np.where((rng.random(fading.shape) < 0.1) & upper, value, fading)
        stack[:, 0, n - 1] = fading[:, 0, n - 1]
        cases[name] = stack
    if n_relays >= 2:
        no_link_0_2 = fading.copy()
        no_link_0_2[:, 0, 2] = no_link_0_2[:, 2, 0] = 0.0
        cases["no_link_0_2"] = no_link_0_2
    return cases


def skipped_subsets(caps, trace):
    """The subsets of the pool that a traced walk did not evaluate."""
    visited = {t[0] for t in trace}
    return [sub for sub in subsets_by_size(caps.n_relays) if sub not in visited]


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
            yield LinkCapacityMatrix(caps)


def assert_scalar_equals_batched(caps_b, where):
    """recursive_select on each matrix of the stack equals batch_optimized exactly."""
    n_relays = caps_b.shape[1] - 2
    walk = batch_optimized(caps_b)
    subsets = list(subsets_by_size(n_relays))
    for k, caps in enumerate(caps_b):
        got = recursive_select(LinkCapacityMatrix(caps)).best
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
    return LinkCapacityMatrix(caps)


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
    assert got.rate == want.rate
    walk = batch_optimized(batch)
    assert list(subsets_by_size(caps.n_relays))[walk["best_id"][0]] == want.subset.indices
    assert walk["rate"][0] == want.rate


# Cell codes of an offered block, read against the best before the offer:
# a multiple of the tie tolerance away from it (0.0 is an exact tie), far
# above it, +inf (a feasible rate from a denormal slot sum), far below it,
# or a rejected subset.
NEAR = (-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5)
REACHING = (*NEAR, "above", "+inf")
SHORT = ("below", "-inf", "nan")
# Cell codes of the empty subset's row: a finite rate (the trial's start
# rate) or a non-finite one.
ROOT = ("start", "-inf", "nan", "+inf")


@st.composite
def offer_sequences(draw):
    """Trial count, per-trial start rates, the empty subset's row and blocks
    to offer to a _Best.

    The empty subset's row is all -inf or mixes finite, -inf, NaN and +inf
    rates.  A block has 1 to 5 rows and is one of: no trial may reach the
    floor, one may, fewer than one in ``SPARSE_SHARE`` may (the sparse
    read-out), or every trial may (the dense one).  Some rows are wholly
    rejected (-inf) or NaN, and in some one row is +inf wherever a trial
    may reach, so the block maximum is +inf there.
    """
    n_trials = draw(st.integers(8, 24))
    start = draw(st.lists(st.sampled_from((0.25, 1.0, 3.0, 1e3)),
                          min_size=n_trials, max_size=n_trials))
    if draw(st.booleans()):
        root = np.full(n_trials, -np.inf)
    else:
        codes = draw(st.lists(st.sampled_from(ROOT), min_size=n_trials, max_size=n_trials))
        values = {"-inf": -np.inf, "nan": np.nan, "+inf": np.inf}
        root = np.array([values.get(c, s) for c, s in zip(codes, start)])
    blocks = []
    for _ in range(draw(st.integers(1, 10))):
        k = draw(st.sampled_from((1, 1, 2, 3, 5)))
        reach = draw(st.sampled_from(("none", "one", "sparse", "all")))
        if reach == "sparse":
            cols = draw(st.sets(st.integers(0, n_trials - 1),
                                min_size=1, max_size=(n_trials - 1) // SPARSE_SHARE))
        elif reach == "one":
            cols = {draw(st.integers(0, n_trials - 1))}
        else:
            cols = set(range(n_trials)) if reach == "all" else set()
        codes = [
            [draw(st.sampled_from(REACHING if t in cols else SHORT)) for t in range(n_trials)]
            for _ in range(k)
        ]
        inf_row = draw(st.sampled_from((None, None, *range(k))))
        if inf_row is not None:
            codes[inf_row] = ["+inf" if t in cols else c for t, c in enumerate(codes[inf_row])]
        dead = draw(st.sampled_from((None, -np.inf, np.nan)))
        blocks.append((codes, dead, draw(st.integers(0, 40))))
    return n_trials, np.array(start), root, blocks


def block_rates(codes, dead, best, start):
    """The (k, T) rates a block's codes stand for, given the current best."""
    base = np.where(np.isfinite(best), best, start)
    rate = np.empty((len(codes), len(base)))
    for i, row in enumerate(codes):
        for t, code in enumerate(row):
            b = base[t]
            if code == "above":
                rate[i, t] = 2.0 * b + 1.0
            elif code == "below":
                rate[i, t] = b / 4.0 - 1.0 if np.isfinite(best[t]) else b / 4.0
            elif code == "+inf":
                rate[i, t] = np.inf
            elif code == "-inf":
                rate[i, t] = -np.inf
            elif code == "nan":
                rate[i, t] = np.nan
            else:
                rate[i, t] = b + code * RATE_TIE_TOL * max(b, 1.0)
    if dead is not None:
        rate[len(codes) // 2] = dead
    return rate


@settings(max_examples=200, deadline=None, derandomize=True)
@given(offer_sequences())
def test_floor_merge_equals_full_width_merge(case):
    n_trials, start, root, blocks = case
    # +inf rates make inf - inf in the tolerances, as in batch_optimized,
    # which merges under the same errstate
    with np.errstate(invalid="ignore"):
        best = _Best(root)
        # the full-width merge starts from no candidate and takes the empty
        # subset's row as its first block
        want_rate = np.full(n_trials, -np.inf)
        want_id = np.full(n_trials, -1, dtype=np.int64)
        full_width_offer(want_rate, want_id, root[None], 0)

        def check():
            assert np.array_equal(best.rate, want_rate)
            assert np.array_equal(best.id, want_id)
            # the tie test reads the floor, so it must be exactly this bound;
            # a best of +inf, taken as a tie, has the floor inf - inf = NaN
            floor = best.rate - _tie_tol(best.rate)
            assert np.array_equal(best.floor, floor, equal_nan=True)

        check()
        for codes, dead, sid0 in blocks:
            rate = block_rates(codes, dead, want_rate, start)
            full_width_offer(want_rate, want_id, rate, sid0)
            best.offer(rate, sid0)
            check()


# One-trial offers for the scalar rule: every code but the rejected ones,
# which the scalar searches never offer.
SCALAR_CODES = (*REACHING, "below")


def assert_beats_matches_full_width(start, offers):
    """Apply ``_beats`` to (code, subset index) offers in sequence from the
    start (-inf, ()) and compare each step with ``full_width_offer`` on a
    one-trial, one-row block, which starts from (-inf, -1)."""
    subsets = list(subsets_by_size(5))
    best_rate, best_sub = -np.inf, ()
    want_rate = np.full(1, -np.inf)
    want_id = np.full(1, -1, dtype=np.int64)
    for code, sid in offers:
        rate = block_rates([[code]], None, want_rate, np.array([start]))
        full_width_offer(want_rate, want_id, rate, sid)
        r = float(rate[0, 0])
        if _beats(r, subsets[sid], best_rate, best_sub):
            best_rate, best_sub = r, subsets[sid]
        assert best_rate == want_rate[0], (offers, code, sid)
        assert (subsets.index(best_sub) if best_rate > -np.inf else -1) == want_id[0]


def test_beats_is_the_merge_rule():
    # every three codes from the -inf start, each subset earlier, later or
    # the same as the one before
    with np.errstate(invalid="ignore"):
        for start in (0.25, 1e3):
            for codes in itertools.product(SCALAR_CODES, repeat=3):
                for sids in ((9, 4, 0), (0, 4, 9), (4, 4, 4), (4, 9, 0)):
                    assert_beats_matches_full_width(start, list(zip(codes, sids)))


# Rates around which the floor test is exercised: the infinities, zero, the
# smallest denormal and normal, ordinary rates and the largest float.
FLOOR_RATES = (-np.inf, np.inf, 0.0, 5e-324, 1e-310, float(np.finfo(float).tiny), 1e-9, 0.5,
               1.0, 3.0, 1e3, 1e300, float(np.finfo(float).max))


@st.composite
def beats_offers(draw):
    """(rate, subset, best rate, best subset): a best from FLOOR_RATES or any
    float (-inf with the empty subset, as a search starts), and a rate a
    multiple of the tie tolerance from it, one ulp either side of its floor,
    or unrelated to it."""
    anything = st.floats(allow_nan=False)
    subsets = list(subsets_by_size(4))
    if draw(st.booleans()):
        best, best_sub = -np.inf, ()
    else:
        best = draw(st.one_of(st.sampled_from(FLOOR_RATES), anything))
        best_sub = draw(st.sampled_from(subsets))
    floor = best - RATE_TIE_TOL * max(best, 1.0)
    how = draw(st.sampled_from(("tolerance", "floor", "free")))
    if how == "tolerance":
        k = draw(st.sampled_from((-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5)))
        rate = best + k * RATE_TIE_TOL * max(best, 1.0)
    elif how == "floor":
        rate = float(np.nextafter(floor, draw(st.sampled_from((-np.inf, np.inf)))))
    else:
        rate = draw(st.one_of(st.sampled_from(FLOOR_RATES), anything))
    return rate, draw(st.sampled_from(subsets)), best, best_sub


@settings(max_examples=400, deadline=None, derandomize=True)
@given(beats_offers())
def test_beats_implies_the_floor(offer):
    # recursive_select offers a rate to _beats only when it reaches this
    # floor, so every rate that _beats takes must reach it
    rate, sub, best, best_sub = offer
    if _beats(rate, sub, best, best_sub):
        assert rate >= best - RATE_TIE_TOL * max(best, 1.0)
