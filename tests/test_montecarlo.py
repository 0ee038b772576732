import dataclasses
import tracemalloc

import numpy as np
import pytest

from relayalloc import montecarlo
from relayalloc.montecarlo import (
    InsufficientSamples,
    curves_to_csv,
    curves_to_json,
    outage_rate,
    sweep,
)
from relayalloc.rate_model import LinkCapacityMatrix, snr_from_db
from relayalloc.scenario import (
    NumberingScheme,
    Topology,
    draw_channel_powers_keyed,
    fading_params,
    grid_topology,
    linear_topology,
    permute_relays,
    renumber,
    trial_permutations,
)
from relayalloc.selector import NoFeasibleSolution, batch_equal_time, batch_optimized

from conftest import batch_brute_equal_time, batch_brute_force, trial_outcomes

DESC = NumberingScheme.AVERAGE_DESCENDING


def set_block_trials(monkeypatch, trials):
    """Make every sweep and block evaluation use blocks of ``trials`` trials."""
    monkeypatch.setattr(montecarlo, "_block_trials", lambda n_snr, n_nodes: trials)


class TestOutageRate:
    def test_order_statistic_rule(self):
        samples = np.arange(1, 1001, dtype=float)
        assert outage_rate(samples, 1e-2) == 10.0

    def test_paper_scale_convention(self):
        rng = np.random.default_rng(0)
        samples = rng.permutation(np.arange(1, 60001, dtype=float))
        assert outage_rate(samples, 1e-3) == 60.0

    def test_constant_samples(self):
        assert outage_rate(np.full(100, 2.5), 0.05) == 2.5

    def test_insufficient_samples(self):
        with pytest.raises(InsufficientSamples):
            outage_rate(np.ones(50), 1e-3)

    def test_fractional_rank_rounds_up(self):
        samples = np.arange(1, 11, dtype=float)
        assert outage_rate(samples, 0.25) == 3.0  # ceil(2.5) = 3

    @pytest.mark.parametrize("epsilon, n, rank", [
        (0.07, 100, 7), (0.07, 10**4, 700), (0.14, 100, 14), (0.14, 10**4, 1400),
    ])
    def test_rank_reads_epsilon_as_its_decimal(self, epsilon, n, rank):
        # the float product lands one ulp above the integer, so its ceiling
        # would be one rank too high
        assert epsilon * n > rank
        rng = np.random.default_rng(n)
        assert outage_rate(rng.permutation(np.arange(1.0, n + 1)), epsilon) == rank
        # the rank smallest samples resolve it, one fewer do not
        assert outage_rate(np.arange(rank, 0.0, -1.0), epsilon, n_samples=n) == rank
        with pytest.raises(ValueError):
            outage_rate(np.arange(1.0, rank), epsilon, n_samples=n)

    @pytest.mark.parametrize("epsilon", [0.07, 0.14])
    def test_sweep_rank_reads_epsilon_as_its_decimal(self, epsilon):
        rank = round(epsilon * 100)
        curve = sweep(linear_topology(2), DESC, [10], 100, epsilon, base_seed=3,
                      modes=("optimized",))["optimized"]
        rates = np.sort(trial_outcomes(linear_topology(2), DESC, 10.0, 100, 3,
                                       modes=("optimized",))["optimized"]["rate"])
        assert curve.outage_rate[0] == rates[rank - 1]

    def test_too_few_samples_reads_epsilon_as_its_decimal(self):
        # 0.3333333333333333 * 3 is 1.0 in floats, but 0.9999999999999999
        # as decimals: three samples cannot resolve that epsilon
        assert 0.3333333333333333 * 3 == 1.0
        with pytest.raises(InsufficientSamples):
            outage_rate(np.ones(3), 0.3333333333333333)
        assert outage_rate(np.arange(4.0), 0.3333333333333333) == 1.0

    def test_smallest_samples_of_a_larger_set(self):
        # the 10 smallest of 1000 samples resolve the 1% outage rate
        assert outage_rate(np.arange(10, 0, -1, dtype=float), 1e-2, n_samples=1000) == 10.0
        with pytest.raises(ValueError):
            outage_rate(np.arange(1, 10, dtype=float), 1e-2, n_samples=1000)


class TestRunTrials:
    """Per-trial outcomes of the block evaluator that the sweep folds, and
    the sweep's mode check."""

    def test_deterministic(self):
        topo = linear_topology(2)
        a = trial_outcomes(topo, DESC, 10.0, 50, base_seed=3)
        b = trial_outcomes(topo, DESC, 10.0, 50, base_seed=3)
        for mode in montecarlo.MODES:
            assert a[mode].keys() == b[mode].keys()
            for key in a[mode]:
                assert np.array_equal(a[mode][key], b[mode][key]), (mode, key)

    def test_mode_both_dominance(self):
        out = trial_outcomes(linear_topology(3), DESC, 10.0, 300, base_seed=1)
        opt, eq = out["optimized"], out["equal_time"]
        assert np.all(opt["rate"] >= eq["rate"] - 1e-12)
        assert np.all(eq["rate"] >= 0.0)
        assert np.all((opt["n_active"] >= 0) & (opt["n_active"] <= 3))

    def test_single_mode_leaves_other_empty(self):
        out = trial_outcomes(linear_topology(1), DESC, 7.0, 10, 0, modes=("optimized",))
        assert set(out) == {"optimized"}
        assert out["optimized"]["rate"].shape == (10,)
        out = trial_outcomes(linear_topology(1), DESC, 7.0, 10, 0, modes=("equal_time",))
        assert set(out) == {"equal_time"}

    def test_reject_counters_present(self):
        out = trial_outcomes(linear_topology(4), DESC, 10.0, 200, 2, modes=("optimized",))
        keys = {"n_singular", "n_negative_rate", "n_nonpositive_time"}
        assert keys <= set(out["optimized"])
        assert all(out["optimized"][k].shape == (200,) for k in keys)
        assert out["optimized"]["n_negative_rate"].sum() > 0

    def test_direct_link_empirical_cdf_matches_closed_form(self):
        # N=0: R = log2(1 + snr X) with X ~ Exp(1); KS distance below 0.02
        snr = 10.0 ** (10.0 / 10.0)
        out = trial_outcomes(linear_topology(0), DESC, 10.0, 10_000, 5, modes=("optimized",))
        samples = np.sort(out["optimized"]["rate"])
        cdf = 1.0 - np.exp(-(2.0**samples - 1.0) / snr)
        n = samples.size
        ks = max(
            np.max(cdf - np.arange(n) / n),
            np.max((np.arange(1, n + 1)) / n - cdf),
        )
        assert ks < 0.02

    def test_invalid_mode(self):
        with pytest.raises(ValueError, match="unknown mode 'bogus'"):
            sweep(linear_topology(1), DESC, [0], 100, 0.1, 0, modes=("optimized", "bogus"))

    def test_repeated_mode_is_evaluated_once(self, monkeypatch):
        # 300 trials at 2 SNR points are one 600-column block
        calls = []

        def counted(caps):
            calls.append(len(caps))
            return batch_optimized(caps)

        monkeypatch.setattr(montecarlo, "batch_optimized", counted)
        twice = sweep(linear_topology(2), DESC, [0, 10], 300, 0.05, 7,
                      modes=("optimized", "optimized"))
        assert calls == [600]
        once = sweep(linear_topology(2), DESC, [0, 10], 300, 0.05, 7, modes=("optimized",))
        assert twice == once


class TestSweep:
    def test_optimized_dominates_equal_time_pointwise(self):
        curves = sweep(linear_topology(3), DESC, [0, 10, 20], 1500, 0.01, base_seed=9)
        for o, e in zip(curves["optimized"].outage_rate, curves["equal_time"].outage_rate):
            assert o >= e

    def test_outage_rate_monotone_in_snr(self):
        curves = sweep(linear_topology(2), DESC, [0, 5, 10, 15, 20], 1000, 0.01, base_seed=4)
        for mode in ("optimized", "equal_time"):
            rates = curves[mode].outage_rate
            assert all(b >= a for a, b in zip(rates, rates[1:]))

    def test_nested_pool_monotonicity_per_trial(self):
        # same seeds and a pool extended by one appended relay: with identity
        # numbering the small pool's subsets stay available, so dominance
        # holds per trial, not just in expectation
        pos_small = np.array([[0, 0], [0.4, 0], [1, 0]], dtype=float)
        pos_big = np.array([[0, 0], [0.4, 0], [0.7, 0], [1, 0]], dtype=float)
        small, big = (
            trial_outcomes(Topology(pos, layout="linear"), DESC, 10.0, 400, 8,
                           modes=("optimized",))["optimized"]["rate"]
            for pos in (pos_small, pos_big)
        )
        assert np.all(big >= small - 1e-12)

    def test_parallel_fold_is_bit_identical(self):
        topo = linear_topology(2)
        serial = sweep(topo, DESC, [0, 10], 600, 0.01, base_seed=1, parallel=1)
        parallel = sweep(topo, DESC, [0, 10], 600, 0.01, base_seed=1, parallel=3)
        for mode in serial:
            assert serial[mode] == parallel[mode]

    @pytest.mark.parametrize("n_trials", [10**30, 2**62, 10**400])
    def test_trial_count_beyond_int64_totals_rejected(self, n_trials):
        # a trial adds up to 2^N rejects to an int64 total; only refusals are
        # tested, since an accepted count this large would run.  10**400 has
        # no float, so the check must come before epsilon * n_trials
        with pytest.raises(ValueError, match=rf"n_trials must be below 2\^63 / 2\^N = {2**62},"):
            sweep(linear_topology(1), DESC, [0], n_trials, 0.01, base_seed=0)

    @pytest.mark.parametrize("parallel", [1, 2])
    def test_invalid_topology_raises_from_any_worker(self, parallel):
        # fading parameters are derived in the worker, in or out of process
        topo = Topology(np.array([[0, 0], [0.5, 0], [0.5, 0], [1, 0]], dtype=float))
        with pytest.raises(ValueError, match="nodes 1 and 2 are coincident"):
            sweep(topo, NumberingScheme.RANDOM, [0], 100, 0.1, base_seed=0, parallel=parallel)

    def test_insufficient_trials_rejected(self):
        with pytest.raises(InsufficientSamples):
            sweep(linear_topology(1), DESC, [0], 100, 1e-3, base_seed=0)

    @pytest.mark.parametrize("epsilon", [1.5, 0.0, -0.1, float("nan")])
    def test_epsilon_outside_unit_interval_rejected(self, epsilon):
        with pytest.raises(ValueError, match="epsilon"):
            sweep(linear_topology(1), DESC, [0], 100, epsilon, base_seed=0)

    @pytest.mark.parametrize("parallel", [0, -3])
    def test_parallel_below_one_rejected(self, parallel):
        with pytest.raises(ValueError, match=f"parallel must be at least 1, got {parallel}"):
            sweep(linear_topology(1), DESC, [0], 100, 0.1, base_seed=0, parallel=parallel)

    # 4000 dB is finite, but its linear SNR overflows a float
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), 4000.0])
    def test_non_finite_snr_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            sweep(linear_topology(1), DESC, [0, bad], 100, 0.1, base_seed=0)

    def test_pool_sized_to_nonempty_ranges(self, monkeypatch):
        # 8 workers asked for, but 3 trials make only 3 nonempty ranges; the
        # stand-in pool maps in this process and records its size
        requested = []

        class InlinePool:
            def __init__(self, max_workers):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return list(map(fn, *iterables))

        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", InlinePool)
        topo = linear_topology(2)
        pooled = sweep(topo, DESC, [0, 10], 3, 0.5, base_seed=1, parallel=8)
        assert pooled == sweep(topo, DESC, [0, 10], 3, 0.5, base_seed=1, parallel=1)
        assert requested == [3]

    def test_infeasible_trial_named_with_its_snr(self):
        # -4000 dB is finite, but its linear SNR underflows to 0.0, so every
        # subset of every trial is singular
        with pytest.raises(NoFeasibleSolution, match=r"trial 0 at -4000 dB"):
            sweep(linear_topology(2), DESC, [0, -4000], 100, 0.1, base_seed=0)

    def test_infeasible_trial_index_is_absolute(self, monkeypatch):
        # direct link only: a trial is infeasible where snr * power underflows
        # log2(1 + x) to 0; with 7-trial blocks the first such trial lies in
        # a later block, and the error must name its index in the sweep
        db = -140.0
        snr = 10.0 ** (db / 10.0)
        powers = draw_channel_powers_keyed(fading_params(linear_topology(0)), 6, 500)
        dead = np.nonzero(np.log2(1.0 + snr * powers[:, 0, 1]) == 0.0)[0]
        assert dead.size and dead[0] >= 7
        set_block_trials(monkeypatch, 7)
        with pytest.raises(NoFeasibleSolution, match=rf"trial {dead[0]} at -140 dB"):
            sweep(linear_topology(0), DESC, [0, db], 500, 0.1, base_seed=6, parallel=2)

    def test_common_randomness_across_schemes(self):
        # different numbering schemes see identical per-trial fading: with a
        # single relay every scheme gives identical rates
        a = trial_outcomes(linear_topology(1), NumberingScheme.RANDOM, 7.0, 50, 7)
        b = trial_outcomes(linear_topology(1), DESC, 7.0, 50, 7)
        assert np.array_equal(a["optimized"]["rate"], b["optimized"]["rate"])


class TestBlocks:
    """Blocks, worker ranges and the worker-side fold must not change a bit."""

    TOPO = linear_topology(3)
    SCHEME = NumberingScheme.RANDOM  # per-trial orders from a seeked stream
    GRID = [0, 10, 20]

    def _json(self, n_trials, epsilon, parallel):
        curves = sweep(self.TOPO, self.SCHEME, self.GRID, n_trials, epsilon,
                       base_seed=13, parallel=parallel)
        return curves_to_json(curves, {})

    def test_sweep_output_independent_of_blocks_and_workers(self, monkeypatch):
        reference = self._json(301, 0.05, 1)  # one block under the default budget
        # 1-trial blocks, uneven 7-trial blocks, one block per worker range
        for trials in (1, 7, 301):
            set_block_trials(monkeypatch, trials)
            for parallel in (1, 3):
                assert self._json(301, 0.05, parallel) == reference, (trials, parallel)

    def test_worker_range_shorter_than_rank(self, monkeypatch):
        # k = 50, but each of 8 workers holds only 12 or 13 trials
        serial = self._json(100, 0.5, 1)
        assert self._json(100, 0.5, 8) == serial
        set_block_trials(monkeypatch, 3)
        assert self._json(100, 0.5, 8) == serial

    def test_fold_matches_per_trial_records(self, monkeypatch):
        # per-trial outcomes under whole-range blocks against 7-trial blocks
        records = [
            trial_outcomes(self.TOPO, self.SCHEME, db, 200, 13)
            for db in self.GRID
        ]
        set_block_trials(monkeypatch, 7)
        curves = sweep(self.TOPO, self.SCHEME, self.GRID, 200, 0.1, base_seed=13)
        for s, out in enumerate(records):
            opt, eq = out["optimized"], out["equal_time"]
            assert curves["optimized"].outage_rate[s] == outage_rate(opt["rate"], 0.1)
            assert curves["equal_time"].avg_active[s] == np.mean(eq["n_active"])
            assert (curves["optimized"].reject_totals["negative_rate"][s]
                    == opt["n_negative_rate"].sum())

    @pytest.mark.parametrize("start, count, parts", [
        (0, 10**30, 7), (2**63, 2**64 + 3, 5), (5, 17, 4), (0, 3, 3),
    ])
    def test_ranges_are_exact_beyond_int64(self, start, count, parts):
        ranges = list(montecarlo._ranges(start, count, parts))
        assert len(ranges) == parts
        assert ranges[0][0] == start and ranges[-1][1] == start + count
        assert all(b == a for (_, b), (a, _) in zip(ranges, ranges[1:]))
        sizes = [b - a for a, b in ranges]
        assert min(sizes) >= count // parts and max(sizes) - min(sizes) <= 1

    def test_trial_outcomes_independent_of_blocks(self, monkeypatch):
        whole = trial_outcomes(self.TOPO, self.SCHEME, 10.0, 50, base_seed=4)
        set_block_trials(monkeypatch, 1)
        single = trial_outcomes(self.TOPO, self.SCHEME, 10.0, 50, base_seed=4)
        for mode in whole:
            for key in whole[mode]:
                assert np.array_equal(single[mode][key], whole[mode][key]), (mode, key)


class TestLinkMajorStacks:
    """The capacity stacks a block hands the selectors."""

    TOPO = grid_topology(2)
    SNR_DB = (0.0, 10.0)

    @pytest.mark.parametrize("scheme", list(NumberingScheme))
    def test_blocks_match_a_per_trial_reference(self, scheme, monkeypatch):
        # the reference orders each trial on its own, relabels its C-ordered
        # power matrix and takes log2 of every entry, then runs the
        # brute-force oracles; the blocks must agree bit for bit
        seed, start, count = 21, 5, 17
        params = fading_params(self.TOPO)
        snr = tuple(10.0 ** (db / 10.0) for db in self.SNR_DB)
        set_block_trials(monkeypatch, 4)
        blocks = list(montecarlo._evaluate_blocks(
            self.TOPO, scheme, self.SNR_DB, seed, montecarlo.MODES, start, count,
        ))
        powers = np.ascontiguousarray(draw_channel_powers_keyed(params, seed, count, start))
        orders = per_trial_orders(self.TOPO, scheme, powers, seed, start)
        ordered = np.stack([permute_relays(p, o) for p, o in zip(powers, orders)])
        reference = np.concatenate([np.log2(1.0 + s * ordered) for s in snr])
        assert reference.flags.c_contiguous
        for mode, oracle in (
            ("optimized", batch_brute_force), ("equal_time", batch_brute_equal_time)
        ):
            want = oracle(reference)
            for key in blocks[0][mode]:
                got = np.concatenate([b[mode][key] for b in blocks], axis=1)
                assert np.array_equal(got.reshape(-1), want[key]), (mode, key)

    def test_selectors_receive_link_major_stacks(self, monkeypatch):
        # a stack whose (n, n, trials) transpose is C-contiguous keeps each
        # link's trials adjacent; a strided stack would still give the same
        # numbers, so only this guard would notice a return to it
        calls = []

        def guarded(select):
            def wrapper(caps):
                assert caps.transpose(1, 2, 0).flags.c_contiguous
                calls.append(len(caps))
                return select(caps)
            return wrapper

        monkeypatch.setattr(montecarlo, "batch_optimized", guarded(batch_optimized))
        monkeypatch.setattr(montecarlo, "batch_equal_time", guarded(batch_equal_time))
        set_block_trials(monkeypatch, 7)
        for scheme in (DESC, NumberingScheme.INSTANTANEOUS_RELAY_RELAY):
            sweep(linear_topology(3), scheme, [0, 10], 30, 0.1, base_seed=3)
        # per sweep: 5 blocks of 6 trials at 2 SNR points, 2 selectors each
        assert calls == [12] * 20


class TestBlockBudget:
    """What one block allocates, at the size ``_block_trials`` gives."""

    @pytest.mark.parametrize("n_snr", [1, 5])
    @pytest.mark.parametrize("n_relays", range(12))
    def test_block_peak_within_budget(self, n_relays, n_snr):
        # per-trial relay orders: the draws' largest index arrays
        topo = linear_topology(n_relays)
        snr_db = tuple(np.linspace(0.0, 20.0, n_snr).tolist())
        trials = montecarlo._block_trials(n_snr, n_relays + 2)
        # the evaluator sizes its blocks by the same rule: one block
        blocks = montecarlo._evaluate_blocks(
            topo, NumberingScheme.INSTANTANEOUS_RELAY_RELAY, snr_db, 5, montecarlo.MODES,
            0, trials,
        )
        tracemalloc.start()
        try:
            next(blocks)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= montecarlo.BLOCK_BYTES, (trials, peak)

    def test_grid3_sweep_is_one_block(self, monkeypatch):
        # 500 trials at 5 SNR points on the 3x3 grid: one call per selector
        calls = []

        def counted(select):
            def wrapper(caps):
                calls.append((select.__name__, len(caps)))
                return select(caps)
            return wrapper

        monkeypatch.setattr(montecarlo, "batch_optimized", counted(batch_optimized))
        monkeypatch.setattr(montecarlo, "batch_equal_time", counted(batch_equal_time))
        sweep(grid_topology(3), DESC, [0, 5, 10, 15, 20], 500, 0.01, base_seed=1)
        assert calls == [("batch_optimized", 2500), ("batch_equal_time", 2500)]


def per_trial_orders(topology, scheme, powers, seed, start):
    """Each trial's transmission order, found one trial at a time."""
    n_relays = topology.n_relays
    if scheme is NumberingScheme.RANDOM:
        return [tuple(o) for o in trial_permutations(seed, n_relays, len(powers), start)]
    if scheme in (NumberingScheme.AVERAGE_DESCENDING, NumberingScheme.AVERAGE_LINEAR):
        return [renumber(topology, scheme)] * len(powers)
    return [renumber(LinkCapacityMatrix(p), scheme) for p in powers]


class TestEmitters:
    def test_linear_snr_grid_is_derived_from_db(self):
        curves = sweep(linear_topology(1), DESC, [-3, 0, 7.5], 100, 0.05, base_seed=2)
        for c in curves.values():
            assert "snr_grid" not in {f.name for f in dataclasses.fields(c)}
            assert c.snr_grid == tuple(snr_from_db(v) for v in (-3.0, 0.0, 7.5))

    def test_csv_shape_and_echo(self):
        curves = sweep(linear_topology(1), DESC, [0, 10], 200, 0.05, base_seed=2)
        text = curves_to_csv(curves, {"base_seed": 2})
        lines = text.strip().split("\n")
        assert lines[0].startswith("# config:")
        assert lines[1] == (
            "snr_db,outage_rate_optimized,outage_rate_equal_time,"
            "avg_active_optimized,avg_active_equal_time"
        )
        assert len(lines) == 4

    def test_single_mode_csv_has_nan_columns(self):
        curves = sweep(linear_topology(1), DESC, [0], 200, 0.05, base_seed=2,
                       modes=("optimized",))
        row = curves_to_csv(curves, {}).strip().split("\n")[-1].split(",")
        assert row[2] == "nan" and row[4] == "nan"

    def test_json_round_trip(self):
        import json

        curves = sweep(linear_topology(1), DESC, [0], 200, 0.05, base_seed=2)
        doc = json.loads(curves_to_json(curves, {"base_seed": 2}))
        assert doc["config"] == {"base_seed": 2}
        assert set(doc["curves"]) == {"optimized", "equal_time"}
        assert doc["curves"]["optimized"]["reject_totals"] is not None
