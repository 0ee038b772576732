import numpy as np
import pytest

from relayalloc import montecarlo
from relayalloc.montecarlo import (
    InsufficientSamples,
    curves_to_csv,
    curves_to_json,
    outage_rate,
    run_trials,
    sweep,
)
from relayalloc.scenario import (
    NumberingScheme,
    Topology,
    draw_channel_powers_keyed,
    fading_params,
    linear_topology,
)
from relayalloc.selector import NoFeasibleSolution

DESC = NumberingScheme.AVERAGE_DESCENDING


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

    def test_smallest_samples_of_a_larger_set(self):
        # the 10 smallest of 1000 samples resolve the 1% outage rate
        assert outage_rate(np.arange(10, 0, -1, dtype=float), 1e-2, n_samples=1000) == 10.0
        with pytest.raises(ValueError):
            outage_rate(np.arange(1, 10, dtype=float), 1e-2, n_samples=1000)


class TestRunTrials:
    def test_deterministic(self):
        topo = linear_topology(2)
        a = run_trials(topo, DESC, 10.0, 50, base_seed=3, mode="both")
        b = run_trials(topo, DESC, 10.0, 50, base_seed=3, mode="both")
        assert a == b

    def test_mode_both_dominance(self):
        records = run_trials(linear_topology(3), DESC, 10.0, 300, base_seed=1, mode="both")
        for r in records:
            assert r.rate_optimized >= r.rate_equal_time - 1e-12
            assert r.rate_equal_time >= 0.0
            assert 0 <= r.active_relays_optimized <= 3

    def test_single_mode_leaves_other_empty(self):
        records = run_trials(linear_topology(1), DESC, 5.0, 10, base_seed=0, mode="optimized")
        assert all(r.rate_equal_time is None for r in records)
        assert all(r.rate_optimized is not None for r in records)
        records = run_trials(linear_topology(1), DESC, 5.0, 10, base_seed=0, mode="equal_time")
        assert all(r.rate_optimized is None for r in records)

    def test_reject_counters_present(self):
        records = run_trials(linear_topology(4), DESC, 10.0, 200, base_seed=2, mode="optimized")
        keys = {"singular", "negative_rate", "nonpositive_time"}
        assert all(set(r.reject_counters) == keys for r in records)
        assert sum(r.reject_counters["negative_rate"] for r in records) > 0

    def test_direct_link_empirical_cdf_matches_closed_form(self):
        # N=0: R = log2(1 + snr X) with X ~ Exp(1); KS distance below 0.02
        snr = 10.0 ** (10.0 / 10.0)
        records = run_trials(linear_topology(0), DESC, snr, 10_000, base_seed=5, mode="optimized")
        samples = np.sort([r.rate_optimized for r in records])
        cdf = 1.0 - np.exp(-(2.0**samples - 1.0) / snr)
        n = samples.size
        ks = max(
            np.max(cdf - np.arange(n) / n),
            np.max((np.arange(1, n + 1)) / n - cdf),
        )
        assert ks < 0.02

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            run_trials(linear_topology(1), DESC, 1.0, 5, 0, mode="bogus")


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
        snr = 10.0
        small = run_trials(
            Topology(pos_small, layout="linear"), DESC, snr, 400, base_seed=8, mode="optimized"
        )
        big = run_trials(
            Topology(pos_big, layout="linear"), DESC, snr, 400, base_seed=8, mode="optimized"
        )
        for s, b in zip(small, big):
            assert b.rate_optimized >= s.rate_optimized - 1e-12

    def test_parallel_fold_is_bit_identical(self):
        topo = linear_topology(2)
        serial = sweep(topo, DESC, [0, 10], 600, 0.01, base_seed=1, parallel=1)
        parallel = sweep(topo, DESC, [0, 10], 600, 0.01, base_seed=1, parallel=3)
        for mode in serial:
            assert serial[mode] == parallel[mode]

    def test_insufficient_trials_rejected(self):
        with pytest.raises(InsufficientSamples):
            sweep(linear_topology(1), DESC, [0], 100, 1e-3, base_seed=0)

    @pytest.mark.parametrize("epsilon", [1.5, 0.0, -0.1, float("nan")])
    def test_epsilon_outside_unit_interval_rejected(self, epsilon):
        with pytest.raises(ValueError, match="epsilon"):
            sweep(linear_topology(1), DESC, [0], 100, epsilon, base_seed=0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_snr_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            sweep(linear_topology(1), DESC, [0, bad], 100, 0.1, base_seed=0)

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
        monkeypatch.setattr(montecarlo, "BLOCK_BYTES", 7 * 2 * 4 * 8)
        with pytest.raises(NoFeasibleSolution, match=rf"trial {dead[0]} at -140 dB"):
            sweep(linear_topology(0), DESC, [0, db], 500, 0.1, base_seed=6, parallel=2)

    def test_common_randomness_across_schemes(self):
        # different numbering schemes see identical per-trial fading: with a
        # single relay every scheme gives identical rates
        a = run_trials(linear_topology(1), NumberingScheme.RANDOM, 5.0, 50, 7, mode="optimized")
        b = run_trials(linear_topology(1), DESC, 5.0, 50, 7, mode="optimized")
        assert [r.rate_optimized for r in a] == [r.rate_optimized for r in b]


class TestBlocks:
    """Blocks, worker ranges and the worker-side fold must not change a bit."""

    TOPO = linear_topology(3)
    SCHEME = NumberingScheme.RANDOM  # per-trial orders from a seeked stream
    GRID = [0, 10, 20]

    def _set_block_trials(self, monkeypatch, trials):
        n_nodes = self.TOPO.positions.shape[0]
        monkeypatch.setattr(
            montecarlo, "BLOCK_BYTES", trials * len(self.GRID) * n_nodes**2 * 8
        )

    def _json(self, n_trials, epsilon, parallel):
        curves = sweep(self.TOPO, self.SCHEME, self.GRID, n_trials, epsilon,
                       base_seed=13, parallel=parallel)
        return curves_to_json(curves, {})

    def test_sweep_output_independent_of_blocks_and_workers(self, monkeypatch):
        reference = self._json(301, 0.05, 1)  # one block under the default budget
        # 1-trial blocks, uneven 7-trial blocks, one block per worker range
        for trials in (1, 7, 301):
            self._set_block_trials(monkeypatch, trials)
            for parallel in (1, 3):
                assert self._json(301, 0.05, parallel) == reference, (trials, parallel)

    def test_worker_range_shorter_than_rank(self, monkeypatch):
        # k = 50, but each of 8 workers holds only 12 or 13 trials
        serial = self._json(100, 0.5, 1)
        assert self._json(100, 0.5, 8) == serial
        self._set_block_trials(monkeypatch, 3)
        assert self._json(100, 0.5, 8) == serial

    def test_fold_matches_per_trial_records(self, monkeypatch):
        self._set_block_trials(monkeypatch, 7)
        curves = sweep(self.TOPO, self.SCHEME, self.GRID, 200, 0.1, base_seed=13)
        for s, db in enumerate(self.GRID):
            records = run_trials(self.TOPO, self.SCHEME, 10.0 ** (db / 10.0), 200, 13)
            rates = [r.rate_optimized for r in records]
            assert curves["optimized"].outage_rate[s] == outage_rate(rates, 0.1)
            assert curves["equal_time"].avg_active[s] == np.mean(
                [r.active_relays_equal_time for r in records])
            assert curves["optimized"].reject_totals["negative_rate"][s] == sum(
                r.reject_counters["negative_rate"] for r in records)

    def test_run_trials_independent_of_blocks(self, monkeypatch):
        whole = run_trials(self.TOPO, self.SCHEME, 10.0, 50, base_seed=4)
        monkeypatch.setattr(montecarlo, "BLOCK_BYTES", 1)  # 1-trial blocks
        assert run_trials(self.TOPO, self.SCHEME, 10.0, 50, base_seed=4) == whole


class TestEmitters:
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
