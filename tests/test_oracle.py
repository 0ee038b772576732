"""Ground truths that share no code with the selectors: one relay.

With a = C01, b = C02 and c = C12, the relay's equalized rate is
a c / (a + c - b) when a > b, and it beats direct transmission iff
(a - b)(c - b) > 0, so the optimized rate is that where a > b and c > b,
and b elsewhere.  Under equal slots the relay gives min(a, b + c) / 2, so
the equal-time rate is max(b, min(a, b + c) / 2).  Each capacity is
log2(1 + snr g) with g ~ Exp(lambda), so a > b iff g01 > g02 at any SNR,
and the relay is active in a trial with probability
lambda02 / (lambda01 + lambda02 + lambda12).
"""

import math

import numpy as np
import pytest

from relayalloc.montecarlo import sweep
from relayalloc.scenario import (
    NumberingScheme,
    Topology,
    draw_channel_powers_keyed,
    fading_params,
    linear_topology,
)
from relayalloc.selector import batch_equal_time, batch_optimized

SNR_DB = (0.0, 10.0, 20.0)
LAYOUTS = {
    "line": (linear_topology(1), NumberingScheme.AVERAGE_DESCENDING),
    "custom": (Topology([[0.0, 0.0], [0.4, 0.3], [1.0, 0.0]]),
               NumberingScheme.INSTANTANEOUS_SOURCE_RELAY),
}


def one_relay_caps(topology, n_trials, base_seed):
    """(T, 3, 3) capacity stack of keyed draws at each of SNR_DB, stacked."""
    powers = draw_channel_powers_keyed(fading_params(topology), base_seed, n_trials)
    caps = np.concatenate([np.log2(1.0 + 10.0 ** (db / 10.0) * powers) for db in SNR_DB])
    caps[:, range(3), range(3)] = 0.0
    return caps


def active_share(topology):
    """lambda02 / (lambda01 + lambda02 + lambda12): the chance that g01 and
    g12 both exceed g02, for independent exponential powers."""
    lam = fading_params(topology).lam
    return lam[0, 2] / (lam[0, 1] + lam[0, 2] + lam[1, 2])


def binomial_interval(n, p, level):
    """The ranks [lo, hi] with P(X < lo) and P(X > hi) each at most
    (1 - level) / 2 for X ~ Binomial(n, p), from pmfs built with lgamma."""
    ks = np.arange(n + 1)
    log_pmf = np.array([
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
        + k * math.log(p) + (n - k) * math.log1p(-p) for k in range(n + 1)
    ])
    cdf = np.cumsum(np.exp(log_pmf))
    tail = (1.0 - level) / 2.0
    lo = int(ks[np.searchsorted(cdf, tail, side="right")])
    hi = int(ks[np.searchsorted(cdf, 1.0 - tail, side="left")])
    return lo, hi


@pytest.mark.parametrize("layout", LAYOUTS)
def test_batched_engines_equal_the_closed_forms(layout):
    topology, _ = LAYOUTS[layout]
    caps = one_relay_caps(topology, 5000, base_seed=1)
    a, b, c = caps[:, 0, 1], caps[:, 0, 2], caps[:, 1, 2]
    relay = (a > b) & (c > b)
    # both branches of each rule occur on these draws
    assert 0 < relay.sum() < len(relay)
    opt = batch_optimized(caps)
    want = np.where(relay, a * c / (a + c - b), b)
    np.testing.assert_allclose(opt["rate"], want, rtol=1e-12, atol=0)
    np.testing.assert_array_equal(opt["n_active"], relay)

    eq = batch_equal_time(caps)
    shared = np.minimum(a, b + c) / 2.0
    assert 0 < (shared > b).sum() < len(b)
    np.testing.assert_allclose(eq["rate"], np.maximum(b, shared), rtol=1e-12, atol=0)
    np.testing.assert_array_equal(eq["n_active"], shared > b)


@pytest.mark.parametrize("layout", LAYOUTS)
def test_optimized_active_share_lies_in_its_binomial_interval(layout):
    # the 99.9% interval is stated before the run; a point outside it is a
    # finding, not a bound to widen
    topology, scheme = LAYOUTS[layout]
    n_trials = 10_000
    p = active_share(topology)
    lo, hi = binomial_interval(n_trials, p, 0.999)
    assert lo < n_trials * p < hi
    curve = sweep(topology, scheme, list(SNR_DB), n_trials, 1e-2, base_seed=1,
                  modes=("optimized",))["optimized"]
    for db, share in zip(SNR_DB, curve.avg_active):
        assert lo <= round(share * n_trials) <= hi, (layout, db, share, (lo, hi))


def test_active_shares_of_the_two_layouts():
    # the line has lambda = d^2.5 with d01 = d12 = 1/2; the custom relay sits
    # at distances 1/2 and sqrt(0.45) from the source and the destination
    assert active_share(LAYOUTS["line"][0]) == pytest.approx(1 / (1 + 2 * 0.5**2.5))
    assert active_share(LAYOUTS["custom"][0]) == pytest.approx(
        1 / (1 + 0.5**2.5 + 0.45**1.25))
    assert binomial_interval(20, 0.5, 0.9) == (6, 14)
