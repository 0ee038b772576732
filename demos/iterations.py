# The recursive search skips every subtree below a subset that passes a
# nonpositive slot duration on to its descendants, or whose slot sum is
# negative, which is how the paper's algorithm "reduces the number of
# required iterations".  This prints the
# share of the 2^N subsets the walk evaluates, read from the counters of
# recursive_select's outcome, for growing pools on a line and on random
# layouts.

import numpy as np

from relayalloc import SnrConfig, build_capacity_matrix, recursive_select
from relayalloc.scenario import (
    draw_channel_powers_keyed,
    fading_params,
    linear_topology,
    random_topology,
)

POOLS = (4, 8, 12)
SNR_DB = (0, 10, 20)
DRAWS = 40


def channel_powers(layout, n_relays):
    """DRAWS fading draws: of one line, or of a fresh random layout each."""
    if layout == "linear":
        return draw_channel_powers_keyed(fading_params(linear_topology(n_relays)), 1, DRAWS)
    return [
        draw_channel_powers_keyed(fading_params(random_topology(n_relays, seed)), seed, 1)[0]
        for seed in range(DRAWS)
    ]


print(f"share of the 2^N subsets the recursive search evaluates, mean of {DRAWS} draws")
print(f"{'layout':>8} {'N':>3} {'2^N':>6} " + " ".join(f"{db:>6} dB" for db in SNR_DB))
for layout in ("linear", "random"):
    for n_relays in POOLS:
        powers = channel_powers(layout, n_relays)
        shares = []
        for db in SNR_DB:
            snr = SnrConfig(10.0 ** (db / 10.0))
            evaluated = [
                recursive_select(build_capacity_matrix(p, None, snr)).candidates_evaluated
                for p in powers
            ]
            shares.append(np.mean(evaluated) / 2**n_relays)
        print(f"{layout:>8} {n_relays:>3} {2**n_relays:>6} "
              + " ".join(f"{100 * s:8.1f}%" for s in shares))

print(
    "\nevery subset not evaluated lies below one that passes a nonpositive\n"
    "slot (or a missing decode-chain link) to all its descendants, or whose\n"
    "negative slot sum means its inherited slots alone give the destination\n"
    "more than a unit, so it cannot be feasible; the winner is the\n"
    "exhaustive search's"
)
