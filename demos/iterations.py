# The recursive search skips every subtree below a subset that passes a
# nonpositive slot duration on to its descendants, or whose slot sum is
# negative, which is how the paper's algorithm "reduces the number of
# required iterations".  It also skips a subtree whose chain slots, plus
# the least slot time in which the relays still to come could deliver what
# the destination lacks, sum to more than the best rate so far allows.  A
# node rates all its children before it descends into any of them, and
# tests each one's bounds again just before it descends, so the best so
# far already includes every sibling.  This prints the shares of the 2^N
# subsets the walk evaluates, prunes as infeasible and skips by those
# bounds, read from the counters of recursive_select's outcome, for growing
# pools on a line and on random layouts.

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


print(f"% of the 2^N subsets the recursive search evaluates / prunes as infeasible /"
      f" skips by a bound, mean of {DRAWS} draws")
print(f"{'layout':>8} {'N':>3} {'2^N':>6} " + " ".join(f"{db:>15} dB" for db in SNR_DB))
for layout in ("linear", "random"):
    for n_relays in POOLS:
        powers = channel_powers(layout, n_relays)
        cells = []
        for db in SNR_DB:
            snr = SnrConfig(10.0 ** (db / 10.0))
            counts = []
            for p in powers:
                out = recursive_select(build_capacity_matrix(p, None, snr))
                counts.append((out.candidates_evaluated, out.candidates_pruned,
                               out.candidates_bounded))
            shares = 100 * np.mean(counts, axis=0) / 2**n_relays
            cells.append("/".join(f"{s:.1f}" for s in shares))
        print(f"{layout:>8} {n_relays:>3} {2**n_relays:>6} "
              + " ".join(f"{c:>18}" for c in cells))

print(
    "\na pruned subset lies below one that passes a nonpositive slot (or a\n"
    "missing decode-chain link) to all its descendants, or whose negative\n"
    "slot sum means its inherited slots alone give the destination more than\n"
    "a unit, so it cannot be feasible.  A bounded subset lies below one whose\n"
    "chain slots sum to s_chain with 1 / s_chain under the best rate so far;\n"
    "every descendant adds positive slots to that sum, so none can win or\n"
    "tie.  The subsets below a node are also bounded when its destination\n"
    "lacks 1 - hd of its unit, which the relays a descendant adds deliver\n"
    "at most D per unit of slot (D: their strongest destination link), and\n"
    "1 / (s_chain + (1 - hd) / D) is under that rate.  The winner is the\n"
    "exhaustive search's"
)
