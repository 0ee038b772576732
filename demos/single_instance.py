# Walk through one small network by hand: what each relay subset achieves,
# why some subsets get rejected, and which one the selectors pick.

import numpy as np

from relayalloc import (
    RelaySubset,
    SnrConfig,
    allocate,
    brute_force_select,
    build_capacity_matrix,
    build_rate_matrix,
    equal_time_select,
    mutual_informations,
    recursive_select,
)

# ---------------------------------------------------------------------------
# A 2-relay network.  Node order: source 0, relays 1..2, destination 3.
# Channel powers are |a_ij|^2; the source-destination link is deliberately
# weak so relaying pays off.
# ---------------------------------------------------------------------------
powers = np.array(
    [
        [0.0, 3.0, 1.0, 0.3],
        [3.0, 0.0, 2.5, 1.2],
        [1.0, 2.5, 0.0, 2.0],
        [0.3, 1.2, 2.0, 0.0],
    ]
)
caps = build_capacity_matrix(powers, None, SnrConfig(snr_scalar=4.0))
print("link capacities (bits/symbol):")
print(np.round(caps.caps, 3))

# ---------------------------------------------------------------------------
# Every subset gets its own lower-triangular rate matrix.  Solving
# rate_matrix @ t = R * 1 equalizes the mutual information at every receiver,
# which is the max-min optimal split of the unit time budget for that subset.
# ---------------------------------------------------------------------------
print("\nper-subset equalizing allocations:")
for sub in [(), (1,), (2,), (1, 2)]:
    subset = RelaySubset(sub)
    rm = build_rate_matrix(caps, subset)
    result = allocate(rm, subset)
    if result.feasible:
        info = mutual_informations(rm, result.times.t)
        print(
            f"  {str(sub):8} rate {result.rate:.4f}  t = {np.round(result.times.t, 4)}"
            f"  (all receivers decode {np.round(info, 4)})"
        )
    else:
        print(f"  {str(sub):8} rejected: {result.reject_reason.value}")

# ---------------------------------------------------------------------------
# The recursive selector reaches the same winner as brute force while reusing
# each parent subset's inverse and pruning hopeless subtrees.
# ---------------------------------------------------------------------------
brute = brute_force_select(caps)
fast = recursive_select(caps)
uniform = equal_time_select(caps)
print(f"\nbrute force : subset {brute.best.subset.indices}, rate {brute.best.rate:.4f}")
print(
    f"recursive   : subset {fast.best.subset.indices}, rate {fast.best.rate:.4f}, "
    f"{fast.candidates_evaluated} evaluated, {fast.candidates_pruned} pruned, "
    f"{fast.candidates_bounded} bounded, {fast.op_count_reported} reported ops"
)
print(f"equal time  : subset {uniform.best.subset.indices}, rate {uniform.best.rate:.4f}")
