# The paper's partitioned-inverse update: appending a relay extends the
# parent's inverse with two block rows in O(p^2), with no inversion from
# scratch.  The subset search carries that extension applied to the
# all-ones vector, h[k] = f_k @ chain_inv @ 1 per later node k, so it builds
# no blocks.  This walks one extension chain with extend_inverse, checks it
# against fresh inversions, and prints the operation-count model.

import numpy as np

from relayalloc import (
    RelaySubset,
    SnrConfig,
    build_capacity_matrix,
    build_rate_matrix,
    extend_inverse,
    extend_solution,
    op_count,
    root_blocks,
    worst_case_ops,
)

rng = np.random.default_rng(1)
n_relays = 5
n = n_relays + 2
powers = np.zeros((n, n))
iu, ju = np.triu_indices(n, 1)
vals = rng.exponential(size=iu.size)
powers[iu, ju] = vals
powers[ju, iu] = vals
caps = build_capacity_matrix(powers, None, SnrConfig(6.0))

print("extending the empty subset one relay at a time (non-contiguous on purpose):")
blocks = root_blocks(caps)
for relay in (1, 3, 4):
    blocks = extend_inverse(blocks, caps, relay)
    subset = RelaySubset(blocks.subset)
    fresh = np.linalg.inv(build_rate_matrix(caps, subset).entries)
    err = np.abs(blocks.full_inverse - fresh).max()
    result = extend_solution(blocks)
    verdict = "feasible" if result.feasible else result.reject_reason.value
    print(
        f"  subset {blocks.subset}: rate {result.rate:.4f} ({verdict}), "
        f"max inverse deviation vs fresh {err:.2e}"
    )

print("\nper-step operation model (3q^2 + 6q + 8) and worst-case totals:")
print(f"{'q':>3} {'ops':>6}    {'pool':>4} {'worst case':>12}")
for q in range(1, 7):
    print(f"{q:>3} {op_count(q):>6}    {q:>4} {worst_case_ops(q):>12}")
