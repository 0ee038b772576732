import numpy as np
import pytest

from relayalloc.allocator import (
    SINGULARITY_TOL,
    TIME_TOL,
    AllocationResult,
    RejectReason,
    TimeAllocation,
    slot_times,
)
from relayalloc.rate_model import LinkCapacityMatrix, RelaySubset
from relayalloc.selector import (
    RATE_TIE_TOL,
    InverseBlocks,
    NoFeasibleSolution,
    OptimizationOutcome,
    _beats,
    _extend_blocks,
    op_count,
    root_blocks,
    subsets_by_size,
)


def symmetric_exponential_caps(rng, n_relays, scale=1.0):
    """One LinkCapacityMatrix with i.i.d. exponential capacities per pair."""
    n = n_relays + 2
    iu, ju = np.triu_indices(n, 1)
    caps = np.zeros((n, n))
    v = rng.exponential(scale=scale, size=iu.size)
    caps[iu, ju] = v
    caps[ju, iu] = v
    mask = ~np.eye(n, dtype=bool)
    return LinkCapacityMatrix(n_relays=n_relays, caps=caps * mask, link_mask=mask)


def exponential_caps_batch(rng, n_relays, n_draws, scale=1.0):
    """(T, n, n) stack of symmetric i.i.d. exponential capacity matrices."""
    n = n_relays + 2
    iu, ju = np.triu_indices(n, 1)
    caps = np.zeros((n_draws, n, n))
    v = rng.exponential(scale=scale, size=(n_draws, iu.size))
    caps[:, iu, ju] = v
    caps[:, ju, iu] = v
    return caps


def caps_from_links(n_relays, links):
    """LinkCapacityMatrix from {(i, j): capacity}; unlisted links are absent."""
    n = n_relays + 2
    caps = np.zeros((n, n))
    mask = np.zeros((n, n), dtype=bool)
    for (i, j), value in links.items():
        caps[i, j] = caps[j, i] = value
        mask[i, j] = mask[j, i] = True
    return LinkCapacityMatrix(n_relays=n_relays, caps=caps, link_mask=mask)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


# -- batched brute-force oracles ----------------------------------------------
#
# Fresh rate matrix and forward substitution for every subset, with the
# trial axis vectorized.  The library's batched selectors walk the subset
# tree instead; these are the reference they are compared against.


def batch_brute_force(caps_batch):
    """Exhaustive optimal-subset search; same return keys as batch_optimized."""
    caps_batch = np.asarray(caps_batch, dtype=float)
    n_trials, n, _ = caps_batch.shape
    n_relays = n - 2
    dest = n - 1

    best_rate = np.full(n_trials, -np.inf)
    best_size = np.zeros(n_trials, dtype=np.int64)
    best_id = np.full(n_trials, -1, dtype=np.int64)
    n_sing = np.zeros(n_trials, dtype=np.int64)
    n_neg = np.zeros(n_trials, dtype=np.int64)
    n_bad_t = np.zeros(n_trials, dtype=np.int64)

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for sid, sub in enumerate(subsets_by_size(n_relays)):
            m = len(sub)
            tx = np.array((0, *sub))
            rx = np.array((*sub, dest))
            rm = caps_batch[:, tx[:, None], rx[None, :]].transpose(0, 2, 1)
            diag = np.einsum("tii->ti", rm)
            singular = (diag <= SINGULARITY_TOL).any(axis=1)
            u = np.empty((n_trials, m + 1))
            for i in range(m + 1):
                acc = np.einsum("tj,tj->t", rm[:, i, :i], u[:, :i]) if i else 0.0
                u[:, i] = (1.0 - acc) / diag[:, i]
            s = u.sum(axis=1)
            negative = ~singular & (s <= 0.0)
            t = u / s[:, None]
            bad_time = ~singular & ~negative & (t.min(axis=1) <= TIME_TOL)
            feasible = ~singular & ~negative & ~bad_time
            n_sing += singular
            n_neg += negative
            n_bad_t += bad_time

            rate = np.where(feasible, 1.0 / s, -np.inf)
            tol = RATE_TIE_TOL * np.maximum(
                1.0,
                np.maximum(
                    np.where(np.isfinite(best_rate), np.abs(best_rate), 0.0),
                    np.where(np.isfinite(rate), np.abs(rate), 0.0),
                ),
            )
            take = rate > best_rate + tol
            best_rate = np.where(take, rate, best_rate)
            best_size = np.where(take, m, best_size)
            best_id = np.where(take, sid, best_id)

    if np.any(best_id < 0):
        bad = int(np.nonzero(best_id < 0)[0][0])
        raise NoFeasibleSolution(f"trial {bad} has no feasible subset")
    return {
        "rate": best_rate,
        "n_active": best_size,
        "best_id": best_id,
        "n_singular": n_sing,
        "n_negative_rate": n_neg,
        "n_nonpositive_time": n_bad_t,
    }


def batch_brute_equal_time(caps_batch):
    """Exhaustive equal-time baseline; same return keys as batch_equal_time."""
    caps_batch = np.asarray(caps_batch, dtype=float)
    n_trials, n, _ = caps_batch.shape
    n_relays = n - 2
    dest = n - 1

    best_rate = np.full(n_trials, -np.inf)
    best_size = np.zeros(n_trials, dtype=np.int64)
    best_id = np.full(n_trials, -1, dtype=np.int64)
    for sid, sub in enumerate(subsets_by_size(n_relays)):
        m = len(sub)
        tx = np.array((0, *sub))
        rx = np.array((*sub, dest))
        rm = caps_batch[:, tx[:, None], rx[None, :]].transpose(0, 2, 1)
        rm = rm * np.tri(m + 1)
        rate = rm.sum(axis=2).min(axis=1) / (m + 1)
        tol = RATE_TIE_TOL * np.maximum(
            1.0,
            np.maximum(
                np.where(np.isfinite(best_rate), np.abs(best_rate), 0.0), np.abs(rate)
            ),
        )
        take = rate > best_rate + tol
        best_rate = np.where(take, rate, best_rate)
        best_size = np.where(take, m, best_size)
        best_id = np.where(take, sid, best_id)
    return {"rate": best_rate, "n_active": best_size, "best_id": best_id}


# -- blocks-based recursive search oracle ---------------------------------------
#
# The recursive search as it was written before it ran on Python floats:
# every node carries its InverseBlocks and gets a full AllocationResult.
# The one change is that a negative-rate node's times come from
# allocator.slot_times, since TimeAllocation refuses the non-finite entries
# the old renormalization produced on exact cancellations.


def allocation_from_blocks(blocks: InverseBlocks) -> AllocationResult:
    """Feasibility verdict for one tree node, mirroring allocator.allocate."""
    subset = RelaySubset(blocks.subset)
    if blocks.dest_row is None:
        return AllocationResult(
            subset=subset, times=None, rate=None, feasible=False,
            reject_reason=RejectReason.SINGULAR,
        )
    u = np.append(blocks.u_chain, blocks.dest_row.sum())
    s = u.sum()
    if s <= 0.0:
        return AllocationResult(
            subset=subset, times=slot_times(u, s), rate=1.0 / s if s != 0.0 else None,
            feasible=False, reject_reason=RejectReason.NEGATIVE_RATE,
        )
    rate = 1.0 / s
    t = u / s
    t = t / t.sum()
    bad = np.nonzero(t <= TIME_TOL)[0]
    if bad.size:
        return AllocationResult(
            subset=subset, times=TimeAllocation(t), rate=rate, feasible=False,
            reject_reason=RejectReason.NONPOSITIVE_TIME, reject_index=int(bad[0]),
        )
    return AllocationResult(
        subset=subset, times=TimeAllocation(t), rate=rate, feasible=True
    )


def recursive_select_blocks(
    caps: LinkCapacityMatrix, trace: list | None = None
) -> OptimizationOutcome:
    """The recursive search on cached inverse blocks, one solve per node.

    Children of a subset append one relay beyond its largest index; each
    child reuses the parent's cached inverse blocks.  When any of the first
    p-1 slot durations of a p-relay subset is nonpositive, every descendant
    inherits that slot, so the subtree is skipped.  A broken decode-chain
    link likewise kills the subtree; a missing last-relay-to-destination
    link only rejects the node itself.

    ``trace``, if given, collects (subset, result, blocks) triples for every
    node visited.
    """
    n = caps.n_relays
    a = caps.caps
    dest = caps.destination
    evaluated = 0
    pruned = 0
    ops = 0
    best: AllocationResult | None = None

    def consider(result: AllocationResult) -> None:
        nonlocal best
        if result.feasible and _beats(
            result.rate,
            result.subset.indices,
            best.rate if best else 0.0,
            best.subset.indices if best else None,
        ):
            best = result

    def visit(blocks: InverseBlocks) -> None:
        nonlocal evaluated, pruned, ops
        start = blocks.subset[-1] + 1 if blocks.subset else 1
        for j in range(start, n + 1):
            evaluated += 1
            child = _extend_blocks(blocks, a, dest, j)
            if child is None:
                # chain link into relay j is absent: every descendant is singular
                pruned += (1 << (n - j)) - 1
                if trace is not None:
                    trace.append(((*blocks.subset, j), None, None))
                continue
            ops += op_count(len(child.subset))
            result = allocation_from_blocks(child)
            if trace is not None:
                trace.append((child.subset, result, child))
            consider(result)
            p = len(child.subset)
            if (
                result.times is not None
                and p >= 2
                and np.any(result.times.t[: p - 1] <= 0.0)
            ):
                pruned += (1 << (n - j)) - 1
                continue
            visit(child)

    root = root_blocks(caps)
    evaluated += 1
    root_result = allocation_from_blocks(root)
    if trace is not None:
        trace.append(((), root_result, root))
    consider(root_result)
    visit(root)

    if best is None:
        raise NoFeasibleSolution("no relay subset nor direct transmission is feasible")
    return OptimizationOutcome(
        best=best, candidates_evaluated=evaluated, candidates_pruned=pruned,
        op_count_reported=ops,
    )
