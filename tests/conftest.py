import math

import numpy as np
import pytest

from relayalloc import montecarlo
from relayalloc.allocator import (
    SINGULARITY_TOL,
    TIME_TOL,
    AllocationResult,
    RejectReason,
    TimeAllocation,
    judge,
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
    _tie_tol,
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
    return LinkCapacityMatrix(caps)


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
    for (i, j), value in links.items():
        caps[i, j] = caps[j, i] = value
    return LinkCapacityMatrix(caps)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def trial_outcomes(topology, scheme, snr_db, n_trials, base_seed, modes=montecarlo.MODES):
    """Per-trial selector arrays of trials [0, n_trials) at one SNR, given in dB.

    Read from the block evaluator that ``sweep`` folds: {mode: {key: (T,)
    array}} with keys ``rate``, ``n_active`` and, for the optimized mode,
    the three reject counters ``n_singular``, ``n_negative_rate`` and
    ``n_nonpositive_time``.
    """
    blocks = list(montecarlo._evaluate_blocks(
        topology, scheme, (snr_db,), base_seed, tuple(modes), 0, n_trials,
    ))
    return {
        m: {key: np.concatenate([b[m][key][0] for b in blocks]) for key in blocks[0][m]}
        for m in modes
    }


# -- numpy verdict reference ------------------------------------------------------
#
# ``allocator.judge`` and ``allocator.slot_times`` as they were written on
# numpy arrays, before the verdict moved to Python floats.  The walk-versus-
# oracle tests cannot see a change in judge, since the oracles call it too;
# the Python-float versions must agree with these exactly.


def reference_judge(subset, u, s=None):
    """The numpy form of ``allocator.judge``."""
    if u is None:
        return AllocationResult(
            subset=subset, times=None, rate=None, feasible=False,
            reject_reason=RejectReason.SINGULAR,
        )
    u = np.asarray(u, dtype=float)
    rate = None if s == 0.0 or math.isnan(s) else 1.0 / s
    times = reference_slot_times(u, s)
    if s <= 0.0:
        return AllocationResult(
            subset=subset, times=times, rate=rate, feasible=False,
            reject_reason=RejectReason.NEGATIVE_RATE,
        )
    with np.errstate(over="ignore", invalid="ignore"):
        bad = np.flatnonzero(~(u / s > TIME_TOL))
    if bad.size:
        return AllocationResult(
            subset=subset, times=times, rate=rate, feasible=False,
            reject_reason=RejectReason.NONPOSITIVE_TIME, reject_index=int(bad[0]),
        )
    return AllocationResult(subset=subset, times=times, rate=rate, feasible=True)


def reference_slot_times(u, s):
    """The numpy form of ``allocator.slot_times``."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        t = u / s
        t = t / t.sum()
    return TimeAllocation(t) if np.all(np.isfinite(t)) else None


# -- relay-relay ordering oracle --------------------------------------------------


def greedy_relay_relay_orders(links):
    """(T, N) relay-relay orders of a (T, n, n) stack, one greedy step at a time.

    The plain greedy loop, the reference for ``scenario.instantaneous_orders``
    (which takes the first step straight from the source's links and places
    the last relay by elimination): every step gathers the current node's
    links, masks the relays already taken with -inf and takes the argmax, so
    ties go to the smaller label.
    """
    n_trials, n, _ = links.shape
    n_relays = n - 2
    order = np.empty((n_trials, n_relays), dtype=np.intp)
    taken = np.zeros((n_trials, n_relays), dtype=bool)
    cur = np.zeros(n_trials, dtype=np.intp)  # source
    rows = np.arange(n_trials)
    for step in range(n_relays):
        scores = links[rows, cur, 1 : n_relays + 1].copy()
        scores[taken] = -np.inf
        nxt = np.argmax(scores, axis=1)
        order[:, step] = nxt + 1
        taken[rows, nxt] = True
        cur = nxt + 1
    return order


# -- batched brute-force oracles ----------------------------------------------
#
# Fresh rate matrix and forward substitution for every subset, with the
# trial axis vectorized.  The library's batched selectors walk the subset
# tree instead; these are the reference they are compared against.  The
# solve and the slot sum add in allocator's left-to-right order, and the
# equal-time oracle adds each receiver's links in transmitter order, so the
# oracles' rates equal the walks' bit for bit.


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
                acc = 0.0
                for j in range(i):
                    acc = acc + rm[:, i, j] * u[:, j]
                u[:, i] = (1.0 - acc) / diag[:, i]
            s = np.cumsum(u, axis=1)[:, -1]
            negative = ~singular & (s <= 0.0)
            t = u / s[:, None]
            # judge's test: no comparison with NaN holds, so a NaN slot fails it
            bad_time = ~singular & ~negative & ~(t.min(axis=1) > TIME_TOL)
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
        rate = np.cumsum(rm, axis=2)[:, :, -1].min(axis=1) / (m + 1)
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


# -- full-width best-subset merge oracle ----------------------------------------


def full_width_offer(best_rate, best_id, rate, sid0):
    """The best-subset merge of ``selector._Best.offer`` over every trial.

    ``best_rate`` and ``best_id`` are updated in place with the (k, T) block
    ``rate`` of subsets ``sid0 .. sid0 + k - 1``: the block's candidate is
    its first rate tied with the block maximum, and it replaces the best
    when higher by more than the tie tolerance, or when tied and earlier in
    ``subsets_by_size`` order.  A trial whose block maximum is +inf takes
    the rows one at a time instead, each as a one-row block.  The library
    reads only the trials whose block maximum reaches its rate floor; this
    reads them all.
    """
    if len(rate) == 1:
        _full_width_take(best_rate, best_id, rate[0], sid0, True)
        return
    top = np.fmax.reduce(rate, axis=0)
    inf = top == np.inf
    j = np.argmax(rate >= top - _tie_tol(top), axis=0)
    r = rate[j, np.arange(rate.shape[1])]
    _full_width_take(best_rate, best_id, r, sid0 + j, ~inf)
    for j, row in enumerate(rate):
        _full_width_take(best_rate, best_id, row, sid0 + j, inf)


def _full_width_take(best_rate, best_id, r, sid, where):
    """The take rule on candidates ``r``, ``sid``, written where ``where``."""
    tol = _tie_tol(np.maximum(r, best_rate))
    take = where & ((r > best_rate + tol) | ((r >= best_rate - tol) & (sid < best_id)))
    np.copyto(best_rate, r, where=take)
    np.copyto(best_id, sid, where=take)


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
    s = np.cumsum(u)[-1]
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
    child reuses the parent's cached inverse blocks.  The subtree below a
    subset is skipped when one of the slots its descendants inherit,
    ``u_chain``, is nonpositive, or when its rate is negative: then the
    inherited slots alone give the destination more than a unit.  Either
    way no descendant's slots can all be positive.  A broken decode-chain
    link likewise kills the subtree.

    ``trace``, if given, collects (subset, result, blocks) triples for every
    node visited.
    """
    n = caps.n_relays
    a = caps.caps
    dest = caps.destination
    evaluated = 0
    pruned = 0
    ops = 0
    best_rate, best_sub, best = -math.inf, (), None

    def consider(result: AllocationResult) -> None:
        nonlocal best_rate, best_sub, best
        sub = result.subset.indices
        if result.feasible and _beats(result.rate, sub, best_rate, best_sub):
            best_rate, best_sub, best = result.rate, sub, result

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
            if not np.all(child.u_chain > 0.0) or (
                result.rate is not None and result.rate < 0.0
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


# -- per-node recursive search oracle ---------------------------------------------


def recursive_select_per_node(
    caps: LinkCapacityMatrix, trace: list | None = None
) -> OptimizationOutcome:
    """The float walk of ``selector.recursive_select`` in its plain form.

    Every visited node builds its subset and slot tuples, takes its smallest
    slot with the builtin ``min``, offers every feasible rate to ``_beats``
    and counts itself and its operations one at a time.  Its subtree is
    skipped when the smallest of the slots its descendants inherit, the
    parent's fixed slots and the chain slot ``u``, is not positive, or when
    its slot sum ``s`` is negative, with or without a destination link.  The
    library walk does each of these only where it can change the outcome;
    its outcomes, counters and traces must equal these exactly.
    """
    n = caps.n_relays
    dest = n + 1
    a = caps.caps.tolist()
    ops_at = [op_count(q) for q in range(1, n + 2)]
    evaluated = 1
    pruned = 0
    ops = 0
    best_rate, best_sub, best_slots, best_s = -math.inf, (), None, None

    def visit(chain, h, s_fixed, min_fixed, slots, blocks):
        nonlocal evaluated, pruned, ops, best_rate, best_sub, best_slots, best_s
        last = chain[-1] if chain else 0
        row = a[last]
        op = ops_at[len(chain)]
        for i, c in enumerate(range(last + 1, dest)):
            evaluated += 1
            sub = (*chain, c)
            t11 = row[c]
            if t11 <= SINGULARITY_TOL:
                pruned += (1 << (n - c)) - 1
                if trace is not None:
                    trace.append((sub, None, None))
                continue
            ops += op
            u = (1.0 - h[i]) / t11
            child_slots = (*slots, u)
            s_chain = s_fixed + u
            t22 = a[c][dest]
            node_slots = s = None
            if t22 > SINGULARITY_TOL:
                u_dest = (1.0 - (h[-1] + row[dest] * u)) / t22
                node_slots = (*child_slots, u_dest)
                s = s_chain + u_dest
                if s > 0.0 and min(min_fixed, u, u_dest) / s > TIME_TOL:
                    rate = 1.0 / s
                    if _beats(rate, sub, best_rate, best_sub):
                        best_rate, best_sub, best_slots, best_s = rate, sub, node_slots, s
            skip = not min(min_fixed, u) > 0.0 or (s is not None and s < 0.0)
            if trace is not None:
                child_blocks = _extend_blocks(blocks, caps.caps, dest, c)
                trace.append((sub, judge(RelaySubset(sub), node_slots, s), child_blocks))
            else:
                child_blocks = None
            if skip:
                pruned += (1 << (n - c)) - 1
            elif c < n:
                h_child = [hk + ak * u for hk, ak in zip(h[i + 1:], row[c + 1:])]
                visit(sub, h_child, s_chain, min(min_fixed, u), child_slots, child_blocks)

    direct = a[0][dest]
    root = root_blocks(caps) if trace is not None else None
    if direct > SINGULARITY_TOL:
        u = 1.0 / direct
        best_rate, best_sub, best_slots, best_s = 1.0 / u, (), (u,), u
    if trace is not None:
        trace.append(((), judge(RelaySubset(()), best_slots, best_s), root))
    visit((), [0.0] * (n + 1), 0.0, math.inf, (), root)

    if best_slots is None:
        raise NoFeasibleSolution("no relay subset nor direct transmission is feasible")
    return OptimizationOutcome(
        best=judge(RelaySubset(best_sub), best_slots, best_s),
        candidates_evaluated=evaluated, candidates_pruned=pruned, op_count_reported=ops,
    )
