import math

import numpy as np
import pytest

from relayalloc import montecarlo
from relayalloc.allocator import (
    SINGULARITY_TOL,
    TIME_TOL,
    AllocationResult,
    RejectReason,
    SingularMatrix,
    TimeAllocation,
    judge,
)
from relayalloc.rate_model import LinkCapacityMatrix, RelaySubset, mutual_informations
from relayalloc.selector import (
    _DEST_SLACK,
    InverseBlocks,
    NoFeasibleSolution,
    OptimizationOutcome,
    _beats,
    extend_inverse,
    op_count,
    recursive_select,
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


def cancelling_caps(n_relays):
    """An instance whose subset {1,2,3,4} has slots that cancel.

    The slots are (2^990, 2^990, -2^990, -2^990, 2^-33), so the ratios u / s
    to their sum 2^-33 are (2^1023, 2^1023, -2^1023, -2^1023, 1), and any
    float sum of those overflows.  With ``n_relays`` = 5, relay 5 is a unit
    two-hop path and {5} at rate 0.5 is the optimum; with 4, the last relay's
    destination link is 2^33 and no subset is feasible.
    """
    links = {(0, 1): 2.0**-990, (0, 3): 2.0**-989, (0, 4): 2.0**-989,
             (1, 2): 2.0**-990, (2, 3): 2.0**-990, (3, 4): 2.0**-990,
             (4, n_relays + 1): 2.0**33}
    if n_relays == 5:
        links.update({(0, 5): 1.0, (5, 6): 1.0})
    return caps_from_links(n_relays, links)


def near_tie_chain_caps():
    """N = 2 with every link symmetric.  Let p be the direct rate and
    t = 1e-9 p: {2} rates p + 0.8t and {1, 2} rates p + 1.5t, while {1} is
    far below.  A rule that tied rates within 1e-9 of each other would give
    {1, 2} when the subsets come in size order and {2} when {1, 2} comes
    first; compared exactly, {1, 2} wins at NEAR_TIE_CHAIN_RATE."""
    return caps_from_links(2, {
        (0, 1): 3.5885020676915973, (0, 2): 1.9909767328250298, (0, 3): 1.9909767276909591,
        (1, 2): 5.716536492704572, (1, 3): 0.31531482911739056, (2, 3): 2.886467363491369,
    })


NEAR_TIE_CHAIN_RATE = 1.9909767306774244


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


def verify_equalization(rm, result):
    """Max absolute deviation of any mutual information from the rate."""
    if not result.feasible:
        raise ValueError("equalization is only defined for feasible results")
    info = mutual_informations(rm, result.times.t)
    return float(np.max(np.abs(info - result.rate)))


# -- counted partitioned-inverse extension ----------------------------------------


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


# -- numpy verdict reference ------------------------------------------------------
#
# ``allocator.judge`` as it was written on numpy arrays, before the verdict
# moved to Python floats.  The walk-versus-oracle tests cannot see a change in
# judge, since the oracles call it too; the Python-float version must agree
# with this one exactly.


def reference_judge(subset, u, s=None):
    """The numpy form of ``allocator.judge``: times only when feasible."""
    if u is None:
        return AllocationResult(
            subset=subset, times=None, rate=None, feasible=False,
            reject_reason=RejectReason.SINGULAR,
        )
    u = np.asarray(u, dtype=float)
    rate = finite_rate(s)
    if s <= 0.0:
        return AllocationResult(
            subset=subset, times=None, rate=rate, feasible=False,
            reject_reason=RejectReason.NEGATIVE_RATE,
        )
    with np.errstate(over="ignore", invalid="ignore"):
        t = u / s
    bad = np.flatnonzero(~(t > TIME_TOL))
    if bad.size:
        return AllocationResult(
            subset=subset, times=None, rate=rate, feasible=False,
            reject_reason=RejectReason.NONPOSITIVE_TIME, reject_index=int(bad[0]),
        )
    return AllocationResult(
        subset=subset, times=TimeAllocation(t / t.sum()), rate=rate, feasible=True
    )


def finite_rate(s):
    """1/s, or None unless it is finite, as ``judge`` gives a rate."""
    rate = 1.0 / float(s) if s != 0.0 else math.nan
    return rate if math.isfinite(rate) else None


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
# oracles' rates equal the walks' bit for bit.  They visit the subsets in
# ``subsets_by_size`` order and take only a strictly higher rate, so an exact
# tie goes to the earlier subset, as the selectors' rule gives.


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
            take = rate > best_rate
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


def equal_time_rates(caps_batch):
    """(2^N, T) equal-time rates of every subset in ``subsets_by_size`` order:
    the least that a receiver gets from its earlier transmitters, summed left
    to right, over m + 1."""
    caps_batch = np.asarray(caps_batch, dtype=float)
    n_trials, n, _ = caps_batch.shape
    dest = n - 1
    rates = np.empty((1 << (n - 2), n_trials))
    for sid, sub in enumerate(subsets_by_size(n - 2)):
        tx = np.array((0, *sub))
        rx = np.array((*sub, dest))
        rm = caps_batch[:, tx[:, None], rx[None, :]].transpose(0, 2, 1)
        rm = np.tril(rm)
        rates[sid] = np.cumsum(rm, axis=2)[:, :, -1].min(axis=1) / (len(sub) + 1)
    return rates


def batch_brute_equal_time(caps_batch):
    """Exhaustive equal-time baseline; same return keys as batch_equal_time."""
    n_trials, n, _ = np.shape(caps_batch)
    best_rate = np.full(n_trials, -np.inf)
    best_size = np.zeros(n_trials, dtype=np.int64)
    best_id = np.full(n_trials, -1, dtype=np.int64)
    subsets = subsets_by_size(n - 2)
    for sid, (sub, rate) in enumerate(zip(subsets, equal_time_rates(caps_batch))):
        take = rate > best_rate
        best_rate = np.where(take, rate, best_rate)
        best_size = np.where(take, len(sub), best_size)
        best_id = np.where(take, sid, best_id)
    return {"rate": best_rate, "n_active": best_size, "best_id": best_id}


# -- full-width best-subset merge oracle ----------------------------------------


def full_width_offer(best_rate, best_id, rate, sid0):
    """The best-subset merge of ``selector._Best.offer`` over every trial.

    ``best_rate`` and ``best_id`` are updated in place with the (k, T) block
    ``rate`` of subsets ``sid0 .. sid0 + k - 1``: the block's candidate is
    its first rate equal to the block maximum, and it replaces the best
    when higher, or when equal and earlier in ``subsets_by_size`` order.
    The library reads only the trials whose block maximum reaches the best
    rate; this reads them all.
    """
    top = np.fmax.reduce(rate, axis=0)
    j = np.argmax(rate == top, axis=0)
    r = rate[j, np.arange(rate.shape[1])]
    sid = sid0 + j
    take = (r > best_rate) | ((r == best_rate) & (sid < best_id))
    np.copyto(best_rate, r, where=take)
    np.copyto(best_id, sid, where=take)


# -- blocks-based recursive search oracle ---------------------------------------
#
# The recursive search as it was written before it ran on Python floats:
# every node carries its InverseBlocks and gets a full AllocationResult.
# The one change is that, as from allocator.judge, only a feasible node
# gets slot durations.


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
    rate = finite_rate(s)
    if s <= 0.0:
        return AllocationResult(
            subset=subset, times=None, rate=rate, feasible=False,
            reject_reason=RejectReason.NEGATIVE_RATE,
        )
    t = u / s
    t = t / t.sum()
    bad = np.nonzero(t <= TIME_TOL)[0]
    if bad.size:
        return AllocationResult(
            subset=subset, times=None, rate=rate, feasible=False,
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
            try:
                child = extend_inverse(blocks, caps, j)
            except SingularMatrix:
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
        candidates_bounded=0, op_count_reported=ops,
    )


# -- per-node recursive search oracle ---------------------------------------------


def recursive_select_per_node(
    caps: LinkCapacityMatrix, trace: list | None = None, bounded_roots: list | None = None,
    pruned_roots: list | None = None,
) -> OptimizationOutcome:
    """The float walk of ``selector.recursive_select`` in its plain form.

    Every visited node builds its subset and slot tuples, takes its smallest
    slot with the builtin ``min``, offers every feasible rate to ``_beats``
    and counts itself and its operations one at a time.  A node rates all
    its children, in index order, before it walks any of their subtrees,
    which it then walks in index order.  A child's subtree is skipped when
    the smallest of the slots its descendants inherit, the parent's fixed
    slots and the chain slot ``u``, is not positive, or when its slot sum
    ``s`` is negative, with or without a destination link.  An untraced
    walk also bounds it when one over ``s_chain``, the sum of the slots it
    passes on, or the destination bound of ``recursive_select`` is below
    the best rate just before the walk would descend into it, a best that
    includes every sibling.  The library walk also tests the bounds when it
    rates the child, which changes no count as the best never falls, and
    does each of these only where it can change the outcome; its outcomes
    and counters must equal the untraced walk's exactly.  A traced walk
    bounds nothing: it is the paper's walk, the one ``recursive_select_blocks``
    takes, with the same counters and nodes, visited sibling-first.

    ``trace``, if given, collects (subset, result, blocks) triples for every
    node visited, its blocks built with ``extend_inverse``.

    ``bounded_roots``, if given, collects (subset, bound, best rate) for
    every node whose subtree is bounded: the bound is 1 / s_chain when that
    is below the best rate, else the destination bound, or -inf when no
    relay from the node's last on has a destination link: every descendant
    is then singular, and the subtree is bounded even before any best is
    found.  ``pruned_roots``, if given, collects the subset of every node
    whose subtree an untraced walk prunes, so the subsets below the roots
    number ``candidates_pruned``.
    """
    n = caps.n_relays
    dest = n + 1
    a = caps.caps.tolist()
    ops_at = [op_count(q) for q in range(1, n + 2)]
    evaluated = 1
    pruned = 0
    bounded = 0
    ops = 0
    best_rate, best_sub, best_slots, best_s = -math.inf, (), None, None

    def visit(chain, h, s_fixed, min_fixed, slots, blocks):
        nonlocal evaluated, pruned, bounded, ops
        nonlocal best_rate, best_sub, best_slots, best_s
        last = chain[-1] if chain else 0
        row = a[last]
        op = ops_at[len(chain)]
        # rate every child first; the ones not pruned are tested and walked after
        rated = []
        for i, c in enumerate(range(last + 1, dest)):
            evaluated += 1
            sub = (*chain, c)
            t11 = row[c]
            if t11 <= SINGULARITY_TOL:
                pruned += (1 << (n - c)) - 1
                if trace is not None:
                    trace.append((sub, None, None))
                elif pruned_roots is not None:
                    pruned_roots.append(sub)
                continue
            ops += op
            u = (1.0 - h[i]) / t11
            child_slots = (*slots, u)
            s_chain = s_fixed + u
            # what the destination receives from the slots passed on
            hd = h[-1] + row[dest] * u
            t22 = a[c][dest]
            node_slots = s = None
            if t22 > SINGULARITY_TOL:
                u_dest = (1.0 - hd) / t22
                node_slots = (*child_slots, u_dest)
                s = s_chain + u_dest
                if s > 0.0 and min(min_fixed, u, u_dest) / s > TIME_TOL:
                    rate = 1.0 / s
                    if _beats(rate, sub, best_rate, best_sub):
                        best_rate, best_sub, best_slots, best_s = rate, sub, node_slots, s
            skip = not min(min_fixed, u) > 0.0 or (s is not None and s < 0.0)
            if trace is not None:
                child_blocks = extend_inverse(blocks, caps, c)
                trace.append((sub, judge(RelaySubset(sub), node_slots, s), child_blocks))
            else:
                child_blocks = None
            if skip:
                pruned += (1 << (n - c)) - 1
                if trace is None and pruned_roots is not None:
                    pruned_roots.append(sub)
            else:
                rated.append((i, c, sub, u, child_slots, s_chain, hd, child_blocks))
        for i, c, sub, u, child_slots, s_chain, hd, child_blocks in rated:
            # c and the relays after it must deliver the destination's
            # 1 - hd, each at most d_max per unit of slot
            d_max = max(a[j][dest] for j in range(c, dest))
            if 1.0 / s_chain < best_rate:
                bound = 1.0 / s_chain
            elif d_max <= SINGULARITY_TOL:
                bound = -math.inf
            else:
                lack = max(0.0, 1.0 - hd - _DEST_SLACK)
                bound = (1.0 + _DEST_SLACK) / (s_chain + lack / d_max)
            # a subtree with no destination link is singular, whatever the best
            if trace is None and (bound < best_rate or d_max <= SINGULARITY_TOL):
                bounded += (1 << (n - c)) - 1
                if bounded_roots is not None:
                    bounded_roots.append((sub, bound, best_rate))
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
        candidates_evaluated=evaluated, candidates_pruned=pruned,
        candidates_bounded=bounded, op_count_reported=ops,
    )


# -- comparing walks ----------------------------------------------------------------


def result_key(result):
    """Every field of an AllocationResult, its slot durations as bytes."""
    if result is None:
        return None
    times = None if result.times is None else result.times.t.tobytes()
    return (result.subset.indices, times, result.rate, result.feasible,
            result.reject_reason, result.reject_index)


def walk_outcome(select, caps, **kwargs):
    """The winner's fields and the four counters, or the NoFeasibleSolution."""
    try:
        out = select(caps, **kwargs)
    except NoFeasibleSolution as exc:
        return ("no feasible subset", str(exc))
    return (result_key(out.best), out.candidates_evaluated, out.candidates_pruned,
            out.candidates_bounded, out.op_count_reported)


def paper_walk(caps, walk=recursive_select_per_node):
    """The trace of the paper's walk on ``caps`` and its outcome, None when
    no subset is feasible.

    The paper's walk bounds nothing, so every subset it does not trace lies
    below a pruned node, and must be infeasible.  ``walk`` is ``recursive_select_per_node``,
    whose traced verdicts come from the float recurrence of
    ``recursive_select``, or ``recursive_select_blocks``, which extends and
    judges ``InverseBlocks`` in preorder.  Either way the library walk's
    outcome and four counters must first equal the untraced per-node
    walk's exactly.
    """
    want = walk_outcome(recursive_select_per_node, caps)
    assert walk_outcome(recursive_select, caps) == want
    trace = []
    try:
        outcome = walk(caps, trace=trace)
    except NoFeasibleSolution:
        outcome = None
    return trace, outcome
