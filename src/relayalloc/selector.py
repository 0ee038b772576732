"""Relay-subset selection: exhaustive oracle, recursive search, baseline.

Three selectors over the 2^N subsets of the relay pool:

* ``brute_force_select``: builds every rate matrix from scratch and solves it
  (the reference oracle).
* ``recursive_select``: depth-first walk of the subset tree where each child
  subset appends one relay with a larger index.  A node carries only Python
  floats: the slots fixed for its descendants and ``h[k]``, what each later
  node k receives from them.  A child's two new slots follow in O(1) and its
  ``h`` in O(N).  This is the partitioned-inverse update of the paper
  (``extend_inverse``, O(p^2) per child) applied to the all-ones vector, so
  the inverse blocks are only built when a trace asks for them.  Subtrees
  are skipped once an inherited slot duration goes nonpositive.
* ``equal_time_select``: optimal subset choice under uniform slot durations
  (the non-optimized cooperation baseline).

All three break rate ties in favor of fewer relays, then the
lexicographically smallest subset.

``batch_optimized`` and ``batch_equal_time`` are the Monte Carlo engines:
the same subset-tree walk over a stack of fading realizations, vectorized
over trials.  Each child's per-trial state comes from its parent's in O(1)
array operations, with no rate matrix built or solved, and every subset is
visited so that reject counts cover the whole tree.  ``batch_optimized``
runs the float recurrence of ``recursive_select`` operation for operation,
so the two return bit-identical rates.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .allocator import (
    SINGULARITY_TOL,
    TIME_TOL,
    AllocationResult,
    RejectReason,
    SingularMatrix,
    TimeAllocation,
    allocate,
    slot_times,
)
from .rate_model import LinkCapacityMatrix, RelaySubset, build_rate_matrix, mutual_informations

# Two rates within this absolute-plus-relative distance are tied.
RATE_TIE_TOL = 1e-9


class NoFeasibleSolution(Exception):
    """No subset (not even direct transmission) supports a positive rate."""


@dataclass(frozen=True)
class OptimizationOutcome:
    best: AllocationResult
    candidates_evaluated: int
    candidates_pruned: int
    op_count_reported: int


@dataclass(frozen=True)
class InverseBlocks:
    """Inverse of one subset's rate matrix in extendable partitioned form.

    ``chain_inv`` inverts the leading p x p block (the decode chain); it is
    what a child extension actually consumes.  ``dest_row`` is the last row
    of the full inverse, or None when the last relay has no destination link
    (the full matrix is singular but extensions may still be viable).
    ``u_chain`` caches chain_inv @ 1, the unnormalized slot solution shared
    with every descendant.
    """

    subset: tuple[int, ...]
    chain_inv: np.ndarray
    dest_row: np.ndarray | None
    u_chain: np.ndarray

    @property
    def full_inverse(self) -> np.ndarray:
        if self.dest_row is None:
            raise SingularMatrix(f"subset {self.subset} has a singular rate matrix")
        p = len(self.subset)
        inv = np.zeros((p + 1, p + 1))
        inv[:p, :p] = self.chain_inv
        inv[p, :] = self.dest_row
        return inv


def root_blocks(caps: LinkCapacityMatrix) -> InverseBlocks:
    """Blocks for the empty subset: a 1x1 system holding the direct link."""
    lsd = caps.direct_capacity
    dest_row = np.array([1.0 / lsd]) if lsd > SINGULARITY_TOL else None
    return InverseBlocks(
        subset=(), chain_inv=np.zeros((0, 0)), dest_row=dest_row, u_chain=np.zeros(0)
    )


def _extend_blocks(
    parent: InverseBlocks, a: np.ndarray, dest: int, new_relay: int
) -> InverseBlocks | None:
    """Partitioned-inverse update appending ``new_relay`` to the parent subset.

    Returns None when the decode-chain link into the new relay is absent
    (every descendant shares that link, so the whole subtree is singular).
    A missing new-relay-to-destination link only nulls ``dest_row``.
    """
    sub = parent.subset
    p = len(sub)
    last = sub[-1] if sub else 0
    t11 = a[last, new_relay]
    if t11 <= SINGULARITY_TOL:
        return None
    t22 = a[new_relay, dest]
    t21 = a[last, dest]

    # slot transmitters covered by the parent chain block: source then all
    # parent relays but the last (whose slot belongs to the appended rows)
    tx = np.array((0, *sub[:-1]), dtype=np.intp) if sub else np.empty(0, dtype=np.intp)
    f_new = a[tx, new_relay]
    fb_new = f_new @ parent.chain_inv  # O(p^2)

    chain_inv = np.zeros((p + 1, p + 1))
    chain_inv[:p, :p] = parent.chain_inv
    chain_inv[p, :p] = -fb_new / t11
    chain_inv[p, p] = 1.0 / t11

    u_chain = np.empty(p + 1)
    u_chain[:p] = parent.u_chain
    u_chain[p] = (1.0 - fb_new.sum()) / t11

    if t22 <= SINGULARITY_TOL:
        dest_row = None
    else:
        f_dest = a[tx, dest]
        fb_dest = f_dest @ parent.chain_inv
        dest_row = np.empty(p + 2)
        dest_row[:p] = (t21 / (t11 * t22)) * fb_new - fb_dest / t22
        dest_row[p] = -t21 / (t11 * t22)
        dest_row[p + 1] = 1.0 / t22

    return InverseBlocks(
        subset=(*sub, new_relay), chain_inv=chain_inv, dest_row=dest_row, u_chain=u_chain
    )


def extend_inverse(
    parent: InverseBlocks, caps: LinkCapacityMatrix, new_relay: int
) -> InverseBlocks:
    """Extend a cached inverse by one relay of larger index.

    Raises SingularMatrix when either new diagonal entry (chain link into the
    new relay, or its destination link) is absent.
    """
    if parent.subset and new_relay <= parent.subset[-1]:
        raise ValueError(
            f"new relay {new_relay} must exceed all of {parent.subset}"
        )
    if not 1 <= new_relay <= caps.n_relays:
        raise ValueError(f"relay index {new_relay} outside pool 1..{caps.n_relays}")
    child = _extend_blocks(parent, caps.caps, caps.destination, new_relay)
    if child is None or child.dest_row is None:
        raise SingularMatrix(
            f"subset {(*parent.subset, new_relay)} has a zero diagonal entry"
        )
    return child


def extend_solution(blocks: InverseBlocks) -> tuple[TimeAllocation, float]:
    """Slot durations and achievable rate straight from cached inverse blocks.

    Equivalent to a fresh solve of the subset's rate matrix: the first p
    entries are the parent's unnormalized solution rescaled by the new rate,
    the last two entries come from the appended block rows.
    """
    if blocks.dest_row is None:
        raise SingularMatrix(f"subset {blocks.subset} has a singular rate matrix")
    u = np.append(blocks.u_chain, blocks.dest_row.sum())
    s = u.sum()
    times = slot_times(u, s)
    if times is None:
        raise ValueError("slot solution does not normalize (zero or cancelling sum)")
    return times, 1.0 / s


def _beats(rate_new: float, sub_new: tuple, rate_old: float, sub_old: tuple | None) -> bool:
    """Tie-tolerant comparison: higher rate wins; ties prefer fewer relays, then lex order."""
    if sub_old is None:
        return True
    tol = RATE_TIE_TOL * max(1.0, abs(rate_new), abs(rate_old))
    if rate_new > rate_old + tol:
        return True
    if rate_new < rate_old - tol:
        return False
    return (len(sub_new), sub_new) < (len(sub_old), sub_old)


def subsets_by_size(n_relays: int):
    """All relay subsets in (size, lexicographic) order, empty set first."""
    for m in range(n_relays + 1):
        yield from itertools.combinations(range(1, n_relays + 1), m)


def brute_force_select(caps: LinkCapacityMatrix) -> OptimizationOutcome:
    """Exhaustive oracle: fresh rate matrix and solve for every subset."""
    best: AllocationResult | None = None
    ops = 0
    count = 0
    for sub in subsets_by_size(caps.n_relays):
        count += 1
        if sub:
            ops += op_count(len(sub))
        result = allocate(build_rate_matrix(caps, RelaySubset(sub)), RelaySubset(sub))
        if result.feasible and _beats(
            result.rate, sub, best.rate if best else 0.0, best.subset.indices if best else None
        ):
            best = result
    if best is None:
        raise NoFeasibleSolution("no relay subset nor direct transmission is feasible")
    return OptimizationOutcome(
        best=best, candidates_evaluated=count, candidates_pruned=0, op_count_reported=ops
    )


def recursive_select(
    caps: LinkCapacityMatrix, trace: list | None = None
) -> OptimizationOutcome:
    """Depth-first incremental search, equivalent to brute_force_select.

    Children of a subset append one relay beyond its largest index.  A node
    with chain (r1..rm) carries, as Python floats, the unnormalized slots
    fixed for all its descendants (the source and r1..r_{m-1}), their sum
    and extremes, and ``h[k]``, the sum of a[tx, k] * u_tx over those fixed
    transmitters: the state ``batch_optimized`` keeps per trial.  Appending
    relay c fixes the slot of r_m at (1 - h[c]) / a[r_m, c] and the
    destination row gives the child's last slot, so a child costs O(1) plus
    an O(N) update of ``h``, and no matrix or result object is built per
    node.  This is the partitioned-inverse update applied to the all-ones
    vector: ``h[c]`` equals ``f_c @ chain_inv @ 1``, which ``_extend_blocks``
    forms in O(p^2), so the reported operation count stays the paper's.

    When any of the first p-1 slot durations of a p-relay subset is
    nonpositive, every descendant inherits that slot, so the subtree is
    skipped.  A broken decode-chain link likewise kills the subtree; a
    missing last-relay-to-destination link only rejects the node itself.

    ``trace``, if given, collects (subset, result, blocks) triples for every
    node visited; only then are each node's ``AllocationResult`` and
    ``InverseBlocks`` built, from the same verdicts.
    """
    n = caps.n_relays
    dest = n + 1
    a = caps.caps.tolist()
    # ops_at[m]: the reported cost of one step from an m-relay node to a child
    ops_at = [op_count(q) for q in range(1, n + 2)]
    evaluated = 1
    pruned = 0
    ops = 0
    # the best node so far: rate, subset, unnormalized slots and their sum
    best_rate, best_sub, best_slots, best_s = 0.0, None, (), 0.0

    def visit(chain, h, s_fixed, min_fixed, max_fixed, slots, blocks):
        # h[i] belongs to node last + 1 + i, the last entry to the destination
        nonlocal evaluated, pruned, ops, best_rate, best_sub, best_slots, best_s
        last = chain[-1] if chain else 0
        row = a[last]
        op = ops_at[len(chain)]
        for i, c in enumerate(range(last + 1, dest)):
            evaluated += 1
            sub = (*chain, c)
            t11 = row[c]
            if t11 <= SINGULARITY_TOL:
                # chain link into relay c is absent: every descendant is singular
                pruned += (1 << (n - c)) - 1
                if trace is not None:
                    trace.append((sub, None, None))
                continue
            ops += op
            u = (1.0 - h[i]) / t11
            child_slots = (*slots, u)
            s_chain = _add_slot(s_fixed, u, slots)
            t22 = a[c][dest]
            skip = False
            if t22 <= SINGULARITY_TOL:
                reason, node_slots, s = RejectReason.SINGULAR, None, None
            else:
                u_dest = (1.0 - (h[-1] + row[dest] * u)) / t22
                node_slots = (*child_slots, u_dest)
                s = _add_slot(s_chain, u_dest, child_slots)
                if s <= 0.0:
                    reason = RejectReason.NEGATIVE_RATE
                elif min(min_fixed, u, u_dest) / s <= TIME_TOL:
                    reason = RejectReason.NONPOSITIVE_TIME
                else:
                    reason = RejectReason.NONE
                    rate = 1.0 / s
                    if _beats(rate, sub, best_rate, best_sub):
                        best_rate, best_sub, best_slots, best_s = rate, sub, node_slots, s
                # the slots fixed by the parent belong to every descendant
                if s != 0.0:
                    skip = (min_fixed if s > 0.0 else max_fixed) / s <= 0.0
            if trace is not None:
                child_blocks = _extend_blocks(blocks, caps.caps, dest, c)
                trace.append((sub, _node_result(sub, reason, node_slots, s), child_blocks))
            else:
                child_blocks = None
            if skip:
                pruned += (1 << (n - c)) - 1
            elif c < n:
                h_child = [hk + ak * u for hk, ak in zip(h[i + 1:], row[c + 1:])]
                visit(sub, h_child, s_chain, min(min_fixed, u), max(max_fixed, u),
                      child_slots, child_blocks)

    direct = a[0][dest]
    root = root_blocks(caps) if trace is not None else None
    if direct > SINGULARITY_TOL:
        u = 1.0 / direct
        best_rate, best_sub, best_slots, best_s = 1.0 / u, (), (u,), u
        root_reason = RejectReason.NONE
    else:
        root_reason = RejectReason.SINGULAR
    if trace is not None:
        trace.append(((), _node_result((), root_reason, best_slots, best_s), root))
    visit((), [0.0] * (n + 1), 0.0, math.inf, -math.inf, (), root)

    if best_sub is None:
        raise NoFeasibleSolution("no relay subset nor direct transmission is feasible")
    return OptimizationOutcome(
        best=_node_result(best_sub, RejectReason.NONE, best_slots, best_s),
        candidates_evaluated=evaluated, candidates_pruned=pruned, op_count_reported=ops,
    )


def _node_result(
    sub: tuple, reason: RejectReason, slots: tuple | None, s: float | None
) -> AllocationResult:
    """AllocationResult of one tree node from the walk's verdict and its slots."""
    subset = RelaySubset(sub)
    if reason is RejectReason.SINGULAR:
        return AllocationResult(
            subset=subset, times=None, rate=None, feasible=False, reject_reason=reason
        )
    index = None
    if reason is RejectReason.NONPOSITIVE_TIME:
        index = next(i for i, u in enumerate(slots) if u / s <= TIME_TOL)
    return AllocationResult(
        subset=subset, times=slot_times(np.array(slots), s),
        rate=1.0 / s if s != 0.0 else None, feasible=reason is RejectReason.NONE,
        reject_reason=reason, reject_index=index,
    )


def equal_time_select(caps: LinkCapacityMatrix) -> OptimizationOutcome:
    """Best subset under uniform slot durations t_i = 1/(m+1).

    No equalizing system is solved; each subset's rate is the minimum mutual
    information over its receivers.  Always returns an outcome (the empty
    subset is a candidate whatever the channels).
    """
    best_rate = -np.inf
    best_sub: tuple | None = None
    best_times: TimeAllocation | None = None
    count = 0
    for sub in subsets_by_size(caps.n_relays):
        count += 1
        rm = build_rate_matrix(caps, RelaySubset(sub))
        m = len(sub)
        t = np.full(m + 1, 1.0 / (m + 1))
        rate = float(mutual_informations(rm, t).min())
        if _beats(rate, sub, best_rate, best_sub):
            best_rate = rate
            best_sub = sub
            best_times = TimeAllocation(t)
    best = AllocationResult(
        subset=RelaySubset(best_sub), times=best_times, rate=best_rate, feasible=True
    )
    return OptimizationOutcome(
        best=best, candidates_evaluated=count, candidates_pruned=0, op_count_reported=0
    )


def op_count(q: int) -> int:
    """Scalar operations charged to one q-relay step of the recursive search."""
    if q < 1:
        raise ValueError(f"op_count is defined for q >= 1, got {q}")
    return 3 * q * q + 6 * q + 8


def worst_case_ops(n_relays: int) -> int:
    """Worst-case operation total over all nonempty subsets of the pool."""
    if n_relays < 1:
        raise ValueError(f"need at least one relay, got {n_relays}")
    return sum(math.comb(n_relays, q) * op_count(q) for q in range(1, n_relays + 1))


# ---------------------------------------------------------------------------
# Batched search over many fading realizations at once.
#
# The Monte Carlo harness evaluates the same subset tree for thousands of
# independent capacity draws; doing it one realization at a time would be
# dominated by Python overhead.  These helpers walk the tree depth first with
# the trial axis vectorized, and evaluate all children of a node in one block
# of array operations.  A child's state is its parent's plus one appended
# transmitter, so no rate matrix is ever built or solved.  Every subset is
# visited, because the reject counters are defined over all 2^N of them.
#
# Blocks are (children, trials): with the trial axis last, each operation
# runs one long inner loop per child instead of one short loop per trial.
# Capacities are read through transposed views, never copied.
# ---------------------------------------------------------------------------


def _subset_ids(n_relays: int) -> tuple[dict[tuple, int], np.ndarray]:
    """Index of every subset in ``subsets_by_size`` order, and each index's size.

    The size array carries a trailing 0, so a best index of -1 (no candidate
    yet) maps to size 0.
    """
    ids = {sub: i for i, sub in enumerate(subsets_by_size(n_relays))}
    return ids, np.array([len(sub) for sub in ids] + [0], dtype=np.int64)


def _tie_tol(r: np.ndarray) -> np.ndarray:
    # the _beats tolerance for the largest of the compared rates; rates are
    # nonnegative or -inf (no candidate), which counts as magnitude 0
    return RATE_TIE_TOL * np.maximum(r, 1.0)


class _Best:
    """Per-trial best subset so far, under the tie rule of ``_beats``."""

    def __init__(self, n_trials: int):
        self.rate = np.full(n_trials, -np.inf)
        self.id = np.full(n_trials, -1, dtype=np.int64)
        self._trials = np.arange(n_trials)

    def offer(self, rate: np.ndarray, sid0: int) -> None:
        """Merge a (k, T) block of sibling rates into the best, in place.

        Row j is the subset with index ``sid0 + j``; -inf marks a rejected
        subset.  The block's candidate is its first rate tied with the block
        maximum.  It replaces the best when higher by more than the tie
        tolerance, or when tied and earlier in ``subsets_by_size`` order, so
        the walk's visiting order does not decide ties.
        """
        if len(rate) == 1:
            r, sid = rate[0], sid0
        else:
            top = np.fmax.reduce(rate, axis=0)
            j = np.argmax(rate >= top - _tie_tol(top), axis=0)
            r = rate[j, self._trials]
            sid = sid0 + j
        tol = _tie_tol(np.maximum(r, self.rate))
        take = (r > self.rate + tol) | ((r >= self.rate - tol) & (sid < self.id))
        np.copyto(self.rate, r, where=take)
        np.copyto(self.id, sid, where=take)


def _add_slot(total: np.ndarray, u: np.ndarray, earlier: tuple) -> np.ndarray:
    """Running slot sum with ``u`` appended, in numpy's summation order.

    ``np.sum`` adds fewer than 8 terms in sequence and the first 8 of up to
    15 terms as a pairwise tree, so appending the 8th slot rebuilds the sum
    from the ``earlier`` slots.  Sums then match allocate's bit for bit, and
    so do verdicts on exact cancellations (integer-valued capacities).
    """
    if len(earlier) != 7:
        return total + u
    u0, u1, u2, u3, u4, u5, u6 = earlier
    return ((u0 + u1) + (u2 + u3)) + ((u4 + u5) + (u6 + u))


def _node_rates(
    singular: np.ndarray, s: np.ndarray, min_u: np.ndarray, rejects: np.ndarray
) -> np.ndarray:
    """Rates 1/s of a (k, T) block of nodes, -inf where rejected; counts rejects.

    ``s`` and ``min_u`` are the sum and the minimum of each node's
    unnormalized slots.  The verdicts are allocator.allocate's: singular,
    then rate <= 0, then a slot duration at or below TIME_TOL.
    """
    negative = ~singular & (s <= 0.0)
    solved = ~(singular | negative)
    bad_time = solved & (min_u / s <= TIME_TOL)
    rejects[0] += singular.sum(axis=0)
    rejects[1] += negative.sum(axis=0)
    rejects[2] += bad_time.sum(axis=0)
    return np.where(solved & ~bad_time, 1.0 / s, -np.inf)


def batch_optimized(caps_batch: np.ndarray) -> dict[str, np.ndarray]:
    """Optimal-subset rate and statistics for a stack of capacity matrices.

    Batched form of the recursive search.  A node with chain (r1..rm) keeps,
    per trial:

    * ``h[k]``, the sum of a[tx, k] * u_tx over the transmitters whose
      unnormalized slot u_tx is fixed (the source and r1..r_{m-1});
    * the sum and the minimum of those slots, and whether any chain link
      into r1..rm is absent (then every descendant is singular).

    Appending relay c fixes the slot of r_m at (1 - h[c]) / a[r_m, c]; the
    destination row then gives the child's last slot.

    Parameters
    ----------
    caps_batch : (T, N+2, N+2) array of link capacities.

    Returns
    -------
    dict with per-trial arrays: ``rate``, ``n_active``, ``best_id`` (index
    into ``subsets_by_size`` order), and reject counters ``n_singular``,
    ``n_negative_rate``, ``n_nonpositive_time``.
    """
    a = np.asarray(caps_batch, dtype=float)
    n_trials, n, _ = a.shape
    n_relays = n - 2
    dest = n - 1
    ids, sizes = _subset_ids(n_relays)
    best = _Best(n_trials)
    rejects = np.zeros((3, n_trials), dtype=np.int64)

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        direct = a[None, :, 0, dest]
        u_direct = 1.0 / direct
        best.offer(_node_rates(direct <= SINGULARITY_TOL, u_direct, u_direct, rejects), 0)

        # A stack entry is a node waiting to have its children evaluated; its
        # own h is derived from its parent's block when it is popped, so only
        # the blocks along the current path stay alive.  ``slots`` holds the
        # node's fixed slots, which _add_slot needs.
        root = ((), np.zeros((n - 1, n_trials)), 0.0, 0.0, 0.0, np.inf, False, ())
        stack = [root] if n_relays else []
        while stack:
            chain, h_parent, a_parent, u, s_chain, min_chain, singular, slots = stack.pop()
            h = h_parent + a_parent * u
            last = chain[-1] if chain else 0
            lo = last + 1
            a_last = a[:, last, lo:].T  # links from the last transmitter to later nodes
            a_rd = a[:, lo:dest, dest].T  # each child's destination link
            u = (1.0 - h[:-1]) / a_last[:-1]
            s_chain = _add_slot(s_chain, u, slots)
            min_chain = np.minimum(min_chain, u)
            singular = singular | (a_last[:-1] <= SINGULARITY_TOL)
            u_dest = (1.0 - (h[-1] + a_last[-1] * u)) / a_rd
            rate = _node_rates(
                singular | (a_rd <= SINGULARITY_TOL),
                _add_slot(s_chain, u_dest, (*slots, u)),
                np.minimum(min_chain, u_dest),
                rejects,
            )
            best.offer(rate, ids[(*chain, lo)])
            for j in range(n_relays - lo):  # children of relay N are leaves
                stack.append((
                    (*chain, lo + j), h[j + 1:], a_last[j + 1:], u[j],
                    s_chain[j], min_chain[j], singular[j], (*slots, u[j]),
                ))

    if np.any(best.id < 0):
        bad = int(np.nonzero(best.id < 0)[0][0])
        raise NoFeasibleSolution(f"trial {bad} has no feasible subset")
    return {
        "rate": best.rate,
        "n_active": sizes[best.id],
        "best_id": best.id,
        "n_singular": rejects[0],
        "n_negative_rate": rejects[1],
        "n_nonpositive_time": rejects[2],
    }


def batch_equal_time(caps_batch: np.ndarray) -> dict[str, np.ndarray]:
    """Equal-time baseline rate and subset size for a stack of capacity matrices.

    Under uniform slots a receiver's mutual information is the sum of its
    links from every earlier transmitter over m+1.  A node keeps ``e``, the
    sum of its transmitters' capacity rows, and the minimum over its relays
    of what each received; a child c receives ``e[c]`` and adds row c.
    """
    a = np.asarray(caps_batch, dtype=float)
    n_trials, n, _ = a.shape
    n_relays = n - 2
    dest = n - 1
    ids, sizes = _subset_ids(n_relays)
    best = _Best(n_trials)

    best.offer(a[None, :, 0, dest], 0)
    stack = [((), a[:, 0, 1:].T, 0.0, np.inf)] if n_relays else []
    while stack:
        chain, e_parent, a_row, min_chain = stack.pop()
        e = e_parent + a_row
        lo = (chain[-1] if chain else 0) + 1
        min_chain = np.minimum(min_chain, e[:-1])
        e_dest = e[-1] + a[:, lo:dest, dest].T
        best.offer(np.minimum(min_chain, e_dest) / (len(chain) + 2), ids[(*chain, lo)])
        for j in range(n_relays - lo):
            c = lo + j
            stack.append(((*chain, c), e[j + 1:], a[:, c, c + 1:].T, min_chain[j]))
    return {"rate": best.rate, "n_active": sizes[best.id], "best_id": best.id}
