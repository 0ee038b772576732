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
  the inverse blocks are only built when a trace asks for them.  A subtree
  is skipped as soon as its root passes a nonpositive slot on to its
  descendants, or has a negative slot sum: two sign tests, no division.
* ``equal_time_select``: optimal subset choice under uniform slot durations
  (the non-optimized cooperation baseline), a one-matrix call of
  ``batch_equal_time``.

All three break rate ties in favor of fewer relays, then the
lexicographically smallest subset.

``batch_optimized`` and ``batch_equal_time`` are the Monte Carlo engines:
the same subset-tree walk over a stack of fading realizations, vectorized
over trials.  Each child's per-trial state comes from its parent's in O(1)
array operations, with no rate matrix built or solved, and every subset is
visited so that reject counts cover the whole tree.  An absent link makes
its slot NaN, so a singular subset needs no state of its own, and the
singular count is one count of paths over the present links.  The
best-subset merge reads only the trials where a sibling block reaches the
best rate less its tie tolerance, which is exact (see ``_Best``).

The walks build each node's slots and slot sum one transmitter at a time,
in the left-to-right order that ``allocator`` states and ``allocate``
follows, so ``brute_force_select``, ``recursive_select`` and
``batch_optimized`` return bit-identical rates and verdicts.
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
    SingularMatrix,
    TimeAllocation,
    allocate,
    copy_where,
    judge,
    node_rates,
    select_mask,
    slot_times,
)
from .rate_model import LinkCapacityMatrix, RelaySubset, build_rate_matrix

# Two rates within this absolute-plus-relative distance are tied.
RATE_TIE_TOL = 1e-9


class NoFeasibleSolution(Exception):
    """No subset (not even direct transmission) supports a positive rate.

    ``trial`` is the index of the first such matrix in a batched call.
    """

    def __init__(self, message: str, trial: int | None = None):
        super().__init__(message)
        self.trial = trial


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


@np.errstate(over="ignore", invalid="ignore")
def _extend_blocks(
    parent: InverseBlocks, a: np.ndarray, dest: int, new_relay: int
) -> InverseBlocks | None:
    """Partitioned-inverse update appending ``new_relay`` to the parent subset.

    Returns None when the decode-chain link into the new relay is absent
    (every descendant shares that link, so the whole subtree is singular).
    A missing new-relay-to-destination link only nulls ``dest_row``.
    Entries beyond the float range become inf or NaN, as the scalar walk's
    slots do, and ``judge`` rejects them.
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
        # t21 / t11 / t22, not t21 / (t11 * t22): the product of two small
        # admissible capacities can underflow to 0
        dest_row = np.empty(p + 2)
        r = t21 / t11 / t22
        dest_row[:p] = r * fb_new - fb_dest / t22
        dest_row[p] = -r
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
    s = np.cumsum(u)[-1]
    times = slot_times(u, s)
    if times is None:
        raise ValueError("slot solution does not normalize (zero or cancelling sum)")
    return times, 1.0 / s


def _beats(rate: float, sub: tuple, best_rate: float, best_sub: tuple) -> bool:
    """``_Best.offer``'s take rule on scalars: ``rate`` wins if higher than
    the best by more than its own tie tolerance, or if it reaches the best's
    floor (the best rate less its tolerance) and ``sub`` comes earlier in
    ``subsets_by_size`` order.  Searches start from the best (-inf, ())."""
    if rate > best_rate + RATE_TIE_TOL * max(rate, 1.0):
        return True
    floor = best_rate - RATE_TIE_TOL * max(best_rate, 1.0)
    return rate >= floor and (len(sub), sub) < (len(best_sub), best_sub)


def subsets_by_size(n_relays: int):
    """All relay subsets in (size, lexicographic) order, empty set first."""
    for m in range(n_relays + 1):
        yield from itertools.combinations(range(1, n_relays + 1), m)


def brute_force_select(caps: LinkCapacityMatrix) -> OptimizationOutcome:
    """Exhaustive oracle: fresh rate matrix and solve for every subset."""
    best_rate, best_sub, best = -math.inf, (), None
    ops = 0
    count = 0
    for sub in subsets_by_size(caps.n_relays):
        count += 1
        if sub:
            ops += op_count(len(sub))
        result = allocate(build_rate_matrix(caps, RelaySubset(sub)), RelaySubset(sub))
        if result.feasible and _beats(result.rate, sub, best_rate, best_sub):
            best_rate, best_sub, best = result.rate, sub, result
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
    fixed for all its descendants (the source and r1..r_{m-1}), which the
    winner and the trace read, their sum and minimum, and ``h[k]``, the sum
    of a[tx, k] * u_tx over those fixed transmitters; ``batch_optimized``
    keeps the sum, the minimum and ``h`` per trial.  Appending
    relay c fixes the slot of r_m at (1 - h[c]) / a[r_m, c] and the
    destination row gives the child's last slot, so a child costs O(1) plus
    an O(N) update of ``h``, and no matrix or result object is built per
    node.  This is the partitioned-inverse update applied to the all-ones
    vector: ``h[c]`` equals ``f_c @ chain_inv @ 1``, which ``_extend_blocks``
    forms in O(p^2), so the reported operation count stays the paper's.

    A subset (r1..rp) passes its first p slots, the source's and
    r1..r_{p-1}'s, on to every descendant; only rp's slot is its own.  A
    feasible node's slots are all positive (``s > 0`` and each over ``s``
    exceeds TIME_TOL), so the subtree is skipped when one of the p slots is
    not positive, with or without rp's destination link; as the walk
    descends only where this fails, only the slot that appending rp fixes
    needs the test.  It is also skipped when ``s < 0``: then the inherited
    slots alone give the destination more than a unit, in every descendant
    too.  Either way the node is infeasible, so the untraced walk skips its
    verdict.  A broken decode-chain link likewise kills the subtree.  Every
    subset is visited or inside a skipped subtree, so the number evaluated
    is 2^N less the number pruned.

    A node is feasible when ``s > 0`` and its smallest slot over ``s``
    exceeds TIME_TOL, which is ``judge``'s verdict written inline: a call per
    node would cost more than the node.  A node is judged, and offered to
    ``_beats``, only when its rate reaches the best's floor, the best rate
    less its tie tolerance, as ``_Best`` filters its merge: a rate below the
    floor can neither win nor tie, so the filter is exact.  A node's subset
    and slots become tuples only when the walk descends into it, it takes
    the best or it is traced, and its smallest slot is taken by comparisons
    in ``min``'s order, so NaN and signed zeros fall as they would.  The walk
    keeps the path from the root on an explicit stack in this one frame, so
    a node costs no call.  ``trace``, if given, collects (subset, result,
    blocks) triples for every node visited; only then are each node's
    ``InverseBlocks`` built and its slots passed to ``judge``.
    """
    n = caps.n_relays
    dest = n + 1
    a = caps.caps.tolist()
    # per node c: its destination link and the size of the subtree below it
    a_dest = [row[dest] for row in a]
    below = [(1 << (n - c)) - 1 for c in range(n + 1)]
    # ops_at[m]: the reported cost of one step from an m-relay node to a child
    ops_at = [op_count(q) for q in range(1, n + 2)]
    pruned = 0
    ops = 0
    # the best node so far: rate, subset, unnormalized slots and their sum,
    # and its floor, as _beats computes it
    best_rate, best_sub, best_slots, best_s = -math.inf, (), None, None
    best_floor = -math.inf

    direct = a[0][dest]
    blocks = root_blocks(caps) if trace is not None else None
    if direct > SINGULARITY_TOL:
        u = 1.0 / direct
        best_rate, best_sub, best_slots, best_s = 1.0 / u, (), (u,), u
        best_floor = best_rate - RATE_TIE_TOL * max(best_rate, 1.0)
    if trace is not None:
        trace.append(((), judge(RelaySubset(()), best_slots, best_s), blocks))

    # The node whose children are being evaluated, starting at the root.
    # last is its chain's last node (0, the source, for the empty chain);
    # h[i] belongs to node last + 1 + i, the last entry to the destination.
    # Each node on the path above it waits on ``stack`` with its state and
    # the iterator over its children, and resumes at its next child once the
    # current subtree is done: the order of a recursive walk, in one frame.
    chain, last, h, slots = (), 0, [0.0] * (n + 1), ()
    s_fixed, min_fixed = 0.0, math.inf
    row = a[0]
    h_dest, a_last_dest = h[-1], row[dest]
    # every child is charged op, and a broken chain link takes it back
    op = ops_at[0]
    ops += op * n
    children = zip(range(1, dest), h, row[1:dest])
    child_blocks = None  # built only for a trace
    stack = []
    while True:
        for c, h_c, t11 in children:
            if t11 <= SINGULARITY_TOL:
                # chain link into relay c is absent: every descendant is singular
                ops -= op
                pruned += below[c]
                if trace is not None:
                    trace.append(((*chain, c), None, None))
                continue
            u = (1.0 - h_c) / t11
            s_chain = s_fixed + u
            # every descendant inherits u, and min_fixed > 0 wherever the walk is
            skip = u <= 0.0
            t22 = a_dest[c]
            if t22 > SINGULARITY_TOL:
                u_dest = (1.0 - (h_dest + a_last_dest * u)) / t22
                s = s_chain + u_dest
                if s > 0.0:
                    # a node that passes on a nonpositive slot is infeasible
                    # itself, and below the floor no verdict is needed
                    rate = 1.0 / s
                    if not skip and rate >= best_floor:
                        low = min_fixed
                        if u < low:
                            low = u
                        if u_dest < low:
                            low = u_dest
                        if low / s > TIME_TOL:
                            sub = (*chain, c)
                            if _beats(rate, sub, best_rate, best_sub):
                                best_rate, best_sub, best_s = rate, sub, s
                                best_slots = (*slots, u, u_dest)
                                best_floor = best_rate - RATE_TIE_TOL * max(best_rate, 1.0)
                elif s < 0.0:
                    # the inherited slots alone give the destination over a unit
                    skip = True
            if trace is not None:
                sub = (*chain, c)
                child_blocks = _extend_blocks(blocks, caps.caps, dest, c)
                if t22 > SINGULARITY_TOL:
                    result = judge(RelaySubset(sub), (*slots, u, u_dest), s)
                else:  # a missing destination link: singular
                    result = judge(RelaySubset(sub), None, None)
                trace.append((sub, result, child_blocks))
            if skip:
                pruned += below[c]
            elif c < n:
                # descend into c; this node resumes at its next child
                stack.append((children, chain, last, row, h, h_dest, a_last_dest, op,
                              s_fixed, min_fixed, slots, blocks))
                h = [hk + ak * u for hk, ak in zip(h[c - last:], row[c + 1:])]
                chain, last, row = (*chain, c), c, a[c]
                h_dest, a_last_dest = h[-1], row[dest]
                op = ops_at[len(chain)]
                ops += op * (n - c)
                s_fixed = s_chain
                if u < min_fixed:
                    min_fixed = u
                slots, blocks = (*slots, u), child_blocks
                children = zip(range(c + 1, dest), h, row[c + 1:dest])
                break
        else:
            if not stack:
                break
            (children, chain, last, row, h, h_dest, a_last_dest, op,
             s_fixed, min_fixed, slots, blocks) = stack.pop()

    if best_slots is None:
        raise NoFeasibleSolution("no relay subset nor direct transmission is feasible")
    return OptimizationOutcome(
        best=judge(RelaySubset(best_sub), best_slots, best_s),
        candidates_evaluated=(1 << n) - pruned, candidates_pruned=pruned,
        op_count_reported=ops,
    )


def equal_time_select(caps: LinkCapacityMatrix) -> OptimizationOutcome:
    """Best subset under uniform slot durations t_i = 1/(m+1).

    ``batch_equal_time`` on a one-matrix stack: a subset's rate is the
    minimum mutual information over its receivers, and the empty subset is
    always a candidate, so an outcome is always returned.
    """
    res = batch_equal_time(caps.caps[None])
    best_id = int(res["best_id"][0])
    sub = next(itertools.islice(subsets_by_size(caps.n_relays), best_id, None))
    m = len(sub)
    best = AllocationResult(
        subset=RelaySubset(sub), times=TimeAllocation(np.full(m + 1, 1.0 / (m + 1))),
        rate=float(res["rate"][0]), feasible=True,
    )
    return OptimizationOutcome(
        best=best, candidates_evaluated=2**caps.n_relays, candidates_pruned=0,
        op_count_reported=0,
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
# A node's verdict reads only its slot sum and smallest slot: a slot whose
# divisor is an absent link is NaN, which carries to every descendant and
# fails both of ``node_rates``' tests, and a rejected node's rate is NaN.
#
# Every subset is judged, but few can change the best: on a 3x3 grid about
# 2% of (node, trial) pairs for the optimized search and under 1% for equal
# time.  ``_Best`` keeps a per-trial rate floor, the best rate less its tie
# tolerance, and merges only the trials whose block maximum reaches it.  No
# rate below the floor passes either take test, so this is exact.
#
# Blocks are (children, trials): with the trial axis last, each operation
# runs one long inner loop per child instead of one short loop per trial.
# Capacities are held link-major, (n, n, trials), so a node's links
# (a[last, lo:], a[lo:dest, dest], a[c, c + 1:]) are rows whose trials are
# adjacent in memory.  The Monte Carlo builds its stacks in that layout, and
# a C-ordered (trials, n, n) stack costs one copy.  Only the links i < j,
# from an earlier node to a later one, are ever read.
# ---------------------------------------------------------------------------


def _link_major(caps_batch: np.ndarray) -> np.ndarray:
    """(n, n, T) C-contiguous capacities of a (T, n, n) stack; no copy when
    the stack is already the transposed view of such an array."""
    return np.ascontiguousarray(np.asarray(caps_batch, dtype=float).transpose(1, 2, 0))


def _size_ends(n_relays: int) -> list[int]:
    """Entry m counts the subsets of at most m relays.  The batched walks pop
    the nodes of one size in reverse ``subsets_by_size`` order, so their
    blocks of children (consecutive subsets of one size) fill each size
    class backwards from its end."""
    return list(itertools.accumulate(math.comb(n_relays, m) for m in range(n_relays + 1)))


def _subset_sizes(ends: list[int], ids: np.ndarray) -> np.ndarray:
    """Size of the subset with each id, 0 for -1: the number of class ends at
    or below it, by comparison (np.searchsorted costs ~10 ns per id)."""
    return (ids >= np.array(ends[:-1])[:, None]).sum(axis=0)


# A merge gathers the trials that reach the floor when fewer than one in this
# many do, and otherwise runs at full width (see ``_Best``).
SPARSE_SHARE = 4


def _tie_tol(r: np.ndarray) -> np.ndarray:
    # a rate's own tie tolerance, as in _beats; best rates are nonnegative
    # or -inf (no candidate), which counts as magnitude 0, and a NaN
    # (rejected) rate gets a NaN tolerance, which passes no test
    return RATE_TIE_TOL * np.maximum(r, 1.0)


class _Best:
    """Per-trial best subset so far, under the tie rule of ``_beats``.

    It starts from the empty subset's (T,) rates: a finite one is its
    trial's best, index 0, and the rest (NaN for a rejected subset) start
    at -inf, index -1, which only a finite rate beats.  The merge reads
    only the trials whose block maximum reaches ``floor``, the best rate
    less its tie tolerance.  This is exact: a block's candidate is at most
    its maximum, and a rate below the floor is neither higher than the best
    by more than the tolerance nor tied with it, so the trials skipped would
    have kept their best.

    A merge takes one of two read-outs.  When fewer than one trial in
    ``SPARSE_SHARE`` reaches the floor, the sparse read-out gathers those
    trials' columns once, picks each one's candidate and applies the take
    rule on that small block, and writes back only the trials that take, so
    its cost follows its hits.  On a 3x3-grid sweep block (2500 columns)
    110 of ``batch_optimized``'s 256 merges read out a median of 14 trials
    this way, and 18 of ``batch_equal_time``'s a median of 6.  A denser
    merge runs at full width and writes with ``copy_where``, not masked
    copies, under one select mask built for both writes: on sweep-deep's
    16025-column blocks 50-90% of the trials are taken in most merges, and
    at half taken a ``np.copyto(..., where=take)``, which branches on every
    element, took 99 us against 24 us for the branch-free select of the
    same bits.

    The crossover, measured on blocks in which every trial that reaches
    the floor takes: the sparse read-out is the cheaper up to 37% of the
    trials at 4 rows and 2500 columns, 65% at one row, and 55% and 85% at
    2 rows and 1 row of 16025 columns.  Replaying the merges of grid3 and
    sweep-deep blocks of both engines, shares from 1/2 to 1/6 gave the same
    totals within 5%; 1/4 stays below the lowest break-even.
    """

    def __init__(self, rate: np.ndarray):
        finite = np.isfinite(rate)
        self.rate = np.where(finite, rate, -np.inf)
        self.id = finite.astype(np.int64) - 1
        self.floor = self.rate - _tie_tol(self.rate)
        self._trials = np.arange(len(rate))

    def offer(self, rate: np.ndarray, sid0: int) -> None:
        """Merge a (k, T) block of sibling rates into the best, in place.

        Row j is the subset with index ``sid0 + j``; NaN marks a rejected
        subset, which neither sets the block maximum (``np.fmax`` skips it)
        nor passes a comparison, so it counts as no candidate, as -inf
        would.  The block's candidate is its first rate tied with the block
        maximum.  It replaces the best when higher by more than its own tie
        tolerance, or when it reaches the best's floor and comes earlier in
        ``subsets_by_size`` order, so the walk's visiting order does not
        decide ties.

        A +inf rate is higher than the best by no finite margin, so it is
        taken only as a tie with an earlier subset, and it would hide the
        finite rates of its block.  A trial whose block maximum is +inf is
        therefore merged row by row, as k one-row blocks in subset order,
        which is ``_beats`` applied to each row in turn.  The engines merge
        with invalid-value warnings off, since inf - inf is NaN here.
        """
        k = len(rate)
        top = rate[0] if k == 1 else np.fmax.reduce(rate, axis=0)
        hit = top >= self.floor
        n_hit = np.count_nonzero(hit)
        if not n_hit:
            return
        if SPARSE_SHARE * n_hit >= len(hit):
            self._merge_dense(rate, top, sid0)
            return
        cols = hit.nonzero()[0]
        top = top.take(cols)
        if k == 1:
            self._take(top, sid0, cols)
            return
        rate = rate.take(cols, axis=1)
        if top.max() == np.inf:  # no trial that reaches its floor has a NaN top
            inf = top == np.inf
            self._rows(rate[:, inf], sid0, cols[inf])
            finite = ~inf
            rate, top, cols = rate[:, finite], top[finite], cols[finite]
        j = np.argmax(rate >= top - _tie_tol(top), axis=0)
        self._take(rate[j, np.arange(len(j))], sid0 + j, cols)

    def _take(self, r: np.ndarray, sid, cols: np.ndarray) -> None:
        """The take rule on the candidates ``r``, ``sid`` of the trials
        ``cols``, gathered; only the trials that take are written."""
        # where r > best, _tie_tol(r) is the tolerance of the larger rate;
        # elsewhere r > best + tol fails for any tol >= 0.  r >= floor is
        # the tie test r >= best - tol: where r <= best, tol is best's own
        # tolerance, and where r > best both tests hold
        take = r > self.rate.take(cols) + _tie_tol(r)
        take |= (r >= self.floor.take(cols)) & (sid < self.id.take(cols))
        cols, r = cols[take], r[take]
        self.rate[cols] = r
        self.id[cols] = sid[take] if isinstance(sid, np.ndarray) else sid
        self.floor[cols] = r - _tie_tol(r)

    def _rows(self, rate: np.ndarray, sid0: int, cols: np.ndarray) -> None:
        """Merge the (k, h) rates of the trials ``cols`` one row at a time."""
        for j, r in enumerate(rate):
            self._take(r, sid0 + j, cols)

    def _merge_dense(self, rate: np.ndarray, top: np.ndarray, sid0: int) -> None:
        """The merge of a (k, T) block at full width; ``top`` is its maximum."""
        best, best_id = self.rate, self.id
        if len(rate) == 1:
            r, sid = top, sid0
            inf = None
        else:
            r, sid = self._candidate(rate, top, sid0)
            # fmax skips the NaN maxima of wholly rejected trials
            inf = np.flatnonzero(top == np.inf) if np.fmax.reduce(top) == np.inf else None
        take = (r > best + _tie_tol(r)) | ((r >= self.floor) & (sid < best_id))
        if inf is not None:
            take[inf] = False
        take = select_mask(take)  # built once for both writes
        copy_where(best, r, take)
        copy_where(best_id, sid, take)
        np.subtract(best, _tie_tol(best), out=self.floor)
        if inf is not None:
            self._rows(rate[:, inf], sid0, inf)

    def _candidate(self, rate: np.ndarray, top: np.ndarray, sid0: int):
        """Candidate rate and subset index of every trial of a (k, T) block
        whose column maxima are ``top``."""
        tied = rate >= top - _tie_tol(top)
        # np.argmax(tied, axis=0) costs one call per trial at this width;
        # the largest rank of a tied row runs row by row.  Row j has rank
        # k - j, so the first tied row has the largest.  A trial with no
        # tied row (its maximum is +inf, merged row by row, or NaN, which
        # no merge takes) has rank 0 and gets row 0, as from argmax.  A
        # block has at most N < 256 rows, so ranks fit uint8.
        k = len(tied)
        rank = np.max(tied * np.arange(k, 0, -1, dtype=np.uint8)[:, None], axis=0)
        j = ((k - rank) * (rank > 0)).astype(np.intp)
        flat = j * len(j)
        flat += self._trials
        return np.take(rate, flat), sid0 + j


def batch_optimized(caps_batch: np.ndarray) -> dict[str, np.ndarray]:
    """Optimal-subset rate and statistics for a stack of capacity matrices.

    Batched form of the recursive search.  A node with chain (r1..rm) keeps,
    per trial:

    * ``h[k]``, the sum of a[tx, k] * u_tx over the transmitters whose
      unnormalized slot u_tx is fixed (the source and r1..r_{m-1});
    * the sum and the minimum of those slots.

    Appending relay c fixes the slot of r_m at (1 - h[c]) / a[r_m, c]; the
    destination row then gives the child's last slot.  A slot whose divisor
    is an absent link (at or below SINGULARITY_TOL) is NaN instead: a chain
    slot's NaN reaches every descendant through ``h``, the sum and the
    minimum, so each singular node has a NaN slot sum and is judged neither
    rate <= 0 nor feasible.  The NaN goes into the slots, never into the
    capacities, which also enter ``h`` as multipliers where a missing link
    makes nothing singular.  Whether any link i < j is absent is tested
    once per call, and the two masked writes per node are made only if one
    is.

    A subset is singular unless its path 0 -> r1 -> ... -> rm -> dest uses
    only present links, so ``n_singular`` is 2^N less the number of such
    paths, counted per trial in O(n^2) array operations (``_singular_counts``).

    Parameters
    ----------
    caps_batch : (T, N+2, N+2) array of link capacities.  Only the links
        i < j are read; the diagonal and the lower triangle may hold
        anything.  A link-major stack, the (T, n, n) transposed view of a
        C-contiguous (n, n, T) array, is used without a copy.

    Returns
    -------
    dict with per-trial arrays: ``rate``, ``n_active``, ``best_id`` (index
    into ``subsets_by_size`` order), and reject counters ``n_singular``,
    ``n_negative_rate``, ``n_nonpositive_time``.
    """
    a = _link_major(caps_batch)
    n, _, n_trials = a.shape
    n_relays = n - 2
    dest = n - 1
    ends = _size_ends(n_relays)
    first = ends.copy()  # counts down as blocks are offered
    # row i: which links from node i to the later nodes are absent; None
    # when no link i < j is, and then no slot is written NaN
    absent = [a[i, i + 1:] <= SINGULARITY_TOL for i in range(dest)]
    if any(map(np.any, absent)):
        absent_dest = a[1:dest, dest] <= SINGULARITY_TOL  # relay r at r - 1
    else:
        absent = None
    # per trial: rate <= 0 and feasible nodes.  node_rates adds each block
    # into the uint8 buffer ``pending``, which is emptied into the int64
    # totals before 255 rows could overflow it
    counts = np.zeros((2, n_trials), dtype=np.int64)
    pending = np.zeros((2, n_trials), dtype=np.uint8)
    rows = 1  # rows added to pending since it was emptied: the root's

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        u_direct = 1.0 / a[None, 0, dest]
        if absent is not None:
            np.copyto(u_direct, np.nan, where=absent[0][-1])
        best = _Best(node_rates(u_direct, u_direct, pending)[0])

        # A stack entry is a node waiting to have its children evaluated; its
        # own h is derived from its parent's block when it is popped, so only
        # the blocks along the current path stay alive.  A node is its last
        # relay (0 for the source) and its size; the root's h is all zeros.
        root = (0, 0, np.zeros((n - 1, n_trials)), None, None, 0.0, np.inf)
        stack = [root] if n_relays else []
        while stack:
            last, m, h_parent, a_parent, u, s_chain, min_chain = stack.pop()
            if m:
                h = a_parent * u
                h += h_parent
            else:
                h = h_parent
            lo = last + 1
            a_last = a[last, lo:]  # links from the last transmitter to later nodes
            u = np.subtract(1.0, h[:-1])
            u /= a_last[:-1]
            if absent is not None:
                np.copyto(u, np.nan, where=absent[last][:-1])
            s_chain = s_chain + u
            min_chain = np.minimum(min_chain, u)
            # each child's destination link
            u_dest = a_last[-1] * u
            u_dest += h[-1]
            np.subtract(1.0, u_dest, out=u_dest)
            u_dest /= a[lo:dest, dest]
            if absent is not None:
                np.copyto(u_dest, np.nan, where=absent_dest[last:])
            s = s_chain + u_dest
            if rows + len(s) > 255:
                counts += pending
                pending.fill(0)
                rows = 0
            rows += len(s)
            rate = node_rates(s, np.minimum(min_chain, u_dest, out=u_dest), pending)
            first[m + 1] -= dest - lo
            best.offer(rate, first[m + 1])
            for j in range(n_relays - lo):  # children of relay N are leaves
                stack.append((lo + j, m + 1, h[j + 1:], a_last[j + 1:], u[j],
                              s_chain[j], min_chain[j]))

    if np.any(best.id < 0):
        bad = int(np.nonzero(best.id < 0)[0][0])
        raise NoFeasibleSolution(f"trial {bad} has no feasible subset", trial=bad)
    counts += pending
    n_singular = (
        np.zeros(n_trials, dtype=np.int64) if absent is None
        else _singular_counts(absent, n_relays)
    )
    return {
        "rate": best.rate,
        "n_active": _subset_sizes(ends, best.id),
        "best_id": best.id,
        "n_singular": n_singular,
        "n_negative_rate": counts[0],
        # every one of the 2^N subsets was judged once
        "n_nonpositive_time": (1 << n_relays) - n_singular - counts[0] - counts[1],
    }


def _singular_counts(absent: list[np.ndarray], n_relays: int) -> np.ndarray:
    """Per trial, the number of singular subsets: 2^N less the paths from
    the source to the destination through present links.

    ``absent[i]`` marks, per trial, the absent links from node i to the
    later nodes i + 1 .. N + 1.  ``paths[j]`` counts the paths from the
    source to node j, and node i adds its count to every later node it has
    a present link to; it is complete by then, since every path into i
    comes from an earlier node.  A NaN link is not at or below
    SINGULARITY_TOL, so it is present, as it is for ``judge``.
    """
    paths = np.zeros((n_relays + 2, absent[0].shape[-1]), dtype=np.int64)
    paths[0] = 1
    for i, row in enumerate(absent):
        paths[i + 1:] += paths[i] * ~row
    return (1 << n_relays) - paths[-1]


# an infinite link makes an infinite rate, which the merge reads as inf - inf
@np.errstate(invalid="ignore")
def batch_equal_time(caps_batch: np.ndarray) -> dict[str, np.ndarray]:
    """Equal-time baseline rate and subset size for a stack of capacity matrices.

    Under uniform slots a receiver's mutual information is the sum of its
    links from every earlier transmitter over m+1.  A node keeps ``e``, the
    sum of its transmitters' capacity rows, and the minimum over its relays
    of what each received; a child c receives ``e[c]`` and adds row c.

    ``caps_batch`` is read as in ``batch_optimized``: links i < j only, and
    a link-major stack without a copy.
    """
    a = _link_major(caps_batch)
    n, _, n_trials = a.shape
    n_relays = n - 2
    dest = n - 1
    ends = _size_ends(n_relays)
    first = ends.copy()  # counts down as blocks are offered
    best = _Best(a[0, dest])
    # a node is its last relay (0 for the source) and its size
    stack = [(0, 0, a[0, 1:], 0.0, np.inf)] if n_relays else []
    while stack:
        last, m, e_parent, a_row, min_chain = stack.pop()
        e = e_parent + a_row
        lo = last + 1
        min_chain = np.minimum(min_chain, e[:-1])
        e_dest = e[-1] + a[lo:dest, dest]
        first[m + 1] -= dest - lo
        best.offer(np.minimum(min_chain, e_dest) / (m + 2), first[m + 1])
        for j in range(n_relays - lo):
            c = lo + j
            stack.append((c, m + 1, e[j + 1:], a[c, c + 1:], min_chain[j]))
    return {"rate": best.rate, "n_active": _subset_sizes(ends, best.id), "best_id": best.id}
