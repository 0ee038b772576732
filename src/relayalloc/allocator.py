"""Equalizing time allocation for a single relay subset.

Solving ``rate_matrix @ t = R * 1`` equalizes the mutual information at every
relay and at the destination, which is the unique interior max-min optimum
for that subset.  The solve is one forward substitution; the full inverse is
only ever materialized by the selector's incremental-inverse API.  The
feasibility verdict is written here once per form, for every selector:
``judge`` for one subset and ``node_rates`` for a block of nodes, where a
singular node comes with NaN slots.

Every selector computes the unnormalized slots u in one float order, left
to right: row i of the solve accumulates ``0.0 + a[i, 0] * u[0] + ... +
a[i, i-1] * u[i-1]`` in index order, and the slot sum is ``u[0] + u[1] +
... + u[m]`` in index order.  The subset walks build the same sums one
transmitter at a time, so every selector returns bit-identical rates and
verdicts, exact cancellations included.  No sum is left to numpy's pairwise
or BLAS order, nor to Python's ``sum``, which is compensated from 3.12 on.
The one exception is the renormalizing sum of the slot durations t = u/s,
which is numpy's ``t.sum()``; it runs after the verdict's inputs are fixed
and only shapes the reported durations.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .rate_model import RateMatrix, RelaySubset, mutual_informations

# Diagonal entries at or below this are treated as structural zeros (absent
# links); genuine fading draws are almost surely far larger.
SINGULARITY_TOL = 1e-300

# Slot durations must strictly exceed this to count as feasible.
TIME_TOL = 1e-12


class SingularMatrix(Exception):
    """Rate matrix has a (near-)zero diagonal entry and cannot be inverted."""


class RejectReason(enum.Enum):
    NONE = "none"
    SINGULAR = "singular"
    NEGATIVE_RATE = "negative_rate"
    NONPOSITIVE_TIME = "nonpositive_time"


@dataclass(frozen=True)
class TimeAllocation:
    """Slot durations as fractions of the unit block; they sum to one."""

    t: np.ndarray

    def __post_init__(self):
        t = np.array(self.t, dtype=float)  # copied: the caller's array stays writeable
        if t.ndim != 1 or t.size == 0:
            raise ValueError("time allocation must be a nonempty vector")
        if not all(map(math.isfinite, t.tolist())):
            raise ValueError(f"slot durations must be finite, got {t}")
        # scale-aware gate: for feasible vectors (all positive) the scale is 1
        # and this is an absolute 1e-12 check; rejected solutions may carry
        # huge cancelling entries whose float sum cannot do better than this.
        # The scale is at least 1, so a sum within 1e-12 of 1 needs no scale.
        total = t.sum()
        err = abs(total - 1.0)
        if err > 1e-12 and err > 1e-12 * max(1.0, np.abs(t).sum()):
            raise ValueError(f"slot durations must sum to 1, got {total!r}")
        t.setflags(write=False)
        object.__setattr__(self, "t", t)

    def __len__(self) -> int:
        return self.t.size


@dataclass(frozen=True)
class AllocationResult:
    """Outcome of the equalizing solve for one subset.

    ``times`` is present for any outcome where the linear system had a
    solution with finite slot durations (even an infeasible one, so callers
    can inspect which slot went nonpositive).  It is None for singular
    matrices, for a zero or non-finite slot sum, and when renormalizing
    overflows, which exact cancellations (small-integer capacities) can
    cause.  Results come from ``judge``, except ``equal_time_select``'s,
    whose uniform slots are feasible by definition.
    """

    subset: RelaySubset
    times: TimeAllocation | None
    rate: float | None
    feasible: bool
    reject_reason: RejectReason = RejectReason.NONE
    reject_index: int | None = None


def solve_lower_triangular(rm: RateMatrix, rhs: np.ndarray) -> np.ndarray:
    """Forward substitution for a lower-triangular rate matrix, in the
    module's left-to-right order.

    Raises SingularMatrix if any diagonal entry is (near-)zero, the
    inadmissible partial-connectivity case.
    """
    rhs = np.asarray(rhs, dtype=float)
    n = rm.m + 1
    if rhs.shape != (n,):
        raise ValueError(f"rhs must have length {n}, got shape {rhs.shape}")
    a = rm.entries
    diag = np.diag(a)
    if np.any(np.abs(diag) <= SINGULARITY_TOL):
        raise SingularMatrix(
            f"zero diagonal at position {int(np.argmin(np.abs(diag)))}"
        )
    x = []
    for i, (row, b) in enumerate(zip(a.tolist(), rhs.tolist())):
        acc = 0.0
        for aij, xj in zip(row, x):
            acc += aij * xj
        x.append((b - acc) / row[i])
    return np.array(x)


@np.errstate(over="ignore", invalid="ignore")
def allocate(rm: RateMatrix, subset: RelaySubset) -> AllocationResult:
    """Equalizing allocation, achievable rate, and feasibility for one subset.

    Solves for the unnormalized slots u = rm^-1 1 and hands them to ``judge``.
    Admissible capacities far apart in magnitude can overflow the solve;
    the inf or NaN slots that result are judge's to reject.
    """
    try:
        u = solve_lower_triangular(rm, np.ones(rm.m + 1))
    except SingularMatrix:
        return judge(subset, None)
    return judge(subset, u, np.cumsum(u)[-1])


def judge(
    subset: RelaySubset, u: np.ndarray | tuple | None, s: float | None = None
) -> AllocationResult:
    """The feasibility verdict of one subset, from its unnormalized slots.

    ``u`` solves ``rate_matrix @ u = 1``, or is None when the matrix is
    singular, and ``s`` is its sum: the rate is R = 1/s and the slot
    durations are t = u/s.  The verdict is, in order: singular; else R <= 0
    (``s <= 0``); else a nonpositive slot unless every ``u_i / s`` exceeds
    TIME_TOL.  No comparison with NaN holds, so a NaN slot sum falls in the
    last bucket instead of passing, and its rate is None, like a zero sum's.
    ``node_rates`` is the same verdict on blocks of nodes.  Every scalar
    AllocationResult but ``equal_time_select``'s comes from here.

    The verdict runs on Python floats: a subset has at most N + 1 slots, too
    few for numpy calls to pay for themselves.
    """
    if u is None:
        return AllocationResult(
            subset=subset, times=None, rate=None, feasible=False,
            reject_reason=RejectReason.SINGULAR,
        )
    s = float(s)
    q = _ratios(_floats(u), s)
    rate = None if s == 0.0 or s != s else 1.0 / s
    times = _renormalized(q)
    if s <= 0.0:
        return AllocationResult(
            subset=subset, times=times, rate=rate, feasible=False,
            reject_reason=RejectReason.NEGATIVE_RATE,
        )
    for i, x in enumerate(q):
        if not x > TIME_TOL:
            return AllocationResult(
                subset=subset, times=times, rate=rate, feasible=False,
                reject_reason=RejectReason.NONPOSITIVE_TIME, reject_index=i,
            )
    return AllocationResult(subset=subset, times=times, rate=rate, feasible=True)


# Where a node's verdict is feasible, its rate is 1.0 / s; elsewhere NaN / s
_VERDICT_NUMERATOR = np.array([np.nan, 1.0])


def node_rates(s: np.ndarray, min_u: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``judge`` on a (k, T) block of nodes: rates 1/s, NaN where rejected.

    ``s`` and ``min_u`` are the sum and the minimum of each node's
    unnormalized slots; the verdict order is judge's: rate <= 0 (``s <=
    0``), then the smallest slot over ``s`` must exceed TIME_TOL.  A
    singular node comes with NaN slots, hence a NaN ``s``, which fails both
    tests.  Adds each trial's count of rate <= 0 and of feasible nodes to
    ``counts[0..1]``, a (2, T) uint8 buffer, by a same-type add: of the
    flag planes themselves for a one-row block, else of their uint8 sums
    over the k rows.  A block adds at most k to an entry, so the caller
    empties the buffer into its wider totals before 255 rows in all could
    overflow it.  The caller also counts the singular nodes and derives the
    nonpositive-slot rejects, the nodes left over, once.

    A rejected node's rate is NaN, which ``_Best.offer`` treats as no
    candidate.  The rates are one gather from ``[nan, 1.0]`` by the verdict
    and a divide by ``s``, so no masked copy is made and a feasible rate is
    ``1.0 / s`` bit for bit.
    """
    # the two verdicts share one buffer, so one sum counts them both
    flags = np.empty((2, *s.shape), dtype=bool)
    negative = np.less_equal(s, 0.0, out=flags[0])
    # min_u / s > TIME_TOL and not rate <= 0; a NaN s fails both, as in judge
    feasible = np.greater(min_u / s, TIME_TOL, out=flags[1])
    np.greater(feasible, negative, out=feasible)
    planes = flags.view(np.uint8)
    counts += planes[:, 0] if len(s) == 1 else np.add.reduce(planes, axis=1, dtype=np.uint8)
    rate = _VERDICT_NUMERATOR.take(feasible.view(np.uint8))
    rate /= s
    return rate


def copy_where(dst: np.ndarray, src, select: np.ndarray) -> None:
    """``np.copyto(dst, src, where=mask)`` bit for bit, without a branch per
    element: ``dst ^ ((dst ^ src) & select)`` on the int64 views.

    ``dst`` holds 8-byte floats or ints, ``src`` broadcasts to it, and
    ``select`` is the int64 ``select_mask`` of a boolean mask of ``dst``'s
    shape, built once for several writes under the same mask.  A masked
    copy branches on every element, so it is slowest on mixed masks: on
    16025 float64s (a sweep-deep block) it took 2 us at 0% true, 25 us at
    10% and 99 us at 50%, while these three passes took 23-30 us whatever
    the mask (2-vCPU host, numpy 2.4).
    """
    bits = dst.view(np.int64)
    diff = np.bitwise_xor(bits, np.asarray(src, dtype=dst.dtype).view(np.int64))
    diff &= select
    bits ^= diff


def select_mask(mask: np.ndarray) -> np.ndarray:
    """A boolean mask as int64 0 or -1 (every bit set), for ``copy_where``."""
    return np.negative(mask.view(np.int8), dtype=np.int64)


def slot_times(u: np.ndarray, s: float) -> TimeAllocation | None:
    """Slot durations from unnormalized slots ``u`` with sum ``s``.

    ``u / s`` is renormalized once more, which keeps the durations summing to
    one to machine precision even for badly scaled solutions.  Returns None
    when the durations are not finite (``s`` is zero, or the solution
    cancels so exactly that renormalizing overflows).
    """
    return _renormalized(_ratios(_floats(u), float(s)))


def _floats(u) -> list[float]:
    """The entries of a slot vector, as Python floats."""
    if isinstance(u, np.ndarray):
        return u.astype(float, copy=False).tolist()
    return [float(x) for x in u]


def _ratios(u: list[float], s: float) -> list[float]:
    """``u_i / s`` as numpy divides.  A zero ``s``, on which Python raises,
    gives NaN throughout in place of numpy's inf or NaN: no slot duration is
    finite either way."""
    if s == 0.0:
        return [math.nan] * len(u)
    return [x / s for x in u]


# Below this, a sum of slot magnitudes bounds every partial sum in any order
# away from overflow: half the largest float.
_SUM_SAFE = 2.0**1023


def _renormalized(q: list[float]) -> TimeAllocation | None:
    """``TimeAllocation(t / t.sum())`` for ``t = q``, or None unless every
    duration is finite.

    The sum is numpy's ``t.sum()``, in its pairwise order, so durations are
    bit-identical to those of a numpy renormalization.  Finiteness is tested
    first: a sum over inf or NaN would warn.  Slots whose magnitudes sum
    beyond half the float range can overflow the sum, and only for them is
    numpy's overflow warning silenced; an overflowing sum gives zeros, which
    TimeAllocation refuses.
    """
    t = np.array(q)
    if sum(map(abs, q)) < _SUM_SAFE:
        total = float(t.sum())
    elif not all(map(math.isfinite, q)):
        return None
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            total = float(t.sum())
    if total == 0.0 or total != total:
        # no duration is finite; an empty vector is refused as such
        return TimeAllocation(t) if not q else None
    t = [x / total for x in q]
    return TimeAllocation(t) if all(map(math.isfinite, t)) else None


def verify_equalization(rm: RateMatrix, result: AllocationResult) -> float:
    """Max absolute deviation of any mutual information from the rate."""
    if not result.feasible:
        raise ValueError("equalization is only defined for feasible results")
    info = mutual_informations(rm, result.times.t)
    return float(np.max(np.abs(info - result.rate)))

