"""Equalizing time allocation for a single relay subset.

Solving ``rate_matrix @ t = R * 1`` equalizes the mutual information at every
relay and at the destination, which is the unique interior max-min optimum
for that subset.  The solve is one forward substitution; the full inverse is
only ever materialized by the selector's incremental-inverse API.
"""

from __future__ import annotations

import enum
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
        t = np.asarray(self.t, dtype=float)
        if t.ndim != 1 or t.size == 0:
            raise ValueError("time allocation must be a nonempty vector")
        if not np.all(np.isfinite(t)):
            raise ValueError(f"slot durations must be finite, got {t}")
        # scale-aware gate: for feasible vectors (all positive) the scale is 1
        # and this is an absolute 1e-12 check; rejected solutions may carry
        # huge cancelling entries whose float sum cannot do better than this
        if abs(t.sum() - 1.0) > 1e-12 * max(1.0, np.abs(t).sum()):
            raise ValueError(f"slot durations must sum to 1, got {t.sum()!r}")
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
    matrices, for a zero slot sum, and when renormalizing overflows, which
    exact cancellations (small-integer capacities) can cause.
    """

    subset: RelaySubset
    times: TimeAllocation | None
    rate: float | None
    feasible: bool
    reject_reason: RejectReason = RejectReason.NONE
    reject_index: int | None = None


def solve_lower_triangular(rm: RateMatrix, rhs: np.ndarray) -> np.ndarray:
    """Forward substitution for a lower-triangular rate matrix.

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
    x = np.empty(n)
    for i in range(n):
        acc = a[i, :i] @ x[:i] if i else 0.0
        x[i] = (rhs[i] - acc) / a[i, i]
    return x


def allocate(rm: RateMatrix, subset: RelaySubset) -> AllocationResult:
    """Equalizing allocation, achievable rate, and feasibility for one subset.

    The unnormalized solution u = rm^-1 1 is renormalized into slot durations
    t = u / sum(u) with rate R = 1 / sum(u).  The subset is rejected when the
    matrix is singular, when R <= 0, or when any slot duration is below
    TIME_TOL.
    """
    try:
        u = solve_lower_triangular(rm, np.ones(rm.m + 1))
    except SingularMatrix:
        return AllocationResult(
            subset=subset, times=None, rate=None, feasible=False,
            reject_reason=RejectReason.SINGULAR,
        )
    s = u.sum()
    rate = 1.0 / s if s != 0.0 else None
    times = slot_times(u, s)
    if s <= 0.0:
        return AllocationResult(
            subset=subset, times=times, rate=rate, feasible=False,
            reject_reason=RejectReason.NEGATIVE_RATE,
        )
    if times is None:
        # at a positive rate, durations overflow only when some slot dwarfs
        # the slot sum, which takes another slot far below zero
        return AllocationResult(
            subset=subset, times=None, rate=rate, feasible=False,
            reject_reason=RejectReason.NONPOSITIVE_TIME,
        )
    bad = np.nonzero(times.t <= TIME_TOL)[0]
    if bad.size:
        return AllocationResult(
            subset=subset, times=times, rate=rate, feasible=False,
            reject_reason=RejectReason.NONPOSITIVE_TIME, reject_index=int(bad[0]),
        )
    return AllocationResult(subset=subset, times=times, rate=rate, feasible=True)


def slot_times(u: np.ndarray, s: float) -> TimeAllocation | None:
    """Slot durations from unnormalized slots ``u`` with sum ``s``.

    ``u / s`` is renormalized once more, which keeps the durations summing to
    one to machine precision even for badly scaled solutions.  Returns None
    when the durations are not finite (``s`` is zero, or the solution
    cancels so exactly that renormalizing overflows).
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        t = u / s
        t = t / t.sum()
    return TimeAllocation(t) if np.all(np.isfinite(t)) else None


def verify_equalization(rm: RateMatrix, result: AllocationResult) -> float:
    """Max absolute deviation of any mutual information from the rate."""
    if not result.feasible:
        raise ValueError("equalization is only defined for feasible results")
    info = mutual_informations(rm, result.times.t)
    return float(np.max(np.abs(info - result.rate)))

