"""Per-link capacities and per-subset rate matrices.

Node indexing convention used throughout the package: the source is node 0,
relays are nodes 1..N in transmission order, and the destination is node N+1.
All capacities are in bits/symbol on a linear SNR scale; ``snr_from_db``
converts the dB values that the sweep and the CLI take.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def snr_from_db(db: float) -> float:
    """Linear SNR of a dB value; ValueError unless both are finite.

    Very negative values underflow to 0.0, on which every link is absent.
    """
    db = float(db)
    if math.isfinite(db):
        try:
            return 10.0 ** (db / 10.0)
        except OverflowError:
            pass
    raise ValueError(f"snr_db {db:g} has no finite linear SNR")


@dataclass(frozen=True)
class SnrConfig:
    """Composite transmit SNR P/(N0*W), linear scale."""

    snr_scalar: float

    def __post_init__(self):
        if not (self.snr_scalar > 0 and math.isfinite(self.snr_scalar)):
            raise ValueError(f"snr_scalar must be positive and finite, got {self.snr_scalar}")


@dataclass(frozen=True)
class LinkCapacityMatrix:
    """Shannon capacities of every directed link for one fading realization.

    ``caps[i, j]`` is the capacity of the i -> j link in bits/symbol, for
    N relays an (N+2, N+2) matrix.  A capacity at or below SINGULARITY_TOL
    is an absent link; the diagonal is unused.
    """

    caps: np.ndarray

    def __post_init__(self):
        caps = np.array(self.caps, dtype=float)  # copied: the caller's array stays writeable
        if caps.ndim != 2 or caps.shape[0] != caps.shape[1] or caps.shape[0] < 2:
            raise ValueError(
                f"capacities must be a square matrix of at least 2x2, got shape {caps.shape}"
            )
        # NaN fails both tests; the checks below only name what failed
        if not (np.minimum.reduce(caps, axis=None) >= 0.0
                and np.maximum.reduce(caps, axis=None) < math.inf):
            if not np.all(np.isfinite(caps)):
                raise ValueError("capacities must be finite")
            raise ValueError("capacities must be nonnegative")
        caps.setflags(write=False)
        object.__setattr__(self, "caps", caps)

    @property
    def n_relays(self) -> int:
        return self.caps.shape[0] - 2

    @property
    def destination(self) -> int:
        return self.caps.shape[0] - 1

    @property
    def direct_capacity(self) -> float:
        """Capacity of the source-destination link."""
        return float(self.caps[0, -1])


@dataclass(frozen=True)
class RelaySubset:
    """Strictly ascending relay indices; ascending order is transmission order."""

    indices: tuple[int, ...] = ()

    def __post_init__(self):
        idx = tuple(int(i) for i in self.indices)
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise ValueError(f"relay indices must be strictly ascending, got {idx}")
        if idx and idx[0] < 1:
            raise ValueError(f"relay indices start at 1, got {idx}")
        object.__setattr__(self, "indices", idx)

    def validate_for(self, caps: LinkCapacityMatrix) -> None:
        if self.indices and self.indices[-1] > caps.n_relays:
            raise ValueError(
                f"subset {self.indices} exceeds relay pool of size {caps.n_relays}"
            )

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self):
        return iter(self.indices)


@dataclass(frozen=True)
class RateMatrix:
    """Lower-triangular system matrix for one relay subset.

    Row r < m is the receiving relay in position r of the subset, the last
    row is the destination.  Column c is the time slot of transmitter c
    (column 0 is the source slot).  The matrix is invertible iff every
    diagonal entry is positive.
    """

    entries: np.ndarray

    def __post_init__(self):
        e = np.array(self.entries, dtype=float)  # copied: the caller's array stays writeable
        if e.ndim != 2 or e.shape[0] != e.shape[1] or not e.size:
            raise ValueError(f"rate matrix must be square and nonempty, got shape {e.shape}")
        if np.triu(e, 1).any():
            raise ValueError("rate matrix must be lower-triangular")
        e.setflags(write=False)
        object.__setattr__(self, "entries", e)

    @property
    def m(self) -> int:
        """Number of relays in the subset."""
        return self.entries.shape[0] - 1


def build_capacity_matrix(
    channel_powers: np.ndarray,
    mask: np.ndarray | None,
    snr: SnrConfig,
) -> LinkCapacityMatrix:
    """Shannon capacities log2(1 + snr * |a|^2) of every link, in bits/symbol,
    with masked links and the diagonal zeroed.

    ``mask=None`` means fully connected.
    """
    powers = np.asarray(channel_powers, dtype=float)
    if powers.ndim != 2 or powers.shape[0] != powers.shape[1]:
        raise ValueError(f"channel powers must be square, got shape {powers.shape}")
    n = powers.shape[0]
    if n < 2:
        raise ValueError("need at least source and destination nodes")
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != powers.shape:
            raise ValueError(f"mask shape {mask.shape} != powers shape {powers.shape}")
    # fmin skips NaN: a NaN power is refused only on an unmasked link, whose
    # capacity it makes non-finite
    if np.fmin.reduce(powers, axis=None) < 0:
        raise ValueError("channel powers must be nonnegative")
    caps = powers * snr.snr_scalar
    caps += 1.0
    np.log2(caps, out=caps)
    if mask is not None:
        np.copyto(caps, 0.0, where=~mask)
    caps.flat[:: n + 1] = 0.0  # the diagonal
    return LinkCapacityMatrix(caps)


def build_rate_matrix(caps: LinkCapacityMatrix, subset: RelaySubset) -> RateMatrix:
    """Assemble the lower-triangular rate matrix of one relay subset.

    Row k of the result lists what the (k+1)-th subset relay receives during
    the slots of the source and of the relays transmitting before it; the
    last row is what the destination receives over all slots.  The empty
    subset yields the 1x1 matrix holding the direct-link capacity.
    """
    subset.validate_for(caps)
    tx = [0, *subset.indices]                     # transmitter of each slot
    rx = [*subset.indices, caps.destination]      # receiver of each row
    return RateMatrix(np.tril(caps.caps[np.ix_(tx, rx)].T))


def mutual_informations(rm: RateMatrix, t: np.ndarray) -> np.ndarray:
    """Mutual information accumulated by each receiver for slot durations ``t``."""
    t = np.asarray(t, dtype=float)
    if t.shape != (rm.m + 1,):
        raise ValueError(f"expected {rm.m + 1} slot durations, got shape {t.shape}")
    if not np.all(np.isfinite(t)):
        raise ValueError("slot durations must be finite")
    return rm.entries @ t
