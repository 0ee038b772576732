"""Per-link capacities and per-subset rate matrices.

Node indexing convention used throughout the package: the source is node 0,
relays are nodes 1..N in transmission order, and the destination is node N+1.
All capacities are in bits/symbol on a linear SNR scale (dB conversion, if
any, happens at the CLI boundary).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


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

    ``caps[i, j]`` is the capacity of the i -> j link in bits/symbol.
    Links masked out in ``link_mask`` are exactly zero; the diagonal is
    unused and kept at zero.
    """

    n_relays: int
    caps: np.ndarray
    link_mask: np.ndarray

    def __post_init__(self):
        caps = np.asarray(self.caps, dtype=float)
        mask = np.asarray(self.link_mask, dtype=bool)
        n = self.n_relays + 2
        if caps.shape != (n, n) or mask.shape != (n, n):
            raise ValueError(
                f"expected ({n}, {n}) arrays for {self.n_relays} relays, "
                f"got caps {caps.shape}, mask {mask.shape}"
            )
        if not np.all(np.isfinite(caps)):
            raise ValueError("capacities must be finite")
        if np.any(caps < 0):
            raise ValueError("capacities must be nonnegative")
        if np.any(caps[~mask] != 0.0):
            raise ValueError("masked-out links must have capacity exactly 0")
        caps.setflags(write=False)
        mask.setflags(write=False)
        object.__setattr__(self, "caps", caps)
        object.__setattr__(self, "link_mask", mask)

    @property
    def source(self) -> int:
        return 0

    @property
    def destination(self) -> int:
        return self.n_relays + 1

    @property
    def direct_capacity(self) -> float:
        """Capacity of the source-destination link."""
        return float(self.caps[0, self.n_relays + 1])


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

    m: int
    entries: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=float)
        if e.shape != (self.m + 1, self.m + 1):
            raise ValueError(f"expected ({self.m + 1}, {self.m + 1}) entries, got {e.shape}")
        if np.any(e[np.triu_indices(self.m + 1, k=1)] != 0.0):
            raise ValueError("rate matrix must be lower-triangular")
        e.setflags(write=False)
        object.__setattr__(self, "entries", e)

    @property
    def diagonal(self) -> np.ndarray:
        return np.diag(self.entries)


def link_capacity(snr: SnrConfig, channel_power: float) -> float:
    """Shannon capacity log2(1 + snr * |a|^2) of a single link, bits/symbol."""
    if channel_power < 0:
        raise ValueError(f"channel power must be nonnegative, got {channel_power}")
    return float(np.log2(1.0 + snr.snr_scalar * channel_power))


def build_capacity_matrix(
    channel_powers: np.ndarray,
    mask: np.ndarray | None,
    snr: SnrConfig,
) -> LinkCapacityMatrix:
    """Apply `link_capacity` elementwise, zeroing masked links and the diagonal.

    ``mask=None`` means fully connected.
    """
    powers = np.asarray(channel_powers, dtype=float)
    if powers.ndim != 2 or powers.shape[0] != powers.shape[1]:
        raise ValueError(f"channel powers must be square, got shape {powers.shape}")
    n = powers.shape[0]
    if n < 2:
        raise ValueError("need at least source and destination nodes")
    if mask is None:
        mask = np.ones((n, n), dtype=bool)
    else:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != powers.shape:
            raise ValueError(f"mask shape {mask.shape} != powers shape {powers.shape}")
    if np.any(powers < 0):
        raise ValueError("channel powers must be nonnegative")
    mask = mask.copy()
    np.fill_diagonal(mask, False)
    caps = np.where(mask, np.log2(1.0 + snr.snr_scalar * powers), 0.0)
    return LinkCapacityMatrix(n_relays=n - 2, caps=caps, link_mask=mask)


def build_rate_matrix(caps: LinkCapacityMatrix, subset: RelaySubset) -> RateMatrix:
    """Assemble the lower-triangular rate matrix of one relay subset.

    Row k of the result lists what the (k+1)-th subset relay receives during
    the slots of the source and of the relays transmitting before it; the
    last row is what the destination receives over all slots.  The empty
    subset yields the 1x1 matrix holding the direct-link capacity.
    """
    subset.validate_for(caps)
    m = len(subset)
    tx = [0, *subset.indices]                     # transmitter of each slot
    rx = [*subset.indices, caps.destination]      # receiver of each row
    entries = caps.caps[np.ix_(tx, rx)].T.copy()
    entries[np.triu_indices(m + 1, k=1)] = 0.0
    return RateMatrix(m=m, entries=entries)


def mutual_informations(rm: RateMatrix, t: np.ndarray) -> np.ndarray:
    """Mutual information accumulated by each receiver for slot durations ``t``."""
    t = np.asarray(t, dtype=float)
    if t.shape != (rm.m + 1,):
        raise ValueError(f"expected {rm.m + 1} slot durations, got shape {t.shape}")
    if not np.all(np.isfinite(t)):
        raise ValueError("slot durations must be finite")
    return rm.entries @ t
