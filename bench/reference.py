"""Frozen reference results for the benchmark's correctness gate.

This module is a self-contained copy of the relayalloc algorithms as they
stood when the benchmark was defined: topology positions, per-pair keyed
Philox draws, the two numbering schemes the sweeps use, the vectorized
brute-force selector and the equal-time baseline.  It imports nothing from
relayalloc, so a later change to the program is checked against these
outputs and not against itself.  Only numpy is needed.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from numpy.random import Generator, Philox

PATH_LOSS_EXPONENT = 2.5
DEST_STREAM_KEY = 0xFFFFFFFF
SINGULARITY_TOL = 1e-300
TIME_TOL = 1e-12
RATE_TIE_TOL = 1e-9
CHUNK_TRIALS = 100_000


def subsets(n_relays: int) -> list[tuple[int, ...]]:
    """Relay subsets in (size, lexicographic) order, empty set first."""
    return [
        sub
        for m in range(n_relays + 1)
        for sub in itertools.combinations(range(1, n_relays + 1), m)
    ]


def positions(spec: dict) -> np.ndarray:
    """Node coordinates of a linear or grid topology spec (source first)."""
    if spec["type"] == "linear":
        n = int(spec["n_relays"])
        xs = np.arange(n + 2) / (n + 1)
        return np.column_stack([xs, np.zeros(n + 2)])
    if spec["type"] == "grid":
        k = int(spec["side"])
        relays = [
            (c / (k + 1), ((k + 1) / 2 - r) / (k + 1))
            for c in range(1, k + 1)
            for r in range(1, k + 1)
        ]
        return np.vstack([[0.0, 0.0], relays, [1.0, 0.0]])
    raise ValueError(f"reference has no topology {spec['type']!r}")


def mean_powers(pos: np.ndarray) -> np.ndarray:
    """Mean channel power d^-p_a per node pair, zero on the diagonal."""
    dist = np.sqrt(((pos[:, None, :] - pos[None, :, :]) ** 2).sum(axis=2))
    with np.errstate(divide="ignore"):
        mean = 1.0 / dist**PATH_LOSS_EXPONENT
    np.fill_diagonal(mean, 0.0)
    return mean


def keyed_powers(mean: np.ndarray, base_seed: int, n_trials: int) -> np.ndarray:
    """(T, n, n) symmetric exponential draws, one Philox stream per node pair."""
    n = mean.shape[0]
    powers = np.zeros((n_trials, n, n))
    for i in range(n):
        for j in range(i + 1, n):
            kj = DEST_STREAM_KEY if j == n - 1 else j
            key = np.array([base_seed & 0xFFFFFFFFFFFFFFFF, (i << 32) | kj], dtype=np.uint64)
            u = Generator(Philox(key=key)).random(n_trials)
            powers[:, i, j] = powers[:, j, i] = -mean[i, j] * np.log1p(-u)
    return powers


def average_descending_order(pos: np.ndarray) -> np.ndarray:
    """Columns toward the destination, top to bottom within a column."""
    relays = pos[1:-1]
    cols: dict[float, list[int]] = {}
    for idx in range(relays.shape[0]):
        cols.setdefault(round(relays[idx, 0], 9), []).append(idx)
    order = [i for x in sorted(cols) for i in sorted(cols[x], key=lambda i: -relays[i, 1])]
    return np.asarray(order, dtype=np.intp) + 1


def relay_relay_orders(powers: np.ndarray) -> np.ndarray:
    """Greedy strongest-next-hop chain from the source, per trial."""
    n_trials, n, _ = powers.shape
    n_relays = n - 2
    order = np.empty((n_trials, n_relays), dtype=np.intp)
    taken = np.zeros((n_trials, n_relays), dtype=bool)
    cur = np.zeros(n_trials, dtype=np.intp)
    rows = np.arange(n_trials)
    for step in range(n_relays):
        scores = powers[rows, cur, 1 : n_relays + 1].copy()
        scores[taken] = -np.inf
        nxt = np.argmax(scores, axis=1)
        order[:, step] = nxt + 1
        taken[rows, nxt] = True
        cur = nxt + 1
    return order


def _take_better(best_rate, best_id, rate, sid):
    """Strict improvement beyond the tie tolerance; earlier subsets win ties."""
    tol = RATE_TIE_TOL * np.maximum(
        1.0,
        np.maximum(
            np.where(np.isfinite(best_rate), np.abs(best_rate), 0.0),
            np.where(np.isfinite(rate), np.abs(rate), 0.0),
        ),
    )
    take = rate > best_rate + tol
    return np.where(take, rate, best_rate), np.where(take, sid, best_id)


def _rate_matrices(caps: np.ndarray, sub: tuple[int, ...]) -> np.ndarray:
    dest = caps.shape[1] - 1
    tx = np.array((0, *sub))
    rx = np.array((*sub, dest))
    return caps[:, tx[:, None], rx[None, :]].transpose(0, 2, 1)


def optimized(caps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Max-min equalized rate and best subset id per trial (brute force)."""
    n_trials = caps.shape[0]
    best_rate = np.full(n_trials, -np.inf)
    best_id = np.full(n_trials, -1, dtype=np.int64)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for sid, sub in enumerate(subsets(caps.shape[1] - 2)):
            m = len(sub)
            rm = _rate_matrices(caps, sub)
            diag = np.einsum("tii->ti", rm)
            singular = (diag <= SINGULARITY_TOL).any(axis=1)
            u = np.empty((n_trials, m + 1))
            for i in range(m + 1):
                acc = np.einsum("tj,tj->t", rm[:, i, :i], u[:, :i]) if i else 0.0
                u[:, i] = (1.0 - acc) / diag[:, i]
            s = u.sum(axis=1)
            t = u / s[:, None]
            feasible = ~singular & (s > 0.0) & ~(t.min(axis=1) <= TIME_TOL)
            rate = np.where(feasible, 1.0 / s, -np.inf)
            best_rate, best_id = _take_better(best_rate, best_id, rate, sid)
    if np.any(best_id < 0):
        raise ValueError("reference found a trial with no feasible subset")
    return best_rate, best_id


def equal_time(caps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Equal-slot rate and best subset id per trial."""
    n_trials = caps.shape[0]
    best_rate = np.full(n_trials, -np.inf)
    best_id = np.full(n_trials, -1, dtype=np.int64)
    for sid, sub in enumerate(subsets(caps.shape[1] - 2)):
        m = len(sub)
        rm = _rate_matrices(caps, sub) * np.tri(m + 1)
        rate = rm.sum(axis=2).min(axis=1) / (m + 1)
        best_rate, best_id = _take_better(best_rate, best_id, rate, sid)
    return best_rate, best_id


def outage(rates: np.ndarray, epsilon: float) -> float:
    """The ceil(epsilon*n)-th smallest rate."""
    k = math.ceil(epsilon * rates.size)
    return float(np.partition(rates, k - 1)[k - 1])


def sweep_reference(cfg: dict) -> dict:
    """Per-trial rates and subset sizes of a sweep config, both modes.

    Returns ``{mode: {"rate": (S, T), "n_active": (S, T)}}`` and the
    per-mode ``outage_rate`` and ``avg_active`` lists a sweep reports.
    """
    pos = positions(cfg["topology"])
    n_relays = pos.shape[0] - 2
    sizes = np.array([len(s) for s in subsets(n_relays)])
    powers = keyed_powers(mean_powers(pos), cfg["base_seed"], cfg["n_trials"])
    snr_lin = [10.0 ** (float(db) / 10.0) for db in cfg["snr_db"]]
    shape = (len(snr_lin), cfg["n_trials"])
    out = {m: {"rate": np.empty(shape), "n_active": np.empty(shape, dtype=np.int64)}
           for m in ("optimized", "equal_time")}
    for a in range(0, cfg["n_trials"], CHUNK_TRIALS):
        chunk = powers[a : a + CHUNK_TRIALS]
        count = chunk.shape[0]
        if cfg["scheme"] == "average_descending":
            orders = np.tile(average_descending_order(pos), (count, 1))
        elif cfg["scheme"] == "instantaneous_relay_relay":
            orders = relay_relay_orders(chunk)
        else:
            raise ValueError(f"reference has no scheme {cfg['scheme']!r}")
        idx = np.concatenate(
            [np.zeros((count, 1), np.intp), orders, np.full((count, 1), n_relays + 1, np.intp)],
            axis=1,
        )
        chunk = chunk[np.arange(count)[:, None, None], idx[:, :, None], idx[:, None, :]]
        for s, snr in enumerate(snr_lin):
            caps = np.log2(1.0 + snr * chunk)
            for mode, fn in (("optimized", optimized), ("equal_time", equal_time)):
                rate, best = fn(caps)
                out[mode]["rate"][s, a : a + count] = rate
                out[mode]["n_active"][s, a : a + count] = sizes[best]
    for rec in out.values():
        rec["outage_rate"] = [outage(r, cfg["epsilon"]) for r in rec["rate"]]
        rec["avg_active"] = [float(n.mean()) for n in rec["n_active"]]
    return out
