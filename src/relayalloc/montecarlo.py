"""Seeded outage-rate experiments over fading realizations.

Trials are embarrassingly parallel: every (pair, trial) channel draw comes
from its own counter-based substream, which a worker seeks to its first
trial, and the same substreams are reused at every SNR point (common random
numbers).

One exact integer splitter, ``_ranges``, cuts the trials into worker ranges
and each range into blocks.  A worker is sent the experiment and its range,
derives the rest, and evaluates its range in blocks, each as large as
BLOCK_BYTES allows for what a block allocates: the drawn powers per trial,
freed before the selectors run, and per column (a trial at one SNR point)
the capacity stack and the selectors' walk state.  The SNR axis is folded
into the batch axis, so a block of C trials is one call per selector on an
(S*C, n, n) capacity stack, with the trial axis vectorized.  The stack is
link-major: it is the transposed view of an (n, n, S*C) array, so each
link's values over the block are contiguous, and only the links i < j that
the selectors read (from an earlier to a later node in the transmission
order) are computed.  Every block's stack is the C-contiguous prefix of one
buffer per worker, sized for its largest block, so no block allocates or
zero-fills a stack of its own; the entries the selectors never read keep
whatever an earlier block left.  Each block's draws key one Philox bit
generator to every link's stream in turn.
The worker keeps only what the curves need: per mode and SNR point, the
k = ceil(epsilon*T) smallest rates and the sums of the active relay counts
and reject counters.  Memory per worker is thus bounded by the block and
by k, not by T.  The parent merges the parts and takes the k-th smallest
rate; every step is exact, so results are bit-identical for any worker
count and block size.
"""

from __future__ import annotations

import json
import math
import os
from collections.abc import Iterator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .rate_model import snr_from_db
from .scenario import (
    NumberingScheme,
    Topology,
    check_seed,
    check_snr,
    draw_channel_powers_keyed,
    fading_params,
    trial_orders,
)
from .selector import NoFeasibleSolution, batch_equal_time, batch_optimized

MODES = ("optimized", "equal_time")

REJECT_KEYS = ("singular", "negative_rate", "nonpositive_time")

# Byte budget of one block: 6.4 MiB, what a sweep-deep block (n = 4 nodes,
# S = 5 SNR points, 3276 trials) is charged by this model.  A block of C
# trials on n = N + 2 nodes is charged C * (S * 16(n+1)^2 + 4n(n-1)) bytes:
#   * per trial, 4n(n-1), for the draw, shared by every SNR point.  Its
#     (n, n) float64 powers, 8n^2 per trial, are alive while the stack is
#     built and freed before the selectors run, so the 4n(n+1) by which
#     they exceed this charge fits in the per-column walk-state share
#     below, which is not yet allocated then.  By tracemalloc the build
#     peaks at under 82% of BLOCK_BYTES for N = 0..11 at S = 1 and 5;
#   * per column (a trial at one SNR point), 16(n+1)^2: the (n, n) float64
#     capacity stack, 8n^2, a prefix of one worker buffer sized for the
#     worker's largest block, and the selectors' walk state.  That is the best
#     rate and subset and the reject counts, and for the nodes on the
#     walk's path and the siblings waiting on its stack, their rows of h,
#     slot sums and minima: by tracemalloc at most 8n^2 + 150 bytes, and
#     under 8n^2 + 32n + 16 at every n measured (2..13).
# The charge exceeds tracemalloc's per-column figure by 4-8% at n = 2..4 and
# about 10% at n = 11..13.  tests/test_montecarlo.py checks one block's peak
# against BLOCK_BYTES for N = 0..11 at S = 1 and 5.  Larger blocks spread
# each selector call's fixed cost, 2^(N-1) node visits of a few numpy calls
# each, over more columns: at N = 9 a `batch_optimized` call takes 7.6 ms at
# 8 columns and 30 ms at 2500 (2-vCPU host).
BLOCK_BYTES = 32 * 2**20 // 5


class InsufficientSamples(ValueError):
    """Too few samples to resolve the requested outage probability."""


@dataclass(frozen=True)
class OutageCurve:
    """Outage rate and mean active-relay count across an SNR grid, one mode."""

    snr_grid_db: tuple[float, ...]
    outage_rate: tuple[float, ...]
    avg_active: tuple[float, ...]
    n_trials: int
    epsilon: float
    mode: str
    reject_totals: dict[str, tuple[int, ...]] | None = None

    @property
    def snr_grid(self) -> tuple[float, ...]:
        """The grid's linear SNR values."""
        return tuple(snr_from_db(v) for v in self.snr_grid_db)


def outage_rate(
    samples: np.ndarray, epsilon: float, n_samples: int | None = None
) -> float:
    """Empirical epsilon-outage rate: the ceil(epsilon*n)-th smallest of n samples.

    ``samples`` holds all n samples, or, when ``n_samples`` gives n, at
    least the ceil(epsilon*n) smallest of them.
    """
    samples = np.asarray(samples, dtype=float)
    k = _outage_rank(epsilon, samples.size if n_samples is None else n_samples)
    if k > samples.size:
        raise ValueError(f"rank {k} needs more than the {samples.size} samples given")
    return float(np.partition(samples, k - 1)[k - 1])


def _outage_rank(epsilon: float, n: int) -> int:
    """ceil(epsilon * n), with epsilon read as the decimal it is written as.

    The float product can land one ulp above an integer: 0.07 * 100 is
    7.000000000000001, whose ceiling is 8, where the decimal 0.07 gives 7.
    The exact product of the float's shortest repr is taken instead, for the
    rank and for the too-few-samples test alike.
    """
    # imported here: with the decimal module it takes about 3 ms, which
    # every import of the package would otherwise pay
    from fractions import Fraction

    rank = Fraction(repr(float(epsilon))) * n
    if rank < 1:
        raise InsufficientSamples(
            f"{n} samples cannot resolve outage probability {epsilon}"
        )
    return math.ceil(rank)


def sweep(
    topology: Topology,
    scheme: NumberingScheme,
    snr_grid_db: list[float],
    n_trials: int,
    epsilon: float,
    base_seed: int,
    modes: tuple[str, ...] = MODES,
    parallel: int = 1,
) -> dict[str, OutageCurve]:
    """Outage curves over an SNR grid (given in dB), one per requested mode;
    a mode named twice is evaluated once.

    The same per-trial channel draws are used at every grid point, and work
    is split into ``parallel`` contiguous trial ranges, run on at most one
    process per CPU.  Each range yields, per mode and SNR point, its
    k = ceil(epsilon*n_trials) smallest rates and its counter sums; the merge
    is exact, so results are bit-identical for any ``parallel``.
    """
    if not snr_grid_db:
        raise ValueError("snr grid must be nonempty")
    if not 0.0 < epsilon <= 1.0:
        raise ValueError(f"epsilon must be in (0, 1], got {epsilon}")
    if parallel < 1:
        raise ValueError(f"parallel must be at least 1, got {parallel}")
    check_seed(base_seed)
    snr_db = tuple(float(v) for v in snr_grid_db)
    for v in snr_db:
        snr_from_db(v)  # refuses a dB value with no finite linear SNR
    if n_trials <= 0:
        raise ValueError(f"n_trials must be positive, got {n_trials}")
    # each trial adds up to 2^N rejects to an int64 total
    if topology.n_relays >= 63:
        raise ValueError(f"a sweep needs fewer than 63 relays, got {topology.n_relays}")
    limit = 2**63 >> topology.n_relays
    if n_trials >= limit:
        raise ValueError(f"n_trials must be below 2^63 / 2^N = {limit}, got {n_trials}")
    rank = _outage_rank(epsilon, n_trials)
    if not modes:
        raise ValueError("modes must be nonempty")
    for m in modes:
        if m not in MODES:
            raise ValueError(f"unknown mode {m!r}")
    modes = tuple(dict.fromkeys(modes))

    # at most one range per trial, so no range is empty
    jobs = [
        (topology, scheme, snr_db, base_seed, modes, rank, a, b - a)
        for a, b in _ranges(0, n_trials, min(parallel, n_trials))
    ]
    # a pool starts all its workers at once, so at most one per range and per CPU
    workers = min(len(jobs), os.cpu_count() or 1)
    if workers == 1:
        parts = [_fold_trials(*job) for job in jobs]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_fold_trials, *zip(*jobs)))

    curves: dict[str, OutageCurve] = {}
    for m in modes:
        low = np.concatenate([p[m]["low"] for p in parts], axis=1)
        sums = {key: sum(p[m][key] for p in parts) for key in parts[0][m] if key != "low"}
        curves[m] = OutageCurve(
            snr_grid_db=snr_db,
            outage_rate=tuple(outage_rate(row, epsilon, n_trials) for row in low),
            avg_active=tuple(float(v) / n_trials for v in sums["n_active"]),
            n_trials=n_trials,
            epsilon=epsilon,
            mode=m,
            reject_totals=(
                {k: tuple(int(v) for v in sums["n_" + k]) for k in REJECT_KEYS}
                if m == "optimized"
                else None
            ),
        )
    return curves


def _block_trials(n_snr: int, n_nodes: int) -> int:
    """Most trials whose block fits in BLOCK_BYTES by the model stated there, at least 1."""
    per_column = 16 * (n_nodes + 1) ** 2
    per_trial = 4 * n_nodes * (n_nodes - 1)
    return max(1, BLOCK_BYTES // (n_snr * per_column + per_trial))


def _ranges(start: int, count: int, parts: int) -> Iterator[tuple[int, int]]:
    """``parts`` contiguous ranges [a, b) covering [start, start+count), sizes within one."""
    for i in range(parts):
        yield start + count * i // parts, start + count * (i + 1) // parts


def _smallest(rates: np.ndarray, k: int) -> np.ndarray:
    """The k smallest entries of each row of (S, T) ``rates``, unordered; all if T <= k."""
    if rates.shape[1] <= k:
        return rates
    return np.partition(rates, k - 1, axis=1)[:, :k]


def _fold_trials(
    topology: Topology,
    scheme: NumberingScheme,
    snr_db: tuple[float, ...],
    base_seed: int,
    modes: tuple[str, ...],
    k: int,
    start: int,
    count: int,
) -> dict[str, dict[str, np.ndarray]]:
    """One worker's trials [start, start+count), reduced to what the curves need.

    Per mode, arrays over the SNR grid: ``low`` (S, min(k, count)), the
    smallest rates, and the sums over trials of ``n_active`` and, for the
    optimized mode, of the reject counters.  Rates are cut back to the k
    smallest once 2k are held, so the cost stays linear in ``count``.
    """
    low: dict[str, list[np.ndarray]] = {m: [] for m in modes}
    sums: dict[str, dict[str, np.ndarray]] = {m: {} for m in modes}
    for block in _evaluate_blocks(topology, scheme, snr_db, base_seed, modes, start, count):
        for m, res in block.items():
            low[m].append(res.pop("rate"))
            if sum(r.shape[1] for r in low[m]) >= 2 * k:
                low[m] = [_smallest(np.concatenate(low[m], axis=1), k)]
            for key, arr in res.items():
                sums[m][key] = sums[m].get(key, 0) + arr.sum(axis=1)
    return {
        m: {"low": _smallest(np.concatenate(low[m], axis=1), k), **sums[m]}
        for m in modes
    }


def _evaluate_blocks(
    topology: Topology,
    scheme: NumberingScheme,
    snr_db: tuple[float, ...],
    base_seed: int,
    modes: tuple[str, ...],
    start: int,
    count: int,
) -> Iterator[dict[str, dict[str, np.ndarray]]]:
    """Evaluate trials [start, start+count) in the fewest blocks of at most ``_block_trials``.

    Yields, per ``_ranges`` block in trial order, each mode's per-trial selector arrays
    (``best_id`` dropped) shaped (S, C).  The SNR axis is folded into the
    batch axis: a block is one selector call per mode on an (S*C, n, n)
    link-major stack.
    """
    params = fading_params(topology)
    n = params.lam.shape[0]
    snr = np.array([snr_from_db(v) for v in snr_db])[:, None]
    check_snr(params, max(snr_db))
    blocks = -(-count // _block_trials(len(snr_db), n))
    # every block's stack is the C-contiguous prefix of this one buffer,
    # sized for the largest block; its diagonal and lower triangle are never
    # written, since the selectors never read them
    buffer = np.empty(n * n * len(snr_db) * -(-count // blocks))
    for a, b in _ranges(start, count, blocks):
        powers = draw_channel_powers_keyed(params, base_seed, b - a, a)
        orders = trial_orders(powers, topology, scheme, base_seed, a)
        # each trial's nodes in transmission order, one column per trial (a
        # single column for a shared order, broadcast over the trials)
        node = np.empty((n, len(orders)), dtype=np.intp)
        node[0], node[1:-1], node[-1] = 0, orders.T, n - 1
        powers = powers.transpose(1, 2, 0)  # link-major: (n, n, C), C-contiguous
        trials = np.arange(b - a)
        # link-major stack, a prefix of the worker buffer: transmitter i's
        # links to the later nodes are one contiguous (n-1-i, S, C) run
        stack = buffer[: n * n * len(snr_db) * (b - a)].reshape(n, n, len(snr_db), b - a)
        for i in range(n - 1):
            row = stack[i, i + 1:]
            np.multiply(powers[node[i], node[i + 1:], trials][:, None], snr, out=row)
            row += 1.0
            np.log2(row, out=row)
        del powers, orders, node, trials  # freed before the selectors run
        caps = stack.reshape(n, n, -1).transpose(2, 0, 1)
        out: dict[str, dict[str, np.ndarray]] = {}
        for m in modes:
            select = batch_optimized if m == "optimized" else batch_equal_time
            try:
                res = select(caps)
            except NoFeasibleSolution as exc:
                s, i = divmod(exc.trial, b - a)
                raise NoFeasibleSolution(
                    f"trial {a + i} at {snr_db[s]:g} dB has no feasible subset"
                ) from None
            out[m] = {
                key: arr.reshape(len(snr_db), b - a)
                for key, arr in res.items()
                if key != "best_id"
            }
        yield out


# -- output formats -----------------------------------------------------------

CSV_HEADER = (
    "snr_db,outage_rate_optimized,outage_rate_equal_time,"
    "avg_active_optimized,avg_active_equal_time"
)


def _fmt(value: float | None) -> str:
    return "nan" if value is None else format(value, ".9g")


def curves_to_csv(curves: dict[str, OutageCurve], config_echo: dict) -> str:
    """Fixed-schema CSV with the resolved configuration echoed in a comment."""
    some = next(iter(curves.values()))
    opt = curves.get("optimized")
    eq = curves.get("equal_time")
    lines = [
        "# config: " + json.dumps(config_echo, sort_keys=True),
        CSV_HEADER,
    ]
    for s, db in enumerate(some.snr_grid_db):
        lines.append(
            ",".join(
                [
                    _fmt(db),
                    _fmt(opt.outage_rate[s] if opt else None),
                    _fmt(eq.outage_rate[s] if eq else None),
                    _fmt(opt.avg_active[s] if opt else None),
                    _fmt(eq.avg_active[s] if eq else None),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def curves_to_json(curves: dict[str, OutageCurve], config_echo: dict) -> str:
    """Full experiment record: config echo, curves, and reject counters."""
    doc = {"config": config_echo, "curves": {}}
    for mode, c in curves.items():
        doc["curves"][mode] = {
            "snr_db": list(c.snr_grid_db),
            "snr_linear": list(c.snr_grid),
            "outage_rate": list(c.outage_rate),
            "avg_active": list(c.avg_active),
            "n_trials": c.n_trials,
            "epsilon": c.epsilon,
            "reject_totals": (
                {k: list(v) for k, v in c.reject_totals.items()}
                if c.reject_totals
                else None
            ),
        }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
