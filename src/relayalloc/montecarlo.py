"""Seeded outage-rate experiments over fading realizations.

Trials are embarrassingly parallel: every (pair, trial) channel draw comes
from its own counter-based substream, which a worker seeks to its first
trial, and the same substreams are reused at every SNR point (common random
numbers).

A worker evaluates its trial range in equal blocks sized by BLOCK_BYTES.
The SNR axis is folded into the batch axis, so a block of C trials is one
call per selector on an (S*C, n, n) capacity stack, with the trial axis
vectorized.  The worker keeps only what the curves need: per mode and SNR
point, the k = ceil(epsilon*T) smallest rates and the sums of the active
relay counts and reject counters.  Memory per worker is thus bounded by the
block and by k, not by T.  The parent merges the parts and takes the k-th
smallest rate; every step is exact, so results are bit-identical for any
worker count and block size.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .scenario import (
    FadingParams,
    NumberingScheme,
    Topology,
    draw_channel_powers_keyed,
    fading_params,
    renumber,
    trial_permutations,
)
from .selector import NoFeasibleSolution, batch_equal_time, batch_optimized

MODES = ("optimized", "equal_time")

REJECT_KEYS = ("singular", "negative_rate", "nonpositive_time")

# Byte budget of one block's (S*C, n, n) float64 capacity stack.  Larger
# blocks buy little once numpy's per-call overhead is amortized, and they
# raise peak memory; the selectors' working set is a few times the stack.
BLOCK_BYTES = 2 * 2**20


class InsufficientSamples(Exception):
    """Too few samples to resolve the requested outage probability."""


@dataclass(frozen=True)
class TrialRecord:
    """Per-realization outcome of the selected selector(s)."""

    rate_optimized: float | None
    rate_equal_time: float | None
    active_relays_optimized: int | None
    active_relays_equal_time: int | None
    reject_counters: dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class OutageCurve:
    """Outage rate and mean active-relay count across an SNR grid, one mode."""

    snr_grid: tuple[float, ...]          # linear SNR values
    snr_grid_db: tuple[float, ...]
    outage_rate: tuple[float, ...]
    avg_active: tuple[float, ...]
    n_trials: int
    epsilon: float
    mode: str
    reject_totals: dict[str, tuple[int, ...]] | None = None


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
    if epsilon * n < 1.0:
        raise InsufficientSamples(
            f"{n} samples cannot resolve outage probability {epsilon}"
        )
    return math.ceil(epsilon * n)


def run_trials(
    topology: Topology,
    scheme: NumberingScheme,
    snr: float,
    n_trials: int,
    base_seed: int,
    mode: str = "both",
) -> list[TrialRecord]:
    """Simulate ``n_trials`` fading realizations at one linear SNR.

    Each trial draws channel powers, applies the numbering scheme, builds
    capacities, and runs the selector(s) named by ``mode`` ("optimized",
    "equal_time", or "both").  Deterministic given ``base_seed``.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    if mode not in (*MODES, "both"):
        raise ValueError(f"mode must be one of {MODES + ('both',)}, got {mode!r}")
    modes = MODES if mode == "both" else (mode,)
    params = fading_params(topology)
    with np.errstate(divide="ignore", invalid="ignore"):
        snr_db = float(10.0 * np.log10(snr))  # only names the SNR in errors
    blocks = list(_evaluate_blocks(
        params, topology, scheme, (snr_db,), (float(snr),), base_seed, 0, n_trials,
        modes, _block_trials(1, params.lam.shape[0]),
    ))
    out = {
        m: {key: np.concatenate([b[m][key][0] for b in blocks]) for key in blocks[0][m]}
        for m in modes
    }
    opt = out.get("optimized")
    eq = out.get("equal_time")
    records = []
    for i in range(n_trials):
        rejects = {}
        if opt is not None:
            rejects = {k: int(opt["n_" + k][i]) for k in REJECT_KEYS}
        records.append(
            TrialRecord(
                rate_optimized=float(opt["rate"][i]) if opt else None,
                rate_equal_time=float(eq["rate"][i]) if eq else None,
                active_relays_optimized=int(opt["n_active"][i]) if opt else None,
                active_relays_equal_time=int(eq["n_active"][i]) if eq else None,
                reject_counters=rejects,
            )
        )
    return records


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
    """Outage curves over an SNR grid (given in dB), one per requested mode.

    The same per-trial channel draws are used at every grid point, and work
    is split over ``parallel`` processes by contiguous trial ranges.  Each
    worker returns, per mode and SNR point, its k = ceil(epsilon*n_trials)
    smallest rates and its counter sums; the merge is exact, so results are
    bit-identical for any ``parallel``.
    """
    if not snr_grid_db:
        raise ValueError("snr grid must be nonempty")
    if not 0.0 < epsilon <= 1.0:
        raise ValueError(f"epsilon must be in (0, 1], got {epsilon}")
    snr_db = tuple(float(v) for v in snr_grid_db)
    if not all(math.isfinite(v) for v in snr_db):
        raise ValueError(f"snr grid must be finite, got {list(snr_db)}")
    rank = _outage_rank(epsilon, n_trials)
    for m in modes:
        if m not in MODES:
            raise ValueError(f"unknown mode {m!r}")
    modes = tuple(modes)
    snr_lin = tuple(10.0 ** (v / 10.0) for v in snr_db)
    params = fading_params(topology)
    block_trials = _block_trials(len(snr_db), params.lam.shape[0])

    bounds = np.linspace(0, n_trials, max(parallel, 1) + 1, dtype=int).tolist()
    jobs = [
        (params, topology, scheme, snr_db, snr_lin, base_seed, a, b - a, modes,
         block_trials, rank)
        for a, b in zip(bounds[:-1], bounds[1:])
        if b > a
    ]
    if parallel <= 1:
        parts = [_fold_trials(*jobs[0])]
    else:
        with ProcessPoolExecutor(max_workers=parallel) as pool:
            parts = list(pool.map(_fold_trials, *zip(*jobs)))

    curves: dict[str, OutageCurve] = {}
    for m in modes:
        low = np.concatenate([p[m]["low"] for p in parts], axis=1)
        sums = {key: sum(p[m][key] for p in parts) for key in parts[0][m] if key != "low"}
        curves[m] = OutageCurve(
            snr_grid=snr_lin,
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
    """Most trials whose (S*C, n, n) capacity stack fits in BLOCK_BYTES, at least 1."""
    return max(1, BLOCK_BYTES // (n_snr * n_nodes * n_nodes * 8))


def _smallest(rates: np.ndarray, k: int) -> np.ndarray:
    """The k smallest entries of each row of (S, T) ``rates``, unordered; all if T <= k."""
    if rates.shape[1] <= k:
        return rates
    return np.partition(rates, k - 1, axis=1)[:, :k]


def _fold_trials(
    params: FadingParams,
    topology: Topology,
    scheme: NumberingScheme,
    snr_db: tuple[float, ...],
    snr_lin: tuple[float, ...],
    base_seed: int,
    start: int,
    count: int,
    modes: tuple[str, ...],
    block_trials: int,
    k: int,
) -> dict[str, dict[str, np.ndarray]]:
    """One worker's trials [start, start+count), reduced to what the curves need.

    Per mode, arrays over the SNR grid: ``low`` (S, min(k, count)), the
    smallest rates, and the sums over trials of ``n_active`` and, for the
    optimized mode, of the reject counters.  Rates are cut back to the k
    smallest once 2k are held, so the cost stays linear in ``count``.
    """
    low: dict[str, list[np.ndarray]] = {m: [] for m in modes}
    sums: dict[str, dict[str, np.ndarray]] = {m: {} for m in modes}
    for block in _evaluate_blocks(
        params, topology, scheme, snr_db, snr_lin, base_seed, start, count, modes,
        block_trials,
    ):
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
    params: FadingParams,
    topology: Topology,
    scheme: NumberingScheme,
    snr_db: tuple[float, ...],
    snr_lin: tuple[float, ...],
    base_seed: int,
    start: int,
    count: int,
    modes: tuple[str, ...],
    block_trials: int,
) -> Iterator[dict[str, dict[str, np.ndarray]]]:
    """Evaluate trials [start, start+count) in equal blocks of at most ``block_trials``.

    Yields, per block in trial order, each mode's per-trial selector arrays
    (``best_id`` dropped) shaped (S, C).  The SNR axis is folded into the
    batch axis: a block is one selector call per mode on an (S*C, n, n)
    stack.  ``snr_db`` only names the SNR point in errors.
    """
    n = params.lam.shape[0]
    n_blocks = -(-count // block_trials)
    edges = (start + count * np.arange(n_blocks + 1) // n_blocks).tolist()
    snr = np.asarray(snr_lin)[:, None, None, None]
    for a, b in zip(edges[:-1], edges[1:]):
        # built in place, so that no second stack-sized array is alive
        caps = snr * _ordered_powers(params, topology, scheme, base_seed, a, b - a)
        caps += 1.0
        caps = np.log2(caps, out=caps).reshape(-1, n, n)
        out: dict[str, dict[str, np.ndarray]] = {}
        for m in modes:
            select = batch_optimized if m == "optimized" else batch_equal_time
            try:
                res = select(caps)
            except NoFeasibleSolution:
                s, i = divmod(_first_infeasible(select, caps), b - a)
                raise NoFeasibleSolution(
                    f"trial {a + i} at {snr_db[s]:g} dB has no feasible subset"
                ) from None
            out[m] = {
                key: arr.reshape(len(snr_lin), b - a)
                for key, arr in res.items()
                if key != "best_id"
            }
        yield out


def _first_infeasible(select, caps: np.ndarray) -> int:
    """Row of the first matrix in ``caps`` on which ``select`` raises, by bisection."""
    lo, hi = 0, len(caps)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            select(caps[lo:mid])
            lo = mid
        except NoFeasibleSolution:
            hi = mid
    return lo


def _ordered_powers(
    params: FadingParams,
    topology: Topology,
    scheme: NumberingScheme,
    base_seed: int,
    start: int,
    count: int,
) -> np.ndarray:
    """(count, n, n) channel powers of trials [start, start+count), relays in
    each trial's transmission order."""
    n_relays = params.lam.shape[0] - 2
    powers = draw_channel_powers_keyed(params, base_seed, count, start)
    orders = _trial_orders(powers, topology, scheme, base_seed, start)
    idx = np.concatenate(
        [
            np.zeros((count, 1), dtype=np.intp),
            orders.astype(np.intp),
            np.full((count, 1), n_relays + 1, dtype=np.intp),
        ],
        axis=1,
    )
    trial_ax = np.arange(count)[:, None, None]
    return powers[trial_ax, idx[:, :, None], idx[:, None, :]]


def _trial_orders(
    powers: np.ndarray,
    topology: Topology,
    scheme: NumberingScheme,
    base_seed: int,
    start: int,
) -> np.ndarray:
    """Per-trial transmission orders, (T, N), 1-based relay labels.

    Capacities are monotone in channel power at any SNR, so instantaneous
    orders are computed from powers directly and hold for the whole grid.
    """
    n_trials, n, _ = powers.shape
    n_relays = n - 2
    if n_relays == 0:
        return np.empty((n_trials, 0), dtype=np.intp)
    if scheme in (NumberingScheme.AVERAGE_DESCENDING, NumberingScheme.AVERAGE_LINEAR):
        fixed = np.asarray(renumber(topology, scheme), dtype=np.intp)
        return np.tile(fixed, (n_trials, 1))
    if scheme is NumberingScheme.RANDOM:
        return trial_permutations(base_seed, n_relays, n_trials, start)
    if scheme is NumberingScheme.INSTANTANEOUS_SOURCE_RELAY:
        return np.argsort(-powers[:, 0, 1 : n_relays + 1], axis=1, kind="stable") + 1
    if scheme is NumberingScheme.INSTANTANEOUS_RELAY_RELAY:
        order = np.empty((n_trials, n_relays), dtype=np.intp)
        taken = np.zeros((n_trials, n_relays), dtype=bool)
        cur = np.zeros(n_trials, dtype=np.intp)  # source
        rows = np.arange(n_trials)
        for step in range(n_relays):
            scores = powers[rows, cur, 1 : n_relays + 1].copy()
            scores[taken] = -np.inf
            nxt = np.argmax(scores, axis=1)
            order[:, step] = nxt + 1
            taken[rows, nxt] = True
            cur = nxt + 1
        return order
    raise ValueError(f"unknown numbering scheme {scheme!r}")


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
