"""Workload definitions shared by the orchestrator and the child process.

Every input is a function of the workload seed; the program under test only
ever sees the generated configs and instances.
"""

from __future__ import annotations

SNR_DB = (0.0, 5.0, 10.0, 15.0, 20.0)

# Batch sweeps, each one `relayalloc simulate` call per timed operation.
# ``xcheck_trials`` trials per SNR point are re-solved with the scalar
# recursive selector in the traced run.
SWEEPS = {
    "sweep-grid3": {
        "topology": {"type": "grid", "side": 3},
        "scheme": "average_descending",
        "n_trials": 500,
        "epsilon": 1e-2,
        "parallel": 1,
        "xcheck_trials": 24,
        "yardstick_trials": 500,
    },
    "sweep-deep": {
        "topology": {"type": "linear", "n_relays": 2},
        "scheme": "instantaneous_relay_relay",
        "n_trials": 250_000,
        "epsilon": 1e-3,
        "parallel": 2,
        "xcheck_trials": 200,
        "yardstick_trials": 125_000,
    },
}

# Host yardstick.  On a shared host the machine's speed drifts by tens of
# percent for minutes at a time, so raw times of two sets of runs taken
# apart cannot be compared.  Every timed run therefore also times a frozen
# computation from reference.py of the same kind as the workload's hot path,
# interleaved with the program's operations: for a sweep,
# ``reference.sweep_reference`` on ``yardstick_trials`` trials, split over
# ``parallel`` processes as the program splits its trials; for optimize,
# ``reference.optimized`` on every ``yardstick_stride``-th instance.  The
# host factor is its fastest time divided by YARDSTICK_NOMINAL_S, its fastest
# time on the reference host (2-vCPU Intel Xeon VM, Python 3.11, numpy 2.4).
# End-to-end operation times are reported divided by the host factor, in
# seconds of the reference host.
YARDSTICK_NOMINAL_S = {
    "sweep-grid3": 0.52,
    "sweep-deep": 0.31,
    "optimize-random9": 0.63,
}

# Set-up yardstick.  Set-up probes are fresh interpreters, and their wall
# time jumps between two levels about 1.5x apart for tens of seconds at a
# time, a state the in-process yardstick does not see.  Each set-up probe is
# therefore followed by a bare interpreter that only imports numpy, and is
# divided by it: ``setup_s`` is the median of those ratios times
# BARE_NOMINAL_S, the bare interpreter's time on the reference host.
BARE_NOMINAL_S = 0.125

# Closed loop, one client: build_capacity_matrix + recursive_select per
# instance.  Instance i is a fresh random 9-relay layout, trial i of that
# layout's keyed fading stream, at SNR_DB[i % 5].
OPTIMIZE = {
    "optimize-random9": {"n_relays": 9, "n_instances": 100, "epsilon": 5e-2,
                         "yardstick_stride": 4},
}

WORKLOADS = (*SWEEPS, *OPTIMIZE)

# Percentiles a tail may be reported at; the highest one with at least
# TAIL_MIN_BEYOND samples above it is used.
TAIL_PERCENTILES = (50.0, 90.0, 95.0, 97.5, 99.0, 99.5, 99.9)
TAIL_MIN_BEYOND = 10


def sweep_config(name: str, seed: int) -> dict:
    """The experiment config `relayalloc simulate` receives for a sweep."""
    w = SWEEPS[name]
    return {
        "topology": w["topology"],
        "scheme": w["scheme"],
        "snr_db": list(SNR_DB),
        "n_trials": w["n_trials"],
        "epsilon": w["epsilon"],
        "base_seed": seed,
        "modes": ["optimized", "equal_time"],
        "out_prefix": "out",
        "parallel": w["parallel"],
    }


def layout_seed(seed: int, instance: int) -> int:
    """Seed of instance ``instance``'s random relay layout."""
    return seed * 1_000_003 + instance


def instance_snr_db(instance: int) -> float:
    return SNR_DB[instance % len(SNR_DB)]


def tail_percentile(n_samples: int) -> float:
    """Highest listed percentile with at least TAIL_MIN_BEYOND samples beyond it.

    With too few samples for any percentile to qualify (a sweep has one
    distinct operation), the tail falls back to the median.
    """
    ok = [p for p in TAIL_PERCENTILES if n_samples * (100.0 - p) >= TAIL_MIN_BEYOND * 100.0]
    return ok[-1] if ok else 50.0
