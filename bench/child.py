"""Program-side half of the benchmark: runs relayalloc in a fresh interpreter.

The orchestrator (run.py) spawns this script so that set-up time and peak
RSS are those of a process that did nothing but the workload.  Each
subcommand writes its raw measurements as JSON to ``--out``; checking and
metric arithmetic happen in the orchestrator.

    child.py setup    --workload W --seed N
    child.py simulate --workload W --seed N --seconds S --out FILE
    child.py sweep    --workload W --seed N --seconds S --out FILE
    child.py optimize --workload W --seed N --seconds S --trace 0|1 --out FILE

Keep the module-level imports light: ``setup`` is timed from spawn to exit.
"""

from __future__ import annotations

import argparse
import json
import time

from tracing import Tracer
from workloads import OPTIMIZE, SNR_DB, SWEEPS, instance_snr_db, layout_seed, sweep_config

MONTECARLO_LAYERS = {
    "draw_channel_powers_keyed": "scenario.draw",
    "batch_optimized": "selector.optimized",
    "batch_equal_time": "selector.equal_time",
    "outage_rate": "montecarlo.fold",
}
# Instances re-solved by the scalar brute_force_select in a traced run (~70 ms each).
BRUTE_FORCE_INSTANCES = 8
# A timed simulate loop makes at least this many calls, however short --seconds is.
MIN_SIMULATE_CALLS = 3


def cmd_setup(args) -> None:
    from relayalloc.cli import parse_topology
    from relayalloc.scenario import fading_params, random_topology

    if args.workload in SWEEPS:
        fading_params(parse_topology(SWEEPS[args.workload]["topology"]))
    else:
        w = OPTIMIZE[args.workload]
        for i in range(w["n_instances"]):
            fading_params(random_topology(w["n_relays"], layout_seed(args.seed, i)))


def _outcome_record(outcome) -> list:
    """[subset, rate, nodes evaluated, nodes pruned, ops reported]."""
    best = outcome.best
    return [list(best.subset.indices), best.rate, outcome.candidates_evaluated,
            outcome.candidates_pruned, outcome.op_count_reported]


def cmd_simulate(args) -> dict:
    """`relayalloc simulate` called through ``cli.main`` in this warm interpreter.

    The orchestrator has written ``cfg.json`` into the working directory;
    each call reads it and writes ``out.json``, which is kept for checking.
    Interpreter start and imports are timed by ``setup`` instead.  Each call
    is followed by one run of the host yardstick (see workloads.py).
    """
    from concurrent.futures import ProcessPoolExecutor

    import reference
    from relayalloc import cli

    w = SWEEPS[args.workload]
    parallel = w["parallel"]
    argv = ["simulate", "--config", "cfg.json", "--parallel", str(parallel)]
    # the yardstick: the sweep in the frozen reference, split the same way
    part = dict(sweep_config(args.workload, args.seed),
                n_trials=-(-w["yardstick_trials"] // parallel))

    def yardstick() -> None:
        if parallel == 1:
            reference.sweep_reference(part)
            return
        with ProcessPoolExecutor(max_workers=parallel) as pool:
            list(pool.map(reference.sweep_reference, [part] * parallel))

    walls, yard, docs = [], [], []
    clock = time.perf_counter
    t_start = clock()
    while len(walls) < MIN_SIMULATE_CALLS or clock() - t_start < args.seconds:
        t0 = clock()
        status = cli.main(argv)
        t1 = clock()
        yardstick()
        yard.append(clock() - t1)
        walls.append(t1 - t0)
        if status != 0:
            raise SystemExit(f"relayalloc simulate exited {status}")
        with open("out.json", encoding="utf-8") as fh:
            docs.append(json.load(fh))
    return {"walls_s": walls, "yardstick_s": yard, "docs": docs}


def cmd_sweep(args) -> dict:
    """Traced in-process sweep (parallel=1) plus the scalar cross-check."""
    import numpy as np

    from relayalloc import montecarlo
    from relayalloc.cli import parse_scheme, parse_topology
    from relayalloc.rate_model import SnrConfig, build_capacity_matrix
    from relayalloc.scenario import (
        NumberingScheme, draw_channel_powers_keyed, fading_params, permute_relays, renumber,
    )
    from relayalloc.selector import recursive_select

    w = SWEEPS[args.workload]
    cfg = sweep_config(args.workload, args.seed)
    topo = parse_topology(cfg["topology"])
    scheme = parse_scheme(cfg["scheme"])
    n_trials = cfg["n_trials"]
    tracer = Tracer()

    def run_sweep():
        curves = montecarlo.sweep(topo, scheme, cfg["snr_db"], n_trials, cfg["epsilon"],
                                  cfg["base_seed"], parallel=1)
        return json.loads(montecarlo.curves_to_json(curves, cfg))

    pairs, docs = [], []
    t_start = time.perf_counter()
    while not pairs or time.perf_counter() - t_start < args.seconds:
        t0 = time.perf_counter()
        docs.append(run_sweep())
        untraced = time.perf_counter() - t0
        with tracer.patched(montecarlo, MONTECARLO_LAYERS):
            with tracer.span("montecarlo.sweep") as top:
                docs.append(run_sweep())
        name, start, end, _ = tracer.spans[top]
        pair = {"untraced_s": untraced, "traced_s": end - start,
                "self_s": tracer.self_time(top)}
        for layer in MONTECARLO_LAYERS.values():
            pair[layer] = sum(e - s for n, s, e, p in tracer.spans if n == layer and p == top)
        pairs.append(pair)

    # O(start) replay: the second worker's range against the same count at 0
    params = fading_params(topo)
    split = int(np.linspace(0, n_trials, 3, dtype=int)[1])
    offset, at_zero = [], []
    for _ in range(3):
        t0 = time.perf_counter()
        draw_channel_powers_keyed(params, args.seed, n_trials - split, split)
        t1 = time.perf_counter()
        draw_channel_powers_keyed(params, args.seed, n_trials - split, 0)
        t2 = time.perf_counter()
        offset.append(t1 - t0)
        at_zero.append(t2 - t1)

    # scalar recursive search on sampled trials, rebuilt from public functions
    trials = np.sort(np.random.default_rng(args.seed).choice(
        n_trials, w["xcheck_trials"], replace=False))
    powers = draw_channel_powers_keyed(params, args.seed, int(trials[-1]) + 1)[trials]
    average = scheme in (NumberingScheme.AVERAGE_DESCENDING, NumberingScheme.AVERAGE_LINEAR)
    fixed_order = renumber(topo, scheme) if average else None
    inputs = []
    for p in powers:
        for db in SNR_DB:
            snr = 10.0 ** (db / 10.0)
            order = fixed_order or renumber(
                build_capacity_matrix(p, None, SnrConfig(snr)), scheme)
            inputs.append((permute_relays(p, order), SnrConfig(snr)))
    xcheck = []
    for traced in (False, True):
        build, select = build_capacity_matrix, recursive_select
        if traced:
            build = tracer.wrap(build, "rate_model.build_capacity_matrix")
            select = tracer.wrap(select, "selector.recursive_select")
        xcheck.append([_outcome_record(select(build(p, None, snr))) for p, snr in inputs])

    return {
        "pairs": pairs,
        "docs": docs,
        "draw_offset_s": float(np.median(offset) - np.median(at_zero)),
        "split": split,
        "xcheck_trials": trials.tolist(),
        "xcheck": xcheck,
        "build_caps_s": tracer.durations("rate_model.build_capacity_matrix"),
        "recursive_s": tracer.durations("selector.recursive_select"),
        "spans": tracer.dump(),
    }


def cmd_optimize(args) -> dict:
    """Closed loop over seeded instances; traced runs add the batched oracle.

    Untraced runs time the host yardstick after every ``yardstick_stride``-th
    instance, outside the instance's own time.
    """
    import numpy as np

    import reference

    from relayalloc import montecarlo
    from relayalloc.rate_model import SnrConfig, build_capacity_matrix
    from relayalloc.scenario import draw_channel_powers_keyed, fading_params, random_topology
    from relayalloc.selector import (
        batch_equal_time, batch_optimized, brute_force_select, recursive_select,
    )

    w = OPTIMIZE[args.workload]
    n = w["n_instances"]
    params = [fading_params(random_topology(w["n_relays"], layout_seed(args.seed, i)))
              for i in range(n)]
    powers = [draw_channel_powers_keyed(params[i], args.seed, 1, i)[0] for i in range(n)]
    snrs = [SnrConfig(10.0 ** (instance_snr_db(i) / 10.0)) for i in range(n)]
    np.save(args.out + ".powers.npy", np.stack(powers))
    # traced runs compare pass walls, so they leave the yardstick out
    yard_caps = {} if args.trace else {
        i: np.log2(1.0 + 10.0 ** (instance_snr_db(i) / 10.0) * powers[i])[None]
        for i in range(0, n, w["yardstick_stride"])}

    tracer = Tracer()
    traced_build = tracer.wrap(build_capacity_matrix, "rate_model.build_capacity_matrix")
    traced_select = tracer.wrap(recursive_select, "selector.recursive_select")

    def run_pass(traced: bool) -> dict:
        build, select = (traced_build, traced_select) if traced else (
            build_capacity_matrix, recursive_select)
        times, records, yard = [], [], []
        clock = time.perf_counter
        t_pass = clock()
        for i, (p, snr) in enumerate(zip(powers, snrs)):
            t0 = clock()
            outcome = select(build(p, None, snr))
            t1 = clock()
            times.append(t1 - t0)
            records.append(_outcome_record(outcome))
            if i in yard_caps:
                t2 = clock()
                reference.optimized(yard_caps[i])
                yard.append(clock() - t2)
        return {"traced": traced, "wall_s": clock() - t_pass, "times_s": times,
                "yardstick_s": yard, "records": records}

    passes = []
    t_start = time.perf_counter()
    modes = (False, True) if args.trace else (False,)
    while not passes or time.perf_counter() - t_start < args.seconds:
        for traced in modes:
            if traced:
                with tracer.span("optimize.loop") as top:
                    passes.append(run_pass(True))
                passes[-1]["self_s"] = tracer.self_time(top)
            else:
                passes.append(run_pass(False))
    out = {"n_instances": n, "passes": passes}
    if not args.trace:
        return out

    draw_at_i, draw_at_0 = 0.0, 0.0
    traced_draw = tracer.wrap(draw_channel_powers_keyed, "scenario.draw")
    for i in range(n):
        t0 = time.perf_counter()
        traced_draw(params[i], args.seed, 1, i)
        t1 = time.perf_counter()
        draw_channel_powers_keyed(params[i], args.seed, 1, 0)
        draw_at_i += t1 - t0
        draw_at_0 += time.perf_counter() - t1

    brute = [_outcome_record(brute_force_select(build_capacity_matrix(p, None, s)))
             for p, s in zip(powers[:BRUTE_FORCE_INSTANCES], snrs)]

    # batched brute-force oracle over the whole instance stack
    caps = np.stack([build_capacity_matrix(p, None, s).caps
                     for p, s in zip(powers, snrs)])
    opt = tracer.wrap(batch_optimized, "selector.optimized")(caps)
    eq = tracer.wrap(batch_equal_time, "selector.equal_time")(caps)
    fold = tracer.wrap(montecarlo.outage_rate, "montecarlo.fold")
    snr_idx = np.arange(n) % len(SNR_DB)
    outages = [fold(opt["rate"][snr_idx == s], w["epsilon"]) for s in range(len(SNR_DB))]
    out.update({
        "draw_s": tracer.total("scenario.draw"),
        "draw_offset_s": draw_at_i - draw_at_0,
        "brute_force": brute,
        "batch": {
            "optimized_rate": opt["rate"].tolist(),
            "optimized_id": opt["best_id"].tolist(),
            "equal_time_rate": eq["rate"].tolist(),
            "equal_time_id": eq["best_id"].tolist(),
            "rejects": {k: int(opt["n_" + k].sum())
                        for k in ("singular", "negative_rate", "nonpositive_time")},
            "outage_rate": outages,
        },
        "optimized_s": tracer.total("selector.optimized"),
        "equal_time_s": tracer.total("selector.equal_time"),
        "fold_s": tracer.total("montecarlo.fold"),
        "build_caps_s": tracer.durations("rate_model.build_capacity_matrix"),
        "recursive_s": tracer.durations("selector.recursive_select"),
        "spans": tracer.dump(),
    })
    return out


COMMANDS = {"simulate": cmd_simulate, "sweep": cmd_sweep, "optimize": cmd_optimize}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("command", choices=tuple(COMMANDS) + ("setup",))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    if args.command == "setup":
        cmd_setup(args)
        return
    result = COMMANDS[args.command](args)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
