"""Command-line front end.

Subcommands: ``optimize`` (single instance), ``simulate`` (SNR sweep),
``numbering`` (scheme comparison), ``complexity`` (operation counts).
dB-to-linear conversion happens here; the library works on linear SNR.
Exit codes: 0 success, 2 usage or config error, 3 no feasible solution.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .allocator import RejectReason, allocate
from .montecarlo import MODES, curves_to_csv, curves_to_json, sweep
from .rate_model import LinkCapacityMatrix, RelaySubset, SnrConfig, build_capacity_matrix, build_rate_matrix
from .scenario import (
    NumberingScheme,
    Topology,
    draw_channel_powers_keyed,
    fading_params,
    grid_topology,
    linear_topology,
    random_topology,
)
from .selector import (
    NoFeasibleSolution,
    op_count,
    recursive_select,
    subsets_by_size,
    worst_case_ops,
)

VERBOSE_TABLE_MAX_RELAYS = 12


class ConfigError(Exception):
    """Malformed instance or experiment configuration."""


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NoFeasibleSolution as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relayalloc",
        description="Relay-subset selection and time allocation for half-duplex "
        "decode-and-forward networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_opt = sub.add_parser("optimize", help="optimize one network instance")
    p_opt.add_argument("--instance", required=True, help="instance JSON path")
    p_opt.add_argument("--out", help="also write the report to OUT.json")
    p_opt.add_argument("--verbose", action="store_true", help="include a per-subset table")
    p_opt.set_defaults(func=cmd_optimize)

    for name, helptext in (
        ("simulate", "run an SNR sweep and write outage curves"),
        ("numbering", "compare numbering schemes on one topology"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", required=True, help="experiment config JSON path")
        p.add_argument("--out", help="output path prefix (overrides config)")
        p.add_argument("--trials", type=int, help="override trial count")
        p.add_argument("--epsilon", type=float, help="override outage probability target")
        p.add_argument("--seed", type=int, help="override base seed")
        p.add_argument("--parallel", type=int, help="worker processes")
        p.add_argument("--mode", choices=(*MODES, "both"), help="override modes")
        if name == "simulate":
            p.add_argument("--scheme", help="override numbering scheme")
            p.set_defaults(func=cmd_simulate)
        else:
            p.set_defaults(func=cmd_numbering)

    p_cx = sub.add_parser("complexity", help="print per-size and worst-case operation counts")
    p_cx.add_argument("n_relays", type=int, help="relay pool size (1..30)")
    p_cx.set_defaults(func=cmd_complexity)
    return parser


# -- instance / config loading ------------------------------------------------


def _load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top-level JSON value must be an object")
    return doc


def instance_document(caps: LinkCapacityMatrix) -> dict:
    """JSON-ready instance document for a capacity matrix (round-trips)."""
    return {
        "n_relays": caps.n_relays,
        "capacities": [float(v) for v in caps.caps.ravel()],
        "mask": [bool(v) for v in caps.link_mask.ravel()],
    }


def topology_document(topo: Topology) -> dict:
    """JSON-ready topology spec; positions are explicit so any layout round-trips."""
    return {
        "type": "custom",
        "positions": [[float(x), float(y)] for x, y in topo.positions],
        "p_a": topo.p_a,
    }


def parse_topology(spec: dict) -> Topology:
    if not isinstance(spec, dict) or "type" not in spec:
        raise ConfigError("topology spec must be an object with a 'type' field")
    kind = spec["type"]
    p_a = float(spec.get("p_a", 2.5))
    scale = float(spec.get("scale", 1.0))
    try:
        if kind == "linear":
            return linear_topology(int(spec["n_relays"]), p_a=p_a)
        if kind == "grid":
            return grid_topology(int(spec["side"]), p_a=p_a, scale=scale)
        if kind == "random":
            return random_topology(
                int(spec["n_relays"]), int(spec["seed"]), p_a=p_a, scale=scale
            )
        if kind == "custom":
            return Topology(positions=np.asarray(spec["positions"], dtype=float), p_a=p_a)
    except KeyError as exc:
        raise ConfigError(f"topology spec missing field {exc}") from None
    raise ConfigError(f"unknown topology type {kind!r}")


def load_instance(path: str) -> LinkCapacityMatrix:
    doc = _load_json(path)
    has_caps = "capacities" in doc
    has_topo = "topology" in doc
    if has_caps == has_topo:
        raise ConfigError(f"{path}: exactly one of 'capacities' or 'topology' required")

    if has_caps:
        if "n_relays" not in doc:
            raise ConfigError(f"{path}: 'n_relays' required with 'capacities'")
        n = int(doc["n_relays"]) + 2
        caps = np.asarray(doc["capacities"], dtype=float)
        if caps.size != n * n:
            raise ConfigError(
                f"{path}: expected {n * n} capacities for {doc['n_relays']} relays, "
                f"got {caps.size}"
            )
        caps = caps.reshape(n, n)
        if "mask" in doc:
            mask = np.asarray(doc["mask"], dtype=bool)
            if mask.size != n * n:
                raise ConfigError(f"{path}: mask shape does not match capacities")
            mask = mask.reshape(n, n)
        else:
            mask = np.ones((n, n), dtype=bool)
        # the diagonal is unused and absent links carry no capacity
        np.fill_diagonal(mask, False)
        caps = np.where(mask, caps, 0.0)
        if np.any(caps < 0):
            raise ConfigError(f"{path}: capacities must be nonnegative")
        return LinkCapacityMatrix(n_relays=n - 2, caps=caps, link_mask=mask)

    topo = parse_topology(doc["topology"])
    if "snr_db" not in doc or "seed" not in doc:
        raise ConfigError(f"{path}: generated instances need 'snr_db' and 'seed'")
    snr = SnrConfig(10.0 ** (float(doc["snr_db"]) / 10.0))
    powers = draw_channel_powers_keyed(fading_params(topo), int(doc["seed"]), 1)[0]
    return build_capacity_matrix(powers, None, snr)


def parse_scheme(name: str) -> NumberingScheme:
    try:
        return NumberingScheme(name)
    except ValueError:
        valid = ", ".join(s.value for s in NumberingScheme)
        raise ConfigError(f"unknown numbering scheme {name!r} (valid: {valid})") from None


def load_experiment(path: str, args) -> dict:
    doc = _load_json(path)
    if "topology" not in doc:
        raise ConfigError(f"{path}: 'topology' is required")
    cfg = {
        "topology": doc["topology"],
        "scheme": doc.get("scheme", "average_descending"),
        "snr_db": [float(v) for v in doc.get("snr_db", [0, 5, 10, 15, 20])],
        "n_trials": int(doc.get("n_trials", 10000)),
        "epsilon": float(doc.get("epsilon", 0.01)),
        "base_seed": int(doc.get("base_seed", 0)),
        "modes": list(doc.get("modes", list(MODES))),
        "out_prefix": doc.get("out_prefix", "sweep"),
        "parallel": int(doc.get("parallel", 1)),
    }
    if getattr(args, "trials", None) is not None:
        cfg["n_trials"] = args.trials
    if getattr(args, "epsilon", None) is not None:
        cfg["epsilon"] = args.epsilon
    if getattr(args, "seed", None) is not None:
        cfg["base_seed"] = args.seed
    if getattr(args, "parallel", None) is not None:
        cfg["parallel"] = args.parallel
    if getattr(args, "mode", None) is not None:
        cfg["modes"] = list(MODES) if args.mode == "both" else [args.mode]
    if getattr(args, "scheme", None) is not None:
        cfg["scheme"] = args.scheme
    if getattr(args, "out", None) is not None:
        cfg["out_prefix"] = args.out
    if cfg["n_trials"] < 1:
        raise ConfigError("n_trials must be >= 1")
    if not 0.0 < cfg["epsilon"] <= 1.0:
        raise ConfigError(f"epsilon must be in (0, 1], got {cfg['epsilon']}")
    if not cfg["snr_db"]:
        raise ConfigError("snr_db grid must be nonempty")
    if not all(math.isfinite(v) for v in cfg["snr_db"]):
        raise ConfigError(f"snr_db values must be finite, got {cfg['snr_db']}")
    for m in cfg["modes"]:
        if m not in MODES:
            raise ConfigError(f"unknown mode {m!r}")
    return cfg


# -- subcommands ----------------------------------------------------------------


def cmd_optimize(args) -> int:
    caps = load_instance(args.instance)
    outcome = recursive_select(caps)
    best = outcome.best
    report = {
        "subset": list(best.subset.indices),
        "times": best.times.t.tolist(),
        "rate": best.rate,
        "feasible": best.feasible,
        "candidates_evaluated": outcome.candidates_evaluated,
        "candidates_pruned": outcome.candidates_pruned,
        "op_count_reported": outcome.op_count_reported,
        "worst_case_ops": worst_case_ops(caps.n_relays) if caps.n_relays else 0,
        "n_relays": caps.n_relays,
        # resolved capacities, so generated instances reproduce exactly
        "instance": instance_document(caps),
    }
    if args.verbose:
        if caps.n_relays > VERBOSE_TABLE_MAX_RELAYS:
            raise ConfigError(
                f"verbose table capped at {VERBOSE_TABLE_MAX_RELAYS} relays, "
                f"instance has {caps.n_relays}"
            )
        table = []
        for sub in subsets_by_size(caps.n_relays):
            res = allocate(build_rate_matrix(caps, RelaySubset(sub)), RelaySubset(sub))
            table.append(
                {
                    "subset": list(sub),
                    "feasible": res.feasible,
                    "rate": res.rate,
                    "reject_reason": (
                        None if res.reject_reason is RejectReason.NONE
                        else res.reject_reason.value
                    ),
                }
            )
        report["subsets"] = table
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    sys.stdout.write(text)
    if args.out:
        _write(args.out + ".json", text)
    return 0


def cmd_simulate(args) -> int:
    cfg = load_experiment(args.config, args)
    topo = parse_topology(cfg["topology"])
    scheme = parse_scheme(cfg["scheme"])
    curves = sweep(
        topo,
        scheme,
        cfg["snr_db"],
        cfg["n_trials"],
        cfg["epsilon"],
        cfg["base_seed"],
        modes=tuple(cfg["modes"]),
        parallel=cfg["parallel"],
    )
    prefix = cfg["out_prefix"]
    _write(prefix + ".csv", curves_to_csv(curves, cfg))
    _write(prefix + ".json", curves_to_json(curves, cfg))
    print(f"wrote {prefix}.csv and {prefix}.json")
    return 0


def cmd_numbering(args) -> int:
    cfg = load_experiment(args.config, args)
    topo = parse_topology(cfg["topology"])
    prefix = cfg["out_prefix"]
    all_curves: dict[str, dict] = {}
    for scheme in NumberingScheme:
        if (
            scheme in (NumberingScheme.AVERAGE_DESCENDING, NumberingScheme.AVERAGE_LINEAR)
            and topo.layout not in ("linear", "grid")
        ):
            print(
                f"warning: skipping {scheme.value} numbering on {topo.layout} topology",
                file=sys.stderr,
            )
            continue
        curves = sweep(
            topo,
            scheme,
            cfg["snr_db"],
            cfg["n_trials"],
            cfg["epsilon"],
            cfg["base_seed"],
            modes=tuple(cfg["modes"]),
            parallel=cfg["parallel"],
        )
        scheme_cfg = dict(cfg, scheme=scheme.value)
        _write(f"{prefix}_{scheme.value}.csv", curves_to_csv(curves, scheme_cfg))
        all_curves[scheme.value] = json.loads(curves_to_json(curves, scheme_cfg))
    _write(prefix + ".json", json.dumps(all_curves, indent=2, sort_keys=True) + "\n")
    print(f"wrote per-scheme CSVs and {prefix}.json")
    return 0


def cmd_complexity(args) -> int:
    n = args.n_relays
    if not 1 <= n <= 30:
        raise ConfigError(f"relay pool size must be in 1..30, got {n}")
    print(f"{'q':>3}  {'ops_per_subset':>14}")
    for q in range(1, n + 1):
        print(f"{q:>3}  {op_count(q):>14}")
    print(f"worst-case total over all subsets of {n} relays: {worst_case_ops(n)}")
    return 0


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


if __name__ == "__main__":
    sys.exit(main())
