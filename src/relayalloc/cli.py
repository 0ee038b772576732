"""Command-line front end.

Subcommands: ``optimize`` (single instance), ``simulate`` (SNR sweep),
``numbering`` (scheme comparison), ``complexity`` (operation counts).
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
from .rate_model import (
    LinkCapacityMatrix, RelaySubset, SnrConfig, build_capacity_matrix, build_rate_matrix,
    snr_from_db,
)
from .scenario import (
    AVERAGE_LAYOUTS,
    AVERAGE_SCHEMES,
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


_MISSING = object()


def _field(doc: dict, key: str, convert, kind: str, default=_MISSING):
    """``convert(doc[key])``, or of ``default`` when given and the key is absent.

    A value that does not convert raises a ConfigError naming the field and
    ``kind``, what it should be; a missing field without a default raises
    KeyError.
    """
    value = doc[key] if default is _MISSING else doc.get(key, default)
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{key!r} must be {kind}, got {value!r}") from None


def _integer(value) -> int:
    """A JSON integer; an integral float such as 1e4 counts, a bool does not."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{value!r} is not a number")
    if value != int(value):
        raise ValueError(f"{value!r} is not integral")
    return int(value)


def _numbers(value) -> np.ndarray:
    """A JSON number or (nested) list of numbers, as a float array."""
    return np.asarray(value, dtype=float)


def _text(value) -> str:
    """A JSON string, taken as is."""
    if not isinstance(value, str):
        raise TypeError(f"{value!r} is not a string")
    return value


def _list_of(convert):
    """Converter of a JSON list whose items each go through ``convert``."""

    def convert_list(value) -> list:
        if not isinstance(value, list):
            raise TypeError(f"{value!r} is not a list")
        return [convert(v) for v in value]

    return convert_list


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


def parse_topology(spec: dict) -> Topology:
    if not isinstance(spec, dict) or "type" not in spec:
        raise ConfigError("topology spec must be an object with a 'type' field")
    kind = spec["type"]
    p_a = _field(spec, "p_a", float, "a number", 2.5)
    scale = _field(spec, "scale", float, "a number", 1.0)
    try:
        if kind == "linear":
            return linear_topology(_field(spec, "n_relays", _integer, "an integer"), p_a=p_a)
        if kind == "grid":
            return grid_topology(_field(spec, "side", _integer, "an integer"), p_a=p_a, scale=scale)
        if kind == "random":
            return random_topology(
                _field(spec, "n_relays", _integer, "an integer"),
                _field(spec, "seed", _integer, "an integer"), p_a=p_a, scale=scale,
            )
        if kind == "custom":
            pos = _field(spec, "positions", _numbers, "a list of [x, y] pairs")
            return Topology(positions=pos, p_a=p_a)
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
        n = _field(doc, "n_relays", _integer, "an integer") + 2
        caps = _field(doc, "capacities", _numbers, "a list of numbers")
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
    snr = SnrConfig(snr_from_db(_field(doc, "snr_db", float, "a number")))
    seed = _field(doc, "seed", _integer, "an integer")
    powers = draw_channel_powers_keyed(fading_params(topo), seed, 1)[0]
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
        "snr_db": _field(doc, "snr_db", _list_of(float), "a list of numbers",
                         [0, 5, 10, 15, 20]),
        "n_trials": _field(doc, "n_trials", _integer, "an integer", 10000),
        "epsilon": _field(doc, "epsilon", float, "a number", 0.01),
        "base_seed": _field(doc, "base_seed", _integer, "an integer", 0),
        "modes": _field(doc, "modes", _list_of(str), "a list of modes", list(MODES)),
        "out_prefix": _field(doc, "out_prefix", _text, "a string", "sweep"),
        "parallel": _field(doc, "parallel", _integer, "an integer", 1),
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
    # sweep raises ValueError (exit 2) for a bad trial count, epsilon, grid
    # or mode; this check stays only to word non-finite SNR as a config error
    if not all(math.isfinite(v) for v in cfg["snr_db"]):
        raise ConfigError(f"snr_db values must be finite, got {cfg['snr_db']}")
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
        if scheme in AVERAGE_SCHEMES and topo.layout not in AVERAGE_LAYOUTS:
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
