"""Command-line front end.

Subcommands: ``optimize`` (single instance), ``simulate`` (SNR sweep),
``numbering`` (scheme comparison), ``complexity`` (operation counts).
Exit codes: 0 success, 2 usage or config error, 3 no feasible solution.
"""

from __future__ import annotations

import argparse
import functools
import json
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
    check_snr,
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


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first ``main`` call and reused:
    building it costs more than parsing, and importing the module pays for
    neither."""
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

    A missing field without a default, or a value that does not convert,
    raises a ConfigError naming the field and ``kind``, what it should be.
    Of a list, it names the first bad entry and its index, not the list.
    """
    if key not in doc and default is _MISSING:
        raise ConfigError(f"missing field {key!r}, which must be {kind}")
    value = doc.get(key, default)
    try:
        return convert(value)
    except _BadEntry as exc:
        raise ConfigError(f"{key!r} must be {kind}, got {exc.entry!r} at index {exc.index}"
                          ) from None
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{key!r} must be {kind}, got {value!r}") from None


class _BadEntry(ValueError):
    """A list entry that does not convert, with its index."""

    def __init__(self, index: int, entry):
        super().__init__(f"entry {index} is {entry!r}")
        self.index, self.entry = index, entry


def _known(doc: dict, keys, where: str) -> None:
    """ConfigError naming the first field of ``doc`` that is not in ``keys``."""
    for key in doc:
        if key not in keys:
            raise ConfigError(f"{where}: unknown field {key!r} (valid: {', '.join(keys)})")


def _number(value) -> float:
    """A JSON number, as a float; a bool or a string is not one."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{value!r} is not a number")
    return float(value)


def _integer(value) -> int:
    """A JSON integer; an integral float such as 1e4 counts, a bool does not.

    An int is taken exactly, so integers beyond the float range stay valid.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        if not _number(value).is_integer():
            raise ValueError(f"{value!r} is not integral")
    return int(value)


def _is(cls):
    """Converter of a JSON value that must already be a ``cls``, taken as is."""

    def convert(value):
        if not isinstance(value, cls):
            raise TypeError(f"{value!r} is not a {cls.__name__}")
        return value

    return convert


# a bool is an int in Python, but an int is not a bool
_boolean, _text, _object = _is(bool), _is(str), _is(dict)


def _list_of(convert, length: int | None = None):
    """Converter of a JSON list, of ``length`` items if given, each through ``convert``."""

    def convert_list(value) -> list:
        if not isinstance(value, list):
            raise TypeError(f"{value!r} is not a list")
        if length is not None and len(value) != length:
            raise ValueError(f"{value!r} does not have {length} items")
        items = []
        for i, v in enumerate(value):
            try:
                items.append(convert(v))
            except (TypeError, ValueError, OverflowError):
                raise _BadEntry(i, v) from None
        return items

    return convert_list


def _load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top-level JSON value must be an object")
    return doc


def instance_document(caps: LinkCapacityMatrix) -> dict:
    """JSON-ready instance document for a capacity matrix (round-trips: an
    absent link is its zero capacity, so no mask is written)."""
    return {
        "n_relays": caps.n_relays,
        "capacities": [float(v) for v in caps.caps.ravel()],
    }


# the fields each topology type reads besides "type" and "p_a"
_TOPOLOGY_FIELDS = {
    "linear": ("n_relays",),
    "grid": ("side", "scale"),
    "random": ("n_relays", "seed", "scale"),
    "custom": ("positions",),
}


def parse_topology(spec: dict) -> Topology:
    kind = _field(spec, "type", _text, "a string")
    if kind not in _TOPOLOGY_FIELDS:
        raise ConfigError(f"unknown topology type {kind!r}")
    _known(spec, ("type", "p_a", *_TOPOLOGY_FIELDS[kind]), f"{kind} topology")
    p_a = _field(spec, "p_a", _number, "a number", 2.5)
    if kind == "linear":
        return linear_topology(_field(spec, "n_relays", _integer, "an integer"), p_a=p_a)
    if kind == "custom":
        pos = _field(spec, "positions", _list_of(_list_of(_number, 2)),
                     "a list of [x, y] pairs")
        return Topology(positions=pos, p_a=p_a)
    scale = _field(spec, "scale", _number, "a number", 1.0)
    if kind == "grid":
        return grid_topology(_field(spec, "side", _integer, "an integer"), p_a=p_a, scale=scale)
    return random_topology(
        _field(spec, "n_relays", _integer, "an integer"),
        _field(spec, "seed", _integer, "an integer"), p_a=p_a, scale=scale,
    )


def load_instance(path: str) -> LinkCapacityMatrix:
    doc = _load_json(path)
    if ("capacities" in doc) == ("topology" in doc):
        raise ConfigError(f"{path}: exactly one of 'capacities' or 'topology' required")

    if "topology" in doc:
        _known(doc, ("topology", "snr_db", "seed"), path)
        topo = parse_topology(_field(doc, "topology", _object, "an object"))
        snr_db = _field(doc, "snr_db", _number, "a number")
        snr = SnrConfig(snr_from_db(snr_db))
        seed = _field(doc, "seed", _integer, "an integer")
        params = fading_params(topo)
        check_snr(params, snr_db)
        powers = draw_channel_powers_keyed(params, seed, 1)[0]
        return build_capacity_matrix(powers, None, snr)

    _known(doc, ("n_relays", "capacities", "mask"), path)
    n_relays = _field(doc, "n_relays", _integer, "an integer")
    if n_relays < 0:
        raise ConfigError(f"{path}: n_relays must be nonnegative, got {n_relays}")
    n = n_relays + 2
    # both lengths are checked before any (n, n) array exists
    caps = _field(doc, "capacities", _list_of(_number), "a list of numbers")
    if len(caps) != n * n:
        raise ConfigError(
            f"{path}: expected {n * n} capacities for {n_relays} relays, got {len(caps)}"
        )
    mask = _field(doc, "mask", _list_of(_boolean), "a list of booleans", [True] * (n * n))
    if len(mask) != n * n:
        raise ConfigError(f"{path}: mask shape does not match capacities")
    mask = np.reshape(mask, (n, n))
    # the diagonal is unused and absent links carry no capacity
    np.fill_diagonal(mask, False)
    caps = np.where(mask, np.reshape(caps, (n, n)), 0.0)
    return LinkCapacityMatrix(caps)


def parse_scheme(name: str) -> NumberingScheme:
    try:
        return NumberingScheme(name)
    except ValueError:
        valid = ", ".join(s.value for s in NumberingScheme)
        raise ConfigError(f"unknown numbering scheme {name!r} (valid: {valid})") from None


def load_experiment(path: str, args) -> dict:
    doc = _load_json(path)
    cfg = {
        "topology": _field(doc, "topology", _object, "an object"),
        "scheme": _field(doc, "scheme", _text, "a string", "average_descending"),
        "snr_db": _field(doc, "snr_db", _list_of(_number), "a list of numbers",
                         [0, 5, 10, 15, 20]),
        "n_trials": _field(doc, "n_trials", _integer, "an integer", 10000),
        "epsilon": _field(doc, "epsilon", _number, "a number", 0.01),
        "base_seed": _field(doc, "base_seed", _integer, "an integer", 0),
        "modes": _field(doc, "modes", _list_of(_text), "a list of modes", list(MODES)),
        "out_prefix": _field(doc, "out_prefix", _text, "a string", "sweep"),
        "parallel": _field(doc, "parallel", _integer, "an integer", 1),
    }
    _known(doc, cfg, path)
    for field, flag in (("n_trials", "trials"), ("epsilon", "epsilon"), ("base_seed", "seed"),
                        ("parallel", "parallel"), ("scheme", "scheme"), ("out_prefix", "out")):
        if getattr(args, flag, None) is not None:
            cfg[field] = getattr(args, flag)
    if getattr(args, "mode", None) is not None:
        cfg["modes"] = list(MODES) if args.mode == "both" else [args.mode]
    # sweep raises ValueError (exit 2) for a bad trial count, epsilon, SNR,
    # parallelism or mode
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
    prefix = cfg["out_prefix"]
    record = _sweep_scheme(topo, parse_scheme(cfg["scheme"]), cfg, prefix + ".csv")
    _write(prefix + ".json", record)
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
        record = _sweep_scheme(topo, scheme, cfg, f"{prefix}_{scheme.value}.csv")
        all_curves[scheme.value] = json.loads(record)
    _write(prefix + ".json", json.dumps(all_curves, indent=2, sort_keys=True) + "\n")
    print(f"wrote per-scheme CSVs and {prefix}.json")
    return 0


def _sweep_scheme(topo: Topology, scheme: NumberingScheme, cfg: dict, csv_path: str) -> str:
    """Sweep ``cfg`` under ``scheme``, write its CSV and return its JSON record."""
    echo = dict(cfg, scheme=scheme.value)
    curves = sweep(topo, scheme, cfg["snr_db"], cfg["n_trials"], cfg["epsilon"],
                   cfg["base_seed"], modes=tuple(cfg["modes"]), parallel=cfg["parallel"])
    _write(csv_path, curves_to_csv(curves, echo))
    return curves_to_json(curves, echo)


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
