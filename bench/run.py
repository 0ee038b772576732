"""relayalloc benchmark: runs one workload (or all), checks it, prints metrics.

    python3 bench/run.py --workload sweep-grid3 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
is a separate traced run giving the per-layer metrics; without ``--trace``
both are run.  The lines before the last name each metric with its unit
(untraced runs also give the host factor and the raw figures); the last
line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  A full record of the run, with the environment,
is written under ``.bench_build/bench/``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import reference
from workloads import (
    BARE_NOMINAL_S, OPTIMIZE, SNR_DB, SWEEPS, WORKLOADS, YARDSTICK_NOMINAL_S, instance_snr_db,
    sweep_config, tail_percentile,
)

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_build" / "bench"
SETUP_REPEATS = 7
RATE_RTOL = 1e-9
REJECT_KEYS = ("singular", "negative_rate", "nonpositive_time")


class Checks:
    """Results compared with the reference; failures keep a short note."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)

    def rate(self, got: float, want: float, what: str) -> None:
        self.check(math.isclose(got, want, rel_tol=RATE_RTOL, abs_tol=0.0),
                   f"{what}: {got!r} != {want!r}")

    def repeats(self, series: list, what: str) -> None:
        """Deterministic counters must read the same on every repeat."""
        self.check(all(s == series[0] for s in series), f"{what} did not repeat: {series}")


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def program_env() -> dict:
    """The program runs from src/ in place, with one BLAS thread per process:
    the host has few cores, and sweep-deep already runs two workers."""
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""),
                OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")


def spawn(cmd: list[str], cwd: Path) -> tuple[float, float]:
    """Run a child to completion; wall seconds and peak RSS (MB) of its tree.

    The rusage of the waited child includes every descendant it waited
    for, so pool workers count; ``ru_maxrss`` is the largest single process.
    It starts at the RSS of this process, so children are spawned before the
    reference is built.
    """
    log = cwd / "child.log"
    t0 = time.perf_counter()
    with open(log, "wb") as fh:
        proc = subprocess.Popen(cmd, cwd=cwd, env=program_env(), stdout=fh,
                                stderr=subprocess.STDOUT, start_new_session=True)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)  # the child and its pool workers
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        tail = log.read_text(errors="replace")[-2000:]
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{tail}")
    return wall, usage.ru_maxrss / 1024.0


def child(command: str, name: str, seed: int, work: Path, *extra: str) -> tuple[float, float]:
    return spawn([sys.executable, str(BENCH / "child.py"), command,
                  "--workload", name, "--seed", str(seed), *extra], work)


def setup_probes(name: str, seed: int, work: Path, count: int) -> list[list[float]]:
    """[set-up, bare] wall-time pairs of fresh interpreters.

    The set-up probe builds the workload's inputs; the bare interpreter run
    right after it only imports numpy, and serves as the set-up yardstick
    (see workloads.py).  Callers run half of the pairs before the timed
    section and half after it, so that their median does not hinge on one
    stretch of host load.
    """
    return [[child("setup", name, seed, work)[0],
             spawn([sys.executable, "-c", "import numpy"], work)[0]] for _ in range(count)]


def end_to_end(name: str, setup: list[list[float]], points: int, best_s: list[float],
               yardstick_s: float, peak_mb: float) -> tuple[dict, dict]:
    """End-to-end metrics from one run's raw measurements.

    ``best_s`` holds each distinct operation at its fastest repeat: on a
    shared host the slower repeats of one operation measure the host.  The
    median and tail are taken over distinct operations, so the spread
    between instances stays in the tail.  Operation times are divided by the
    host factor, and each set-up probe by its bare interpreter's factor (see
    workloads.py), so they read in seconds of the reference host; the raw
    figures go to the result file.
    """
    host = yardstick_s / YARDSTICK_NOMINAL_S[name]
    tail = tail_percentile(len(best_s))
    raw = {
        "setup_s": statistics.median(s for s, _ in setup),
        "trial_points_per_s": points / float(np.sum(best_s)),
        "latency_p50_ms": float(np.median(best_s)) * 1e3,
        "latency_tail_ms": float(np.percentile(best_s, tail)) * 1e3,
    }
    metrics = {
        "setup_s": metric(statistics.median(s / b for s, b in setup) * BARE_NOMINAL_S, "s"),
        "trial_points_per_s": metric(raw["trial_points_per_s"] * host, "1/s"),
        "latency_p50_ms": metric(raw["latency_p50_ms"] / host, "ms"),
        "latency_tail_ms": metric(raw["latency_tail_ms"] / host, "ms"),
        "peak_rss_mb": metric(peak_mb, "MB"),
    }
    return metrics, {"host_factor": host, "yardstick_s": yardstick_s, "raw": raw,
                     "setup_bare_pairs_s": setup, "latency_operations": len(best_s),
                     "latency_tail_percentile": tail}


def check_sweep_doc(checks: Checks, doc: dict, ref: dict, label: str) -> None:
    for mode, want in ref.items():
        got = doc["curves"][mode]
        for s, db in enumerate(SNR_DB):
            checks.rate(got["outage_rate"][s], want["outage_rate"][s],
                        f"{label} {mode} outage at {db} dB")
            checks.check(got["avg_active"][s] == want["avg_active"][s],
                         f"{label} {mode} avg_active at {db} dB")


def reject_totals(doc: dict) -> dict:
    return doc["curves"]["optimized"]["reject_totals"]


def node_sums(records: list) -> list[int]:
    return [sum(r[k] for r in records) for k in (2, 3, 4)]


def worker_trials(cfg: dict) -> int:
    bounds = np.linspace(0, cfg["n_trials"], cfg["parallel"] + 1, dtype=int)
    return int(np.diff(bounds).max())


def scalar_layer_metrics(out: dict, records: list, n_relays: int) -> dict:
    evaluated, pruned, ops = node_sums(records)
    return {
        "rate_model.build_caps_us": metric(float(np.median(out["build_caps_s"])) * 1e6, "us"),
        "selector.recursive_ms": metric(float(np.median(out["recursive_s"])) * 1e3, "ms"),
        "selector.nodes_evaluated": metric(evaluated, "count"),
        "selector.nodes_pruned": metric(pruned, "count"),
        "selector.ops_reported": metric(ops, "count"),
        "selector.prune_ratio": metric(pruned / (len(records) * 2**n_relays), "ratio"),
    }


def run_sweep(name: str, seed: int, seconds: float, trace: bool, work: Path, checks: Checks):
    cfg = sweep_config(name, seed)
    points = cfg["n_trials"] * len(SNR_DB)
    if trace:
        out_file = work / "child.json"
        child("sweep", name, seed, work, "--seconds", str(seconds), "--out", str(out_file))
        out = json.loads(out_file.read_text())
        docs = out["docs"]
    else:
        (work / "cfg.json").write_text(json.dumps(cfg))
        out_file = work / "child.json"
        setup = setup_probes(name, seed, work, SETUP_REPEATS // 2)
        # peak RSS from one fresh CLI process: a warm interpreter's heap
        # varies from run to run, and forked pool workers inherit it
        cold_wall, peak = spawn([sys.executable, "-m", "relayalloc.cli", "simulate",
                                 "--config", "cfg.json", "--parallel", str(cfg["parallel"])],
                                work)
        docs = [json.loads((work / "out.json").read_text())]
        child("simulate", name, seed, work, "--seconds", str(seconds), "--out", str(out_file))
        setup += setup_probes(name, seed, work, SETUP_REPEATS - len(setup))
        out = json.loads(out_file.read_text())
        walls = out["walls_s"]
        docs += out["docs"]

    ref = reference.sweep_reference(cfg)
    for i, doc in enumerate(docs):
        check_sweep_doc(checks, doc, ref, f"run {i}")
    checks.repeats([reject_totals(d) for d in docs], "reject totals")

    if not trace:
        metrics, details = end_to_end(name, setup, points, [min(walls)],
                                      min(out["yardstick_s"]), peak)
        return metrics, dict(details, walls_s=walls, yardstick_runs_s=out["yardstick_s"],
                             cli_process_wall_s=cold_wall)

    n_relays = len(reference.positions(cfg["topology"])) - 2
    inputs = [(t, s) for t in out["xcheck_trials"] for s in range(len(SNR_DB))]
    for rep, records in enumerate(out["xcheck"]):
        for (trial, s), rec in zip(inputs, records):
            what = f"scalar trial {trial} at {SNR_DB[s]} dB (repeat {rep})"
            checks.rate(rec[1], ref["optimized"]["rate"][s, trial], what)
            checks.check(len(rec[0]) == ref["optimized"]["n_active"][s, trial], what + " size")
    checks.repeats([node_sums(r) for r in out["xcheck"]], "node/prune/op sums")

    pairs = out["pairs"]
    med = {k: statistics.median(p[k] for p in pairs) for k in pairs[0]}
    rejects = reject_totals(docs[0])
    metrics = {
        "scenario.draw_s": metric(med["scenario.draw"], "s"),
        "scenario.draw_offset_s": metric(out["draw_offset_s"], "s"),
        **scalar_layer_metrics(out, out["xcheck"][0], n_relays),
        "selector.optimized_s": metric(med["selector.optimized"], "s"),
        "selector.equal_time_s": metric(med["selector.equal_time"], "s"),
        **{f"selector.reject_{k}": metric(sum(rejects[k]), "count") for k in REJECT_KEYS},
        "montecarlo.fold_s": metric(med["montecarlo.fold"], "s"),
        "montecarlo.power_tensor_mb": metric(
            worker_trials(cfg) * (n_relays + 2) ** 2 * 8 / 1e6, "MB"),
        "top.self_s": metric(med["self_s"], "s"),
        "trace.overhead_frac": metric(med["traced_s"] / med["untraced_s"] - 1.0, "ratio"),
    }
    return metrics, {"pairs": pairs, "spans": out["spans"]}


def run_optimize(name: str, seed: int, seconds: float, trace: bool, work: Path,
                 checks: Checks):
    w = OPTIMIZE[name]
    n = w["n_instances"]
    if not trace:
        setup = setup_probes(name, seed, work, SETUP_REPEATS // 2)
    out_file = work / "child.json"
    _, peak = child("optimize", name, seed, work, "--seconds", str(seconds),
                    "--trace", str(int(trace)), "--out", str(out_file))
    if not trace:
        setup += setup_probes(name, seed, work, SETUP_REPEATS - len(setup))
    out = json.loads(out_file.read_text())

    powers = np.load(str(out_file) + ".powers.npy")
    snr = 10.0 ** (np.array([instance_snr_db(i) for i in range(n)]) / 10.0)
    caps = np.log2(1.0 + snr[:, None, None] * powers)
    ref_rate, ref_id = reference.optimized(caps)
    subsets = reference.subsets(w["n_relays"])
    solved = [(f"pass {k}", p["records"]) for k, p in enumerate(out["passes"])]
    solved += [("brute_force_select", out["brute_force"])] if trace else []
    for label, records in solved:
        for i, rec in enumerate(records):
            ok = tuple(rec[0]) == subsets[ref_id[i]] and math.isclose(
                rec[1], ref_rate[i], rel_tol=RATE_RTOL, abs_tol=0.0)
            checks.check(ok, f"{label} instance {i}: {rec[:2]} vs "
                             f"{[subsets[ref_id[i]], ref_rate[i]]}")
    checks.repeats([node_sums(p["records"]) for p in out["passes"]], "node/prune/op sums")

    plain = [p for p in out["passes"] if not p["traced"]]
    if not trace:
        per_instance = np.min([p["times_s"] for p in plain], axis=0)
        yardstick = float(np.min([p["yardstick_s"] for p in plain], axis=0).sum())
        metrics, details = end_to_end(name, setup, n, per_instance.tolist(), yardstick, peak)
        return metrics, dict(details, passes=len(plain),
                             pass_walls_s=[p["wall_s"] for p in plain])

    batch = out["batch"]
    eq_rate, eq_id = reference.equal_time(caps)
    for i in range(n):
        checks.check(batch["optimized_id"][i] == ref_id[i], f"batched instance {i} subset")
        checks.rate(batch["optimized_rate"][i], ref_rate[i], f"batched instance {i} rate")
        checks.check(batch["equal_time_id"][i] == eq_id[i], f"equal-time instance {i} subset")
        checks.rate(batch["equal_time_rate"][i], eq_rate[i], f"equal-time instance {i} rate")
    for s, db in enumerate(SNR_DB):
        checks.rate(batch["outage_rate"][s], reference.outage(ref_rate[s::len(SNR_DB)],
                                                              w["epsilon"]),
                    f"instance outage at {db} dB")

    traced = [p for p in out["passes"] if p["traced"]]
    wall = {t: statistics.median(p["wall_s"] for p in group)
            for t, group in (("plain", plain), ("traced", traced))}
    metrics = {
        "scenario.draw_s": metric(out["draw_s"], "s"),
        "scenario.draw_offset_s": metric(out["draw_offset_s"], "s"),
        **scalar_layer_metrics(out, out["passes"][0]["records"], w["n_relays"]),
        "selector.optimized_s": metric(out["optimized_s"], "s"),
        "selector.equal_time_s": metric(out["equal_time_s"], "s"),
        **{f"selector.reject_{k}": metric(batch["rejects"][k], "count") for k in REJECT_KEYS},
        "montecarlo.fold_s": metric(out["fold_s"], "s"),
        "montecarlo.power_tensor_mb": metric(n * (w["n_relays"] + 2) ** 2 * 8 / 1e6, "MB"),
        "top.self_s": metric(statistics.median(p["self_s"] for p in traced), "s"),
        "trace.overhead_frac": metric(wall["traced"] / wall["plain"] - 1.0, "ratio"),
    }
    return metrics, {"passes": len(out["passes"]), "spans": out["spans"]}


def environment(name: str, seed: int, seconds: float, trace: int) -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        run = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        commit = run.stdout.strip() or None
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
        "numpy": np.__version__, "git_commit": commit, "platform": platform.platform(),
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    checks = Checks()
    work = OUT_DIR / "work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        runner = run_sweep if name in SWEEPS else run_optimize
        metrics, details = runner(name, seed, seconds, bool(trace), work, checks)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record = {
        "environment": environment(name, seed, seconds, trace),
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "failed_frac": checks.failed / checks.attempted,
        "failures": checks.notes,
        "metrics": metrics,
        "details": details,
    }
    path = OUT_DIR / "results" / f"{name}-seed{seed}-trace{trace}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1) + "\n")
    return record


def report(name: str, trace: int, rec: dict) -> None:
    print(f"{name} trace={trace} failed_frac={rec['failed_frac']:.6g} "
          f"({rec['failed']}/{rec['attempted']})")
    for note in rec["failures"]:
        print(f"  FAILED {note}")
    raw = rec["details"].get("raw", {})
    if raw:
        print(f"  host factor {rec['details']['host_factor']:.4g}: times are in seconds "
              f"of the reference host; raw figures in brackets")
    for key, m in rec["metrics"].items():
        extra = f"  [{raw[key]:.6g}]" if key in raw else ""
        print(f"  {key:28s} {m['value']:>14.6g} {m['unit']}{extra}")


def run_all(names, traces, seed: int, seconds: float) -> int:
    """Each run in a fresh interpreter: a child's ru_maxrss starts at the RSS of
    the process that spawned it, so one run's reference must not inflate the
    next run's peak RSS."""
    attempted = failed = 0
    metrics: dict = {}
    for name in names:
        for trace in traces:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
            try:
                lines = proc.communicate()[0].splitlines()
            except BaseException:
                proc.terminate()  # the run kills its own children on SIGTERM
                proc.wait()
                raise
            if not lines or not lines[-1].startswith("{"):
                print(f"error: {name} trace={trace} exited {proc.returncode}", file=sys.stderr)
                return 1
            print("\n".join(lines[:-1]), flush=True)
            result = json.loads(lines[-1])
            attempted += result["attempted"]
            failed += result["failed"]
            metrics.update({f"{name}/{k}": m for k, m in result["metrics"].items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="relayalloc benchmark")
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=json.loads(
        (ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics, 1: per-layer metrics (default: both)")
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit so that spawn() kills the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "relayalloc" / "__init__.py").is_file():
        print(f"error: no relayalloc sources under {SRC}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    traces = (0, 1) if args.trace is None else (args.trace,)
    if len(names) * len(traces) > 1:
        return run_all(names, traces, args.seed, args.seconds)
    rec = run_workload(names[0], args.seed, args.seconds, traces[0])
    report(names[0], traces[0], rec)
    print(json.dumps({k: rec[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if rec["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
