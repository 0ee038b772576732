"""Run the benchmark over several seeds and summarize each metric's spread.

    python3 bench/collect.py --seeds 1-10 --trace 0 --out FILE
    python3 bench/collect.py --workloads sweep-grid3 --seeds 1-5 --trace 0

For every workload and metric this prints the median, the quartiles and the
spread (q3 - q1) / median, and marks a spread at or above a third of the
metric's bound in BENCHMARK.json.  ``--out`` writes the same summary, every
run's values and the environment as JSON.  Runs are sequential.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import ROOT, environment
from workloads import WORKLOADS


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description="multi-seed benchmark summary")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--out")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    summary: dict = {"seeds": seeds, "seconds": seconds, "trace": args.trace,
                     "environment": environment("collect", seeds[0], seconds, args.trace),
                     "workloads": {}}
    ok = True
    for name in args.workloads.split(","):
        runs = []
        for seed in seeds:
            cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
            if proc.returncode != 0 or result is None or not result["correct"]:
                print(f"{name} seed {seed}: FAILED (exit {proc.returncode})\n"
                      f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}", file=sys.stderr)
                ok = False
                continue
            runs.append(result)
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()), flush=True)
        if not runs:
            continue
        metrics = {}
        for key, m in runs[0]["metrics"].items():
            s = summarize([r["metrics"][key]["value"] for r in runs])
            s["unit"] = m["unit"]
            metrics[key] = s
            bound = bounds.get(key)
            flag = ""
            if bound and key != "setup_s" and s["spread"] is not None:
                flag = "  ok" if s["spread"] < bound / 3 else "  WIDE (bound/3 = %.3g)" % (bound / 3)
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"  {name:18s} {key:30s} median {s['median']:.6g} {m['unit']}"
                  f"  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {spread}{flag}")
        summary["workloads"][name] = {
            "runs": len(runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": metrics,
        }
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
