"""Run the benchmark over several seeds and report each end-to-end metric's
median and quartile spread, with the seed-determined work of every round.

    python3 perfbench/sweep.py --seeds 1-10 [--workload NAME ...] [--out FILE]

Run from the root of a checkout; each run measures BENCHMARK.json's
run_seconds.  The spread is the distance between the
first and third quartile (statistics.quantiles, n=4) as a share of the
median; a metric is steady when it stays below a third of its bound in
BENCHMARK.json.  With --out the machine facts, every run's result and the
summary are written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import machine_facts


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    result = lines[-1]
    rounds = next((line for line in lines if "rounds" in line), {})
    run = {"seed": seed, "result": result, "rounds": rounds.get("rounds", [])}
    if result["failed"]:
        run["stderr"] = proc.stderr.strip()[-4000:]
    return run


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable); default: all")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="write the sweep as JSON here")
    args = parser.parse_args()

    metrics = spec["per_layer" if args.trace else "end_to_end"]
    seconds = spec["run_seconds"]
    doc = {"machine": machine_facts(), "run_seconds": seconds, "trace": args.trace,
           "workloads": {}}
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        runs = []
        for seed in parse_seeds(args.seeds):
            runs.append(run_once(workload, seed, seconds, args.trace))
            r = runs[-1]["result"]
            print(f"{workload} seed {seed}: correct={r['correct']} failed={r['failed']}/{r['attempted']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in r["metrics"].items()), flush=True)
        summary = {}
        for m in metrics:
            values = [run["result"]["metrics"][m["name"]]["value"] for run in runs]
            entry = {"median": statistics.median(values)}
            if len(values) >= 2 and entry["median"]:
                entry["spread"] = spread(values)
                if "bound" in m:
                    entry["steady"] = entry["spread"] < m["bound"] / 3
            summary[m["name"]] = entry
            print(f"  {m['name']}: " + " ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                                             for k, v in entry.items()), flush=True)
        doc["workloads"][workload] = {"summary": summary, "runs": runs}
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
