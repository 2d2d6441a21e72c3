#!/usr/bin/env python3
"""Runs the benchmark several times, one seed per run, and prints each
metric's median and its spread: the distance between the first and third
quartile as a share of the median (statistics.quantiles(values, n=4)).

    python3 perfbench/steadiness.py --workload mpas-a --runs 10 --seconds 30
    python3 perfbench/steadiness.py --workload mom6 --runs 3 --trace 1

Run it from the root of the repository; it calls perfbench/run.sh.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--json", help="append every run's result line to this file")
    a = ap.parse_args()

    values = {}
    units = {}
    for i in range(a.runs):
        seed = a.first_seed + i
        t0 = time.monotonic()
        out = subprocess.run(
            ["bash", "perfbench/run.sh", "--workload", a.workload, "--seed", str(seed),
             "--seconds", str(a.seconds), "--trace", str(a.trace)],
            capture_output=True, text=True)
        wall = time.monotonic() - t0
        if out.returncode != 0:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr}")
        lines = out.stdout.strip().splitlines()
        res = json.loads(lines[-1])
        host = next((l for l in lines if l.startswith("# host ")), "")
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']} wall={wall:.1f}s {host[2:]}", flush=True)
        if a.json:
            with open(a.json, "a") as f:
                f.write(json.dumps({"workload": a.workload, "seed": seed, "trace": a.trace,
                                    "result": res, "notes": lines[:-1]}) + "\n")
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]

    print(f"{'metric':34} {'unit':7} {'median':>14} {'spread':>8}")
    for name in sorted(values):
        vs = values[name]
        med = statistics.median(vs)
        spread = float("nan")
        if len(vs) >= 2 and med != 0:
            q = statistics.quantiles(vs, n=4)
            spread = (q[2] - q[0]) / abs(med)
        print(f"{name:34} {units[name]:7} {med:14.6g} {spread:8.4f}")


if __name__ == "__main__":
    main()
