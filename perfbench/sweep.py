#!/usr/bin/env python3
"""Runs the benchmark over several workloads and seeds and records every
result as one JSON line, the input of compare.py.

    python3 perfbench/sweep.py --out base.jsonl [--workloads a,b] [--seeds 1-10]
                               [--seconds N] [--trace 0|1]

Defaults: every workload of BENCHMARK.json, seeds 1-10, its run_seconds,
--trace 0. Runs one at a time; a run that prints no result is recorded
with "result": null.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    for workload in args.workloads.split(","):
        for seed in seeds(args.seeds):
            argv = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                       "--seconds", str(args.seconds),
                                       "--trace", str(args.trace)]
            p = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = p.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if p.returncode == 0 and lines else None
            with open(args.out, "a", encoding="utf-8") as f:
                f.write(json.dumps({"workload": workload, "seed": seed, "trace": args.trace,
                                    "result": result}) + "\n")
            ok = result is not None and result["correct"]
            print(f"{workload} seed {seed}: {'ok' if ok else 'FAILED'}", file=sys.stderr)


if __name__ == "__main__":
    main()
