#!/usr/bin/env python3
"""Record the reference digests the correctness gate compares against.

    python3 perfbench/record_reference.py --scale full --seeds 0-99,7919

Run it from the repository root, only when a change is meant to alter
simulated behaviour; the digests pin the current code's outputs. For each
workload and seed it runs the minimum repetitions, requires them (and any
resumed checkpoint) to agree, and stores the digest in reference.json.
Two workload processes run at a time.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (build and gate helpers of the runner)

JOBS = 2  # workload processes at once


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--scale", default="full", choices=("full", "tiny"))
    ap.add_argument("--seeds", required=True, help="e.g. 0-99,7919")
    args = ap.parse_args()

    root = os.getcwd()
    work_root = os.path.join(root, ".bench_build")
    binary = run.build(root, os.path.join(work_root, "perfbench"))
    scratch = tempfile.mkdtemp(prefix="record-", dir=work_root)
    store = os.path.join(scratch, "models")
    subprocess.run([binary, "train", "--store", store], check=True, stdout=subprocess.DEVNULL)

    def record(task):
        workload, seed = task
        out = subprocess.run(
            [binary, "run", "--workload", workload, "--seed", str(seed), "--seconds", "0",
             "--trace", "0", "--store", store, "--scale", args.scale,
             "--scratch", os.path.join(scratch, f"{workload}-{seed}")],
            capture_output=True, text=True, check=True)
        result = run.last_json(out.stdout, workload)
        _, failed, problems = run.gate(result, None)
        if failed:
            raise RuntimeError(f"{workload} seed {seed}: {problems or 'failed operations'}")
        return workload, seed, result["reps"][0]["digest"]

    tasks = [(w, s) for w in run.WORKLOADS for s in parse_seeds(args.seeds)]
    path = os.path.join(run.BENCH_DIR, "reference.json")
    with open(path) as f:
        references = json.load(f)
    try:
        with ThreadPoolExecutor(max_workers=JOBS) as pool:
            for workload, seed, digest in pool.map(record, tasks):
                references.setdefault(args.scale, {}).setdefault(workload, {})[str(seed)] = digest
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    ordered = {scale: {w: dict(sorted(seeds.items(), key=lambda kv: int(kv[0])))
                       for w, seeds in sorted(by_workload.items())}
               for scale, by_workload in sorted(references.items())}
    with open(path, "w") as f:
        json.dump(ordered, f, indent=1)
        f.write("\n")
    print(f"recorded {len(tasks)} digests into {path}")


if __name__ == "__main__":
    main()
