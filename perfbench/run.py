#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. It builds `perfbench/` (which compiles the
synergy libraries from `src/`) into `.bench_build/`, trains the V100 model set
when the workload plans through models, runs the workload in its own process,
checks the outputs and prints one JSON object as the last line of standard
output. It exits 1, without a result line, when it cannot build or run, and
with a result line but exit code 1 when the correctness gate fails.

The gate, per run: every repetition's summary-CSV and per-job digests (energy
digest on library_submit) must be identical to each other (untraced, traced
and bare repetitions alike), the resumed middle checkpoint artefact must
reproduce the uninterrupted replay, and where `reference.json` records the
seed, the digest must match it.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("replay_backfill_congested", "replay_governed_drift",
             "replay_chaos_checkpoint", "library_submit")
NEEDS_MODELS = ("replay_governed_drift", "library_submit")


def fail(msg):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(1)


def build(root, build_dir):
    """Configure once, then build the perfbench target; returns the binary."""
    if not os.path.isfile(os.path.join(root, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(root, "src")):
        fail(f"{root} is not a synergy source tree (no CMakeLists.txt and src/)")
    log = os.path.join(os.path.dirname(build_dir), "build.log")
    os.makedirs(build_dir, exist_ok=True)
    with open(log, "w") as out:
        steps = []
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                with open(log) as text:
                    sys.stderr.write(text.read()[-4000:])
                fail("benchmark build failed (log: " + log + ")")
    return os.path.join(build_dir, "perfbench")


def last_json(stdout, what):
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        fail(f"{what} printed nothing")
    return json.loads(lines[-1])


def gate(result, reference):
    """Count failed operations: repetitions whose digests disagree with the
    first repetition or with the recorded reference, plus operations the
    program itself reported as failed."""
    reps = result["reps"]
    expected = reference if reference is not None else reps[0]["digest"]
    attempted = failed = 0
    problems = []
    for i, r in enumerate(reps):
        ops = int(r["ops"]) + int(r["restore_samples"])
        attempted += ops
        failed += int(r["failed_ops"])
        bad = []
        if r["digest"] != expected:
            bad.append(f"digest {r['digest']} != {expected}")
        if "resume_digest" in r and r["resume_digest"] != r["digest"]:
            bad.append(f"resumed digest {r['resume_digest']} != {r['digest']}")
        if bad:
            failed += int(r["ops"])
            problems.append(f"rep {i} ({r['mode']}): " + "; ".join(bad))
    return attempted, failed, problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--scale", default="full", choices=("full", "tiny"),
                    help="input sizes; tiny is for the self-test")
    ap.add_argument("--perturb", action="store_true",
                    help="corrupt one repetition's result (self-test of the gate)")
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0")

    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace == "1" else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    work_root = os.path.join(root, ".bench_build")
    binary = build(root, os.path.join(work_root, "perfbench"))
    scratch = tempfile.mkdtemp(prefix="run-", dir=work_root)
    try:
        store = None
        if args.workload in NEEDS_MODELS:
            store = os.path.join(scratch, "models")
            trained = subprocess.run([binary, "train", "--store", store],
                                     capture_output=True, text=True)
            if trained.returncode != 0:
                sys.stderr.write(trained.stderr)
                fail("model training failed")
            train_s = last_json(trained.stdout, "training")["train_s"]
            print(f"model set trained in {train_s:.3f} s (not part of setup_s)")
        cmd = [binary, "run", "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--store", store or os.path.join(scratch, "no-models"),
               "--scratch", os.path.join(scratch, "work"), "--scale", args.scale]
        if args.perturb:
            cmd.append("--perturb")
        t0 = time.monotonic()
        ran = subprocess.run(cmd, capture_output=True, text=True)
        if ran.returncode != 0:
            sys.stderr.write(ran.stderr)
            fail(f"workload {args.workload} exited with {ran.returncode}")
        result = last_json(ran.stdout, "workload")
        elapsed = time.monotonic() - t0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    with open(os.path.join(BENCH_DIR, "reference.json")) as f:
        references = json.load(f)
    reference = references.get(args.scale, {}).get(args.workload, {}).get(str(args.seed))
    attempted, failed, problems = gate(result, reference)

    emitted = result["metrics"]
    if set(emitted) != set(units):
        fail(f"metric set mismatch: missing {sorted(set(units) - set(emitted))}, "
             f"extra {sorted(set(emitted) - set(units))}")
    modes = {}
    for r in result["reps"]:
        modes[r["mode"]] = modes.get(r["mode"], 0) + 1
    restores = sum(int(r["restore_samples"]) for r in result["reps"])
    if reference is None:
        ref_state = "no reference recorded for this seed"
    elif all(r["digest"] == reference for r in result["reps"]):
        ref_state = "reference matched"
    else:
        ref_state = "reference MISMATCH"
    print(f"{args.workload} seed={args.seed} scale={args.scale}: {len(result['reps'])} "
          f"repetitions {modes} in {elapsed:.1f} s; restore samples {restores}; {ref_state}")
    for p in problems:
        print(f"correctness: {p}")
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": emitted[name], "unit": units[name]} for name in units},
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
