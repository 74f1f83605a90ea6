#!/usr/bin/env python3
"""Fast self-test of the benchmark on tiny inputs.

    python3 perfbench/selftest.py

Run it from the repository root. For every workload it runs both modes
(`--trace 0` and `--trace 1`) with `--scale tiny` and checks that the result
line names every metric of BENCHMARK.json with its unit, that the gate
passes and matches the recorded tiny reference, and then that the gate fires
(correct false, failed > 0, exit 1) on a deliberately perturbed result.
Exits 0 when every check holds.
"""

import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SEED = 5  # tiny references are recorded for this seed


def bench(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(run.BENCH_DIR, "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "0", "--trace", trace, "--scale", "tiny", *extra]
    out = subprocess.run(cmd, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"FAIL {workload} trace={trace}: no result line\n{out.stderr}")
    return out.returncode, lines, json.loads(lines[-1])


def main():
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    run.build(root, os.path.join(root, ".bench_build", "perfbench"))
    failures = []
    for workload in run.WORKLOADS:
        for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
            code, lines, result = bench(workload, trace)
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            tag = f"{workload} trace={trace}"
            if got != want:
                failures.append(f"{tag}: metrics/units {got} != {want}")
            if not all(isinstance(v["value"], (int, float))
                       for v in result["metrics"].values()):
                failures.append(f"{tag}: non-numeric metric value")
            if code != 0 or not result["correct"] or result["failed"] != 0:
                failures.append(f"{tag}: gate failed on a clean run: {lines[-2:]}")
            if "reference matched" not in lines[-2]:
                failures.append(f"{tag}: tiny reference not matched: {lines[-2]}")
            print(f"ok   {tag}: {len(got)} metrics, attempted {result['attempted']}")
    for workload in ("replay_chaos_checkpoint", "library_submit"):
        code, _, result = bench(workload, "0", "--perturb")
        fired = code == 1 and not result["correct"] and result["failed"] > 0
        if not fired:
            failures.append(f"{workload}: gate did not fire on a perturbed result")
        print(f"{'ok  ' if fired else 'FAIL'} {workload}: perturbed result "
              f"{'rejected' if fired else 'accepted'} (failed {result['failed']})")
    for f in failures:
        print("FAIL", f)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
