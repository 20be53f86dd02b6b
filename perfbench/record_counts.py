#!/usr/bin/env python3
"""Records the exact-repeat counts of traced runs in perfbench/counts.json.

    python3 perfbench/record_counts.py [SEED ...]      (default seeds 1-10)

Runs every workload traced once per seed through run.py and rewrites
counts.json with the count metrics of each run.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
COUNTS = ["elab.cycles", "elab.event.events", "compiler.ir_units",
          "compiler.fsm_states", "xml.lines", "codegen.lines",
          "lint.findings", "fuzz.total_cycles"]


def main():
    seeds = [int(seed) for seed in sys.argv[1:]] or list(range(1, 11))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    runs = {}
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in seeds:
            run = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "1"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
            metrics = json.loads(run.stdout.strip().split("\n")[-1])["metrics"]
            runs.setdefault(workload, {})[str(seed)] = {
                name: metrics[name]["value"] for name in COUNTS}
            print(f"{workload} seed {seed}: recorded", file=sys.stderr)
    with open(os.path.join(HERE, "counts.json"), "w") as handle:
        json.dump({"counts": COUNTS, "runs": runs}, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    main()
