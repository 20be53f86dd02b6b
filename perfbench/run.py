#!/usr/bin/env python3
"""Builds the benchmark program from this checkout and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

fti_perfbench (perfbench/*.cpp, linked against the repository's libraries)
is configured and built in Release mode under $CARGO_TARGET_DIR, default
.bench_build, on the first run and incrementally afterwards; build output
goes to stderr.  Each run gets a fresh scratch directory under the build
directory, removed afterwards.  Its last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}; it is relayed only
when its metric names are exactly those BENCHMARK.json lists for the
mode (end_to_end untraced, per_layer traced).  A traced run also compares
its exact-repeat counts with those recorded in perfbench/counts.json for
the same workload and seed, and says whether they match.  Exit status: the
program's (0 when every output was correct), or 2 when the build or the run
could not be completed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def build(build_dir):
    """Configures (once) and builds fti_perfbench; returns its path or None."""
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    step = ["cmake", "--build", build_dir, "--target", "fti_perfbench",
            "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(build_dir, "fti_perfbench")


def compare_counts(workload, seed, metrics):
    """One line comparing a traced run's counts with counts.json."""
    path = os.path.join(HERE, "counts.json")
    if not os.path.isfile(path):
        return "counts: no counts.json recorded"
    with open(path) as handle:
        recorded = json.load(handle)
    expected = recorded["runs"].get(workload, {}).get(str(seed))
    if expected is None:
        return f"counts: none recorded for {workload} seed {seed}"
    drift = [f"{name} {expected[name]} -> {metrics[name]['value']:.17g}"
             for name in recorded["counts"]
             if metrics[name]["value"] != expected[name]]
    if drift:
        return "counts: DRIFT from counts.json: " + "; ".join(drift)
    return "counts: match counts.json"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        return fail(f"no repository sources next to {HERE}; nothing to build")
    spec = load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return fail(f"unknown workload '{args.workload}'")
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if args.trace else "end_to_end"]}

    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR")
                              or ".bench_build")
    binary = build(os.path.join(build_root, "perfbench"))
    if binary is None:
        return fail("build failed")

    scratch = tempfile.mkdtemp(prefix="run-", dir=build_root)
    try:
        # Relative to the checkout, so the serve socket path stays short.
        command = [binary, "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace),
                   "--scratch", os.path.relpath(scratch, ROOT),
                   "--root", "."]
        # The compiled engine's host-compiler runs keep their temporary
        # files in the scratch directory too.
        tmp = os.path.join(scratch, "tmp")
        os.mkdir(tmp)
        env = dict(os.environ, TMPDIR=tmp)
        try:
            run = subprocess.run(command, cwd=ROOT, env=env,
                                 stdout=subprocess.PIPE, text=True,
                                 timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return fail(f"{args.workload} did not finish within "
                        f"{RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stdout.write(run.stdout)
        return fail(f"{args.workload} exited {run.returncode} "
                    "without a result line")
    got = {name: metric["unit"] for name, metric in result["metrics"].items()}
    if got != wanted:
        missing = sorted(set(wanted) - set(got))
        extra = sorted(set(got) - set(wanted))
        wrong_unit = sorted(n for n in set(got) & set(wanted)
                            if got[n] != wanted[n])
        return fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
                    f"extra {extra}, unit {wrong_unit}")
    if args.trace:
        lines.insert(-1, compare_counts(args.workload, args.seed,
                                        result["metrics"]))
    print("\n".join(lines), flush=True)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
