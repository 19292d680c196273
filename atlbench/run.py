#!/usr/bin/env python3
"""Build the simulator benchmark from source and run one workload.

    python3 atlbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. The first call configures and
builds atlbench/ (CMake, Release) into $CARGO_TARGET_DIR, or
.bench_build when that is unset; later calls only rebuild what changed.
The benchmark binary's stderr (build output, per-cell diagnostics and
the library's warnings) goes to .bench_out/<workload>-seed<n>.log and
is echoed only when the run fails. The last line of stdout is the
result object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("smp8", "uni1", "footprint", "hint_faults")
BUILD_JOBS = str(min(4, os.cpu_count() or 1))


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, path)


def build(log):
    """Configure (once) and build the benchmark; raise on failure."""
    out = build_dir()
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=log, stderr=log, env=env, check=True)
    subprocess.run(["cmake", "--build", out, "--target", "atlbench",
                    "-j", BUILD_JOBS],
                   stdout=log, stderr=log, env=env, check=True)
    return os.path.join(out, "atlbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "%s-seed%d%s.log" % (
        args.workload, args.seed, "-trace" if args.trace else ""))
    with open(log_path, "w") as log:
        try:
            binary = build(log)
        except (OSError, subprocess.CalledProcessError) as err:
            log.flush()
            sys.stderr.write(open(log_path).read()[-4000:])
            sys.stderr.write("build failed: %s\n" % err)
            return 1
        proc = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--out", out_dir],
            stdout=subprocess.PIPE, stderr=log, text=True,
            # No ATL_* knob (host shards, fabric, isolation, tracing,
            # phase profiling) may change what is measured.
            env={k: v for k, v in os.environ.items()
                 if not k.startswith("ATL_")})
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        sys.stderr.write(open(log_path).read()[-4000:])
        sys.stderr.write("atlbench exited with %d\n" % proc.returncode)
        return 1
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
