#!/usr/bin/env python3
"""Build the lpo library and the lpobench program from source, then run one
benchmark workload.

    python3 lpobench/run.py --workload module_cold --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout. The build lives in .bench_build/ at the
root (created on first use, reused afterwards); serve spools, stores and span
files go there too. Every line the program prints is passed through; the last
line of standard output is its JSON result. The exit code is the program's,
or nonzero when the build fails or the run overruns its time limit.
"""

import argparse
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "lpobench")
BINARY = os.path.join(BUILD_DIR, "lpobench")
WORKLOADS = ("module_cold", "module_warm", "serve_mixed")
# A run must end within 180 s; leave room to report the overrun.
RUN_TIMEOUT_S = 170


def build():
    os.makedirs(BUILD_ROOT, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "build.log")
    # Concurrent runs in one checkout share the build; serialize it.
    with open(os.path.join(BUILD_ROOT, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        with open(log_path, "w") as log:
            steps = [
                ["cmake", "-S", HERE, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", BUILD_DIR, "-j", "4"],
            ]
            for step in steps:
                if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                  cwd=ROOT).returncode != 0:
                    log.flush()
                    with open(log_path) as text:
                        sys.stderr.write(text.read()[-4000:])
                    sys.stderr.write("lpobench: build failed (%s)\n" % log_path)
                    return False
    return os.path.exists(BINARY)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        return 1
    command = [
        BINARY,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--work-dir", os.path.join(BUILD_ROOT, "work"),
        "--trace-dir", os.path.join(BUILD_ROOT, "traces"),
    ]
    sys.stdout.flush()
    process = subprocess.Popen(command, cwd=ROOT)
    try:
        return process.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
        sys.stderr.write("lpobench: run exceeded %d s and was stopped\n"
                         % RUN_TIMEOUT_S)
        return 124
    except BaseException:
        process.kill()
        process.wait()
        raise


if __name__ == "__main__":
    sys.exit(main())
