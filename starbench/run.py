#!/usr/bin/env python3
"""Build starbench from this checkout, then run one workload.

    python3 starbench/run.py --workload tracker_stream --seed 7 --seconds 10 --trace 0
    python3 starbench/run.py --self-test

The benchmark and the starsim libraries it links are built with CMake into
.bench_build/starbench at the root of the checkout (the first run builds;
later runs only check that the build is current). Build output goes to
standard error, so standard output is exactly the benchmark's: a provenance
line, then the one-line JSON result. See starbench/README.md.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "starbench")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170
TEST_TIMEOUT_S = 600


def fail(message, code=1):
    print(f"starbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no starsim sources under {ROOT}", 2)
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR])
    jobs = str(os.cpu_count() or 1)
    steps.append(["cmake", "--build", BUILD_DIR, "--target", target,
                  "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as error:
            fail(f"build step {step[:2]} failed: {error}")
        if done.returncode != 0:
            fail(f"build step {' '.join(step[:2])} exited {done.returncode}")
    return os.path.join(BUILD_DIR, target)


def code_identity():
    """The commit when this is a git checkout, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30)
            if sha.returncode == 0 and sha.stdout.strip():
                return sha.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for top in ("src", "starbench"):
        for folder, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as source:
                    digest.update(source.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def run(command, timeout):
    try:
        return subprocess.run(command, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        fail(f"{os.path.basename(command[0])} exceeded {timeout} s")
    except OSError as error:
        fail(f"cannot start {command[0]}: {error}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if args.self_test:
        sys.exit(run([build("starbench_tests")], TEST_TIMEOUT_S))
    if not args.workload:
        fail("--workload is required", 2)
    binary = build("starbench")
    sys.exit(run([binary, "--workload", args.workload,
                  "--seed", str(args.seed),
                  "--seconds", repr(args.seconds),
                  "--trace", args.trace,
                  "--git-sha", code_identity()], RUN_TIMEOUT_S))


if __name__ == "__main__":
    main()
