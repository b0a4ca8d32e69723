#!/usr/bin/env python3
"""Builds and runs the bddcf benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload words|arith|serve --seed N \
        --seconds S --trace 0|1

Builds the benchmark package (perfbench/Cargo.toml, against the crates of
the checkout) in release mode, prints the host facts as a `# host` line,
runs one workload and passes its output through: the last stdout line is
the result object. Exits non-zero when the build fails, when the run
fails, or when any correctness check fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")
TIMEOUT_S = 170


def host_facts():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        rustc = subprocess.run(
            ["rustc", "--version"], capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        rustc = "unknown"
    return f"# host: nproc={os.cpu_count()} cpu={cpu!r} rustc={rustc!r}"


def main():
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join(".bench_build"))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", MANIFEST],
        env=dict(os.environ, CARGO_TARGET_DIR=target),
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("benchmark build failed", file=sys.stderr)
        return 2
    binary = os.path.join(target, "release", "bddcf-perfbench")
    print(host_facts(), flush=True)
    try:
        run = subprocess.run([binary] + sys.argv[1:], timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"benchmark run exceeded {TIMEOUT_S} s", file=sys.stderr)
        return 3
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
