#!/usr/bin/env python3
"""Build the host-time benchmark from source and run it.

    python3 perfbench/run.py --workload serve --seed 1 --seconds 20 --trace 0

The arguments go to bench.exe unchanged (see perfbench/README.md).  The
last line of standard output is the JSON result.  If the build fails
the script exits non-zero without printing a result.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")


def run(argv, stdout, env=None):
    """Run argv in the checkout root; the child never outlives this script."""
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=stdout, stderr=sys.stderr,
                            env=env)
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def main():
    # Build output goes to stderr so the result stays the last stdout line.
    # The shared dune cache lives outside the checkout, so it stays off.
    build = ["dune", "build", "--root", ".", "./perfbench/bench.exe"]
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        status = run(build, sys.stderr, env)
    except FileNotFoundError:
        print("perfbench: dune not found", file=sys.stderr)
        return 2
    if status != 0:
        print("perfbench: build failed", file=sys.stderr)
        return status
    return run([EXE] + sys.argv[1:], sys.stdout)


if __name__ == "__main__":
    sys.exit(main())
