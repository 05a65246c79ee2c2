#!/usr/bin/env python3
"""Build and run the benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/bench.exe with dune (the first run in a fresh checkout
compiles the whole program), then runs it with DEEPBURNING_JOBS set to the
number of usable cores.  The last line of standard output is the result
object; see perfbench/README.md.
"""
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "bench.exe")


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.stderr.write("perfbench: run from the root of a full checkout "
                         "(dune-project and lib/ not found)\n")
        return 2
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/bench.exe"],
        stdout=sys.stderr, stderr=sys.stderr, timeout=880)
    if build.returncode != 0 or not os.path.isfile(EXE):
        sys.stderr.write("perfbench: build failed\n")
        return 2
    env = dict(os.environ)
    env["DEEPBURNING_JOBS"] = str(len(os.sched_getaffinity(0)))
    sys.stdout.flush()
    return subprocess.run([EXE] + sys.argv[1:], env=env, timeout=175).returncode


if __name__ == "__main__":
    sys.exit(main())
