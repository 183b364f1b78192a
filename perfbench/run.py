#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The build output goes to _build/ there
(the shared dune cache is switched off, so nothing is written outside the
checkout); build messages go to standard error.  A failed build exits
with code 2 and prints no result.  Otherwise the benchmark replaces this
process, so its exit code and its last line of output (the JSON summary)
are the run's.
"""

import os
import shutil
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "bench.exe")


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    os.chdir(root)
    dune = shutil.which("dune")
    cmd = [dune] if dune else ["opam", "exec", "--", "dune"]
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            cmd + ["build", "--root", ".", "./perfbench/bench.exe"],
            stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build did not finish: {e}", file=sys.stderr)
        return 2
    if build.returncode != 0 or not os.path.exists(EXE):
        print("run.py: build failed", file=sys.stderr)
        return 2
    sys.stdout.flush()
    os.execv(EXE, [EXE] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
