#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the Go program in perfbench/ against the repository's sources,
keeping the Go build cache, temporary files and the run's WAL under
perfbench/.work so nothing outside the checkout is written, then runs it
and passes its output and exit code through. The last line of standard
output is the result object described in perfbench/main.go.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(HERE, ".work")
BIN = os.path.join(WORK, "bin", "perfbench")
RUN_TIMEOUT_S = 170


def main():
    tmp = os.path.join(WORK, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(WORK, "gocache"),
        GOPATH=os.path.join(WORK, "gopath"),
        XDG_CONFIG_HOME=os.path.join(WORK, "config"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
        GOFLAGS="-mod=mod",
    )
    children = []

    def stop(signum, _frame):
        # Never leave a build or the benchmark running behind a stopped wrapper.
        for child in children:
            child.kill()
            child.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)

    build = subprocess.Popen(["go", "build", "-o", BIN, "."], cwd=HERE, env=env, stdout=sys.stderr)
    children.append(build)
    if build.wait() != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    children.remove(build)
    bench = subprocess.Popen([BIN, *sys.argv[1:], "--work-dir", os.path.join(WORK, "run")], env=env)
    children.append(bench)
    try:
        return bench.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        bench.kill()
        bench.wait()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S}s and was killed", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
