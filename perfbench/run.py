#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload acc_casper --seed 1 --seconds 15 --trace 0

It builds the perfbench Go program from the checkout's sources into
.bench_build/ (the Go build cache, temporary files and CPU profiles stay
there too), runs it with the given arguments, and passes its output
through; the last line of standard output is the JSON result. It exits
non-zero without a result when the program's sources are missing.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170


def go_env():
    env = dict(os.environ)
    dirs = {
        "GOCACHE": "gocache",
        "GOMODCACHE": "gomodcache",
        "GOPATH": "gopath",
        "GOTMPDIR": "tmp",
        "TMPDIR": "tmp",
        "HOME": "home",
        "XDG_CONFIG_HOME": "home",
        "XDG_CACHE_HOME": "home",
    }
    for var, sub in dirs.items():
        path = os.path.join(BUILD, sub)
        os.makedirs(path, exist_ok=True)
        env[var] = path
    env.update(GOTOOLCHAIN="local", GOPROXY="off", GOFLAGS="-mod=readonly",
               GOWORK="off", GOENV="off", GOTELEMETRY="off", CGO_ENABLED="0")
    return env


def main():
    if not (os.path.isfile(os.path.join(ROOT, "go.mod"))
            and os.path.isdir(os.path.join(ROOT, "internal", "sim"))):
        print("perfbench: the simulator's sources are not next to perfbench/",
              file=sys.stderr)
        return 2
    if shutil.which("go") is None:
        print("perfbench: no go toolchain on PATH", file=sys.stderr)
        return 2
    env = go_env()
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    sys.stdout.flush()
    proc = subprocess.Popen([binary] + sys.argv[1:], cwd=ROOT, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
