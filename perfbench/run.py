#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload explore-plain --seed 1 --seconds 30 --trace 0

The benchmark is its own Go module (perfbench/go.mod) that imports the
checker's packages from the enclosing module. This wrapper builds it with
a build cache, temp dir and Go config kept under .bench_build/ in the
repository root, so nothing is read or written outside the checkout, and
then runs the binary with the given arguments. The binary's last stdout
line is the JSON result; its exit code is passed through.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT = 850  # seconds; the first build in a fresh checkout compiles the standard library
RUN_TIMEOUT = 175  # seconds


def main():
    root = os.getcwd()
    bench = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(root, "go.mod")) or not os.path.isdir(os.path.join(root, "internal")):
        sys.stderr.write("perfbench: run from the repository root (go.mod and internal/ not found)\n")
        return 2
    out = os.path.join(root, ".bench_build")
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(out, "gocache"),
        "GOPATH": os.path.join(out, "gopath"),
        "GOMODCACHE": os.path.join(out, "gopath", "pkg", "mod"),
        "XDG_CONFIG_HOME": os.path.join(out, "config"),
        "GOENV": "off",
        "GOFLAGS": "",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOSUMDB": "off",
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
    })
    binary = os.path.join(out, "perfbench")
    try:
        build = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench, env=env,
                               stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT)
    except (OSError, subprocess.TimeoutExpired) as err:
        sys.stderr.write("perfbench: build failed: %s\n" % err)
        return 2
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed (exit %d)\n" % build.returncode)
        return 2
    try:
        run = subprocess.run([binary] + sys.argv[1:], cwd=root, env=env, timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT)
        return 3
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
