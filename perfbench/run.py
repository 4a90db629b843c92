#!/usr/bin/env python3
"""Build the perfbench binary from the checkout's sources and run it.

Run from the repository root:

    python3 perfbench/run.py --workload matrix-warm --seed 1 --seconds 10 --trace 0

Every build and run artifact (Go build cache, the binary, the server's
data directories, span dumps) goes under .bench_build/ in the current
directory. The build needs the repository's Go sources next to this
directory; without them it fails and the script exits non-zero without
printing a result.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    out = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(out, "gocache"),
        GOTMPDIR=os.path.join(out, "gotmp"),
        GOPATH=os.path.join(out, "gopath"),
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
        GOFLAGS="-mod=readonly",
    )
    for d in (env["GOCACHE"], env["GOTMPDIR"]):
        os.makedirs(d, exist_ok=True)
    binary = os.path.join(out, "perfbench")
    build = subprocess.run(["go", "build", "-buildvcs=false", "-o", binary, "."], cwd=here, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    return subprocess.run([binary, "--git-sha", git_sha(root)] + sys.argv[1:], cwd=root).returncode


def git_sha(root):
    """The checkout's commit, or "none" when it is not a git work tree."""
    if not os.path.isdir(os.path.join(root, ".git")):
        return "none"
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    except OSError:
        return "none"
    return r.stdout.strip() if r.returncode == 0 else "none"


if __name__ == "__main__":
    sys.exit(main())
