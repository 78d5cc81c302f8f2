#!/usr/bin/env python3
"""Build and run the dtncache benchmark.

Usage (from the repository root):

    python3 dtnbench/run.py --workload replay-reality --seed 1 --seconds 15 --trace 0

The script builds the benchmark binary and dtnserved from source into
.bench_build/ (Go build cache, temp files and HOME included, so nothing
is written outside the checkout) and then runs the benchmark, passing
its arguments through. The last line of standard output is the result
JSON. Without the repository sources next to dtnbench/ the build fails
and the script exits non-zero without printing a result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def go_env():
    env = dict(os.environ)
    dirs = {
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOTMPDIR": os.path.join(BUILD, "tmp"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "HOME": os.path.join(BUILD, "home"),
        "XDG_CACHE_HOME": os.path.join(BUILD, "home", ".cache"),
        "XDG_CONFIG_HOME": os.path.join(BUILD, "home", ".config"),
        "TMPDIR": os.path.join(BUILD, "tmp"),
    }
    for d in dirs.values():
        os.makedirs(d, exist_ok=True)
    env.update(dirs)
    env.update({
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
        "GOPROXY": "off",
        "GOFLAGS": "-mod=readonly",
        "CGO_ENABLED": "0",
    })
    return env


def main():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        print("dtnbench: repository sources not found next to dtnbench/", file=sys.stderr)
        return 2
    env = go_env()
    bindir = os.path.join(BUILD, "bin")
    os.makedirs(bindir, exist_ok=True)
    build = subprocess.run(
        ["go", "build", "-o", bindir + os.sep, ".", "dtncache/cmd/dtnserved"],
        cwd=HERE, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("dtnbench: build failed", file=sys.stderr)
        return 2
    args = [os.path.join(bindir, "dtnbench"),
            "-root", ROOT,
            "-dtnserved", os.path.join(bindir, "dtnserved")] + sys.argv[1:]
    return subprocess.run(args, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
