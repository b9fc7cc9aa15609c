#!/usr/bin/env python3
"""Build and run the repository benchmark from the repository root.

    python3 perfbench/run.py --workload ycsb-a --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py compare old.json new.json

perfbench/ is a Go module of its own that uses the repository's module
through a replace directive. This script builds it into
.bench_build/perfbench/ (or $CARGO_TARGET_DIR/perfbench/ when that is set),
with the Go build cache, temporary files and Go's own config under the same
directory, so nothing is read from or written to outside the checkout. It
then replaces itself with the built program, passing the arguments on and
adding --out for the result records and spans. When the build fails it
exits non-zero without printing a result.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    out = os.path.join(build, "perfbench")
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "go-cache"),
        GOPATH=os.path.join(build, "go-path"),
        GOTMPDIR=os.path.join(build, "go-tmp"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
    )
    for d in (out, env["GOTMPDIR"]):
        os.makedirs(d, exist_ok=True)
    binary = os.path.join(out, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env, stdout=sys.stderr)
    if built.returncode != 0:
        sys.exit(built.returncode)
    args = sys.argv[1:]
    if args[:1] != ["compare"]:
        args += ["--out", out]
    sys.stdout.flush()
    os.execve(binary, [binary] + args, env)


if __name__ == "__main__":
    main()
