#!/usr/bin/env python3
"""Build and run the reach-estimate benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload reprobe --seed 1 --seconds 10 --trace 0

Run from the repository root. The Go harness in perfbench/ is compiled from
the checkout's own sources into .bench_build/ (the Go build cache and
temporary files live there too, so nothing outside the checkout is read or
written besides the Go toolchain itself), then run with the same arguments.
Its last line of standard output is the JSON result. Without the
repository's Go module next to perfbench/ this script exits non-zero
without a result.
"""

import os
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not os.path.isfile(os.path.join(root, "go.mod")):
        print("perfbench: no Go module at the checkout root to benchmark", file=sys.stderr)
        return 2
    build = os.path.join(root, ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)

    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "go-cache"),
        GOMODCACHE=os.path.join(build, "go-mod"),
        GOPATH=os.path.join(build, "go-path"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOTOOLCHAIN="local",
        GOFLAGS="",
        GOWORK="off",
        CGO_ENABLED="0",
    )

    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    # The harness owns its servers and workers and exits only after shutting
    # them down; wait for it and pass its status through.
    return subprocess.run([binary] + sys.argv[1:], cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
