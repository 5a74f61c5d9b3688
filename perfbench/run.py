#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload serve-steady --seed 1 --seconds 10 --trace 0

Builds spstreamd, spstream-gateway and the perfbench binary from the
checkout's sources into .bench_build/ (with the Go build cache there
too, so nothing is written outside the checkout), then runs the binary
with the given arguments. Its standard output is passed
through; its last line is the JSON result. Building is not timed.
"""
import os
import signal
import subprocess
import sys

TIMEOUT_S = 170  # a run must end within three minutes, builds excluded


def main():
    root = os.getcwd()
    build = os.path.join(root, ".bench_build")
    bindir = os.path.join(build, "bin")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOMODCACHE": os.path.join(build, "gopath", "pkg", "mod"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "-mod=mod",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
    })
    steps = [
        (root, ["go", "build", "-o", os.path.join(bindir, "spstreamd"), "./cmd/spstreamd"]),
        (root, ["go", "build", "-o", os.path.join(bindir, "spstream-gateway"), "./cmd/spstream-gateway"]),
        (os.path.join(root, "perfbench"), ["go", "build", "-o", os.path.join(bindir, "perfbench"), "."]),
    ]
    for cwd, cmd in steps:
        if not os.path.isfile(os.path.join(root, "go.mod")) or not os.path.isdir(cwd):
            sys.stderr.write("run.py: no Go module to build in %s\n" % root)
            return 1
        proc = subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            sys.stderr.write("run.py: build failed: %s\n" % " ".join(cmd))
            return 1
    work = os.path.join(build, "work", str(os.getpid()))
    cmd = [os.path.join(bindir, "perfbench"), "run", "--bin", bindir, "--work", work] + sys.argv[1:]
    proc = subprocess.Popen(cmd, cwd=root, env=os.environ, start_new_session=True)
    try:
        return proc.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("run.py: benchmark exceeded %d s; stopping it\n" % TIMEOUT_S)
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return 1
    except KeyboardInterrupt:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return 1


if __name__ == "__main__":
    sys.exit(main())
