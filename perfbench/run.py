#!/usr/bin/env python3
"""Build the perfbench binary from source and run one benchmark workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload release-batch --seed 1 --seconds 30 --trace 0

Everything the build and the run write stays under .bench_build/ in the
checkout (Go build cache, temp files, the binary and the trace files). The
last line of standard output is the JSON result printed by the binary.
"""
import hashlib
import os
import subprocess
import sys

ROOT = os.getcwd()
OUT = os.path.join(ROOT, ".bench_build")


def source_digest():
    """sha256 over the module's Go sources and go.mod files, for the host record."""
    h = hashlib.sha256()
    for base, dirs, files in os.walk(ROOT):
        dirs[:] = sorted(d for d in dirs if not d.startswith("."))
        for f in sorted(files):
            if f.endswith(".go") or f == "go.mod":
                p = os.path.join(base, f)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def git_rev():
    # Only a checkout with its own .git: git would otherwise search the
    # directories above the checkout.
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        r = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return r.stdout.strip() if r.returncode == 0 and r.stdout.strip() else "none"


def main():
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "gocache"), ("GOTMPDIR", "tmp"), ("GOPATH", "gopath")):
        env[key] = os.path.join(OUT, sub)
        os.makedirs(env[key], exist_ok=True)
    env["GOTOOLCHAIN"] = "local"
    env["GOPROXY"] = "off"
    binary = os.path.join(OUT, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."],
                           cwd=os.path.join(ROOT, "perfbench"), env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    env["PERFBENCH_REV"] = "git:%s src:%s" % (git_rev(), source_digest())
    args = [binary, "--trace-dir", os.path.join(OUT, "traces")] + sys.argv[1:]
    return subprocess.run(args, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
