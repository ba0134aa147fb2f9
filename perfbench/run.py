#!/usr/bin/env python3
"""Build and run the outside-in benchmark of the Paldia reproduction.

Usage (from the repository root):

    python3 perfbench/run.py --workload twitter-vision --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py [--seed N] [--seconds S]     # every workload, both passes

Builds `perfbench` (its own Cargo package) and the `paldia-serve` binary
from source into $CARGO_TARGET_DIR (default `.bench_build`), then runs the
benchmark with PALDIA_JOBS and PALDIA_SHARDS removed from its environment
and from everything it launches. With --workload, the last line of standard
output is the result object; without it, every workload of BENCHMARK.json
runs with --trace 0 and then 1, and the exit code is non-zero if any run
failed a check. See perfbench/README.md for the workloads and metrics.
"""

import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def quiet(cmd):
    """Output of `cmd`, or "unknown" when it cannot run."""
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest():
    """SHA-256 over the program's sources, standing in for the commit when
    the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "src", "crates"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in sorted(files):
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def main(argv):
    for needed in ("Cargo.toml", "crates", os.path.join("perfbench", "Cargo.toml")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            return fail(f"{needed} is missing: run from a full checkout of the repository")
    env = dict(os.environ)
    env.pop("PALDIA_JOBS", None)
    env.pop("PALDIA_SHARDS", None)
    target = os.path.join(ROOT, env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(ROOT, "perfbench", "Cargo.toml")],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(ROOT, "Cargo.toml"),
         "-p", "paldia-serve", "--bin", "paldia-serve"],
    ]
    for cmd in builds:
        # Build output goes to stderr: stdout ends with the result line.
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            return fail(f"build failed: {' '.join(cmd)}")
    commit = quiet(["git", "rev-parse", "HEAD"])
    host = " ".join([
        f"nproc={quiet(['nproc'])}",
        f"commit={commit if commit != 'unknown' else 'src-' + source_digest()}",
        f"rustc=\"{quiet(['rustc', '--version'])}\"",
    ])
    bench = [
        os.path.join(target, "release", "paldia-perfbench"),
        "--serve-bin", os.path.join(target, "release", "paldia-serve"),
        "--out-dir", os.path.join(target, "perfbench"),
        "--host", host,
    ]
    if "--workload" in argv:
        sys.stdout.flush()
        return subprocess.run(bench + argv, cwd=ROOT, env=env).returncode
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    defaults = {"--seed": "1", "--seconds": str(spec["run_seconds"])}
    for flag, value in defaults.items():
        if flag not in argv:
            argv = argv + [flag, value]
    worst = 0
    for workload in spec["workloads"]:
        for trace in ("0", "1"):
            sys.stdout.flush()
            code = subprocess.run(
                bench + argv + ["--workload", workload["name"], "--trace", trace],
                cwd=ROOT, env=env).returncode
            worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
