#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds the `perfbench` package (its own
Cargo workspace; the target directory is `$CARGO_TARGET_DIR`, default
`.bench_build`), runs it, and measures the peak resident memory of the
process that ran the workload. Prints two JSON lines on stdout:

1. the run record: schema, workload, seed, config digest, git revision
   (when the checkout is a git repository), a digest of the sources, every
   check and every metric the run produced, host timings with quartiles
   and sample counts;
2. the result: `correct`, `attempted`, `failed` and the metrics that
   `BENCHMARK.json` names, end-to-end ones for `--trace 0` and per-layer
   ones for `--trace 1`.

Exits 0 when every check passed, 1 when a check failed (both lines are
still printed) and 2 when the benchmark could not run at all (no result
line).
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Directories whose contents make up the benchmarked program.
SOURCE_DIRS = ("crates", "shims", "perfbench")
SOURCE_FILES = ("Cargo.toml",)
# Longest the benchmark binary may take (the run itself is bounded by
# --seconds; this catches a hang).
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def target_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join("perfbench", "Cargo.toml")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")
    return os.path.join(target_dir(), "release", "perfbench")


def source_digest():
    """SHA-256 over the program's source files, in path order."""
    h = hashlib.sha256()
    paths = [p for p in SOURCE_FILES if os.path.isfile(os.path.join(ROOT, p))]
    for top in SOURCE_DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            for name in filenames:
                if name.endswith((".rs", ".toml", ".py")):
                    paths.append(os.path.relpath(os.path.join(dirpath, name), ROOT))
    for rel in sorted(paths):
        h.update(rel.encode())
        with open(os.path.join(ROOT, rel), "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def git_revision():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def run(binary, args):
    """Runs the benchmark binary; returns (exit code, stdout, peak RSS MB)."""
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        # Its own process group, so a timeout stops its children too.
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                                start_new_session=True)
    except OSError as e:
        fail(f"cannot start {binary}: {e}")
    timer = threading.Timer(RUN_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
    timer.start()
    try:
        stdout = proc.stdout.read()
    finally:
        # Reap the process ourselves to get its resource usage
        # (ru_maxrss is in KiB on Linux).
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        timer.cancel()
    if proc.returncode == -signal.SIGKILL:
        fail(f"timed out after {RUN_TIMEOUT_S} s")
    return proc.returncode, stdout, usage.ru_maxrss / 1024.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    if args.seconds is None:
        args.seconds = spec["run_seconds"]

    binary = build()
    code, stdout, peak_rss_mb = run(binary, args)
    lines = stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"benchmark exited with code {code} and printed no record")
    if code not in (0, 1):
        fail(f"benchmark exited with code {code}")

    record["git_revision"] = git_revision()
    record["source_digest"] = source_digest()
    metrics = record["metrics"]
    if args.trace == 0:
        metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
    print(json.dumps(record))

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    result = {}
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None or got["unit"] != m["unit"] or got["value"] is None:
            fail(f"metric {m['name']} ({m['unit']}) missing from the run: {got}")
        result[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    print(json.dumps({
        "correct": bool(record["correct"]) and code == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": result,
    }))
    sys.exit(0 if code == 0 else 1)


if __name__ == "__main__":
    main()
