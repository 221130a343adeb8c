#!/usr/bin/env python3
"""The lacc benchmark launcher.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

It builds the benchmark (perfbench/, a Cargo package of its own) and the
figure binaries in release mode into $CARGO_TARGET_DIR (default
.bench_build), outside every timed region. It then runs the workload in a
process of its own, so that peak_rss_mb is that workload's, adds the host
record, checks the metric names against BENCHMARK.json, and prints one
JSON result line last. perfbench/README.md describes the workloads and
metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys

WORKLOADS = ("sim64-ocean", "replay64-matmul")
# A run must end within 180 s; the workload process is stopped before that.
RUN_LIMIT_S = 170
SOURCE_DIRS = ("crates", "vendor", "perfbench")
SOURCE_FILES = ("Cargo.toml", "Cargo.lock", "BENCHMARK.json")


def fail(message, code):
    print(f"[perfbench] {message}", file=sys.stderr)
    sys.exit(code)


def cargo_build(root, target, args):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", *args]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    # Cargo's output goes to stderr: stdout carries only the result.
    done = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        fail(f"build failed: {' '.join(cmd)}", 3)


def command_output(cmd, root):
    try:
        done = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def source_digest(root):
    """SHA-256 over the sources the benchmark builds, so a record names the
    code it measured even where the checkout is not a git repository."""
    h = hashlib.sha256()
    paths = [p for p in SOURCE_FILES if os.path.isfile(os.path.join(root, p))]
    for d in SOURCE_DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, d)):
            dirnames[:] = sorted(n for n in dirnames if n != "target")
            paths += [os.path.relpath(os.path.join(dirpath, n), root) for n in filenames]
    for p in sorted(paths):
        h.update(p.encode() + b"\0")
        with open(os.path.join(root, p), "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def host_record(root):
    git = None
    if os.path.exists(os.path.join(root, ".git")):
        git = command_output(["git", "rev-parse", "HEAD"], root)
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "rustc": command_output(["rustc", "-V"], root),
        "git_commit": git,
        "source_sha256": source_digest(root),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1", 2)

    root = os.getcwd()
    for needed in ("BENCHMARK.json", "perfbench/Cargo.toml", "Cargo.toml", "crates"):
        if not os.path.exists(os.path.join(root, needed)):
            fail(f"{needed} not found: run from the root of a lacc checkout", 2)
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = spec["per_layer" if args.trace else "end_to_end"]

    target = os.path.abspath(os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    cargo_build(root, target, ["--manifest-path", "perfbench/Cargo.toml"])
    cargo_build(root, target, ["-p", "lacc-experiments", "--bins"])
    bin_dir = os.path.join(target, "release")
    out_dir = os.path.join(target, "perfbench")

    cmd = [
        os.path.join(bin_dir, "lacc-perfbench"), "run",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--root", root, "--bin-dir", bin_dir, "--out-dir", out_dir,
    ]
    # A session of its own, so a timeout stops the figure binaries too.
    proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"workload process did not finish within {RUN_LIMIT_S} s", 4)
    lines = out.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        fail(f"workload process exited with {proc.returncode}", 4)
    record = json.loads(lines[-2])["record"]
    result = json.loads(lines[-1])
    names = [m["name"] for m in declared]
    if sorted(result["metrics"]) != sorted(names):
        missing = sorted(set(names) - set(result["metrics"]))
        extra = sorted(set(result["metrics"]) - set(names))
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}", 5)

    record.update(seconds=args.seconds, trace=args.trace, host=host_record(root))
    os.makedirs(os.path.join(out_dir, "records"), exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(out_dir, "records", name), "w") as f:
        json.dump({"record": record, "result": result}, f, indent=1)
        f.write("\n")
    for line in lines[:-2]:
        print(line)
    print(json.dumps({"record": record}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
