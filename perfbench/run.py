#!/usr/bin/env python3
"""Build and run the nowlab host-time benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload sweep_grid|suite_32|observe_32|all \
        [--seed N] [--seconds S] [--trace 0|1]

Builds the `perfbench` binary from the repository's sources (release
profile, offline, into $CARGO_TARGET_DIR or `.bench_build`) and runs one
workload. The binary prints the host fingerprint, the work digest and the
samples behind each metric; its last line is one JSON object with
`correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports the
end-to-end metrics, `--trace 1` the per-layer ones. `--workload all` runs
the three workloads in turn, prints every metric of each by name and unit,
and ends with one JSON object whose metric names carry the workload
(`sweep_grid.wall_s`).

`--seconds` defaults to `run_seconds` in BENCHMARK.json; the benchmark
contract passes that same value explicitly. DEFAULT_SEED is the seed to
develop and tune against. Confirm a claimed gain with `--seed 7919`, the
held-out seed, on inputs the change was not tuned on.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

DEFAULT_SEED = 1
WORKLOADS = ("sweep_grid", "suite_32", "observe_32")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCES = ("crates", "src", "Cargo.toml", "Cargo.lock")


def run_seconds():
    return json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def source_digest():
    """SHA-256 over the simulator's sources: names the code under test
    where no clean git commit names it."""
    h = hashlib.sha256()
    files = []
    for name in SOURCES:
        top = ROOT / name
        files += [top] if top.is_file() else sorted(
            p for p in top.rglob("*") if p.is_file())
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit():
    """The commit under test; a checkout whose sources differ from it is
    named `<commit>+dirty-<source digest>`."""
    if not (ROOT / ".git").exists():
        return "src-sha256:" + source_digest()
    try:
        git = lambda *args: subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True,
            check=True).stdout.strip()
        head = git("rev-parse", "HEAD")
        dirty = git("status", "--porcelain", "--", *SOURCES)
    except (OSError, subprocess.CalledProcessError):
        return "src-sha256:" + source_digest()
    return f"{head}+dirty-{source_digest()}" if dirty else head


def rustc_version():
    try:
        out = subprocess.run(["rustc", "-V"], capture_output=True, text=True,
                             check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", choices=("0", "1"), default="0")
    args = ap.parse_args()

    if not (ROOT / "crates").is_dir():
        print(f"perfbench: no nowlab sources in {ROOT} (expected crates/)",
              file=sys.stderr)
        return 1
    env = dict(os.environ)
    target = Path(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline",
         "--manifest-path", str(HERE / "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    env["NOWLAB_BENCH_RUSTC"] = rustc_version()
    env["NOWLAB_BENCH_COMMIT"] = env.get("NOWLAB_BENCH_COMMIT") or commit()
    seconds = args.seconds if args.seconds is not None else run_seconds()
    command = [str(target / "release" / "perfbench"), "--seed", str(args.seed),
               "--seconds", str(seconds), "--trace", args.trace]
    sys.stdout.flush()
    if args.workload != "all":
        return subprocess.run(command + ["--workload", args.workload],
                              cwd=ROOT, env=env).returncode

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        run = subprocess.run(command + ["--workload", workload], cwd=ROOT, env=env,
                             stdout=subprocess.PIPE, text=True)
        lines = run.stdout.strip().splitlines()
        if run.returncode != 0 or not lines:
            print(f"perfbench: {workload} failed", file=sys.stderr)
            return run.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        for key in ("attempted", "failed"):
            combined[key] += result[key]
        combined["correct"] = combined["correct"] and result["correct"]
        print(f"{workload}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for name, m in result["metrics"].items():
            print(f"  {name:32} {m['value']:>16.6g} {m['unit']}")
            combined["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
