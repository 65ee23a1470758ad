#!/usr/bin/env python3
"""Compare two commits on the host-time benchmark, same host, interleaved.

Usage, from the repository root:

    python3 perfbench/ab.py BASE HEAD [--workloads sweep_grid,suite_32,observe_32]
        [--pairs 10] [--seed N] [--workdir .bench_ab]

Exports each commit's tree with `git archive` into WORKDIR/<sha>, copies
this checkout's perfbench/ and BENCHMARK.json over both, so the two sides
run identical benchmark code, and builds each once. Then, per workload, it
runs PAIRS pairs of untraced runs of BENCHMARK.json's `run_seconds` each,
alternating which side goes first. Confirm a gain found at the default seed
with `--seed 7919`, the held-out seed.

For every end-to-end metric it prints each side's median and quartiles,
the head's win fraction (pairs where head did better; ties count for
neither) and a verdict: `invalid` when head failed more runs than base or
the two sides did not simulate identical work (equal work-digest hashes),
else `gain` when, over at least 10 pairs, head wins 9 in 10 and the medians
differ by more than the base's own quartile spread, `WORSE` when head's
median is worse than base's by more than the metric's bound, `unresolved`
when base's own quartile spread is wider than the bound (unless every head
run beats every base run), and `same` otherwise.
"""

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from run import DEFAULT_SEED, WORKLOADS, run_seconds  # noqa: E402


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          check=True).stdout


def export(rev, workdir):
    """The commit's tree plus this checkout's benchmark, built once."""
    sha = git("rev-parse", "--verify", rev + "^{commit}").decode().strip()
    tree = workdir / sha[:12]
    if not (tree / "crates").is_dir():
        shutil.rmtree(tree, ignore_errors=True)
        tree.mkdir(parents=True)
        with tarfile.open(fileobj=io.BytesIO(git("archive", sha))) as tar:
            tar.extractall(tree)
    shutil.rmtree(tree / "perfbench", ignore_errors=True)
    shutil.copytree(HERE, tree / "perfbench",
                    ignore=shutil.ignore_patterns("target", "__pycache__"))
    shutil.copy2(ROOT / "BENCHMARK.json", tree / "BENCHMARK.json")
    env = dict(os.environ, CARGO_TARGET_DIR=str(tree / ".bench_build"),
               NOWLAB_BENCH_COMMIT=sha)
    subprocess.run(["cargo", "build", "--release", "--offline", "--manifest-path",
                    str(tree / "perfbench" / "Cargo.toml")],
                   cwd=tree, env=env, check=True, stdout=sys.stderr)
    return sha, tree, env


def run_once(tree, env, workload, seed):
    out = subprocess.run(
        [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"ab: {workload} failed in {tree}:\n{out.stderr[-2000:]}")
    result = json.loads(lines[-1])
    digest = next((l.split()[2] for l in lines if l.startswith("digest-hash ")), "?")
    return result, digest


def quart(xs):
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return med, q1, q3


def verdict(metric, base, head, valid):
    lower = metric["better"] == "lower"
    better = (lambda h, b: h < b) if lower else (lambda h, b: h > b)
    wins = sum(better(h, b) for b, h in zip(base, head))
    all_better = max(head) < min(base) if lower else min(head) > max(base)
    bm, bq1, bq3 = quart(base)
    hm, _, _ = quart(head)
    worse_share = ((hm - bm) if lower else (bm - hm)) / bm if bm else 0.0
    if not valid:
        word = "invalid"
    elif len(base) >= 10 and wins >= 0.9 * len(base) and abs(hm - bm) > (bq3 - bq1):
        word = "gain"
    elif worse_share > metric["bound"]:
        word = "WORSE"
    elif bm and (bq3 - bq1) / bm > metric["bound"] and not all_better:
        word = "unresolved"
    else:
        word = "same"
    return wins / len(base), word


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base")
    ap.add_argument("head")
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--workdir", default=str(ROOT / ".bench_ab"))
    args = ap.parse_args()
    if args.pairs < 2:
        sys.exit("ab: --pairs must be at least 2")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    workdir = Path(args.workdir).resolve()
    sides = [export(args.base, workdir), export(args.head, workdir)]
    print(f"base {sides[0][0]}\nhead {sides[1][0]}\nseed {args.seed}, {args.pairs} pairs, "
          f"{run_seconds()} s per run")

    for workload in args.workloads.split(","):
        samples = [{m["name"]: [] for m in declared} for _ in sides]
        digests = [set(), set()]
        failed = [0, 0]
        for i in range(args.pairs):
            order = (0, 1) if i % 2 == 0 else (1, 0)
            for s in order:
                _, tree, env = sides[s]
                result, digest = run_once(tree, env, workload, args.seed)
                digests[s].add(digest)
                failed[s] += result["failed"] + (0 if result["correct"] else 1)
                for m in declared:
                    samples[s][m["name"]].append(result["metrics"][m["name"]]["value"])
        same_work = digests[0] == digests[1] and len(digests[0]) == 1
        valid = same_work and failed[1] <= failed[0]
        print(f"\n{workload}: failed runs base={failed[0]} head={failed[1]}; work digests "
              f"{'match' if same_work else 'DIFFER'}"
              f" (base {sorted(digests[0])}, head {sorted(digests[1])})")
        print(f"  {'metric':14} {'base median [q1, q3]':>36} {'head median [q1, q3]':>36}"
              f" {'head wins':>9}  verdict")
        for m in declared:
            base, head = samples[0][m["name"]], samples[1][m["name"]]
            wins, word = verdict(m, base, head, valid)
            fmt = lambda xs: "{:.5g} [{:.5g}, {:.5g}]".format(*quart(xs))
            print(f"  {m['name']:14} {fmt(base):>36} {fmt(head):>36} {wins:9.2f}  {word}")


if __name__ == "__main__":
    main()
