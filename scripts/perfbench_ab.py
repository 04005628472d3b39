#!/usr/bin/env python3
"""A/B the repository benchmark: a parent revision against the working tree.

Usage, from the repository root:

    python3 scripts/perfbench_ab.py --workload local_pair --pairs 10 \\
        --seconds 30 --seed-base 101 [--parent HEAD] [--trace 0]

The parent revision is exported with `git archive`, the working tree
(tracked and untracked files, minus what .gitignore drops) is copied, both
into a scratch directory outside the repository (--workdir, default a new
temporary directory), and each is built by perfbench/run.py into its own
CARGO_TARGET_DIR with one 2 s run. Then --pairs interleaved pairs run one
after the other, never two at once: pair i uses seed --seed-base + i and
alternates which side goes first, because the host's speed drifts over
minutes. --workload may be given more than once; each pair then runs every
workload on both sides.

Per workload and metric it prints both medians, the change's win count
(better as BENCHMARK.json declares it) and the parent's inter-quartile
range, and it keeps every run's metrics in <workdir>/results.json; a gain
counts when the change wins at least 9 of 10 pairs and the
median gap exceeds that range. Exits 1 when any run reports
`correct: false` or `failed > 0`, 2 when a run cannot be built or run.
Only perfbench/run.py is called; nothing under perfbench/ is changed.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

SIDES = ("parent", "change")


def fail(msg):
    print(f"perfbench_ab: {msg}", file=sys.stderr)
    sys.exit(2)


def export_parent(root, rev, dest):
    archive = subprocess.run(["git", "-C", root, "archive", rev],
                             stdout=subprocess.PIPE, check=False)
    if archive.returncode != 0:
        fail(f"git archive {rev} failed")
    os.makedirs(dest)
    subprocess.run(["tar", "-x", "-C", dest], input=archive.stdout, check=True)


def copy_worktree(root, dest):
    files = subprocess.run(
        ["git", "-C", root, "ls-files", "-z", "--cached", "--others",
         "--exclude-standard"], stdout=subprocess.PIPE, check=True)
    for rel in files.stdout.decode().split("\0"):
        src = os.path.join(root, rel)
        if not rel or not os.path.isfile(src):
            continue  # deleted in the working tree
        os.makedirs(os.path.dirname(os.path.join(dest, rel)), exist_ok=True)
        shutil.copy2(src, os.path.join(dest, rel))


def run(tree, build_dir, workload, seed, seconds, trace):
    env = dict(os.environ, CARGO_TARGET_DIR=build_dir)
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", trace]
    done = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, check=False)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        fail(f"{' '.join(cmd)} in {tree} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def directions(root):
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    return {m["name"]: m["better"]
            for m in bench.get("end_to_end", []) + bench.get("per_layer", [])}


def report(workload, results, better):
    """results: {side: [metrics dict per pair]}; returns nothing."""
    print(f"== {workload}: {len(results['parent'])} pairs ==")
    print(f"{'metric':32} {'parent':>12} {'change':>12} {'wins':>6} "
          f"{'parent IQR':>11} {'gap>IQR':>8}")
    names = sorted(set().union(*(m.keys() for m in results["parent"])))
    for name in names:
        pairs = [(p[name], c[name])
                 for p, c in zip(results["parent"], results["change"])
                 if name in p and name in c]
        if not pairs:
            continue
        par = [p for p, _ in pairs]
        chg = [c for _, c in pairs]
        mp, mc = statistics.median(par), statistics.median(chg)
        iqr = 0.0
        if len(par) >= 2:
            q = statistics.quantiles(par, n=4)
            iqr = q[2] - q[0]
        direction = better.get(name, "lower")
        if direction == "higher":
            wins = sum(c > p for p, c in pairs)
        else:
            wins = sum(c < p for p, c in pairs)
        print(f"{name:32} {mp:12.4g} {mc:12.4g} {wins:3d}/{len(pairs):<2d} "
              f"{iqr:11.4g} {'yes' if abs(mc - mp) > iqr else 'no':>8}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", required=True,
                    choices=("local_pair", "web_request"))
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--seed-base", type=int, required=True)
    ap.add_argument("--parent", default="HEAD",
                    help="revision to compare against (default HEAD)")
    ap.add_argument("--trace", choices=("0", "1"), default="0")
    ap.add_argument("--workdir",
                    help="scratch directory outside the repository "
                         "(default: a new temporary directory)")
    args = ap.parse_args()
    if args.pairs < 1 or args.seconds <= 0 or args.seed_base < 0:
        fail("--pairs must be >= 1, --seconds > 0 and --seed-base >= 0")

    root = subprocess.run(["git", "rev-parse", "--show-toplevel"],
                          stdout=subprocess.PIPE, text=True,
                          check=True).stdout.strip()
    work = args.workdir or tempfile.mkdtemp(prefix="perfbench_ab.")
    trees = {side: os.path.join(work, side) for side in SIDES}
    builds = {side: os.path.join(work, f"build-{side}") for side in SIDES}
    for side in SIDES:
        if os.path.exists(trees[side]):
            fail(f"{trees[side]} already exists; pass an empty --workdir")
    export_parent(root, args.parent, trees["parent"])
    copy_worktree(root, trees["change"])
    print(f"perfbench_ab: trees and builds in {work}", file=sys.stderr)

    for side in SIDES:  # build each once, one at a time
        run(trees[side], builds[side], args.workload[0], args.seed_base, 2, "0")

    results = {w: {side: [] for side in SIDES} for w in args.workload}
    bad = 0
    for i in range(args.pairs):
        seed = args.seed_base + i
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for workload in args.workload:
            for side in order:
                r = run(trees[side], builds[side], workload, seed,
                        args.seconds, args.trace)
                if not r["correct"] or r["failed"] > 0:
                    bad += 1
                    print(f"perfbench_ab: {side} {workload} seed {seed}: "
                          f"correct={r['correct']} failed={r['failed']}",
                          file=sys.stderr)
                results[workload][side].append(
                    {k: v["value"] for k, v in r["metrics"].items()})
        print(f"perfbench_ab: pair {i + 1}/{args.pairs} done "
              f"(seed {seed}, {order[0]} first)", file=sys.stderr)

    with open(os.path.join(work, "results.json"), "w", encoding="utf-8") as f:
        json.dump(results, f, indent=1)
    better = directions(root)
    for workload in args.workload:
        report(workload, results[workload], better)
    if bad:
        print(f"perfbench_ab: {bad} run(s) incorrect or with failures",
              file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
