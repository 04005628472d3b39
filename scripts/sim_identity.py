#!/usr/bin/env python3
"""Check that the simulator behaves byte for byte as a parent revision does.

Usage, from the repository root:

    python3 scripts/sim_identity.py [--parent HEAD] [--workdir DIR]

The parent revision is exported with `git archive` and the working tree is
copied (both with the helpers of scripts/perfbench_ab.py) into --workdir
(outside the repository; default a new temporary directory). Each tree gets
a RelWithDebInfo build of tiamat-fuzz, bench_churn, bench_discovery,
bench_flooding and bench_leases, one tree after the other, and then runs:

- tiamat-fuzz for seeds 7919*k (k = 1..20) under the mixed, calm, crashy,
  hostile and mobile profiles, with --runs 1 --no-shrink; the summary it
  prints is the output;
- bench_churn --series for BM_Churn/12/0/1; the series document is the
  output;
- the --json exports of bench_flooding, bench_discovery, bench_churn and
  bench_leases.

Every output of the change is compared byte for byte with the parent's, and
the first differing line of each differing output is printed. All of these
run in virtual time, so a change that leaves the simulated behaviour alone
leaves every byte alone. Exits 0 when all are identical, 1 on a difference,
2 when a tree cannot be built or a run fails.
"""

import argparse
import os
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from perfbench_ab import copy_worktree, export_parent  # noqa: E402

SIDES = ("parent", "change")
TARGETS = ("tiamat-fuzz", "bench_churn", "bench_discovery", "bench_flooding",
           "bench_leases")
PROFILES = ("mixed", "calm", "crashy", "hostile", "mobile")
FUZZ_SEEDS = tuple(7919 * k for k in range(1, 21))
EXPORTS = ("flooding", "discovery", "churn", "leases")


def fail(msg):
    print(f"sim_identity: {msg}", file=sys.stderr)
    sys.exit(2)


def build(tree):
    build_dir = os.path.join(tree, "build")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (["cmake", "-S", tree, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                ["cmake", "--build", build_dir, "-j", jobs, "--target",
                 *TARGETS]):
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True, check=False)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail(f"{' '.join(cmd)} exited with {done.returncode}")
    return build_dir


def run(cmd, cwd):
    done = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, check=False)
    if done.returncode != 0:
        sys.stderr.write(done.stderr.decode(errors="replace")[-4000:])
        fail(f"{' '.join(cmd)} exited with {done.returncode}")
    return done.stdout


def outputs(build_dir, out_dir):
    """Runs every probe; returns {name: bytes}."""
    os.makedirs(out_dir)
    fuzz = os.path.join(build_dir, "src", "apps", "tiamat-fuzz")
    bench = os.path.join(build_dir, "bench")
    got = {}
    for profile in PROFILES:
        for seed in FUZZ_SEEDS:
            got[f"fuzz {profile} {seed}"] = run(
                [fuzz, "--seed", str(seed), "--profile", profile, "--runs",
                 "1", "--no-shrink", "--out-dir", out_dir], out_dir)
    series = os.path.join(out_dir, "SERIES_churn.json")
    run([os.path.join(bench, "bench_churn"),
         "--benchmark_filter=BM_Churn/12/0/1", f"--series={series}"], out_dir)
    files = {"bench_churn --series": series}
    for name in EXPORTS:
        path = os.path.join(out_dir, f"BENCH_{name}.json")
        run([os.path.join(bench, f"bench_{name}"), f"--json={path}"], out_dir)
        files[f"bench_{name} --json"] = path
    for label, path in files.items():
        with open(path, "rb") as f:
            got[label] = f.read()
    return got


def first_difference(a, b):
    la = a.decode(errors="replace").splitlines()
    lb = b.decode(errors="replace").splitlines()
    for i, (x, y) in enumerate(zip(la, lb), start=1):
        if x != y:
            return f"line {i}:\n    parent: {x}\n    change: {y}"
    return (f"line {min(len(la), len(lb)) + 1}: parent has {len(la)} lines, "
            f"change {len(lb)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", default="HEAD",
                    help="revision to compare against (default HEAD)")
    ap.add_argument("--workdir",
                    help="scratch directory outside the repository "
                         "(default: a new temporary directory)")
    args = ap.parse_args()

    root = subprocess.run(["git", "rev-parse", "--show-toplevel"],
                          stdout=subprocess.PIPE, text=True,
                          check=True).stdout.strip()
    work = args.workdir or tempfile.mkdtemp(prefix="sim_identity.")
    trees = {side: os.path.join(work, side) for side in SIDES}
    for side in SIDES:
        if os.path.exists(trees[side]):
            fail(f"{trees[side]} already exists; pass an empty --workdir")
    export_parent(root, args.parent, trees["parent"])
    copy_worktree(root, trees["change"])

    results = {}
    for side in SIDES:
        print(f"sim_identity: building {side} in {trees[side]}", flush=True)
        build_dir = build(trees[side])
        results[side] = outputs(build_dir, os.path.join(work, f"out-{side}"))

    differing = 0
    for label, parent in results["parent"].items():
        change = results["change"][label]
        if parent == change:
            continue
        differing += 1
        print(f"DIFFERS {label}: {first_difference(parent, change)}")
    total = len(results["parent"])
    print(f"sim_identity: {total - differing}/{total} outputs identical "
          f"to {args.parent}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
