#!/usr/bin/env python3
"""Repository benchmark: builds the runner from source and measures one workload.

    python3 perfbench/run.py --workload spec-hybrid --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-check [--seed N]

Run from the root of a checkout. The runner (perfbench/perfbench.cpp) is
built with CMake into .bench_build/ on first use; build output goes to
stderr, so the last line of stdout is the runner's JSON result.

--self-check runs the benchmark's own checks and exits non-zero if any
fails:
  * environment pin: each engine-changing variable makes a run refuse;
  * fault campaign: under JZ_FAULTS=static.analyze:always every
    juliet-cold program must fail (fail_frac = 1);
  * determinism: two runs with the same seed give identical counters on
    every workload, and a second seed (which only permutes program order)
    leaves every total unchanged.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
CMAKE_DIR = BUILD / "cmake"
BINARY = CMAKE_DIR / "jz-perfbench"
WORK_DIR = BUILD / "work"

WORKLOADS = ["spec-hybrid", "juliet-cold", "spec-aot"]
PINNED_ENV = [
    "JZ_NO_JIT", "JZ_NO_LINK", "JZ_NO_TRACE", "JZ_JIT_THRESHOLD",
    "JZ_JIT_ARENA_MAX", "JZ_FAULTS", "JZ_RULED_SOCKET", "JZ_TRACE",
    "JZ_MAX_GUEST_THREADS", "JZ_MAX_GUEST_STEPS",
]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"repository sources not found under {ROOT / 'src'}")
    steps = []
    if not (CMAKE_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(CMAKE_DIR),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(CMAKE_DIR), "--target", "jz-perfbench",
                  "-j", "4"])
    for cmd in steps:
        try:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                               timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            die("build timed out")
        if r.returncode != 0:
            die(f"build step failed: {' '.join(cmd)}")


def runner(args, env=None):
    """Runs the built runner; returns (exit code, stdout)."""
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    try:
        r = subprocess.run([str(BINARY)] + args, stdout=subprocess.PIPE,
                           stderr=sys.stderr, text=True, env=env, cwd=WORK_DIR,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"runner timed out: {' '.join(args)}")
    return r.returncode, r.stdout


def counts(workload, seed, env=None):
    code, out = runner(["--workload", workload, "--seed", str(seed),
                        "--check", "counts"], env)
    if code != 0:
        die(f"counts run of {workload} seed {seed} exited {code}")
    return json.loads(out.strip().splitlines()[-1])


def self_check(seed):
    ok = True

    def report(passed, what):
        nonlocal ok
        ok &= passed
        print(f"{'PASS' if passed else 'FAIL'} {what}")

    base_env = {k: v for k, v in os.environ.items() if k not in PINNED_ENV}
    for var in PINNED_ENV:
        code, out = runner(["--workload", "juliet-cold", "--seed", str(seed),
                            "--seconds", "1", "--trace", "0"],
                           dict(base_env, **{var: "1"}))
        report(code != 0 and not out.strip(), f"env pin: refuses with {var} set")

    faulted = counts("juliet-cold", seed,
                     dict(base_env, JZ_FAULTS="static.analyze:always"))
    report(faulted["failed"] == faulted["attempted"] > 0,
           f"JZ_FAULTS=static.analyze:always: fail_frac = "
           f"{faulted['failed']}/{faulted['attempted']} (want 1)")

    for w in WORKLOADS:
        a = counts(w, seed, base_env)
        b = counts(w, seed, base_env)
        c = counts(w, seed + 1, base_env)
        report(a == b, f"determinism: {w} seed {seed} twice gives identical counters")
        diff = sorted(k for k in set(a["counts"]) | set(c["counts"])
                      if a["counts"].get(k) != c["counts"].get(k))
        same = not diff and {k: a[k] for k in a if k != "counts"} == \
            {k: c[k] for k in c if k != "counts"}
        report(same, f"determinism: {w} seed {seed} vs {seed + 1} gives identical "
                     f"totals" + (f" (differ: {', '.join(diff)})" if diff else ""))
        report(a["failed"] == 0, f"{w}: no failed program ({a['failed']}/{a['attempted']})")
    return ok


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--self-check", action="store_true")
    a = p.parse_args()
    if not a.self_check and not a.workload:
        p.error("--workload is required")

    build()
    if a.self_check:
        sys.exit(0 if self_check(a.seed) else 1)
    code, out = runner(["--workload", a.workload, "--seed", str(a.seed),
                        "--seconds", str(a.seconds), "--trace", str(a.trace)])
    sys.stdout.write(out)
    sys.exit(code)


if __name__ == "__main__":
    main()
