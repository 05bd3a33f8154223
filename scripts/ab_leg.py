#!/usr/bin/env python3
"""A/B one benchmark workload between two built checkouts, turn by turn.

    scripts/ab_leg.py WORKLOAD CHECKOUT_A CHECKOUT_B [--turns 15] [--seed 1]

Starts `perf/target/release/skynet-perf leg --workload WORKLOAD` in each
checkout (build both first: perf/README.md), then grants `go 1` turns
alternately over the legs' `waiting`/`go`/`end` stdin protocol, so both sides
see the same seconds of this host's drift. Prints every metric of A and of B
with B/A: about 1-2 % resolution in 30 s where a pair of driver-form runs
gives about 10 %.
"""
import argparse, json, subprocess, tempfile

ap = argparse.ArgumentParser()
ap.add_argument("workload")
ap.add_argument("checkouts", nargs=2)
ap.add_argument("--turns", type=int, default=15)
ap.add_argument("--seed", default="1")
args = ap.parse_args()

scratch = tempfile.TemporaryDirectory(prefix="ab_leg-")  # removed at exit

def start(checkout):
    out = tempfile.mkdtemp(dir=scratch.name)
    cmd = ["perf/target/release/skynet-perf", "leg", "--workload", args.workload,
           "--seed", args.seed, "--wal-root", out + "/wal", "--out-dir", out]
    return subprocess.Popen(cmd, cwd=checkout, text=True, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)

def turn(leg, message):
    """Tells the leg `message` (None: nothing yet), waits until it asks again."""
    if message:
        leg.stdin.write(message + "\n")
        leg.stdin.flush()
    if "waiting\n" not in iter(leg.stdout.readline, ""):
        raise SystemExit("a leg ended before its turn")

legs = [start(c) for c in args.checkouts]
for leg in legs:
    turn(leg, None)
for i in range(args.turns):
    for leg in legs[:: 1 if i % 2 == 0 else -1]:
        turn(leg, "go 1")
reports = [json.loads(leg.communicate("end\n")[0].splitlines()[-1]) for leg in legs]
a, b = (r["metrics"] for r in reports)
print(f"{args.workload} seed {args.seed}: {args.turns} turns each, failed {[r['failed'] for r in reports]}")
for name in sorted(a.keys() & b.keys()):
    va, vb = a[name]["value"], b[name]["value"]
    print(f"{name:36} {va:14.6g} {vb:14.6g} {a[name]['unit']:9} B/A {vb / va if va else 1:.3f}")
