#!/usr/bin/env python3
"""Build and run FEAM's benchmark.  Start it from the repository root.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
      Build perfbench/feambench.exe with dune, then run it in place of
      this process.  The last line of its output is the JSON result.

  python3 perfbench/run.py --steady N [--workload NAME ...] [--sets K]
      Steadiness self-check.  Run each workload N times, seeds 1..N, for
      BENCHMARK.json's run_seconds; print the median and quartiles of
      every end-to-end metric and flag a metric whose quartile spread, as
      a share of its median, exceeds its bound (setup_s is reported but
      exempt).  With --sets 2 the seeds run again and a median that got
      worse by more than the bound is flagged too.  Then one traced run
      per workload prints trace.overhead_share.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "feambench.exe")


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/feambench.exe"]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr)
    except OSError as e:
        sys.exit(f"run.py: cannot run dune: {e}")
    if done.returncode != 0 or not os.path.exists(EXE):
        sys.exit("run.py: building the benchmark failed")


def run_once(workload, seed, seconds, trace):
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return done.returncode, result


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def steady(args):
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    flagged = 0
    for w in workloads:
        medians = []
        for s in range(args.sets):
            values = {m["name"]: [] for m in bench["end_to_end"]}
            for seed in range(1, args.steady + 1):
                code, result = run_once(w, seed, seconds, 0)
                ok = code == 0 and result and result["correct"]
                print(f"{w} set {s + 1} seed {seed}: exit {code}, "
                      f"failed {result['failed'] if result else '?'} of "
                      f"{result['attempted'] if result else '?'}", flush=True)
                if not ok:
                    flagged += 1
                    continue
                for name in values:
                    values[name].append(result["metrics"][name]["value"])
            medians.append({})
            for m in bench["end_to_end"]:
                name, bound = m["name"], m["bound"]
                if len(values[name]) < 2:
                    print(f"  {w} {name}: too few successful runs")
                    flagged += 1
                    continue
                q1, q2, q3, sp = spread(values[name])
                medians[-1][name] = q2
                mark = ""
                if name != "setup_s" and sp > bound:
                    mark = "  <-- spread above bound"
                    flagged += 1
                elif sp > bound / 3:
                    mark = "  (above a third of the bound)"
                print(f"  {w} {name}: median {q2:.6g} {m['unit']}, quartiles "
                      f"{q1:.6g}..{q3:.6g}, spread {sp:.3f} of bound {bound}{mark}")
        for m in bench["end_to_end"]:
            name = m["name"]
            if len(medians) > 1 and name in medians[0] and name in medians[-1]:
                worse = (medians[-1][name] - medians[0][name]) / medians[0][name]
                if m["better"] == "higher":
                    worse = -worse
                mark = "  <-- worse by more than the bound" if worse > m["bound"] else ""
                if mark:
                    flagged += 1
                print(f"  {w} {name}: second set median worse by {worse:+.3f}{mark}")
        code, result = run_once(w, 1, seconds, 1)
        if result is None or code != 0:
            print(f"  {w} traced run failed (exit {code})")
            flagged += 1
        else:
            share = result["metrics"]["trace.overhead_share"]["value"]
            print(f"  {w} trace.overhead_share {share:.4f}")
    print("steady" if flagged == 0 else f"{flagged} problem(s) flagged")
    return 0 if flagged == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, metavar="N")
    parser.add_argument("--sets", type=int, default=1)
    args = parser.parse_args()
    build()
    if args.steady:
        sys.exit(steady(args))
    if not args.workload or len(args.workload) != 1:
        sys.exit("run.py: give exactly one --workload")
    os.execv(EXE, [EXE, "--workload", args.workload[0], "--seed", str(args.seed),
                   "--seconds", str(args.seconds or 10), "--trace", str(args.trace)])


if __name__ == "__main__":
    main()
