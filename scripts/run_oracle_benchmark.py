#!/usr/bin/env python3
"""Planner-vs-oracle benchmark over seeded random fleets.

For each seed the planner and the exhaustive oracle plan the same scenario;
the script reports how many planner averages equal the oracle's exactly,
constraint violations, and wall time.  It exits 1 when any average differs
from the oracle's or any plan violates a constraint.
"""

import argparse
import sys
import time

from v2vsim.planner import exhaustive_optimum, optimize, validate_plan
from v2vsim.synth import random_scenario


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--instances", type=int, default=100)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--max-nodes", type=int, default=4)
    parser.add_argument("--max-subchannels", type=int, default=4)
    args = parser.parse_args()
    if args.instances < 1:
        parser.error("--instances must be >= 1")

    exact = 0
    violations = 0
    t0 = time.perf_counter()
    for seed in range(args.first_seed, args.first_seed + args.instances):
        scenario = random_scenario(seed, args.max_nodes, args.max_subchannels)
        plan = optimize(scenario)
        oracle = exhaustive_optimum(scenario)
        violations += bool(validate_plan(plan, scenario))
        exact += plan.avg_delay_s == oracle.avg_delay_s
    elapsed = time.perf_counter() - t0

    print(f"instances          : {args.instances}")
    print(f"equal to oracle    : {exact} ({exact / args.instances:.1%})")
    print(f"constraint faults  : {violations}")
    print(f"wall time          : {elapsed:.2f} s")
    return 0 if exact == args.instances and violations == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
