#!/usr/bin/env python3
"""Compare the five splitting variants x two sort policies on random
functions.

Generates a seeded population of incompletely specified functions, runs
every variant/sort configuration on each, and reports per-configuration
mean cover size, win counts (how often a configuration is strictly or
jointly smallest), and total runtime. Each function's first-pass SOP is
built once and shared by all configurations (they share the builtin
backend), so the runtime column leaves it out. Optionally dumps the raw
size grid as CSV for plotting elsewhere.
"""

import argparse
import csv
import random
import sys
import time
from dataclasses import dataclass

from dsopforge import (
    SORT_DIMENSION_WEIGHT,
    SORT_WEIGHT_DIMENSION,
    Cover,
    Cube,
    DsopConfig,
    FunctionSpec,
    build_sop,
    dsop,
    verify_dsop,
)

SORTS = {"dw": SORT_DIMENSION_WEIGHT, "wd": SORT_WEIGHT_DIMENSION}


@dataclass
class GridArgs:
    count: int
    max_n: int
    seed: int
    csv_path: str | None
    verify: bool


def rand_cube(rng, n, bind):
    trits = []
    for _ in range(n):
        if rng.random() < bind:
            trits.append(rng.choice("01"))
        else:
            trits.append("-")
    return Cube.from_string("".join(trits))


def rand_function(rng, n):
    bind = rng.uniform(0.2, 0.8)
    on = [rand_cube(rng, n, bind) for _ in range(rng.randint(1, 6))]
    dc = [rand_cube(rng, n, bind) for _ in range(rng.randint(0, 3))]
    return FunctionSpec(n, Cover(n, tuple(on)), Cover(n, tuple(dc)))


def run(args: GridArgs) -> int:
    rng = random.Random(args.seed)
    functions = [
        rand_function(rng, rng.randint(2, args.max_n))
        for _ in range(args.count)
    ]
    configs = [
        (f"v{v}/{s}", DsopConfig(variant=v, sort=flag))
        for v in range(1, 6)
        for s, flag in SORTS.items()
    ]

    sizes = {label: [] for label, _ in configs}
    elapsed = {label: 0.0 for label, _ in configs}
    for f in functions:
        sop = build_sop(f)
        for label, cfg in configs:
            t0 = time.perf_counter()
            out = dsop(f, cfg, sop=sop)
            elapsed[label] += time.perf_counter() - t0
            if args.verify and not verify_dsop(f, out).ok:
                print(f"VERIFY FAILED {label} on {f.on.to_strings()}")
                return 1
            sizes[label].append(len(out.cubes))

    wins = {label: 0 for label, _ in configs}
    sole = {label: 0 for label, _ in configs}
    for i in range(args.count):
        row = {label: sizes[label][i] for label, _ in configs}
        best = min(row.values())
        winners = [label for label, v in row.items() if v == best]
        for label in winners:
            wins[label] += 1
        if len(winners) == 1:
            sole[winners[0]] += 1

    print(
        f"# {args.count} random functions, n <= {args.max_n},"
        f" seed {args.seed}"
    )
    print(f"{'config':8} {'mean':>7} {'total':>6} {'wins':>5} {'sole':>5} {'ms':>8}")
    for label, _ in configs:
        vals = sizes[label]
        print(
            f"{label:8} {sum(vals) / len(vals):7.3f} {sum(vals):6d}"
            f" {wins[label]:5d} {sole[label]:5d}"
            f" {elapsed[label] * 1000:8.1f}"
        )

    if args.csv_path:
        with open(args.csv_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["function"] + [label for label, _ in configs])
            for i in range(args.count):
                writer.writerow([i] + [sizes[label][i] for label, _ in configs])
        print(f"# raw grid written to {args.csv_path}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--count", type=int, default=500, help="functions to draw")
    ap.add_argument("--max-n", type=int, default=8, help="variable count cap")
    ap.add_argument("--seed", type=int, default=2024)
    ap.add_argument("--csv", dest="csv_path", default=None, help="raw grid out")
    ap.add_argument(
        "--no-verify",
        dest="verify",
        action="store_false",
        help="skip per-run verification (faster sweeps)",
    )
    ns = ap.parse_args(argv)
    return run(
        GridArgs(
            count=ns.count,
            max_n=ns.max_n,
            seed=ns.seed,
            csv_path=ns.csv_path,
            verify=ns.verify,
        )
    )


if __name__ == "__main__":
    sys.exit(main())
