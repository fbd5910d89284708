#!/usr/bin/env python3
"""Measure how far the heuristic lands from the exact minimum cover.

Samples small random functions (the exact search is exponential, so the
variable count stays tiny), solves each both ways, and prints a gap
histogram plus the worst offenders as reproducible trit strings.
"""

import argparse
import random
import sys
from collections import Counter

from dsopforge import (
    SORT_POLICIES,
    VARIANTS,
    Cover,
    DsopConfig,
    FunctionSpec,
    dsop,
    exact_min_dsop,
)
from ladder import rand_cube


def rand_function(rng, n):
    bind = rng.uniform(0.2, 0.8)
    on = [rand_cube(rng, n, bind) for _ in range(rng.randint(1, 6))]
    dc = [rand_cube(rng, n, bind) for _ in range(rng.randint(0, 3))]
    return FunctionSpec(n, Cover(n, tuple(on)), Cover(n, tuple(dc)))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--count", type=int, default=300, help="functions to draw")
    ap.add_argument(
        "--max-n", type=int, default=4, help="variable cap (exact search is 3^n)"
    )
    ap.add_argument("--seed", type=int, default=1729)
    default = DsopConfig()
    ap.add_argument(
        "--variant", type=int, choices=VARIANTS, default=default.variant
    )
    ap.add_argument("--sort", choices=SORT_POLICIES, default=default.sort)
    ap.add_argument("--show", type=int, default=5, help="worst cases to print")
    ns = ap.parse_args(argv)
    if ns.count < 1:
        ap.error("--count must be at least 1")
    if ns.max_n < 2:
        ap.error("--max-n must be at least 2")
    if ns.max_n > 5:
        ap.error("--max-n above 5 makes the exact search impractical")
    if ns.show < 0:
        ap.error("--show must not be negative")

    cfg = DsopConfig(variant=ns.variant, sort=ns.sort)
    rng = random.Random(ns.seed)
    gaps = Counter()
    worst = []
    for i in range(ns.count):
        n = rng.randint(2, ns.max_n)
        f = rand_function(rng, n)
        heur = len(dsop(f, cfg).cubes)
        exact = len(exact_min_dsop(f, max_n=ns.max_n).cubes)
        if heur < exact:
            print(
                f"heuristic ({heur}) beat the exact oracle ({exact}):"
                f" on={f.on.to_strings()} dc={f.dc.to_strings()}",
                file=sys.stderr,
            )
            return 1
        gaps[heur - exact] += 1
        if heur > exact:
            worst.append((heur - exact, exact, heur, f))

    print(
        f"# {ns.count} functions, n <= {ns.max_n}, seed {ns.seed},"
        f" variant {ns.variant}/{ns.sort}"
    )
    total = sum(gaps.values())
    for gap in sorted(gaps):
        share = gaps[gap] / total
        bar = "#" * round(50 * share)
        print(f"gap {gap}: {gaps[gap]:5d} ({share:6.1%}) {bar}")

    worst.sort(key=lambda item: -item[0])
    for gap, exact, heur, f in worst[: ns.show]:
        print(
            f"gap {gap} (exact {exact}, heuristic {heur}):"
            f" on={f.on.to_strings()} dc={f.dc.to_strings()}"
        )
    if not worst:
        print("heuristic matched the exact minimum on every sample")
    return 0


if __name__ == "__main__":
    sys.exit(main())
