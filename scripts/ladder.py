#!/usr/bin/env python3
"""Write the seeded cover-size ladder, one PLA file per rung, into DIR.

    PYTHONPATH=src python scripts/ladder.py DIR
    PYTHONPATH=src python -m dsopforge.cli bench DIR

The rungs:
- rd53, rd73, rd84: every nonzero minterm, the outputs spelling the
  input weight;
- chain3-chain6: chain_family(m), whose smallest disjoint cover has
  2**m - 1 cubes;
- dense random single-output functions at n = 10-16 with 30-60 on
  cubes, binding each variable with probability 0.5-0.7, plus 1-3 dc
  cubes, all drawn from one fixed seed.

The files come out byte for byte the same on every run. Sweeping them
is `dsopforge bench`'s job: it solves every rung under every
variant/sort, verifies each cover and prints the size pivot.
"""

import argparse
import random
import sys
from pathlib import Path

from dsopforge import Cube, chain_family

SEED = 2012
# (inputs, on cubes) of the dense rungs, drawn in this order
DENSE = [(n, k) for n in (10, 12, 14, 16) for k in (30, 45, 60)]


def rand_cube(rng, n, bind):
    trits = []
    for _ in range(n):
        if rng.random() < bind:
            trits.append(rng.choice("01"))
        else:
            trits.append("-")
    return Cube.from_string("".join(trits))


def _pla(n, outputs, rows):
    return "\n".join([f".i {n}", f".o {outputs}", ".type fd", *rows, ".e"]) + "\n"


def _rd(n, outputs):
    rows = []
    for v in range(1, 2**n):
        bits = format(v, f"0{n}b")
        rows.append(f"{bits} {bits.count('1'):0{outputs}b}")
    return _pla(n, outputs, rows)


def rungs():
    """(file name, PLA text) for every rung, in a fixed order."""
    yield from ((f"rd{n}{o}.pla", _rd(n, o)) for n, o in ((5, 3), (7, 3), (8, 4)))
    for m in range(3, 7):
        f = chain_family(m)
        yield f"chain{m}.pla", _pla(f.n, 1, [f"{c} 1" for c in f.on.to_strings()])
    rng = random.Random(SEED)
    for n, k in DENSE:
        bind = rng.uniform(0.5, 0.7)
        on = [rand_cube(rng, n, bind) for _ in range(k)]
        dc = [rand_cube(rng, n, bind) for _ in range(rng.randint(1, 3))]
        rows = [f"{c} 1" for c in on] + [f"{c} -" for c in dc]
        yield f"dense{n}_{k}.pla", _pla(n, 1, rows)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("directory", type=Path)
    ns = ap.parse_args(argv)
    ns.directory.mkdir(parents=True, exist_ok=True)
    for name, text in rungs():
        (ns.directory / name).write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
