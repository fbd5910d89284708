"""Seeded PLA inputs for the benchmark workloads.

A workload draws a fixed pool of random functions from a pool seed that
never changes, and `--seed` complements a random subset of each pool
function's variables. Every seed thus gives different PLA text for the
same amount of work, up to tie-breaks and the cost of point masks,
which depends on polarity. Fresh draws at one size and density differ
up to tenfold in run time (n=13, k=50 ranges 0.2-3.4 s), and even a
variable permutation moves a job's time by 20-30%; no run length could
average that out.

Cubes are (mask, bits) integer pairs: bit i of mask set means variable
i is bound, to the value of bit i of bits. Variable 0 splits the space:
on-rows bind it to 0 and don't-care rows bind it to 1 (before
complementing), so the on- and dc-sets are point-disjoint by
construction and a single-file partial cover never trips the
disjointness check.

This module imports nothing from dsopforge; the benchmark's checker
reads the same rows to decide what a correct cover is.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

POOL_SEED = 20120423

Row = tuple[int, int, str]  # (mask, bits, output plane)


@dataclass(frozen=True)
class Table:
    """One fd PLA: n inputs, len(rows[0][2]) outputs."""

    name: str
    n: int
    outputs: int
    rows: tuple[Row, ...]

    def text(self) -> str:
        lines = [f".i {self.n}", f".o {self.outputs}", ".type fd"]
        lines.append(f".p {len(self.rows)}")
        for mask, bits, out in self.rows:
            lines.append(f"{trits(self.n, mask, bits)} {out}")
        lines.append(".e")
        return "\n".join(lines) + "\n"


def trits(n: int, mask: int, bits: int) -> str:
    return "".join(
        ("1" if bits >> i & 1 else "0") if mask >> i & 1 else "-"
        for i in range(n)
    )


def _cube(rng: random.Random, n: int, bind: float, sep_value: int) -> tuple[int, int]:
    mask, bits = 1, sep_value
    for i in range(1, n):
        if rng.random() < bind:
            mask |= 1 << i
            if rng.random() < 0.5:
                bits |= 1 << i
    return mask, bits


def _outputs(rng: random.Random, outputs: int, mark: str) -> str:
    # every row feeds at least one output
    plane = ["0"] * outputs
    plane[rng.randrange(outputs)] = mark
    for j in range(outputs):
        if rng.random() < 0.5:
            plane[j] = mark
    return "".join(plane)


def random_table(
    rng: random.Random,
    name: str,
    n: int,
    outputs: int,
    k_on: int,
    k_dc: int,
    bind: float,
) -> Table:
    """k_on on-rows and k_dc dc-rows; each non-separator variable is a
    literal with probability `bind`."""
    rows = [(*_cube(rng, n, bind, 0), _outputs(rng, outputs, "1")) for _ in range(k_on)]
    rows += [(*_cube(rng, n, bind, 1), _outputs(rng, outputs, "-")) for _ in range(k_dc)]
    return Table(name, n, outputs, tuple(rows))


def complement(table: Table, rng: random.Random) -> Table:
    """Complement a random subset of the variables."""
    flip = rng.getrandbits(table.n)
    rows = tuple((mask, bits ^ (flip & mask), out) for mask, bits, out in table.rows)
    return Table(table.name, table.n, table.outputs, rows)


def parity_table(name: str, n: int, outputs: int) -> Table:
    """rdNN: one row per nonzero minterm; the outputs spell the number
    of ones in the input, least significant bit first."""
    full = (1 << n) - 1
    rows = []
    for v in range(1, 1 << n):
        weight = bin(v).count("1")
        out = "".join("1" if weight >> j & 1 else "0" for j in range(outputs))
        rows.append((full, v, out))
    return Table(name, n, outputs, tuple(rows))


def pool(workload: str, shapes: list[dict]) -> list[Table]:
    """The fixed random pool of a workload, one table per shape."""
    rng = random.Random(f"{workload}/{POOL_SEED}")
    return [random_table(rng, f"{workload}{i:02d}", **s) for i, s in enumerate(shapes)]


def seeded(workload: str, seed: int, tables: list[Table]) -> list[Table]:
    """The pool as complemented by one run seed."""
    rng = random.Random(f"{workload}:{seed}")
    return [complement(t, rng) for t in tables]
