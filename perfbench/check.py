"""Independent check of an emitted PLA against the rows it was made from.

Reads the PLA text with its own parser and compares point masks (bit m
set iff minterm m is covered), so nothing here depends on dsopforge's
parser, cube code or verifier. Point masks have 2**n bits, which is
fine up to n=24 (2 MB per mask).

A full cover ("dsop") covers every on-point exactly once, no off-point,
and no point twice. A partial cover ("partial", the single-file form
where the dc-set is the shared region) covers every on-point exactly
once and no off-point; cubes may overlap on dc-points only.
"""

from __future__ import annotations

from gen import Table


class CheckError(Exception):
    """The emitted PLA is malformed or does not cover its function."""


def read_pla(text: str) -> tuple[int, int, list[tuple[int, int, str]]]:
    """(inputs, outputs, rows) of a PLA; rows as (mask, bits, plane)."""
    n = outputs = declared = None
    rows = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == ".i":
            n = int(parts[1])
        elif parts[0] == ".o":
            outputs = int(parts[1])
        elif parts[0] == ".p":
            declared = int(parts[1])
        elif parts[0] in (".e", ".end"):
            break
        elif parts[0].startswith("."):
            continue
        else:
            if n is None or outputs is None or len(parts) != 2:
                raise CheckError(f"bad row {line!r}")
            cube, plane = parts
            if len(cube) != n or len(plane) != outputs:
                raise CheckError(f"row {line!r} does not match .i {n} .o {outputs}")
            mask = bits = 0
            for i, ch in enumerate(cube):
                if ch == "1":
                    mask |= 1 << i
                    bits |= 1 << i
                elif ch == "0":
                    mask |= 1 << i
                elif ch != "-":
                    raise CheckError(f"bad input plane {cube!r}")
            rows.append((mask, bits, plane))
    if n is None or outputs is None:
        raise CheckError("missing .i/.o")
    if declared is not None and declared != len(rows):
        raise CheckError(f".p {declared} but {len(rows)} rows")
    return n, outputs, rows


def points(n: int, mask: int, bits: int) -> int:
    """Point mask of one cube: start at its lowest minterm, then double
    the set along each free variable."""
    pts = 1 << bits
    for i in range(n):
        if not mask >> i & 1:
            pts |= pts << (1 << i)
    return pts


def check(source: Table, emitted: str, mode: str) -> int:
    """Raise CheckError unless `emitted` is a correct cover of `source`;
    return its product count (rows of the merged table)."""
    n, outputs, rows = read_pla(emitted)
    if n != source.n or outputs != source.outputs:
        raise CheckError(f"shape {n}x{outputs}, expected {source.n}x{source.outputs}")
    if len({(m, b) for m, b, _ in rows}) != len(rows):
        raise CheckError("a cube appears in two rows")
    for j in range(outputs):
        on = dc = covered = multi = 0
        for mask, bits, plane in source.rows:
            if plane[j] == "1":
                on |= points(n, mask, bits)
            elif plane[j] == "-":
                dc |= points(n, mask, bits)
        for mask, bits, plane in rows:
            if plane[j] == "1":
                pts = points(n, mask, bits)
                multi |= covered & pts
                covered |= pts
            elif plane[j] != "0":
                raise CheckError(f"output {j}: plane character {plane[j]!r}")
        if on & ~covered:
            raise CheckError(f"output {j}: on-points left uncovered")
        if covered & ~(on | dc):
            raise CheckError(f"output {j}: off-points covered")
        clash = multi if mode == "dsop" else multi & on
        if clash:
            raise CheckError(f"output {j}: points covered twice")
    return len(rows)
