"""Reading and writing Berkeley PLA files.

Only the single-table subset needed here is supported: .i/.o/.p/.type/
.ilb/.ob/.e directives, '#' comments, and f or fd table types. Rows
carry one input cube and one output column string each; split_outputs
turns the table into one FunctionSpec per output, and write_pla merges
per-output on-covers back into shared rows so a cube used by several
outputs is emitted (and counted) once. The declared .p count is checked
to be an integer and otherwise ignored.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from .covers import Cover, FunctionSpec
from .cubes import Cube, trit_strings

__all__ = [
    "PlaParseError",
    "PlaFile",
    "parse_pla",
    "split_outputs",
    "merged_product_count",
    "write_pla",
]

_TYPES = ("f", "fd")

# Accepted plane characters, normalized before validation.
_PLANE = str.maketrans("2~", "--")


class PlaParseError(ValueError):
    """Malformed PLA text; carries the 1-based source line when known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass(frozen=True, slots=True)
class PlaFile:
    num_inputs: int
    num_outputs: int
    ptype: str = "fd"
    rows: tuple[tuple[Cube, str], ...] = ()
    input_labels: tuple[str, ...] | None = None
    output_labels: tuple[str, ...] | None = None


def _int_arg(args: list[str], directive: str, lineno: int) -> int:
    # str.isdigit() also accepts digits int() refuses, such as '²'
    if len(args) != 1 or not (args[0].isascii() and args[0].isdigit()):
        raise PlaParseError(f"{directive} needs one integer argument", lineno)
    return int(args[0])


def parse_pla(text: str) -> PlaFile:
    num_inputs: int | None = None
    num_outputs: int | None = None
    ptype = "fd"
    # .ilb/.ob names and their line, checked once .i/.o are known
    labels: dict[str, tuple[tuple[str, ...], int]] = {}
    rows: list[tuple[Cube, str]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0].startswith("."):
            directive, args = tokens[0], tokens[1:]
            if directive in (".i", ".o", ".type") and rows:
                raise PlaParseError(f"{directive} after table rows", lineno)
            if directive == ".i":
                num_inputs = _int_arg(args, ".i", lineno)
                if num_inputs == 0:
                    raise PlaParseError(".i needs at least one input", lineno)
            elif directive == ".o":
                num_outputs = _int_arg(args, ".o", lineno)
                if num_outputs == 0:
                    raise PlaParseError(".o needs at least one output", lineno)
            elif directive == ".p":
                _int_arg(args, ".p", lineno)
            elif directive == ".type":
                if len(args) != 1 or args[0] not in _TYPES:
                    raise PlaParseError(
                        f"unsupported table type {' '.join(args) or '(none)'};"
                        f" expected one of {', '.join(_TYPES)}",
                        lineno,
                    )
                ptype = args[0]
            elif directive in (".ilb", ".ob"):
                labels[directive] = (tuple(args), lineno)
            elif directive in (".e", ".end"):
                break
            else:
                raise PlaParseError(f"unknown directive {directive}", lineno)
            continue
        if num_inputs is None or num_outputs is None:
            raise PlaParseError("table row before .i/.o declarations", lineno)
        packed = "".join(tokens).translate(_PLANE)
        if len(packed) != num_inputs + num_outputs:
            raise PlaParseError(
                f"row has {len(packed)} plane characters, expected"
                f" {num_inputs}+{num_outputs}",
                lineno,
            )
        in_part = packed[:num_inputs]
        out_part = packed[num_inputs:]
        if in_part.strip("01-"):
            raise PlaParseError(f"bad input plane {in_part!r}", lineno)
        if out_part.strip("01-"):
            raise PlaParseError(f"bad output plane {out_part!r}", lineno)
        rows.append((Cube.from_string(in_part), out_part))

    if num_inputs is None or num_outputs is None:
        raise PlaParseError("missing .i/.o declarations")
    for directive, count, what in (
        (".ilb", num_inputs, "inputs"),
        (".ob", num_outputs, "outputs"),
    ):
        names, lineno = labels.get(directive, (None, None))
        if names is not None and len(names) != count:
            raise PlaParseError(
                f"{directive} lists {len(names)} names for {count} {what}", lineno
            )
    return PlaFile(
        num_inputs=num_inputs,
        num_outputs=num_outputs,
        ptype=ptype,
        rows=tuple(rows),
        input_labels=labels.get(".ilb", (None,))[0],
        output_labels=labels.get(".ob", (None,))[0],
    )


def split_outputs(pla: PlaFile) -> list[FunctionSpec]:
    """One FunctionSpec per output column.

    '1' rows feed the on-set. '-' rows feed the dc-set under type fd;
    type f has no dc plane, so there '-' means the row says nothing
    about this output, same as '0'.
    """
    n = pla.num_inputs
    specs: list[FunctionSpec] = []
    for j in range(pla.num_outputs):
        on = [cube for cube, out in pla.rows if out[j] == "1"]
        dc = [cube for cube, out in pla.rows if out[j] == "-"] if pla.ptype == "fd" else []
        specs.append(FunctionSpec(n, Cover(n, tuple(on)), Cover(n, tuple(dc))))
    return specs


def merged_product_count(covers: Sequence[Cover]) -> int:
    """Number of distinct cubes across all covers; a cube shared by
    several outputs counts once, matching the .p of a merged table."""
    distinct: set[Cube] = set()
    for cover in covers:
        distinct.update(cover.cubes)
    return len(distinct)


def write_pla(
    covers: Sequence[Cover],
    *,
    input_labels: Sequence[str] | None = None,
    output_labels: Sequence[str] | None = None,
    ptype: str = "fd",
) -> str:
    """Serialize per-output on-covers as PLA text.

    Rows are merged: each distinct cube gets one row with a '1' in every
    output it serves, in first-appearance order (the covers' i-th cubes,
    output by output, before their (i+1)-th).
    """
    if not covers:
        raise ValueError("write_pla needs at least one output cover")
    if ptype not in _TYPES:
        raise ValueError(f"unsupported table type {ptype!r}")
    n = covers[0].n
    if any(cover.n != n for cover in covers):
        raise ValueError("output covers disagree on input width")

    out_chars: dict[Cube, list[str]] = {}
    for row in itertools.zip_longest(*(cover.cubes for cover in covers)):
        for j, cube in enumerate(row):
            if cube is not None:
                out_chars.setdefault(cube, ["0"] * len(covers))[j] = "1"

    lines = [f".i {n}", f".o {len(covers)}"]
    if input_labels is not None:
        if len(input_labels) != n:
            raise ValueError(f"need {n} input labels, got {len(input_labels)}")
        lines.append(".ilb " + " ".join(input_labels))
    if output_labels is not None:
        if len(output_labels) != len(covers):
            raise ValueError(
                f"need {len(covers)} output labels, got {len(output_labels)}"
            )
        lines.append(".ob " + " ".join(output_labels))
    if ptype != "fd":
        lines.append(f".type {ptype}")
    lines.append(f".p {len(out_chars)}")
    for trits, chars in zip(trit_strings(list(out_chars)), out_chars.values()):
        lines.append(f"{trits} {''.join(chars)}")
    lines.append(".e")
    return "\n".join(lines) + "\n"
