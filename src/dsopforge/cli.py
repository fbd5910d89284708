"""Command-line front end and benchmark harness.

Three subcommands: `dsop` turns a PLA into a disjoint cover per output,
`pdsop` does the partial variant (two-file unique+shared form, or one
file whose don't-cares become the shared region), and `bench` sweeps
a directory of PLA files over a variant/sort grid into a CSV/JSON
report plus a size pivot table. Every run is serial; `--jobs 1` and
`pdsop FILE --dc-policy many` are accepted for compatibility only.

Exit codes, from _failure: 0 ok, 2 input/usage problems (PLA parse
errors, unreadable or unwritable files, refused flags, shape or
disjointness violations), 3 minimizer backend failure, 4 verification
failure, 5 internal error (any other exception: a bug inside
dsopforge, not a problem with the input). Stats JSON has the shape
{"schema", "notes", "rows"} with one RunStats object per row;
everything except elapsed_ms is deterministic for fixed inputs and
flags.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Callable, Iterable, Sequence, TypeVar

from .covers import Cover, FunctionSpec, PartialSpec
from .engine import (
    SORT_DIMENSION_WEIGHT,
    SORT_WEIGHT_DIMENSION,
    DsopConfig,
    dsop,
)
from .minimize import MinimizerBackend, MinimizerBackendError, build_sop
from .partial import partial_dsop
from .pla import (
    PlaFile,
    PlaParseError,
    merged_product_count,
    parse_pla,
    split_outputs,
    write_pla,
)
from .verify import VerificationReport, verify_dsop, verify_partial_dsop

__all__ = ["RunStats", "STATS_SCHEMA", "ENV_MINIMIZER", "main", "run"]

STATS_SCHEMA = "dsopforge.run_stats.v1"
ENV_MINIMIZER = "DSOPFORGE_MINIMIZER"

# Recorded in every stats payload so readers know how sizes were produced.
STATS_NOTES = (
    "re-minimization runs once per output; cubes shared between outputs "
    "merge only when identical, and merged cubes count once in sizes",
    "elapsed_ms covers SOP building plus disjoint covering, not I/O or "
    "verification",
)

_SORT_FLAGS = {"dw": SORT_DIMENSION_WEIGHT, "wd": SORT_WEIGHT_DIMENSION}
_SORT_NAMES = {policy: flag for flag, policy in _SORT_FLAGS.items()}

_T = TypeVar("_T")


@dataclass(slots=True)
class RunStats:
    benchmark: str
    inputs: int
    outputs: int
    sop_size: int
    dsop_size: int
    variant: int
    sort: str
    drop_dc_only: bool
    backend: str
    elapsed_ms: float
    verified: bool


class UsageError(ValueError):
    """A refused command line: a flag value or a combination of
    arguments the CLI cannot use."""


def _failure(exc: Exception) -> tuple[int, str]:
    """The exit code for an exception a command raised, and the message
    to print: 2 blames the input or the command line, 3 the minimizer
    backend, and 5 anything else, a fault inside dsopforge."""
    if isinstance(exc, (PlaParseError, UsageError, OSError)):
        return 2, str(exc)
    if isinstance(exc, MinimizerBackendError):
        return 3, str(exc)
    return 5, f"internal error: {type(exc).__name__}: {exc}"


def _resolve_backend(flag: str | None) -> MinimizerBackend:
    if flag is None:
        env = os.environ.get(ENV_MINIMIZER)
        if env:
            return MinimizerBackend.external(env)
        return MinimizerBackend.builtin()
    if flag == "builtin":
        return MinimizerBackend.builtin()
    if flag.startswith("external:"):
        path = flag[len("external:") :]
        if not path:
            raise UsageError("--minimizer external: needs a path")
        return MinimizerBackend.external(path)
    raise UsageError(
        f"--minimizer must be 'builtin' or 'external:PATH', got {flag!r}"
    )


def _read_pla(path: str) -> PlaFile:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise PlaParseError(f"cannot read {path}: {exc}") from None
    try:
        return parse_pla(text)
    except PlaParseError as exc:
        raise PlaParseError(f"{path}: {exc}") from None


def _write_stats_json(path: str, rows: Iterable[RunStats]) -> None:
    payload = {
        "schema": STATS_SCHEMA,
        "notes": list(STATS_NOTES),
        "rows": [asdict(row) for row in rows],
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def _emit(args: argparse.Namespace, text: str, stats: RunStats) -> None:
    """Write the --stats JSON, then the result PLA, then the summary.
    Should the PLA write fail, the stats file goes too, so a failed run
    leaves neither behind."""
    if args.stats:
        _write_stats_json(args.stats, [stats])
    try:
        if args.output == "-":
            sys.stdout.write(text)
        else:
            Path(args.output).write_text(text, encoding="utf-8")
    except OSError:
        if args.stats:
            Path(args.stats).unlink(missing_ok=True)
        raise
    print(
        f"{stats.benchmark}: sop={stats.sop_size} dsop={stats.dsop_size}"
        f" variant={stats.variant} sort={stats.sort}"
        f" backend={stats.backend} elapsed={stats.elapsed_ms:.1f}ms"
        f" verified={'yes' if stats.verified else 'no'}",
        file=sys.stderr,
    )


def _report_violations(name: str, reports: Iterable[VerificationReport]) -> None:
    for j, report in enumerate(reports):
        if report.ok:
            continue
        print(
            f"dsopforge: {name} output {j}: {len(report.violations)}"
            " violation(s) found (exact check)",
            file=sys.stderr,
        )
        for minterm, constraint, observed in report.violations[:5]:
            print(
                f"  {minterm}: expected coverage {constraint},"
                f" observed {observed}",
                file=sys.stderr,
            )


def _build_sops(
    specs: Sequence[FunctionSpec] | Sequence[PartialSpec],
    partial: bool,
    backend: MinimizerBackend,
) -> tuple[list[Cover], float]:
    """Each output's pass-1 SOP, and the milliseconds building them took.

    The SOP depends on the backend alone, so every configuration run
    on one PLA can share them.
    """
    firsts = [s.combined() for s in specs] if partial else specs
    started = time.perf_counter()
    sops = [build_sop(f, backend) for f in firsts]
    return sops, (time.perf_counter() - started) * 1000.0


def _solve_pla(
    name: str,
    pla: PlaFile,
    specs: Sequence[FunctionSpec] | Sequence[PartialSpec],
    partial: bool,
    cfg: DsopConfig,
    verify: bool,
    sops: Sequence[Cover],
    sop_ms: float,
) -> tuple[RunStats, list[Cover], list[VerificationReport]]:
    """Solve every output of one PLA: the one pipeline of all subcommands.

    specs are PartialSpecs for partial_dsop when `partial` is set, and
    FunctionSpecs for dsop otherwise. `sops` are their pass-1 SOPs from
    _build_sops with cfg.backend, handed to the solver as sop=, and
    `sop_ms` the time building them took: elapsed_ms is that plus the
    solving, so a row times one SOP build even when its SOPs are shared.
    The reports are empty unless `verify` is set.
    """
    solve = partial_dsop if partial else dsop
    check = verify_partial_dsop if partial else verify_dsop
    started = time.perf_counter()
    results = [solve(s, cfg, sop=sop) for s, sop in zip(specs, sops)]
    elapsed_ms = sop_ms + (time.perf_counter() - started) * 1000.0
    reports = [check(s, res) for s, res in zip(specs, results)] if verify else []
    stats = RunStats(
        benchmark=name,
        inputs=pla.num_inputs,
        outputs=pla.num_outputs,
        sop_size=merged_product_count(sops),
        dsop_size=merged_product_count(results),
        variant=cfg.variant,
        sort=_SORT_NAMES[cfg.sort],
        drop_dc_only=cfg.drop_dc_only,
        backend=cfg.backend.describe(),
        elapsed_ms=round(elapsed_ms, 3),
        verified=verify and all(r.ok for r in reports),
    )
    return stats, results, reports


def _run_and_emit(
    args: argparse.Namespace,
    name: str,
    pla: PlaFile,
    specs: Sequence[FunctionSpec] | Sequence[PartialSpec],
    partial: bool,
) -> int:
    cfg = DsopConfig(
        variant=args.variant,
        sort=_SORT_FLAGS[args.sort],
        drop_dc_only=args.drop_dc_only,
        backend=_resolve_backend(args.minimizer),
    )
    sops, sop_ms = _build_sops(specs, partial, cfg.backend)
    stats, results, reports = _solve_pla(
        name, pla, specs, partial, cfg, args.verify, sops, sop_ms
    )
    if args.verify and not stats.verified:
        _report_violations(name, reports)
        return 4
    text = write_pla(
        results,
        input_labels=pla.input_labels,
        output_labels=pla.output_labels,
        ptype=pla.ptype,
    )
    _emit(args, text, stats)
    return 0


def cmd_dsop(args: argparse.Namespace) -> int:
    pla = _read_pla(args.input)
    return _run_and_emit(args, Path(args.input).name, pla, split_outputs(pla), False)


def _pdsop_specs(
    args: argparse.Namespace,
) -> tuple[str, PlaFile, list[PartialSpec]]:
    """Assemble one PartialSpec per output from the argument forms."""
    if args.shared is not None and args.dc_policy is not None:
        raise UsageError(
            "--dc-policy is for the single-file form only; with two files"
            " the second one is the shared region"
        )
    pla_u = _read_pla(args.unique)
    name = Path(args.unique).name
    if args.shared is not None:
        pla_s = _read_pla(args.shared)
        for what, u, s in (
            ("inputs", pla_u.num_inputs, pla_s.num_inputs),
            ("outputs", pla_u.num_outputs, pla_s.num_outputs),
        ):
            if u != s:
                raise UsageError(
                    f"{args.unique} has {u} {what} but {args.shared} has {s}"
                )
        specs = [
            PartialSpec(unique=u, shared=s)
            for u, s in zip(split_outputs(pla_u), split_outputs(pla_s))
        ]
        name = f"{name}+{Path(args.shared).name}"
        rows = "row", f"{args.shared} row", "the two files"
    else:
        # Single-file form: the function's dc-set becomes the shared region.
        n = pla_u.num_inputs
        empty = Cover(n)
        specs = [
            PartialSpec(
                unique=FunctionSpec(n, f.on, empty),
                shared=FunctionSpec(n, empty, f.dc),
            )
            for f in split_outputs(pla_u)
        ]
        rows = "on row", "don't-care row", "its on and don't-care rows"
    for j, spec in enumerate(specs):
        hit = spec.overlap()
        if hit is not None:
            raise UsageError(
                f"{args.unique} output {j}: {rows[0]} {hit[0]} overlaps"
                f" {rows[1]} {hit[1]}; {rows[2]} must be point-disjoint"
            )
    return name, pla_u, specs


def cmd_pdsop(args: argparse.Namespace) -> int:
    return _run_and_emit(args, *_pdsop_specs(args), True)


def _parse_list(raw: str, flag: str, parse: Callable[[str], _T | None]) -> list[_T]:
    """Comma list of distinct entries, in order; parse gives None for
    an entry it cannot use."""
    out: list[_T] = []
    for piece in raw.split(","):
        piece = piece.strip()
        if not piece:
            continue
        value = parse(piece)
        if value is None:
            raise UsageError(f"{flag} got unusable entry {piece!r}")
        if value not in out:
            out.append(value)
    if not out:
        raise UsageError(f"{flag} selected nothing")
    return out


def _render_pivot(rows: list[RunStats]) -> str:
    """Size grid: one line per benchmark, one column per variant/sort."""
    combos: list[tuple[int, str]] = []
    for row in rows:
        if (row.variant, row.sort) not in combos:
            combos.append((row.variant, row.sort))
    combos.sort()
    names: list[str] = []
    for row in rows:
        if row.benchmark not in names:
            names.append(row.benchmark)
    by_key = {(r.benchmark, r.variant, r.sort): r for r in rows}
    header = ["benchmark", "in", "out", "sop"] + [
        f"{v}/{s}" for v, s in combos
    ]
    lines = [header]
    for name in names:
        first = next(r for r in rows if r.benchmark == name)
        line = [name, str(first.inputs), str(first.outputs), str(first.sop_size)]
        for v, s in combos:
            r = by_key.get((name, v, s))
            line.append("-" if r is None else str(r.dsop_size))
        lines.append(line)
    widths = [max(len(row[i]) for row in lines) for i in range(len(header))]
    return "\n".join(
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        for row in lines
    )


def cmd_bench(args: argparse.Namespace) -> int:
    directory = Path(args.directory)
    files = sorted(directory.glob("*.pla"))
    if not files:
        print(f"dsopforge: no .pla files in {directory}", file=sys.stderr)
        return 2
    variants = _parse_list(
        args.variants,
        "--variants",
        # str.isdigit() also accepts digits int() refuses, such as '²'
        lambda v: (
            int(v) if v.isascii() and v.isdigit() and int(v) in range(1, 6) else None
        ),
    )
    sorts = _parse_list(args.sorts, "--sorts", lambda s: s if s in _SORT_FLAGS else None)
    backend = _resolve_backend(args.minimizer)

    failures: list[tuple[str, int, str]] = []
    rows: list[RunStats] = []
    for path in files:
        labels = [
            (variant, sort, f"{path.name} variant={variant} sort={sort}")
            for variant in variants
            for sort in sorts
        ]
        try:
            pla = _read_pla(str(path))
            specs = split_outputs(pla)
            sops, sop_ms = _build_sops(specs, False, backend)
        except Exception as exc:
            failures.extend((label, *_failure(exc)) for _, _, label in labels)
            continue
        for variant, sort, label in labels:
            cfg = DsopConfig(
                variant=variant,
                sort=_SORT_FLAGS[sort],
                drop_dc_only=args.drop_dc_only,
                backend=backend,
            )
            try:
                stats, _, _ = _solve_pla(
                    path.name, pla, specs, False, cfg, True, sops, sop_ms
                )
            except Exception as exc:
                failures.append((label, *_failure(exc)))
                continue
            rows.append(stats)
            if not stats.verified:
                failures.append((label, 4, "verification failed"))

    columns = [f.name for f in fields(RunStats)]
    if args.csv:
        with open(args.csv, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=columns)
            writer.writeheader()
            for row in rows:
                writer.writerow(asdict(row))
    if args.json:
        _write_stats_json(args.json, rows)

    if rows:
        print(_render_pivot(rows))
    for label, _, message in failures:
        print(f"dsopforge: FAILED {label}: {message}", file=sys.stderr)
    if failures:
        return failures[0][1]
    return 0


def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument(
        "--minimizer",
        default=None,
        metavar="builtin|external:PATH",
        help="SOP backend; default reads $DSOPFORGE_MINIMIZER, else builtin",
    )
    shared.add_argument(
        "--jobs",
        type=int,
        choices=(1,),
        default=1,
        help="accepted for compatibility; runs are always serial",
    )
    shared.add_argument(
        "--drop-dc-only",
        action="store_true",
        help="discard committed cubes that cover no original on-point",
    )

    single = argparse.ArgumentParser(add_help=False)
    single.add_argument(
        "--variant", type=int, choices=range(1, 6), default=3
    )
    single.add_argument("--sort", choices=("dw", "wd"), default="dw")
    single.add_argument(
        "-o", "--output", default="-", help="result PLA path, '-' for stdout"
    )
    single.add_argument("--stats", default=None, help="write stats JSON here")
    single.add_argument(
        "--verify",
        action="store_true",
        help="check the result before writing, exit 4 on failure",
    )

    ap = argparse.ArgumentParser(
        prog="dsopforge",
        description="Disjoint sum-of-products covers for PLA functions.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    d = sub.add_parser(
        "dsop",
        parents=[shared, single],
        help="disjoint cover of each output of a PLA",
    )
    d.add_argument("input", help="source PLA file")
    d.set_defaults(func=cmd_dsop)

    p = sub.add_parser(
        "pdsop",
        parents=[shared, single],
        help="partial disjoint cover: unique region exact, shared reusable",
    )
    p.add_argument("unique", help="PLA whose on-set is covered exactly once")
    p.add_argument(
        "shared",
        nargs="?",
        default=None,
        help="PLA whose points may be covered repeatedly (omit to derive"
        " the shared region from the first file's don't-cares)",
    )
    p.add_argument(
        "--dc-policy",
        choices=("many",),
        default=None,
        help="single-file form only, accepted for compatibility: the"
        " file's don't-care points may be covered many times",
    )
    p.set_defaults(func=cmd_pdsop)

    b = sub.add_parser(
        "bench",
        parents=[shared],
        help="run a directory of PLA files over a variant/sort grid",
    )
    b.add_argument("directory", help="directory containing *.pla")
    b.add_argument("--variants", default="1,2,3,4,5", help="comma list")
    b.add_argument("--sorts", default="dw,wd", help="comma list of dw,wd")
    b.add_argument("--csv", default=None, help="write rows as CSV here")
    b.add_argument("--json", default=None, help="write rows as JSON here")
    b.set_defaults(func=cmd_bench)
    return ap


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a refused argument, 0 after --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except Exception as exc:
        code, message = _failure(exc)
        print(f"dsopforge: {message}", file=sys.stderr)
        return code


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
