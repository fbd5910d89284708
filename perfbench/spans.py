"""Span tracing of dsopforge's layers, from inside the benchmark process.

install() replaces each public function named in WRAPPED, at every
dsopforge module attribute that refers to it, by a wrapper recording a
span (name, start, end, parent span, job id, count). Callers resolve
these names through their module's globals at call time, so e.g. the
engine's call of build_sop is seen. remove() puts the originals back.
Spans stay in memory until write() dumps them as JSON lines.

The hot cube predicates (contains, intersect, _overlaps) run millions
of times per job and are left unwrapped; their time is part of the
self time of whichever span calls them. A name missing from the
traced dsopforge version is skipped, and its metrics read 0.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path


def _cubes_out(args, result):
    return len(result.cubes)


def _expand_probes(args, result):
    # every bound literal of the input cube is one containment probe
    return (args[0].literal_count, args[0].literal_count - result.literal_count)


def _cubes_in(args, result):
    return len(args[0].cubes)


def _fragments(args, result):
    return len(result)


def _reusable(args, result):
    return len(result[1])


def _result_cubes(args, result):
    return len(args[1].cubes)


# (module, function, span name, count(args, result) or None)
WRAPPED = (
    ("cli", "main", "cli.main", None),
    ("pla", "parse_pla", "pla.parse", None),
    ("pla", "write_pla", "pla.write", None),
    ("minimize", "build_sop", "minimize.build_sop", _cubes_out),
    ("minimize", "expand_cube", "minimize.expand", _expand_probes),
    ("minimize", "irredundant", "minimize.irredundant", None),
    ("covers", "normalize", "covers.normalize", _cubes_in),
    ("covers", "cover_contains_cube", "covers.contains", None),
    ("cubes", "disjoint_sharp", "cubes.sharp", _fragments),
    ("engine", "weight_all", "engine.weight", None),
    ("engine", "sort_cubes", "engine.sort", None),
    ("engine", "dsop", "engine.dsop", None),
    ("partial", "partial_dsop", "partial.partial_dsop", None),
    ("partial", "partial_break", "partial.break", _reusable),
    ("verify", "verify_dsop", "verify.dsop", _result_cubes),
    ("verify", "verify_partial_dsop", "verify.partial", _result_cubes),
)


class Tracer:
    def __init__(self) -> None:
        # (name, start, end, parent index or -1, job id, count or None)
        self.spans: list[tuple] = []
        self.job = -1
        self._stack = [-1]
        self._patches: list[tuple] = []

    def install(self) -> None:
        modules = [
            m
            for name, m in list(sys.modules.items())
            if name == "dsopforge" or name.startswith("dsopforge.")
        ]
        for modname, fname, span, count in WRAPPED:
            module = sys.modules.get(f"dsopforge.{modname}")
            original = getattr(module, fname, None)
            if original is None:
                continue
            wrapper = self._wrap(span, original, count)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        self._patches.append((m, attr, original))

    def remove(self) -> None:
        for m, attr, original in reversed(self._patches):
            setattr(m, attr, original)
        self._patches.clear()

    def _wrap(self, name, fn, count):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1]
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.job, None)
            if count is not None:
                spans[idx] = (name, start, end, parent, self.job, count(args, result))
            return result

        return traced

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, such as one job."""
        idx = len(self.spans)
        parent = self._stack[-1]
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.job, None)

    def write(self, path: Path, origin: float) -> None:
        """One JSON array per span, times in microseconds from origin."""
        with path.open("w", encoding="utf-8") as fh:
            fh.write('["name", "start_us", "end_us", "parent", "job", "count"]\n')
            for name, start, end, parent, job, count in self.spans:
                fh.write(
                    json.dumps(
                        [
                            name,
                            round((start - origin) * 1e6, 1),
                            round((end - origin) * 1e6, 1),
                            parent,
                            job,
                            count,
                        ]
                    )
                    + "\n"
                )


class _Totals:
    __slots__ = ("calls", "ms", "self_ms", "count", "count2")

    def __init__(self) -> None:
        self.calls = 0
        self.ms = self.self_ms = 0.0
        self.count = self.count2 = 0


def summarize(spans: list[tuple]) -> dict[str, _Totals]:
    """Totals per span name, plus per 'name<parent-name' for the
    pairs the metrics need (which caller a span ran under)."""
    child_ms = [0.0] * len(spans)
    for name, start, end, parent, job, count in spans:
        if parent >= 0:
            child_ms[parent] += (end - start) * 1e3
    totals: dict[str, _Totals] = {}
    for i, (name, start, end, parent, job, count) in enumerate(spans):
        keys = [name]
        if parent >= 0:
            keys.append(f"{name}<{spans[parent][0]}")
        ms = (end - start) * 1e3
        for key in keys:
            t = totals.setdefault(key, _Totals())
            t.calls += 1
            t.ms += ms
            t.self_ms += ms - child_ms[i]
            if isinstance(count, tuple):
                t.count += count[0]
                t.count2 += count[1]
            elif count is not None:
                t.count += count
    return totals


def layer_metrics(totals: dict[str, _Totals], rounds: int) -> dict[str, float]:
    """Per-layer metrics, per traced round, from summarize()'s totals."""
    empty = _Totals()

    def t(key: str) -> _Totals:
        return totals.get(key, empty)

    probes = t("minimize.expand").count
    raised = t("minimize.expand").count2
    m = {
        "minimize.ms": t("minimize.build_sop").ms,
        "minimize.expand_ms": t("minimize.expand").ms,
        "minimize.irredundant_ms": t("minimize.irredundant").ms,
        "minimize.calls": t("minimize.build_sop").calls,
        "minimize.literal_probes": probes,
        "minimize.cubes_out": t("minimize.build_sop").count,
        "covers.contains_calls": t("covers.contains").calls,
        "covers.contains_ms": t("covers.contains").ms,
        "covers.normalize_ms": t("covers.normalize").ms,
        "covers.normalize_cubes": t("covers.normalize").count,
        "cubes.sharp_calls": t("cubes.sharp").calls,
        "cubes.sharp_fragments": t("cubes.sharp").count,
        "engine.passes": t("minimize.build_sop<engine.dsop").calls,
        "engine.ms": t("engine.dsop").ms,
        "engine.weight_ms": t("engine.weight").ms,
        "engine.sort_ms": t("engine.sort").ms,
        "engine.select_self_ms": t("engine.dsop").self_ms,
        "partial.passes": t("minimize.build_sop<partial.partial_dsop").calls,
        "partial.ms": t("partial.partial_dsop").ms,
        "partial.select_self_ms": t("partial.partial_dsop").self_ms,
        "partial.breaks": t("partial.break").calls,
        "partial.reusable_cubes": t("partial.break").count,
        "verify.ms": t("verify.dsop").ms + t("verify.partial").ms,
        "verify.result_cubes": t("verify.dsop").count + t("verify.partial").count,
        "pla.parse_ms": t("pla.parse").ms,
        "pla.write_ms": t("pla.write").ms,
        "cli.self_ms": t("cli.main").self_ms,
        "cli.sop_size_ms": t("minimize.build_sop<cli.main").ms,
    }
    out = {k: v / rounds for k, v in m.items()}
    out["minimize.raise_ratio"] = raised / probes if probes else 0.0
    return out


def share_table(totals: dict[str, _Totals]) -> list[tuple[str, int, float, float]]:
    """(span name, calls, inclusive ms, self ms) per name, from
    summarize()'s totals, largest inclusive time first."""
    rows = [
        (name, t.calls, t.ms, t.self_ms)
        for name, t in totals.items()
        if "<" not in name
    ]
    rows.sort(key=lambda r: -r[2])
    return rows
