"""Benchmark: PLA text in, verified disjoint cover out.

    python3 perfbench/run.py --workload sop_small --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from
./src. One process runs the workload's jobs one after another (a closed
loop with one client, like `--jobs 1`), round after round on the same
inputs, for about --seconds seconds. Every job is bracketed by a fixed
reference loop, and its time is scaled to the machine speed at which
that loop takes REF_LOOP_S (see reference_loop). norm_wall_s sums each
job's median scaled time over the rounds, and norm_job_ms_p50 is the
Harrell-Davis median of those over the jobs; setup_s is the median
scaled time of several fresh interpreters importing dsopforge.cli; and
peak_rss_mb is read before the checks run. Unscaled wall times are
printed above the result line. CLI jobs call dsopforge.cli.main
with `dsop --verify` or `pdsop --verify`; library jobs make the CLI's
calls in its order (parse_pla, split_outputs, dsop or partial_dsop,
verify_*, write_pla) with the identity backend, which has no CLI flag.
Each job starts with dsopforge's caches cleared, as a fresh CLI process
would.

Every output of the first round is checked by perfbench/check.py, and
every later round must reproduce it byte for byte. A job fails on a
nonzero exit, a failed --verify, an exception, or a check mismatch.

--trace 0 reports the end-to-end metrics. --trace 1 alternates plain
and traced rounds and reports per-layer metrics, per traced round,
from spans recorded by perfbench/spans.py. The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from check import CheckError, check  # noqa: E402
from gen import Table, parity_table, pool, seeded  # noqa: E402
from spans import Tracer, layer_metrics, share_table, summarize  # noqa: E402

END_TO_END = {
    "norm_wall_s": "s",
    "norm_job_ms_p50": "ms",
    "dsop_cubes": "count",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER = {
    "minimize.ms": "ms",
    "minimize.expand_ms": "ms",
    "minimize.irredundant_ms": "ms",
    "minimize.calls": "count",
    "minimize.literal_probes": "count",
    "minimize.cubes_out": "count",
    "minimize.raise_ratio": "ratio",
    "covers.contains_calls": "count",
    "covers.contains_ms": "ms",
    "covers.normalize_ms": "ms",
    "covers.normalize_cubes": "count",
    "cubes.sharp_calls": "count",
    "cubes.sharp_fragments": "count",
    "engine.passes": "count",
    "engine.ms": "ms",
    "engine.weight_ms": "ms",
    "engine.sort_ms": "ms",
    "engine.select_self_ms": "ms",
    "partial.passes": "count",
    "partial.ms": "ms",
    "partial.select_self_ms": "ms",
    "partial.breaks": "count",
    "partial.reusable_cubes": "count",
    "verify.ms": "ms",
    "verify.result_cubes": "count",
    "pla.parse_ms": "ms",
    "pla.write_ms": "ms",
    "cli.self_ms": "ms",
    "cli.sop_size_ms": "ms",
    "trace.overhead_ratio": "ratio",
    "trace.layer_share": "ratio",
}

SETUP_REPEATS = 15
SETUP_SNIPPET = "import sys; sys.path.insert(0, 'src'); import dsopforge.cli"

# --- machine speed -----------------------------------------------------------
# On a shared virtual machine the speed of a core changes by up to half
# between runs and within seconds, with other tenants' load, and CPU
# time moves with wall time, so neither a job's fastest repeat nor its
# CPU time is steady. Each timed job is therefore bracketed by a fixed
# pure-Python loop of the operations dsopforge spends its time on
# (integer bit operations on (mask, bits) pairs, tuple and dict
# traffic), and its time is scaled to the speed at which that loop
# takes REF_LOOP_S.

REF_LOOP_S = 0.004
REF_LOOP_ITERATIONS = 5000


def reference_loop() -> float:
    """Wall time of one fixed reference loop, in seconds."""
    t0 = time.perf_counter()
    x = 0x9E3779B97F4A7C15
    seen: dict[int, tuple[int, int]] = {}
    acc = 0
    for _ in range(REF_LOOP_ITERATIONS):
        x = (x * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
        cube = (x >> 40, x >> 16 & 0xFFFFFF)
        acc += (cube[0] & cube[1]).bit_count()
        seen[cube[0] & 1023] = cube
    return time.perf_counter() - t0


def at_reference_speed(seconds: float, ref_before: float, ref_after: float) -> float:
    """A time scaled by the mean of the reference loops around it."""
    return seconds * REF_LOOP_S * 2 / (ref_before + ref_after)


@dataclass(frozen=True)
class Job:
    table: Table
    mode: str  # "dsop" or "partial"
    cli: bool
    variant: int = 3
    sort: str = "dw"

    @property
    def name(self) -> str:
        return f"{self.table.name}-{self.mode}-v{self.variant}{self.sort}"


# --- workloads -------------------------------------------------------------
# Each workload function returns the job list for a seed; tiny shrinks
# it for the self-test. LAYER names the layer each workload stresses;
# its share of the traced round is reported as trace.layer_share.


def _shapes(tiny: bool, full: list[dict], small: dict) -> list[dict]:
    return [small] if tiny else full


def sop_small(seed: int, tiny: bool) -> list[Job]:
    shapes = _shapes(
        tiny,
        [
            dict(n=n, outputs=o, k_on=22, k_dc=4, bind=0.55)
            for n, o in ((12, 1), (12, 2), (13, 1), (13, 2), (14, 1), (14, 2), (13, 1), (14, 2))
        ],
        dict(n=8, outputs=2, k_on=10, k_dc=2, bind=0.55),
    )
    tables = seeded("sop_small", seed, pool("sop_small", shapes))
    tables += [parity_table("rd53", 5, 3)] if tiny else [
        parity_table("rd73", 7, 3),
        parity_table("rd84", 8, 4),
    ]
    return [Job(t, mode, cli=True) for t in tables for mode in ("dsop", "partial")]


def sop_wide(seed: int, tiny: bool) -> list[Job]:
    shapes = _shapes(
        tiny,
        [
            dict(n=n, outputs=1, k_on=k, k_dc=3, bind=0.38)
            for n, k in ((20, 14), (21, 13), (22, 12), (23, 12), (24, 12), (20, 13), (22, 12), (24, 11))
        ],
        dict(n=18, outputs=1, k_on=6, k_dc=2, bind=0.4),
    )
    tables = seeded("sop_wide", seed, pool("sop_wide", shapes))
    return [Job(t, mode, cli=True) for t in tables for mode in ("dsop", "partial")]


def split_identity(seed: int, tiny: bool) -> list[Job]:
    # table i runs variant i%5+1 with sort dw or wd, so a round has every
    # configuration twice in both modes; v4 and v5 reweight all of P
    # after each split, so their tables are smaller to keep jobs alike
    shapes = _shapes(
        tiny,
        [dict(n=16, outputs=1, k_on=32 if i % 5 >= 3 else 40, k_dc=6, bind=0.47) for i in range(20)],
        dict(n=10, outputs=1, k_on=12, k_dc=2, bind=0.47),
    )
    tables = seeded("split_identity", seed, pool("split_identity", shapes))
    return [
        Job(t, mode, cli=False, variant=i % 5 + 1, sort="dw" if i // 5 % 2 == 0 else "wd")
        for i, t in enumerate(tables)
        for mode in ("dsop", "partial")
    ]


def verify_wide(seed: int, tiny: bool) -> list[Job]:
    shapes = _shapes(
        tiny,
        [
            dict(n=n, outputs=1, k_on=k, k_dc=6, bind=0.5)
            for n, k in ((22, 40), (23, 35), (24, 30), (22, 45), (23, 40), (24, 35), (23, 30), (24, 30))
        ],
        dict(n=12, outputs=1, k_on=10, k_dc=2, bind=0.5),
    )
    tables = seeded("verify_wide", seed, pool("verify_wide", shapes))
    return [Job(t, mode, cli=False) for t in tables for mode in ("dsop", "partial")]


WORKLOADS = {
    "sop_small": sop_small,
    "sop_wide": sop_wide,
    "split_identity": split_identity,
    "verify_wide": verify_wide,
}
LAYER = {
    "sop_small": ("minimize.ms",),
    "sop_wide": ("minimize.ms",),
    "split_identity": ("engine.ms", "partial.ms"),
    "verify_wide": ("verify.ms",),
}


# --- running jobs ----------------------------------------------------------


class Program:
    """The dsopforge modules, looked up at call time so that the
    tracer's wrappers are seen."""

    def __init__(self, src: Path) -> None:
        sys.path.insert(0, str(src))
        self.mods = {
            name: importlib.import_module(f"dsopforge.{name}")
            for name in ("cli", "covers", "engine", "minimize", "partial", "pla", "verify")
        }
        origin = Path(self.mods["cli"].__file__).resolve()
        if src.resolve() not in origin.parents:
            raise ImportError(f"dsopforge imported from {origin}, not from {src}")
        self._caches = {
            id(v): v
            for m in list(sys.modules.values())
            if getattr(m, "__name__", "").startswith("dsopforge")
            for v in vars(m).values()
            if callable(getattr(v, "cache_clear", None))
        }.values()

    def clear_caches(self) -> None:
        for fn in self._caches:
            fn.cache_clear()

    def run_cli(self, job: Job, src: Path, out: Path) -> tuple[float, str | None, str | None]:
        argv = ["dsop"] if job.mode == "dsop" else ["pdsop", "--dc-policy", "many"]
        argv += [str(src), "--verify", "--jobs", "1", "-o", str(out)]
        out.unlink(missing_ok=True)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            code = self.mods["cli"].main(argv)
            dt = time.perf_counter() - t0
        if code != 0:
            return dt, None, f"exit {code}: {err.getvalue().strip()[-500:]}"
        return dt, out.read_text(encoding="utf-8"), None

    def run_lib(self, job: Job, text: str) -> tuple[float, str | None, str | None]:
        pla, covers, engine = self.mods["pla"], self.mods["covers"], self.mods["engine"]
        partial, verify = self.mods["partial"], self.mods["verify"]
        cfg = engine.DsopConfig(
            variant=job.variant,
            sort=engine.SORT_DIMENSION_WEIGHT if job.sort == "dw" else engine.SORT_WEIGHT_DIMENSION,
            backend=self.mods["minimize"].MinimizerBackend.identity(),
        )
        t0 = time.perf_counter()
        parsed = pla.parse_pla(text)
        specs = pla.split_outputs(parsed)
        if job.mode == "dsop":
            results = [engine.dsop(f, cfg) for f in specs]
            ok = all(verify.verify_dsop(f, r).ok for f, r in zip(specs, results))
        else:
            n = parsed.num_inputs
            empty = covers.Cover(n)
            pspecs = [
                partial.PartialSpec(
                    unique=covers.FunctionSpec(n, f.on, empty),
                    shared=covers.FunctionSpec(n, empty, f.dc),
                )
                for f in specs
            ]
            results = [partial.partial_dsop(s, cfg) for s in pspecs]
            ok = all(verify.verify_partial_dsop(s, r).ok for s, r in zip(pspecs, results))
        out = pla.write_pla(
            results,
            input_labels=parsed.input_labels,
            output_labels=parsed.output_labels,
            ptype=parsed.ptype,
        )
        dt = time.perf_counter() - t0
        return dt, (out if ok else None), (None if ok else "verification failed")


@dataclass
class Round:
    traced: bool
    times: list[float]
    outputs: list[str | None]
    errors: list[str | None]
    # reference_loop() times: before each job, and one after the last
    refs: list[float]

    @property
    def wall(self) -> float:
        return sum(self.times)

    def normalized(self) -> list[float]:
        """Each job's time at reference speed, scaled by the mean of the
        reference loops just before and just after it."""
        return [
            at_reference_speed(t, self.refs[i], self.refs[i + 1])
            for i, t in enumerate(self.times)
        ]


def run_rounds(
    program: Program,
    jobs: list[Job],
    work: Path,
    seconds: float,
    tracer: Tracer | None,
) -> list[Round]:
    """Rounds until the next one would overrun `seconds`; with a tracer,
    plain and traced rounds alternate and at least one of each runs."""
    inputs = []
    for i, job in enumerate(jobs):
        path = work / f"{i:02d}-{job.table.name}.pla"
        path.write_text(job.table.text(), encoding="utf-8")
        inputs.append(path)
    rounds: list[Round] = []
    started = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        rnd = Round(traced, [], [], [], [reference_loop()])
        if traced:
            tracer.install()
        for i, job in enumerate(jobs):
            program.clear_caches()
            if tracer is not None:
                tracer.job = len(rounds) * len(jobs) + i
            span = tracer.span("job") if traced else contextlib.nullcontext()
            try:
                with span:
                    if job.cli:
                        result = program.run_cli(job, inputs[i], work / f"{i:02d}.out.pla")
                    else:
                        result = program.run_lib(job, inputs[i].read_text(encoding="utf-8"))
            except Exception:  # one broken job must not end the run
                result = (0.0, None, traceback.format_exc(limit=3))
            rnd.times.append(result[0])
            rnd.outputs.append(result[1])
            rnd.errors.append(result[2])
            rnd.refs.append(reference_loop())
        if traced:
            tracer.remove()
        rounds.append(rnd)
        elapsed = time.perf_counter() - started
        enough = len(rounds) >= (2 if tracer is not None else 1)
        if enough and elapsed + rnd.wall > seconds:
            return rounds


def best_times(rounds: list[Round]) -> list[float]:
    """Each job's fastest wall time over the rounds."""
    return [min(times) for times in zip(*(r.times for r in rounds))]


def normalized_times(rounds: list[Round]) -> list[float]:
    """Each job's median time at reference speed over the rounds."""
    return [statistics.median(times) for times in zip(*(r.normalized() for r in rounds))]


def harrell_davis_median(values: list[float]) -> float:
    """The Harrell-Davis estimate of the median: a Beta((n+1)/2,
    (n+1)/2)-weighted mean of the order statistics. Unlike the sample
    median it does not jump from one job to the next when a seed
    reorders the jobs near the middle. The weights are integrated on
    a grid of 100 points per order statistic."""
    xs = sorted(values)
    n = len(xs)
    grid = 100 * n
    weights = [((k + 0.5) / grid * (1 - (k + 0.5) / grid)) ** ((n - 1) / 2) for k in range(grid)]
    return sum(xs[k // 100] * w for k, w in enumerate(weights)) / sum(weights)


def check_rounds(jobs: list[Job], rounds: list[Round]) -> tuple[int, int, str, list[str]]:
    """(failed executions, product count, digest, messages). The first
    round is checked independently; later rounds must repeat it."""
    failed = 0
    cubes = 0
    digest = hashlib.sha256()
    messages = []
    first = rounds[0]
    for i, job in enumerate(jobs):
        err = first.errors[i]
        if err is None:
            try:
                cubes += check(job.table, first.outputs[i], job.mode)
            except CheckError as exc:
                err = f"check: {exc}"
        digest.update(f"{job.name}\n{first.outputs[i]}\n".encode())
        for r, rnd in enumerate(rounds):
            e = err if r == 0 else rnd.errors[i]
            if e is None and rnd.outputs[i] != first.outputs[i]:
                e = f"round {r} output differs from round 0"
            if e is not None:
                failed += 1
                messages.append(f"{job.name} round {r}: {e}")
    return failed, cubes, digest.hexdigest(), messages


def measure_setup(root: Path) -> tuple[float, float]:
    """(median wall time, median time at reference speed) of a fresh
    interpreter importing dsopforge.cli."""
    times = []
    normalized = []
    ref = reference_loop()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=60,
        )
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise ImportError(proc.stderr.strip()[-500:])
        after = reference_loop()
        normalized.append(at_reference_speed(times[-1], ref, after))
        ref = after
    return statistics.median(times), statistics.median(normalized)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--size",
        choices=("full", "tiny"),
        default="full",
        help="tiny shrinks every job, for the benchmark's self-test",
    )
    args = ap.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "dsopforge" / "__init__.py").is_file():
        print(f"perfbench: no dsopforge sources under {src}", file=sys.stderr)
        return 2
    try:
        setup_wall_s, setup_s = measure_setup(root)
        program = Program(src)
    except ImportError as exc:
        print(f"perfbench: cannot import dsopforge: {exc}", file=sys.stderr)
        return 2

    jobs = WORKLOADS[args.workload](args.seed, args.size == "tiny")
    work = HERE / ".work" / args.workload
    work.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if args.trace else None
    origin = time.perf_counter()
    rounds = run_rounds(program, jobs, work, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed, cubes, digest, messages = check_rounds(jobs, rounds)
    for line in messages[:20]:
        print(f"perfbench: FAILED {line}", file=sys.stderr)
    attempted = len(rounds) * len(jobs)
    plain = [r for r in rounds if not r.traced]
    norm = normalized_times(plain)
    norm_wall_s = sum(norm)
    (HERE / ".work" / f"times-{args.workload}.json").write_text(
        json.dumps([dict(traced=r.traced, times=r.times, refs=r.refs) for r in rounds]),
        encoding="utf-8",
    )

    print(
        f"perfbench {args.workload} seed={args.seed} trace={args.trace}"
        f" rounds={len(rounds)} jobs/round={len(jobs)}"
    )
    print("  round walls " + " ".join(f"{r.wall:.3f}{'t' if r.traced else ''}" for r in rounds))
    print(f"  fail_ratio {failed / attempted:.4f} ratio ({failed}/{attempted})")
    print(f"  covers_digest sha256:{digest}")
    refs = sorted(t for r in rounds for t in r.refs)
    print(
        f"  reference loop {1e3 * statistics.median(refs):.3f} ms median,"
        f" {1e3 * refs[0]:.3f}-{1e3 * refs[-1]:.3f} ms range, {1e3 * REF_LOOP_S:.3f} ms reference"
    )
    print(
        f"  wall time: round sum of each job's fastest {sum(best_times(plain)):.4f} s,"
        f" set-up {setup_wall_s:.4f} s"
    )
    if args.trace:
        traced = [r for r in rounds if r.traced]
        # layer times are per traced round, so shares use the mean round
        traced_ms = sum(r.wall for r in traced) * 1e3
        totals = summarize(tracer.spans)
        metrics = layer_metrics(totals, len(traced))
        metrics["trace.overhead_ratio"] = sum(normalized_times(traced)) / norm_wall_s
        metrics["trace.layer_share"] = (
            sum(metrics[k] for k in LAYER[args.workload]) * len(traced) / traced_ms
        )
        tracer.write(HERE / ".work" / f"trace-{args.workload}.jsonl", origin)
        units = PER_LAYER
        print(f"  traced wall {traced_ms / 1e3 / len(traced):.4f} s per round over {len(traced)} round(s)")
        print(f"  {'span':<24}{'calls/round':>12}{'incl %':>9}{'self %':>9}")
        for name, calls, ms, self_ms in share_table(totals):
            print(
                f"  {name:<24}{calls / len(traced):>12.0f}"
                f"{100 * ms / traced_ms:>8.1f}%{100 * self_ms / traced_ms:>8.1f}%"
            )
    else:
        metrics = {
            "norm_wall_s": norm_wall_s,
            "norm_job_ms_p50": harrell_davis_median(norm) * 1e3,
            "dsop_cubes": cubes,
            "peak_rss_mb": peak_rss_mb,
            "setup_s": setup_s,
        }
        units = END_TO_END
        print(f"  jobs {len(norm)}, each timed as its median of {len(plain)} rounds")
    for name, unit in units.items():
        print(f"  {name} {metrics[name]:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
