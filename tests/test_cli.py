import hashlib
import json
import random
import re
import shutil
import stat
import subprocess
import sys
import textwrap
import time
from dataclasses import fields
from pathlib import Path

import pytest

from conftest import FIXTURES
from dsopforge import (
    ContractViolation,
    Cover,
    Cube,
    DimensionMismatch,
    MinimizerBackendError,
    VerificationReport,
    cli,
    cover_point_mask,
    parse_pla,
    split_outputs,
)
from dsopforge import covers as covers_mod
from dsopforge import minimize as minimize_mod
from dsopforge import partial as partial_mod
from dsopforge import verify as verify_mod
from dsopforge.cli import RunStats, main


def script(tmp_path, body, name="fakemin.py"):
    path = tmp_path / name
    path.write_text("#!/usr/bin/env python3\n" + textwrap.dedent(body))
    path.chmod(path.stat().st_mode | stat.S_IMODE(0o755))
    return str(path)


def passthrough(tmp_path):
    return script(
        tmp_path,
        """
        import sys
        sys.stdout.write(open(sys.argv[1]).read())
        """,
    )


def wrong_universe(tmp_path, n=4):
    return script(
        tmp_path,
        f"""
        print(".i {n}")
        print(".o 1")
        print("{'-' * n} 1")
        print(".e")
        """,
    )


def solve_to_universe(monkeypatch):
    """Make the CLI's full-DSOP solver return the all-free cube, which
    covers every off-point of the input."""
    monkeypatch.setattr(
        cli, "dsop", lambda f, cfg, *, sop=None: Cover(f.n, (Cube.universe(f.n),))
    )


def wide_pla(n=40, k=8, seed=7):
    """k random cubes over n inputs, about a fifth of positions bound, so
    that they overlap; 2**40 points are far past any point enumeration."""
    rng = random.Random(seed)
    rows = ["".join(rng.choice("--------01") for _ in range(n)) for _ in range(k)]
    return f".i {n}\n.o 1\n" + "".join(f"{r} 1\n" for r in rows) + ".e\n"


class TestDsopCommand:
    def test_golden_run(self, tmp_path, capsys):
        out = tmp_path / "out.pla"
        stats = tmp_path / "stats.json"
        code = main(
            [
                "dsop",
                str(FIXTURES / "overlap4.pla"),
                "--variant",
                "1",
                "--verify",
                "-o",
                str(out),
                "--stats",
                str(stats),
            ]
        )
        assert code == 0
        result = split_outputs(parse_pla(out.read_text()))[0]
        golden = split_outputs(
            parse_pla(
                ".i 4\n.o 1\n01-- 1\n1-1- 1\n000- 1\n1101 1\n.e\n"
            )
        )[0]
        assert cover_point_mask(result.on) == cover_point_mask(golden.on)
        payload = json.loads(stats.read_text())
        assert payload["schema"] == cli.STATS_SCHEMA
        row = payload["rows"][0]
        assert row["dsop_size"] == 4
        assert row["sop_size"] == 4
        assert row["verified"] is True
        assert row["backend"] == "builtin"

    def test_stdout_output(self, capsys):
        code = main(["dsop", str(FIXTURES / "overlap4.pla")])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith(".i 4")
        assert "verified=no" in captured.err

    def test_deterministic_across_runs_and_jobs(self, tmp_path):
        # the third run passes the compatibility value --jobs 1
        outs = []
        stats = []
        for i, jobs in enumerate(([], [], ["--jobs", "1"])):
            out = tmp_path / f"out{i}.pla"
            st_path = tmp_path / f"stats{i}.json"
            assert (
                main(
                    [
                        "dsop",
                        str(FIXTURES / "two_out.pla"),
                        *jobs,
                        "-o",
                        str(out),
                        "--stats",
                        str(st_path),
                    ]
                )
                == 0
            )
            outs.append(out.read_bytes())
            payload = json.loads(st_path.read_text())
            payload["rows"][0].pop("elapsed_ms")
            stats.append(payload)
        assert outs[0] == outs[1] == outs[2]
        assert stats[0] == stats[1] == stats[2]

    def test_propagates_f_type(self, tmp_path):
        out = tmp_path / "out.pla"
        assert main(["dsop", str(FIXTURES / "ftype.pla"), "-o", str(out)]) == 0
        assert parse_pla(out.read_text()).ptype == "f"

    def test_parse_error_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.pla"
        bad.write_text(".i 2\n.o 1\n.wat\n")
        assert main(["dsop", str(bad)]) == 2
        assert "unknown directive" in capsys.readouterr().err

    def test_missing_file_exits_2(self, capsys):
        assert main(["dsop", str(FIXTURES / "nope.pla")]) == 2

    def test_non_utf8_file_exits_2_naming_it(self, tmp_path, capsys):
        bad = tmp_path / "binary.pla"
        bad.write_bytes(b".i 2\n.o 1\n1\xff 1\n")
        assert main(["dsop", str(bad)]) == 2
        err = capsys.readouterr().err
        assert f"cannot read {bad}" in err and "utf-8" in err

    def test_backend_failure_exits_3(self, capsys):
        code = main(
            [
                "dsop",
                str(FIXTURES / "overlap4.pla"),
                "--minimizer",
                "external:/no/such/tool",
            ]
        )
        assert code == 3

    def test_bad_minimizer_flag_exits_2(self, capsys):
        assert main(["dsop", str(FIXTURES / "overlap4.pla"), "--minimizer", "x"]) == 2

    def test_external_minimizer_without_a_path_exits_2(self, capsys):
        argv = ["dsop", str(FIXTURES / "overlap4.pla"), "--minimizer", "external:"]
        assert main(argv) == 2
        assert "--minimizer external: needs a path" in capsys.readouterr().err

    def test_minimizer_timeout_exits_3_and_removes_its_input(
        self, tmp_path, capsys, monkeypatch
    ):
        given = []

        def timed_out(argv, **kwargs):
            given.append(Path(argv[1]))
            raise subprocess.TimeoutExpired(argv, kwargs["timeout"])

        monkeypatch.setattr(minimize_mod.subprocess, "run", timed_out)
        tool = tmp_path / "slow"
        argv = ["dsop", str(FIXTURES / "overlap4.pla"), f"--minimizer=external:{tool}"]
        assert main(argv) == 3
        assert f"minimizer '{tool}' timed out after 300s" in capsys.readouterr().err
        assert len(given) == 1 and not given[0].exists()

    def test_help_lists_the_configuration_space(self, capsys):
        assert main(["dsop", "--help"]) == 0
        out = capsys.readouterr().out
        assert "--variant {1,2,3,4,5}" in out and "--sort {dw,wd}" in out

    def test_verification_failure_exits_4_and_writes_nothing(
        self, tmp_path, capsys, monkeypatch
    ):
        solve_to_universe(monkeypatch)
        out = tmp_path / "out.pla"
        code = main(
            [
                "dsop",
                str(FIXTURES / "overlap4.pla"),
                "--verify",
                "-o",
                str(out),
            ]
        )
        assert code == 4
        assert not out.exists()
        assert "==0" in capsys.readouterr().err

    def test_verify_failure_names_witness_minterms(self, capsys, monkeypatch):
        # the on cubes of overlap4 cover the on-set but overlap
        monkeypatch.setattr(cli, "dsop", lambda f, cfg, *, sop=None: f.on)
        code = main(["dsop", str(FIXTURES / "overlap4.pla"), "--verify", "-o", "-"])
        assert code == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = [ln for ln in captured.err.splitlines() if ln.startswith("  ")]
        assert lines
        for line in lines:
            assert re.fullmatch(
                r"  [01]{4}: expected coverage ==1, observed [2-9]", line
            ), line

    def test_verify_failure_names_only_the_failing_output(self, capsys, monkeypatch):
        real = cli.verify_dsop
        checked = []

        def second_fails(f, result):
            checked.append(f)
            if len(checked) == 2:
                return VerificationReport([("000", "==1", 0)])
            return real(f, result)

        monkeypatch.setattr(cli, "verify_dsop", second_fails)
        code = main(["dsop", str(FIXTURES / "two_out.pla"), "--verify", "-o", "-"])
        assert code == 4
        assert capsys.readouterr().err.splitlines() == [
            "dsopforge: two_out.pla output 1: 1 violation(s) found (exact check)",
            "  000: expected coverage ==1, observed 0",
        ]

    @pytest.mark.parametrize("bad", ["stats", "output"])
    def test_unwritable_path_exits_2_and_writes_nothing(self, tmp_path, capsys, bad):
        paths = {"stats": tmp_path / "s.json", "output": tmp_path / "o.pla"}
        paths[bad] = tmp_path / "no" / "such" / "dir" / paths[bad].name
        code = main(
            [
                "dsop",
                str(FIXTURES / "overlap4.pla"),
                "-o",
                str(paths["output"]),
                "--stats",
                str(paths["stats"]),
            ]
        )
        assert code == 2
        assert not any(p.exists() for p in paths.values())
        assert "No such file or directory" in capsys.readouterr().err

    def test_verify_at_40_inputs(self, tmp_path, capsys):
        src = tmp_path / "wide.pla"
        src.write_text(wide_pla())
        out = tmp_path / "out.pla"
        assert main(["dsop", str(src), "--verify", "-o", str(out)]) == 0
        assert split_outputs(parse_pla(out.read_text()))[0].n == 40

    def test_verify_failure_at_40_inputs_names_a_witness(
        self, tmp_path, capsys, monkeypatch
    ):
        solve_to_universe(monkeypatch)
        src = tmp_path / "wide.pla"
        src.write_text(wide_pla())
        out = tmp_path / "out.pla"
        code = main(
            [
                "dsop",
                str(src),
                "--verify",
                "-o",
                str(out),
            ]
        )
        assert code == 4
        assert not out.exists()
        err = capsys.readouterr().err
        assert "(exact check)" in err
        assert re.search(r"^  [01]{40}: expected coverage ==0, observed 1$", err, re.M)

    @pytest.mark.parametrize("verify", [[], ["--verify"]], ids=["plain", "verify"])
    @pytest.mark.parametrize("n", [4, 40])
    def test_wrong_backend_exits_3_and_writes_nothing(
        self, tmp_path, capsys, n, verify
    ):
        # the backend's all-free cube covers off-points: the backend is
        # at fault, so the exit is 3 whether or not the result is verified
        src = FIXTURES / "overlap4.pla"
        if n != 4:
            src = tmp_path / "wide.pla"
            src.write_text(wide_pla(n))
        out = tmp_path / "out.pla"
        code = main(
            [
                "dsop",
                str(src),
                "--minimizer",
                f"external:{wrong_universe(tmp_path, n)}",
                *verify,
                "-o",
                str(out),
            ]
        )
        assert code == 3
        assert not out.exists()
        assert f"cube {'-' * n} covers points outside on+dc" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["dsop", "pdsop"])
    def test_zero_outputs_exit_2_naming_file_and_line(self, tmp_path, capsys, command):
        bad = tmp_path / "nooutputs.pla"
        bad.write_text(".i 2\n.o 0\n11\n.e\n")
        assert main([command, str(bad)]) == 2
        err = capsys.readouterr().err
        assert "nooutputs.pla: line 2: .o needs at least one output" in err

    @pytest.mark.parametrize("command", ["dsop", "pdsop"])
    def test_non_ascii_digit_exits_2_naming_file_and_line(
        self, tmp_path, capsys, command
    ):
        bad = tmp_path / "superscript.pla"
        bad.write_text("# width\n.i \u00b2\n.o 1\n11 1\n.e\n", encoding="utf-8")
        assert main([command, str(bad)]) == 2
        err = capsys.readouterr().err
        assert "superscript.pla: line 2: .i needs one integer argument" in err

    def test_env_var_selects_backend(self, tmp_path, monkeypatch):
        tool = passthrough(tmp_path)
        monkeypatch.setenv(cli.ENV_MINIMIZER, tool)
        stats = tmp_path / "stats.json"
        out = tmp_path / "out.pla"
        assert (
            main(
                [
                    "dsop",
                    str(FIXTURES / "overlap4.pla"),
                    "-o",
                    str(out),
                    "--stats",
                    str(stats),
                ]
            )
            == 0
        )
        row = json.loads(stats.read_text())["rows"][0]
        assert row["backend"] == f"external:{tool}"

    def test_flag_overrides_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.ENV_MINIMIZER, "/no/such/tool")
        stats = tmp_path / "stats.json"
        out = tmp_path / "out.pla"
        assert (
            main(
                [
                    "dsop",
                    str(FIXTURES / "overlap4.pla"),
                    "--minimizer",
                    "builtin",
                    "-o",
                    str(out),
                    "--stats",
                    str(stats),
                ]
            )
            == 0
        )
        assert json.loads(stats.read_text())["rows"][0]["backend"] == "builtin"


class TestPdsopCommand:
    def test_two_file_golden(self, tmp_path):
        out = tmp_path / "out.pla"
        stats = tmp_path / "stats.json"
        code = main(
            [
                "pdsop",
                str(FIXTURES / "straddle_d.pla"),
                str(FIXTURES / "straddle_s.pla"),
                "--variant",
                "1",
                "--verify",
                "-o",
                str(out),
                "--stats",
                str(stats),
            ]
        )
        assert code == 0
        row = json.loads(stats.read_text())["rows"][0]
        assert row["benchmark"] == "straddle_d.pla+straddle_s.pla"
        assert row["dsop_size"] == 4
        assert row["verified"] is True

    def test_overlapping_inputs_exit_2(self, capsys):
        unique = str(FIXTURES / "straddle_d.pla")
        shared = str(FIXTURES / "overlap4.pla")
        code = main(["pdsop", unique, shared])
        assert code == 2
        assert capsys.readouterr().err == (
            f"dsopforge: {unique} output 0: row 011- overlaps {shared} row"
            " -1-1; the two files must be point-disjoint\n"
        )

    def test_overlapping_rows_of_one_file_exit_2(self, tmp_path, capsys):
        path = tmp_path / "ov.pla"
        path.write_text(".i 3\n.o 1\n.type fd\n1-- 1\n11- -\n.e\n")
        out = tmp_path / "out.pla"
        code = main(["pdsop", str(path), "-o", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"dsopforge: {path} output 0: on row 1-- overlaps don't-care"
            " row 11-; its on and don't-care rows must be point-disjoint\n"
        )
        assert not out.exists()

    def test_shape_mismatch_exits_2(self, capsys):
        code = main(
            [
                "pdsop",
                str(FIXTURES / "straddle_d.pla"),
                str(FIXTURES / "ftype.pla"),
            ]
        )
        assert code == 2
        assert "inputs" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["pdsop", "withdc.pla", "--dc-policy", "once"],
            ["dsop", "overlap4.pla", "--jobs", "2"],
        ],
        ids=["pdsop-dc-policy-once", "dsop-jobs-2"],
    )
    def test_retired_values_exit_2(self, tmp_path, capsys, argv):
        # runs are serial, and `dsop FILE` is the dc-used-once cover
        command, name, flag, value = argv
        out = tmp_path / "out.pla"
        argv = [command, str(FIXTURES / name), flag, value, "-o", str(out)]
        assert main(argv) == 2
        assert f"argument {flag}: invalid choice" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "policy, message",
        [
            pytest.param("once", "invalid choice", id="once"),
            pytest.param("many", "single-file form", id="many"),
        ],
    )
    def test_dc_policy_with_two_files_exits_2(
        self, tmp_path, capsys, policy, message
    ):
        out = tmp_path / "out.pla"
        code = main(
            [
                "pdsop",
                str(FIXTURES / "straddle_d.pla"),
                str(FIXTURES / "straddle_s.pla"),
                "--dc-policy",
                policy,
                "-o",
                str(out),
            ]
        )
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_dc_policy_defaults_to_many(self, tmp_path):
        # reusing the dc cube 1-11 lets 111- stay whole under "many"
        src = tmp_path / "reuse.pla"
        src.write_text(".i 4\n.o 1\n-0-0 1\n1-10 1\n1-11 -\n.e\n")
        outs = {}
        for policy in (None, "many"):
            out = tmp_path / f"{policy}.pla"
            flags = [] if policy is None else ["--dc-policy", policy]
            assert main(["pdsop", str(src), *flags, "-o", str(out)]) == 0
            outs[policy] = out.read_bytes()
        plain = tmp_path / "dsop.pla"
        assert main(["dsop", str(src), "-o", str(plain)]) == 0
        assert outs[None] == outs["many"]
        assert outs[None] != plain.read_bytes()

    def test_dc_policy_many_verifies(self, tmp_path):
        out = tmp_path / "out.pla"
        code = main(
            [
                "pdsop",
                str(FIXTURES / "withdc.pla"),
                "--dc-policy",
                "many",
                "--verify",
                "-o",
                str(out),
            ]
        )
        assert code == 0


def random_wide_pla(n, rows=40, seed=7, widths=(24, 48, 96, 192)):
    """One-output PLA text of `rows` random rows over n variables, each
    variable bound with chance 0.3 to a random value. One
    Random(seed) draws the tables for `widths` in order; n picks one."""
    rng = random.Random(seed)
    for width in widths:
        lines = [
            "".join(
                str(rng.randrange(2)) if rng.random() < 0.3 else "-"
                for _ in range(width)
            )
            + " 1"
            for _ in range(rows)
        ]
        if width == n:
            return f".i {n}\n.o 1\n.p {rows}\n" + "\n".join(lines) + "\n.e\n"
    raise ValueError(f"no table of width {n}")


def count_containment(monkeypatch):
    """[calls, slots handed over] of _slots_contain, the tautology check
    behind every containment probe, at each module that imports it."""
    made = [0, 0]
    real = covers_mod._slots_contain

    def counting(index, slots, mask):
        made[0] += 1
        made[1] += slots.bit_count()
        return real(index, slots, mask)

    for module in (minimize_mod, verify_mod):
        monkeypatch.setattr(module, "_slots_contain", counting)
    return made


class TestWideRandomInput:
    """The n=48 random input: a 40-cube SOP whose DSOP has 1246 cubes.
    Later passes re-minimize thousands of fragments; with the pass-1
    SOP as their care cover, each containment probe cofactors a few of
    its 40 cubes. Bounded by containment calls (_slots_contain) and
    the slots handed to them, not wall time: either command makes
    82,531 calls, which hand over 618,942 slots of the care cover, or
    3,444,313 when they cofactor the fragments instead."""

    DIGEST = "382609a4c8889ec36f9b4d61036d960b2e454dcc51e6fe905147375107dcd34d"

    @pytest.mark.parametrize("command", ["dsop", "pdsop"])
    def test_solves_with_few_tautology_calls(
        self, tmp_path, monkeypatch, capsys, command
    ):
        src = tmp_path / "rand48.pla"
        src.write_text(random_wide_pla(48))
        out = tmp_path / "out.pla"
        calls = count_containment(monkeypatch)
        assert main([command, "--verify", str(src), "-o", str(out)]) == 0
        assert "sop=40 dsop=1246" in capsys.readouterr().err
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.DIGEST
        assert calls[0] < 91_000 and calls[1] < 680_000, calls


def random_wide_dc_pla(seed=14, n=48, rows=40, dc_rows=6):
    """One-output PLA text over n variables: `rows` random on rows, each
    variable bound with chance 0.3, then `dc_rows` dc rows, bound with
    chance 0.55 and each clashing with every on row, so that the on-set
    and dc-set are point-disjoint. One Random(seed) draws both, a dc
    row being redrawn until it clashes."""
    rng = random.Random(seed)

    def row(bind):
        return "".join(
            str(rng.randrange(2)) if rng.random() < bind else "-" for _ in range(n)
        )

    on = [row(0.3) for _ in range(rows)]
    dc = []
    while len(dc) < dc_rows:
        r = row(0.55)
        if all(any("-" != a != b != "-" for a, b in zip(r, o)) for o in on):
            dc.append(r)
    lines = [r + " 1" for r in on] + [r + " -" for r in dc]
    return f".i {n}\n.o 1\n.p {len(lines)}\n" + "\n".join(lines) + "\n.e\n"


class TestWideOneFileInput:
    """One-file pdsop on an n=48 random input with dc rows, which become
    the shared region: later passes re-minimize against the pass-1 SOP
    plus the dc rows, refuting with the committed cubes' pieces outside
    them. Bounded by containment calls (_slots_contain) and the slots
    handed to them, not wall time: the run makes 36,113 calls handed
    185,122 slots. Refuting only with committed cubes that miss each
    pass's on+dc hands the same calls 1,111,454 slots, and an
    irredundant probing every on cube meeting a candidate, rather than
    deciding most candidates by one probe against the rest plus the dc
    cubes, makes 122,867 calls handed 3,689,381. Its irredundant
    probes: 4,893, where probing every on cube meeting a candidate
    makes 86,754."""

    DIGEST = "62700989af3365e5e2457f5cf35a1d1c8512c64536bc1221a4ae1849019f13a5"

    def test_solves_with_few_tautology_calls(self, tmp_path, monkeypatch, capsys):
        src = tmp_path / "rand48dc.pla"
        src.write_text(random_wide_dc_pla())
        out = tmp_path / "out.pla"
        calls = count_containment(monkeypatch)
        real_irredundant = minimize_mod.irredundant
        real_probe = minimize_mod._slots_contain
        probes = [0]
        trimming = [False]

        def irredundant(*args, **kwargs):
            trimming[0] = True
            try:
                return real_irredundant(*args, **kwargs)
            finally:
                trimming[0] = False

        def probe(index, slots, mask):
            probes[0] += trimming[0]
            return real_probe(index, slots, mask)

        monkeypatch.setattr(minimize_mod, "irredundant", irredundant)
        monkeypatch.setattr(minimize_mod, "_slots_contain", probe)
        assert main(["pdsop", "--verify", str(src), "-o", str(out)]) == 0
        assert "sop=40 dsop=598" in capsys.readouterr().err
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.DIGEST
        assert calls[0] < 40_000 and calls[1] < 204_000, calls
        assert probes[0] < 10_000, probes


class TestWideDcTail:
    """One-file pdsop on random_wide_dc_pla(2), a slow seed of the wide
    dc generator: later passes normalize tens of thousands of
    expansions of B fragments, each overlapping hundreds of others.
    Bounded by operation counts, not wall time: a normalize that walks
    each cube's overlapping slots for a container yields 6,714,435
    slots through covers.slots_of, one that ANDs each cube's literal
    bitsets for the cubes it contains yields none. The run makes
    252,237 containment calls (_slots_contain) handed 2,426,950 slots;
    an irredundant probing every on cube meeting a candidate makes
    1,803,128 handed 111,419,978."""

    DIGEST = "d546186444459bc2cfd756087e6d1d55131e05f6d5b9d9ce8db44fd88c993966"

    def test_normalize_walks_no_slots(self, tmp_path, monkeypatch, capsys):
        src = tmp_path / "rand48dc2.pla"
        src.write_text(random_wide_dc_pla(2))
        out = tmp_path / "out.pla"
        real_slots = covers_mod.slots_of
        walked = [0]
        calls = count_containment(monkeypatch)

        def walking(x):
            for s in real_slots(x):
                walked[0] += 1
                yield s

        monkeypatch.setattr(covers_mod, "slots_of", walking)
        assert main(["pdsop", "--verify", str(src), "-o", str(out)]) == 0
        assert "sop=40 dsop=2415" in capsys.readouterr().err
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.DIGEST
        assert walked[0] < 1_000, walked
        assert calls[0] < 278_000 and calls[1] < 2_670_000, calls


class TestBenchCommand:
    def _bench_dir(self, tmp_path, names):
        d = tmp_path / "suite"
        d.mkdir()
        for name in names:
            shutil.copy(FIXTURES / name, d / name)
        return d

    def test_grid_csv_and_json(self, tmp_path, capsys):
        d = self._bench_dir(tmp_path, ["overlap4.pla", "chain2.pla"])
        csv_path = tmp_path / "rows.csv"
        json_path = tmp_path / "rows.json"
        code = main(
            [
                "bench",
                str(d),
                "--variants",
                "1,3",
                "--sorts",
                "dw,wd",
                "--csv",
                str(csv_path),
                "--json",
                str(json_path),
            ]
        )
        assert code == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == ",".join(f.name for f in fields(RunStats))
        assert len(lines) == 1 + 2 * 2 * 2
        rows = json.loads(json_path.read_text())["rows"]
        assert all(r["verified"] for r in rows)
        table = capsys.readouterr().out
        assert "chain2.pla" in table and "3/wd" in table

    def test_row_order_is_file_variant_sort(self, tmp_path):
        d = self._bench_dir(tmp_path, ["overlap4.pla", "chain2.pla"])
        json_path = tmp_path / "rows.json"
        assert (
            main(
                [
                    "bench",
                    str(d),
                    "--variants",
                    "3,1",
                    "--sorts",
                    "dw",
                    "--json",
                    str(json_path),
                ]
            )
            == 0
        )
        rows = json.loads(json_path.read_text())["rows"]
        key = [(r["benchmark"], r["variant"]) for r in rows]
        assert key == [
            ("chain2.pla", 3),
            ("chain2.pla", 1),
            ("overlap4.pla", 3),
            ("overlap4.pla", 1),
        ]

    def test_bad_file_recorded_run_continues(self, tmp_path, capsys):
        d = self._bench_dir(tmp_path, ["overlap4.pla"])
        (d / "broken.pla").write_text(".i 2\n.o 1\n.wat\n")
        csv_path = tmp_path / "rows.csv"
        code = main(
            [
                "bench",
                str(d),
                "--variants",
                "1,3",
                "--sorts",
                "dw,wd",
                "--csv",
                str(csv_path),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        # the file is read once, and fails every configuration
        failed = [line.split(":")[1] for line in err.splitlines()]
        assert failed == [
            " FAILED broken.pla variant=1 sort=dw",
            " FAILED broken.pla variant=1 sort=wd",
            " FAILED broken.pla variant=3 sort=dw",
            " FAILED broken.pla variant=3 sort=wd",
        ]
        body = csv_path.read_text()
        assert "overlap4.pla" in body, "good files still produce rows"

    def test_zero_input_file_recorded_run_continues(self, tmp_path, capsys):
        d = self._bench_dir(tmp_path, ["overlap4.pla", "chain2.pla"])
        (d / "noinputs.pla").write_text(".i 0\n.o 1\n1\n.e\n")
        code = main(["bench", str(d), "--variants", "1", "--sorts", "dw"])
        assert code == 2
        captured = capsys.readouterr()
        assert "FAILED noinputs.pla" in captured.err
        assert "line 1" in captured.err
        assert "chain2.pla" in captured.out and "overlap4.pla" in captured.out

    def test_zero_output_file_recorded_run_continues(self, tmp_path, capsys):
        d = self._bench_dir(tmp_path, ["overlap4.pla", "chain2.pla"])
        (d / "nooutputs.pla").write_text(".i 2\n.o 0\n11\n.e\n")
        code = main(["bench", str(d), "--variants", "1", "--sorts", "dw"])
        assert code == 2
        captured = capsys.readouterr()
        assert "FAILED nooutputs.pla" in captured.err
        assert "line 2" in captured.err
        assert "chain2.pla" in captured.out and "overlap4.pla" in captured.out
        assert "nooutputs.pla" not in captured.out

    def test_non_utf8_file_recorded_run_continues(self, tmp_path, capsys):
        d = self._bench_dir(tmp_path, ["overlap4.pla", "chain2.pla"])
        (d / "binary.pla").write_bytes(b".i 2\n.o 1\n1\xff 1\n")
        code = main(["bench", str(d), "--variants", "1", "--sorts", "dw"])
        assert code == 2
        captured = capsys.readouterr()
        assert "FAILED binary.pla variant=1 sort=dw: cannot read" in captured.err
        assert "chain2.pla" in captured.out and "overlap4.pla" in captured.out

    def test_non_ascii_digit_file_recorded_run_continues(self, tmp_path, capsys):
        d = self._bench_dir(tmp_path, ["overlap4.pla", "chain2.pla"])
        bad = d / "superscript.pla"
        bad.write_text(".i \u00b2\n.o 1\n11 1\n.e\n", encoding="utf-8")
        code = main(["bench", str(d), "--variants", "1,3", "--sorts", "dw"])
        assert code == 2
        captured = capsys.readouterr()
        failed = [line for line in captured.err.splitlines() if "FAILED" in line]
        assert len(failed) == 2
        assert all("superscript.pla: line 1: .i needs one integer" in f for f in failed)
        assert "chain2.pla" in captured.out and "overlap4.pla" in captured.out

    def test_empty_directory_exits_2(self, tmp_path):
        d = tmp_path / "empty"
        d.mkdir()
        assert main(["bench", str(d)]) == 2

    def test_each_file_is_parsed_once(self, monkeypatch, capsys):
        calls = {"parse_pla": 0, "build_sop": 0}

        def counted(name):
            real = getattr(cli, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(cli, name, wrapper)

        counted("parse_pla")
        counted("build_sop")
        assert main(["bench", str(FIXTURES)]) == 0
        files = sorted(FIXTURES.glob("*.pla"))
        outputs = sum(parse_pla(f.read_text()).num_outputs for f in files)
        # one parse per file; one pass-1 SOP per output, which the
        # file's 10 configurations share
        assert calls == {"parse_pla": len(files), "build_sop": outputs}

    def test_pass_one_sops_are_built_once_and_timed_in_every_row(
        self, tmp_path, monkeypatch
    ):
        # two_out.pla has two outputs; cli.build_sop is only the pass-1
        # call, later passes resolve build_sop in the selection loop
        d = self._bench_dir(tmp_path, ["two_out.pla"])
        built = []
        real = cli.build_sop

        def slow(*args, **kwargs):
            built.append(args[0])
            time.sleep(0.02)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "build_sop", slow)
        out = tmp_path / "rows.json"
        assert main(["bench", str(d), "--json", str(out)]) == 0
        assert len(built) == 2
        rows = json.loads(out.read_text())["rows"]
        assert len(rows) == 10
        assert all(row["elapsed_ms"] >= 40 for row in rows)

    def _failed(self, err):
        return [line for line in err.splitlines() if "FAILED" in line]

    def test_pass_one_backend_failure_fails_the_file_with_3(self, tmp_path, capsys):
        d = self._bench_dir(tmp_path, ["overlap4.pla", "chain2.pla"])
        # refuses chain2's table, passes every other one through
        tool = script(
            tmp_path,
            """
            import sys
            text = open(sys.argv[1]).read()
            if "11-- 1" in text:
                sys.exit(1)
            sys.stdout.write(text)
            """,
        )
        argv = ["bench", str(d), "--variants", "1,3", "--sorts", "dw"]
        code = main(argv + ["--minimizer", f"external:{tool}"])
        assert code == 3
        captured = capsys.readouterr()
        failed = self._failed(captured.err)
        assert [line.split(":")[1] for line in failed] == [
            " FAILED chain2.pla variant=1 sort=dw",
            " FAILED chain2.pla variant=3 sort=dw",
        ]
        assert all("exited with 1" in line for line in failed)
        assert "overlap4.pla" in captured.out and "chain2.pla" not in captured.out

    def test_later_pass_backend_failure_fails_only_that_configuration(
        self, tmp_path, monkeypatch, capsys
    ):
        d = self._bench_dir(tmp_path, ["overlap4.pla", "chain2.pla"])
        real = partial_mod.build_sop
        calls = []

        def fail_first(*args, **kwargs):
            # the first later-pass SOP is chain2's, under variant 1
            calls.append(args)
            if len(calls) == 1:
                raise MinimizerBackendError("second pass refused")
            return real(*args, **kwargs)

        monkeypatch.setattr(partial_mod, "build_sop", fail_first)
        out = tmp_path / "rows.json"
        argv = ["bench", str(d), "--variants", "1,3", "--sorts", "dw"]
        assert main(argv + ["--json", str(out)]) == 3
        assert self._failed(capsys.readouterr().err) == [
            "dsopforge: FAILED chain2.pla variant=1 sort=dw: second pass refused"
        ]
        rows = json.loads(out.read_text())["rows"]
        assert [(r["benchmark"], r["variant"]) for r in rows] == [
            ("chain2.pla", 3),
            ("overlap4.pla", 1),
            ("overlap4.pla", 3),
        ]
        assert all(r["verified"] for r in rows)

    def test_failed_verification_records_4(self, tmp_path, monkeypatch, capsys):
        d = self._bench_dir(tmp_path, ["overlap4.pla"])
        monkeypatch.setattr(
            cli,
            "verify_dsop",
            lambda f, result: VerificationReport([("0000", "==1", 0)]),
        )
        out = tmp_path / "rows.json"
        argv = ["bench", str(d), "--variants", "1", "--sorts", "dw,wd"]
        assert main(argv + ["--json", str(out)]) == 4
        assert self._failed(capsys.readouterr().err) == [
            f"dsopforge: FAILED overlap4.pla variant=1 sort={sort}: verification failed"
            for sort in ("dw", "wd")
        ]
        rows = json.loads(out.read_text())["rows"]
        assert [r["verified"] for r in rows] == [False, False]

    @pytest.mark.parametrize("broken, code", [("a.pla", 2), ("z.pla", 3)])
    def test_exit_code_is_the_first_failures(
        self, tmp_path, monkeypatch, capsys, broken, code
    ):
        # files run in name order: a.pla fails (2) before chain2.pla (3),
        # z.pla after it
        d = self._bench_dir(tmp_path, ["chain2.pla"])
        (d / broken).write_text(".i 2\n.o 1\n.wat\n")

        def refuse(*args, **kwargs):
            raise MinimizerBackendError("second pass refused")

        monkeypatch.setattr(partial_mod, "build_sop", refuse)
        assert main(["bench", str(d), "--variants", "1", "--sorts", "dw"]) == code
        assert len(self._failed(capsys.readouterr().err)) == 2

    def test_internal_error_records_5_and_the_run_continues(
        self, tmp_path, monkeypatch, capsys
    ):
        d = self._bench_dir(tmp_path, ["overlap4.pla", "chain2.pla"])
        real = cli.dsop

        def broken(f, cfg, *, sop=None):
            if cfg.variant == 1:
                raise KeyError("lost slot")
            return real(f, cfg, sop=sop)

        monkeypatch.setattr(cli, "dsop", broken)
        assert main(["bench", str(d), "--variants", "1,3", "--sorts", "dw"]) == 5
        captured = capsys.readouterr()
        failed = self._failed(captured.err)
        assert len(failed) == 2
        assert all("internal error: KeyError" in line for line in failed)
        assert "chain2.pla" in captured.out and "overlap4.pla" in captured.out

    def test_bad_variant_list_exits_2(self, tmp_path):
        d = self._bench_dir(tmp_path, ["overlap4.pla"])
        assert main(["bench", str(d), "--variants", "7"]) == 2

    @pytest.mark.parametrize("flag", ["--variants", "--sorts"])
    def test_a_list_of_empty_entries_selects_nothing(self, tmp_path, capsys, flag):
        d = self._bench_dir(tmp_path, ["overlap4.pla"])
        assert main(["bench", str(d), flag, ", ,"]) == 2
        assert f"dsopforge: {flag} selected nothing" in capsys.readouterr().err

    def test_empty_entries_are_skipped(self, tmp_path, capsys):
        d = self._bench_dir(tmp_path, ["overlap4.pla"])
        json_path = tmp_path / "rows.json"
        argv = ["bench", str(d), "--variants", "1,,3", "--sorts", "wd,", "--json"]
        assert main(argv + [str(json_path)]) == 0
        rows = json.loads(json_path.read_text())["rows"]
        assert [(r["variant"], r["sort"]) for r in rows] == [(1, "wd"), (3, "wd")]

    @pytest.mark.parametrize("entry", ["\u00b2", "\u0663", "\uff13", "+3"])
    def test_variant_entry_must_be_an_ascii_digit(self, tmp_path, capsys, entry):
        d = self._bench_dir(tmp_path, ["overlap4.pla"])
        assert main(["bench", str(d), "--variants", f"1,{entry}"]) == 2
        err = capsys.readouterr().err
        assert f"--variants got unusable entry {entry!r}" in err


class TestInternalErrors:
    """Faults inside dsopforge exit 5, never 2 (which blames the input)."""

    def _run(self, capsys):
        code = main(["dsop", str(FIXTURES / "overlap4.pla")])
        assert "internal error" in capsys.readouterr().err
        return code

    def test_contract_violation_exits_5(self, monkeypatch, capsys):
        def broken(f, cfg, *, sop=None):
            raise ContractViolation("broken precondition")

        monkeypatch.setattr(cli, "dsop", broken)
        assert self._run(capsys) == 5

    def test_dimension_mismatch_exits_5(self, monkeypatch, capsys):
        def broken(f, backend=None):
            raise DimensionMismatch("cube widths differ")

        monkeypatch.setattr(cli, "build_sop", broken)
        assert self._run(capsys) == 5

    def test_progress_error_exits_5(self, monkeypatch, capsys):
        monkeypatch.setattr(partial_mod, "_MAX_PASSES", 0)
        assert self._run(capsys) == 5

    def test_unlisted_exception_exits_5_naming_its_type(self, monkeypatch, capsys):
        def broken(f, cfg, *, sop=None):
            raise TypeError("bad operand")

        monkeypatch.setattr(cli, "dsop", broken)
        code = main(["dsop", str(FIXTURES / "overlap4.pla")])
        err = capsys.readouterr().err
        assert code == 5
        assert "dsopforge: internal error: TypeError: bad operand" in err

    def test_library_value_error_exits_5_not_2(self, monkeypatch, capsys):
        # a ValueError from inside dsopforge is a bug, not a bad input
        def broken(*args, **kwargs):
            raise ValueError("output covers disagree on input width")

        monkeypatch.setattr(cli, "write_pla", broken)
        assert self._run(capsys) == 5


class TestEntryPoint:
    @pytest.mark.parametrize(
        "argv, code",
        [
            (["dsop", "overlap4.pla", "--variant", "7"], 2),
            ([], 2),
            (["--help"], 0),
            (["dsop", "--help"], 0),
        ],
    )
    def test_main_returns_argparse_codes(self, capsys, argv, code):
        assert main(argv) == code

    def test_run_raises_system_exit(self, monkeypatch, capsys):
        monkeypatch.setattr(
            sys, "argv", ["dsopforge", "dsop", str(FIXTURES / "overlap4.pla")]
        )
        with pytest.raises(SystemExit) as info:
            cli.run()
        assert info.value.code == 0
