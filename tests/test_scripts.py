"""The scripts under scripts/, run in-process."""

import importlib
import shutil
from pathlib import Path

import pytest

from dsopforge import Cover, Cube, chain_family, cli, parse_pla, split_outputs

SCRIPTS = Path(__file__).parent.parent / "scripts"


def _script(monkeypatch, name):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    return importlib.import_module(name)


def test_oracle_gap_fails_when_the_heuristic_beats_the_oracle(monkeypatch, capsys):
    oracle_gap = _script(monkeypatch, "oracle_gap")
    # an "exact" minimum larger than any heuristic cover; the check
    # must hold without asserts, which python -O strips
    monkeypatch.setattr(
        oracle_gap,
        "exact_min_dsop",
        lambda f, max_n: Cover(f.n, (Cube.universe(f.n),) * 100),
    )
    assert oracle_gap.main(["--count", "3"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("heuristic (")
    assert "beat the exact oracle (100): on=[" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--max-n", "1"], "--max-n must be at least 2"),
        (["--count", "-1"], "--count must be at least 1"),
        (["--count", "0"], "--count must be at least 1"),
        (["--show", "-1"], "--show must not be negative"),
    ],
)
def test_oracle_gap_refuses_bad_arguments(monkeypatch, capsys, argv, message):
    oracle_gap = _script(monkeypatch, "oracle_gap")
    with pytest.raises(SystemExit) as exc:
        oracle_gap.main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.rstrip().endswith(message)


def _ladder(monkeypatch, directory):
    assert _script(monkeypatch, "ladder").main([str(directory)]) == 0
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_ladder_is_byte_identical_across_runs(monkeypatch, tmp_path):
    first = _ladder(monkeypatch, tmp_path / "a")
    assert len(first) == 19
    assert _ladder(monkeypatch, tmp_path / "b") == first


def test_ladder_chain_rungs_are_the_chain_family(monkeypatch, tmp_path):
    _ladder(monkeypatch, tmp_path)
    for m in range(3, 7):
        pla = parse_pla((tmp_path / f"chain{m}.pla").read_text(encoding="utf-8"))
        [f] = split_outputs(pla)
        assert f.on == chain_family(m).on
        assert not f.dc


# the rungs with at most 10 inputs, as `dsopforge bench` prints them;
# a change here is a change in some cover's size
SMALL_PIVOT = """\
benchmark       in  out  sop  1/dw  1/wd  2/dw  2/wd  3/dw  3/wd  4/dw  4/wd  5/dw  5/wd
chain3.pla      6   1    3    7     7     7     7     7     7     7     7     7     7
chain4.pla      8   1    4    15    15    15    15    15    15    15    15    15    15
chain5.pla      10  1    5    31    31    31    31    31    31    31    31    31    31
dense10_30.pla  10  1    21   34    52    35    55    38    53    38    39    40    47
dense10_45.pla  10  1    31   60    70    64    64    63    72    69    76    60    78
dense10_60.pla  10  1    44   78    101   78    94    72    112   81    101   89    104
rd53.pla        5   3    35   31    31    31    31    31    31    31    31    31    31
rd73.pla        7   3    147  127   127   127   127   127   127   127   127   127   127
rd84.pla        8   4    294  256   256   256   256   256   256   256   256   256   256
"""


def test_bench_verifies_the_small_ladder_rungs(monkeypatch, capsys, tmp_path):
    monkeypatch.delenv("DSOPFORGE_MINIMIZER", raising=False)
    _ladder(monkeypatch, tmp_path / "all")
    small = tmp_path / "small"
    small.mkdir()
    for path in (tmp_path / "all").iterdir():
        if parse_pla(path.read_text(encoding="utf-8")).num_inputs <= 10:
            shutil.copy(path, small)
    assert cli.main(["bench", str(small)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out == SMALL_PIVOT
