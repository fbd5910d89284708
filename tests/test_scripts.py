"""The scripts under scripts/, run in-process."""

import importlib
from pathlib import Path

from dsopforge import Cover, Cube

SCRIPTS = Path(__file__).parent.parent / "scripts"


def test_oracle_gap_fails_when_the_heuristic_beats_the_oracle(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    oracle_gap = importlib.import_module("oracle_gap")
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
