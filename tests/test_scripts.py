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


def test_variant_grid_reproduces_the_readme_figures(monkeypatch, capsys):
    # the README quotes this run: the ten configurations differ by at
    # most 0.026 cubes on average, and none is ever the sole smallest
    monkeypatch.syspath_prepend(str(SCRIPTS))
    variant_grid = importlib.import_module("variant_grid")
    assert variant_grid.main(["--count", "300", "--max-n", "10"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[2:]]
    means = {label: float(mean) for label, mean, _total, _wins, _sole, _ms in rows}
    assert len(means) == 10
    lowest, highest = min(means.values()), max(means.values())
    assert (lowest, highest) == (2.557, 2.583)
    assert [k for k, v in means.items() if v == lowest] == ["v3/dw"]
    assert [k for k, v in means.items() if v == highest] == ["v2/wd", "v4/wd"]
    assert [sole for *_, sole, _ms in rows] == ["0"] * 10
