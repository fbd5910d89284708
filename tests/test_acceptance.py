"""Release gate: eight checks that pin the library's externally promised
behavior, from golden examples through randomized soundness sweeps to the
exact-oracle floor. Each test prints one PASS line with its evidence."""

import csv
import random
import shutil
import time

import pytest

from conftest import ALL_CONFIGS, FIXTURES, rand_partial_spec, rand_spec
from dsopforge import (
    Cover,
    Cube,
    DsopConfig,
    FunctionSpec,
    MinimizerBackend,
    PartialSpec,
    SORT_DIMENSION_WEIGHT,
    chain_family,
    cli,
    cover_point_mask,
    disjoint_sharp,
    dsop,
    exact_min_dsop,
    exact_min_partial_dsop,
    intersect,
    merged_product_count,
    parse_pla,
    partial_dsop,
    split_outputs,
    verify_dsop,
    verify_partial_dsop,
    weight_all,
)
from dsopforge.exact import point_mask


def c(s):
    return Cube.from_string(s)


def cov(*strings, n=None):
    return Cover.from_strings(strings, n=n)


DEMO = cov("0-0-", "-1-1", "01--", "1-1-")
DEMO_F = FunctionSpec(4, DEMO)
DEMO_GOLDEN = cov("01--", "1-1-", "000-", "1101")

E2 = PartialSpec(
    unique=FunctionSpec(4, cov("011-", "1101")),
    shared=FunctionSpec(4, cov("0-0-", "1-1-")),
)
E2_GOLDEN = cov("01--", "1-1-", "0-0-", "11-1")

FD_FIXTURES = [
    "overlap4.pla",
    "straddle_d.pla",
    "straddle_s.pla",
    "chain2.pla",
    "chain3.pla",
    "withdc.pla",
    "two_out.pla",
    "xor5.pla",
    "rd53.pla",
]


def test_criterion_1_golden_weights():
    want = {"0-0-": 1, "-1-1": 2, "01--": 0, "1-1-": 1}
    weight_all(DEMO)  # warm up before timing
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        weight_all(DEMO)
        best = min(best, time.perf_counter() - t0)
    got = {w.cube.to_string(): w.weight for w in weight_all(DEMO)}
    assert got == want
    assert best < 0.001
    print(f"PASS criterion 1: golden weights {got} in {best * 1e6:.0f}us")


def test_criterion_2_golden_dsop():
    out = dsop(DEMO_F, DsopConfig(variant=1, sort=SORT_DIMENSION_WEIGHT))
    assert len(out.cubes) == 4
    assert cover_point_mask(out) == cover_point_mask(DEMO_GOLDEN)
    assert verify_dsop(DEMO_F, out).ok
    print(
        "PASS criterion 2: golden disjoint cover"
        f" {sorted(out.to_strings())}, verified"
    )


def test_criterion_3_golden_partial():
    out = partial_dsop(E2, DsopConfig(variant=1, sort=SORT_DIMENSION_WEIGHT))
    assert len(out.cubes) == 4
    assert cover_point_mask(out) == cover_point_mask(E2_GOLDEN)
    assert verify_partial_dsop(E2, out).ok
    print(
        "PASS criterion 3: golden partial cover"
        f" {sorted(out.to_strings())}, verified"
    )


def test_criterion_4_sharp_identities():
    started = time.perf_counter()
    golden = disjoint_sharp(c("0-0-"), c("-1-1"))
    assert {x.to_string() for x in golden} == {"000-", "0100"}

    # Fragment count must equal the literals the intersection adds to q,
    # and the fragments must partition q minus p exactly.
    rng = random.Random(412)
    compat = {"0": "0-", "1": "1-", "-": "-01"}
    for _ in range(10_000):
        n = rng.randint(1, 12)
        p = c("".join(rng.choice("-01") for _ in range(n)))
        q = c("".join(rng.choice(compat[ch]) for ch in p.to_string()))
        x = intersect(q, p)
        frags = disjoint_sharp(q, p)
        assert len(frags) == x.literal_count - q.literal_count
        got = cover_point_mask(Cover(n, tuple(frags)))
        assert got == point_mask(q) & ~point_mask(p)
        for a in range(len(frags)):
            for b in range(a + 1, len(frags)):
                assert intersect(frags[a], frags[b]) is None
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    print(
        "PASS criterion 4: sharp identity + 10000 fragment-count checks"
        f" in {elapsed:.2f}s"
    )


def test_criterion_5_soundness_sweep():
    started = time.perf_counter()
    rng = random.Random(1105)
    specs = [rand_spec(rng, rng.randint(1, 8)) for _ in range(1000)]
    for f in specs:
        for cfg in ALL_CONFIGS:
            assert verify_dsop(f, dsop(f, cfg)).ok

    rng = random.Random(2105)
    pspecs = [rand_partial_spec(rng, rng.randint(1, 8)) for _ in range(1000)]
    for s in pspecs:
        for cfg in ALL_CONFIGS:
            assert verify_partial_dsop(s, partial_dsop(s, cfg)).ok
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    print(
        "PASS criterion 5: 1000 specs x 10 configs verified for both modes"
        f" in {elapsed:.1f}s"
    )


def test_criterion_6_oracle_floor():
    rng = random.Random(4106)
    gaps = []
    singles = disjoints = 0
    for _ in range(200):
        n = rng.randint(1, 4)
        f = rand_spec(rng, n)
        exact = len(exact_min_dsop(f, max_n=5).cubes)
        cubes = f.on.cubes
        single = len(cubes) == 1
        disjoint = all(
            intersect(cubes[a], cubes[b]) is None
            for a in range(len(cubes))
            for b in range(a + 1, len(cubes))
        )
        singles += single
        disjoints += disjoint and not single
        for cfg in ALL_CONFIGS:
            h = len(dsop(f, cfg).cubes)
            assert h >= exact, (f.on.to_strings(), f.dc.to_strings(), cfg)
            if single or disjoint:
                assert h == exact, (f.on.to_strings(), f.dc.to_strings(), cfg)
            gaps.append(h - exact)
    print(
        "PASS criterion 6: heuristic >= exact on 200 functions x 10 configs;"
        f" gap mean {sum(gaps) / len(gaps):.4f} max {max(gaps)}"
        f" ({singles} single-cube, {disjoints} already-disjoint inputs exact)"
    )


def test_criterion_6_partial_oracle_floor():
    rng = random.Random(4206)
    gaps = []
    for _ in range(200):
        spec = rand_partial_spec(rng, rng.randint(1, 4))
        exact = exact_min_partial_dsop(spec, max_n=4)
        assert verify_partial_dsop(spec, exact).ok
        for cfg in ALL_CONFIGS:
            h = len(partial_dsop(spec, cfg).cubes)
            assert h >= len(exact), (spec, cfg)
            gaps.append(h - len(exact))
    print(
        "PASS criterion 6 (partial): heuristic >= exact on 200 specs x 10"
        f" configs; gap mean {sum(gaps) / len(gaps):.4f} max {max(gaps)}"
    )


def test_criterion_7_blowup_family():
    sizes = {}
    for m in (2, 3):
        f = chain_family(m)
        exact = len(exact_min_dsop(f, max_n=2 * m).cubes)
        assert exact == 2**m - 1
        for cfg in ALL_CONFIGS:
            assert len(dsop(f, cfg).cubes) == exact
        sizes[m] = exact
    print(
        "PASS criterion 7: chain family minimum sizes"
        f" {sizes} match 2^m - 1 and every config attains them"
    )


def test_criterion_8_benchmark_sweep(tmp_path, capsys):
    suite = tmp_path / "suite"
    suite.mkdir()
    for name in FD_FIXTURES:
        shutil.copy(FIXTURES / name, suite / name)
    csv_path = tmp_path / "rows.csv"
    code = cli.main(["bench", str(suite), "--csv", str(csv_path)])
    capsys.readouterr()
    assert code == 0
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(FD_FIXTURES) * 5 * 2
    assert all(row["verified"] == "True" for row in rows)

    # Per-output floor: no configuration may beat the exact minimum.
    floors = 0
    for name in FD_FIXTURES:
        pla = parse_pla((FIXTURES / name).read_text())
        for f in split_outputs(pla):
            exact = len(exact_min_dsop(f, max_n=6).cubes)
            for cfg in ALL_CONFIGS:
                assert len(dsop(f, cfg).cubes) >= exact, (name, cfg)
                floors += 1
    print(
        f"PASS criterion 8: bench grid {len(rows)} rows 100% verified;"
        f" {floors} per-output floor checks hold"
    )


def _parity_family_pla(n, outputs):
    """All-minterm PLA whose outputs are the bits of the input weight."""
    lines = [f".i {n}", f".o {outputs}", ".type fd"]
    for v in range(1, 2**n):
        bits = format(v, f"0{n}b")[::-1]
        weight = bits.count("1")
        out = format(weight, f"0{outputs}b")[::-1]
        lines.append(f"{bits} {out}")
    lines.append(".e")
    return "\n".join(lines) + "\n"


@pytest.mark.skipif(
    shutil.which("espresso") is None, reason="external espresso not installed"
)
def test_criterion_8_external_minimizer_sizes(tmp_path):
    backend = MinimizerBackend.external(shutil.which("espresso"))
    cfg = DsopConfig(variant=3, sort=SORT_DIMENSION_WEIGHT, backend=backend)
    cases = {
        "xor5": ((FIXTURES / "xor5.pla").read_text(), 16),
        "rd53": ((FIXTURES / "rd53.pla").read_text(), 31),
        "rd73": (_parity_family_pla(7, 3), 127),
        "rd84": (_parity_family_pla(8, 4), 255),
    }
    for name, (text, want) in cases.items():
        specs = split_outputs(parse_pla(text))
        covers = [dsop(f, cfg) for f in specs]
        assert merged_product_count(covers) == want, name
        for f, out in zip(specs, covers):
            assert verify_dsop(f, out).ok
    print("PASS criterion 8 (external): published sizes reproduced")
