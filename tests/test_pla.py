import pytest
from hypothesis import given, settings

from conftest import FIXTURES, covers_st
from dsopforge import (
    Cover,
    Cube,
    PlaParseError,
    cover_point_mask,
    merged_product_count,
    parse_pla,
    split_outputs,
    write_pla,
)


def c(s):
    return Cube.from_string(s)


def cov(*strings, n=None):
    return Cover.from_strings(strings, n=n)


def read_fixture(name):
    return (FIXTURES / name).read_text()


class TestParse:
    def test_overlap4_shape(self):
        pla = parse_pla(read_fixture("overlap4.pla"))
        assert pla.num_inputs == 4
        assert pla.num_outputs == 1
        assert pla.ptype == "fd"
        assert [cube.to_string() for cube, _ in pla.rows] == [
            "0-0-",
            "-1-1",
            "01--",
            "1-1-",
        ]

    def test_labels(self):
        pla = parse_pla(read_fixture("two_out.pla"))
        assert pla.input_labels == ("a", "b", "c")
        assert pla.output_labels == ("f", "g")

    def test_whitespace_comments_crlf(self):
        text = ".i 2\r\n.o 1\r\n# note\r\n\r\n0 -  1\r\n.e\r\n"
        pla = parse_pla(text)
        assert pla.rows == ((c("0-"), "1"),)

    def test_two_and_tilde_mean_dash(self):
        pla = parse_pla(".i 2\n.o 1\n02 ~\n.e\n")
        assert pla.rows == ((c("0-"), "-"),)

    def test_stops_at_end_marker(self):
        pla = parse_pla(".i 1\n.o 1\n0 1\n.e\ngarbage beyond the end\n")
        assert len(pla.rows) == 1

    @pytest.mark.parametrize(
        "text,fragment",
        [
            (".i 2\n.o 1\n.q 1\n0- 1\n.e\n", "unknown directive"),
            ("0- 1\n.e\n", "before .i/.o"),
            (".i 2\n.o 1\n0-- 1\n.e\n", "plane characters"),
            (".i 2\n.o 1\nxx 1\n.e\n", "bad input plane"),
            (".i 2\n.o 1\n0- z\n.e\n", "bad output plane"),
            (".i 2\n.o 1\n.type fr\n", "unsupported table type"),
            (".i 2\n.o 1\n.type fdr\n", "unsupported table type"),
            (".i two\n.o 1\n", "integer"),
            (".o 1\n0 1\n.e\n", "before .i/.o"),
            (".i 2\n.ilb a b c\n.o 1\n0- 1\n.e\n", ".ilb"),
            (".i 2\n.o 2\n.ob f\n0- 11\n.e\n", ".ob"),
            (".i 2\n.o 1\n11 1\n.i 3\n111 1\n.e\n", ".i after table rows"),
            (".i 2\n.o 1\n11 1\n.o 2\n11 11\n.e\n", ".o after table rows"),
            (".i 2\n.o 1\n00 1\n11 -\n.type f\n.e\n", ".type after table rows"),
        ],
    )
    def test_rejects_malformed_text(self, text, fragment):
        with pytest.raises(PlaParseError, match=fragment):
            parse_pla(text)

    @pytest.mark.parametrize(
        "row,message",
        [
            ("x- 1", "line 3: bad input plane 'x-'"),
            ("0\u0661 1", "line 3: bad input plane '0\u0661'"),
            ("\u0661\u0660 1", "line 3: bad input plane '\u0661\u0660'"),
            ("2~ 1", None),
            ("0- z", "line 3: bad output plane 'z'"),
            ("0- \u0661", "line 3: bad output plane '\u0661'"),
            # '2' and '~' become '-' before the planes are checked
            ("2x 1", "line 3: bad input plane '-x'"),
            ("01 ~", None),
            ("0 1 2", None),
            ("0- 12", "line 3: row has 4 plane characters, expected 2+1"),
            # str.split() splits at any whitespace, a no-break space too
            ("0-\u00a01", None),
        ],
    )
    def test_plane_errors_name_the_line_and_the_normalized_plane(self, row, message):
        text = f".i 2\n.o 1\n{row}\n.e\n"
        if message is None:
            assert len(parse_pla(text).rows) == 1
            return
        with pytest.raises(PlaParseError) as info:
            parse_pla(text)
        assert str(info.value) == message
        assert info.value.line == 3

    def test_missing_declarations(self):
        with pytest.raises(PlaParseError, match="missing"):
            parse_pla("# nothing here\n")

    def test_zero_inputs_rejected_at_the_directive(self):
        with pytest.raises(PlaParseError, match="at least one input") as info:
            parse_pla("# no variables\n.i 0\n.o 1\n1\n.e\n")
        assert info.value.line == 2

    @pytest.mark.parametrize(
        "text,message",
        [
            ("# labels first\n.ilb a b c\n.i 2\n.o 1\n0- 1\n",
             "line 2: .ilb lists 3 names for 2 inputs"),
            (".i 2\n.o 2\n.ob f\n0- 11\n.ob f g h\n.e\n",
             "line 5: .ob lists 3 names for 2 outputs"),
        ],
    )
    def test_label_count_mismatch_names_the_directive_line(self, text, message):
        # the count is checked once .i/.o are known, against the last
        # .ilb/.ob given, and the error names that directive's line
        with pytest.raises(PlaParseError) as info:
            parse_pla(text)
        assert str(info.value) == message

    def test_zero_outputs_rejected_at_the_directive(self):
        with pytest.raises(PlaParseError, match="at least one output") as info:
            parse_pla(".i 2\n.o 0\n11\n.e\n")
        assert info.value.line == 2

    @pytest.mark.parametrize(
        "head,directive,line",
        [(".i {}\n.o 1\n", ".i", 1), (".i 2\n.o {}\n", ".o", 2),
         (".i 2\n.o 1\n.p {}\n", ".p", 3)],
    )
    @pytest.mark.parametrize("arg", ["\u00b2", "\u0663", "\uff13"])
    def test_non_ascii_digits_rejected_at_the_directive(
        self, head, directive, line, arg
    ):
        # '²' passes str.isdigit() but not int(); the Arabic-Indic and
        # fullwidth threes pass int() but are no PLA integers either
        with pytest.raises(PlaParseError, match=f"{directive} needs one int") as info:
            parse_pla(head.format(arg) + "11 1\n.e\n")
        assert info.value.line == line

    def test_error_carries_line_number(self):
        with pytest.raises(PlaParseError) as info:
            parse_pla(".i 2\n.o 1\n.bogus\n")
        assert info.value.line == 3
        assert "line 3" in str(info.value)


class TestSplitOutputs:
    def test_two_out_fixture(self):
        specs = split_outputs(parse_pla(read_fixture("two_out.pla")))
        assert len(specs) == 2
        assert sorted(specs[0].on.to_strings()) == ["01-", "1-1"]
        assert specs[0].dc.to_strings() == ["110"]
        assert sorted(specs[1].on.to_strings()) == ["001", "1-1"]
        assert specs[1].dc.to_strings() == []

    def test_f_type_treats_dash_as_off(self):
        specs = split_outputs(parse_pla(read_fixture("ftype.pla")))
        assert sorted(specs[0].on.to_strings()) == ["0-", "11"]
        assert specs[0].dc.to_strings() == []

    def test_withdc_fixture(self):
        spec = split_outputs(parse_pla(read_fixture("withdc.pla")))[0]
        assert spec.dc.to_strings() == ["100-"]


class TestMergedCount:
    def test_shared_cube_counts_once(self):
        covers = [cov("1-1", "01-"), cov("1-1", "001")]
        assert merged_product_count(covers) == 3

    def test_empty(self):
        assert merged_product_count([Cover(3)]) == 0


class TestWrite:
    def test_merges_shared_rows(self):
        text = write_pla([cov("1-1", "01-"), cov("1-1", "001")])
        assert ".p 3\n" in text
        pla = parse_pla(text)
        assert len(pla.rows) == 3
        by_cube = {cube.to_string(): out for cube, out in pla.rows}
        assert by_cube["1-1"] == "11"

    def test_round_trip_per_output(self):
        covers = [cov("1-1", "01-"), cov("001")]
        back = split_outputs(parse_pla(write_pla(covers)))
        assert set(back[0].on.cubes) == set(covers[0].cubes)
        assert set(back[1].on.cubes) == set(covers[1].cubes)

    def test_labels_round_trip(self):
        text = write_pla(
            [cov("01")], input_labels=["a", "b"], output_labels=["f"]
        )
        pla = parse_pla(text)
        assert pla.input_labels == ("a", "b")
        assert pla.output_labels == ("f",)

    def test_f_type_annotates_header(self):
        text = write_pla([cov("01")], ptype="f")
        assert ".type f\n" in text
        assert parse_pla(text).ptype == "f"

    def test_needs_at_least_one_cover(self):
        with pytest.raises(ValueError):
            write_pla([])

    def test_width_disagreement_rejected(self):
        with pytest.raises(ValueError):
            write_pla([cov("01"), cov("011")])

    @given(covers_st(max_n=8, max_cubes=5))
    @settings(max_examples=60)
    def test_parse_of_write_preserves_cubes(self, x):
        back = split_outputs(parse_pla(write_pla([x])))[0]
        assert set(back.on.cubes) == set(x.cubes)

    @pytest.mark.parametrize(
        "name",
        ["overlap4.pla", "withdc.pla", "two_out.pla", "xor5.pla", "rd53.pla"],
    )
    def test_fixture_round_trip_keeps_point_sets(self, name):
        pla = parse_pla(read_fixture(name))
        specs = split_outputs(pla)
        text = write_pla(
            [f.on for f in specs],
            input_labels=pla.input_labels,
            output_labels=pla.output_labels,
        )
        back = split_outputs(parse_pla(text))
        for before, after in zip(specs, back):
            assert cover_point_mask(before.on) == cover_point_mask(after.on)
