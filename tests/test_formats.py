"""Round-trip and golden-file tests for the text and JSON serializations.

Golden files under tests/golden/ pin the exact bytes the renderer produces;
any change to the format is a deliberate, visible diff there.
"""

import json
from pathlib import Path

import pytest

import pdakit as pk
from pdakit import PdaFormatError, PdaGrid

STAR = None
GOLDEN = Path(__file__).parent / "golden"


def grid(rows, s):
    return PdaGrid.from_rows(rows, s)


MN_4_2_TEXT = (
    "#PDA v1\n"
    "K=6 F=4 Z=2 S=4\n"
    "* * 0 * 1 2\n"
    "* 0 * 1 * 3\n"
    "0 * * 2 3 *\n"
    "1 2 3 * * *\n"
)


class TestRender:
    def test_reference_grid_bytes(self):
        assert pk.render(pk.mn_pda(4, 2)) == MN_4_2_TEXT

    def test_golden_files(self):
        cases = {
            "mn_4_2": pk.mn_pda(4, 2),
            "f2_5": pk.f2_base(5),
            "opt2_7_10": pk.optimal_fz2(7, 10),
            "opt2_3_4": pk.optimal_fz2(3, 4),
            "opt2_5_7": pk.optimal_fz2(5, 7),
            "opt2_4_8": pk.optimal_fz2(4, 8),
            "dual_mn_4_2": pk.symbol_dual(pk.mn_pda(4, 2)),
        }
        for name, g in cases.items():
            golden = (GOLDEN / f"{name}.pda").read_text()
            assert pk.render(g) == golden, name
            assert pk.parse(golden).cells == g.cells, name

    def test_irregular_grid_renders_dash(self):
        g = grid([[STAR, 0], [STAR, 1]], s=2)
        text = pk.render(g)
        assert "Z=-" in text.splitlines()[1]

    def test_no_columns(self):
        g = PdaGrid(f=3, k=0, s=0, cells=())
        text = pk.render(g)
        assert text.splitlines()[1] == "K=0 F=3 Z=0 S=0"


class TestParse:
    def test_round_trip_over_corpus(self, corpus):
        for name, g in corpus[::11]:
            assert pk.parse(pk.render(g)) == g, name

    def test_whitespace_tolerance(self):
        text = "  #PDA v1  \nK=2 F=2 Z=1 S=1\n  * 0  \n0    *\n\n\n"
        assert pk.parse(text) == grid([[STAR, 0], [0, STAR]], s=1)

    def test_missing_trailing_newline(self):
        text = MN_4_2_TEXT.rstrip("\n")
        assert pk.parse(text).cells == pk.mn_pda(4, 2).cells

    def test_k_zero_with_or_without_blank_rows(self):
        head = "#PDA v1\nK=0 F=3 Z=- S=0\n"
        for text in (head, head + "\n\n\n"):
            g = pk.parse(text)
            assert (g.f, g.k, g.s) == (3, 0, 0)

    def test_error_cases(self):
        good = MN_4_2_TEXT
        cases = [
            ("#PDB v1\n" + good.split("\n", 1)[1], "first line"),
            ("#PDA v1\n", "missing shape line"),
            ("#PDA v1\nK=6 F=4\n", "bad shape line"),
            ("#PDA v1\nK=2 F=2 Z=1 S=1\n* 0\n", "expected 2 row lines"),
            ("#PDA v1\nK=2 F=2 Z=1 S=1\n* 0\n0 * *\n", "expected 2 tokens"),
            ("#PDA v1\nK=2 F=2 Z=1 S=1\n* 5\n0 *\n", "outside"),
            ("#PDA v1\nK=2 F=2 Z=1 S=1\n* x\n0 *\n", "bad token"),
            ("#PDA v1\nK=2 F=2 Z=1 S=2\n* -1\n0 *\n", "bad token"),
            ("#PDA v1\nK=0 F=2 Z=- S=0\n* 0\n", "no row tokens"),
            ("#PDA v1\nK=1 F=1 Z=- S=4\n\u00b2\n", "bad token"),
            ("#PDA v1\nK=1 F=1 Z=- S=4\n\u0663\n", "bad token"),
            ("#PDA v1\nK=1 F=1 Z=- S=\u0663\n0\n", "bad shape line"),
        ]
        for text, fragment in cases:
            with pytest.raises(PdaFormatError, match=fragment):
                pk.parse(text)

    def test_declared_z_mismatch(self):
        uniform = "#PDA v1\nK=2 F=2 Z=1 S=4\n0 2\n1 3\n"
        with pytest.raises(PdaFormatError, match="every column has 0 stars"):
            pk.parse(uniform)
        varying = "#PDA v1\nK=2 F=2 Z=1 S=2\n* 0\n* 1\n"
        with pytest.raises(PdaFormatError, match="vary"):
            pk.parse(varying)

    def test_declared_z_accepted_when_regular(self):
        assert pk.parse(MN_4_2_TEXT).params().z == 2


class TestJson:
    def test_exact_encoding(self):
        g = grid([[STAR, 0], [0, STAR]], s=1)
        expected = (
            '{"k": 2, "f": 2, "z": 1, "s": 1, "rows": [["*", 0], [0, "*"]]}'
        )
        assert pk.render_json(g) == expected

    def test_round_trip_over_corpus(self, corpus):
        for name, g in corpus[::23]:
            assert pk.parse_json(pk.render_json(g)) == g, name

    def test_irregular_z_is_null(self):
        g = grid([[STAR, 0], [STAR, 1]], s=2)
        obj = json.loads(pk.render_json(g))
        assert obj["z"] is None
        assert pk.parse_json(pk.render_json(g)) == g

    def test_accepts_null_stars_and_decoded_objects(self):
        obj = {"k": 1, "f": 2, "z": None, "s": 1, "rows": [[None], [0]]}
        g = pk.parse_json(obj)
        assert g.cells == (None, 0)

    def test_error_cases(self):
        cases = [
            ("not json at all", "bad JSON"),
            ("[1, 2]", "must be an object"),
            ('{"k": 1, "f": 2, "s": 1}', "missing or bad field"),
            ('{"k": 1, "f": 2, "s": 1, "rows": [["*"]]}', "expected 2 rows"),
            ('{"k": 2, "f": 1, "s": 1, "rows": [["*"]]}', "expected 2 entries"),
            ('{"k": 1, "f": 1, "s": 1, "rows": [["x"]]}', "bad entry"),
            ('{"k": 1, "f": 1, "s": 1, "rows": [[true]]}', "bad entry"),
            ('{"k": 1, "f": 1, "s": 1, "rows": [[1.5]]}', "bad entry"),
            ('{"k": 1, "f": 1, "s": 1, "rows": [[3]]}', "bad entry"),
            ('{"k": 1, "f": 1, "s": 1, "rows": [[-1]]}', "bad entry"),
        ]
        for text, fragment in cases:
            with pytest.raises(PdaFormatError, match=fragment):
                pk.parse_json(text)

    def test_integer_fields_must_be_json_integers(self):
        cases = [
            # Non-ASCII digits used to pass int() and give a valid 1x1 grid.
            '{"k": "\u0661", "f": "\u0661", "s": 2, "rows": [[0]]}',
            # A float used to be truncated to 1 and accepted.
            '{"k": 1.7, "f": 1, "s": 1, "rows": [["*"]]}',
            # A non-numeric Z used to escape as a ValueError.
            '{"k": 1, "f": 1, "z": "x", "s": 1, "rows": [["*"]]}',
            '{"k": 1, "f": 1, "s": true, "rows": [["*"]]}',
            '{"k": 1, "f": 1, "s": "1", "rows": [["*"]]}',
        ]
        for text in cases:
            with pytest.raises(PdaFormatError, match="must be an integer"):
                pk.parse_json(text)

    def test_declared_z_mismatch(self):
        with pytest.raises(PdaFormatError, match="every column"):
            pk.parse_json('{"k": 1, "f": 2, "z": 2, "s": 2, "rows": [[0], [1]]}')


class TestParseAny:
    def test_sniffs_both_formats(self, corpus):
        for name, g in corpus[::101]:
            assert pk.parse_any(pk.render(g)) == g, name
            assert pk.parse_any(pk.render_json(g)) == g, name

    def test_sniffs_with_leading_whitespace(self):
        g = pk.mn_pda(3, 1)
        assert pk.parse_any("\n  " + pk.render_json(g)) == g

    def test_arbitrary_text_raises_only_format_or_usage_errors(self):
        pytest.importorskip("hypothesis")
        from hypothesis import example, given, settings
        from hypothesis import strategies as st

        prefixes = (
            "", "#PDA v1\n", "#PDA v1\nK=2 F=2 Z=1 S=2\n", "{",
            '{"k": 2, "f": 2, "s": 2, "rows": ',
        )
        texts = st.builds(str.__add__, st.sampled_from(prefixes), st.text())

        @settings(max_examples=300, deadline=None, derandomize=True, database=None)
        @given(texts)
        # A number longer than int() reads, and JSON nested past the
        # recursion limit.
        @example("#PDA v1\nK=1 F=1 Z=- S=1\n" + "7" * 5000)
        @example("#PDA v1\nK=" + "7" * 5000 + " F=1 Z=- S=1\n")
        @example('{"k": ' + "7" * 5000 + "}")
        @example('{"k": ' + "[" * 100_000)
        def check(text):
            for parser in (pk.parse, pk.parse_json, pk.parse_any):
                try:
                    parser(text)
                except (PdaFormatError, pk.PdaUsageError):
                    pass

        check()
