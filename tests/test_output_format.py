"""Table rendering against the library formatters it must match byte for byte.

format_number lays out repr's shortest round-trip digits; numpy's unique
(Dragon4) formatters print the same digits, so they are its oracle.
Table.render_json builds its text by hand; json.dumps with indent=2 and
sorted keys is its oracle.
"""
import json
import math

import numpy as np
import pytest

from cryomux.errors import SingularityError
from cryomux.scenarios import Table, format_number


def numpy_format(x: float) -> str:
    """The layout format_number promises, written by numpy's formatters."""
    if x == 0.0:
        return "0"
    if abs(x) >= 1e6 or abs(x) < 1e-6:
        return np.format_float_scientific(x, unique=True, trim="-")
    return np.format_float_positional(x, unique=True, trim="-")


def boundary_values() -> list[float]:
    """Each layout boundary, both its float neighbours, and the extremes."""
    values = []
    for edge in (1e-6, 1e-4, 1e6, 1e16):
        for x in (edge, -edge):
            values += [np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)]
    for x in (5e-324, 2.2250738585072014e-308, 1.7976931348623157e308):
        values += [x, -x]
    return [float(x) for x in values]


class TestFormatNumber:
    @pytest.mark.parametrize("x", boundary_values(), ids=repr)
    def test_matches_numpy_at_the_boundaries(self, x):
        assert format_number(x) == numpy_format(x)

    def test_matches_numpy_on_random_bit_patterns(self):
        bits = np.random.default_rng(28).integers(0, 2**64, size=100_000, dtype=np.uint64)
        values = bits.view(np.float64)
        values = values[np.isfinite(values)]
        assert values.size > 99_000
        mismatches = [x for x in values.tolist() if format_number(x) != numpy_format(x)]
        assert mismatches == []

    @pytest.mark.parametrize(
        "value,text",
        [
            (0, "0"),
            (7, "7"),
            (-12, "-12"),
            (10**20, "100000000000000000000"),
            (np.int64(-3), "-3"),
            (np.float64(2.5e-5), "0.000025"),
            (np.float64(3.0), "3"),
            (np.float32(0.5), "0.5"),
            (-0.0, "0"),
            (1234567.5, "1.2345675e+06"),
        ],
        ids=repr,
    )
    def test_integer_and_numpy_inputs(self, value, text):
        assert format_number(value) == text
        if not isinstance(value, (int, np.integer)):
            assert text == numpy_format(float(value))

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_non_finite_raises(self, x):
        with pytest.raises(SingularityError):
            format_number(x)


META = {"scenario": "fig2_power", "seed": 7, "config_sha256": "0123456789ab"}


def json_oracle(table: Table, meta) -> str:
    payload = {
        "meta": dict(meta),
        "columns": list(table.columns),
        "rows": [[c if isinstance(c, str) else float(c) for c in row] for row in table.rows],
    }
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


class TestRenderJson:
    @pytest.mark.parametrize(
        "rows",
        [
            [(0.25, 1e-7, "W"), (1e6, 123456.789, "W")],
            [('say "hi"', "back\\slash", "ünïcödé ≤ 1 µs"), ("tab\there", "new\nline", "")],
            [(1, np.int64(2), True), (np.float64(5e-324), -0.0, 1.7976931348623157e308)],
            [(), ("one",)],
            [],
        ],
        ids=["floats", "strings", "integers", "short rows", "no rows"],
    )
    def test_matches_json_dumps(self, rows):
        table = Table("t", ("a", "b", "c"), rows)
        assert table.render_json(META) == json_oracle(table, META)

    def test_meta_and_columns_match_json_dumps(self):
        meta = {"zeta": 1.5, "alpha": "é", "seed": 0, "flag": False, "none": None}
        for columns in ((), ("only",), ('q"uote', "x")):
            table = Table("t", columns, [(1.0,)])
            assert table.render_json(meta) == json_oracle(table, meta)

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_non_finite_cell_raises(self, x):
        table = Table("t", ("a", "b"), [(1.0, "inf"), ("nan", x)])
        with pytest.raises(SingularityError, match="'t'"):
            table.render_json(META)

    def test_non_finite_meta_raises(self):
        with pytest.raises(SingularityError):
            Table("t", ("a",), [(1.0,)]).render_json({"x": math.nan})

    def test_strings_that_spell_non_finite_values_are_written(self):
        table = Table("t", ("a",), [("nan",), ("inf",), ("-inf",)])
        assert table.render_json(META) == json_oracle(table, META)
