"""Every scenario parameter changes its scenario's tables.

A parameter that no computation reads lets a user set a value that silently
does nothing. Each case moves one parameter from a small base setting and
requires the tables to differ: floats scale by 1.1, ints gain 1, a choice
takes another of its values, and a zero or None default takes the move
given in MOVES. A move must change a number by more than rounding, 1e-9
relative, to count.
"""
import functools
import math
from typing import Annotated, Literal, get_args, get_origin

import numpy as np
import pytest

from cryomux.scenarios import REGISTRY, merge_params

# small settings for the two simulating scenarios; fig4b_tdm runs at 3
# levels, where its pulse shape acts
BASE = {
    "fig4a_rb": {"t2_star_values_s": [12e-6]},
    "fig4b_tdm": {"levels": 3, "window_points": 3},
}

# moves of values that scaling or adding 1 leaves unchanged or out of range
MOVES = {
    ("fig2_power", "v_start_v"): 0.1,
    ("fig3_coherence", "v_start_v"): 0.1,
    ("fig4b_tdm", "levels"): 2,
    ("fig4b_tdm", "rise_time_s"): 1e-9,
    ("fig4b_tdm", "window_start_s"): 10e-9,
    ("fig4b_tdm", "windows_ns"): [5.0, 25.0, 45.0],
    ("fig4b_tdm", "detection_floor"): 0.5,
    ("methods_t1_limit", "attenuations_db"): [10.0],
    ("fig2_power", "subthreshold_leak_w"): 1e-9,
    ("scaling_capacity", "subthreshold_leak_w"): 1e-9,
}


def _moved(value, kind):
    """value scaled by 1.1 if a float, plus 1 if an int, item by item in a
    list, and another choice of a Literal."""
    while get_origin(kind) is Annotated:
        kind = get_args(kind)[0]
    if get_origin(kind) is Literal:
        return next(choice for choice in get_args(kind) if choice != value)
    if isinstance(value, (list, tuple)):
        return type(value)(_moved(v, get_args(kind)[0]) for v in value)
    return value + 1 if isinstance(value, int) else value * 1.1


CASES = [(scenario.name, name) for scenario in REGISTRY.values() for name in scenario.types]


def _tables(scenario: str, overrides: dict):
    params = merge_params(REGISTRY[scenario], overrides)
    tables = REGISTRY[scenario].runner(np.random.default_rng(0), **params)
    return [(table.name, table.columns, table.rows) for table in tables]


@functools.cache
def _base_tables(scenario: str):
    return _tables(scenario, BASE.get(scenario, {}))


def _differ(tables, others) -> bool:
    """Whether a name, a column, a row count, a string or a number beyond
    1e-9 relative differs."""
    if [t[:2] + (len(t[2]),) for t in tables] != [t[:2] + (len(t[2]),) for t in others]:
        return True
    cells = [
        (a, b)
        for table, other in zip(tables, others)
        for row, other_row in zip(table[2], other[2])
        for a, b in zip(row, other_row)
    ]
    return any(
        a != b if isinstance(a, str) else not math.isclose(a, b, rel_tol=1e-9) for a, b in cells
    )


@pytest.mark.parametrize("scenario, name", CASES)
def test_parameter_moves_its_tables(scenario, name):
    base = BASE.get(scenario, {})
    value, kind = base.get(name, REGISTRY[scenario].defaults[name]), REGISTRY[scenario].types[name]
    new = MOVES[scenario, name] if (scenario, name) in MOVES else _moved(value, kind)
    assert new != value, f"no move for {name} = {value!r}; give one in MOVES"
    moved = {**base, name: new}
    assert _differ(_base_tables(scenario), _tables(scenario, moved)), (
        f"{scenario}: {name} {value!r} -> {new!r} changes no table"
    )
