"""Report how far freshly computed scenario tables are from the goldens.

Reruns every registered scenario with its defaults at seed 0, plus
configs/fig4b_tdm_3level.json, and compares each table with its file in
tests/golden/. For every table and column it prints, as a Markdown table,
the number of changed cells and the largest absolute and relative drift,
then lists each changed header line (whose config_sha256 moves with the
parameter set) and each changed cell, old and new, by its data row number
(1 for the first row under the column names) and first column. It only reports; the
golden tests decide what passes.

    PYTHONPATH=src python3 tests/golden_drift.py

pytest does not collect this file (its name does not start with test_).
"""
import json
import math
import tempfile
from pathlib import Path

from cryomux.scenarios import REGISTRY, run_scenario

GOLDEN_DIR = Path(__file__).parent / "golden"
THREE_LEVEL_CONFIG = Path(__file__).parents[1] / "configs" / "fig4b_tdm_3level.json"


def golden_runs():
    """(golden file prefix, scenario, overrides) of every golden scenario run."""
    for name in REGISTRY:
        yield name, name, {}
    cfg = json.loads(THREE_LEVEL_CONFIG.read_text())
    yield THREE_LEVEL_CONFIG.stem, cfg["scenario"], cfg.get("params", {})


def drift(old: str, new: str):
    """Absolute and relative drift of one cell, or None if either is text."""
    try:
        a, b = float(old), float(new)
    except ValueError:
        return None
    gap = abs(b - a)
    return gap, (gap / abs(a) if a else (math.inf if gap else 0.0))


def compare(table: str, got: list[str], want: list[str]):
    """Summary rows and changed-header and changed-cell lines of one table's
    CSV lines."""
    if got[1] != want[1] or len(got) != len(want):
        return [f"| {table} | (shape) | columns or row count differ | | |"], []
    rows, cells = [], []
    if got[0] != want[0]:
        cells.append(f"- {table} header: `{want[0]}` → `{got[0]}`")
    columns = want[1].split(",")
    got_rows = [row.split(",") for row in got[2:]]
    want_rows = [row.split(",") for row in want[2:]]
    for col, name in enumerate(columns):
        changed, max_abs, max_rel = 0, 0.0, 0.0
        for number, (new_row, old_row) in enumerate(zip(got_rows, want_rows), 1):
            old, new = old_row[col], new_row[col]
            if new == old:
                continue
            changed += 1
            label = f"row {number} ({columns[0]} = {old_row[0]})"
            cells.append(f"- {table} `{name}` in {label}: {old} → {new}")
            gaps = drift(old, new)
            if gaps is None:
                max_abs = max_rel = math.nan
            else:
                max_abs, max_rel = max(max_abs, gaps[0]), max(max_rel, gaps[1])
        rows.append(f"| {table} | {name} | {changed} | {max_abs:.3g} | {max_rel:.3g} |")
    return rows, cells


def main() -> None:
    summary = ["| table | column | changed cells | max abs drift | max rel drift |", "|---|---|---|---|---|"]
    cells = []
    with tempfile.TemporaryDirectory() as tmp:
        for prefix, scenario, overrides in golden_runs():
            out_dir = Path(tmp) / prefix
            for path in run_scenario(scenario, overrides, seed=0, out_dir=out_dir):
                table = prefix + path.stem[len(scenario):]
                golden = GOLDEN_DIR / f"{table}{path.suffix}"
                if not golden.exists():
                    summary.append(f"| {table} | (file) | no golden | | |")
                    continue
                got, want = path.read_text().splitlines(), golden.read_text().splitlines()
                rows, changed = compare(table, got, want)
                summary += rows
                cells += changed
    print("\n".join(summary))
    print()
    print("Changed headers and cells:" if cells else "No header or cell changed.")
    print("\n".join(cells))


if __name__ == "__main__":
    main()
