"""The benchmark's copy of the CLI tolerances agrees with the CLI.

``perfbench/workloads.judged_tol`` restates the tolerance each CLI row is
judged at, so that the benchmark can report how close passing rows come to
their bound.  If the CLI judged a row at another tolerance, that headroom
would silently measure the wrong thing; this test runs the cheap benchmark
cells and checks every row's verdict against the restated tolerance.
"""

import csv
import importlib
import io
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_rows_pass_exactly_within_the_mirrored_tolerance(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    monkeypatch.chdir(ROOT)  # cell configs are relative to the repository
    workloads = importlib.import_module("perfbench.workloads")
    cells = [c for c in workloads.GROUP_BATCH.cells
             if c.carrier in ("euclidean", "heisenberg")]
    assert {c.experiment for c in cells} == set(workloads.EXPERIMENTS)
    for cell in cells:
        code, report, _ = workloads.run_cell(cell)
        assert code in (0, 1), (cell.label(), report)
        rows = list(csv.DictReader(io.StringIO(report)))
        assert rows, cell.label()
        for row in rows:
            judged = workloads.judged_tol(cell.experiment, row["identity"],
                                          cell.tol())
            assert (row["passed"] == "true") == (
                float(row["max_residual"]) <= judged), (cell.label(), row)
