"""The benchmark's tracer still finds the package functions it rebinds.

``perfbench/tracing.py`` wraps package functions from outside the package,
by name: ``GroupOps.power``, the inverse dilation handed to
``make_group_irq``, ``right_divide_k``, ``check_irq_axioms`` and more.  A
rename in the package would leave a hook unwrapped and its metrics at 0.
This test runs two cheap benchmark cells untraced and traced: the traced
reports must be byte-identical, every count must repeat on a second traced
run, and no hook may be missing but the one the benchmark still lists for
a function the package has deleted.
"""

import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CELLS = {("perturbed", "divide"), ("euclidean", "axioms")}

# A hook whose function the package deleted; the benchmark still lists it.
STALE_HOOKS = {"emergent_irq.division._truncated_product"}


def test_traced_cells_match_untraced(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    monkeypatch.chdir(ROOT)  # cell configs are relative to the repository
    workloads = importlib.import_module("perfbench.workloads")
    tracing = importlib.import_module("perfbench.tracing")
    cells = [c for c in workloads.NONLINEAR_DEEP.cells
             + workloads.GROUP_BATCH.cells
             if (c.carrier, c.experiment) in CELLS]
    assert len(cells) == len(CELLS)
    untraced = [workloads.run_cell(c)[:2] for c in cells]
    assert all(code == 0 for code, _ in untraced), untraced

    tracer = tracing.Tracer()
    tracer.install()
    try:
        counts = []
        for _ in range(2):
            tracer.reset()
            assert [workloads.run_cell(c)[:2] for c in cells] == untraced
            counts.append(tracer.counted_calls())
    finally:
        tracer.uninstall()
    assert counts[0] == counts[1]
    assert set(tracer.missing) <= STALE_HOOKS, tracer.missing
    for span in ("carriers.delta_inv", "carriers.delta_power",
                 "carriers.group_mul", "carriers.metric", "division.divide",
                 "division.fixed_point", "core.axioms", "cli.render"):
        assert counts[0].get(f"{span}.calls", 0) > 0, span
