"""The names the benchmark's tracer wraps and reads are still in the package.

``perfbench/tracing.py`` wraps module attributes by name and drops, without
a word, the metrics of a layer whose function is gone; it also reads
``solver._sweep``'s arguments by position.  These tests read that file's
text, never import it, and hold the package to what it names: each name
resolves, and each layer the tracer times per round is called by ``run()``.
"""

import ast
import importlib
import inspect
from pathlib import Path

import numpy as np
import pytest

from rprnmf import ConstraintSet, Measure, SolverConfig, Target, constraints, solver

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing() -> tuple[dict, dict]:
    """The file's imported ``rprnmf`` modules by local name, and its top-level
    assignments by target name."""
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    modules, assigned = {}, {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "rprnmf":
            modules.update({a.asname or a.name: f"rprnmf.{a.name}" for a in node.names})
        elif isinstance(node, ast.Assign):
            assigned.update({t.id: node.value for t in node.targets if isinstance(t, ast.Name)})
    return modules, assigned


def _layers() -> dict[str, list[tuple[str, str]]]:
    """``tracing.LAYERS`` as layer -> (module path, attribute) pairs, from the file's text."""
    modules, assigned = _tracing()
    layers = assigned["LAYERS"]
    return {ast.literal_eval(key): [(modules[pair.elts[0].id], ast.literal_eval(pair.elts[1]))
                                    for pair in value.elts]
            for key, value in zip(layers.keys, layers.values)}


def test_every_traced_attribute_resolves():
    layers = _layers()
    assert "penalties.value" in layers and "constraints.chain_plan" in layers
    missing = [f"{layer}: {module}.{attr}" for layer, pairs in layers.items()
               for module, attr in pairs
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []


def test_sweep_arguments_keep_their_positions():
    # the tracer counts entries from fac, prep and lam at positions 0, 3 and 4
    assert list(inspect.signature(solver._sweep).parameters) == [
        "fac", "num", "den", "prep", "lam", "measure", "dist"]


def test_synthetic_setup_entry_point_exists():
    # the synthetic workload's set-up calls it beside generate_chain_plan
    assert callable(constraints.generate_chain_constraints)


@pytest.mark.parametrize("measure", list(Measure))
def test_every_round_layer_is_called(monkeypatch, measure):
    # a round layer whose functions run() never calls reads 0 in every traced round
    layers = _layers()
    calls = dict.fromkeys(ast.literal_eval(_tracing()[1]["ROUND_LAYERS"]), 0)
    for layer in calls:
        for module, attr in layers[layer]:
            module = importlib.import_module(module)

            def counted(*args, _fn=getattr(module, attr), _layer=layer, **kwargs):
                calls[_layer] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, attr, counted)
    v = np.random.default_rng(0).uniform(0.1, 1.0, (6, 5))
    sets = (ConstraintSet(Target.W_ROWS, [(1, 2, 3)]), ConstraintSet(Target.H_COLS, [(3, 4, 5)]))
    solver.run(v, sets, SolverConfig(k=2, measure=measure, lambda_w=0.5, lambda_h=0.5,
                                     max_iters=3))
    assert [layer for layer, count in calls.items() if not count] == []


def test_sweep_plans_carry_what_the_tracer_reads(monkeypatch):
    # the tracer counts a sweep's entries from its plan's touched and n, and
    # silently counts 0 where either is missing
    plans = []
    sweep = solver._sweep

    def recording(fac, num, den, prep, *args):
        plans.append((fac.shape[0], prep))
        return sweep(fac, num, den, prep, *args)

    monkeypatch.setattr(solver, "_sweep", recording)
    v = np.random.default_rng(1).uniform(0.1, 1.0, (6, 5))
    sets = (ConstraintSet(Target.W_ROWS, [(1, 2, 3), (4, 5, 6)]),
            ConstraintSet(Target.H_COLS, [(1, 2, 3), (3, 4, 5), (5, 1, 2)]))
    solver.run(v, sets, SolverConfig(k=2, measure=Measure.DIVERGENCE, lambda_w=0.5, lambda_h=0.5,
                                     max_iters=3))
    # W is swept as its 6 rows, H as its 5 columns
    length = {6: len(sets[0]), 5: len(sets[1])}
    assert sorted({rows for rows, prep in plans if prep is not None}) == [5, 6]
    for rows, prep in plans:
        if prep is not None:
            assert prep.touched.ndim == 1 and np.issubdtype(prep.touched.dtype, np.integer)
            assert isinstance(prep.n, int) and prep.n == length[rows]
