"""The names the benchmark's tracer wraps and reads are still in the package.

``perfbench/tracing.py`` wraps module attributes by name and drops, without
a word, the metrics of a layer whose function is gone; it also reads
``solver._sweep``'s arguments by position.  These tests read that file's
text, never import it, and hold the package to what it names.
"""

import ast
import importlib
import inspect
from pathlib import Path

from rprnmf import constraints, solver

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _layers() -> dict[str, list[tuple[str, str]]]:
    """``tracing.LAYERS`` as layer -> (module path, attribute) pairs, from the file's text."""
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    modules = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "rprnmf":
            modules.update({a.asname or a.name: f"rprnmf.{a.name}" for a in node.names})
    [layers] = [node.value for node in tree.body if isinstance(node, ast.Assign)
                and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["LAYERS"]]
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
