"""Layer spans recorded from outside the program, by wrapping module attributes.

Each layer is one or more module-level functions that ``rprnmf.solver.run``
or the workload set-up looks up at call time.  A span keeps the layer name,
start, end, the index of the enclosing span and the phase it ran in (a
set-up repetition or a round of factorisations).  Spans stay in memory and
are written out once, at the end of the run.
"""

from __future__ import annotations

import json
import time

from rprnmf import constraints as rc
from rprnmf import io as rio
from rprnmf import solver

# layer -> the (module, attribute) pairs that make it up
LAYERS = {
    "solver.run": [(solver, "run")],
    "solver.sweep": [(solver, "_sweep")],
    "solver.update_terms": [(solver, "masked_update_terms")],
    "solver.objective": [(solver, "_objective_value")],
    "matrix.fit_value": [(solver, "frobenius_sq_diff"), (solver, "matrix_divergence")],
    "penalties.value": [(solver, "euc_penalty_value"), (solver, "div_penalty_value")],
    "constraints.csr": [(solver, "csr_of")],
    "constraints.chain_plan": [(rc, "generate_chain_plan")],
    "constraints.read_constraints": [(rc, "read_constraints")],
    "io.read_dense_csv": [(rio, "read_dense_csv")],
    "io.read_ratings": [(rio, "read_ratings")],
    "io.ratings_to_matrix": [(rio, "ratings_to_matrix")],
    "io.cv_split": [(rio, "make_cv_split")],
}
SETUP_LAYERS = ("constraints.chain_plan", "constraints.read_constraints", "io.read_dense_csv",
                "io.read_ratings", "io.ratings_to_matrix", "io.cv_split")
ROUND_LAYERS = ("solver.sweep", "solver.update_terms", "solver.objective",
                "matrix.fit_value", "penalties.value", "constraints.csr")

# per-layer metrics: (name, unit); the README says which end-to-end metric
# each should move on which workload
METRICS = (
    ("solver.sweep.calls", "count"), ("solver.sweep.s", "s"),
    ("solver.sweep.entries", "count"), ("solver.sweep.entries_per_s", "1/s"),
    ("solver.update_terms.calls", "count"), ("solver.update_terms.s", "s"),
    ("solver.objective.calls", "count"), ("solver.objective.s", "s"),
    ("solver.run.self_s", "s"), ("solver.run.calls", "count"),
    ("solver.iterations", "count"), ("solver.rollbacks", "count"),
    ("matrix.fit_value.calls", "count"), ("matrix.fit_value.s", "s"),
    ("penalties.value.calls", "count"), ("penalties.value.s", "s"),
    ("constraints.chain_plan.s", "s"), ("constraints.read_constraints.s", "s"),
    ("constraints.csr.calls", "count"), ("constraints.csr.s", "s"),
    ("io.read_dense_csv.s", "s"), ("io.read_ratings.s", "s"),
    ("io.ratings_to_matrix.s", "s"), ("io.cv_split.s", "s"),
)


def _sweep_entries(args) -> int:
    """Constrained entries one ``_sweep(fac, num, den, prep, lam, measure)`` updates."""
    try:
        fac, prep, lam = args[0], args[3], args[4]
        return len(prep.touched) * fac.shape[1] if prep is not None and lam and prep.n else 0
    except (IndexError, AttributeError, TypeError):
        return 0


def _run_counts(args, report) -> dict:
    return {"iterations": report.iterations, "rollbacks": len(report.rollback_iters)}


COUNTERS = {
    "solver.sweep": lambda args, out: {"entries": _sweep_entries(args)},
    "solver.run": _run_counts,
}


COUNT_KEYS = ("solver.iterations", "solver.rollbacks", "solver.sweep.entries")


class Tracer:
    """Installs the wrappers, records spans, and folds them into per-layer metrics."""

    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.phase = ("setup", 0)
        self.missing: list[str] = []
        self.counts_repeat = True  # set by metrics()
        self._saved: list[tuple] = []

    def install(self) -> None:
        for layer, targets in LAYERS.items():
            found = False
            for module, attr in targets:
                fn = getattr(module, attr, None)
                if fn is None:
                    continue
                found = True
                self._saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(layer, fn))
            if not found:
                self.missing.append(layer)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _wrap(self, layer, fn):
        counter = COUNTERS.get(layer)

        def wrapped(*args, **kwargs):
            span = {"name": layer, "parent": self.stack[-1] if self.stack else None,
                    "phase": self.phase, "start": time.perf_counter()}
            idx = len(self.spans)
            self.spans.append(span)
            self.stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                span["end"] = time.perf_counter()
            if counter is not None:
                span.update(counter(args, out))
            return out

        return wrapped

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def metrics(self) -> dict:
        """Per-layer figures: counts per round, and the fastest round's (or
        set-up repetition's) seconds.  Every round repeats the same calls, so
        counts are the same in every round."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        per_phase: dict[tuple, dict[str, float]] = {}
        for i, span in enumerate(self.spans):
            acc = per_phase.setdefault(tuple(span["phase"]), {})
            name = span["name"]
            dur = span["end"] - span["start"]
            acc[name + ".calls"] = acc.get(name + ".calls", 0) + 1
            acc[name + ".s"] = acc.get(name + ".s", 0.0) + dur
            if name == "solver.run":
                acc["solver.run.self_s"] = acc.get("solver.run.self_s", 0.0) + dur - child_time[i]
                for key in ("iterations", "rollbacks"):
                    acc["solver." + key] = acc.get("solver." + key, 0) + span.get(key, 0)
            if name == "solver.sweep":
                acc["solver.sweep.entries"] = acc.get("solver.sweep.entries", 0) + span.get("entries", 0)
        rounds = [v for k, v in per_phase.items() if k[0] == "round"]
        setups = [v for k, v in per_phase.items() if k[0] == "setup"]

        def fastest(phases, key):
            return min(p.get(key, 0.0) for p in phases) if phases else 0.0

        def first(phases, key):
            return phases[0].get(key, 0) if phases else 0

        values = {}
        for layer in SETUP_LAYERS:
            values[layer + ".s"] = fastest(setups, layer + ".s")
        for layer in ROUND_LAYERS + ("solver.run",):
            values[layer + ".calls"] = first(rounds, layer + ".calls")
            values[layer + ".s"] = fastest(rounds, layer + ".s")
        values["solver.run.self_s"] = fastest(rounds, "solver.run.self_s")
        for key in COUNT_KEYS:
            values[key] = first(rounds, key)
        sweep_s = values["solver.sweep.s"]
        values["solver.sweep.entries_per_s"] = values["solver.sweep.entries"] / sweep_s if sweep_s else 0.0
        count_keys = [k for k in per_phase.get(("round", 0), {})
                      if k.endswith(".calls") or k in COUNT_KEYS]
        self.counts_repeat = all(r.get(k) == rounds[0].get(k) for r in rounds for k in count_keys)
        missing = {m for layer in self.missing for m, _ in METRICS if m.startswith(layer + ".")}
        if "solver.run" in self.missing:
            missing |= {"solver.iterations", "solver.rollbacks"}
        return {name: {"value": values[name], "unit": unit}
                for name, unit in METRICS if name not in missing}
