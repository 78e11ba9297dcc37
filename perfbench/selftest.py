"""Self-test of the benchmark's output checks on tiny instances.

    python3 perfbench/selftest.py

Every check must pass on the program's own output and fail on a perturbed
copy of it: a negative or NaN entry, a scaled H, a rising trace, a CSR off
by one triple, an objective off by 1e-6 relative, a dropped rollback and a
swapped triple.  The per-iteration rule check of a penalised run must also
fail on its own, without the objective checks, for a swapped triple and for
an intermediate H entry off by 1e-6 relative.  Exits 1 if any case goes the
wrong way.  It is kept out of
the repository's test suite so that suite's run time does not grow.
"""

from __future__ import annotations

import copy
import dataclasses
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
from rprnmf import io as rio  # noqa: E402
from rprnmf import metrics as rm  # noqa: E402
from rprnmf import solver  # noqa: E402
from rprnmf.constraints import ConstraintSet, Measure, Target, generate_chain_plan  # noqa: E402
from rprnmf.matrix import DenseMatrix, MaskMatrix  # noqa: E402

ITERS = 12
results: list[bool] = []


def expect(label: str, failures: list[str], should_fail: bool) -> None:
    ok = bool(failures) == should_fail
    results.append(ok)
    note = f" ({failures[0]})" if failures else ""
    print(f"{'PASS' if ok else 'FAIL'}: {label}: {'fails' if failures else 'passes'}{note}")


def random_triples(rng, n: int, count: int) -> list[tuple[int, int, int]]:
    return [tuple(int(x) + 1 for x in rng.choice(n, 3, replace=False)) for _ in range(count)]


def arrays(cset):
    if cset is None:
        return None
    t = np.array([(x.q, x.r, x.s) for x in cset.triples]) - 1
    return t[:, 0], t[:, 1], t[:, 2]


class Instance:
    """One tiny factorisation run through the program, plus its checker inputs."""

    def __init__(self, v, sets, measure, lam_w, lam_h, seed, mask=None):
        self.config = solver.SolverConfig(
            k=3, measure=Measure.EUCLIDEAN if measure == "euc" else Measure.DIVERGENCE,
            lambda_w=lam_w, lambda_h=lam_h, max_iters=ITERS, rel_tol=0.0, seed=seed,
            mask=None if mask is None else MaskMatrix(mask))
        self.report = solver.run(DenseMatrix(v), sets, self.config)
        cells = None if mask is None else np.nonzero(mask)
        self.problem = checks.Problem(v, cells, arrays(sets[0]), arrays(sets[1]),
                                      measure, lam_w, lam_h)
        rng = np.random.default_rng(seed)
        n, m = v.shape
        self.w0 = rng.uniform(0.01, 1.0, size=(n, 3))
        self.h0 = rng.uniform(0.01, 1.0, size=(3, m))
        self.intermediate = []
        if lam_w > 0 or lam_h > 0:
            for iters in range(1, ITERS):
                r = solver.run(DenseMatrix(v), sets,
                               dataclasses.replace(self.config, max_iters=iters))
                self.intermediate.append((r.w.a, r.h.a))

    def outputs(self) -> dict:
        r = self.report
        return {"w": r.w.a.copy(), "h": r.h.a.copy(), "trace": list(r.objective_trace),
                "rollbacks": list(r.rollback_iters), "final": r.final_objective, "csr": r.csr}

    def failures(self, out: dict, problem=None) -> list[str]:
        return checks.report_failures(problem or self.problem, self.w0, self.h0, ITERS,
                                      out["w"], out["h"], out["trace"], out["rollbacks"],
                                      out["final"], out["csr"], self.intermediate)


def perturbations(inst: Instance):
    """(label, perturbed outputs) pairs; each must make the checks fail."""
    base = inst.outputs()

    def edit(fn):
        out = copy.deepcopy(base)
        fn(out)
        return out

    yield "negative entry", edit(lambda o: o["w"].__setitem__((0, 0), -o["w"][0, 0]))
    yield "NaN entry", edit(lambda o: o["h"].__setitem__((1, 2), np.nan))
    yield "scaled H", edit(lambda o: o.__setitem__("h", o["h"] * 1.01))

    def rising(o):
        o["trace"][2] = o["trace"][1] * 1.5
    yield "rising trace", edit(rising)

    def off_objective(o):
        o["final"] *= 1 + 1e-6
        o["trace"][-1] = o["final"]
    yield "objective off by 1e-6 relative", edit(off_objective)

    if base["csr"] is not None:
        sets = [t for t in (inst.problem.triples_w, inst.problem.triples_h) if t is not None]
        step = 1.0 / len(sets) / len(sets[-1][0])
        yield "CSR off by one triple", edit(lambda o: o.__setitem__(
            "csr", o["csr"] - step if o["csr"] >= step else o["csr"] + step))
    if base["rollbacks"]:
        yield "dropped rollback", edit(lambda o: o["rollbacks"].pop())


def swapped(triples):
    q, r, s = (t.copy() for t in triples)
    r[0], s[0] = s[0], r[0]
    return q, r, s


def main() -> int:
    rng = np.random.default_rng(2024)
    n, m = 14, 12
    v = rng.uniform(0.0, 1.0, (n, 3)) @ rng.uniform(0.0, 1.0, (3, m))
    set_w = ConstraintSet(Target.W_ROWS, random_triples(rng, n, 5))
    set_h = ConstraintSet(Target.H_COLS, random_triples(rng, m, 5))
    mask = (rng.uniform(size=(n, m)) < 0.7).astype(float)
    mask[np.arange(n), np.arange(n) % m] = 1.0  # no empty row or column

    instances = []
    for measure in ("euc", "div"):
        instances.append((f"{measure} nmf", Instance(v, (set_w, set_h), measure, 0.0, 0.0, 1)))
        instances.append((f"{measure} rpr", Instance(v, (set_w, set_h), measure, 2.0, 2.0, 2)))
        instances.append((f"{measure} masked rpr",
                          Instance(v, (set_w, set_h), measure, 2.0, 2.0, 3, mask=mask)))
    # strong coefficients make the adaptive divergence schedule roll back
    for seed in range(4, 64):
        inst = Instance(v, (set_w, set_h), "div", 500.0, 500.0, seed)
        if inst.report.rollback_iters and len(inst.report.rollback_iters) < ITERS:
            instances.append(("div rpr with rollback", inst))
            break
    else:
        print("FAIL: no tiny divergence run rolled back")
        return 1

    for label, inst in instances:
        expect(f"{label}: program output", inst.failures(inst.outputs()), False)
        for what, out in perturbations(inst):
            expect(f"{label}: {what}", inst.failures(out), True)
        if inst.problem.lam_h > 0:
            p = copy.copy(inst.problem)
            p.triples_h = swapped(inst.problem.triples_h)
            expect(f"{label}: swapped triple", inst.failures(inst.outputs(), p), True)
            # the per-iteration rule check alone, without the objective checks
            out = inst.outputs()
            steps = [(inst.w0, inst.h0), *inst.intermediate, (out["w"], out["h"])]
            # start from the objective the swapped set gives, so that the
            # sweep of iteration 1 is what has to fail
            trace = [p.objective(inst.w0, inst.h0, p.lam_w, p.lam_h)] + out["trace"][1:]
            expect(f"{label}: rule check, swapped triple", checks.iteration_failures(
                p, steps, trace, out["rollbacks"]), True)
            nudged = copy.deepcopy(steps)
            nudged[1][1][0, 0] *= 1 + 1e-6
            expect(f"{label}: rule check, H entry off by 1e-6 relative",
                   checks.iteration_failures(inst.problem, nudged, out["trace"],
                                             out["rollbacks"]), True)

    h0 = rng.uniform(0.0, 1.0, (3, 40))
    for measure in (Measure.EUCLIDEAN, Measure.DIVERGENCE):
        chains = arrays(generate_chain_plan(DenseMatrix(h0), Target.H_COLS, [4, 4], measure, 7))
        expect(f"{measure.value} chains: generated", checks.chain_failures(
            h0.T, chains, measure.value, 6), False)
        expect(f"{measure.value} chains: swapped triple", checks.chain_failures(
            h0.T, swapped(chains), measure.value, 6), True)

    observed = (rng.uniform(size=(30, 20)) < 0.5).astype(float)
    split = rio.make_cv_split(MaskMatrix(observed), 3, 5)
    folds = [np.nonzero(f.bits) for f in split.fold_masks]
    cells = np.nonzero(observed)
    expect("CV split: program output", checks.split_failures(
        observed.shape, cells, folds, split.reassigned), False)
    expect("CV split: overlapping folds", checks.split_failures(
        observed.shape, cells, [folds[0], folds[0]] + folds[2:], split.reassigned), True)

    ratings = np.where(observed > 0, rng.integers(1, 6, observed.shape), 0).astype(float)
    pred = rng.uniform(1, 5, observed.shape)
    held, train = split.fold_masks[0].bits, split.training_mask(0).bits
    hc, tc = np.nonzero(held), np.nonzero(train)
    for label, p in (("program output", pred), ("perturbed prediction", pred + 0.5)):
        expect(f"metrics: {label}", checks.metric_failures(
            ratings, pred, tc, hc, rm.rmse(ratings, p, held), rm.f1_score(ratings, p, train, held).f1),
            label != "program output")

    failed = results.count(False)
    print(f"{len(results) - failed}/{len(results)} self-test cases behaved as expected")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
