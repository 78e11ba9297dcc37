"""Run one benchmark workload and print its metrics as a JSON last line.

    python3 perfbench/run.py --workload synthetic --seed 1 --seconds 24 --trace 0

Run from the root of a checkout: the program is imported from ``src/``.
BLAS is pinned to one thread before numpy loads.  Every timing is the
fastest of many identical repetitions spread over the run, because on a
shared host the median follows background load and the fastest does not.
With ``--trace 1`` the per-layer metrics replace the end-to-end ones.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import shutil
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# every factorisation is timed at least this often, however long set-up takes
MIN_ROUNDS = 2


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="timed work per run: set-up and factorisation repetitions")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def report_digest(report) -> tuple:
    return (report.w.a.tobytes(), report.h.a.tobytes(), tuple(report.objective_trace),
            tuple(report.rollback_iters), report.csr, report.final_objective, report.iterations)


@dataclass
class Measured:
    setup_s: float
    best: dict  # case name -> fastest repetition (s)
    first: dict  # case name -> report of its first repetition, or None
    cases: list
    attempted: int
    failed: int
    rounds: int
    failures: list


def measure(wl, seconds: float, tracer, solver, log) -> Measured:
    """Set-up repetitions spread among whole rounds of every factorisation.

    Timed work (set-up and factorisation repetitions) continues until it
    adds up to ``seconds``, every set-up repetition has run and at least
    ``MIN_ROUNDS`` rounds are done.  Set-up repetition i is due once i/S of
    the time has passed and i rounds are done, so the two interleave.
    """
    failures: list[str] = []
    setup_times: list[float] = []
    reference_fp = None
    cases = None
    busy = 0.0

    def set_up():
        nonlocal reference_fp, cases, busy
        cases = None  # release the previous inputs before building new ones
        if tracer:
            tracer.phase = ("setup", len(setup_times))
        t0 = time.perf_counter()
        prepared = wl.setup()
        setup_times.append(time.perf_counter() - t0)
        busy += setup_times[-1]
        fp = wl.fingerprint(prepared)
        if reference_fp is None:
            reference_fp = fp
            failures.extend(wl.setup_failures(prepared))
        elif fp != reference_fp:
            failures.append(f"set-up repetition {len(setup_times)} differs from the first")
        cases = wl.cases(prepared)

    set_up()
    best = {c.name: float("inf") for c in cases}
    first: dict = {c.name: None for c in cases}
    digests: dict = {}
    failed = 0
    rounds = 0
    while rounds < MIN_ROUNDS or busy < seconds or len(setup_times) < wl.setup_reps:
        done = len(setup_times)
        if done < wl.setup_reps and rounds >= done and busy >= done * seconds / wl.setup_reps:
            set_up()
            continue
        if tracer:
            tracer.phase = ("round", rounds)
        for case in cases:
            t0 = time.perf_counter()
            try:
                report = solver.run(case.v, case.sets, case.config)
            except Exception as exc:  # a failed operation is counted, not fatal
                busy += time.perf_counter() - t0
                failed += 1
                if rounds == 0:
                    log(f"{case.name}: {type(exc).__name__}: {exc}")
                continue
            dt = time.perf_counter() - t0
            busy += dt
            best[case.name] = min(best[case.name], dt)
            digest = report_digest(report)
            if case.name not in digests:
                digests[case.name] = digest
                first[case.name] = report
            elif digest != digests[case.name]:
                failures.append(f"{case.name}: repetition {rounds + 1} differs from the first")
        rounds += 1
    attempted = len(setup_times) + rounds * len(cases)
    return Measured(min(setup_times), best, first, cases, attempted, failed, rounds, failures)


def intermediate_factors(solver, case) -> list:
    """The program's factors after iterations 1 .. max_iters - 1 of a penalised
    case, from shorter runs on the same inputs (``rel_tol`` 0: a prefix)."""
    if not case.constrained:
        return []
    out = []
    for iters in range(1, case.config.max_iters):
        r = solver.run(case.v, case.sets, dataclasses.replace(case.config, max_iters=iters))
        out.append((r.w.a, r.h.a))
    return out


def check(wl, cases, first, solver) -> list[str]:
    import checks

    failures = []
    for case in cases:
        report = first[case.name]
        if report is None:
            continue
        w0, h0 = case.initial_factors()
        for msg in checks.report_failures(
                case.problem, w0, h0, case.config.max_iters, report.w.a, report.h.a,
                report.objective_trace, report.rollback_iters, report.final_objective,
                report.csr, intermediate_factors(solver, case)):
            failures.append(f"{case.name}: {msg}")
    return failures + wl.extra_failures(cases, first)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "rprnmf" / "__init__.py").is_file():
        print(f"error: no program sources at {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads
    from rprnmf import solver

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    def log(msg):
        print(msg, file=sys.stderr, flush=True)

    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = None
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            import tracing
            tracer = tracing.Tracer()
            tracer.install()
        m = measure(wl, args.seconds, tracer, solver, log)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer:
            tracer.uninstall()
        t0 = time.perf_counter()
        failures = m.failures + check(wl, m.cases, m.first, solver)
        check_s = time.perf_counter() - t0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # a factorisation that never succeeded is counted in `failed`, not timed
    nmf = sum(m.best[c.name] for c in m.cases if not c.constrained and m.first[c.name])
    rpr = sum(m.best[c.name] for c in m.cases if c.constrained and m.first[c.name])
    for c in m.cases:
        print(f"# {c.name}: fastest {m.best[c.name]:.6f} s over {m.rounds} repetitions")
    print(f"# setup: fastest {m.setup_s:.6f} s over {wl.setup_reps} repetitions")
    print(f"# solve total (nmf + rpr): {nmf + rpr:.6f} s; output checks took {check_s:.1f} s")
    if tracer:
        metrics = tracer.metrics()
        if not tracer.counts_repeat:
            failures.append("per-round call counts differ between rounds")
        if tracer.missing:
            log("layers missing from the program: " + ", ".join(tracer.missing))
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(trace_path)
        print(f"# trace written to {trace_path.relative_to(ROOT)}")
    else:
        metrics = {
            "nmf_solve_s": {"value": nmf, "unit": "s"},
            "rpr_solve_s": {"value": rpr, "unit": "s"},
            "setup_s": {"value": m.setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
    for msg in failures:
        log("CHECK FAILED: " + msg)
    print(json.dumps({"correct": not failures, "attempted": m.attempted, "failed": m.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
