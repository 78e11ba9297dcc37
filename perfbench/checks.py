"""Output checks written apart from ``rprnmf``: plain numpy and scipy.sparse.

Nothing here imports the program.  Every function takes plain arrays:
factors as float arrays, constraint sets as 0-based ``(q, r, s)`` int-array
triples (or None), and observed cells as ``(rows, cols)`` index arrays (None
means every cell is observed).  Each ``*_failures`` function returns a list
of messages, empty when the output passes.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import scipy.sparse as sp

# Divisors and log arguments are clamped at this value, as the paper's
# multiplicative rules require to stay finite.
EPS = 1e-12
# A divergence iteration whose objective rises by more than this relative
# slack is rolled back; the schedule then halves the coefficients, otherwise
# they grow by 1% per accepted iteration.
ACCEPT_SLACK = 1e-12
GROW, SHRINK = 1.01, 0.5
# Tolerance of an entry checked against the update rules: relative to the
# entry, times its condition number (how much it amplifies rounding in the
# rule's inputs).  A penalised divergence denominator that nearly cancels
# amplifies rounding a million-fold or more.
RULE_TOL = 1e-10
# A hinge whose two distances, or a penalised denominator and zero, lie this
# close (relative) may be ordered either way by rounding; both branches of
# the rule are then accepted.
TIE = 1e-9


def rel_err(a, b) -> float:
    """Largest elementwise relative difference of ``a`` from ``b``."""
    a, b = np.asarray(a, float), np.asarray(b, float)
    return float(np.max(np.abs(a - b) / np.maximum(np.abs(b), 1e-300), initial=0.0))


# ------------------------------------------------------------- distances


def sq_dist(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Squared Euclidean distance between matching rows of ``x`` and ``y``."""
    d = x - y
    return np.einsum("...i,...i->...", d, d)


def sym_div(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Symmetric divergence 0.5*sum((x-y)*log(x/y)) between matching rows."""
    x = np.maximum(x, EPS)
    y = np.maximum(y, EPS)
    return 0.5 * np.sum((x - y) * np.log(x / y), axis=-1)


def dist(measure: str, x, y):
    return sq_dist(x, y) if measure == "euc" else sym_div(x, y)


def satisfied(vectors: np.ndarray, triples, measure: str) -> np.ndarray:
    """Per triple: strict dis(q, r) < dis(q, s) among the rows of ``vectors``."""
    q, r, s = triples
    return dist(measure, vectors[q], vectors[r]) < dist(measure, vectors[q], vectors[s])


def csr(w: np.ndarray, h: np.ndarray, triples_w, triples_h, measure: str) -> float:
    """Mean over the present sets of the satisfied fraction (W rows, H columns)."""
    fractions = [float(np.mean(satisfied(vec, t, measure)))
                 for vec, t in ((w, triples_w), (h.T, triples_h)) if t is not None]
    return float(np.mean(fractions))


# ------------------------------------------------------------- objective


def _cells_wh(w, h, cells):
    """W @ H at the observed cells only, in row chunks to bound memory."""
    rows, cols = cells
    out = np.empty(rows.size)
    step = 200_000
    for lo in range(0, rows.size, step):
        sl = slice(lo, lo + step)
        out[sl] = np.einsum("ij,ij->i", w[rows[sl]], h[:, cols[sl]].T)
    return out


def fit_value(v_obs: np.ndarray, wh_obs: np.ndarray, measure: str) -> float:
    """Frobenius or generalised-KL fit summed over the given observed values."""
    if measure == "euc":
        d = v_obs - wh_obs
        return float(d @ d)
    wh = np.maximum(wh_obs, EPS)
    pos = v_obs > 0
    lg = np.zeros_like(v_obs)
    lg[pos] = v_obs[pos] * np.log(v_obs[pos] / wh[pos])
    return float(np.sum(lg - v_obs + wh))


def penalty(vectors: np.ndarray, triples, measure: str) -> float:
    """Sum of exp(E(q,r)) + exp(-E(q,s)) (euc) or max(0, SD(q,r) - SD(q,s)) (div)."""
    q, r, s = triples
    d1 = dist(measure, vectors[q], vectors[r])
    d2 = dist(measure, vectors[q], vectors[s])
    if measure == "euc":
        return float(np.sum(np.exp(d1) + np.exp(-d2)))
    return float(np.sum(np.maximum(0.0, d1 - d2)))


def objective(v, cells, w, h, triples_w, triples_h, lam_w, lam_h, measure) -> float:
    """Data fit over the observed cells plus both coefficient-weighted penalties."""
    if cells is None:
        total = fit_value(v.ravel(), (w @ h).ravel(), measure)
    else:
        total = fit_value(v[cells], _cells_wh(w, h, cells), measure)
    if triples_w is not None and lam_w > 0:
        total += lam_w * penalty(w, triples_w, measure)
    if triples_h is not None and lam_h > 0:
        total += lam_h * penalty(h.T, triples_h, measure)
    return float(total)


def final_coefficient(lam0: float, iterations: int, rollbacks, measure: str) -> float:
    """Coefficient the reported objective was computed with.

    The divergence schedule multiplies by 1.01 after each accepted iteration
    and by 0.5 after each rollback; the reported objective is the last
    accepted one, evaluated before its own 1.01 step.  Euclidean coefficients
    are fixed.
    """
    if measure == "euc" or lam0 == 0:
        return lam0
    rolled = set(rollbacks)
    lam = lam0
    in_force = lam0
    for it in range(1, iterations + 1):
        if it in rolled:
            lam *= SHRINK
        else:
            in_force = lam
            lam *= GROW
    return in_force


# ------------------------------------------------------- reference solver


class Problem:
    """Inputs of one factorisation, as plain arrays.

    ``cells`` is None for a fully observed ``v``; otherwise ``v`` is dense
    and only ``v[cells]`` counts.  ``triples_w``/``triples_h`` are 0-based
    ``(q, r, s)`` arrays on the rows of W / the columns of H, or None.
    """

    def __init__(self, v, cells, triples_w, triples_h, measure, lam_w, lam_h):
        self.v = np.asarray(v, float)
        self.cells = cells
        self.triples_w, self.triples_h = triples_w, triples_h
        self.measure = measure
        self.lam_w, self.lam_h = float(lam_w), float(lam_h)
        if cells is not None:
            rows, cols = cells
            self._ones = sp.csr_matrix((np.ones(rows.size), (rows, cols)), shape=self.v.shape)
            # CSR storage is row-major; keep the cells in that order so that
            # value arrays line up with the sparse structure
            coo = self._ones.tocoo()
            self._rows, self._cols = coo.row, coo.col

    def _sparse(self, values):
        ones = self._ones
        return sp.csr_matrix((values, ones.indices, ones.indptr), shape=ones.shape)

    def fit_terms(self, w, h, side):
        """Classic multiplicative-rule numerator and denominator for one side."""
        euc = self.measure == "euc"
        if self.cells is None:
            v = self.v
            if euc:
                return (v @ h.T, w @ (h @ h.T)) if side == "w" else (w.T @ v, (w.T @ w) @ h)
            ratio = v / np.maximum(w @ h, EPS)
            if side == "w":
                return ratio @ h.T, np.tile(h.sum(axis=1), (w.shape[0], 1))
            return w.T @ ratio, np.tile(w.sum(axis=0)[:, None], (1, h.shape[1]))
        rows, cols = self._rows, self._cols
        v_obs = self.v[rows, cols]
        wh_obs = _cells_wh(w, h, (rows, cols))
        if euc:
            num_m, den_m = self._sparse(v_obs), self._sparse(wh_obs)
        else:
            num_m, den_m = self._sparse(v_obs / np.maximum(wh_obs, EPS)), self._ones
        if side == "w":
            return np.asarray(num_m @ h.T), np.asarray(den_m @ h.T)
        return np.asarray((num_m.T @ w).T), np.asarray((den_m.T @ w).T)

    def objective(self, w, h, lam_w, lam_h) -> float:
        return objective(self.v, self.cells, w, h, self.triples_w, self.triples_h,
                         lam_w, lam_h, self.measure)


def _g(x: float, y: float) -> tuple[float, float]:
    """Derivative of 2*SD(x, y) in x for one coordinate, log(x/y) + (x-y)/x,
    and the sum of its two parts' magnitudes."""
    x, y = max(x, EPS), max(y, EPS)
    lg, lin = math.log(x / y), (x - y) / x
    return lg + lin, abs(lg) + abs(lin)


def _coord_terms(x: np.ndarray, y: np.ndarray, measure: str) -> np.ndarray:
    """Per-coordinate terms whose row sums are the distances between x and y."""
    if measure == "euc":
        return (x - y) ** 2
    x = np.maximum(x, EPS)
    y = np.maximum(y, EPS)
    return 0.5 * (x - y) * np.log(x / y)


def _coord_term(x: float, y: float, measure: str) -> float:
    if measure == "euc":
        return (x - y) * (x - y)
    x, y = max(x, EPS), max(y, EPS)
    return 0.5 * (x - y) * math.log(x / y)


def _rule_values(col, a, member, q, r, s, rest1, rest2, nb, db, lam, measure):
    """Values the paper's rule can give entry ``a`` of the current column.

    Each comes with its condition number: the factor by which the entry
    amplifies relative rounding in the rule's inputs.  There is one value,
    unless a divergence hinge lies within rounding of its switch point or
    the penalised denominator within rounding of zero; every branch that
    rounding could select is then a value.  A penalised denominator within
    rounding of zero leaves its value undetermined (condition number inf).
    """
    old = col[a]
    if measure == "euc":
        pos = neg = 0.0
        far = 0.0  # exp() turns rounding in a distance d into relative error ~d
        for l in member[a]:
            xq, xr, xs = col[q[l]], col[r[l]], col[s[l]]
            d1 = rest1[l] + (xq - xr) * (xq - xr)
            d2 = rest2[l] + (xq - xs) * (xq - xs)
            far = max(far, d1 + d2)
            e1, e2 = math.exp(d1), math.exp(-d2)
            if a == q[l]:
                pos += e1 * xq + e2 * xs
                neg += e1 * xr + e2 * xq
            elif a == r[l]:
                pos += e1 * xr
                neg += e1 * xq
            else:
                pos += e2 * xq
                neg += e2 * xs
        # every term is non-negative, so nothing cancels
        return [(old * (nb + lam * neg) / max(db + lam * pos, EPS), 3.0 + far)]
    fixed = size = 0.0  # twice the hinge derivative over active triples; its magnitude
    ties = []
    for l in member[a]:
        xq, xr, xs = col[q[l]], col[r[l]], col[s[l]]
        d1 = rest1[l] + _coord_term(xq, xr, measure)
        d2 = rest2[l] + _coord_term(xq, xs, measure)
        if a == q[l]:
            (g1, m1), (g2, m2) = _g(xq, xr), _g(xq, xs)
            g, m = g1 - g2, m1 + m2
        elif a == r[l]:
            g, m = _g(xr, xq)
        else:
            g, m = _g(xs, xq)
            g = -g
        if abs(d1 - d2) <= TIE * (abs(d1) + abs(d2)):
            ties.append((g, m, d1 >= d2))
        elif d1 >= d2:
            fixed += g
            size += m
    # the first value is the branch this implementation itself takes
    out = []
    for active in itertools.product(*[(own, not own) for _, _, own in ties]):
        on = [t for t, take in zip(ties, active) if take]
        penalised = db + 0.5 * lam * (fixed + sum(t[0] for t in on))
        scale = db + 0.5 * lam * (size + sum(t[1] for t in on))
        near_zero = abs(penalised) <= TIE * scale
        kappa = math.inf if near_zero else 2.0 + scale / max(penalised, EPS)
        rule = (old * nb / max(penalised, EPS), kappa)
        # a negative penalised denominator falls back to the plain rule
        fallback = (old * nb / max(db, EPS), 3.0)
        if penalised >= 0:
            out += [rule, fallback] if near_zero else [rule]
        else:
            out += [fallback, rule] if near_zero else [fallback]
    return out


def _matches(got: float, values) -> bool:
    return any(kappa == math.inf or abs(got - v) <= RULE_TOL * kappa * abs(v)
               for v, kappa in values)


def sequential_sweep(f: np.ndarray, num, den, triples, lam: float, measure: str,
                     follow: np.ndarray | None = None) -> list:
    """Update ``f`` (vectors x latent) in place, one entry at a time.

    Latent column outermost, constrained vector innermost in ascending
    index order; each penalty gradient is evaluated on the freshest entries.
    While column b is swept no other column changes, so each distance is
    the sum over the other columns, taken at the start of the column, plus
    the column-b term from the current values.  Vectors in no triple take
    the plain multiplicative step.

    With ``follow``, the program's result of the same sweep in the same
    layout, each entry's rule value is compared with ``follow``'s entry and
    the sweep goes on from ``follow``'s entry.  Every entry is then judged
    on exactly the values the program saw, and rounding in one entry cannot
    carry into the next.  Returns the mismatches as ``(vector, latent,
    program value, rule value)``; empty without ``follow``.
    """
    bad = []
    plain = f * num / np.maximum(den, EPS)
    if triples is None or lam == 0:
        free = np.arange(f.shape[0])
    else:
        q, r, s = (t.tolist() for t in triples)
        member: dict[int, list[int]] = {}
        for l in range(len(q)):
            for a in (q[l], r[l], s[l]):
                member.setdefault(a, []).append(l)
        touched = sorted(member)
        free = np.setdiff1d(np.arange(f.shape[0]), touched)
    f[free] = plain[free]
    if follow is not None:
        got, want = follow[free], plain[free]
        wrong = ~(np.abs(got - want) <= RULE_TOL * 3.0 * np.abs(want))
        bad += [(int(free[i]), int(b), float(got[i, b]), float(want[i, b]))
                for i, b in zip(*np.nonzero(wrong))]
        f[free] = got
    if triples is None or lam == 0:
        return bad
    qa, ra, sa = triples
    for b in range(f.shape[1]):
        rest = np.arange(f.shape[1]) != b
        t1 = _coord_terms(f[qa], f[ra], measure)
        t2 = _coord_terms(f[qa], f[sa], measure)
        rest1 = t1[:, rest].sum(axis=1).tolist()
        rest2 = t2[:, rest].sum(axis=1).tolist()
        col = f[:, b].tolist()
        nb, db = num[:, b].tolist(), den[:, b].tolist()
        for a in touched:
            values = _rule_values(col, a, member, q, r, s, rest1, rest2, nb[a], db[a],
                                  lam, measure)
            if follow is None:
                col[a] = values[0][0]
                continue
            got = float(follow[a, b])
            if not _matches(got, values):
                bad.append((a, b, got, values[0][0]))
            col[a] = got
        f[:, b] = col
    return bad


def iterate(p: Problem, w: np.ndarray, h: np.ndarray, lam_w: float, lam_h: float):
    """One iteration of the paper's rules (W sweep, then H sweep) on copies."""
    w = w.copy()
    num, den = p.fit_terms(w, h, "w")
    sequential_sweep(w, num, den, p.triples_w, lam_w, p.measure)
    num, den = p.fit_terms(w, h, "h")
    ht = h.T.copy()
    sequential_sweep(ht, num.T, den.T, p.triples_h, lam_h, p.measure)
    return w, ht.T.copy()


def reference_run(p: Problem, w0: np.ndarray, h0: np.ndarray, iterations: int):
    """The paper's algorithm from the initial factors, for a fixed iteration count.

    With zero coefficients this is classic (masked) Lee-Seung NMF.  Returns
    ``(w, h, trace, rollbacks)`` in the layout of the program's report.
    """
    w, h = w0, h0
    lam_w, lam_h = p.lam_w, p.lam_h
    accepted = p.objective(w, h, lam_w, lam_h)
    trace, rollbacks = [accepted], []
    for it in range(1, iterations + 1):
        cand_w, cand_h = iterate(p, w, h, lam_w, lam_h)
        obj = p.objective(cand_w, cand_h, lam_w, lam_h)
        if p.measure == "euc":
            w, h = cand_w, cand_h
            trace.append(obj)
        elif obj <= accepted * (1 + ACCEPT_SLACK) + ACCEPT_SLACK:
            w, h = cand_w, cand_h
            accepted = obj
            trace.append(obj)
            lam_w, lam_h = lam_w * GROW, lam_h * GROW
        else:
            trace.append(accepted)
            rollbacks.append(it)
            lam_w, lam_h = lam_w * SHRINK, lam_h * SHRINK
    return w, h, trace, rollbacks


def iteration_failures(p: Problem, factors, trace, rollbacks) -> list[str]:
    """Each iteration of a penalised run, judged from the program's own factors.

    ``factors[i]`` is the program's ``(W, H)`` after i iterations and
    ``factors[0]`` the initial draw.  An accepted iteration must match the
    rules entry by entry (``sequential_sweep`` with ``follow``), each entry
    to ``RULE_TOL`` times its condition number, and its traced objective
    must match a recomputation to 1e-9.  A rolled-back one must restore its
    input exactly, and the rules applied to that input must raise the
    objective.  Coefficients follow the schedule.  Stops at the first
    iteration that fails: the ones after it start from a wrong state.
    """
    rolled = set(rollbacks) if p.measure == "div" else set()
    lam_w, lam_h = p.lam_w, p.lam_h
    accepted = p.objective(*factors[0], lam_w, lam_h)
    if abs(trace[0] - accepted) > 1e-9 * abs(accepted):
        return [f"initial objective {trace[0]!r} vs recomputed {accepted!r}"]
    for it in range(1, len(factors)):
        (w_in, h_in), (w_out, h_out) = factors[it - 1], factors[it]
        limit = accepted * (1 + ACCEPT_SLACK) + ACCEPT_SLACK
        if it in rolled:
            if not (np.array_equal(w_out, w_in) and np.array_equal(h_out, h_in)):
                return [f"iteration {it}: the rollback does not restore the factors"]
            obj = p.objective(*iterate(p, w_in, h_in, lam_w, lam_h), lam_w, lam_h)
            if obj < limit * (1 - 1e-9):
                return [f"iteration {it} is rolled back, but the rules lower the objective "
                        f"from {accepted!r} to {obj!r}"]
            lam_w, lam_h = lam_w * SHRINK, lam_h * SHRINK
            continue
        num, den = p.fit_terms(w_in, h_in, "w")
        bad = [("W", a, b, got, want) for a, b, got, want in sequential_sweep(
            w_in.copy(), num, den, p.triples_w, lam_w, p.measure, follow=w_out)]
        num, den = p.fit_terms(w_out, h_in, "h")
        bad += [("H", b, a, got, want) for a, b, got, want in sequential_sweep(
            h_in.T.copy(), num.T, den.T, p.triples_h, lam_h, p.measure, follow=h_out.T)]
        if bad:
            name, i, j, got, want = bad[0]
            return [f"iteration {it}: {len(bad)} entries differ from the rules, "
                    f"first {name}[{i}, {j}] = {got!r} vs {want!r}"]
        obj = p.objective(w_out, h_out, lam_w, lam_h)
        if abs(trace[it] - obj) > 1e-9 * abs(obj):
            return [f"iteration {it}: traced objective {trace[it]!r} vs recomputed {obj!r}"]
        if p.measure == "div":
            if obj > limit * (1 + 1e-9):
                return [f"iteration {it} is accepted, but raises the objective "
                        f"from {accepted!r} to {obj!r}"]
            accepted = obj
            lam_w, lam_h = lam_w * GROW, lam_h * GROW
    return []


# ---------------------------------------------------------------- checks


def factor_failures(w, h, n: int, m: int, k: int) -> list[str]:
    out = []
    for name, f, shape in (("W", w, (n, k)), ("H", h, (k, m))):
        f = np.asarray(f)
        if f.shape != shape:
            out.append(f"{name} has shape {f.shape}, expected {shape}")
        elif not np.all(np.isfinite(f)):
            out.append(f"{name} has a non-finite entry")
        elif np.any(f < 0):
            out.append(f"{name} has a negative entry")
    return out


def trace_failures(trace, iterations: int, rollbacks, measure: str) -> list[str]:
    """Length, monotonicity and rollback bookkeeping of an objective trace."""
    out = []
    if len(trace) != iterations + 1:
        out.append(f"trace has {len(trace)} entries for {iterations} iterations")
        return out
    if measure == "euc":
        if rollbacks:
            out.append("a Euclidean run reported rollbacks")
        for i in range(1, len(trace)):
            if trace[i] > trace[i - 1] * (1 + 1e-8):
                out.append(f"Euclidean trace rises at iteration {i}")
                break
        return out
    rolled = set(rollbacks)
    if not rolled <= set(range(1, iterations + 1)):
        out.append(f"rollback iterations {sorted(rolled)} outside 1..{iterations}")
    last = trace[0]
    for i in range(1, len(trace)):
        if i in rolled:
            if trace[i] != last:
                out.append(f"rollback at iteration {i} does not repeat the accepted objective")
                break
        elif trace[i] > last * (1 + 1e-12) + 1e-12:
            out.append(f"accepted divergence trace rises at iteration {i}")
            break
        else:
            last = trace[i]
    return out


def report_failures(p: Problem, w0, h0, iterations: int, w, h, trace, rollbacks,
                    final_objective: float, report_csr, intermediate=()) -> list[str]:
    """Every output check of one factorisation.

    ``intermediate`` holds the program's ``(W, H)`` after iterations 1 to
    ``iterations - 1`` (from shorter runs with the same inputs); a penalised
    run is checked iteration by iteration from them.  An unpenalised run is
    compared whole with a Lee-Seung run from ``(w0, h0)``.
    """
    n, m = p.v.shape
    k = w0.shape[1]
    out = factor_failures(w, h, n, m, k)
    if out:
        return out
    out += trace_failures(trace, iterations, rollbacks, p.measure)
    if len(trace) != iterations + 1:
        return out
    if final_objective != trace[-1]:
        out.append("final objective differs from the last trace entry")
    lam_w = final_coefficient(p.lam_w, iterations, rollbacks, p.measure)
    lam_h = final_coefficient(p.lam_h, iterations, rollbacks, p.measure)
    mine = p.objective(w, h, lam_w, lam_h)
    if abs(mine - final_objective) > 1e-9 * abs(mine):
        out.append(f"final objective {final_objective!r} vs recomputed {mine!r}")
    if p.triples_w is not None or p.triples_h is not None:
        expect = csr(w, h, p.triples_w, p.triples_h, p.measure)
        if report_csr is None or abs(report_csr - expect) > 1e-12:
            out.append(f"CSR {report_csr!r} vs recomputed {expect!r}")
    if p.lam_w > 0 or p.lam_h > 0:
        if len(intermediate) != iterations - 1:
            return out + [f"{len(intermediate)} intermediate factor pairs for {iterations} iterations"]
        return out + iteration_failures(p, [(w0, h0), *intermediate, (w, h)], trace, rollbacks)
    rw, rh, rtrace, rroll = reference_run(p, w0, h0, iterations)
    if list(rollbacks) != rroll:
        out.append(f"rollbacks {list(rollbacks)} vs reference {rroll}")
    for name, got, ref in (("W", w, rw), ("H", h, rh)):
        e = rel_err(got, ref)
        if not e <= 1e-10:
            out.append(f"{name} differs from the Lee-Seung run by {e:.3g} relative")
    e = rel_err(trace, rtrace)
    if not e <= 1e-9:
        out.append(f"objective trace differs from the Lee-Seung run by {e:.3g} relative")
    return out


def chain_failures(vectors: np.ndarray, triples, measure: str, expected: int) -> list[str]:
    """Generated triples: the expected count, and all satisfied by the generator."""
    out = []
    if len(triples[0]) != expected:
        out.append(f"{len(triples[0])} triples generated, expected {expected}")
    bad = int(np.sum(~satisfied(vectors, triples, measure)))
    if bad:
        out.append(f"{bad} generated triples are violated by the generating factor")
    return out


def split_failures(shape, observed_cells, fold_cells, reassigned: int) -> list[str]:
    """CV folds, given as ``(rows, cols)`` cells, are disjoint, lie inside the
    observed cells and cover them up to the ``reassigned`` always-train cells;
    no fold leaves an observed row or column without training cells."""
    out = []
    obs = np.ravel_multi_index(observed_cells, shape)
    held = np.concatenate([np.ravel_multi_index(c, shape) for c in fold_cells])
    if np.unique(held).size != held.size:
        out.append("CV folds overlap")
    if not np.all(np.isin(held, obs)):
        out.append("a CV fold holds an unobserved cell")
    if obs.size - held.size != reassigned:
        out.append("CV folds do not cover the observed cells")
    row_obs = np.bincount(observed_cells[0], minlength=shape[0])
    col_obs = np.bincount(observed_cells[1], minlength=shape[1])
    for i, (rows, cols) in enumerate(fold_cells):
        row_left = row_obs - np.bincount(rows, minlength=shape[0])
        col_left = col_obs - np.bincount(cols, minlength=shape[1])
        if np.any((row_obs > 0) & (row_left == 0)) or np.any((col_obs > 0) & (col_left == 0)):
            out.append(f"fold {i} leaves a training row or column empty")
    return out


def rmse(v_held: np.ndarray, pred_held: np.ndarray) -> float:
    d = v_held - pred_held
    return math.sqrt(float(d @ d) / d.size)


def f1(v, pred, train_cells, held_cells) -> float:
    """Micro F1 of 'rated above the user's mean training rating' on held-out cells."""
    n = v.shape[0]
    tr, tc = train_cells
    sums = np.bincount(tr, weights=v[tr, tc], minlength=n)
    counts = np.bincount(tr, minlength=n)
    thr = np.where(counts > 0, sums / np.maximum(counts, 1), 0.0)
    hr, hc = held_cells
    truth = v[hr, hc] > thr[hr]
    guess = pred[hr, hc] > thr[hr]
    tp = int(np.sum(truth & guess))
    fp = int(np.sum(~truth & guess))
    fn = int(np.sum(truth & ~guess))
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    return 2 * precision * recall / (precision + recall) if precision + recall else 0.0


def metric_failures(v, pred, train_cells, held_cells, got_rmse: float, got_f1: float) -> list[str]:
    """The program's held-out RMSE and F1 against this module's recomputation."""
    out = []
    mine = rmse(v[held_cells], pred[held_cells])
    if abs(got_rmse - mine) > 1e-12 * mine:
        out.append(f"rmse {got_rmse!r} vs recomputed {mine!r}")
    mine = f1(v, pred, train_cells, held_cells)
    if abs(got_f1 - mine) > 1e-12:
        out.append(f"f1 {got_f1!r} vs recomputed {mine!r}")
    return out
