/* The compiled kernels of rprnmf, built with -ffp-contract=off, so that no
 * product and sum are fused and each operation rounds as written.
 *
 * rpr_sweep is the constrained part of one multiplicative sweep
 * (rprnmf.solver._sweep).  It walks every touched vector in ascending
 * order, latent column outermost, and updates its entry from the freshest
 * entries and pair distances, by the per-role rules of euc_penalty_grad and
 * div_penalty_grad in tests/oracles.py.
 *
 * Tables (int64, 0-based): touched[i] is the i-th touched vector and its
 * links to triples are first[i] .. first[i + 1] - 1, in triple order, with
 * link j naming triple tri[j] in role role[j] (0, 1, 2 for q, r, s).  qrs
 * is 3 x n: the q, r and s of each triple.  dd is [d1; d2], the n distances
 * dis(q, r) and then the n distances dis(q, s).  Strides count elements.
 *
 * Returns 0, or 1 with *exponent set when an exp argument exceeds max_exp.
 *
 * rpr_model is W @ H at the observed cells (rprnmf.matrix.ObservedCells.model).
 */
#include <math.h>
#include <stdint.h>

/* max(x, eps), NaN kept */
static inline double at_least(double x, double eps) { return x < eps ? eps : x; }

int rpr_sweep(double *fac, int64_t f0, int64_t f1, int64_t kdim,
              const double *num, int64_t n0, int64_t n1,
              const double *den, int64_t d0, int64_t d1,
              int64_t ntouched, const int64_t *touched, const int64_t *first,
              const int64_t *tri, const int64_t *role, int64_t n, const int64_t *qrs,
              double *dd, double lam, int euclid, double eps, double max_exp,
              double *exponent)
{
    const int64_t *q = qrs, *r = qrs + n, *s = qrs + 2 * n;
    for (int64_t k = 0; k < kdim; k++) {
        double *col = fac + k * f1;
        for (int64_t i = 0; i < ntouched; i++) {
            int64_t a = touched[i];
            double old = col[a * f0], nka = num[a * n0 + k * n1], dka = den[a * d0 + k * d1];
            double new;
            if (euclid) {
                double pos = 0.0, neg = 0.0;
                for (int64_t j = first[i]; j < first[i + 1]; j++) {
                    int64_t t = tri[j];
                    double wq = col[q[t] * f0], wr = col[r[t] * f0], ws = col[s[t] * f0];
                    if (dd[t] > max_exp) {
                        *exponent = dd[t];
                        return 1;
                    }
                    double e1 = exp(dd[t]), e2 = exp(-dd[n + t]);
                    if (role[j] == 0) {
                        pos += e1 * wq + e2 * ws;
                        neg += e1 * wr + e2 * wq;
                    } else if (role[j] == 1) {
                        pos += e1 * wr;
                        neg += e1 * wq;
                    } else {
                        pos += e2 * wq;
                        neg += e2 * ws;
                    }
                }
                new = old * (nka + lam * neg) / at_least(dka + lam * pos, eps);
            } else {
                double p = 0.0;
                for (int64_t j = first[i]; j < first[i + 1]; j++) {
                    int64_t t = tri[j];
                    if (dd[t] < dd[n + t])
                        continue;
                    double wq = at_least(col[q[t] * f0], eps), wr = at_least(col[r[t] * f0], eps),
                           ws = at_least(col[s[t] * f0], eps);
                    /* with g(x, y) = log(x / y) + (x - y) / x, role q adds
                       g(q, r) - g(q, s) = log(s / r) + (s - r) / q, role r adds
                       g(r, q) and role s subtracts g(s, q) */
                    if (role[j] == 0)
                        p += log(ws / wr) + (ws - wr) / wq;
                    else if (role[j] == 1)
                        p += log(wr / wq) + (wr - wq) / wr;
                    else
                        p -= log(ws / wq) + (ws - wq) / ws;
                }
                double pen = 0.5 * lam * p + dka;
                new = old * nka / at_least(pen < 0 ? dka : pen, eps);
            }
            col[a * f0] = new;
            if (new == old)
                continue;
            /* the q link changes d1 and d2, an r link d1 only, an s link d2 only */
            for (int64_t j = first[i]; j < first[i + 1]; j++) {
                int64_t t = tri[j], ro = role[j];
                for (int64_t half = 0; half < 2; half++) {
                    if (ro == 2 - half)
                        continue;
                    double other = col[(ro != 0 ? q[t] : half ? s[t] : r[t]) * f0];
                    if (euclid) {
                        double dn = other - new, dw = other - old;
                        dd[half * n + t] += dn * dn - dw * dw;
                    } else {
                        double co = at_least(other, eps), cn = at_least(new, eps),
                               cw = at_least(old, eps);
                        dd[half * n + t] += 0.5 * (co - cn) * log(co / cn)
                                            - 0.5 * (co - cw) * log(co / cw);
                    }
                }
            }
        }
    }
    return 0;
}

/* W is nrows x k and ht (H transposed) is ncols x k, both C-contiguous.  The
 * cells are in CSR order: row i holds cells indptr[i] .. indptr[i + 1] - 1,
 * at the int32 columns cols[..].  out[c] sums W[i, l] * H[l, cols[c]] over
 * ascending l.  A row's cells go four at a time, each in its own
 * accumulator, so each block reads W's row once; each sum is the one a
 * single cell's loop forms, bit for bit.  The last one to three cells of a
 * row take that loop. */
void rpr_model(const double *w, const double *ht, int64_t k, int64_t nrows,
               const int64_t *indptr, const int32_t *cols, double *out)
{
    for (int64_t i = 0; i < nrows; i++) {
        const double *wi = w + i * k;
        int64_t c = indptr[i], end = indptr[i + 1];
        for (; c + 4 <= end; c += 4) {
            const double *h0 = ht + cols[c] * k, *h1 = ht + cols[c + 1] * k,
                         *h2 = ht + cols[c + 2] * k, *h3 = ht + cols[c + 3] * k;
            double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
            for (int64_t l = 0; l < k; l++) {
                double x = wi[l];
                a0 += x * h0[l];
                a1 += x * h1[l];
                a2 += x * h2[l];
                a3 += x * h3[l];
            }
            out[c] = a0;
            out[c + 1] = a1;
            out[c + 2] = a2;
            out[c + 3] = a3;
        }
        for (; c < end; c++) {
            const double *hj = ht + cols[c] * k;
            double acc = 0.0;
            for (int64_t l = 0; l < k; l++)
                acc += wi[l] * hj[l];
            out[c] = acc;
        }
    }
}
