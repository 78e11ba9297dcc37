/* The constrained part of one multiplicative sweep (rprnmf.solver._sweep).
 *
 * Walks every touched vector in ascending order, latent column outermost,
 * and updates its entry from the freshest entries and pair distances.  The
 * arithmetic is that of the scalar Python walk it replaces, operation for
 * operation, so that a sweep gives the same bits: Python's max(a, EPS) is
 * kept apart from its "x if x > EPS else EPS" clamp (they differ on NaN),
 * exp and log are libm's, as math.exp and math.log are, and x ** 2 is libm
 * pow.  Build with -ffp-contract=off, so that no product and sum are fused.
 *
 * Tables (int64, 0-based): touched[i] is the i-th touched vector and its
 * links to triples are first[i] .. first[i + 1] - 1, in triple order, with
 * link j naming triple tri[j] in role role[j] (0, 1, 2 for q, r, s).
 * qrs is 4 x n: the q, r and s of each triple, then the zero slot, index
 * -1, which reads as 0.  Gather row g of a link reads the vector
 * qrs[rows[3 * g + role]][tri], as _EUC_ROWS / _DIV_ROWS say; sign[role]
 * is the divergence hinge term's sign.  dd is [d1; d2], the n distances
 * dis(q, r) and then the n distances dis(q, s).  Strides count elements.
 *
 * Returns 0, or 1 with *exponent set when an exp argument exceeds max_exp.
 */
#include <math.h>
#include <stdint.h>
#include <string.h>

/* reading 2 through a volatile keeps gcc from folding pow(x, 2.0) into x * x */
static volatile double TWO = 2.0;

/* Python's x ** 2, which is libm pow(x, 2.0): x * x differs from it in the
   last bit about once in a thousand.  pow is within 0.55 ulp of the exact
   square (glibc documents 0.54), so it is the correctly rounded x * x
   unless the exact square lies within 0.05 ulp of halfway between two
   doubles.  Only then, at a power of two or outside the range where Dekker's
   product below gives the exact rounding error of x * x, is pow called. */
static inline double py_square(double x)
{
    double p = x * x;
    uint64_t bits;
    memcpy(&bits, &p, sizeof bits);
    if (p > 0x1p-900 && p < 0x1p1000 && (bits & 0xfffffffffffffULL) != 0) {
        double c = 134217729.0 * x, hi = c - (c - x), lo = x - hi;
        double err = ((hi * hi - p) + 2.0 * hi * lo) + lo * lo, ulp;
        bits &= 0x7ff0000000000000ULL;
        memcpy(&ulp, &bits, sizeof ulp);
        if (fabs(err) < 0.45 * 0x1p-52 * ulp)
            return p;
    }
    return pow(x, TWO);
}

/* Python's max(a, eps) */
static inline double py_max(double a, double eps) { return eps > a ? eps : a; }

/* Python's "x if x > eps else eps" */
static inline double clamp(double x, double eps) { return x > eps ? x : eps; }

int rpr_sweep(double *fac, int64_t f0, int64_t f1, int64_t kdim,
              const double *num, int64_t n0, int64_t n1,
              const double *den, int64_t d0, int64_t d1,
              int64_t ntouched, const int64_t *touched, const int64_t *first,
              const int64_t *tri, const int64_t *role, int64_t n, const int64_t *qrs,
              const int64_t *rows, const double *sign, double *dd, double lam,
              int euclid, double eps, double max_exp, double *exponent)
{
#define COL(v) ((v) < 0 ? 0.0 : col[(v) * f0])
#define OP(g) COL(qrs[rows[3 * (g) + ro] * n + t])
    for (int64_t k = 0; k < kdim; k++) {
        double *col = fac + k * f1;
        for (int64_t i = 0; i < ntouched; i++) {
            int64_t a = touched[i];
            double old = col[a * f0], nka = num[a * n0 + k * n1], dka = den[a * d0 + k * d1];
            double new;
            if (euclid) {
                double cpos = 0.0, cneg = 0.0;
                for (int64_t j = first[i]; j < first[i + 1]; j++) {
                    int64_t t = tri[j], ro = role[j];
                    double e = dd[t];
                    if (e > max_exp) {
                        *exponent = e;
                        return 1;
                    }
                    double e1 = exp(e);
                    double e2 = exp(-dd[n + t]);
                    cpos += e1 * OP(0) + e2 * OP(1);
                    cneg += e1 * OP(2) + e2 * OP(3);
                }
                new = old * (nka + lam * cneg) / py_max(dka + lam * cpos, eps);
            } else {
                double p = 0.0;
                for (int64_t j = first[i]; j < first[i + 1]; j++) {
                    int64_t t = tri[j], ro = role[j];
                    if (dd[t] < dd[n + t])
                        continue;
                    double x = clamp(OP(0), eps), y = clamp(OP(1), eps), z = clamp(OP(2), eps);
                    p += sign[ro] * (log(x / y) + (x - y) / z);
                }
                double pen_den = 0.5 * lam * p + dka;
                if (pen_den < 0)
                    new = old * nka / py_max(dka, eps);
                else
                    new = old * nka / py_max(pen_den, eps);
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
                    double other = COL(ro == 0 ? qrs[(1 + half) * n + t] : qrs[t]);
                    if (euclid) {
                        dd[half * n + t] += py_square(other - new) - py_square(other - old);
                    } else {
                        double co = clamp(other, eps), cn = clamp(new, eps), cw = clamp(old, eps);
                        dd[half * n + t] += 0.5 * (co - cn) * log(co / cn)
                                            - 0.5 * (co - cw) * log(co / cw);
                    }
                }
            }
        }
    }
    return 0;
#undef OP
#undef COL
}
