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
 *
 * rpr_ordering is the widest increasing ordering of a chain's points
 * (rprnmf.constraints._increasing_ordering), an exhaustive search that
 * visits, prunes and breaks ties as the Python recursion
 * pruned_increasing_ordering in tests/oracles.py does, so both return the
 * same path and gap.
 *
 * rpr_read_ratings parses a ratings file's bytes whole, in one pass
 * (rprnmf.io._ratings_whole).  It accepts a strict subset of what the line
 * loop rprnmf.io._ratings_by_line accepts, with the same values bit for
 * bit, and returns -1 for everything else, which that loop then reads.  A
 * timestamp is checked as a value and not kept.
 *
 * rpr_read_dense parses a dense CSV file's bytes whole, in one pass
 * (rprnmf.io._dense_whole), by the same line, padding and value rules, and
 * returns -1 for anything the line loop rprnmf.io._dense_by_line must
 * decide.  In both scans strtod_l in the C locale decides which value
 * tokens are numbers, and their values, so the process's locale cannot
 * change either.
 */
#define _GNU_SOURCE /* strtod_l */
#include <locale.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

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
                    /* role r reads only e1, role s only e2 */
                    double e1 = role[j] != 2 ? exp(dd[t]) : 0.0,
                           e2 = role[j] != 1 ? exp(-dd[n + t]) : 0.0;
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

/* The search state of rpr_ordering: the n x n distances, the path being
 * built with its used points, and the best path so far with its gap. */
struct ordering {
    const double *dist;
    int64_t n, *best, *path, *used;
    double best_gap;
};

/* Extends path[0 .. depth - 1], whose last hop has distance last_d and whose
 * consecutive distances rise by at least min_gap > best_gap, by every unused
 * point in ascending order.  A hop whose gap is not positive, or not wider
 * than the best path's, is pruned; so a whole path is always strictly wider
 * than the best and replaces it, and of equally wide paths the first found,
 * the lexicographically first, is kept.  The gap is min(min_gap, x) as
 * Python's min forms it: x only when strictly smaller, so a NaN x is
 * ignored. */
static void extend(struct ordering *o, int64_t depth, double last_d, double min_gap)
{
    if (depth == o->n) {
        o->best_gap = min_gap;
        memcpy(o->best, o->path, (size_t)o->n * sizeof *o->best);
        return;
    }
    const double *row = o->dist + o->path[depth - 1] * o->n;
    for (int64_t cand = 0; cand < o->n; cand++) {
        if (o->used[cand])
            continue;
        double x = row[cand] - last_d;
        double gap = x < min_gap ? x : min_gap;
        if (gap <= 0 || gap <= o->best_gap)
            continue;
        o->path[depth] = cand;
        o->used[cand] = 1;
        extend(o, depth + 1, row[cand], gap);
        o->used[cand] = 0;
    }
}

/* dist is n x n, C-contiguous, and work holds 3 * n zeros.  Writes to
 * work[0 .. n - 1] the ordering of all n points whose consecutive distances
 * strictly increase with the widest smallest rise between them, and returns
 * that rise; returns -inf, with those entries unwritten, when no ordering
 * increases.  A path starts at last distance -inf, so its first hop's gap
 * is +inf.  The rest of work is the search's own. */
double rpr_ordering(const double *dist, int64_t n, int64_t *work)
{
    struct ordering o = {dist, n, work, work + n, work + 2 * n, -INFINITY};
    for (int64_t first = 0; first < n; first++) {
        o.path[0] = first;
        o.used[first] = 1;
        extend(&o, 1, -INFINITY, INFINITY);
        o.used[first] = 0;
    }
    return o.best_gap;
}

static int is_digit(char c) { return c >= '0' && c <= '9'; }
static int is_pad(char c) { return c == ' ' || c == '\t'; }
static int is_eol(char c) { return c == '\n' || c == '\r'; }

/* p is at the end of a field's token: a space, a tab, a line end, the
 * separator's first byte or the end of the text */
static int at_stop(const char *p, const char *end, char sep0)
{
    return p == end || is_pad(*p) || is_eol(*p) || *p == sep0;
}

/* The digits at *p, at most max of them, into *u; how many there were, or
 * -1 if there were more.  *p moves past them. */
static int64_t digits(const char **p, const char *end, int64_t max, uint64_t *u)
{
    const char *s = *p, *t = s;
    uint64_t v = 0;
    for (; t < end && is_digit(*t); t++) {
        if (t - s == max)
            return -1;
        v = v * 10 + (uint64_t)(*t - '0');
    }
    *p = t;
    *u = v;
    return t - s;
}

/* An id at *p, [+-]?[0-9]+ as int() reads it, into *out; 0, or -1 when it
 * is not one or does not fit int64.  *p moves past it. */
static int parse_id(const char **p, const char *end, char sep0, int64_t *out)
{
    const char *t = *p;
    int neg = t < end && *t == '-';
    t += t < end && (*t == '+' || *t == '-');
    uint64_t u;
    /* 19 digits fit uint64, and the limits below are 19 digits long */
    if (digits(&t, end, 19, &u) < 1 || !at_stop(t, end, sep0)
        || u > (neg ? (uint64_t)INT64_MAX + 1 : (uint64_t)INT64_MAX))
        return -1;
    *out = neg && u ? -(int64_t)(u - 1) - 1 : (int64_t)u;
    *p = t;
    return 0;
}

/* A value at *p, as float() reads it, into *out; 0, or -1 when it is not
 * one this accepts.  *p moves past it.  An integer of 1 to 15 digits is
 * exact as a double; any other token goes to strtod_l in the C locale, and
 * counts only if strtod_l reads the whole of it.  In the C locale strtod
 * reads decimals, inf, infinity and nan, which float() reads too, and hex
 * and nan(...), which float() refuses: so a token with an x, an X or a (
 * is refused, and so is an empty one, which strtod reads as 0. */
static int parse_value(const char **p, const char *end, char sep0, locale_t c_locale,
                       double *out)
{
    const char *s = *p, *t = s + (s < end && (*s == '+' || *s == '-'));
    uint64_t u;
    if (digits(&t, end, 15, &u) > 0 && at_stop(t, end, sep0)) {
        *out = *s == '-' ? -(double)u : (double)u;
        *p = t;
        return 0;
    }
    const char *e = t;
    while (!at_stop(e, end, sep0))
        e++;
    char buf[64], *stop;
    size_t len = (size_t)(e - s);
    if (len == 0 || len >= sizeof buf || memchr(s, 'x', len) || memchr(s, 'X', len)
        || memchr(s, '(', len))
        return -1;
    memcpy(buf, s, len);
    buf[len] = '\0';
    *out = strtod_l(buf, &stop, c_locale);
    if (stop != buf + len)
        return -1;
    *p = e;
    return 0;
}

/* text is a ratings file's len bytes, with \n, \r\n or \r line ends.  A
 * line holds only spaces and tabs, or the fields user, item, rating and an
 * optional timestamp, separated by the seplen bytes of sep, each field
 * padded by spaces and tabs.  Ids are parsed as int64 and values as
 * doubles; the timestamp is parsed and dropped.  Lines of 3 and 4 fields
 * may mix.  The columns go to users, items and ratings, which hold cap
 * entries.
 *
 * Returns the number of data lines, or -1 for a text without one or with
 * anything else: a '#', any other byte, an id beyond int64, a value token
 * that is empty, 64 bytes or more long or not wholly read by strtod_l, more
 * than cap data lines.  Those are left to the line loop. */
int64_t rpr_read_ratings(const char *text, int64_t len, const char *sep, int64_t seplen,
                         int64_t cap, int64_t *users, int64_t *items, double *ratings)
{
    locale_t c_locale = newlocale(LC_ALL_MASK, "C", (locale_t)0);
    if (c_locale == (locale_t)0)
        return -1;
    const char *p = text, *end = text + len;
    int64_t rows = 0;
    while (p < end) {
        while (p < end && is_pad(*p))
            p++;
        if (p == end)
            break;
        if (is_eol(*p)) {
            p++;
            continue;
        }
        if (rows == cap)
            goto undecided;
        int64_t f = 0;
        double stamp;
        for (;;) {
            int bad = f == 0 ? parse_id(&p, end, sep[0], users + rows)
                    : f == 1 ? parse_id(&p, end, sep[0], items + rows)
                    : f == 2 ? parse_value(&p, end, sep[0], c_locale, ratings + rows)
                    : f == 3 ? parse_value(&p, end, sep[0], c_locale, &stamp) : -1;
            if (bad)
                goto undecided;
            f++;
            while (p < end && is_pad(*p))
                p++;
            if (end - p < seplen || memcmp(p, sep, (size_t)seplen) != 0)
                break;
            p += seplen;
            while (p < end && is_pad(*p))
                p++;
        }
        if (p < end && !is_eol(*p))
            goto undecided;
        if (f != 3 && f != 4)
            goto undecided;
        rows++;
    }
    freelocale(c_locale);
    return rows > 0 ? rows : -1;
undecided:
    freelocale(c_locale);
    return -1;
}

/* text is a dense CSV file's len bytes, with rpr_read_ratings' line ends: a
 * line holds only spaces and tabs, or values separated by commas, each
 * padded by spaces and tabs, read as rpr_read_ratings reads a rating.  The
 * values go to out, which holds cap entries, row after row.
 *
 * Returns the number of rows, with *width set to their common width, or -1
 * for a text without a row or with anything else: a '#', any other byte,
 * rows of unequal width, an empty value (so a trailing comma), a value
 * token 64 bytes or more long or not wholly read by strtod_l, more than
 * cap values.  Those are left to the line loop. */
int64_t rpr_read_dense(const char *text, int64_t len, int64_t cap, double *out, int64_t *width)
{
    locale_t c_locale = newlocale(LC_ALL_MASK, "C", (locale_t)0);
    if (c_locale == (locale_t)0)
        return -1;
    const char *p = text, *end = text + len;
    int64_t rows = 0, count = 0;
    while (p < end) {
        while (p < end && is_pad(*p))
            p++;
        if (p == end)
            break;
        if (is_eol(*p)) {
            p++;
            continue;
        }
        int64_t f = 0;
        for (;;) {
            if (count == cap || parse_value(&p, end, ',', c_locale, out + count))
                goto undecided;
            count++;
            f++;
            while (p < end && is_pad(*p))
                p++;
            if (p == end || is_eol(*p))
                break;
            if (*p++ != ',')
                goto undecided;
            while (p < end && is_pad(*p))
                p++;
        }
        if (rows > 0 && f != *width)
            goto undecided;
        *width = f;
        rows++;
    }
    freelocale(c_locale);
    return rows > 0 ? rows : -1;
undecided:
    freelocale(c_locale);
    return -1;
}
