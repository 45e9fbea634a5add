/* Compiled Todd-Coxeter coset enumeration (HLT with coincidences).
 *
 * The same algorithm as flatact/_coset_pure.py, step for step: the same
 * define order, coincidence queue and compaction, so the two return
 * identical tables.  Generator i is letter 2*i, its inverse 2*i + 1.  The
 * coset table is one flat int32 buffer of capacity * 2*ngens entries that
 * grows by doubling.
 *
 * Plain C with no Python headers: flatact.fpgroups compiles this file into
 * a shared library and calls it through ctypes.
 *
 *   fa_enumerate(ngens, letters, ends, nsub, nwords, limit, &state, &nlive)
 *       words[k] = letters[ends[k-1] .. ends[k]) (ends[-1] = 0); the first
 *       nsub words generate the subgroup, the rest are the relators.
 *       Returns FA_OK and sets state and nlive, or an error status (and
 *       frees everything).
 *   fa_compact(state, out)
 *       writes the nlive x 2*ngens compacted table to out, unless out is
 *       NULL, and frees state.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

enum { FA_OK = 0, FA_LIMIT = 1, FA_NOMEM = 2, FA_BADARG = 3 };

typedef struct {
    int64_t nl, limit, nrows, cap;
    int32_t *tbl, *p, *queue;
} hlt;

static void hlt_free(hlt *h)
{
    if (h) {
        free(h->tbl);
        free(h->p);
        free(h->queue);
        free(h);
    }
}

static int grow(hlt *h)
{
    int64_t cap = h->cap ? 2 * h->cap : 1024;
    int32_t *t;
    if (cap > (int64_t)INT32_MAX + 1)
        cap = (int64_t)INT32_MAX + 1;
    if ((t = realloc(h->tbl, (size_t)(cap * h->nl + 1) * sizeof *t)) == NULL)
        return FA_NOMEM;
    h->tbl = t;
    if ((t = realloc(h->p, (size_t)cap * sizeof *t)) == NULL)
        return FA_NOMEM;
    h->p = t;
    if ((t = realloc(h->queue, (size_t)cap * sizeof *t)) == NULL)
        return FA_NOMEM;
    h->queue = t;
    h->cap = cap;
    return FA_OK;
}

static int64_t rep(hlt *h, int64_t c)
{
    int32_t *p = h->p;
    while (p[c] != c) {
        p[c] = p[p[c]];
        c = p[c];
    }
    return c;
}

static int define(hlt *h, int64_t a, int64_t x)
{
    int64_t b = h->nrows;
    int status;
    if (b >= h->limit)
        return FA_LIMIT;
    if (b >= h->cap && (status = grow(h)) != FA_OK)
        return status;
    h->nrows = b + 1;
    h->p[b] = (int32_t)b;
    memset(h->tbl + b * h->nl, 0xff, (size_t)h->nl * sizeof *h->tbl);
    h->tbl[a * h->nl + x] = (int32_t)b;
    h->tbl[b * h->nl + (x ^ 1)] = (int32_t)a;
    return FA_OK;
}

static void merge(hlt *h, int64_t u, int64_t v, int64_t *qlen)
{
    u = rep(h, u);
    v = rep(h, v);
    if (u != v) {
        if (u > v) {
            int64_t t = u;
            u = v;
            v = t;
        }
        h->p[v] = (int32_t)u;
        h->queue[(*qlen)++] = (int32_t)v;
    }
}

static void coincidence(hlt *h, int64_t a, int64_t b)
{
    int64_t nl = h->nl, qlen = 0, qi = 0, x;
    int32_t *tbl = h->tbl;
    merge(h, a, b, &qlen);
    while (qi < qlen) {
        int64_t y = h->queue[qi++];
        for (x = 0; x < nl; x++) {
            int64_t d = tbl[y * nl + x], mu, nu, t;
            if (d == -1)
                continue;
            tbl[d * nl + (x ^ 1)] = -1;
            tbl[y * nl + x] = -1;
            mu = rep(h, y);
            nu = rep(h, d);
            if ((t = tbl[mu * nl + x]) != -1) {
                merge(h, nu, t, &qlen);
            } else if ((t = tbl[nu * nl + (x ^ 1)]) != -1) {
                merge(h, mu, t, &qlen);
            } else {
                tbl[mu * nl + x] = (int32_t)nu;
                tbl[nu * nl + (x ^ 1)] = (int32_t)mu;
            }
        }
    }
}

static int scan_and_fill(hlt *h, int64_t a, const int32_t *w, int64_t len)
{
    int64_t nl = h->nl, i = 0, j = len - 1, f = a, b = a, t;
    int status;
    for (;;) {
        while (i <= j && (t = h->tbl[f * nl + w[i]]) != -1) {
            f = t;
            i++;
        }
        if (i > j) {
            if (f != b)
                coincidence(h, f, b);
            return FA_OK;
        }
        while (j >= i && (t = h->tbl[b * nl + (w[j] ^ 1)]) != -1) {
            b = t;
            j--;
        }
        if (j < i) {
            coincidence(h, f, b);
            return FA_OK;
        }
        if (j == i) {
            h->tbl[f * nl + w[i]] = (int32_t)b;
            h->tbl[b * nl + (w[i] ^ 1)] = (int32_t)f;
            return FA_OK;
        }
        if ((status = define(h, f, w[i])) != FA_OK)
            return status;
    }
}

static int run(hlt *h, const int32_t *letters, const int64_t *ends,
               int64_t nsub, int64_t nwords)
{
    int64_t a, k, x, start;
    int status;
    for (k = 0, start = 0; k < nsub; start = ends[k++])
        if ((status = scan_and_fill(h, 0, letters + start, ends[k] - start)) != FA_OK)
            return status;
    for (a = 0; a < h->nrows; a++) {
        if (rep(h, a) != a)
            continue;
        for (k = nsub, start = nsub ? ends[nsub - 1] : 0; k < nwords; start = ends[k++]) {
            if ((status = scan_and_fill(h, a, letters + start, ends[k] - start)) != FA_OK)
                return status;
            if (rep(h, a) != a)
                break;
        }
        if (rep(h, a) != a)
            continue;
        for (x = 0; x < h->nl; x++)
            if (h->tbl[a * h->nl + x] == -1 && (status = define(h, a, x)) != FA_OK)
                return status;
    }
    return FA_OK;
}

int fa_enumerate(int32_t ngens, const int32_t *letters, const int64_t *ends,
                 int64_t nsub, int64_t nwords, int64_t limit,
                 void **state, int64_t *nlive)
{
    hlt *h;
    int64_t a, k, n = 0, nletters = nwords > 0 ? ends[nwords - 1] : 0;
    int status;
    *state = NULL;
    if (ngens < 0 || nsub < 0 || nsub > nwords || limit > INT32_MAX)
        return FA_BADARG;
    for (k = 0; k < nletters; k++)
        if (letters[k] < 0 || letters[k] >= 2 * (int64_t)ngens)
            return FA_BADARG;
    if ((h = calloc(1, sizeof *h)) == NULL)
        return FA_NOMEM;
    h->nl = 2 * (int64_t)ngens;
    h->limit = limit;
    if ((status = grow(h)) == FA_OK) {
        h->nrows = 1;
        h->p[0] = 0;
        memset(h->tbl, 0xff, (size_t)h->nl * sizeof *h->tbl);
        status = run(h, letters, ends, nsub, nwords);
    }
    if (status != FA_OK) {
        hlt_free(h);
        return status;
    }
    for (a = 0; a < h->nrows; a++)
        if (rep(h, a) == a)
            n++;
    *state = h;
    *nlive = n;
    return FA_OK;
}

void fa_compact(void *state, int32_t *out)
{
    hlt *h = state;
    int64_t nl = h->nl, i, x, row = 0;
    int32_t *renumber = h->queue;   /* free once the enumeration is done */
    if (out) {
        for (i = 0; i < h->nrows; i++)
            renumber[i] = rep(h, i) == i ? (int32_t)row++ : -1;
        for (i = 0, row = 0; i < h->nrows; i++) {
            if (renumber[i] == -1)
                continue;
            for (x = 0; x < nl; x++)
                out[row * nl + x] = renumber[rep(h, h->tbl[i * nl + x])];
            row++;
        }
    }
    hlt_free(h);
}
