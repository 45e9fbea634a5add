/* Compiled Todd-Coxeter coset enumeration (HLT with coincidences).
 *
 * The same algorithm as flatact/_coset_pure.py, step for step: the same
 * define order, coincidence queue and compaction, so the two return
 * identical tables.  Generator i is letter 2*i, its inverse 2*i + 1.  The
 * coset table is one flat int32 buffer of capacity * 2*ngens entries that
 * grows by doubling.
 *
 * The file also runs the backtracking of the low-index subgroup search,
 * node for node as fpgroups._low_index_pure: the same first undefined cell
 * (row-major), candidate order, relator-rotation scans and deductions, and
 * undo by trail, so both find the same complete tables in the same order
 * after the same number of nodes.
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
 *   fa_low_index(ngens, letters, ends, first, max_index, node_limit,
 *                &state, &nints)
 *       the relator rotations are words as above; those that start with
 *       letter x are words first[x] .. first[x+1] - 1.  Returns FA_OK and
 *       sets state and nints (the length of the result), or an error
 *       status (and frees everything); FA_LIMIT when the search would
 *       visit more than node_limit nodes.
 *   fa_low_index_take(state, out)
 *       writes the result to out, unless out is NULL, and frees state: for
 *       each complete table in the order found, its row count n and then
 *       its n x 2*ngens entries.
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

/* ---- low-index subgroup search ---- */

enum { LI_FAIL, LI_OK, LI_DEDUCED };

typedef struct {
    int64_t nl, max_index, nrows, ntrail, nout, outcap;
    const int32_t *letters;
    const int64_t *ends, *first;
    int32_t *tbl;       /* max_index x nl, -1 for an undefined entry */
    int64_t *trail;     /* the cells a*nl + x set since the search began */
    int64_t *stack;     /* deduction frames: cell, next rotation */
    int64_t *frames;    /* search frames: cell, next candidate, rows, mark, grew */
    int32_t *out;
} lix;

static void lix_free(lix *s)
{
    if (s) {
        free(s->tbl);
        free(s->trail);
        free(s->stack);
        free(s->frames);
        free(s->out);
        free(s);
    }
}

/* Scan rotation r at coset `start`: LI_FAIL on a contradiction; with
 * exactly one gap fill it, record the cell in *cell and the trail, and
 * return LI_DEDUCED. */
static int li_scan(lix *s, int64_t r, int64_t start, int64_t *cell)
{
    int64_t nl = s->nl, lo = r ? s->ends[r - 1] : 0;
    int64_t i = 0, j = s->ends[r] - lo - 1, f = start, b = start, t;
    const int32_t *w = s->letters + lo;
    int32_t *tbl = s->tbl;
    while (i <= j && (t = tbl[f * nl + w[i]]) != -1) {
        f = t;
        i++;
    }
    if (i > j)
        return f == b ? LI_OK : LI_FAIL;
    while (j >= i && (t = tbl[b * nl + (w[j] ^ 1)]) != -1) {
        b = t;
        j--;
    }
    if (j < i)
        return f == b ? LI_OK : LI_FAIL;
    if (j > i)
        return LI_OK;   /* more than one gap: nothing to deduce yet */
    tbl[f * nl + w[i]] = (int32_t)b;
    tbl[b * nl + (w[i] ^ 1)] = (int32_t)f;
    *cell = f * nl + w[i];
    s->trail[s->ntrail++] = *cell;
    return LI_DEDUCED;
}

/* Set entry (a, x) to b and its mirror, then scan the rotations through
 * every new entry, depth first: at a cell (c, y) the rotations starting
 * with y at c, then those starting with y^-1 at the image of c.  Returns 0
 * on a contradiction. */
static int li_assign(lix *s, int64_t a, int64_t x, int64_t b)
{
    int64_t nl = s->nl, sp = 1, cell = a * nl + x;
    int64_t *stack = s->stack;
    const int64_t *first = s->first;
    s->tbl[cell] = (int32_t)b;
    s->tbl[b * nl + (x ^ 1)] = (int32_t)a;
    s->trail[s->ntrail++] = cell;
    stack[0] = cell;
    stack[1] = 0;
    while (sp > 0) {
        int64_t *fr = stack + 2 * (sp - 1), c = fr[0], k = fr[1]++;
        int64_t y = c % nl, n1 = first[y + 1] - first[y];
        int64_t r, start;
        if (k < n1) {
            r = first[y] + k;
            start = c / nl;
        } else if (k < n1 + first[(y ^ 1) + 1] - first[y ^ 1]) {
            r = first[y ^ 1] + k - n1;
            start = s->tbl[c];
        } else {
            sp--;
            continue;
        }
        switch (li_scan(s, r, start, &cell)) {
        case LI_FAIL:
            return 0;
        case LI_DEDUCED:
            stack[2 * sp] = cell;
            stack[2 * sp + 1] = 0;
            sp++;
        }
    }
    return 1;
}

static void li_undo(lix *s, int64_t mark)
{
    int64_t nl = s->nl;
    while (s->ntrail > mark) {
        int64_t c = s->trail[--s->ntrail];
        int32_t b = s->tbl[c];
        s->tbl[c] = -1;
        if (b != -1)
            s->tbl[b * nl + ((c % nl) ^ 1)] = -1;
    }
}

static int li_record(lix *s)
{
    int64_t n = s->nrows * s->nl, need = s->nout + 1 + n;
    if (need > s->outcap) {
        int64_t cap = s->outcap ? 2 * s->outcap : 1024;
        int32_t *t;
        while (cap < need)
            cap *= 2;
        if ((t = realloc(s->out, (size_t)cap * sizeof *t)) == NULL)
            return FA_NOMEM;
        s->out = t;
        s->outcap = cap;
    }
    s->out[s->nout] = (int32_t)s->nrows;
    memcpy(s->out + s->nout + 1, s->tbl, (size_t)n * sizeof *s->tbl);
    s->nout = need;
    return FA_OK;
}

/* The backtracking of the search, with an explicit stack of frames in
 * place of recursion: a frame is a node whose children are being tried. */
static int li_search(lix *s, int64_t node_limit)
{
    int64_t nl = s->nl, d = 0, nodes = 0, c, b, *fr;
    int status;
    for (;;) {
        /* enter a node */
        if (++nodes > node_limit)
            return FA_LIMIT;
        for (c = 0; c < s->nrows * nl && s->tbl[c] != -1; c++)
            ;
        if (c == s->nrows * nl) {
            if ((status = li_record(s)) != FA_OK)
                return status;
        } else {
            fr = s->frames + 5 * d++;
            fr[0] = c;
            fr[1] = 0;
            fr[2] = s->nrows;
            fr[3] = -1;
        }
        /* enter the next candidate of the deepest frame that has one: an
         * existing row whose x^-1 entry is undefined, then a new row */
        for (;;) {
            if (d == 0)
                return FA_OK;
            fr = s->frames + 5 * (d - 1);
            if (fr[3] >= 0) {
                li_undo(s, fr[3]);
                s->nrows -= fr[4];
                fr[3] = -1;
            }
            for (b = fr[1]; b < fr[2] && s->tbl[b * nl + ((fr[0] % nl) ^ 1)] != -1; b++)
                ;
            if (b > fr[2] || (b == fr[2] && fr[2] >= s->max_index)) {
                d--;
                continue;
            }
            fr[1] = b + 1;
            fr[4] = b == fr[2];
            s->nrows += fr[4];
            fr[3] = s->ntrail;
            if (li_assign(s, fr[0] / nl, fr[0] % nl, b))
                break;
        }
    }
}

int fa_low_index(int32_t ngens, const int32_t *letters, const int64_t *ends,
                 const int64_t *first, int64_t max_index, int64_t node_limit,
                 void **state, int64_t *nints)
{
    lix *s;
    int64_t k, x, nl = 2 * (int64_t)ngens, ncells;
    int status;
    *state = NULL;
    if (ngens < 0 || max_index < 1 || max_index > INT32_MAX || first[0] != 0)
        return FA_BADARG;
    for (x = 0; x < nl; x++)
        if (first[x + 1] < first[x])
            return FA_BADARG;
    for (k = 0; k < (first[nl] ? ends[first[nl] - 1] : 0); k++)
        if (letters[k] < 0 || letters[k] >= nl)
            return FA_BADARG;
    /* the frames take 40 bytes a cell: refuse sizes whose byte counts overflow */
    if (nl && max_index > INT64_MAX / 64 / nl)
        return FA_NOMEM;
    if ((s = calloc(1, sizeof *s)) == NULL)
        return FA_NOMEM;
    ncells = max_index * nl;
    s->nl = nl;
    s->max_index = max_index;
    s->nrows = 1;
    s->letters = letters;
    s->ends = ends;
    s->first = first;
    /* every trail entry, deduction frame and search level fills a cell */
    s->tbl = malloc((size_t)(ncells + 1) * sizeof *s->tbl);
    s->trail = malloc((size_t)(ncells + 1) * sizeof *s->trail);
    s->stack = malloc((size_t)(2 * ncells + 2) * sizeof *s->stack);
    s->frames = malloc((size_t)(5 * ncells + 5) * sizeof *s->frames);
    if (!s->tbl || !s->trail || !s->stack || !s->frames)
        status = FA_NOMEM;
    else {
        memset(s->tbl, 0xff, (size_t)(ncells + 1) * sizeof *s->tbl);
        status = li_search(s, node_limit);
    }
    if (status != FA_OK) {
        lix_free(s);
        return status;
    }
    *state = s;
    *nints = s->nout;
    return FA_OK;
}

void fa_low_index_take(void *state, int32_t *out)
{
    lix *s = state;
    if (out && s->nout)
        memcpy(out, s->out, (size_t)s->nout * sizeof *out);
    lix_free(s);
}
