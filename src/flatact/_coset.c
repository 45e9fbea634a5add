/* Compiled Todd-Coxeter coset enumeration (HLT with coincidences).
 *
 * The same algorithm as fpgroups._enumerate_pure: the same define order,
 * coincidence queue and compaction, so the two return identical tables.
 * Generator i is letter 2*i, its inverse 2*i + 1.  The coset table is one
 * flat int32 buffer of capacity * 2*ngens entries, which doubles when it
 * fills.  Where the pure engine keeps every coset it defines to the end,
 * this one renumbers: at the top of the HLT loop, whenever at least a
 * quarter of the rows in use are dead, the live cosets are numbered 0, 1,
 * ... in their current order and their rows moved down.  HLT's choices
 * depend only on the order of coset numbers (a coincidence keeps the
 * smaller coset, the next coset scanned is the next live one, a new coset
 * comes after all others), and renumbering keeps that order.  Between two
 * cosets the coincidence queue is empty and no live row points to a dead
 * coset, so the run goes on with the same choices and ends at the same
 * table.
 *
 * The table, the union-find parents and the coincidence queue live in one
 * buffer, from 128 KB on an anonymous mapping of its own, which grows in
 * place or moves its pages (mremap; where there is none, a new mapping
 * and a copy), and the table is handed over in it, shrunk to the live
 * rows.  So a large table that is freed returns its pages to the system,
 * and a later enumeration needs no more memory than the first: from the
 * heap, glibc's malloc would serve a large buffer by realloc, which
 * copies, once a freed large block has raised its mmap threshold.  Pages
 * of the mapping that no row has reached take no memory, so a doubling
 * costs only address space.
 *
 * The file also runs the backtracking of the low-index subgroup search,
 * node for node as fpgroups._low_index_pure: the same first undefined cell
 * (row-major), candidate order, relator-rotation scans and deductions,
 * row-0 least-table test at every node, and undo by trail, so both find
 * the same complete tables in the same order after the same number of
 * nodes.  Both keep explicit stacks: a search frame (40 bytes) per node
 * on the path, holding its undefined entry as a row and a letter, its
 * next candidate, row count and trail mark; and, while an assignment is
 * propagated, a deduction frame (24 bytes) per new entry whose scans are
 * not done, holding the coset to scan at, the letter the rotations start
 * with, the next rotation and the phase (the entry's row, then its image
 * with the inverse letter).  So the scans divide nothing by the letter
 * count.
 *
 * And it builds the Schreier-Sims stabilizer chain step for step as
 * groups.StabilizerChain: the same base points (the first point a residue
 * moves), the input generators sifted in order, the breadth-first orbit
 * and transversal (points in the order reached, generators in level
 * order), the Schreier generators by ascending orbit point and then
 * generator, the restart at the first that leaves a residue, and the
 * re-completion of every level from the residue's up.  So each level has
 * the same point, strong generators, orbit order and transversal.  A
 * level's transversal is allocated at its orbit length.
 *
 * Last, it labels each element of a group by the least element of its
 * conjugacy class, by union-find over the conjugation maps of the
 * generators: the fixpoint that groups._min_labels reaches by propagating
 * minima.
 *
 * Plain C with no Python headers: flatact.fpgroups compiles this file into
 * a shared library and calls it through ctypes.  The first three entry
 * points free their own state and hand their result over as one int32
 * buffer (a mapping or a heap block by its size, as the HLT buffer),
 * which Python views in place and gives back to fa_release: on FA_OK they
 * set buf and its length, on an error status they free everything and set
 * buf to NULL.
 *
 *   fa_enumerate(ngens, letters, ends, nsub, nwords, limit, &buf, &nlive)
 *       words[k] = letters[ends[k-1] .. ends[k]) (ends[-1] = 0); the first
 *       nsub words generate the subgroup, the rest are the relators.  buf
 *       is the compacted nlive x 2*ngens table.  FA_LIMIT when more than
 *       limit cosets would be defined, dead cosets included.
 *   fa_low_index(ngens, letters, ends, first, max_index, node_limit,
 *                &buf, &nints)
 *       the relator rotations are words as above; those that start with
 *       letter x are words first[x] .. first[x+1] - 1.  buf holds, for
 *       each complete table in the order found, its row count n and then
 *       its n x 2*ngens entries.  FA_LIMIT when the search would visit
 *       more than node_limit nodes.
 *   fa_schreier_sims(n, ngens, gens, &buf, &nints)
 *       the chain of the group generated by the ngens permutations
 *       gens[k*n .. (k+1)*n) of 0..n-1.  buf holds the level count, then
 *       for each level its point, generator count g and orbit length m,
 *       its g x n generators, its m orbit points in breadth-first order,
 *       the m x n transversal (row k maps the point to orbit point k) and
 *       the m x n inverses of its rows.  FA_BADARG when a generator is not
 *       a permutation.
 *   fa_release(buf, n)
 *       frees a buffer of n ints that one of the three above handed over
 *       (for fa_enumerate, n is nlive * 2*ngens).
 *   fa_validate(ngens, letters, ends, nrels, tbl, n, &which)
 *       the checks of fpgroups._validate_table, in its order, on the
 *       row-major n x 2*ngens table in place; the relators are words as
 *       above.  Returns 0 when the table passes, else the first fault:
 *       FV_EMPTY (no rows), FV_RANGE (an entry outside 0..n-1),
 *       FV_BIJECTION (column 2*which + 1 does not invert column 2*which)
 *       or FV_RELATOR (relator which does not close at some coset); -1
 *       for a letter out of range.
 *   fa_min_labels(n, nmaps, maps, out)
 *       writes to out[i] the least index in the component of i among
 *       0..n-1 under the nmaps maps maps[k*n .. (k+1)*n) (int64).
 *       Returns FA_OK, or FA_BADARG when a map entry is outside 0..n-1.
 */

#define _GNU_SOURCE     /* mremap */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>

enum { FA_OK = 0, FA_LIMIT = 1, FA_NOMEM = 2, FA_BADARG = 3 };

/* A buffer of n ints takes buf_bytes(n) bytes (one int more, so never
 * zero).  From MAPPED ints on (128 KB, where glibc's malloc starts with a
 * mapping too) it is an anonymous mapping of its own, below that a heap
 * block: a fresh mapping costs a system call and a page fault per page,
 * more than small results take to compute. */
enum { MAPPED = 1 << 15 };

static size_t buf_bytes(int64_t n)
{
    return (size_t)(n + 1) * sizeof(int32_t);
}

void fa_release(int32_t *buf, int64_t n)
{
    if (n < MAPPED)
        free(buf);
    else if (buf)
        munmap(buf, buf_bytes(n));
}

/* Resize the buffer *p of old ints (0 when *p is NULL) to n ints; on
 * failure *p is unchanged.  Linux grows and shrinks a mapping in place or
 * moves its pages; a buffer that crosses MAPPED, or a mapping elsewhere,
 * is copied. */
static int remap(int32_t **p, int64_t old, int64_t n)
{
    void *t;
    if (n < 0 || n > (int64_t)(SIZE_MAX / sizeof **p - 1))
        return FA_NOMEM;
    if (old < MAPPED && n < MAPPED)
        t = realloc(*p, buf_bytes(n));
#ifdef MREMAP_MAYMOVE
    else if (old >= MAPPED && n >= MAPPED)
        t = mremap(*p, buf_bytes(old), buf_bytes(n), MREMAP_MAYMOVE);
#endif
    else {
        t = n < MAPPED ? malloc(buf_bytes(n))
                       : mmap(NULL, buf_bytes(n), PROT_READ | PROT_WRITE,
                              MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (t != NULL && t != MAP_FAILED && *p) {
            memcpy(t, *p, buf_bytes(old < n ? old : n));
            fa_release(*p, old);
        }
    }
    if (t == NULL || t == MAP_FAILED)
        return FA_NOMEM;
    *p = t;
    return FA_OK;
}

/* Resize *p to rows x n ints (and one more, so never to zero bytes); on
 * failure *p is unchanged. */
static int resize(int32_t **p, int64_t rows, int64_t n)
{
    int32_t *t;
    if (n && rows > (int64_t)(SIZE_MAX / sizeof *t - 1) / n)
        return FA_NOMEM;
    if ((t = realloc(*p, (size_t)(rows * n + 1) * sizeof *t)) == NULL)
        return FA_NOMEM;
    *p = t;
    return FA_OK;
}

/* Walk w[*i .. *j] forward from coset *f and backward from coset *b
 * through defined entries.  Returns 1 when the walks meet, with every
 * letter crossed, or else 0 with w[*i .. *j] the letters still undefined
 * between *f and *b.  Inlined into both scans below. */
static inline int scan(const int32_t *tbl, int64_t nl, const int32_t *w,
                       int64_t *i, int64_t *j, int64_t *f, int64_t *b)
{
    int64_t t;
    while (*i <= *j && (t = tbl[*f * nl + w[*i]]) != -1) {
        *f = t;
        ++*i;
    }
    if (*i > *j)
        return 1;
    while (*j >= *i && (t = tbl[*b * nl + (w[*j] ^ 1)]) != -1) {
        *b = t;
        --*j;
    }
    return *j < *i;
}

/* nrows rows in use, of which ndead dead; ndef cosets defined since the
 * start, renumbered ones included, for the limit.  One buffer of
 * cap * (nl + 2) ints holds the cap rows of tbl, then p and the queue, cap
 * ints each. */
typedef struct {
    int64_t nl, limit, nrows, cap, ndead, ndef;
    int32_t *tbl, *p, *queue;
} hlt;

static void hlt_free(hlt *h)
{
    if (h) {
        fa_release(h->tbl, h->cap * (h->nl + 2));
        free(h);
    }
}

/* Double the capacity: the rows stay in place, p moves up behind them, and
 * the queue, empty between coincidences, behind p. */
static int grow(hlt *h)
{
    int64_t cap = h->cap ? 2 * h->cap : 1024, nl = h->nl;
    int status;
    if (cap > (int64_t)INT32_MAX + 1)
        cap = (int64_t)INT32_MAX + 1;
    if ((status = remap(&h->tbl, h->cap * (nl + 2), cap * (nl + 2))) != FA_OK)
        return status;
    memmove(h->tbl + cap * nl, h->tbl + h->cap * nl, (size_t)h->cap * sizeof *h->p);
    h->p = h->tbl + cap * nl;
    h->queue = h->p + cap;
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
    if (h->ndef >= h->limit)
        return FA_LIMIT;
    if (b >= h->cap && (status = grow(h)) != FA_OK)
        return status;
    h->ndef++;
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
        h->ndead++;
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
    int64_t nl = h->nl, i = 0, j = len - 1, f = a, b = a;
    int status;
    while (!scan(h->tbl, nl, w, &i, &j, &f, &b)) {
        if (j == i) {
            h->tbl[f * nl + w[i]] = (int32_t)b;
            h->tbl[b * nl + (w[i] ^ 1)] = (int32_t)f;
            return FA_OK;
        }
        if ((status = define(h, f, w[i])) != FA_OK)
            return status;
    }
    if (f != b)
        coincidence(h, f, b);
    return FA_OK;
}

/* Number the live cosets 0, 1, ... in order and move their rows down in
 * place; an undefined entry stays -1 and p becomes the identity.  Returns
 * the new number of the first live coset at or after row a < nrows (the
 * live count when there is none).  A parent is below its child, so in one
 * ascending pass p[i] becomes i's root, and in a second its root's new
 * number. */
static int64_t renumber(hlt *h, int64_t a)
{
    int64_t nl = h->nl, i, x, n = 0, first = 0;
    int32_t *p = h->p, *tbl = h->tbl;
    for (i = 0; i < h->nrows; i++)
        p[i] = p[p[i]];
    for (i = 0; i < h->nrows; i++)
        p[i] = p[i] == i ? (int32_t)n++ : p[p[i]];
    /* a dead coset's root got its number before it, so a row is live
     * exactly when its number is the count of live rows before it */
    for (i = 0, n = 0; i < h->nrows; i++) {
        if (i == a)
            first = n;
        if (p[i] != n)
            continue;
        for (x = 0; x < nl; x++) {
            int32_t c = tbl[i * nl + x];
            tbl[n * nl + x] = c == -1 ? -1 : p[c];
        }
        n++;
    }
    for (i = 0; i < n; i++)
        p[i] = (int32_t)i;
    h->nrows = n;
    h->ndead = 0;
    return first;
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
        if (4 * h->ndead >= h->nrows && (a = renumber(h, a)) == h->nrows)
            break;
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
                 int32_t **buf, int64_t *nlive)
{
    hlt *h;
    int64_t k, nletters = nwords > 0 ? ends[nwords - 1] : 0;
    int status;
    *buf = NULL;
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
        h->nrows = h->ndef = 1;
        h->p[0] = 0;
        memset(h->tbl, 0xff, (size_t)h->nl * sizeof *h->tbl);
        status = run(h, letters, ends, nsub, nwords);
    }
    if (status == FA_OK) {
        /* compact: renumber the live cosets and shrink the buffer to their
         * rows, which frees p and the queue */
        renumber(h, 0);
        status = remap(&h->tbl, h->cap * (h->nl + 2), h->nrows * h->nl);
    }
    if (status == FA_OK) {
        *buf = h->tbl;
        *nlive = h->nrows;
        h->tbl = NULL;
    }
    hlt_free(h);
    return status;
}

/* ---- low-index subgroup search ---- */

enum { LI_FAIL, LI_OK, LI_DEDUCED };

/* An entry (row, letter) of the table. */
typedef struct {
    int32_t row, letter;
} li_cell;

/* A deduction frame: the rotations next .. first[letter + 1] - 1 are still
 * to be scanned at coset `row`.  In phase 0 row and letter are the new
 * entry's, in phase 1 its image and the inverse letter. */
typedef struct {
    int64_t row, next;
    int32_t letter, phase;
} li_deduction;

/* A search frame: a node whose children are being tried.  (row, letter)
 * is its first undefined entry, next its next candidate, rows the row
 * count and mark the trail length when the node was entered. */
typedef struct {
    int64_t row, next, rows, mark;
    int32_t letter;
} li_node;

typedef struct {
    int64_t nl, max_index, nrows, ntrail, nout, outcap;
    const int32_t *letters;
    const int64_t *ends, *first;
    int32_t *tbl;           /* max_index x nl, -1 for an undefined entry */
    int32_t *number;        /* max_index: li_keeps's labels, -1 between calls */
    li_cell *trail;         /* the entries set since the search began */
    li_deduction *stack;    /* one frame per entry set by li_assign */
    li_node *frames;        /* one frame per node on the search path */
    int32_t *out;
} lix;

static void lix_free(lix *s)
{
    if (s) {
        free(s->tbl);
        free(s->number);
        free(s->trail);
        free(s->stack);
        free(s->frames);
        fa_release(s->out, s->outcap);
        free(s);
    }
}

/* Set entry (a, x) to b and its mirror, record it in the trail, and make
 * fr the deduction frame of the new entry. */
static void li_set(lix *s, li_deduction *fr, int64_t a, int32_t x, int64_t b)
{
    s->tbl[a * s->nl + x] = (int32_t)b;
    s->tbl[b * s->nl + (x ^ 1)] = (int32_t)a;
    s->trail[s->ntrail].row = (int32_t)a;
    s->trail[s->ntrail++].letter = x;
    fr->row = a;
    fr->next = s->first[x];
    fr->letter = x;
    fr->phase = 0;
}

/* Scan the rotation w[0 .. len) at coset `start`: LI_FAIL on a
 * contradiction; with exactly one gap return LI_DEDUCED and the entry
 * (*row, *letter) that fills it with *image. */
static int li_scan(const lix *s, const int32_t *w, int64_t len, int64_t start,
                   int64_t *row, int32_t *letter, int64_t *image)
{
    int64_t i = 0, j = len - 1, f = start, b = start;
    if (scan(s->tbl, s->nl, w, &i, &j, &f, &b))
        return f == b ? LI_OK : LI_FAIL;
    if (j > i)
        return LI_OK;   /* more than one gap: nothing to deduce yet */
    *row = f;
    *letter = w[i];
    *image = b;
    return LI_DEDUCED;
}

/* Set entry (a, x) to b and its mirror, then scan the rotations through
 * every new entry, depth first: at an entry (c, y) the rotations starting
 * with y at c, then those starting with y^-1 at the image of c.  Returns 0
 * on a contradiction. */
static int li_assign(lix *s, int64_t a, int32_t x, int64_t b)
{
    const int64_t *first = s->first, *ends = s->ends;
    li_deduction *stack = s->stack;
    int64_t sp = 1;
    li_set(s, stack, a, x, b);
    while (sp > 0) {
        li_deduction *fr = stack + sp - 1;
        int64_t r = fr->next, lo;
        if (r == first[fr->letter + 1]) {
            if (fr->phase) {
                sp--;
                continue;
            }
            fr->row = s->tbl[fr->row * s->nl + fr->letter];
            fr->letter ^= 1;
            fr->next = first[fr->letter];
            fr->phase = 1;
            continue;
        }
        fr->next = r + 1;
        lo = r ? ends[r - 1] : 0;
        switch (li_scan(s, s->letters + lo, ends[r] - lo, fr->row, &a, &x, &b)) {
        case LI_FAIL:
            return 0;
        case LI_DEDUCED:
            li_set(s, stack + sp++, a, x, b);
        }
    }
    return 1;
}

static void li_undo(lix *s, int64_t mark)
{
    int64_t nl = s->nl;
    while (s->ntrail > mark) {
        li_cell c = s->trail[--s->ntrail];
        int32_t *e = s->tbl + c.row * nl + c.letter, b = *e;
        *e = -1;
        if (b != -1)
            s->tbl[b * nl + (c.letter ^ 1)] = -1;
    }
}

static int li_record(lix *s)
{
    int64_t n = s->nrows * s->nl, need = s->nout + 1 + n;
    if (need > s->outcap) {
        int64_t cap = s->outcap ? 2 * s->outcap : 1024;
        int status;
        while (cap < need)
            cap *= 2;
        if ((status = remap(&s->out, s->outcap, cap)) != FA_OK)
            return status;
        s->outcap = cap;
    }
    s->out[s->nout] = (int32_t)s->nrows;
    memcpy(s->out + s->nout + 1, s->tbl, (size_t)n * sizeof *s->tbl);
    s->nout = need;
    return FA_OK;
}

/* The row-0 least-table test (fpgroups._row0_keeps): 0 when some row
 * r >= 1, relabelled with r as 0 and each coset not yet seen as the next
 * number, first differs from row 0 by a smaller entry, before an entry
 * undefined in either row.  Every completion of the table then has a
 * smaller standard table from r, so none is the least of its class. */
static int li_keeps(lix *s)
{
    int64_t nl = s->nl, r, x, k;
    const int32_t *own = s->tbl;
    int32_t *number = s->number;
    int keep = 1;
    for (r = 1; keep && r < s->nrows; r++) {
        const int32_t *row = s->tbl + r * nl;
        int32_t next = 1;
        number[r] = 0;
        for (x = 0; x < nl && own[x] != -1 && row[x] != -1; x++) {
            if (number[row[x]] == -1)
                number[row[x]] = next++;
            if (number[row[x]] != own[x]) {
                keep = number[row[x]] > own[x];
                break;
            }
        }
        number[r] = -1;
        for (k = 0; k <= x && k < nl; k++)
            if (row[k] != -1)
                number[row[k]] = -1;
    }
    return keep;
}

/* The backtracking of the search, with an explicit stack of frames in
 * place of recursion.  A node that fails li_keeps is a leaf. */
static int li_search(lix *s, int64_t node_limit)
{
    int64_t nl = s->nl, d = 0, nodes = 0, c, b;
    li_node *fr;
    int status;
    for (;;) {
        /* enter a node */
        if (++nodes > node_limit)
            return FA_LIMIT;
        if (li_keeps(s)) {
            for (c = 0; c < s->nrows * nl && s->tbl[c] != -1; c++)
                ;
            if (c == s->nrows * nl) {
                if ((status = li_record(s)) != FA_OK)
                    return status;
            } else {
                fr = s->frames + d++;
                fr->row = c / nl;
                fr->letter = (int32_t)(c % nl);
                fr->next = 0;
                fr->rows = s->nrows;
                fr->mark = s->ntrail;
            }
        }
        /* enter the next candidate of the deepest frame that has one: an
         * existing row whose letter^-1 entry is undefined, then a new row */
        for (;;) {
            if (d == 0)
                return FA_OK;
            fr = s->frames + d - 1;
            li_undo(s, fr->mark);
            s->nrows = fr->rows;
            for (b = fr->next; b < fr->rows && s->tbl[b * nl + (fr->letter ^ 1)] != -1; b++)
                ;
            if (b > fr->rows || (b == fr->rows && fr->rows >= s->max_index)) {
                d--;
                continue;
            }
            fr->next = b + 1;
            if (b == fr->rows)
                s->nrows++;
            if (li_assign(s, fr->row, fr->letter, b))
                break;
        }
    }
}

int fa_low_index(int32_t ngens, const int32_t *letters, const int64_t *ends,
                 const int64_t *first, int64_t max_index, int64_t node_limit,
                 int32_t **buf, int64_t *nints)
{
    lix *s;
    int64_t k, x, nl = 2 * (int64_t)ngens, ncells;
    int status;
    *buf = NULL;
    if (ngens < 0 || max_index < 1 || max_index > INT32_MAX || first[0] != 0)
        return FA_BADARG;
    for (x = 0; x < nl; x++)
        if (first[x + 1] < first[x])
            return FA_BADARG;
    for (k = 0; k < (first[nl] ? ends[first[nl] - 1] : 0); k++)
        if (letters[k] < 0 || letters[k] >= nl)
            return FA_BADARG;
    /* a search frame takes 40 bytes a cell, a deduction frame 24 and a
     * trail entry 8: refuse sizes whose byte counts overflow */
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
    /* every trail entry, deduction frame and search frame fills a cell */
    s->tbl = malloc((size_t)(ncells + 1) * sizeof *s->tbl);
    s->number = malloc((size_t)max_index * sizeof *s->number);
    s->trail = malloc((size_t)(ncells + 1) * sizeof *s->trail);
    s->stack = malloc((size_t)(ncells + 1) * sizeof *s->stack);
    s->frames = malloc((size_t)(ncells + 1) * sizeof *s->frames);
    if (!s->tbl || !s->number || !s->trail || !s->stack || !s->frames)
        status = FA_NOMEM;
    else {
        memset(s->tbl, 0xff, (size_t)(ncells + 1) * sizeof *s->tbl);
        memset(s->number, 0xff, (size_t)max_index * sizeof *s->number);
        status = li_search(s, node_limit);
    }
    /* shrink the output to its ints, or map it when no table was found */
    if (status == FA_OK && (status = remap(&s->out, s->outcap, s->nout)) == FA_OK) {
        *buf = s->out;
        *nints = s->nout;
        s->out = NULL;
    }
    lix_free(s);
    return status;
}

/* ---- class labels ---- */

/* The root of i's component, halving the path on the way: every parent
 * is below its child. */
static int64_t ml_root(int64_t *parent, int64_t i)
{
    while (parent[i] != i) {
        parent[i] = parent[parent[i]];
        i = parent[i];
    }
    return i;
}

int fa_min_labels(int64_t n, int64_t nmaps, const int64_t *maps, int64_t *out)
{
    int64_t i, k;
    if (n < 0 || nmaps < 0)
        return FA_BADARG;
    for (k = 0; k < nmaps * n; k++)
        if (maps[k] < 0 || maps[k] >= n)
            return FA_BADARG;
    for (i = 0; i < n; i++)
        out[i] = i;
    /* union by smaller root, so a component's root is its least index */
    for (k = 0; k < nmaps; k++)
        for (i = 0; i < n; i++) {
            int64_t u = ml_root(out, i), v = ml_root(out, maps[k * n + i]);
            if (u < v)
                out[v] = u;
            else
                out[u] = v;
        }
    /* a parent is below its child, so it holds its root when the child
     * is reached */
    for (i = 0; i < n; i++)
        out[i] = out[out[i]];
    return FA_OK;
}

/* ---- Schreier-Sims stabilizer chain ---- */

typedef struct {
    int32_t point, norbit;
    int64_t ngens, gcap;
    int32_t *gens;      /* ngens x n: the strong generators placed here */
    int32_t *orbit;     /* the orbit of point, in breadth-first order */
    int32_t *where;     /* n: the position of each point in orbit, or -1 */
    int32_t *trans;     /* norbit x n: row k maps point to orbit[k] */
    int32_t *inv;       /* norbit x n: the inverse of each row of trans */
} ss_level;

typedef struct {
    int64_t n, nlevels;
    ss_level *levels;   /* room for n: every level fixes one more point */
    int32_t *cur, *tmp; /* n: the permutation being sifted, and scratch */
    int32_t *parent, *via;  /* n: the breadth-first tree of an orbit */
} ssc;

static void ss_free(ssc *s)
{
    int64_t i;
    if (s) {
        for (i = 0; s->levels && i < s->nlevels; i++) {
            free(s->levels[i].gens);
            free(s->levels[i].orbit);
            free(s->levels[i].where);
            free(s->levels[i].trans);
            free(s->levels[i].inv);
        }
        free(s->levels);
        free(s->cur);
        free(s->tmp);
        free(s->parent);
        free(s->via);
        free(s);
    }
}

static int ss_is_identity(const int32_t *g, int64_t n)
{
    int64_t i;
    for (i = 0; i < n && g[i] == i; i++)
        ;
    return i == n;
}

/* Sift s->cur through the levels from start on (StabilizerChain._strip).
 * Returns 1 with the residue in s->cur and its level in *stop, or 0 when
 * it sifts to the identity. */
static int ss_strip(ssc *s, int64_t start, int64_t *stop)
{
    int64_t n = s->n, idx, i;
    for (idx = start; idx < s->nlevels; idx++) {
        ss_level *lev = s->levels + idx;
        int32_t k, *inv, *t;
        if (ss_is_identity(s->cur, n))
            return 0;
        if ((k = lev->where[s->cur[lev->point]]) < 0) {
            *stop = idx;
            return 1;
        }
        inv = lev->inv + k * n;
        for (i = 0; i < n; i++)
            s->tmp[i] = inv[s->cur[i]];
        t = s->cur;
        s->cur = s->tmp;
        s->tmp = t;
    }
    *stop = s->nlevels;
    return !ss_is_identity(s->cur, n);
}

/* Append s->cur to the generators of level `level`, which is new when it
 * equals nlevels: its point is the first point s->cur moves. */
static int ss_place(ssc *s, int64_t level)
{
    int64_t n = s->n, i;
    ss_level *lev = s->levels + level;
    int status;
    if (level == s->nlevels) {
        memset(lev, 0, sizeof *lev);
        s->nlevels++;
        for (i = 0; s->cur[i] == i; i++)
            ;
        lev->point = (int32_t)i;
        if ((lev->where = malloc((size_t)n * sizeof *lev->where)) == NULL)
            return FA_NOMEM;
        memset(lev->where, 0xff, (size_t)n * sizeof *lev->where);
    }
    if (lev->ngens == lev->gcap) {
        if ((status = resize(&lev->gens, lev->gcap ? 2 * lev->gcap : 4, n)) != FA_OK)
            return status;
        lev->gcap = lev->gcap ? 2 * lev->gcap : 4;
    }
    memcpy(lev->gens + lev->ngens++ * n, s->cur, (size_t)n * sizeof *s->cur);
    return FA_OK;
}

/* The orbit of the level's point under gens in breadth-first order (points
 * in the order reached, generators in order), with a transversal element
 * g * t_p for each new point q = g(p) (groups._orbit_transversal). */
static int ss_orbit(ssc *s, ss_level *lev, int32_t **gens, int64_t ng)
{
    int64_t n = s->n, norb = 1, k, j, x;
    int32_t *order = s->tmp;
    int status;
    for (k = 0; k < lev->norbit; k++)
        lev->where[lev->orbit[k]] = -1;
    order[0] = lev->point;
    lev->where[lev->point] = 0;
    for (k = 0; k < norb; k++)
        for (j = 0; j < ng; j++) {
            int32_t q = gens[j][order[k]];
            if (lev->where[q] < 0) {
                lev->where[q] = (int32_t)norb;
                order[norb] = q;
                s->parent[norb] = (int32_t)k;
                s->via[norb++] = (int32_t)j;
            }
        }
    if ((status = resize(&lev->orbit, norb, 1)) != FA_OK
        || (status = resize(&lev->trans, norb, n)) != FA_OK
        || (status = resize(&lev->inv, norb, n)) != FA_OK)
        return status;
    lev->norbit = (int32_t)norb;
    memcpy(lev->orbit, order, (size_t)norb * sizeof *order);
    for (x = 0; x < n; x++)
        lev->trans[x] = lev->inv[x] = (int32_t)x;
    for (k = 1; k < norb; k++) {
        int32_t *t = lev->trans + k * n, *u = lev->inv + k * n;
        const int32_t *g = gens[s->via[k]], *tp = lev->trans + s->parent[k] * n;
        for (x = 0; x < n; x++) {
            t[x] = g[tp[x]];
            u[t[x]] = (int32_t)x;
        }
    }
    return FA_OK;
}

/* StabilizerChain._complete: build the level's orbit under the generators
 * of it and every deeper level, then sift the Schreier generators
 * t_q^-1 * g * t_p, p in ascending order, g in order.  At the first that
 * leaves a residue, place it, complete every level from the residue's
 * down to level + 1, and start again. */
static int ss_complete(ssc *s, int64_t level)
{
    int64_t n = s->n;
    for (;;) {
        ss_level *lev = s->levels + level;
        int32_t **gens;
        int64_t ng = 0, i, j, p, x, stop;
        int status, added = 0;
        for (i = level; i < s->nlevels; i++)
            ng += s->levels[i].ngens;
        if ((gens = malloc((size_t)(ng + 1) * sizeof *gens)) == NULL)
            return FA_NOMEM;
        for (i = level, ng = 0; i < s->nlevels; i++)
            for (j = 0; j < s->levels[i].ngens; j++)
                gens[ng++] = s->levels[i].gens + j * n;
        status = ss_orbit(s, lev, gens, ng);
        for (p = 0; status == FA_OK && !added && p < n; p++) {
            const int32_t *tp;
            if (lev->where[p] < 0)
                continue;
            tp = lev->trans + lev->where[p] * n;
            for (j = 0; j < ng; j++) {
                const int32_t *g = gens[j], *u = lev->inv + lev->where[g[p]] * n;
                for (x = 0; x < n; x++)
                    s->cur[x] = u[g[tp[x]]];
                if (ss_strip(s, level + 1, &stop)) {
                    status = ss_place(s, stop);
                    for (i = stop; status == FA_OK && i > level; i--)
                        status = ss_complete(s, i);
                    added = 1;
                    break;
                }
            }
        }
        free(gens);
        if (status != FA_OK || !added)
            return status;
    }
}

int fa_schreier_sims(int64_t n, int64_t ngens, const int32_t *gens,
                     int32_t **buf, int64_t *nints)
{
    ssc *s;
    int64_t i, k, stop, level, total = 1;
    int status = FA_OK;
    *buf = NULL;
    if (n < 0 || n > INT32_MAX || ngens < 0)
        return FA_BADARG;
    if ((s = calloc(1, sizeof *s)) == NULL)
        return FA_NOMEM;
    s->n = n;
    s->levels = malloc((size_t)(n + 1) * sizeof *s->levels);
    s->cur = malloc((size_t)(n + 1) * sizeof *s->cur);
    s->tmp = malloc((size_t)(n + 1) * sizeof *s->tmp);
    s->parent = malloc((size_t)(n + 1) * sizeof *s->parent);
    s->via = malloc((size_t)(n + 1) * sizeof *s->via);
    if (!s->levels || !s->cur || !s->tmp || !s->parent || !s->via)
        status = FA_NOMEM;
    /* every generator must be a permutation of 0..n-1 */
    for (k = 0; status == FA_OK && k < ngens; k++) {
        memset(s->cur, 0, (size_t)n * sizeof *s->cur);
        for (i = 0; i < n; i++) {
            int32_t x = gens[k * n + i];
            if (x < 0 || x >= n || s->cur[x]++) {
                status = FA_BADARG;
                break;
            }
        }
    }
    /* StabilizerChain.__init__: sift the generators, then complete the
     * levels from the deepest up */
    for (k = 0; status == FA_OK && k < ngens; k++) {
        memcpy(s->cur, gens + k * n, (size_t)n * sizeof *s->cur);
        if (!ss_is_identity(s->cur, n) && ss_strip(s, 0, &stop))
            status = ss_place(s, stop);
    }
    for (level = s->nlevels - 1; status == FA_OK && level >= 0; level--)
        status = ss_complete(s, level);
    for (i = 0; status == FA_OK && i < s->nlevels; i++)
        total += 3 + s->levels[i].ngens * n + s->levels[i].norbit * (1 + 2 * n);
    if (status == FA_OK && (status = remap(buf, 0, total)) == FA_OK) {
        int32_t *out = *buf;
        *nints = total;
        *out++ = (int32_t)s->nlevels;
        for (i = 0; i < s->nlevels; i++) {
            ss_level *lev = s->levels + i;
            int64_t m;
            *out++ = lev->point;
            *out++ = (int32_t)lev->ngens;
            *out++ = lev->norbit;
            memcpy(out, lev->gens, (size_t)(m = lev->ngens * n) * sizeof *out);
            out += m;
            memcpy(out, lev->orbit, (size_t)lev->norbit * sizeof *out);
            out += lev->norbit;
            memcpy(out, lev->trans, (size_t)(m = lev->norbit * n) * sizeof *out);
            out += m;
            memcpy(out, lev->inv, (size_t)m * sizeof *out);
            out += m;
        }
    }
    ss_free(s);
    return status;
}

/* ---- coset table check ---- */

/* The relator walks go FV_BLOCK cosets at a time: they are independent, so
 * their loads overlap, which matters once the table outgrows the caches. */
enum { FV_EMPTY = 1, FV_RANGE, FV_BIJECTION, FV_RELATOR, FV_BLOCK = 256 };

int fa_validate(int32_t ngens, const int32_t *letters, const int64_t *ends,
                int64_t nrels, const int32_t *tbl, int64_t n, int64_t *which)
{
    int64_t nl = 2 * (int64_t)ngens, c, i, k, start;
    *which = 0;
    if (ngens < 0 || nrels < 0)
        return -1;
    for (k = 0; k < (nrels ? ends[nrels - 1] : 0); k++)
        if (letters[k] < 0 || letters[k] >= nl)
            return -1;
    if (n < 1)
        return FV_EMPTY;
    for (k = 0; k < n * nl; k++)
        if (tbl[k] < 0 || tbl[k] >= n)
            return FV_RANGE;
    for (i = 0; i < ngens; i++)
        for (c = 0; c < n; c++)
            if (tbl[tbl[c * nl + 2 * i] * nl + 2 * i + 1] != c) {
                *which = i;
                return FV_BIJECTION;
            }
    for (k = 0, start = 0; k < nrels; start = ends[k++])
        for (c = 0; c < n; c += FV_BLOCK) {
            int64_t d[FV_BLOCK], b, j, m = n - c < FV_BLOCK ? n - c : FV_BLOCK;
            for (b = 0; b < m; b++)
                d[b] = c + b;
            for (j = start; j < ends[k]; j++)
                for (b = 0; b < m; b++)
                    d[b] = tbl[d[b] * nl + letters[j]];
            for (b = 0; b < m; b++)
                if (d[b] != c + b) {
                    *which = k;
                    return FV_RELATOR;
                }
        }
    return FA_OK;
}
