/* Compiled Todd-Coxeter coset enumeration (HLT with coincidences).
 *
 * The same algorithm as enumerate_cosets of the tests' pure-Python
 * reference engine, tests/engine_oracle.py: the same define order,
 * coincidence queue and compaction, so the two return identical tables.
 * Generator i is letter 2*i, its inverse 2*i + 1.  The coset table is one
 * flat int32 buffer of capacity * 2*ngens entries, which doubles when it
 * fills.  Where the reference keeps every coset it defines to the end,
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
 * The file also runs the backtracking of the low-index subgroup search
 * with the nodes and tables of the reference's low_index: the same first
 * undefined cell (row-major), candidate order, relator-rotation scans and
 * deductions, row-0 least-table test at every node, and undo by trail, so
 * both visit the same nodes and find the same complete tables in the same
 * order.  Both keep explicit stacks: a search frame (40 bytes) per node
 * on the path, holding its undefined entry as a row and a letter, its
 * next candidate, row count and trail mark; and, while an assignment is
 * propagated, a deduction frame (24 bytes) per new entry whose scans are
 * not done, holding the coset to scan at, the letter the rotations start
 * with, the next rotation and the phase (the entry's row, then its image
 * with the inverse letter).  So the scans divide nothing by the letter
 * count.  On several CPUs the tree is split into subtrees: the search
 * down to depth LI_SPLIT hands each node there over as a job, the path of
 * choices that led to it, and keeps the tables it finds above that depth
 * in place.  Worker threads, one per CPU of the process's affinity mask
 * and at most FA_WORKERS, take the jobs in turn; each replays a job's
 * path on a search state of its own and runs the same search below it
 * into a buffer of the job's.  The buffers are joined in job order, so
 * the tables come out in the serial order, and the nodes of the split
 * loop and of the workers add up to the serial count.
 *
 * And it builds the Schreier-Sims stabilizer chain of
 * groups.StabilizerChain step for step as the reference's StabilizerChain:
 * the same base points (the first point a residue moves), the input
 * generators sifted in order, the breadth-first orbit and transversal
 * (points in the order reached, generators in level order), the Schreier
 * generators by ascending orbit point and then generator, the restart at
 * the first that leaves a residue, and the re-completion of every level
 * from the residue's up.  So each level has the same point, strong
 * generators, orbit, where, transversal and inverses.  A level's
 * transversal is allocated at its orbit length.
 *
 * Last, it builds the element index of a permutation group
 * (groups.ElementIndex).  The element rows are the products of the level
 * transversals of the chain, sorted lexicographically; each element is
 * labelled by the least element of its conjugacy class, by union-find over
 * the conjugation maps of the generators, and carries the order of that
 * least element.  A conjugation map is read off the sorted conjugates of
 * the rows, which must be the rows again.  Both sorts are one LSD radix
 * sort of the rows packed into 64-bit words, each column offset by its
 * least entry, so every degree takes the same path and a group with small
 * orbits packs tight.  The results equal those of sorted_rows and
 * class_labels of the reference, which sorts and labels with numpy.
 *
 * Plain C and POSIX threads, with no Python headers: flatact.fpgroups
 * compiles this file into a shared library and calls it through ctypes.
 * The first three entry points free their own state and hand their
 * result over as one int32 buffer (a mapping or a heap block by its size,
 * as the HLT buffer), which Python views in place and gives back to
 * fa_release: on FA_OK they set buf and its length, on an error status
 * they free everything and set buf to NULL.  fa_sorted_rows and
 * fa_class_labels write into arrays of the caller.
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
 *       more than node_limit nodes; workers stop early once the nodes
 *       counted pass it.
 *   fa_schreier_sims(n, ngens, gens, &buf, &nints)
 *       the chain of the group generated by the ngens permutations
 *       gens[k*n .. (k+1)*n) of 0..n-1.  buf holds the level count, then
 *       for each level its point, generator count g and orbit length m,
 *       its g x n generators, its m orbit points in breadth-first order,
 *       where (n entries: the place of each point in the orbit, or -1),
 *       the m x n transversal (row k maps the point to orbit point k) and
 *       the m x n inverses of its rows: each level is the layout of
 *       groups._Level, which views it in place.  FA_BADARG when a
 *       generator is not a permutation.
 *   fa_release(buf, n)
 *       frees a buffer of n ints that one of the three above handed over
 *       (for fa_enumerate, n is nlive * 2*ngens).
 *   fa_validate(ngens, letters, ends, nrels, tbl, n, &which)
 *       the checks of the reference's validate_table, in its order, on the
 *       row-major n x 2*ngens table in place; the relators are words as
 *       above.  Returns 0 when the table passes, else the first fault:
 *       FV_EMPTY (no rows), FV_RANGE (an entry outside 0..n-1),
 *       FV_BIJECTION (column 2*which + 1 does not invert column 2*which)
 *       or FV_RELATOR (relator which does not close at some coset); -1
 *       for a letter out of range.  On a large table the relators are
 *       checked on the workers, and the first that fails is reported.
 *   fa_sorted_rows(n, w, nlevels, sizes, trans, out)
 *       the elements of the group whose chain has nlevels levels with
 *       sizes[i] transversal rows each, level i's at trans[i] (int32,
 *       sizes[i] x n): their product rows, sorted, go to out, prod(sizes)
 *       x n points of w bytes each (1, 2 or 4).
 *       FA_BADARG for an entry outside 0..n-1 or a size out of range.
 *   fa_class_labels(n, w, N, rows, ngens, gens, class_of, reps, orders,
 *                   &nclasses)
 *       for the N sorted, distinct rows of n points of w bytes each and
 *       the ngens generators gens[k*n .. (k+1)*n) (int32), numbers the
 *       conjugacy classes 0, 1, ... by their least rows: writes to
 *       class_of[i] the class of row i, to reps[c] the least row of class
 *       c and to orders[i] the order of row i (int64), and sets nclasses.
 *       FA_NOTCLOSED when the rows are not closed under conjugation by a
 *       generator, FA_BADARG for an entry outside 0..n-1 or a generator
 *       that is not a permutation.
 *   fa_workers()
 *       the threads that fa_low_index and fa_validate may split their
 *       work across: the CPUs of the affinity mask, at most FA_WORKERS.
 */

#define _GNU_SOURCE     /* mremap, sched_getaffinity */
#include <pthread.h>
#include <sched.h>
#include <stdatomic.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>

enum { FA_OK = 0, FA_LIMIT = 1, FA_NOMEM = 2, FA_BADARG = 3, FA_NOTCLOSED = 4 };

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

/* ---- worker threads ---- */

/* The searches and checks below that split into jobs run them on at most
 * FA_WORKERS threads. */
enum { FA_WORKERS = 8 };

int fa_workers(void)
{
#ifdef CPU_COUNT
    cpu_set_t set;
    int n;
    if (sched_getaffinity(0, sizeof set, &set) == 0 && (n = CPU_COUNT(&set)) > 1)
        return n < FA_WORKERS ? n : FA_WORKERS;
#endif
    return 1;
}

/* Run fn(arg) on `threads` threads of its own and wait for them.  fn takes
 * its jobs in turn from a counter in arg, so the threads that start do the
 * share of one that cannot; when one thread is asked for, or none starts,
 * the caller runs fn itself. */
static void fa_run(int64_t threads, void *(*fn)(void *), void *arg)
{
    pthread_t tid[FA_WORKERS];
    int64_t k, started = 0;
    for (k = 0; threads > 1 && k < threads && k < FA_WORKERS; k++)
        if (pthread_create(tid + started, NULL, fn, arg) == 0)
            started++;
    if (started == 0)
        fn(arg);
    for (k = 0; k < started; k++)
        pthread_join(tid[k], NULL);
}

/* ---- low-index subgroup search ---- */

enum { LI_FAIL, LI_OK, LI_DEDUCED };

/* On more than one worker the search splits at this depth: each node there
 * is a job (E7 to index 16: 164 nodes above it, and 361 jobs). */
enum { LI_SPLIT = 6 };

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

/* A step on the path to a job: a node's first undefined entry (row,
 * letter), the candidate it took there and its row count. */
typedef struct {
    int32_t row, letter, cand, rows;
} li_step;

/* A job: the node at the end of `path`, the place of its tables among
 * those of the split loop, and the tables of its subtree (nout of outcap
 * ints at out). */
typedef struct {
    li_step path[LI_SPLIT];
    int64_t pos, nout, outcap;
    int32_t *out;
} li_job;

/* What the searches of one fa_low_index call share: the relator
 * rotations, the limits and the jobs, read-only once the workers start,
 * and three counters. */
typedef struct {
    int64_t nl, max_index, node_limit, njobs, jobcap;
    const int32_t *letters;
    const int64_t *ends, *first;
    li_job *jobs;
    _Atomic int64_t total;  /* the nodes of the searches that have ended */
    _Atomic int64_t next;   /* the next job to take */
    _Atomic int status;     /* the first error of a worker */
} li_shared;

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

/* A search state at the root: an empty table of max_index rows, one of
 * them in use. */
static lix *lix_alloc(const li_shared *sh)
{
    int64_t ncells = sh->max_index * sh->nl;
    lix *s = calloc(1, sizeof *s);
    if (s == NULL)
        return NULL;
    s->nl = sh->nl;
    s->max_index = sh->max_index;
    s->nrows = 1;
    s->letters = sh->letters;
    s->ends = sh->ends;
    s->first = sh->first;
    /* every trail entry, deduction frame and search frame fills a cell */
    s->tbl = malloc((size_t)(ncells + 1) * sizeof *s->tbl);
    s->number = malloc((size_t)sh->max_index * sizeof *s->number);
    s->trail = malloc((size_t)(ncells + 1) * sizeof *s->trail);
    s->stack = malloc((size_t)(ncells + 1) * sizeof *s->stack);
    s->frames = malloc((size_t)(ncells + 1) * sizeof *s->frames);
    if (!s->tbl || !s->number || !s->trail || !s->stack || !s->frames) {
        lix_free(s);
        return NULL;
    }
    memset(s->tbl, 0xff, (size_t)(ncells + 1) * sizeof *s->tbl);
    memset(s->number, 0xff, (size_t)sh->max_index * sizeof *s->number);
    return s;
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

/* The row-0 least-table test (row0_keeps of the reference): 0 when some row
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

/* Hand the node s is at, at depth d, over as a job: the steps of the
 * frames above it, and the place of its tables among those recorded so
 * far.  A worker counts the job's node, so FA_LIMIT when the nodes
 * entered and the jobs exceed the node limit. */
static int li_hand_over(lix *s, li_shared *sh, int64_t d, int64_t nodes)
{
    li_job *job;
    int64_t k;
    if (nodes + sh->njobs >= sh->node_limit)
        return FA_LIMIT;
    if (sh->njobs == sh->jobcap) {
        int64_t cap = sh->jobcap ? 2 * sh->jobcap : 64;
        if ((uint64_t)cap > SIZE_MAX / sizeof *job
            || (job = realloc(sh->jobs, (size_t)cap * sizeof *job)) == NULL)
            return FA_NOMEM;
        sh->jobs = job;
        sh->jobcap = cap;
    }
    job = sh->jobs + sh->njobs++;
    for (k = 0; k < d; k++) {
        const li_node *fr = s->frames + k;
        job->path[k].row = (int32_t)fr->row;
        job->path[k].letter = fr->letter;
        job->path[k].cand = (int32_t)(fr->next - 1);
        job->path[k].rows = (int32_t)fr->rows;
    }
    job->pos = s->nout;
    job->nout = job->outcap = 0;
    job->out = NULL;
    return FA_OK;
}

/* The backtracking of the search below the node s is at, with an explicit
 * stack of frames in place of recursion.  A node that fails li_keeps is a
 * leaf.  A node at depth `split` below the start is not entered but handed
 * over as a job; split -1 splits nothing.  The nodes entered are added to
 * sh->total at the end, and the search stops with FA_LIMIT as soon as they
 * and sh->total exceed the node limit. */
static int li_search(lix *s, li_shared *sh, int64_t split)
{
    int64_t nl = s->nl, d = 0, nodes = 0, c, b;
    li_node *fr;
    int status = FA_OK;
    for (;;) {
        if (d == split)
            status = li_hand_over(s, sh, d, nodes);
        else if (++nodes + atomic_load_explicit(&sh->total, memory_order_relaxed)
                 > sh->node_limit)
            status = FA_LIMIT;
        else if (li_keeps(s)) {
            /* enter the node */
            for (c = 0; c < s->nrows * nl && s->tbl[c] != -1; c++)
                ;
            if (c == s->nrows * nl)
                status = li_record(s);
            else {
                fr = s->frames + d++;
                fr->row = c / nl;
                fr->letter = (int32_t)(c % nl);
                fr->next = 0;
                fr->rows = s->nrows;
                fr->mark = s->ntrail;
            }
        }
        if (status != FA_OK)
            break;
        /* enter the next candidate of the deepest frame that has one: an
         * existing row whose letter^-1 entry is undefined, then a new row */
        for (;;) {
            if (d == 0)
                goto done;
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
done:
    atomic_fetch_add_explicit(&sh->total, nodes, memory_order_relaxed);
    return status;
}

/* A worker: with a search state of its own it takes the jobs in turn,
 * from the last, replays each job's path, which assigns as it did in the
 * split loop, searches the subtree there and keeps its tables in the job.
 * The last candidate of a node is a new row, the one with the most room
 * below it, so the last jobs tend to be the largest, and started first
 * they do not hold up the end (E7 to index 16: the last of 361 jobs has
 * 2,687 of the 25,494 nodes below the split).  A worker stops at the
 * first error of any worker. */
static void *li_worker(void *arg)
{
    li_shared *sh = arg;
    lix *s = lix_alloc(sh);
    int64_t j, k;
    int status = s ? FA_OK : FA_NOMEM, ok = FA_OK;
    while (status == FA_OK && atomic_load(&sh->status) == FA_OK
           && (j = atomic_fetch_add(&sh->next, 1)) < sh->njobs) {
        li_job *job = sh->jobs + sh->njobs - 1 - j;
        for (k = 0; k < LI_SPLIT; k++) {
            const li_step *p = job->path + k;
            s->nrows = p->cand == p->rows ? p->rows + 1 : p->rows;
            li_assign(s, p->row, p->letter, p->cand);
        }
        status = li_search(s, sh, -1);
        job->out = s->out;
        job->nout = s->nout;
        job->outcap = s->outcap;
        s->out = NULL;
        s->nout = s->outcap = 0;
        li_undo(s, 0);
        s->nrows = 1;
    }
    if (status != FA_OK)
        atomic_compare_exchange_strong(&sh->status, &ok, status);
    lix_free(s);
    return NULL;
}

/* Put the tables of the jobs in their places among those of the split
 * loop, in s->out, at their size. */
static int li_join(lix *s, const li_shared *sh)
{
    int64_t n = s->nout, j, at = 0, from = 0;
    int32_t *out = NULL;
    int status;
    for (j = 0; j < sh->njobs; j++)
        n += sh->jobs[j].nout;
    if ((status = remap(&out, 0, n)) != FA_OK)
        return status;
    for (j = 0; j <= sh->njobs; j++) {
        const li_job *job = sh->jobs + j;
        int64_t pos = j < sh->njobs ? job->pos : s->nout;
        if (pos > from)
            memcpy(out + at, s->out + from, (size_t)(pos - from) * sizeof *out);
        at += pos - from;
        from = pos;
        if (j < sh->njobs && job->nout) {
            memcpy(out + at, job->out, (size_t)job->nout * sizeof *out);
            at += job->nout;
        }
    }
    fa_release(s->out, s->outcap);
    s->out = out;
    s->nout = s->outcap = n;
    return FA_OK;
}

int fa_low_index(int32_t ngens, const int32_t *letters, const int64_t *ends,
                 const int64_t *first, int64_t max_index, int64_t node_limit,
                 int32_t **buf, int64_t *nints)
{
    li_shared sh = {0};
    lix *s;
    int64_t k, x, nl = 2 * (int64_t)ngens, workers = fa_workers();
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
    sh.nl = nl;
    sh.max_index = max_index;
    sh.node_limit = node_limit;
    sh.letters = letters;
    sh.ends = ends;
    sh.first = first;
    if ((s = lix_alloc(&sh)) == NULL)
        return FA_NOMEM;
    /* on one CPU the split loop is the whole search; on more, its jobs go
     * to the workers, and the search fails when the nodes of all exceed
     * the limit */
    status = li_search(s, &sh, workers > 1 ? LI_SPLIT : -1);
    if (status == FA_OK && sh.njobs) {
        fa_run(workers < sh.njobs ? workers : sh.njobs, li_worker, &sh);
        if ((status = atomic_load(&sh.status)) == FA_OK && atomic_load(&sh.total) > node_limit)
            status = FA_LIMIT;
        if (status == FA_OK)
            status = li_join(s, &sh);
    }
    /* shrink the output to its ints, or map it when no table was found */
    if (status == FA_OK && (status = remap(&s->out, s->outcap, s->nout)) == FA_OK) {
        *buf = s->out;
        *nints = s->nout;
        s->out = NULL;
    }
    for (k = 0; k < sh.njobs; k++)
        fa_release(sh.jobs[k].out, sh.jobs[k].outcap);
    free(sh.jobs);
    lix_free(s);
    return status;
}

/* ---- element index ---- */

/* Entry k of an array of points of w bytes each (1, 2 or 4: numpy's
 * smallest unsigned type for the degree). */
static inline int64_t ei_get(const void *a, int64_t w, int64_t k)
{
    return w == 1 ? ((const uint8_t *)a)[k]
         : w == 2 ? ((const uint16_t *)a)[k] : ((const uint32_t *)a)[k];
}

static inline void ei_put(void *a, int64_t w, int64_t k, int64_t v)
{
    if (w == 1)
        ((uint8_t *)a)[k] = (uint8_t)v;
    else if (w == 2)
        ((uint16_t *)a)[k] = (uint16_t)v;
    else
        ((uint32_t *)a)[k] = (uint32_t)v;
}

/* A sort of N rows of n points each, stored row by row.  The key of a row
 * holds in column c its entry there less cmin[c], the least entry the
 * column can hold, in b bits: b = bit_length of the widest span of a
 * column (0 when every column holds one value).  So the keys order the
 * rows as the rows do.  The sort moves items, one 64-bit word a row: a
 * word of its key above the row's number, which takes the low ib =
 * bit_length(N - 1) bits.  A key word has `per` columns, the first
 * highest; the words are whole from the last column back, so the first
 * word has the first `first` columns.  The sort keeps the items, their
 * scratch, and the EI_RADIX counts of two passes, which fit in L1. */
enum { EI_BITS = 12, EI_RADIX = 1 << EI_BITS };

typedef struct {
    int64_t n, w, N, b, ib, per, first, D;
    int64_t *cmin;
    uint64_t *item, *item2;
    int32_t count[EI_RADIX], next[EI_RADIX];
} eis;

static void eis_free(eis *e)
{
    if (e) {
        free(e->cmin);
        free(e->item);
        free(e->item2);
        free(e);
    }
}

/* The sort of N rows whose column c holds entries from cmin[c] to
 * cmax[c]; it takes over cmin. */
static eis *eis_alloc(int64_t n, int64_t w, int64_t N, int64_t *cmin, const int64_t *cmax)
{
    eis *e = calloc(1, sizeof *e);
    int64_t c, span = 0;
    if (e == NULL) {
        free(cmin);
        return NULL;
    }
    e->n = n;
    e->w = w;
    e->N = N;
    e->cmin = cmin;
    for (c = 0; c < n; c++)
        span = cmax[c] - cmin[c] > span ? cmax[c] - cmin[c] : span;
    for (e->b = 0; span >> e->b; e->b++)
        ;
    for (e->ib = 0; (N - 1) >> e->ib > 0; e->ib++)
        ;
    e->per = e->b ? (64 - e->ib) / e->b : n;
    e->first = n ? n - e->per * ((n - 1) / e->per) : 0;
    /* a pass costs O(N + 2^D), so D grows with N up to EI_BITS */
    for (e->D = 1; e->D < EI_BITS && (INT64_C(1) << e->D) < N; e->D++)
        ;
    e->item = malloc((size_t)(N + 1) * sizeof *e->item);
    e->item2 = malloc((size_t)(N + 1) * sizeof *e->item2);
    if (!e->item || !e->item2) {
        eis_free(e);
        return NULL;
    }
    return e;
}

/* The row at place j, and the first key word of that row, once sorted. */
static inline int64_t eis_row(const eis *e, int64_t j)
{
    return (int64_t)(e->item[j] & ((UINT64_C(1) << e->ib) - 1));
}

static inline uint64_t eis_key(const eis *e, int64_t j)
{
    return e->item[j] >> e->ib;
}

/* The key word of columns c0 .. c1-1 of a row whose key column c holds
 * val[] of its entry col[c].  Sets bits of *out when an entry does not
 * fit its column's b bits: then the row is not one of the rows the sort
 * is for. */
static inline uint64_t eis_pack(const eis *e, const unsigned char *row, int64_t c0,
                                int64_t c1, const int32_t *col, const int32_t *val,
                                uint64_t *out)
{
    const int64_t *cmin = e->cmin, w = e->w, b = e->b;
    uint64_t k = 0, high = 0;
    for (; c0 < c1; c0++) {
        uint64_t v = (uint64_t)(val[ei_get(row, w, col[c0])] - cmin[c0]);
        high |= v;
        k = k << b | v;
    }
    *out |= high >> b;
    return k;
}

/* Order the rows lexicographically by their keys: an LSD radix sort, word
 * by word from the last.  Each word is packed into the items in their
 * current order and sorted by one stable counting pass per digit of D
 * bits, from the lowest; a pass where every item has one digit is
 * skipped.  The counts of a pass are taken while the items are packed or
 * moved by the pass before.  Returns 1 when an entry did not fit its
 * column, else 0. */
static int eis_sort(eis *e, const void *rows, const int32_t *col, const int32_t *val)
{
    int64_t n = e->n, N = e->N, D = e->D, c0, c1, j, lo, v, ready;
    int32_t *count = e->count, *next = e->next;
    uint64_t mask = (UINT64_C(1) << D) - 1, out = 0;
    size_t counts = (size_t)(mask + 1) * sizeof *count;
    for (j = 0; j < N; j++)
        e->item[j] = (uint64_t)j;
    for (c1 = n; c1 > 0; c1 = c0) {
        int64_t top;
        c0 = c1 > e->per ? c1 - e->per : 0;
        top = e->ib + (c1 - c0) * e->b;
        memset(count, 0, counts);
        for (j = 0; j < N; j++) {
            int64_t r = eis_row(e, j);
            uint64_t x = eis_pack(e, (const unsigned char *)rows + r * n * e->w, c0, c1,
                                  col, val, &out) << e->ib | (uint64_t)r;
            e->item[j] = x;
            count[x >> e->ib & mask]++;
        }
        for (lo = e->ib, ready = 1; N > 1 && lo < top; lo += D) {
            uint64_t *t = e->item;
            int32_t sum = 0, *u;
            if (!ready) {
                memset(count, 0, counts);
                for (j = 0; j < N; j++)
                    count[t[j] >> lo & mask]++;
            }
            ready = lo + D < top;
            if (count[t[0] >> lo & mask] == N) {
                ready = 0;
                continue;
            }
            for (v = 0; v <= (int64_t)mask; v++) {
                int32_t here = count[v];
                count[v] = sum;
                sum += here;
            }
            if (ready) {
                memset(next, 0, counts);
                for (j = 0; j < N; j++) {
                    e->item2[count[t[j] >> lo & mask]++] = t[j];
                    next[t[j] >> (lo + D) & mask]++;
                }
            } else
                for (j = 0; j < N; j++)
                    e->item2[count[t[j] >> lo & mask]++] = t[j];
            e->item = e->item2;
            e->item2 = t;
            u = count;
            count = next;
            next = u;
        }
    }
    return out != 0;
}

/* The root of i's component, halving the path on the way: every parent
 * is below its child. */
static int64_t ei_find(int64_t *parent, int64_t i)
{
    while (parent[i] != i) {
        parent[i] = parent[parent[i]];
        i = parent[i];
    }
    return i;
}

int fa_sorted_rows(int64_t n, int64_t w, int64_t nlevels, const int64_t *sizes,
                   const int32_t *const *trans, void *out)
{
    int64_t i, j, x, t, N = 1, have = 1, rw = n * w;
    int64_t *cmin = NULL, *cmax = NULL;
    int32_t *ident = NULL;
    unsigned char *row = NULL, *placed;
    eis *e = NULL;
    int status = FA_OK;
    if (n < 0 || n > INT32_MAX || (w != 1 && w != 2 && w != 4)
        || (w < 4 && n > (1 << (8 * w))))
        return FA_BADARG;
    for (i = 0; i < nlevels; i++) {
        if (sizes[i] < 1 || sizes[i] > INT32_MAX / N)
            return FA_BADARG;
        N *= sizes[i];
        for (j = 0; j < sizes[i] * n; j++)
            if (trans[i][j] < 0 || trans[i][j] >= n)
                return FA_BADARG;
    }
    if ((ident = malloc((size_t)(n + 1) * sizeof *ident)) == NULL
        || (row = malloc((size_t)(rw + 1))) == NULL
        || (cmin = malloc((size_t)(n + 1) * sizeof *cmin)) == NULL
        || (cmax = malloc((size_t)(n + 1) * sizeof *cmax)) == NULL) {
        status = FA_NOMEM;
        goto done;
    }
    /* each element is one product u_0 u_1 ... of a transversal element
     * per level: multiply the levels in from the deepest, block t of the
     * next products being the t-th transversal element times the products
     * so far, block 0 last because it is computed in place */
    for (x = 0; x < n; x++) {
        ident[x] = (int32_t)x;
        ei_put(out, w, x, x);
    }
    for (i = nlevels - 1; i >= 0; have *= sizes[i--])
        for (t = sizes[i] - 1; t >= 0; t--) {
            const int32_t *u = trans[i] + t * n;
            for (j = 0; j < have * n; j++)
                ei_put(out, w, t * have * n + j, u[ei_get(out, w, j)]);
        }
    /* column c holds the orbit of point c, the component of c in the
     * graph of the transversal rows: find it by union-find (every parent
     * below its child), and the least and largest point of each */
    for (x = 0; x < n; x++)
        cmin[x] = x;
    for (i = 0; i < nlevels; i++)
        for (j = 0; j < sizes[i] * n; j++) {
            int64_t u = ei_find(cmin, j % n), v = ei_find(cmin, trans[i][j]);
            cmin[u > v ? u : v] = u < v ? u : v;
        }
    for (x = 0; x < n; x++)
        cmax[ei_find(cmin, x)] = x;
    for (x = 0; x < n; x++) {
        cmin[x] = ei_find(cmin, x);
        cmax[x] = cmax[cmin[x]];
    }
    e = eis_alloc(n, w, N, cmin, cmax);
    cmin = NULL;
    if (e == NULL) {
        status = FA_NOMEM;
        goto done;
    }
    eis_sort(e, out, ident, ident);
    /* move row eis_row(j) to place j, cycle by cycle, marking the places
     * filled in the free scratch of the sort */
    placed = memset(e->item2, 0, (size_t)N);
    for (j = 0; j < N; j++) {
        if (placed[j])
            continue;
        memcpy(row, (unsigned char *)out + j * rw, (size_t)rw);
        for (i = j; (t = eis_row(e, i)) != j; i = t) {
            memcpy((unsigned char *)out + i * rw, (unsigned char *)out + t * rw, (size_t)rw);
            placed[i] = 1;
        }
        memcpy((unsigned char *)out + i * rw, row, (size_t)rw);
        placed[i] = 1;
    }
done:
    free(ident);
    free(row);
    free(cmin);
    free(cmax);
    eis_free(e);
    return status;
}

static int64_t ei_gcd(int64_t a, int64_t b)
{
    while (b) {
        int64_t t = a % b;
        a = b;
        b = t;
    }
    return a;
}

/* The order of the row r of n points: the lcm of its cycle lengths, each
 * length taken once.  seen and len are n bytes of scratch each. */
static int64_t ei_order(const void *r, int64_t w, int64_t n, unsigned char *seen,
                        unsigned char *len)
{
    int64_t x, y, k, order = 1;
    memset(seen, 0, (size_t)n);
    memset(len, 0, (size_t)n);
    for (x = 0; x < n; x++) {
        for (y = x, k = 0; !seen[y]; y = ei_get(r, w, y), k++)
            seen[y] = 1;
        if (k)
            len[k - 1] = 1;
    }
    for (k = 2; k <= n; k++)
        if (len[k - 1])
            order = order / ei_gcd(order, k) * k;
    return order;
}

int fa_class_labels(int64_t n, int64_t w, int64_t N, const void *rows, int64_t ngens,
                    const int32_t *gens, int64_t *class_of, int64_t *reps,
                    int64_t *orders, int64_t *nclasses)
{
    const unsigned char *r = rows;
    int64_t i, j, k, x, rw = n * w;
    int64_t *cmin = NULL, *cmax = NULL;
    int32_t *ginv = NULL, *ident = NULL;
    unsigned char *seen = NULL;
    /* class_of holds the union-find parents, and orders the first key
     * word of each row, until the classes are known */
    int64_t *parent = class_of;
    uint64_t *first = (uint64_t *)orders, out = 0;
    eis *e = NULL;
    int status = FA_OK;
    *nclasses = 0;
    if (n < 0 || n > INT32_MAX || N < 0 || N > INT32_MAX || ngens < 0
        || (w != 1 && w != 2 && w != 4))
        return FA_BADARG;
    for (k = 0; k < ngens * n; k++)
        if (gens[k] < 0 || gens[k] >= n)
            return FA_BADARG;
    if ((cmin = malloc((size_t)(n + 1) * sizeof *cmin)) == NULL
        || (cmax = malloc((size_t)(n + 1) * sizeof *cmax)) == NULL) {
        status = FA_NOMEM;
        goto done;
    }
    /* the least and largest entry of each column */
    for (x = 0; x < n; x++) {
        int64_t lo = n, hi = -1;
        for (j = 0; j < N; j++) {
            int64_t v = ei_get(r, w, j * n + x);
            lo = v < lo ? v : lo;
            hi = v > hi ? v : hi;
        }
        if (hi >= n) {
            status = FA_BADARG;
            goto done;
        }
        cmin[x] = lo;
        cmax[x] = hi;
    }
    e = eis_alloc(n, w, N, cmin, cmax);
    cmin = NULL;
    if (e == NULL
        || (ginv = malloc((size_t)(n + 1) * sizeof *ginv)) == NULL
        || (ident = malloc((size_t)(n + 1) * sizeof *ident)) == NULL
        || (seen = malloc((size_t)(2 * n + 1))) == NULL) {
        status = FA_NOMEM;
        goto done;
    }
    for (x = 0; x < n; x++)
        ident[x] = (int32_t)x;
    for (j = 0; j < N; j++) {
        parent[j] = j;
        first[j] = eis_pack(e, r + j * rw, 0, e->first, ident, ident, &out);
    }
    for (k = 0; k < ngens; k++) {
        const int32_t *g = gens + k * n;
        for (x = 0; x < n; x++)
            ginv[x] = -1;
        for (x = 0; x < n; x++) {
            if (ginv[g[x]] >= 0) {
                status = FA_BADARG;
                goto done;
            }
            ginv[g[x]] = (int32_t)x;
        }
        /* the conjugate g a g^-1 of a row a has g[a[ginv[c]]] in column c;
         * sorted, the conjugates must be the rows again, so each entry
         * must fit its column, and the conjugate at place j must have row
         * j's first key word and later columns */
        if (eis_sort(e, rows, ginv, g)) {
            status = FA_NOTCLOSED;
            goto done;
        }
        for (j = 0; j < N; j++) {
            int64_t s = eis_row(e, j), u, v;
            const unsigned char *a = r + s * rw, *b = r + j * rw;
            if (eis_key(e, j) != first[j]) {
                status = FA_NOTCLOSED;
                goto done;
            }
            for (x = e->first; x < n; x++)
                if (g[ei_get(a, w, ginv[x])] != ei_get(b, w, x)) {
                    status = FA_NOTCLOSED;
                    goto done;
                }
            /* union by smaller root, so a component's root is its least
             * row */
            u = ei_find(parent, j);
            v = ei_find(parent, s);
            if (u < v)
                parent[v] = u;
            else
                parent[u] = v;
        }
    }
    /* the classes are numbered by their least rows; a parent is below its
     * child, so it has its class and order when the child is reached, and
     * conjugates have one order, that of the class's least row */
    for (i = 0; i < N; i++)
        if (parent[i] == i) {
            reps[*nclasses] = i;
            orders[i] = ei_order(r + i * rw, w, n, seen, seen + n);
            class_of[i] = (*nclasses)++;
        } else {
            orders[i] = orders[parent[i]];
            class_of[i] = class_of[parent[i]];
        }
done:
    free(cmin);
    free(cmax);
    free(ginv);
    free(ident);
    free(seen);
    eis_free(e);
    return status;
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

/* Sift s->cur through the levels from start on (StabilizerChain._strip of
 * the reference).
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
 * g * t_p for each new point q = g(p) (_orbit_transversal of the
 * reference). */
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

/* StabilizerChain._complete of the reference: build the level's orbit
 * under the generators of it and every deeper level, then sift the
 * Schreier generators t_q^-1 * g * t_p, p in ascending order, g in
 * order.  At the first that
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
        total += 3 + (s->levels[i].ngens + 1) * n + s->levels[i].norbit * (1 + 2 * n);
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
            memcpy(out, lev->where, (size_t)n * sizeof *out);
            out += n;
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
 * their loads overlap, which matters once the table outgrows the caches.
 * Walks of more than FV_SPLIT steps in all are split by relator across
 * the workers. */
enum { FV_EMPTY = 1, FV_RANGE, FV_BIJECTION, FV_RELATOR, FV_BLOCK = 256,
       FV_SPLIT = 1 << 22 };

/* The relator walks of one fa_validate call: the relators still to take,
 * and the least that does not close (nrels while none is known). */
typedef struct {
    int64_t nl, n;
    const int32_t *letters, *tbl;
    const int64_t *ends;
    _Atomic int64_t next, fail;
} fv_shared;

/* Whether the relator w[0 .. len) closes at every coset. */
static int fv_closes(const fv_shared *v, const int32_t *w, int64_t len)
{
    const int32_t *tbl = v->tbl;
    int64_t nl = v->nl, n = v->n, c;
    for (c = 0; c < n; c += FV_BLOCK) {
        int64_t d[FV_BLOCK], b, j, m = n - c < FV_BLOCK ? n - c : FV_BLOCK;
        for (b = 0; b < m; b++)
            d[b] = c + b;
        for (j = 0; j < len; j++)
            for (b = 0; b < m; b++)
                d[b] = tbl[d[b] * nl + w[j]];
        for (b = 0; b < m; b++)
            if (d[b] != c + b)
                return 0;
    }
    return 1;
}

/* A worker: takes the relators in turn and lowers v->fail to each that
 * does not close.  It stops at v->fail, since every relator after it is
 * later than the first that fails. */
static void *fv_worker(void *arg)
{
    fv_shared *v = arg;
    int64_t k, f;
    while ((k = atomic_fetch_add(&v->next, 1)) < atomic_load(&v->fail)) {
        int64_t start = k ? v->ends[k - 1] : 0;
        if (!fv_closes(v, v->letters + start, v->ends[k] - start))
            for (f = atomic_load(&v->fail); k < f;)
                atomic_compare_exchange_weak(&v->fail, &f, k);
    }
    return NULL;
}

int fa_validate(int32_t ngens, const int32_t *letters, const int64_t *ends,
                int64_t nrels, const int32_t *tbl, int64_t n, int64_t *which)
{
    int64_t nl = 2 * (int64_t)ngens, c, i, k, nletters, threads = 1;
    fv_shared v = {0};
    *which = 0;
    if (ngens < 0 || nrels < 0)
        return -1;
    for (k = 0, nletters = nrels ? ends[nrels - 1] : 0; k < nletters; k++)
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
    v.nl = nl;
    v.n = n;
    v.letters = letters;
    v.tbl = tbl;
    v.ends = ends;
    atomic_init(&v.fail, nrels);
    if (n > FV_SPLIT / (nletters ? nletters : 1) && (threads = fa_workers()) > nrels)
        threads = nrels;
    fa_run(threads, fv_worker, &v);
    if ((k = atomic_load(&v.fail)) < nrels) {
        *which = k;
        return FV_RELATOR;
    }
    return FA_OK;
}
