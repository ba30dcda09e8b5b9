/*
 * Native depth-first search core for Algorithm BBU.
 *
 * One `Search` owns a stack of partial topologies and runs the
 * sequential solver's exact DFS step over it: pop, the
 * `lb > UB + keep_margin` prune, the per-node g table, the screening
 * bound and exact upward walk of `BranchKernel.evaluate`, the
 * `child_via_tables` graft, the stable best-first child order and the
 * incumbent update -- with the `SearchStats` counters kept alongside.
 * `bnb_run` returns to the caller at a fixed stride, when the stack
 * runs dry, when an expansion limit is reached, or right after an
 * expansion that improved the incumbent, so every policy decision
 * (progress reports, node limits, shared upper bounds, callbacks)
 * stays in Python.
 *
 * Bit-identity with the Python paths: every float result is produced
 * by the same IEEE-754 binary64 operations, in the same order, as
 * `BranchKernel.evaluate` and `PartialTopology.child_via_tables`; the
 * comparisons are the same strict/non-strict comparisons.  Build with
 * `-O2 -ffp-contract=off` and without `-ffast-math`, so no operation is
 * fused or reassociated.
 *
 * There is no global mutable state: callers may run independent
 * searches from several threads at once.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define NO_NODE (-1)

enum {
    RUN_STRIDE = 0,     /* max_iterations loop iterations done */
    RUN_EXHAUSTED = 1,  /* the stack is empty */
    RUN_IMPROVED = 2,   /* the last expansion improved the incumbent */
    RUN_LIMIT = 3,      /* nodes_expanded reached expansion_limit */
    RUN_OVERFLOW = -1   /* the stack bound was violated */
};

typedef struct {
    /* Public header: mirrored field for field by native.py. */
    int64_t nodes_created;
    int64_t nodes_expanded;
    int64_t nodes_pruned;
    int64_t ub_updates;
    int64_t max_open_size;
    int64_t open_size;
    int64_t n_improvements; /* incumbent-log entries of the last run */
    int64_t has_best;
    double upper_bound;
    double keep_margin;     /* the solver's prune margin (-1e-9) */
    double eps;             /* the solver's incumbent tolerance (1e-9) */

    /* Private below this line. */
    int n;                  /* species */
    int width;              /* node-array width: 2n - 1 */
    int64_t capacity;       /* stack slots */
    int64_t slots;          /* capacity + cur + scratch + best + log */
    double *half;           /* n * n, row-major M / 2 */
    double *tails;          /* n + 1 */
    /* Per-slot node storage, `width` entries per slot. */
    int32_t *parent, *child_a, *child_b, *species;
    double *height;
    uint64_t *leafset;
    int32_t *leaf_of;       /* n entries per slot */
    int32_t *num_leaves, *root;
    double *internal_sum, *lower_bound;
    /* Per-expansion scratch. */
    double *g;
    int32_t *survivor_pos;
    double *survivor_lb;
} Search;

static int64_t slot_cur(const Search *S) { return S->capacity; }
static int64_t slot_scratch(const Search *S) { return S->capacity + 1; }
static int64_t slot_best(const Search *S) { return S->capacity + 2; }
static int64_t slot_log(const Search *S, int64_t k) { return S->capacity + 3 + k; }

void bnb_free(Search *S)
{
    if (S == NULL)
        return;
    free(S->half);
    free(S->tails);
    free(S->parent);
    free(S->child_a);
    free(S->child_b);
    free(S->species);
    free(S->height);
    free(S->leafset);
    free(S->leaf_of);
    free(S->num_leaves);
    free(S->root);
    free(S->internal_sum);
    free(S->lower_bound);
    free(S->g);
    free(S->survivor_pos);
    free(S->survivor_lb);
    free(S);
}

/* A search over `n` species with room for `initial` pushed nodes. */
Search *bnb_new(int n, const double *half, const double *tails,
                int64_t initial, double keep_margin, double eps)
{
    Search *S;
    int64_t w, nodes;

    if (n < 3 || n > 62 || initial < 0)
        return NULL;
    S = (Search *)calloc(1, sizeof(Search));
    if (S == NULL)
        return NULL;
    S->n = n;
    S->width = 2 * n - 1;
    S->keep_margin = keep_margin;
    S->eps = eps;
    /* A DFS stack holds the unexpanded initial nodes plus at most one
     * partly consumed batch of children per level: sum (2k - 1) < n^2. */
    S->capacity = initial + (int64_t)n * n;
    S->slots = S->capacity + 3 + S->width;
    w = S->width;
    nodes = S->slots * w;
    S->half = (double *)malloc(sizeof(double) * n * n);
    S->tails = (double *)malloc(sizeof(double) * (n + 1));
    S->parent = (int32_t *)malloc(sizeof(int32_t) * nodes);
    S->child_a = (int32_t *)malloc(sizeof(int32_t) * nodes);
    S->child_b = (int32_t *)malloc(sizeof(int32_t) * nodes);
    S->species = (int32_t *)malloc(sizeof(int32_t) * nodes);
    S->height = (double *)malloc(sizeof(double) * nodes);
    S->leafset = (uint64_t *)malloc(sizeof(uint64_t) * nodes);
    S->leaf_of = (int32_t *)malloc(sizeof(int32_t) * S->slots * n);
    S->num_leaves = (int32_t *)malloc(sizeof(int32_t) * S->slots);
    S->root = (int32_t *)malloc(sizeof(int32_t) * S->slots);
    S->internal_sum = (double *)malloc(sizeof(double) * S->slots);
    S->lower_bound = (double *)malloc(sizeof(double) * S->slots);
    S->g = (double *)malloc(sizeof(double) * w);
    S->survivor_pos = (int32_t *)malloc(sizeof(int32_t) * w);
    S->survivor_lb = (double *)malloc(sizeof(double) * w);
    if (!S->half || !S->tails || !S->parent || !S->child_a || !S->child_b
        || !S->species || !S->height || !S->leafset || !S->leaf_of
        || !S->num_leaves || !S->root || !S->internal_sum
        || !S->lower_bound || !S->g || !S->survivor_pos
        || !S->survivor_lb) {
        bnb_free(S);
        return NULL;
    }
    memcpy(S->half, half, sizeof(double) * n * n);
    memcpy(S->tails, tails, sizeof(double) * (n + 1));
    return S;
}

static void copy_node(Search *S, int64_t dst, int64_t src)
{
    const int64_t w = S->width;
    const size_t m = (size_t)(2 * S->num_leaves[src] - 1);
    memcpy(S->parent + dst * w, S->parent + src * w, sizeof(int32_t) * m);
    memcpy(S->child_a + dst * w, S->child_a + src * w, sizeof(int32_t) * m);
    memcpy(S->child_b + dst * w, S->child_b + src * w, sizeof(int32_t) * m);
    memcpy(S->species + dst * w, S->species + src * w, sizeof(int32_t) * m);
    memcpy(S->height + dst * w, S->height + src * w, sizeof(double) * m);
    memcpy(S->leafset + dst * w, S->leafset + src * w, sizeof(uint64_t) * m);
    memcpy(S->leaf_of + dst * S->n, S->leaf_of + src * S->n,
           sizeof(int32_t) * S->n);
    S->num_leaves[dst] = S->num_leaves[src];
    S->root[dst] = S->root[src];
    S->internal_sum[dst] = S->internal_sum[src];
    S->lower_bound[dst] = S->lower_bound[src];
}

/* A node travels between Python and C as three packed buffers, with
 * m = 2 * num_leaves - 1:
 *   ints:    num_leaves, root, parent[m], child_a[m], child_b[m],
 *            species[m], leaf_of[n]
 *   floats:  internal_sum, lower_bound, height[m]
 *   leafset: leafset[m]
 * Buffers handed to bnb_read must have room for m = 2n - 1. */
static void pack(const Search *S, int64_t slot, int32_t *ints,
                 double *floats, uint64_t *leafset)
{
    const int64_t w = S->width;
    const size_t m = (size_t)(2 * S->num_leaves[slot] - 1);
    ints[0] = S->num_leaves[slot];
    ints[1] = S->root[slot];
    memcpy(ints + 2, S->parent + slot * w, sizeof(int32_t) * m);
    memcpy(ints + 2 + m, S->child_a + slot * w, sizeof(int32_t) * m);
    memcpy(ints + 2 + 2 * m, S->child_b + slot * w, sizeof(int32_t) * m);
    memcpy(ints + 2 + 3 * m, S->species + slot * w, sizeof(int32_t) * m);
    memcpy(ints + 2 + 4 * m, S->leaf_of + slot * S->n,
           sizeof(int32_t) * S->n);
    floats[0] = S->internal_sum[slot];
    floats[1] = S->lower_bound[slot];
    memcpy(floats + 2, S->height + slot * w, sizeof(double) * m);
    memcpy(leafset, S->leafset + slot * w, sizeof(uint64_t) * m);
}

/* Push one packed node on top of the stack; -1 if it does not fit. */
int bnb_push(Search *S, const int32_t *ints, const double *floats,
             const uint64_t *leafset)
{
    const int64_t w = S->width;
    const int num_leaves = ints[0];
    int64_t slot;
    size_t m;

    if (S->open_size >= S->capacity || num_leaves < 2
        || num_leaves >= S->n)
        return -1;
    slot = S->open_size++;
    m = (size_t)(2 * num_leaves - 1);
    S->num_leaves[slot] = num_leaves;
    S->root[slot] = ints[1];
    memcpy(S->parent + slot * w, ints + 2, sizeof(int32_t) * m);
    memcpy(S->child_a + slot * w, ints + 2 + m, sizeof(int32_t) * m);
    memcpy(S->child_b + slot * w, ints + 2 + 2 * m, sizeof(int32_t) * m);
    memcpy(S->species + slot * w, ints + 2 + 3 * m, sizeof(int32_t) * m);
    memcpy(S->leaf_of + slot * S->n, ints + 2 + 4 * m,
           sizeof(int32_t) * S->n);
    S->internal_sum[slot] = floats[0];
    S->lower_bound[slot] = floats[1];
    memcpy(S->height + slot * w, floats + 2, sizeof(double) * m);
    memcpy(S->leafset + slot * w, leafset, sizeof(uint64_t) * m);
    S->nodes_created += 1;
    return 0;
}

/* Pack node `which` out: -1 = the best topology, k >= 0 = entry k of
 * the last run's incumbent log.  Returns the node's leaf count, or -1
 * for a bad `which`. */
int bnb_read(const Search *S, int64_t which, int32_t *ints, double *floats,
             uint64_t *leafset)
{
    int64_t slot;

    if (which == -1) {
        if (!S->has_best)
            return -1;
        slot = slot_best(S);
    } else if (which >= 0 && which < S->n_improvements) {
        slot = slot_log(S, which);
    } else {
        return -1;
    }
    pack(S, slot, ints, floats, leafset);
    return S->num_leaves[slot];
}

/* The smallest lower bound on the stack (+inf when it is empty). */
double bnb_open_min_lb(const Search *S)
{
    double best = HUGE_VAL;
    int64_t i;
    for (i = 0; i < S->open_size; ++i)
        if (S->lower_bound[i] < best)
            best = S->lower_bound[i];
    return best;
}

/* max{ M[s, l] / 2 : leaf l below v } over the subtree of v, folded
 * from 0.0 like the kernel's masked row maximum; fills g[v] with
 * max(height[v], maxhalf[v]) for every node of the subtree. */
static double fill_g(const Search *S, int64_t slot, const double *row,
                     int v, double *g)
{
    const int64_t base = slot * S->width;
    const int sp = S->species[base + v];
    double mh, h;

    if (sp != NO_NODE) {
        const double d = row[sp];
        mh = d > 0.0 ? d : 0.0;
    } else {
        const double a = fill_g(S, slot, row, S->child_a[base + v], g);
        const double b = fill_g(S, slot, row, S->child_b[base + v], g);
        mh = a >= b ? a : b;
    }
    h = S->height[base + v];
    g[v] = h >= mh ? h : mh;
    return mh;
}

/* `PartialTopology.child_via_tables`: graft species `s` above node `c`
 * of slot `src` into slot `dst`, using the g table. */
static void graft(Search *S, int64_t dst, int64_t src, int c,
                  const double *g, double tail)
{
    const int64_t w = S->width;
    int32_t *parent = S->parent + dst * w;
    int32_t *child_a = S->child_a + dst * w;
    int32_t *child_b = S->child_b + dst * w;
    int32_t *species = S->species + dst * w;
    double *height = S->height + dst * w;
    uint64_t *leafset = S->leafset + dst * w;
    const int s = S->num_leaves[src];
    const int m = 2 * s - 1;
    const uint64_t bit = (uint64_t)1 << s;
    const int leaf = m, internal = m + 1;
    double internal_sum, h_u, child_height, new_height;
    int p, node;

    copy_node(S, dst, src);
    internal_sum = S->internal_sum[dst];

    parent[leaf] = internal;
    child_a[leaf] = NO_NODE;
    child_b[leaf] = NO_NODE;
    height[leaf] = 0.0;
    leafset[leaf] = bit;
    species[leaf] = s;
    S->leaf_of[dst * S->n + s] = leaf;

    h_u = g[c];
    parent[internal] = parent[c];
    child_a[internal] = c;
    child_b[internal] = leaf;
    height[internal] = h_u;
    leafset[internal] = leafset[c] | bit;
    species[internal] = NO_NODE;
    internal_sum += h_u;

    p = parent[c];
    parent[c] = internal;
    if (p == NO_NODE) {
        S->root[dst] = internal;
    } else {
        if (child_a[p] == c)
            child_a[p] = internal;
        else
            child_b[p] = internal;
        child_height = h_u;
        node = p;
        while (node != NO_NODE) {
            new_height = g[node];
            if (child_height > new_height)
                new_height = child_height;
            if (new_height != height[node]) {
                internal_sum += new_height - height[node];
                height[node] = new_height;
            }
            leafset[node] |= bit;
            child_height = new_height;
            node = parent[node];
        }
    }
    S->num_leaves[dst] = s + 1;
    S->internal_sum[dst] = internal_sum;
    S->lower_bound[dst] = (internal_sum + height[S->root[dst]]) + tail;
}

/* `BranchKernel.evaluate` with a threshold plus the bound cut of
 * `expand_positions`: fills the survivor positions (in position order)
 * and their lower bounds; returns how many survived. */
static int evaluate(Search *S, int64_t slot, double tail, double threshold)
{
    const int64_t base = slot * S->width;
    const int s = S->num_leaves[slot];
    const int m = 2 * s - 1;
    const int32_t *parent = S->parent + base;
    const double *height = S->height + base;
    const double *g = S->g;
    const double internal_sum = S->internal_sum[slot];
    const double h_root = height[S->root[slot]];
    const double abs_threshold = threshold < 0.0 ? -threshold : threshold;
    const double cut = threshold + 1e-6 * (1.0 + abs_threshold);
    int c, kept = 0;

    fill_g(S, slot, S->half + (int64_t)s * S->n, S->root[slot], S->g);
    for (c = 0; c < m; ++c) {
        const double h_u = g[c];
        const double partial = internal_sum + h_u;
        const double top = h_u >= h_root ? h_u : h_root;
        double partial_c, cur_h, cost, lb;
        int cur;

        /* Screening bound: never above the exact cost. */
        if (!((partial + top) + tail <= cut))
            continue;
        partial_c = partial;
        cur_h = h_u;
        cur = parent[c];
        while (cur >= 0) {
            const double g_cur = g[cur];
            const double new_h = cur_h >= g_cur ? cur_h : g_cur;
            partial_c += new_h - height[cur];
            cur_h = new_h;
            cur = parent[cur];
        }
        cost = partial_c + cur_h;
        lb = cost + tail;
        if (lb > threshold)
            continue;
        S->survivor_pos[kept] = c;
        S->survivor_lb[kept] = lb;
        ++kept;
    }
    return kept;
}

/* Stable sort of the survivors by descending lower bound: the order of
 * Python's `children.sort(key=lambda c: -c.lower_bound)`. */
static void sort_survivors(Search *S, int count)
{
    int i, j;
    for (i = 1; i < count; ++i) {
        const double lb = S->survivor_lb[i];
        const int32_t pos = S->survivor_pos[i];
        for (j = i - 1; j >= 0 && S->survivor_lb[j] < lb; --j) {
            S->survivor_lb[j + 1] = S->survivor_lb[j];
            S->survivor_pos[j + 1] = S->survivor_pos[j];
        }
        S->survivor_lb[j + 1] = lb;
        S->survivor_pos[j + 1] = pos;
    }
}

/* Run at most `max_iterations` pops (each pruned or expanded); stop
 * early when the stack is empty, when `nodes_expanded` reaches
 * `expansion_limit` (< 0: no limit) or after an improving expansion. */
int bnb_run(Search *S, int64_t max_iterations, int64_t expansion_limit)
{
    int64_t it;

    S->n_improvements = 0;
    for (it = 0; it < max_iterations; ++it) {
        int64_t top;
        int s, kept, j;
        double tail, threshold;

        if (S->open_size == 0)
            return RUN_EXHAUSTED;
        if (expansion_limit >= 0 && S->nodes_expanded >= expansion_limit)
            return RUN_LIMIT;
        top = --S->open_size;
        threshold = S->upper_bound + S->keep_margin;
        if (S->lower_bound[top] > threshold) {
            S->nodes_pruned += 1;
            continue;
        }
        S->nodes_expanded += 1;
        s = S->num_leaves[top];
        tail = S->tails[s + 1];
        S->nodes_created += 2 * s - 1;
        kept = evaluate(S, top, tail, threshold);
        S->nodes_pruned += (2 * s - 1) - kept;

        if (s + 1 == S->n) {
            /* Complete trees: incumbent updates in position order. */
            const int64_t scratch = slot_scratch(S);
            for (j = 0; j < kept; ++j) {
                double cost;
                graft(S, scratch, top, S->survivor_pos[j], S->g, tail);
                cost = S->internal_sum[scratch]
                       + S->height[scratch * S->width + S->root[scratch]];
                if (cost < S->upper_bound - S->eps) {
                    S->upper_bound = cost;
                    S->ub_updates += 1;
                    copy_node(S, slot_best(S), scratch);
                    S->has_best = 1;
                    copy_node(S, slot_log(S, S->n_improvements), scratch);
                    S->n_improvements += 1;
                } else if (!S->has_best && cost <= S->upper_bound + S->eps) {
                    /* The seed's cost matched: remember a topology. */
                    copy_node(S, slot_best(S), scratch);
                    S->has_best = 1;
                }
            }
            if (S->n_improvements > 0)
                return RUN_IMPROVED;
            continue;
        }
        if (kept > 0) {
            const int64_t cur = slot_cur(S);
            if (top + kept > S->capacity)
                return RUN_OVERFLOW; /* unreachable: see bnb_new */
            sort_survivors(S, kept);
            copy_node(S, cur, top);
            for (j = 0; j < kept; ++j)
                graft(S, top + j, cur, S->survivor_pos[j], S->g, tail);
            S->open_size = top + kept;
        }
        if (S->open_size > S->max_open_size)
            S->max_open_size = S->open_size;
    }
    return RUN_STRIDE;
}
