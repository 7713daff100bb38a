/* Native membership kernels over packed uint64 bitsets, and the
 * batched dense-mode pricing of a publish run.
 *
 * Compiled on demand by repro/kernels/native.py (gcc -O3 -shared
 * -ffp-contract=off) and loaded through ctypes.  Every float operation
 * replicates the numpy reference implementation's dtype and rounding
 * order exactly, so results are byte-identical to the pure-numpy
 * backend:
 *
 *   - the initial pairwise waste matrix is float32 with the op order
 *     round(p_i * (|s_j| - I)) + round(p_j * (|s_i| - I));
 *   - post-merge rows are computed in float64 (two products, one sum,
 *     each rounded once) and then cast to float32;
 *   - join-score overlap accumulation is sequential float64 adds in
 *     covered-cell order, matching np.bincount with weights;
 *   - MacQueen distances are float64 p_c*(gs - s) + p_g*(cs - s), two
 *     products and one sum, each rounded once, on exact integer
 *     intersections;
 *   - dense-mode costs sum with an exact copy of numpy's pairwise
 *     summation, over ShortestPaths.tree_cost's levels in its order;
 *   - K-means group probability masses use the same pairwise sum over
 *     each group's members in ascending cell order, and Forgy and the
 *     cold start use the MacQueen distance and first-minimum rule.
 *
 * -ffp-contract=off matters: a fused multiply-add would skip the
 * intermediate rounding numpy performs and break bit-equality.
 *
 * The hyper-cell build (repro_rasterise_boxes, repro_group_rows,
 * repro_sort_rows) does
 * no float arithmetic: it ORs bits and compares bytes, and its outputs
 * equal the numpy reference's index arrays element for element.
 *
 * The publish-run matching (repro_match_run) compares bounds, takes
 * locate_batch's ceil(x - lo) and divides once for the Figure 5 rule,
 * each as numpy and python do in float64.
 */

#include <math.h>
#include <stdlib.h>
#include <stdint.h>
#include <string.h>

#define EXPORT __attribute__((visibility("default")))

static inline int64_t popcount_and(
    const uint64_t *a, const uint64_t *b, int64_t w)
{
    int64_t acc = 0;
    for (int64_t k = 0; k < w; ++k) {
        acc += __builtin_popcountll(a[k] & b[k]);
    }
    return acc;
}

EXPORT void repro_popcount_rows(
    const uint64_t *words, int64_t m, int64_t w, int64_t *out)
{
    for (int64_t i = 0; i < m; ++i) {
        const uint64_t *row = words + i * w;
        int64_t acc = 0;
        for (int64_t k = 0; k < w; ++k) {
            acc += __builtin_popcountll(row[k]);
        }
        out[i] = acc;
    }
}

EXPORT void repro_intersect_counts(
    const uint64_t *words, int64_t m, int64_t w,
    const uint64_t *row, int64_t *out)
{
    for (int64_t i = 0; i < m; ++i) {
        out[i] = popcount_and(words + i * w, row, w);
    }
}

/* Full (m, m) float32 expected-waste matrix, diagonal zero.  Mirrors
 * clustering.distance.pairwise_waste_matrix: sizes and probabilities in
 * float32, W[i,j] = round(p_i*(sz_j - I)) + round(p_j*(sz_i - I)).
 * The matrix is exactly symmetric (float32 addition is commutative), so
 * each pair is computed once and written twice. */
EXPORT void repro_waste_matrix(
    const uint64_t *words, int64_t m, int64_t w,
    const double *probs, float *out)
{
    for (int64_t i = 0; i < m; ++i) {
        const uint64_t *wi = words + i * w;
        float szi = (float)popcount_and(wi, wi, w);
        float pi = (float)probs[i];
        out[i * m + i] = 0.0f;
        for (int64_t j = i + 1; j < m; ++j) {
            const uint64_t *wj = words + j * w;
            float inter = (float)popcount_and(wi, wj, w);
            float szj = (float)popcount_and(wj, wj, w);
            float pj = (float)probs[j];
            float v = pi * (szj - inter) + pj * (szi - inter);
            out[i * m + j] = v;
            out[j * m + i] = v;
        }
    }
}

/* Fused online join scoring: the per-group publication mass of the
 * covered cells, followed by the argmin of
 * ``group_mass[g] - 2 * overlap[g]`` over the groups with positive overlap.  Returns the chosen group, or
 * -1 when no group overlaps.  The scan is ascending with a strict
 * less-than, matching np.argmin's first-occurrence tie-break over the
 * candidate subsequence; the score arithmetic (one product, one
 * subtraction, each rounded once in float64) matches the vectorised
 * numpy formulation — -ffp-contract=off keeps it fuse-free. */
EXPORT int64_t repro_join_score(
    const int32_t *covered, int64_t n,
    const int64_t *groups, const double *pmf,
    const double *group_mass, int64_t n_groups, double *out)
{
    /* ``groups`` is the sentinel-extended per-cell group map
     * (unclustered cells point at bucket ``n_groups``); ``out`` has
     * n_groups + 1 entries.  Accumulation order matches
     * np.bincount(groups[covered], weights=pmf[covered]). */
    for (int64_t g = 0; g <= n_groups; ++g) {
        out[g] = 0.0;
    }
    for (int64_t t = 0; t < n; ++t) {
        int32_t cell = covered[t];
        out[groups[cell]] += pmf[cell];
    }
    int64_t best = -1;
    double best_score = 0.0;
    for (int64_t g = 0; g < n_groups; ++g) {
        if (out[g] > 0.0) {
            double score = group_mass[g] - 2.0 * out[g];
            if (best < 0 || score < best_score) {
                best = g;
                best_score = score;
            }
        }
    }
    return best;
}

/* Fused agglomerative Pairwise Grouping fit: the entire merge loop of
 * PairwiseGroupingClustering._fit in one call — initial waste matrix,
 * NN-candidate selection, merge, row recompute, stale-row rescans and
 * the rewritten-column undercut check — merge-for-merge identical to
 * the python/numpy implementation, including argmin tie-breaking
 * (first occurrence, rows before columns).
 *
 * All buffers are allocated by the caller:
 *   words   (m, w) uint64, mutated in place (row unions)
 *   probs   (m,)  float64, mutated in place (row sums)
 *   dist    (m, m) float32 scratch
 *   sizes   (m,)  float64 scratch
 *   parent  (m,)  int64  out: merge forest (parent[j] = i after j -> i)
 *   active  (m,)  uint8  scratch
 *   nn_idx  (m,)  int64  scratch
 *   nn_dist (m,)  float32 scratch
 *   counters (2,) int64  out: [n_merges, n_distance_evals]
 */
EXPORT void repro_pairwise_fit(
    uint64_t *words, int64_t m, int64_t w,
    double *probs, int64_t n_groups,
    float *dist, double *sizes, int64_t *parent, uint8_t *active,
    int64_t *nn_idx, float *nn_dist, int64_t *counters)
{
    const float INF = INFINITY;
    int64_t i, j, k, t;

    for (i = 0; i < m; ++i) {
        parent[i] = i;
        active[i] = 1;
        sizes[i] = (double)popcount_and(words + i * w, words + i * w, w);
    }

    /* initial float32 waste matrix (same values as repro_waste_matrix,
     * but diag = +inf as the merge loop needs) */
    for (i = 0; i < m; ++i) {
        const uint64_t *wi = words + i * w;
        float szi = (float)sizes[i];
        float pi = (float)probs[i];
        dist[i * m + i] = INF;
        for (j = i + 1; j < m; ++j) {
            float inter = (float)popcount_and(wi, words + j * w, w);
            float v = pi * ((float)sizes[j] - inter)
                    + (float)probs[j] * (szi - inter);
            dist[i * m + j] = v;
            dist[j * m + i] = v;
        }
    }

    /* per-row nearest-neighbour candidates (first-occurrence argmin) */
    for (i = 0; i < m; ++i) {
        const float *row = dist + i * m;
        int64_t best = 0;
        float best_v = row[0];
        for (t = 1; t < m; ++t) {
            if (row[t] < best_v) {
                best_v = row[t];
                best = t;
            }
        }
        nn_idx[i] = best;
        nn_dist[i] = best_v;
    }

    int64_t n_active = m;
    int64_t n_merges = 0;
    int64_t n_evals = 0;

    /* Equivalence note: the numpy reference keeps every inactive row
     * and column filled with +inf, so its full-row argmins only ever
     * select inactive indices when the whole row is +inf (in which case
     * argmin returns index 0).  Here inactive entries are simply never
     * read: scans skip !active[t] and start from the same (index 0,
     * +inf) fallback, which selects identical indices.  Dropping the
     * O(m) column walks per merge (the matrix rows are 4·m bytes, so a
     * column walk is one cache miss per element) is where most of the
     * merge-loop time goes. */
    while (n_active > n_groups) {
        /* select the globally closest pair: argmin over active rows'
         * candidates, first occurrence on ties (inactive rows read as
         * +inf, exactly like np.where(active, nn_dist, inf)) */
        i = 0;
        float best = active[0] ? nn_dist[0] : INF;
        for (k = 1; k < m; ++k) {
            float v = active[k] ? nn_dist[k] : INF;
            if (v < best) {
                best = v;
                i = k;
            }
        }
        j = nn_idx[i];

        /* merge j into i */
        uint64_t *wi = words + i * w;
        const uint64_t *wj = words + j * w;
        for (k = 0; k < w; ++k) {
            wi[k] |= wj[k];
        }
        sizes[i] = (double)popcount_and(wi, wi, w);
        probs[i] += probs[j];
        active[j] = 0;
        parent[j] = i;
        n_active -= 1;
        n_merges += 1;

        int64_t n_others = n_active - 1;
        n_evals += n_others;
        if (n_others > 0) {
            /* recompute row i against every other active group:
             * float64 products and sum (one rounding each), then one
             * cast to float32 — the numpy reference's op order.  Both
             * triangles are written so the matrix stays symmetric and
             * column i can later be read as row i. */
            double pi = probs[i];
            double szi = sizes[i];
            for (k = 0; k < m; ++k) {
                if (!active[k] || k == i) {
                    continue;
                }
                double inter =
                    (double)popcount_and(wi, words + k * w, w);
                double a = pi * (sizes[k] - inter);
                double b = probs[k] * (szi - inter);
                float v = (float)(a + b);
                dist[i * m + k] = v;
                dist[k * m + i] = v;
            }
        }

        nn_dist[j] = INF;

        /* rows whose candidate involved i or j are stale: rescan
         * (always includes row i itself, whose candidate was j) */
        for (k = 0; k < m; ++k) {
            if (!active[k]) {
                continue;
            }
            if (nn_idx[k] == i || nn_idx[k] == j) {
                const float *row = dist + k * m;
                int64_t best_t = 0;
                float best_v = INF;
                for (t = 0; t < m; ++t) {
                    if (active[t] && t != k && row[t] < best_v) {
                        best_v = row[t];
                        best_t = t;
                    }
                }
                /* n_others == 0 leaves row i logically all-inf; the
                 * (0, +inf) fallback matches np.argmin of an all-inf
                 * row */
                nn_idx[k] = best_t;
                nn_dist[k] = best_v;
            }
        }

        /* the rewritten column i may undercut other rows' candidates
         * (or tie with a smaller column index, which the row-major
         * argmin would prefer); column i of a symmetric matrix is
         * row i, which streams */
        if (n_others > 0) {
            const float *row_i = dist + i * m;
            for (k = 0; k < m; ++k) {
                if (!active[k] || k == i) {
                    continue;
                }
                float c = row_i[k];
                if (c < nn_dist[k]
                    || (c == nn_dist[k] && i < nn_idx[k])) {
                    nn_idx[k] = i;
                    nn_dist[k] = c;
                }
            }
        }
    }

    counters[0] = n_merges;
    counters[1] = n_evals;
}

/* The expected waste between a cell (probability pc, size cs) and a
 * group (size gs, probability gp) sharing s subscribers, in float64:
 * p_c*(gs - s) + p_g*(cs - s), two products and one sum, each rounded
 * once, as waste_to_clusters computes it.  The intersections are
 * popcounts, equal to the float32 matmul of 0/1 rows numpy computes. */
static inline double waste(
    double pc, double cs, double gs, double gp, double s)
{
    double a = pc * (gs - s);
    double b = gp * (cs - s);
    return a + b;
}

/* The group nearest to one packed cell row under the expected waste:
 * the first minimum, as np.argmin takes it from waste_to_clusters'
 * rows.  Stores the distance in *dist. */
static inline int64_t nearest_group(
    const uint64_t *cw, int64_t w, double pc, double cs,
    const uint64_t *group_words, const double *group_sizes,
    const double *group_probs, int64_t k, double *dist)
{
    int64_t best = 0;
    double best_d = 0.0;
    for (int64_t g = 0; g < k; ++g) {
        double s = (double)popcount_and(cw, group_words + g * w, w);
        double d = waste(pc, cs, group_sizes[g], group_probs[g], s);
        if (g == 0 || d < best_d) {
            best = g;
            best_d = d;
        }
    }
    *dist = best_d;
    return best;
}

/* MacQueen K-means: every sweep of KMeansClustering.fit in one call,
 * move-for-move identical to the python loop.  Per visited cell the
 * distance to group g is p_c*(gs_g - s) + p_g*(cs - s) in float64 (two
 * products and one sum, each rounded once), the target is the first
 * minimum, a cell that is the last of its group never moves, and a
 * move applies probs[cur] -= p_c before probs[tgt] += p_c.  Group
 * sizes are kept as exact integer counts (in float64) through the
 * per-column member counts; the intersections |cell ∩ group| are
 * popcounts, equal to the float32 matvec of 0/1 rows the numpy
 * reference computes.
 *
 * All buffers are allocated by the caller:
 *   cell_words  (m, w) uint64 packed cell rows
 *   cell_probs  (m,) float64, cell_sizes (m,) float64
 *   counts      (k, n_bits) int32, mutated: members per group and column
 *   group_words (k, w) uint64, mutated: bit set iff count > 0
 *   group_sizes (k,) float64, probs (k,) float64, n_cells_in (k,) int64,
 *   assignment  (m,) int64, all mutated
 *   counters    (2,) int64 out: [iterations, distance_evals]
 */
EXPORT void repro_kmeans_sweeps(
    const uint64_t *cell_words, int64_t m, int64_t w, int64_t n_bits,
    const double *cell_probs, const double *cell_sizes,
    int32_t *counts, uint64_t *group_words,
    double *group_sizes, double *probs, int64_t *n_cells_in,
    int64_t k, int64_t *assignment, int64_t max_iters,
    int64_t *counters)
{
    int64_t iterations = max_iters;
    int64_t evals = 0;
    for (int64_t it = 1; it <= max_iters; ++it) {
        int64_t moved = 0;
        for (int64_t c = 0; c < m; ++c) {
            int64_t cur = assignment[c];
            if (n_cells_in[cur] <= 1) {
                continue; /* last hyper-cell of group cannot move */
            }
            const uint64_t *cw = cell_words + c * w;
            double pc = cell_probs[c];
            double best_d;
            int64_t best = nearest_group(
                cw, w, pc, cell_sizes[c], group_words, group_sizes,
                probs, k, &best_d);
            evals += k;
            if (best == cur) {
                continue;
            }
            moved += 1;
            assignment[c] = best;
            int32_t *from = counts + cur * n_bits;
            int32_t *to = counts + best * n_bits;
            uint64_t *from_w = group_words + cur * w;
            uint64_t *to_w = group_words + best * w;
            for (int64_t t = 0; t < w; ++t) {
                uint64_t bits = cw[t];
                while (bits) {
                    int bit = __builtin_ctzll(bits);
                    int64_t j = t * 64 + bit;
                    if (--from[j] == 0) {
                        from_w[t] &= ~(1ULL << bit);
                        group_sizes[cur] -= 1.0;
                    }
                    if (to[j]++ == 0) {
                        to_w[t] |= 1ULL << bit;
                        group_sizes[best] += 1.0;
                    }
                    bits &= bits - 1;
                }
            }
            probs[cur] -= pc;
            probs[best] += pc;
            n_cells_in[cur] -= 1;
            n_cells_in[best] += 1;
        }
        if (moved == 0) {
            iterations = it;
            break;
        }
    }
    counters[0] = iterations;
    counters[1] = evals;
}

/* numpy's float64 pairwise summation (np.add.reduce over a contiguous
 * array), operation for operation: below 8 elements sequential adds
 * from -0.0; up to 128, eight accumulators combined as
 * ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)) and then the tail; above 128,
 * split at n/2 rounded down to a multiple of 8 and recurse.  The
 * reduction adds the result to its +0.0 identity, which only turns a
 * -0.0 total into +0.0 (np.sum([-0.0]) is 0.0). */
static double pairwise_sum(const double *a, int64_t n)
{
    if (n < 8) {
        double res = -0.0;
        for (int64_t i = 0; i < n; ++i) {
            res += a[i];
        }
        return res;
    }
    if (n <= 128) {
        double r[8];
        int64_t i;
        for (int j = 0; j < 8; ++j) {
            r[j] = a[j];
        }
        for (i = 8; i < n - (n % 8); i += 8) {
            for (int j = 0; j < 8; ++j) {
                r[j] += a[i + j];
            }
        }
        double res = ((r[0] + r[1]) + (r[2] + r[3]))
                   + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; ++i) {
            res += a[i];
        }
        return res;
    }
    int64_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_sum(a, n2) + pairwise_sum(a + n2, n - n2);
}

static double np_sum(const double *a, int64_t n)
{
    return 0.0 + pairwise_sum(a, n);
}

/* Group state of a partition of the packed cell rows (labels in
 * [0, k)): each group's cell count, the OR of its member rows and that
 * union's popcount, and its probability mass, np_sum over the members'
 * probabilities in ascending cell order -- cells.probs[assignment ==
 * g].sum().  With ``counts`` non-NULL, also the (k, n_bits) int32
 * number of members per group and subscriber.  ``vals`` (m) and
 * ``ends`` (k) are scratch. */
static void group_state(
    const uint64_t *cell_words, int64_t m, int64_t w, int64_t n_bits,
    const double *cell_probs, const int64_t *assignment, int64_t k,
    int32_t *counts, uint64_t *group_words, double *group_sizes,
    double *probs, int64_t *n_cells_in, double *vals, int64_t *ends)
{
    memset(n_cells_in, 0, (size_t)k * sizeof(int64_t));
    memset(group_words, 0, (size_t)(k * w) * sizeof(uint64_t));
    if (counts) {
        memset(counts, 0, (size_t)(k * n_bits) * sizeof(int32_t));
    }
    for (int64_t c = 0; c < m; ++c) {
        n_cells_in[assignment[c]] += 1;
    }
    int64_t start = 0;
    for (int64_t g = 0; g < k; ++g) {
        ends[g] = start;
        start += n_cells_in[g];
    }
    /* a stable counting sort: each group's probabilities land in
     * ascending cell order */
    for (int64_t c = 0; c < m; ++c) {
        int64_t g = assignment[c];
        const uint64_t *cw = cell_words + c * w;
        uint64_t *gw = group_words + g * w;
        vals[ends[g]++] = cell_probs[c];
        for (int64_t t = 0; t < w; ++t) {
            gw[t] |= cw[t];
        }
        if (counts) {
            int32_t *row = counts + g * n_bits;
            for (int64_t t = 0; t < w; ++t) {
                uint64_t bits = cw[t];
                while (bits) {
                    row[t * 64 + __builtin_ctzll(bits)] += 1;
                    bits &= bits - 1;
                }
            }
        }
    }
    for (int64_t g = 0; g < k; ++g) {
        const uint64_t *gw = group_words + g * w;
        int64_t size = 0;
        for (int64_t t = 0; t < w; ++t) {
            size += __builtin_popcountll(gw[t]);
        }
        group_sizes[g] = (double)size;
        probs[g] = np_sum(vals + ends[g] - n_cells_in[g], n_cells_in[g]);
    }
}

/* KMeansClustering's initial group state (see group_state); every
 * output is caller-allocated.  Returns 0, or -2 when scratch
 * allocation fails. */
EXPORT int64_t repro_group_state(
    const uint64_t *cell_words, int64_t m, int64_t w, int64_t n_bits,
    const double *cell_probs, const int64_t *assignment, int64_t k,
    int32_t *counts, uint64_t *group_words, double *group_sizes,
    double *probs, int64_t *n_cells_in)
{
    double *vals = malloc((size_t)(m > 0 ? m : 1) * sizeof(double));
    int64_t *ends = malloc((size_t)(k > 0 ? k : 1) * sizeof(int64_t));
    int64_t status = 0;
    if (!vals || !ends) {
        status = -2;
    } else {
        group_state(cell_words, m, w, n_bits, cell_probs, assignment, k,
                    counts, group_words, group_sizes, probs, n_cells_in,
                    vals, ends);
    }
    free(vals);
    free(ends);
    return status;
}

/* The cold start of both K-means variants: seed i (a cell index) opens
 * group i, and every other cell joins its nearest seed (nearest_group
 * against the seeds' own rows, sizes and probabilities), as
 * waste_to_clusters(rest, seeds) + argmin does.  Returns 0, or -2 when
 * scratch allocation fails. */
EXPORT int64_t repro_nearest_seeds(
    const uint64_t *cell_words, int64_t m, int64_t w,
    const double *cell_probs, const double *cell_sizes,
    const int64_t *seeds, int64_t k, int64_t *assignment)
{
    uint64_t *seed_words = malloc(
        (size_t)(k * w > 0 ? k * w : 1) * sizeof(uint64_t));
    double *seed_stats = malloc(
        (size_t)(k > 0 ? 2 * k : 1) * sizeof(double));
    if (!seed_words || !seed_stats) {
        free(seed_words);
        free(seed_stats);
        return -2;
    }
    double *seed_sizes = seed_stats;
    double *seed_probs = seed_stats + k;
    for (int64_t c = 0; c < m; ++c) {
        assignment[c] = -1;
    }
    for (int64_t i = 0; i < k; ++i) {
        int64_t cell = seeds[i];
        memcpy(seed_words + i * w, cell_words + cell * w,
               (size_t)w * sizeof(uint64_t));
        seed_sizes[i] = cell_sizes[cell];
        seed_probs[i] = cell_probs[cell];
        assignment[cell] = i;
    }
    for (int64_t c = 0; c < m; ++c) {
        if (assignment[c] < 0) {
            double d;
            assignment[c] = nearest_group(
                cell_words + c * w, w, cell_probs[c], cell_sizes[c],
                seed_words, seed_sizes, seed_probs, k, &d);
        }
    }
    free(seed_words);
    free(seed_stats);
    return 0;
}

/* ``order`` sorted by ``key`` descending, ties in ascending index
 * order: np.argsort(-key, kind="stable") for keys without NaN.  A
 * bottom-up merge sort through ``tmp``. */
static void argsort_descending(
    const double *key, int64_t *order, int64_t *tmp, int64_t n)
{
    for (int64_t i = 0; i < n; ++i) {
        order[i] = i;
    }
    int64_t *src = order, *dst = tmp;
    for (int64_t width = 1; width < n; width *= 2) {
        for (int64_t lo = 0; lo < n; lo += 2 * width) {
            int64_t mid = lo + width < n ? lo + width : n;
            int64_t hi = lo + 2 * width < n ? lo + 2 * width : n;
            int64_t i = lo, j = mid, out = lo;
            while (i < mid && j < hi) {
                /* take the right run's head only when strictly larger:
                 * equal keys keep their (index) order */
                if (key[src[j]] > key[src[i]]) {
                    dst[out++] = src[j++];
                } else {
                    dst[out++] = src[i++];
                }
            }
            while (i < mid) {
                dst[out++] = src[i++];
            }
            while (j < hi) {
                dst[out++] = src[j++];
            }
        }
        int64_t *swap = src;
        src = dst;
        dst = swap;
    }
    if (src != order) {
        memcpy(order, src, (size_t)n * sizeof(int64_t));
    }
}

/* ForgyKMeansClustering._fix_empty_groups: each group the sweep left
 * empty, in ascending label order, takes the cell that fits its own
 * group worst (largest own distance, lowest index on ties) among the
 * groups that can spare a member.  ``counts`` (k) is scratch.
 *
 * The python loop rescans the order from its start for every empty
 * group; resuming after the last cell taken finds the same cells,
 * because a cell skipped once stays ineligible: the count of a group
 * that has cells only falls, and a re-seeded group holds one. */
static void fix_empty_groups(
    int64_t *assignment, const double *own, int64_t m, int64_t k,
    int64_t *counts, int64_t *order, int64_t *tmp)
{
    memset(counts, 0, (size_t)k * sizeof(int64_t));
    for (int64_t c = 0; c < m; ++c) {
        counts[assignment[c]] += 1;
    }
    int64_t g = 0;
    while (g < k && counts[g] > 0) {
        ++g;
    }
    if (g == k) {
        return;
    }
    argsort_descending(own, order, tmp, m);
    int64_t pos = 0;
    for (; g < k; ++g) {
        if (counts[g] > 0) {
            continue;
        }
        for (; pos < m; ++pos) {
            int64_t cell = order[pos];
            if (counts[assignment[cell]] > 1) {
                counts[assignment[cell]] -= 1;
                assignment[cell] = g;
                counts[g] = 1;
                ++pos;
                break;
            }
        }
    }
}

/* Forgy K-means: every batch sweep of ForgyKMeansClustering.fit in one
 * call, identical to the numpy loop.  Each sweep builds the group
 * state of the current partition (group_state), sends every cell to
 * its nearest group (the first minimum of waste, m*k distance
 * evaluations), re-seeds emptied groups (fix_empty_groups) and stops
 * at the first sweep that changes no label.  The (m, k) intersection
 * counts persist between sweeps: only the columns of groups whose
 * union changed are recounted, and the integers are the same either
 * way.  ``assignment`` (m) holds labels in
 * [0, k) and is updated in place; counters (2) out: [iterations,
 * distance_evals].  Returns 0, or -2 when scratch allocation fails. */
EXPORT int64_t repro_forgy_sweeps(
    const uint64_t *cell_words, int64_t m, int64_t w,
    const double *cell_probs, const double *cell_sizes,
    int64_t k, int64_t *assignment, int64_t max_iters, int64_t *counters)
{
    size_t mm = (size_t)(m > 0 ? m : 1), kk = (size_t)(k > 0 ? k : 1);
    size_t kw = (size_t)(k * w > 0 ? k * w : 1);
    uint64_t *group_words = malloc(2 * kw * sizeof(uint64_t));
    double *floats = malloc((2 * kk + 2 * mm) * sizeof(double));
    int64_t *ints = malloc((3 * kk + 3 * mm) * sizeof(int64_t));
    int32_t *inter = malloc(mm * kk * sizeof(int32_t));
    if (!group_words || !floats || !ints || !inter) {
        free(group_words);
        free(floats);
        free(ints);
        free(inter);
        return -2;
    }
    uint64_t *prev_words = group_words + kw;
    double *group_sizes = floats, *probs = floats + kk;
    double *vals = floats + 2 * kk, *own = vals + mm;
    int64_t *n_cells_in = ints, *ends = ints + kk, *stale = ints + 2 * kk;
    int64_t *next = ints + 3 * kk, *order = next + mm, *tmp = order + mm;

    int64_t iterations = max_iters;
    int64_t evals = 0;
    for (int64_t it = 1; it <= max_iters; ++it) {
        group_state(cell_words, m, w, 0, cell_probs, assignment, k, NULL,
                    group_words, group_sizes, probs, n_cells_in, vals,
                    ends);
        /* recount |cell & group| only for groups whose union changed */
        int64_t n_stale = 0;
        for (int64_t g = 0; g < k; ++g) {
            if (it == 1 || memcmp(group_words + g * w, prev_words + g * w,
                                  (size_t)w * sizeof(uint64_t)) != 0) {
                stale[n_stale++] = g;
            }
        }
        memcpy(prev_words, group_words, (size_t)(k * w) * sizeof(uint64_t));
        for (int64_t c = 0; c < m; ++c) {
            const uint64_t *cw = cell_words + c * w;
            int32_t *row = inter + c * k;
            for (int64_t i = 0; i < n_stale; ++i) {
                int64_t g = stale[i];
                row[g] = (int32_t)popcount_and(cw, group_words + g * w, w);
            }
            double pc = cell_probs[c], cs = cell_sizes[c];
            int64_t best = 0;
            double best_d = 0.0;
            for (int64_t g = 0; g < k; ++g) {
                double d = waste(
                    pc, cs, group_sizes[g], probs[g], (double)row[g]);
                if (g == 0 || d < best_d) {
                    best = g;
                    best_d = d;
                }
            }
            next[c] = best;
            own[c] = best_d;
        }
        evals += m * k;
        fix_empty_groups(next, own, m, k, n_cells_in, order, tmp);
        if (memcmp(next, assignment, (size_t)m * sizeof(int64_t)) == 0) {
            iterations = it;
            break;
        }
        memcpy(assignment, next, (size_t)m * sizeof(int64_t));
    }
    counters[0] = iterations;
    counters[1] = evals;
    free(group_words);
    free(floats);
    free(ints);
    free(inter);
    return 0;
}

/* Scratch of one price_dense call: stamp arrays over the nodes (a slot
 * is "set" when it holds the current stamp, so nothing is cleared
 * between uses) and node / value buffers. */
typedef struct {
    int64_t n;
    int64_t stamp;
    int64_t *seen;     /* node sets of subscriber lists */
    int64_t *visited;  /* tree walk: nodes already charged */
    int64_t *queued;   /* tree walk: parents already in the next level */
    int64_t *covered;  /* plan: nodes a group of the plan reaches */
    int64_t *nodes;    /* the current subscriber list's node set */
    int64_t *level;
    int64_t *next;
    double *vals;
} price_scratch;

/* Ascending order of ``count`` distinct nodes, all marked with
 * ``stamp`` in ``mark``: an insertion sort when few, else one scan of
 * the marks (the same order np.unique / a boolean scatter yields). */
static void sort_marked(
    int64_t *buf, int64_t count, const int64_t *mark, int64_t stamp,
    int64_t n)
{
    if (count <= 32) {
        for (int64_t i = 1; i < count; ++i) {
            int64_t v = buf[i];
            int64_t j = i - 1;
            while (j >= 0 && buf[j] > v) {
                buf[j + 1] = buf[j];
                --j;
            }
            buf[j + 1] = v;
        }
        return;
    }
    int64_t k = 0;
    for (int64_t v = 0; v < n && k < count; ++v) {
        if (mark[v] == stamp) {
            buf[k++] = v;
        }
    }
}

/* SubscriptionSet.nodes_of_subscribers: the sorted distinct nodes of a
 * list of subscriber ids, into s->nodes; returns their count. */
static int64_t nodes_of(
    price_scratch *s, const int64_t *ids, int64_t n_ids,
    const int64_t *sub_nodes)
{
    int64_t stamp = ++s->stamp;
    int64_t count = 0;
    for (int64_t i = 0; i < n_ids; ++i) {
        int64_t v = sub_nodes[ids[i]];
        if (s->seen[v] != stamp) {
            s->seen[v] = stamp;
            s->nodes[count++] = v;
        }
    }
    sort_marked(s->nodes, count, s->seen, stamp, s->n);
    return count;
}

/* network.unicast_cost over sorted distinct nodes: one shortest-path
 * copy per node.  Returns 0, or 1 with *bad set to the first
 * unreachable node. */
static int unicast_sum(
    price_scratch *s, const double *dist, const int64_t *nodes,
    int64_t count, double *cost, int64_t *bad)
{
    if (count == 0) {
        *cost = 0.0;
        return 0;
    }
    for (int64_t i = 0; i < count; ++i) {
        double d = dist[nodes[i]];
        if (isinf(d)) {
            *bad = nodes[i];
            return 1;
        }
        s->vals[i] = d;
    }
    *cost = np_sum(s->vals, count);
    return 0;
}

/* ShortestPaths.tree_cost(targets) over sorted distinct targets: the
 * level-by-level walk towards the root, each level's nodes ascending
 * and charged with one np.sum of their tree-edge costs.  Returns 0, or
 * 1 with *bad set to the first unreachable target. */
static int tree_walk(
    price_scratch *s, int64_t source, const double *dist,
    const int64_t *pred, const double *edge, const int64_t *targets,
    int64_t count, double *cost, int64_t *bad)
{
    if (count == 0) {
        *cost = 0.0;
        return 0;
    }
    for (int64_t i = 0; i < count; ++i) {
        if (isinf(dist[targets[i]])) {
            *bad = targets[i];
            return 1;
        }
    }
    int64_t visit = ++s->stamp;
    s->visited[source] = visit;
    int64_t *level = s->level;
    int64_t *next = s->next;
    int64_t size = 0;
    for (int64_t i = 0; i < count; ++i) {
        if (targets[i] != source) {
            level[size++] = targets[i];
        }
    }
    double total = 0.0;
    while (size) {
        for (int64_t i = 0; i < size; ++i) {
            s->visited[level[i]] = visit;
            s->vals[i] = edge[level[i]];
        }
        total += np_sum(s->vals, size);
        int64_t queue = ++s->stamp;
        int64_t n_next = 0;
        for (int64_t i = 0; i < size; ++i) {
            int64_t p = pred[level[i]];
            if (p >= 0 && p < s->n && s->visited[p] != visit && s->queued[p] != queue) {
                s->queued[p] = queue;
                next[n_next++] = p;
            }
        }
        sort_marked(next, n_next, s->queued, queue, s->n);
        int64_t *swap = level;
        level = next;
        next = swap;
        size = n_next;
    }
    *cost = total;
    return 0;
}

/* Dense-mode pricing of a matched run of events in one call: per
 * event the unicast and ideal references and the broadcast cost (flag
 * 1), the plan cost (flag 2) and the plan's wasted deliveries (flag 4,
 * with 2), each
 * equal to Dispatcher's per-event python pricing (unicast_reference,
 * ideal_reference, broadcast_reference, plan_cost) and to
 * DeliveryPlan.audit.
 *
 *   sources (R,) int64, trees (R, 3) int64, broadcast (R,) float64:
 *       the shortest-path trees staged for the routing version, row r
 *       the addresses of its dist (n,) float64, pred (n,) int64 and
 *       edge (n,) float64 arrays (edge[v] = dist[v] - dist[pred[v]], 0
 *       at the root and unreachable nodes), and its full tree cost
 *   event_rows (E,) int64: the row of each event's publisher
 *   sub_nodes (n_subs,) int64: node of each subscriber id
 *   bounds (2E+1,), groups (E,), ids: the run form (matching.PlanRun):
 *       event e's interested ids are ids[bounds[2e], bounds[2e+1]),
 *       groups[e] its group or -1, and with a group its unicast ids
 *       ids[bounds[2e+1], bounds[2e+2]); without one the interested
 *       ids go unicast
 *   offsets (n_groups+1,), members: the groups' member CSR
 *       (GroupTable.csr): group g's sorted member ids are
 *       members[offsets[g], offsets[g+1])
 *   masks (n_groups rows of mask_stride bytes, mask_width columns):
 *       the same groups as membership rows, masks[g][s] set when s is
 *       a member of g (the audit's membership test)
 *   out (E, 4) float64: unicast, ideal, plan, broadcast
 *   wasted (E,) int64 (flag 4): covered subscribers not interested
 *   err (3,) int64 out: on a pricing failure the kind (0: unicast leg,
 *   1: tree) and the unreachable node; err[2] the first event whose
 *   plan misses an interested subscriber, or -1
 *
 * Events are priced in order, and within one event in the order the
 * python path prices them, so the first unreachable node reported is
 * the one the python path raises on.  Returns -1 on success, the
 * failing event's index, -2 when scratch allocation fails, -3 when an
 * index is out of range (nothing is priced then), or -4 when every
 * cost was priced but a plan is incomplete (err[2]). */
EXPORT int64_t repro_price_dense(
    int64_t n, const int64_t *sources, const int64_t *trees,
    const double *broadcast, int64_t n_rows, const int64_t *event_rows,
    int64_t n_events,
    const int64_t *sub_nodes, int64_t n_subs, const int64_t *bounds,
    const int64_t *groups, const int64_t *ids, int64_t n_ids,
    const int64_t *offsets, const int64_t *members, int64_t n_members,
    const uint8_t *masks, int64_t mask_stride, int64_t mask_width,
    int64_t n_groups, int64_t flags, double *out, int64_t *wasted,
    int64_t *err)
{
    /* every index the walk follows must be in range */
    for (int64_t r = 0; r < n_rows; ++r) {
        if (sources[r] < 0 || sources[r] >= n) {
            return -3;
        }
    }
    for (int64_t i = 0; i < n_subs; ++i) {
        if (sub_nodes[i] < 0 || sub_nodes[i] >= n) {
            return -3;
        }
    }
    if (bounds[0] < 0 || bounds[2 * n_events] > n_ids
        || mask_width > n_subs || offsets[0] != 0
        || offsets[n_groups] > n_members) {
        return -3;
    }
    for (int64_t g = 0; g < n_groups; ++g) {
        if (offsets[g + 1] < offsets[g]) {
            return -3;
        }
    }
    for (int64_t i = 0; i < offsets[n_groups]; ++i) {
        if (members[i] < 0 || members[i] >= n_subs) {
            return -3;
        }
    }
    for (int64_t e = 0; e < n_events; ++e) {
        if (event_rows[e] < 0 || event_rows[e] >= n_rows
            || groups[e] < -1 || groups[e] >= n_groups
            || bounds[2 * e + 1] < bounds[2 * e]
            || bounds[2 * e + 2] < bounds[2 * e + 1]) {
            return -3;
        }
    }
    for (int64_t i = 0; i < bounds[2 * n_events]; ++i) {
        if (ids[i] < 0 || ids[i] >= n_subs) {
            return -3;
        }
    }

    price_scratch s;
    s.n = n;
    s.stamp = 0;
    s.seen = calloc((size_t)(4 * n), sizeof(int64_t));
    s.nodes = malloc((size_t)(3 * n + 1) * sizeof(int64_t));
    s.vals = malloc((size_t)(n + 1) * sizeof(double));
    /* audit: the subscribers a plan covers, by stamp */
    int64_t *held = calloc((size_t)(n_subs + 1), sizeof(int64_t));
    int64_t status = -1;
    err[2] = -1;
    if (!s.seen || !s.nodes || !s.vals || !held) {
        status = -2;
        goto done;
    }
    s.visited = s.seen + n;
    s.queued = s.seen + 2 * n;
    s.covered = s.seen + 3 * n;
    s.level = s.nodes + n;
    s.next = s.nodes + 2 * n;

    for (int64_t e = 0; e < n_events; ++e) {
        int64_t r = event_rows[e];
        int64_t source = sources[r];
        const double *d = (const double *)(uintptr_t)trees[3 * r];
        const int64_t *p = (const int64_t *)(uintptr_t)trees[3 * r + 1];
        const double *ed = (const double *)(uintptr_t)trees[3 * r + 2];
        const int64_t *interested = ids + bounds[2 * e];
        int64_t n_interested = bounds[2 * e + 1] - bounds[2 * e];
        int64_t g = groups[e];
        double *o = out + 4 * e;
        int64_t count;
        o[0] = o[1] = o[2] = o[3] = 0.0;
        if (flags & 1) {
            count = nodes_of(&s, interested, n_interested, sub_nodes);
            if (unicast_sum(&s, d, s.nodes, count, &o[0], &err[1])) {
                err[0] = 0;
                status = e;
                goto done;
            }
            if (tree_walk(&s, source, d, p, ed, s.nodes, count,
                          &o[1], &err[1])) {
                err[0] = 1;
                status = e;
                goto done;
            }
            o[3] = broadcast[r];
        }
        if (!(flags & 2)) {
            continue;
        }
        wasted[e] = 0;
        if (g < 0) {
            /* unicast only: the unicast reference's legs */
            if (flags & 1) {
                o[2] = o[0];
                continue;
            }
            count = nodes_of(&s, interested, n_interested, sub_nodes);
            if (unicast_sum(&s, d, s.nodes, count, &o[2], &err[1])) {
                err[0] = 0;
                status = e;
                goto done;
            }
            continue;
        }
        const uint8_t *row = masks + g * mask_stride;
        const int64_t *unicast = ids + bounds[2 * e + 1];
        int64_t n_unicast = bounds[2 * e + 2] - bounds[2 * e + 1];
        int64_t cover = ++s.stamp;
        double total = 0.0;
        double leg;
        /* the group's nodes, from its member list */
        int64_t n_group = offsets[g + 1] - offsets[g];
        count = nodes_of(&s, members + offsets[g], n_group, sub_nodes);
        if (tree_walk(&s, source, d, p, ed, s.nodes, count, &leg,
                      &err[1])) {
            err[0] = 1;
            status = e;
            goto done;
        }
        total += leg;
        for (int64_t i = 0; i < count; ++i) {
            s.covered[s.nodes[i]] = cover;
        }
        /* drop nodes the group already reaches (order kept) */
        count = nodes_of(&s, unicast, n_unicast, sub_nodes);
        int64_t k = 0;
        for (int64_t i = 0; i < count; ++i) {
            if (s.covered[s.nodes[i]] != cover) {
                s.nodes[k++] = s.nodes[i];
            }
        }
        if (unicast_sum(&s, d, s.nodes, k, &leg, &err[1])) {
            err[0] = 0;
            status = e;
            goto done;
        }
        o[2] = total + leg;
        if (!(flags & 4)) {
            continue;
        }
        /* DeliveryPlan.audit: the covered subscribers (members and
         * unicast ids, once each) must hold every interested one */
        int64_t held_stamp = e + 1;
        int64_t n_covered = n_group;
        for (int64_t i = 0; i < n_unicast; ++i) {
            int64_t v = unicast[i];
            if (held[v] != held_stamp && !(v < mask_width && row[v])) {
                ++n_covered;
            }
            held[v] = held_stamp;
        }
        for (int64_t i = 0; i < n_interested; ++i) {
            int64_t v = interested[i];
            if (held[v] != held_stamp && !(v < mask_width && row[v])) {
                if (err[2] < 0) {
                    err[2] = e;
                }
                break;
            }
        }
        wasted[e] = n_covered - n_interested;
    }
    if (err[2] >= 0) {
        status = -4;
    }
done:
    free(s.seen);
    free(s.nodes);
    free(s.vals);
    free(held);
    return status;
}


/* Hyper-cell rasteriser: OR each subscription row's column bit into
 * the packed membership row of every grid cell in its box.
 *
 *   starts, stops  (k, n_dims) per-dimension [start, stop) cell ranges
 *                  (EventSpace.cell_boxes); a row with an empty range
 *                  in some dimension covers nothing
 *   columns        (k,) column (subscriber id) of each row
 *   shape          (n_dims,) cells per dimension, row-major flat cells
 *   packed         (prod(shape), n_bytes), zeroed by the caller; bit
 *                  order of np.packbits(axis=1)
 *
 * ORs commute, so the row order does not matter; the innermost
 * dimension's cells are consecutive rows, n_bytes apart. */
EXPORT void repro_rasterise_boxes(
    const int64_t *starts, const int64_t *stops, const int64_t *columns,
    int64_t k, int64_t n_dims, const int64_t *shape,
    uint8_t *packed, int64_t n_bytes)
{
    int64_t stride[n_dims];
    int64_t idx[n_dims];
    int64_t inner = n_dims - 1;
    stride[inner] = n_bytes;
    for (int64_t d = inner - 1; d >= 0; --d) {
        stride[d] = stride[d + 1] * shape[d + 1];
    }
    for (int64_t r = 0; r < k; ++r) {
        const int64_t *lo = starts + r * n_dims;
        const int64_t *hi = stops + r * n_dims;
        int covers = 1;
        for (int64_t d = 0; d < n_dims; ++d) {
            covers &= hi[d] > lo[d];
        }
        if (!covers) {
            continue;
        }
        uint8_t bit = (uint8_t)(0x80u >> (columns[r] & 7));
        uint8_t *column = packed + (columns[r] >> 3);
        for (int64_t d = 0; d < inner; ++d) {
            idx[d] = lo[d];
        }
        for (;;) {
            int64_t offset = lo[inner] * n_bytes;
            for (int64_t d = 0; d < inner; ++d) {
                offset += idx[d] * stride[d];
            }
            uint8_t *p = column + offset;
            for (int64_t c = lo[inner]; c < hi[inner]; ++c, p += n_bytes) {
                *p |= bit;
            }
            /* next box row: an odometer over the outer dimensions */
            int64_t d = inner - 1;
            while (d >= 0 && ++idx[d] == hi[d]) {
                idx[d] = lo[d];
                --d;
            }
            if (d < 0) {
                break;
            }
        }
    }
}

/* Hash of one packed row, 8 bytes at a time; *bits is its popcount. */
static inline uint64_t row_hash(const uint8_t *row, int64_t b, int64_t *bits)
{
    uint64_t h = 0x9e3779b97f4a7c15ull;
    int64_t count = 0;
    for (int64_t j = 0; j < b; j += 8) {
        uint64_t w = 0;
        memcpy(&w, row + j, b - j < 8 ? (size_t)(b - j) : 8);
        count += __builtin_popcountll(w);
        h = (h ^ w) * 0xff51afd7ed558ccdull;
        h ^= h >> 32;
    }
    *bits = count;
    return h;
}

/* Sort ids by their rows' bytes (memcmp order); the rows are
 * distinct, so stability does not matter.  A plain top-down merge
 * sort, with the rows passed in rather than held in a global. */
static void sort_rows(
    int64_t *ids, int64_t *tmp, int64_t n,
    const uint8_t *rows, int64_t b, const int64_t *row_of)
{
    if (n < 2) {
        return;
    }
    if (n <= 16) {
        for (int64_t i = 1; i < n; ++i) {
            int64_t v = ids[i];
            const uint8_t *rv = rows + row_of[v] * b;
            int64_t j = i - 1;
            while (j >= 0 && memcmp(rows + row_of[ids[j]] * b, rv, b) > 0) {
                ids[j + 1] = ids[j];
                --j;
            }
            ids[j + 1] = v;
        }
        return;
    }
    int64_t half = n / 2;
    sort_rows(ids, tmp, half, rows, b, row_of);
    sort_rows(ids + half, tmp, n - half, rows, b, row_of);
    if (memcmp(rows + row_of[ids[half - 1]] * b,
               rows + row_of[ids[half]] * b, b) < 0) {
        return;  /* already in order */
    }
    int64_t i = 0, j = half, t = 0;
    while (i < half && j < n) {
        if (memcmp(rows + row_of[ids[j]] * b,
                   rows + row_of[ids[i]] * b, b) < 0) {
            tmp[t++] = ids[j++];
        } else {
            tmp[t++] = ids[i++];
        }
    }
    while (i < half) {
        tmp[t++] = ids[i++];
    }
    while (j < n) {
        tmp[t++] = ids[j++];
    }
    memcpy(ids, tmp, (size_t)n * sizeof *ids);
}

/* Group equal packed rows in one pass, with the all-zero rows
 * dropped on the way: the groups of np.unique(rows[nonempty], axis=0,
 * return_index=True, return_inverse=True), numbered in order of first
 * occurrence instead of by their bytes (repro_sort_rows ranks the
 * ones a caller keeps).
 *
 *   rows      (n, b) packed membership rows
 *   nonempty  out (n,): the rows with a set bit, ascending; the first
 *             *n_nonempty entries are written
 *   first     out (n,): per group, the position in nonempty of its
 *             first occurrence (ascending)
 *   inverse   out (n,): per nonempty row, its group
 *   sizes     out (n,): per group, the set bits of its row
 *
 * The rows are hashed in row order, so a group is found first at its
 * smallest row; a row equal to the previous non-empty row
 * (neighbouring grid cells often are) joins its group without a
 * probe.  Table slots hold the hash's top half as a tag, so a probe
 * compares row bytes only on a tag match.  Returns the number of
 * groups, or -2 when the scratch allocation fails. */
typedef struct {
    uint32_t tag;
    int32_t group;  /* -1: empty slot */
} group_slot;

EXPORT int64_t repro_group_rows(
    const uint8_t *rows, int64_t n, int64_t b,
    int64_t *nonempty, int64_t *first, int64_t *inverse, int64_t *sizes,
    int64_t *n_nonempty)
{
    int64_t cap = 16;
    while (cap < 2 * n) {
        cap <<= 1;
    }
    uint64_t mask = (uint64_t)cap - 1;
    group_slot *table = malloc((size_t)cap * sizeof *table);
    int64_t *row_of = malloc((size_t)(n + 1) * sizeof *row_of);
    int64_t n_groups = -2;
    if (!table || !row_of) {
        goto done;
    }
    for (int64_t s = 0; s < cap; ++s) {
        table[s].group = -1;
    }
    n_groups = 0;
    int64_t count = 0;
    const uint8_t *prev = NULL;
    int64_t prev_group = -1;
    for (int64_t i = 0; i < n; ++i) {
        const uint8_t *row = rows + i * b;
        if (prev != NULL && memcmp(row, prev, b) == 0) {
            nonempty[count] = i;
            inverse[count++] = prev_group;
            continue;
        }
        int64_t bits;
        uint64_t h = row_hash(row, b, &bits);
        if (bits == 0) {
            continue;
        }
        uint32_t tag = (uint32_t)(h >> 32);
        int64_t pos = count++;
        nonempty[pos] = i;
        uint64_t slot = h & mask;
        int64_t g;
        for (;;) {
            g = table[slot].group;
            if (g < 0) {
                g = n_groups++;
                table[slot].tag = tag;
                table[slot].group = (int32_t)g;
                row_of[g] = i;
                first[g] = pos;
                sizes[g] = bits;
                break;
            }
            if (table[slot].tag == tag
                && memcmp(rows + row_of[g] * b, row, b) == 0) {
                break;
            }
            slot = (slot + 1) & mask;
        }
        inverse[pos] = g;
        prev = row;
        prev_group = g;
    }
    *n_nonempty = count;
done:
    free(table);
    free(row_of);
    return n_groups;
}

/* The memcmp order of n distinct packed rows (row_ids (n,) into rows,
 * b bytes each), which is np.unique's lexicographic order of uint8
 * rows: order (n,) out, positions into row_ids.  Returns 0, or -2
 * when the scratch allocation fails. */
EXPORT int64_t repro_sort_rows(
    const uint8_t *rows, int64_t b, const int64_t *row_ids, int64_t n,
    int64_t *order)
{
    int64_t *tmp = malloc((size_t)(n + 1) * sizeof *tmp);
    if (!tmp) {
        return -2;
    }
    for (int64_t i = 0; i < n; ++i) {
        order[i] = i;
    }
    sort_rows(order, tmp, n, rows, b, row_ids);
    free(tmp);
    return 0;
}

/* Ascending int64 order for qsort (equal values are interchangeable,
 * so stability is moot). */
static int cmp_int64(const void *a, const void *b)
{
    int64_t x = *(const int64_t *)a;
    int64_t y = *(const int64_t *)b;
    return (x > y) - (x < y);
}

/* EventSpace.locate_batch for one point: the flat cell index, or -1
 * outside the grid (NaN included).  The same float operations as
 * numpy: x > dim_lo - 1 and x <= dim_hi per dimension, then
 * ceil(x - dim_lo) clipped to [0, shape - 1]. */
static int64_t locate(
    const double *x, int64_t n_dims, const double *dim_lo,
    const double *dim_hi, const int64_t *shape, const int64_t *strides)
{
    for (int64_t d = 0; d < n_dims; ++d) {
        if (!(x[d] > dim_lo[d] - 1.0 && x[d] <= dim_hi[d])) {
            return -1;
        }
    }
    int64_t flat = 0;
    for (int64_t d = 0; d < n_dims; ++d) {
        double c = ceil(x[d] - dim_lo[d]);
        double top = (double)(shape[d] - 1);
        if (c < 0.0) {
            c = 0.0;
        }
        if (c > top) {
            c = top;
        }
        flat += (int64_t)c * strides[d];
    }
    return flat;
}

/* The matching of a run of queries against a table of bound rows, in
 * one call.
 *
 *   q_lo (E, N) float64: the queries; with q_hi NULL each is a point x
 *       and row j matches when lo_j < x <= hi_j in every dimension
 *       (SubscriptionSet.batch_interested_subscribers); with q_hi
 *       (E, N) each is the box (q_lo, q_hi] and row j matches when
 *       lo_j <= q_lo and q_hi <= hi_j (No-Loss member sets)
 *   los, his (k, N) float64, owners (k,) int64: the rows and the
 *       subscriber owning each
 *
 * Each query's owners are sorted and deduplicated only when they are
 * not already strictly increasing.  With dim_lo non-NULL (points only)
 * the run is also placed on the grid (EventSpace.locate_batch), the
 * cell's hyper-cell and group are looked up (hyper_of_cell (n_cells,)
 * int32, assignment (n_hyper,) int64) and the Figure 5 rule of
 * matching.threshold_plan decides the group: the members' bool rows
 * (n_groups rows of mask_stride bytes, mask_width columns) count the
 * interested members n, and the group is used unless n == 0 or
 * n / group_sizes[g] <= threshold (0 when the group is empty).
 *
 * out holds 3E + 3 header entries, then up to capacity ids:
 *   out[0]            number of ids the run needs
 *   out[1]            grouped cells the threshold rule rejected
 *   out[2 .. 2E+2]    bounds: query e's owners are ids[b[2e], b[2e+1]),
 *                     the unicast ids of a multicast plan
 *                     ids[b[2e+1], b[2e+2]) (empty otherwise)
 *   out[2E+3 .. 3E+3) the group used per query, -1 for unicast only
 *
 * Returns 0, 1 when the ids did not fit in capacity (out[0] says how
 * many are needed; nothing else is meaningful), -2 when scratch
 * allocation fails, or -3 when a grid, group or member index is out of
 * range. */
EXPORT int64_t repro_match_run(
    int64_t n_events, int64_t n_dims, const double *q_lo,
    const double *q_hi, int64_t n_rows, const double *los,
    const double *his, const int64_t *owners,
    const double *dim_lo, const double *dim_hi, const int64_t *shape,
    const int64_t *strides, const int32_t *hyper_of_cell,
    int64_t n_cells, const int64_t *assignment, int64_t n_hyper,
    const uint8_t *masks, int64_t mask_stride, int64_t mask_width,
    const int64_t *group_sizes, int64_t n_groups, double threshold,
    int64_t *out, int64_t capacity)
{
    int64_t *bounds = out + 2;
    int64_t *groups = out + 2 * n_events + 3;
    int64_t *ids = out + 3 * n_events + 3;
    /* the rows dimension-major, so that each query's compares run
     * over contiguous columns (vectorised), and a match flag per row */
    int64_t *hits = malloc((size_t)(n_rows + 1) * sizeof *hits);
    double *cols = malloc((size_t)(2 * n_rows * n_dims + 1) * sizeof *cols);
    uint8_t *match = malloc((size_t)(n_rows + 1));
    int64_t pos = 0;
    int64_t n_fallbacks = 0;
    int64_t status = 0;
    if (!hits || !cols || !match) {
        status = -2;
        goto done;
    }
    for (int64_t j = 0; j < n_rows; ++j) {
        for (int64_t d = 0; d < n_dims; ++d) {
            cols[d * n_rows + j] = los[j * n_dims + d];
            cols[(n_dims + d) * n_rows + j] = his[j * n_dims + d];
        }
    }
    bounds[0] = 0;
    for (int64_t e = 0; e < n_events; ++e) {
        const double *x = q_lo + e * n_dims;
        const double *top = q_hi ? q_hi + e * n_dims : NULL;
        memset(match, 1, (size_t)n_rows);
        for (int64_t d = 0; d < n_dims; ++d) {
            const double *lo = cols + d * n_rows;
            const double *hi = cols + (n_dims + d) * n_rows;
            double a = x[d];
            if (top) {
                double b = top[d];
                for (int64_t j = 0; j < n_rows; ++j) {
                    match[j] &= (lo[j] <= a) & (b <= hi[j]);
                }
            } else {
                for (int64_t j = 0; j < n_rows; ++j) {
                    match[j] &= (lo[j] < a) & (a <= hi[j]);
                }
            }
        }
        int64_t count = 0;
        for (int64_t j = 0; j < n_rows; ++j) {
            hits[count] = owners[j];
            count += match[j];
        }
        int increasing = 1;
        for (int64_t i = 1; i < count; ++i) {
            increasing &= hits[i] > hits[i - 1];
        }
        if (!increasing) {
            qsort(hits, (size_t)count, sizeof *hits, cmp_int64);
            int64_t unique = 1;
            for (int64_t i = 1; i < count; ++i) {
                if (hits[i] != hits[unique - 1]) {
                    hits[unique++] = hits[i];
                }
            }
            count = unique;
        }
        int64_t group = -1;
        if (dim_lo) {
            int64_t flat = locate(x, n_dims, dim_lo, dim_hi, shape, strides);
            if (flat >= n_cells) {
                status = -3;
                goto done;
            }
            int64_t hyper = flat < 0 ? -1 : hyper_of_cell[flat];
            if (hyper >= n_hyper) {
                status = -3;
                goto done;
            }
            group = hyper < 0 ? -1 : assignment[hyper];
            if (group >= n_groups || group < -1) {
                status = -3;
                goto done;
            }
        }
        const uint8_t *row = NULL;
        if (group >= 0) {
            row = masks + group * mask_stride;
            int64_t members = 0;
            for (int64_t i = 0; i < count; ++i) {
                if (hits[i] < 0 || hits[i] >= mask_width) {
                    status = -3;
                    goto done;
                }
                members += row[hits[i]] != 0;
            }
            int64_t size = group_sizes[group];
            double proportion = size ? (double)members / (double)size : 0.0;
            if (members == 0 || proportion <= threshold) {
                ++n_fallbacks;
                group = -1;
            }
        }
        bounds[2 * e] = pos;
        if (pos + count <= capacity) {
            memcpy(ids + pos, hits, (size_t)count * sizeof *hits);
        }
        pos += count;
        bounds[2 * e + 1] = pos;
        if (group >= 0) {
            for (int64_t i = 0; i < count; ++i) {
                if (!row[hits[i]]) {
                    if (pos < capacity) {
                        ids[pos] = hits[i];
                    }
                    ++pos;
                }
            }
        }
        bounds[2 * e + 2] = pos;
        groups[e] = group;
    }
    out[0] = pos;
    out[1] = n_fallbacks;
    status = pos > capacity ? 1 : 0;
done:
    free(hits);
    free(cols);
    free(match);
    return status;
}
