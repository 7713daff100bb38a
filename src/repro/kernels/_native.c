/* Native membership kernels over packed uint64 bitsets.
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
 *   - group-mass accumulation is sequential float64 adds in covered-cell
 *     order, matching np.bincount with weights;
 *   - MacQueen distances are float64 p_c*(gs - s) + p_g*(cs - s), two
 *     products and one sum, each rounded once, on exact integer
 *     intersections.
 *
 * -ffp-contract=off matters: a fused multiply-add would skip the
 * intermediate rounding numpy performs and break bit-equality.
 */

#include <math.h>
#include <stdint.h>

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

/* Per-group publication mass of a set of covered grid cells.
 * ``groups`` is the sentinel-extended per-cell group map (unclustered
 * cells point at bucket ``n_groups``); ``out`` has n_groups + 1 entries
 * and must be zeroed by the caller.  Accumulation order matches
 * np.bincount(groups[covered], weights=pmf[covered]). */
EXPORT void repro_group_mass(
    const int64_t *covered, int64_t n,
    const int64_t *groups, const double *pmf, double *out)
{
    for (int64_t t = 0; t < n; ++t) {
        int64_t cell = covered[t];
        out[groups[cell]] += pmf[cell];
    }
}

/* Fused online join scoring: group-mass accumulation over the covered
 * cells (same semantics as repro_group_mass, but zeroing ``out``
 * itself) followed by the argmin of ``group_mass[g] - 2 * overlap[g]``
 * over the groups with positive overlap.  Returns the chosen group, or
 * -1 when no group overlaps.  The scan is ascending with a strict
 * less-than, matching np.argmin's first-occurrence tie-break over the
 * candidate subsequence; the score arithmetic (one product, one
 * subtraction, each rounded once in float64) matches the vectorised
 * numpy formulation — -ffp-contract=off keeps it fuse-free. */
EXPORT int64_t repro_join_score(
    const int64_t *covered, int64_t n,
    const int64_t *groups, const double *pmf,
    const double *group_mass, int64_t n_groups, double *out)
{
    for (int64_t g = 0; g <= n_groups; ++g) {
        out[g] = 0.0;
    }
    for (int64_t t = 0; t < n; ++t) {
        int64_t cell = covered[t];
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

/* |cell ∩ group| for one pair of packed rows: a popcount, or with
 * column weights (aggregate columns) the int64 sum of the weights of
 * the shared bits.  Both are exact integers, equal to the float32
 * matvec of 0/1 rows the numpy reference computes. */
static inline int64_t weighted_and(
    const uint64_t *a, const uint64_t *b, int64_t w, const int64_t *weights)
{
    if (weights == 0) {
        return popcount_and(a, b, w);
    }
    int64_t acc = 0;
    for (int64_t k = 0; k < w; ++k) {
        uint64_t bits = a[k] & b[k];
        while (bits) {
            acc += weights[k * 64 + __builtin_ctzll(bits)];
            bits &= bits - 1;
        }
    }
    return acc;
}

/* MacQueen K-means: every sweep of KMeansClustering.fit in one call,
 * move-for-move identical to the python loop.  Per visited cell the
 * distance to group g is p_c*(gs_g - s) + p_g*(cs - s) in float64 (two
 * products and one sum, each rounded once), the target is the first
 * minimum, a cell that is the last of its group never moves, and a
 * move applies probs[cur] -= p_c before probs[tgt] += p_c.  Group
 * sizes are kept as exact integer sums (in float64) through the
 * per-column member counts.
 *
 * All buffers are allocated by the caller:
 *   cell_words  (m, w) uint64 packed cell rows
 *   cell_probs  (m,) float64, cell_sizes (m,) float64
 *   weights     (n_bits,) int64 column weights, or NULL (all ones)
 *   counts      (k, n_bits) int32, mutated: members per group and column
 *   group_words (k, w) uint64, mutated: bit set iff count > 0
 *   group_sizes (k,) float64, probs (k,) float64, n_cells_in (k,) int64,
 *   assignment  (m,) int64, all mutated
 *   counters    (2,) int64 out: [iterations, distance_evals]
 */
EXPORT void repro_kmeans_sweeps(
    const uint64_t *cell_words, int64_t m, int64_t w, int64_t n_bits,
    const double *cell_probs, const double *cell_sizes,
    const int64_t *weights,
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
            double cs = cell_sizes[c];
            int64_t best = 0;
            double best_d = 0.0;
            for (int64_t g = 0; g < k; ++g) {
                double s = (double)weighted_and(
                    cw, group_words + g * w, w, weights);
                double a = pc * (group_sizes[g] - s);
                double b = probs[g] * (cs - s);
                double d = a + b;
                if (g == 0 || d < best_d) {
                    best = g;
                    best_d = d;
                }
            }
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
                    double wj = weights ? (double)weights[j] : 1.0;
                    if (--from[j] == 0) {
                        from_w[t] &= ~(1ULL << bit);
                        group_sizes[cur] -= wj;
                    }
                    if (to[j]++ == 0) {
                        to_w[t] |= 1ULL << bit;
                        group_sizes[best] += wj;
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
