/**
 * @file
 * PowerSGD low-rank gradient compression (Vogels et al., NeurIPS'19),
 * the algorithm Optimus-CC adopts for both compressed backpropagation
 * and data-parallel gradient compression.
 *
 * A [rows x cols] matrix M is approximated as P * Q^T where P is
 * [rows x r] and Q is [cols x r]. A single power iteration suffices
 * because Q is warm-started from the previous message of the same
 * stream:
 *
 *   P = M * Q_prev;  P_hat = orthonormalize(P);  Q = M^T * P_hat;
 *   M_approx = P_hat * Q^T
 *
 * The factors are kept row-major as P^T [r x rows] and Q^T
 * [r x cols], so each of the r vectors the Gram-Schmidt walks is one
 * contiguous row:
 *
 *   P^T = Q_prev^T * M^T          (matmulAccNT)
 *   Q^T = P_hat^T * M             (matmulAcc)
 *   M_approx = (P_hat^T)^T * Q^T  (matmulAccTN)
 *
 * Every GEMM builds each element from the same k-ordered products as
 * the column-layout form, so the layout is bitwise neutral.
 *
 * Payload is (rows + cols) * r floats instead of rows * cols.
 */

#ifndef OPTIMUS_COMPRESS_POWERSGD_HH
#define OPTIMUS_COMPRESS_POWERSGD_HH

#include <vector>

#include "compress/compressor.hh"
#include "util/random.hh"

namespace optimus
{

/**
 * In-place modified Gram-Schmidt orthonormalization of the rows of
 * @p m, in row order. Degenerate (near-zero) rows are replaced with
 * zero vectors rather than being renormalized, matching the
 * reference PowerSGD implementation's tolerance for rank
 * deficiency.
 */
void orthonormalizeRows(Tensor &m);

/**
 * The *distributed* PowerSGD mean-reduction protocol used for
 * data-parallel gradient compression across D workers. Unlike a
 * per-worker lossy channel, the all-reduces happen inside the
 * algorithm:
 *
 *   each worker d:  P_d = M_d * Q
 *   all-reduce:     P   = sum_d P_d            (r * rows floats)
 *   everyone:       P_hat = orthonormalize(P)
 *   each worker d:  Q_d = M_d^T * P_hat
 *   all-reduce:     Q   = (1/D) sum_d Q_d      (r * cols floats)
 *   everyone:       mean(M) ~= P_hat * Q^T
 *
 * (P and Q held transposed, as in the file comment.)
 *
 * All workers reconstruct the *same* approximation, so replicas stay
 * bit-identical -- the property that lets Optimus-CC compress DP
 * traffic without replica divergence.
 */
class DistributedPowerSgd
{
  public:
    /**
     * @param workers Number of data-parallel workers D.
     * @param rank Approximation rank.
     * @param seed Seed for the shared initial Q.
     */
    DistributedPowerSgd(int workers, int rank, uint64_t seed = 1);

    /**
     * Run one compressed mean-all-reduce over per-worker matrices.
     *
     * @param inputs One [rows x cols] gradient per worker.
     * @param mean_output Common reconstruction of the mean gradient.
     * @return total bytes crossing the inter-node network for the
     *         two all-reduce phases (ring-all-reduce volume is
     *         accounted by the perf model; this is the logical
     *         message size (rows + cols) * r * 4 per direction).
     */
    int64_t reduce(const std::vector<const Tensor *> &inputs,
                   Tensor &mean_output);

    /** Payload bytes for the perf model (both phases). */
    int64_t payloadBytes(int64_t rows, int64_t cols) const;

    /** Drop warm-start state. */
    void reset();

    /** Bytes of the shared warm-start matrix. */
    int64_t stateBytes() const;

    /** The warm-start Q^T [r x cols] (empty before the first call). */
    const Tensor &warmQ() const { return q_; }

    int rank() const { return rank_; }
    int workers() const { return workers_; }

  private:
    friend class PowerSgdCompressor;

    /** The power iteration behind reduce(), without its span. */
    int64_t iterate(const std::vector<const Tensor *> &inputs,
                    Tensor &mean_output);

    int workers_;
    int rank_;
    uint64_t seed_;
    Rng rng_;
    Tensor q_;
    /**
     * Persistent P/Q accumulation scratch, zeroed and reused across
     * calls so the steady state allocates nothing (the new Q swaps
     * with q_, so qScratch_ recycles the old Q's storage). Starting
     * from a zeroed buffer and accumulating is bitwise identical to
     * the old freshly-allocated tensors (which were zeroed too).
     */
    Tensor pScratch_;
    Tensor qScratch_;
};

/**
 * Single-stream PowerSGD channel with warm-started Q: the
 * distributed protocol above at D = 1, so CB channels and DP buckets
 * run one power iteration (the 1/D scale is an exact x 1.0f).
 */
class PowerSgdCompressor : public Compressor
{
  public:
    /**
     * @param rank Approximation rank r (clamped to min(rows, cols)
     *        at compression time).
     * @param seed Seed for the initial random Q.
     */
    explicit PowerSgdCompressor(int rank, uint64_t seed = 1);

    int64_t compress(const Tensor &input, Tensor &output) override;
    int64_t payloadBytes(int64_t rows, int64_t cols) const override;
    void reset() override;
    int64_t stateBytes() const override;

    /** Configured rank. */
    int rank() const { return iteration_.rank(); }

    /** The warm-start Q^T [r x cols] (empty before the first call). */
    const Tensor &warmQ() const { return iteration_.warmQ(); }

  private:
    DistributedPowerSgd iteration_;
    /** One-entry input view, rebuilt in place every compress. */
    std::vector<const Tensor *> inputs_;
};

} // namespace optimus

#endif // OPTIMUS_COMPRESS_POWERSGD_HH
