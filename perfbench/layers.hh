/**
 * @file
 * Per-layer timings taken from outside the step: standalone layers
 * and kernels built through their public constructors at a
 * workload's shapes, each call timed as a median of repetitions.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <cstdint>
#include <vector>

#include "data/dataset.hh"
#include "nn/gpt.hh"

namespace perfbench
{

/** Seconds per call of each nn op (forward + backward in training,
 *  Infer forward of one decode row in serving). */
struct NnTimes
{
    double embedding = 0.0;
    double layernorm = 0.0;
    double qkv = 0.0;
    /** Attention minus its qkv and output projections. */
    double attentionCore = 0.0;
    double proj = 0.0;
    /** fc1 + GELU + fc2. */
    double mlp = 0.0;
    /** Tied output head + softmax cross-entropy (head only when
     *  serving). */
    double headLoss = 0.0;
    /** Adam step + zeroGrad over one replica's parameters (training
     *  only). */
    double optimizer = 0.0;

    /** Seconds one micro-batch (or decode row) spends in these ops
     *  across the whole model, optimizer excluded. */
    double modelPass(int64_t layers) const
    {
        return embedding + headLoss + layernorm +
               static_cast<double>(layers) *
                   (2.0 * layernorm + qkv + attentionCore + proj + mlp);
    }
};

/**
 * Train-mode forward + backward of each op on one micro-batch of
 * @p batch sequences, run inline (as inside a replica task, where
 * nested parallel regions run on the issuing worker).
 */
NnTimes timeTrainLayers(const optimus::GptConfig &model, int64_t batch);

/** Infer-mode forward of one decode row against a KV cache holding
 *  @p context earlier positions, run inline. */
NnTimes timeDecodeLayers(const optimus::GptConfig &model, int64_t context);

/** One fc1-shaped GEMM triple at the pool size: forward X*W,
 *  input gradient dY*W^T and weight gradient X^T*dY. */
struct GemmRate
{
    double seconds = 0.0; // per triple
    double gflops = 0.0;
};
GemmRate timeGemm(int64_t rows, int64_t in, int64_t out);

/** A [rows x cols] message compressed at a PowerSGD rank. */
struct CompressShape
{
    int64_t rows = 0;
    int64_t cols = 0;
    int rank = 1;
};

/** PowerSGD (compress + reconstruct) throughput over @p shapes, in
 *  million input elements per second. */
double powerSgdMelemPerS(const std::vector<CompressShape> &shapes);

/** Round trip of an empty parallelFor over the pool, microseconds.
 *  On a 1-thread pool parallelFor runs inline, so this times a plain
 *  call. */
double dispatchMicros();

/** Seconds for @p calls sampleBatchInto calls of @p batch rows. */
double sampleSeconds(const optimus::LmDataset &data, int64_t batch,
                     int calls);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
