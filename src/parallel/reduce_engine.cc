#include "parallel/reduce_engine.hh"

#include <algorithm>
#include <cmath>

#include "compress/error_feedback.hh"
#include "compress/powersgd.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "util/logging.hh"

namespace optimus
{

namespace
{

/**
 * Buckets enqueued but not yet reduced, across every stage's engine
 * — the "bucket occupancy" counter track. Tracing-only telemetry;
 * nothing reads it back.
 */
std::atomic<int> g_bucketsInFlight{0};

} // namespace

/** Runtime state of one bucket (layout + persistent scratch). */
struct ReduceEngine::Bucket
{
    BucketSpec spec;
    /** Position in buckets_ (trace span id). */
    int index = 0;
    /** grads[e][d]: worker d's gradient tensor of packed entry e. */
    std::vector<std::vector<Tensor *>> grads;
    /** Shared ownership keeping the gradient tensors alive. */
    std::vector<ParamPtr> owners;

    /** Compressed-bucket state (single compressible parameter). */
    std::unique_ptr<DistributedPowerSgd> dps;
    /**
     * Per-worker residuals e_d, zeros from construction, with error
     * feedback on; none with it off. Each fold turns e_d into the
     * error-fed input M_d = grad_d + e_d in place.
     */
    std::vector<ErrorFeedback> feedback;
    /** Persistent mean reconstruction. */
    Tensor mean;
    /** PowerSGD inputs (the fed residuals, or the raw gradients
     *  with error feedback off), rebuilt in place every reduce. */
    std::vector<const Tensor *> inputs;

    /**
     * The bucket's collective group (exact buckets only): one
     * segment per packed parameter, one pointer column per worker.
     * Built once at construction; gradient storage is stable.
     */
    CommGroup group;

    /** Per-iteration busy time (written by exactly one task). */
    double busySeconds = 0.0;

    /** Cumulative norm probe of a compressed bucket (single-task
     *  writes, never reset per iteration). */
    obs::CompressionHealth probe;
};

ReduceEngine::ReduceEngine(
    const ReduceEngineConfig &config,
    const std::vector<std::vector<ParamPtr>> &worker_params,
    const std::vector<const Param *> &excluded)
    : config_(config),
      workers_(static_cast<int>(worker_params.size())),
      transport_(config.transport ? config.transport
                                  : &defaultTransport())
{
    OPTIMUS_ASSERT(workers_ >= 1);
    OPTIMUS_ASSERT(config.bucketBytes >= 1);
    const size_t param_count = worker_params[0].size();
    for (const auto &list : worker_params)
        OPTIMUS_ASSERT(list.size() == param_count);

    // The buckets' persistent tensors (mean reconstructions,
    // residuals) live in the engine's arena, like the temporaries
    // of the bucket tasks.
    WorkspaceScope ws(&arena_);

    // Sorted-pointer membership set: the order is address order
    // (run-dependent) but only membership is ever queried, so no
    // iteration order can leak into results.
    std::vector<const Param *> sorted_excluded(excluded);
    std::sort(sorted_excluded.begin(), sorted_excluded.end());

    std::unique_ptr<Bucket> open;
    auto close_open = [&] {
        if (open)
            buckets_.push_back(std::move(open));
    };

    for (size_t j = 0; j < param_count; ++j) {
        const Param *p0 = worker_params[0][j].get();
        if (std::binary_search(sorted_excluded.begin(),
                               sorted_excluded.end(), p0))
            continue;
        const int64_t elems = worker_params[0][j]->size();
        for (int d = 0; d < workers_; ++d)
            OPTIMUS_ASSERT(worker_params[d][j]->size() == elems);

        const bool compress =
            config_.compressStage && compressible(*worker_params[0][j]);
        if (compress) {
            // Dedicated bucket: PowerSGD state is shaped by this
            // parameter's matrix and seeded per parameter index, so
            // the compressed stream does not depend on the layout.
            close_open();
            auto bucket = std::make_unique<Bucket>();
            bucket->spec.params.push_back(j);
            bucket->spec.offsets.push_back(0);
            bucket->spec.elems = elems;
            bucket->spec.compressed = true;
            bucket->grads.emplace_back();
            for (int d = 0; d < workers_; ++d) {
                bucket->grads[0].push_back(
                    &worker_params[d][j]->grad);
                bucket->owners.push_back(worker_params[d][j]);
            }
            bucket->dps = std::make_unique<DistributedPowerSgd>(
                workers_, config_.rank,
                config_.seed + 0x1000 * (j + 1));
            bucket->mean =
                Tensor(worker_params[0][j]->value.shape());
            resetFeedback(*bucket);
            bucket->inputs.resize(workers_);
            buckets_.push_back(std::move(bucket));
            continue;
        }

        const int64_t bytes =
            static_cast<int64_t>(sizeof(float)) * elems;
        if (open && static_cast<int64_t>(sizeof(float)) *
                            open->spec.elems +
                        bytes >
                    config_.bucketBytes)
            close_open();
        if (!open)
            open = std::make_unique<Bucket>();
        open->spec.params.push_back(j);
        open->spec.offsets.push_back(open->spec.elems);
        open->spec.elems += elems;
        open->grads.emplace_back();
        for (int d = 0; d < workers_; ++d) {
            open->grads.back().push_back(&worker_params[d][j]->grad);
            open->owners.push_back(worker_params[d][j]);
        }
    }
    close_open();

    // Build each exact bucket's collective group once: one segment
    // per packed parameter, pointer columns in worker order.
    for (auto &bucket : buckets_) {
        if (bucket->spec.compressed)
            continue;
        CommGroup &group = bucket->group;
        group.ranks = workers_;
        for (size_t e = 0; e < bucket->grads.size(); ++e) {
            group.segPtrs.emplace_back();
            for (int d = 0; d < workers_; ++d)
                group.segPtrs[e].push_back(
                    bucket->grads[e][d]->data());
            group.segLens.push_back(bucket->grads[e][0]->size());
        }
        group.finalize();
        OPTIMUS_ASSERT(group.totalElems == bucket->spec.elems);
    }

    specs_.reserve(buckets_.size());
    for (size_t i = 0; i < buckets_.size(); ++i) {
        buckets_[i]->index = static_cast<int>(i);
        specs_.push_back(buckets_[i]->spec);
    }
}

ReduceEngine::~ReduceEngine() = default;

void
ReduceEngine::beginIteration(TaskGroup &group, int64_t iteration)
{
    group_ = &group;
    iteration_ = iteration;
    arrivals_.store(0, std::memory_order_relaxed);
    for (auto &bucket : buckets_)
        bucket->busySeconds = 0.0;
}

void
ReduceEngine::notifyReplicaDone()
{
    // acq_rel: the last arrival must observe every replica's
    // gradient writes before the buckets go onto the queue.
    const int arrived =
        arrivals_.fetch_add(1, std::memory_order_acq_rel) + 1;
    OPTIMUS_ASSERT(arrived <= workers_);
    if (arrived == workers_)
        enqueueAll();
}

void
ReduceEngine::enqueueAll()
{
    OPTIMUS_ASSERT(group_ != nullptr);
    const int count = static_cast<int>(buckets_.size());
    if (obs::tracingEnabled() && count > 0) {
        const int total = g_bucketsInFlight.fetch_add(
                              count, std::memory_order_relaxed) +
                          count;
        obs::emitCounter("reduce.inflight", total);
    }
    for (auto &bucket : buckets_) {
        Bucket *b = bucket.get();
        group_->run([this, b] { reduceBucket(*b); });
    }
}

// optlint:hot — steady-state step path (zero-allocation contract).
void
ReduceEngine::reduceBucket(Bucket &bucket)
{
    // One clock pair feeds both the busy-time accumulator and the
    // trace span, so tracesum's dpReduceBusy reconciles with
    // StepPhaseTimes exactly (modulo export rounding).
    const int64_t t0 = obs::nowNs();
    // Temporaries under this task recycle in the engine's arena
    // regardless of which worker runs it (or of the submitting
    // replica's scope, which the runtime would otherwise propagate).
    WorkspaceScope ws(&arena_);
    if (bucket.spec.compressed)
        reduceCompressed(bucket);
    else
        reduceExact(bucket);
    const int64_t t1 = obs::nowNs();
    bucket.busySeconds = obs::secondsBetween(t0, t1);
    obs::emitSpan("reduce",
                  bucket.spec.compressed ? "bucketCompressed"
                                         : "bucketExact",
                  t0, t1, bucket.index, "iter", iteration_, "elems",
                  bucket.spec.elems);
    if (obs::tracingEnabled()) {
        const int left = g_bucketsInFlight.fetch_sub(
                             1, std::memory_order_relaxed) -
                         1;
        obs::emitCounter("reduce.inflight", left > 0 ? left : 0);
    }
    if (obs::metricsEnabled()) {
        static obs::Counter &reduced =
            obs::MetricsRegistry::instance().counter(
                "reduce.buckets.reduced");
        reduced.add(1);
    }
}

// optlint:hot — steady-state step path (zero-allocation contract).
void
ReduceEngine::reduceExact(Bucket &bucket)
{
    // Mean all-reduce over the bucket's flat extent via the
    // transport; the segmented combine kernel (grain-fixed chunks,
    // double accumulation in replica order — per element the same
    // arithmetic as a per-parameter all-reduce) lives in the
    // transport.
    transport_->allReduce(CommPhase::DpReduce, bucket.group,
                          ReduceOp::Mean);
}

// optlint:hot — steady-state step path (zero-allocation contract).
void
ReduceEngine::reduceCompressed(Bucket &bucket)
{
    const int workers = workers_;
    const bool feedback = !bucket.feedback.empty();
    std::vector<const Tensor *> &inputs = bucket.inputs;
    for (int d = 0; d < workers; ++d) {
        // The fold adds the gradient into the persistent residual in
        // place, so the steady state neither copies nor allocates.
        inputs[d] = feedback
                        ? &bucket.feedback[d].fold(*bucket.grads[0][d])
                        : bucket.grads[0][d];
    }

    transport_->allReduceCompressed(CommPhase::DpReduce, *bucket.dps,
                                    inputs, bucket.mean);

    // Observe the error-fed inputs against the mean reconstruction
    // before either is overwritten below; worker order into
    // single-task bucket state keeps the values thread-count
    // independent.
    const size_t n = static_cast<size_t>(bucket.mean.size());
    for (int d = 0; d < workers; ++d)
        bucket.probe.observe(inputs[d]->data(), bucket.mean.data(), n);

    for (int d = 0; d < workers; ++d) {
        if (feedback)
            bucket.feedback[d].update(bucket.mean);
        *bucket.grads[0][d] = bucket.mean;
    }
}

double
ReduceEngine::busySeconds() const
{
    double busy = 0.0;
    for (const auto &bucket : buckets_)
        busy += bucket->busySeconds;
    return busy;
}

bool
ReduceEngine::compressible(const Param &param)
{
    return param.value.rank() == 2 && param.value.rows() >= 2 &&
           param.value.cols() >= 2;
}

const std::vector<BucketSpec> &
ReduceEngine::buckets() const
{
    return specs_;
}

std::vector<double>
ReduceEngine::residualNorms() const
{
    std::vector<double> norms(workers_, 0.0);
    for (const auto &bucket : buckets_) {
        for (size_t d = 0; d < bucket->feedback.size(); ++d) {
            const double n = bucket->feedback[d].residual().norm();
            norms[d] += n * n;
        }
    }
    for (double &n : norms)
        n = std::sqrt(n);
    return norms;
}

obs::CompressionHealth
ReduceEngine::health() const
{
    obs::CompressionHealth h;
    for (const auto &bucket : buckets_) {
        h.merge(bucket->probe);
        for (const ErrorFeedback &feedback : bucket->feedback)
            h.residualNormSq += obs::l2NormSq(
                feedback.residual().data(),
                static_cast<size_t>(feedback.residual().size()));
    }
    return h;
}

int64_t
ReduceEngine::stateBytes() const
{
    int64_t total = 0;
    for (const auto &bucket : buckets_) {
        if (bucket->dps)
            total += bucket->dps->stateBytes();
        for (const ErrorFeedback &feedback : bucket->feedback)
            total += static_cast<int64_t>(sizeof(float)) *
                     feedback.residual().size();
    }
    return total;
}

void
ReduceEngine::reset()
{
    // Fresh residuals land in the engine's arena, as at construction.
    WorkspaceScope ws(&arena_);
    for (auto &bucket : buckets_) {
        if (bucket->dps) {
            bucket->dps->reset();
            resetFeedback(*bucket);
        }
    }
}

// optlint:coldfn — construction/reset() only, never per step.
void
ReduceEngine::resetFeedback(Bucket &bucket) const
{
    // Pre-sized zero residuals: the first fold adds zeros, exactly
    // as every later fold adds the carried residual.
    bucket.feedback.clear();
    if (config_.errorFeedback)
        bucket.feedback.assign(workers_,
                               ErrorFeedback(bucket.mean.shape()));
}

} // namespace optimus
