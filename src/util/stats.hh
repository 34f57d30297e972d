/**
 * @file
 * Small statistics helpers used by the instrumentation in the
 * quality experiments (Fig 11: error averages, activation-difference
 * averages, cosine similarity) and by the test suite.
 */

#ifndef OPTIMUS_UTIL_STATS_HH
#define OPTIMUS_UTIL_STATS_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace optimus
{

/** Arithmetic mean of a span of floats. Returns 0 for empty input. */
double mean(const float *data, size_t n);

/** Population standard deviation. Returns 0 for n < 2. */
double stddev(const float *data, size_t n);

/** Euclidean (L2) norm. */
double l2Norm(const float *data, size_t n);

/** Dot product of two equal-length spans. */
double dot(const float *a, const float *b, size_t n);

/**
 * Cosine similarity between two vectors; returns 0 when either has
 * (near-)zero norm, matching the convention used in the paper's
 * Fig 11 instrumentation.
 */
double cosineSimilarity(const float *a, const float *b, size_t n);

/** Convenience overloads on std::vector<float>. */
double mean(const std::vector<float> &v);
double stddev(const std::vector<float> &v);
double cosineSimilarity(const std::vector<float> &a,
                        const std::vector<float> &b);

/**
 * Streaming scalar accumulator (Welford) for per-iteration metric
 * series: tracks count, mean, variance, min, max.
 */
class RunningStat
{
  public:
    RunningStat();

    /** Fold one observation into the accumulator. */
    void add(double x);

    /** Number of observations so far. */
    size_t count() const { return count_; }

    /** Mean of observations (0 if empty). */
    double mean() const { return mean_; }

    /** Population variance (0 for count < 2). */
    double variance() const;

    /** Population standard deviation. */
    double stddev() const;

    /** Smallest observation (+inf if empty). */
    double min() const { return min_; }

    /** Largest observation (-inf if empty). */
    double max() const { return max_; }

    /** Reset to the empty state. */
    void reset();

  private:
    size_t count_;
    double mean_;
    double m2_;
    double min_;
    double max_;
};

/**
 * Fixed-bucket base-2 histogram over non-negative integers, used by
 * the obs metrics registry for size/duration distributions. Bucket b
 * holds values v with bucketIndex(v) == b, i.e. bucket 0 holds
 * {0}, bucket b >= 1 holds [2^(b-1), 2^b - 1]. Deterministic: the
 * state is pure integer counts, so snapshots are identical across
 * thread counts as long as the *set* of observations matches.
 */
class Log2Histogram
{
  public:
    static constexpr int kBuckets = 64;

    Log2Histogram();

    /** Bucket holding v; negatives clamp into bucket 0. */
    static int bucketIndex(int64_t v);

    /** Largest value bucket b holds (inclusive). */
    static int64_t bucketUpperBound(int b);

    /** Fold one observation in. */
    void add(int64_t v);

    /** Merge another histogram's counts into this one. */
    void merge(const Log2Histogram &other);

    /** Total observation count. */
    int64_t count() const { return count_; }

    /** Count in bucket b (0 <= b < kBuckets). */
    int64_t bucketCount(int b) const { return buckets_[b]; }

    /** Smallest observation (0 if empty). */
    int64_t min() const { return count_ == 0 ? 0 : min_; }

    /** Largest observation (0 if empty). */
    int64_t max() const { return count_ == 0 ? 0 : max_; }

    /**
     * Value at percentile p in [0, 100]: the upper bound of the
     * first bucket whose cumulative count reaches ceil(p/100 * n),
     * clamped to the observed max. 0 for an empty histogram.
     */
    int64_t percentile(double p) const;

    /** Reset to the empty state. */
    void reset();

  private:
    std::array<int64_t, kBuckets> buckets_;
    int64_t count_;
    int64_t min_;
    int64_t max_;
};

/**
 * Nearest-rank percentile of a sample (p in [0, 100]); sorts a copy.
 * Returns 0 for empty input.
 */
double percentile(std::vector<double> values, double p);

} // namespace optimus

#endif // OPTIMUS_UTIL_STATS_HH
