#include "util/stats.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

namespace optimus
{

double
mean(const float *data, size_t n)
{
    if (n == 0)
        return 0.0;
    double sum = 0.0;
    for (size_t i = 0; i < n; ++i)
        sum += data[i];
    return sum / static_cast<double>(n);
}

double
stddev(const float *data, size_t n)
{
    if (n < 2)
        return 0.0;
    const double m = mean(data, n);
    double sum_sq = 0.0;
    for (size_t i = 0; i < n; ++i) {
        const double d = data[i] - m;
        sum_sq += d * d;
    }
    return std::sqrt(sum_sq / static_cast<double>(n));
}

double
l2Norm(const float *data, size_t n)
{
    double sum_sq = 0.0;
    for (size_t i = 0; i < n; ++i)
        sum_sq += static_cast<double>(data[i]) * data[i];
    return std::sqrt(sum_sq);
}

double
dot(const float *a, const float *b, size_t n)
{
    double sum = 0.0;
    for (size_t i = 0; i < n; ++i)
        sum += static_cast<double>(a[i]) * b[i];
    return sum;
}

double
cosineSimilarity(const float *a, const float *b, size_t n)
{
    const double na = l2Norm(a, n);
    const double nb = l2Norm(b, n);
    if (na < 1e-30 || nb < 1e-30)
        return 0.0;
    return dot(a, b, n) / (na * nb);
}

double
mean(const std::vector<float> &v)
{
    return mean(v.data(), v.size());
}

double
stddev(const std::vector<float> &v)
{
    return stddev(v.data(), v.size());
}

double
cosineSimilarity(const std::vector<float> &a, const std::vector<float> &b)
{
    const size_t n = a.size() < b.size() ? a.size() : b.size();
    return cosineSimilarity(a.data(), b.data(), n);
}

RunningStat::RunningStat()
{
    reset();
}

void
RunningStat::reset()
{
    count_ = 0;
    mean_ = 0.0;
    m2_ = 0.0;
    min_ = std::numeric_limits<double>::infinity();
    max_ = -std::numeric_limits<double>::infinity();
}

void
RunningStat::add(double x)
{
    ++count_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
    if (x < min_)
        min_ = x;
    if (x > max_)
        max_ = x;
}

double
RunningStat::variance() const
{
    if (count_ < 2)
        return 0.0;
    return m2_ / static_cast<double>(count_);
}

double
RunningStat::stddev() const
{
    return std::sqrt(variance());
}

Log2Histogram::Log2Histogram()
{
    reset();
}

void
Log2Histogram::reset()
{
    buckets_.fill(0);
    count_ = 0;
    min_ = std::numeric_limits<int64_t>::max();
    max_ = std::numeric_limits<int64_t>::min();
}

int
Log2Histogram::bucketIndex(int64_t v)
{
    if (v <= 0)
        return 0;
    const int width =
        std::bit_width(static_cast<uint64_t>(v)); // floor(log2) + 1
    return width < kBuckets ? width : kBuckets - 1;
}

int64_t
Log2Histogram::bucketUpperBound(int b)
{
    if (b <= 0)
        return 0;
    if (b >= kBuckets - 1)
        return std::numeric_limits<int64_t>::max();
    return (int64_t{1} << b) - 1;
}

void
Log2Histogram::add(int64_t v)
{
    ++buckets_[bucketIndex(v)];
    ++count_;
    if (v < min_)
        min_ = v;
    if (v > max_)
        max_ = v;
}

void
Log2Histogram::merge(const Log2Histogram &other)
{
    for (int b = 0; b < kBuckets; ++b)
        buckets_[b] += other.buckets_[b];
    count_ += other.count_;
    if (other.count_ > 0) {
        if (other.min_ < min_)
            min_ = other.min_;
        if (other.max_ > max_)
            max_ = other.max_;
    }
}

int64_t
Log2Histogram::percentile(double p) const
{
    if (count_ == 0)
        return 0;
    const double clamped = std::clamp(p, 0.0, 100.0);
    const int64_t rank = static_cast<int64_t>(
        std::ceil(clamped / 100.0 * static_cast<double>(count_)));
    const int64_t target = rank < 1 ? 1 : rank;
    int64_t cumulative = 0;
    for (int b = 0; b < kBuckets; ++b) {
        cumulative += buckets_[b];
        if (cumulative >= target) {
            const int64_t bound = bucketUpperBound(b);
            return bound < max() ? bound : max();
        }
    }
    return max();
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double clamped = std::clamp(p, 0.0, 100.0);
    const size_t n = values.size();
    size_t rank = static_cast<size_t>(
        std::ceil(clamped / 100.0 * static_cast<double>(n)));
    if (rank < 1)
        rank = 1;
    return values[rank - 1];
}

} // namespace optimus
