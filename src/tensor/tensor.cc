#include "tensor/tensor.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "tensor/arena.hh"
#include "tensor/simd.hh"
#include "util/logging.hh"
#include "util/random.hh"

namespace optimus
{

namespace
{

int64_t
shapeProduct(const ShapeVec &shape)
{
    int64_t product = 1;
    for (int64_t d : shape) {
        OPTIMUS_ASSERT(d >= 0);
        product *= d;
    }
    return product;
}

#ifdef OPTIMUS_BOUNDS_CHECK
/**
 * Checked builds enforce full shape agreement for elementwise ops,
 * not just element-count agreement — adding a [2, 8] into a [4, 4]
 * is almost certainly a plumbing bug even though the sizes match.
 */
void
checkSameShape(const Tensor &a, const Tensor &b, const char *op)
{
    if (a.shape() != b.shape())
        panic("Tensor::%s shape mismatch: %s vs %s", op,
              a.shapeString().c_str(), b.shapeString().c_str());
}
#define OPTIMUS_CHECK_SHAPE(a, b, op) checkSameShape((a), (b), (op))
#else
#define OPTIMUS_CHECK_SHAPE(a, b, op) ((void)0)
#endif

} // namespace

ShapeVec::ShapeVec(std::initializer_list<int64_t> dims)
{
    OPTIMUS_ASSERT(static_cast<int>(dims.size()) <= kMaxRank);
    for (int64_t d : dims)
        dims_[rank_++] = d;
}

ShapeVec::ShapeVec(const std::vector<int64_t> &dims)
{
    OPTIMUS_ASSERT(static_cast<int>(dims.size()) <= kMaxRank);
    for (int64_t d : dims)
        dims_[rank_++] = d;
}

void
ShapeVec::push_back(int64_t d)
{
    OPTIMUS_ASSERT(rank_ < kMaxRank);
    dims_[rank_++] = d;
}

bool
ShapeVec::operator==(const ShapeVec &other) const
{
    if (rank_ != other.rank_)
        return false;
    for (int i = 0; i < rank_; ++i) {
        if (dims_[i] != other.dims_[i])
            return false;
    }
    return true;
}

void
Tensor::allocateStorage(int64_t n)
{
    size_ = n;
    if (n == 0) {
        data_ = nullptr;
        cap_ = 0;
        ws_ = nullptr;
        return;
    }
    ws_ = currentWorkspace();
    if (ws_) {
        data_ = ws_->allocate(n, cap_);
        return;
    }
    // Heap path (no scope, or OPTIMUS_ARENA=0): 64-byte aligned like
    // the arena blocks, rounded up as aligned_alloc requires.
    const int64_t bytes =
        (n * int64_t(sizeof(float)) + 63) & ~int64_t(63);
    // optlint:coldalloc — counted by mem::heapAllocs; the alloc_gate
    // proves the step path never reaches this in steady state.
    data_ = static_cast<float *>(std::aligned_alloc(64, bytes));
    OPTIMUS_ASSERT(data_ != nullptr);
    cap_ = bytes / int64_t(sizeof(float));
    mem::noteHeapAlloc(bytes);
}

void
Tensor::releaseStorage()
{
    if (data_) {
        if (ws_)
            ws_->release(data_, cap_);
        else {
            std::free(data_);
            mem::noteHeapFree(cap_ * int64_t(sizeof(float)));
        }
    }
    data_ = nullptr;
    size_ = 0;
    cap_ = 0;
    ws_ = nullptr;
}

Tensor::Tensor() = default;

Tensor::Tensor(ShapeVec shape) : shape_(shape)
{
    allocateStorage(shapeProduct(shape_));
    if (size_ > 0)
        std::memset(data_, 0, size_ * sizeof(float));
}

Tensor
Tensor::uninitialized(ShapeVec shape)
{
    Tensor t;
    t.shape_ = shape;
    t.allocateStorage(shapeProduct(shape));
    return t;
}

Tensor::Tensor(const Tensor &other) : shape_(other.shape_)
{
    allocateStorage(other.size_);
    if (size_ > 0)
        std::memcpy(data_, other.data_, size_ * sizeof(float));
}

Tensor::Tensor(Tensor &&other) noexcept
    : shape_(other.shape_), data_(other.data_), size_(other.size_),
      cap_(other.cap_), ws_(other.ws_)
{
    other.shape_ = ShapeVec();
    other.data_ = nullptr;
    other.size_ = 0;
    other.cap_ = 0;
    other.ws_ = nullptr;
}

Tensor &
Tensor::operator=(const Tensor &other)
{
    if (this == &other)
        return *this;
    shape_ = other.shape_;
    // In-place reuse: the block already granted is large enough, so
    // keep it (this is the steady-state path for every persistent
    // tensor that is reassigned each step).
    if (other.size_ > cap_ || (other.size_ > 0 && data_ == nullptr)) {
        releaseStorage();
        allocateStorage(other.size_);
    } else {
        size_ = other.size_;
    }
    if (size_ > 0)
        std::memcpy(data_, other.data_, size_ * sizeof(float));
    return *this;
}

Tensor &
Tensor::operator=(Tensor &&other) noexcept
{
    if (this == &other)
        return *this;
    releaseStorage();
    shape_ = other.shape_;
    data_ = other.data_;
    size_ = other.size_;
    cap_ = other.cap_;
    ws_ = other.ws_;
    other.shape_ = ShapeVec();
    other.data_ = nullptr;
    other.size_ = 0;
    other.cap_ = 0;
    other.ws_ = nullptr;
    return *this;
}

Tensor::~Tensor()
{
    releaseStorage();
}

Tensor
Tensor::zeros(int64_t n)
{
    return Tensor({n});
}

Tensor
Tensor::zeros(int64_t rows, int64_t cols)
{
    return Tensor({rows, cols});
}

Tensor
Tensor::zeros(int64_t d0, int64_t d1, int64_t d2)
{
    return Tensor({d0, d1, d2});
}

Tensor
Tensor::full(ShapeVec shape, float value)
{
    Tensor t(shape);
    t.fill(value);
    return t;
}

Tensor
Tensor::randn(ShapeVec shape, Rng &rng, float mean, float stddev)
{
    Tensor t(shape);
    for (int64_t i = 0; i < t.size(); ++i)
        t[i] = static_cast<float>(rng.normal(mean, stddev));
    return t;
}

Tensor
Tensor::fromValues(ShapeVec shape, const std::vector<float> &values)
{
    OPTIMUS_ASSERT(shapeProduct(shape) ==
                   static_cast<int64_t>(values.size()));
    Tensor t(shape);
    if (t.size_ > 0)
        std::memcpy(t.data_, values.data(),
                    t.size_ * sizeof(float));
    return t;
}

[[noreturn]] void
Tensor::boundsFail(int64_t i) const
{
    panic("Tensor index %lld out of range [0, %lld) for shape %s",
          static_cast<long long>(i), static_cast<long long>(size()),
          shapeString().c_str());
}

int64_t
Tensor::dim(int d) const
{
    const int r = rank();
    if (d < 0)
        d += r;
    OPTIMUS_ASSERT(d >= 0 && d < r);
    return shape_[d];
}

int64_t
Tensor::rows() const
{
    OPTIMUS_ASSERT(rank() == 2);
    return shape_[0];
}

int64_t
Tensor::cols() const
{
    OPTIMUS_ASSERT(rank() == 2);
    return shape_[1];
}

float &
Tensor::at(int64_t r, int64_t c)
{
    OPTIMUS_ASSERT(rank() == 2);
    OPTIMUS_ASSERT(r >= 0 && r < shape_[0] && c >= 0 && c < shape_[1]);
    return data_[r * shape_[1] + c];
}

float
Tensor::at(int64_t r, int64_t c) const
{
    OPTIMUS_ASSERT(rank() == 2);
    OPTIMUS_ASSERT(r >= 0 && r < shape_[0] && c >= 0 && c < shape_[1]);
    return data_[r * shape_[1] + c];
}

Tensor
Tensor::reshaped(ShapeVec new_shape) const
{
    OPTIMUS_ASSERT(shapeProduct(new_shape) == size());
    Tensor t = *this;
    t.shape_ = new_shape;
    return t;
}

void
Tensor::fill(float value)
{
    std::fill(data_, data_ + size_, value);
}

void
Tensor::setZero()
{
    // +0.0f is all-zero bits; fill()'s runtime value is a store loop
    // the compiler cannot turn into memset.
    if (size_ > 0)
        std::memset(data_, 0, size_ * sizeof(float));
}

void
Tensor::add(const Tensor &other)
{
    OPTIMUS_ASSERT(size() == other.size());
    OPTIMUS_CHECK_SHAPE(*this, other, "add");
    simd::addVals(simd::tier(), data_, data_, other.data_, size_);
}

void
Tensor::sub(const Tensor &other)
{
    OPTIMUS_ASSERT(size() == other.size());
    OPTIMUS_CHECK_SHAPE(*this, other, "sub");
    simd::subVals(simd::tier(), data_, data_, other.data_, size_);
}

void
Tensor::scale(float s)
{
    simd::scaleInPlace(simd::tier(), data_, s, size_);
}

double
Tensor::sum() const
{
    double total = 0.0;
    for (int64_t i = 0; i < size_; ++i)
        total += data_[i];
    return total;
}

float
Tensor::maxAbs() const
{
    float best = 0.0f;
    for (int64_t i = 0; i < size_; ++i) {
        const float a = std::fabs(data_[i]);
        if (a > best)
            best = a;
    }
    return best;
}

double
Tensor::norm() const
{
    double sum_sq = 0.0;
    for (int64_t i = 0; i < size_; ++i)
        sum_sq += static_cast<double>(data_[i]) * data_[i];
    return std::sqrt(sum_sq);
}

Tensor
Tensor::sliceRows(int64_t begin, int64_t end) const
{
    OPTIMUS_ASSERT(rank() == 2);
    OPTIMUS_ASSERT(begin >= 0 && begin <= end && end <= rows());
    const int64_t c = cols();
    Tensor out({end - begin, c});
    std::copy(data_ + begin * c, data_ + end * c, out.data());
    return out;
}

void
Tensor::setRows(int64_t row, const Tensor &src)
{
    OPTIMUS_ASSERT(rank() == 2 && src.rank() == 2);
    OPTIMUS_ASSERT(cols() == src.cols());
    OPTIMUS_ASSERT(row >= 0 && row + src.rows() <= rows());
    std::copy(src.data(), src.data() + src.size(),
              data_ + row * cols());
}

Tensor
Tensor::transposed() const
{
    OPTIMUS_ASSERT(rank() == 2);
    const int64_t r = rows(), c = cols();
    Tensor out({c, r});
    for (int64_t i = 0; i < r; ++i) {
        for (int64_t j = 0; j < c; ++j)
            out.data()[j * r + i] = data_[i * c + j];
    }
    return out;
}

bool
Tensor::allClose(const Tensor &other, float tol) const
{
    if (size() != other.size())
        return false;
    for (int64_t i = 0; i < size(); ++i) {
        if (std::fabs(data_[i] - other.data_[i]) > tol)
            return false;
    }
    return true;
}

// optlint:coldfn — diagnostic formatter; reached only from
// assertion-failure and logging paths, never the steady step.
std::string
Tensor::shapeString() const
{
    std::string s = "[";
    for (int i = 0; i < rank(); ++i) {
        if (i > 0)
            s += ", ";
        s += std::to_string(shape_[i]);
    }
    s += "]";
    return s;
}

Tensor
add(const Tensor &a, const Tensor &b)
{
    OPTIMUS_ASSERT(a.size() == b.size());
    OPTIMUS_CHECK_SHAPE(a, b, "add");
    Tensor c = Tensor::uninitialized(a.shape());
    simd::addVals(simd::tier(), c.data(), a.data(), b.data(), c.size());
    return c;
}

Tensor
sub(const Tensor &a, const Tensor &b)
{
    OPTIMUS_ASSERT(a.size() == b.size());
    OPTIMUS_CHECK_SHAPE(a, b, "sub");
    Tensor c = Tensor::uninitialized(a.shape());
    simd::subVals(simd::tier(), c.data(), a.data(), b.data(), c.size());
    return c;
}

} // namespace optimus
