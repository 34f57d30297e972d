/**
 * @file
 * Dense row-major float tensor. The library is 2D-centric (weight
 * matrices, activation matrices of shape [tokens, features]) but the
 * shape is a general dimension vector so sequence batches can carry
 * [batch, seq, features] metadata when convenient.
 *
 * Design notes: storage is always contiguous row-major; views are
 * not supported (slices copy). That keeps aliasing out of the
 * hand-written backprop code, which is the error-prone part of this
 * project, at a small memory cost acceptable for laptop-scale models.
 *
 * Storage lives either on the global heap or in the workspace arena
 * active at construction time (see arena.hh): a tensor built under a
 * `WorkspaceScope` draws a size-class block from that workspace and
 * returns it on destruction, so steady-state training steps recycle
 * buffers instead of calling the allocator. Copy-assignment reuses
 * the destination's block in place whenever its capacity suffices —
 * that is what keeps persistent tensors (optimizer state, PowerSGD
 * Q, error-feedback residuals) allocation-free after warmup. The
 * shape itself is an inline small-vector (`ShapeVec`), so tensor
 * metadata never touches the heap at all.
 */

#ifndef OPTIMUS_TENSOR_TENSOR_HH
#define OPTIMUS_TENSOR_TENSOR_HH

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

namespace optimus
{

class Rng;
class Workspace;

/**
 * Inline fixed-capacity shape vector (rank <= kMaxRank). Keeps
 * tensor construction heap-free; converts from std::vector for the
 * cold call sites that build shapes dynamically.
 */
class ShapeVec
{
  public:
    static constexpr int kMaxRank = 4;

    ShapeVec() = default;
    ShapeVec(std::initializer_list<int64_t> dims);
    ShapeVec(const std::vector<int64_t> &dims);

    int size() const { return rank_; }
    bool empty() const { return rank_ == 0; }

    int64_t operator[](int i) const { return dims_[i]; }
    int64_t &operator[](int i) { return dims_[i]; }

    const int64_t *begin() const { return dims_; }
    const int64_t *end() const { return dims_ + rank_; }

    void push_back(int64_t d);

    bool operator==(const ShapeVec &other) const;
    bool operator!=(const ShapeVec &other) const
    {
        return !(*this == other);
    }

  private:
    int rank_ = 0;
    int64_t dims_[kMaxRank] = {};
};

/** Contiguous row-major float tensor with value semantics. */
class Tensor
{
  public:
    /** Empty (0-element, rank-0) tensor. */
    Tensor();

    /** Zero-initialized tensor of the given shape. */
    explicit Tensor(ShapeVec shape);

    Tensor(const Tensor &other);
    Tensor(Tensor &&other) noexcept;
    /** Reuses own storage in place when capacity suffices. */
    Tensor &operator=(const Tensor &other);
    Tensor &operator=(Tensor &&other) noexcept;
    ~Tensor();

    /** Convenience 1D / 2D / 3D constructors (zero-initialized). */
    static Tensor zeros(int64_t n);
    static Tensor zeros(int64_t rows, int64_t cols);
    static Tensor zeros(int64_t d0, int64_t d1, int64_t d2);

    /** Tensor filled with a constant. */
    static Tensor full(ShapeVec shape, float value);

    /** I.i.d. normal entries with the given mean/stddev. */
    static Tensor randn(ShapeVec shape, Rng &rng, float mean = 0.0f,
                        float stddev = 1.0f);

    /**
     * Tensor of @p shape whose storage is not zero-filled: for
     * kernels that write every element next. Drawn from the ambient
     * workspace like any tensor, so its initial contents are
     * whatever the recycled block held.
     */
    static Tensor uninitialized(ShapeVec shape);

    /** Build from explicit values (shape product must match size). */
    static Tensor fromValues(ShapeVec shape,
                             const std::vector<float> &values);

    /** Total number of elements. */
    int64_t size() const { return size_; }

    /** Number of dimensions. */
    int rank() const { return shape_.size(); }

    /** Shape vector. */
    const ShapeVec &shape() const { return shape_; }

    /** Extent of dimension @p dim (supports negative indexing). */
    int64_t dim(int dim) const;

    /** Rows/cols accessors. @pre rank() == 2 */
    int64_t rows() const;
    int64_t cols() const;

    /** Raw storage access. */
    float *data() { return data_; }
    const float *data() const { return data_; }

    /**
     * Flat element access. Under OPTIMUS_BOUNDS_CHECK (default in
     * Debug and sanitized builds) an out-of-range index panics with
     * the offending index and shape instead of touching memory past
     * the buffer; Release builds keep the unchecked fast path.
     */
    float &operator[](int64_t i)
    {
#ifdef OPTIMUS_BOUNDS_CHECK
        if (i < 0 || i >= size())
            boundsFail(i);
#endif
        return data_[i];
    }
    float operator[](int64_t i) const
    {
#ifdef OPTIMUS_BOUNDS_CHECK
        if (i < 0 || i >= size())
            boundsFail(i);
#endif
        return data_[i];
    }

    /** 2D element access. @pre rank() == 2 */
    float &at(int64_t r, int64_t c);
    float at(int64_t r, int64_t c) const;

    /**
     * Reinterpret the same storage with a new shape (copying
     * metadata only). @pre product(new_shape) == size()
     */
    Tensor reshaped(ShapeVec new_shape) const;

    /** In-place fill with a constant. */
    void fill(float value);

    /** In-place zero (the same bits as fill(0.0f), at memset speed). */
    void setZero();

    /** this += other (shapes must match in size). */
    void add(const Tensor &other);

    /** this -= other. */
    void sub(const Tensor &other);

    /** this *= scalar. */
    void scale(float s);

    /** Sum of all elements (double accumulation). */
    double sum() const;

    /** Maximum absolute element (0 for empty). */
    float maxAbs() const;

    /** L2 norm of the flattened tensor. */
    double norm() const;

    /**
     * Extract rows [begin, end) of a 2D tensor into a new tensor.
     * @pre rank() == 2, 0 <= begin <= end <= rows()
     */
    Tensor sliceRows(int64_t begin, int64_t end) const;

    /** Copy @p src into rows starting at @p row. @pre shapes agree */
    void setRows(int64_t row, const Tensor &src);

    /** Transpose of a 2D tensor (copying). */
    Tensor transposed() const;

    /** True if all elements differ by at most @p tol. */
    bool allClose(const Tensor &other, float tol = 1e-5f) const;

    /** Human-readable shape like "[4, 16]". */
    std::string shapeString() const;

  private:
    /** Cold failure path for the checked operator[]. */
    [[noreturn]] void boundsFail(int64_t i) const;

    /** Acquire storage for @p n elements (uninitialized). */
    void allocateStorage(int64_t n);
    /** Return storage to its workspace or the heap. */
    void releaseStorage();

    ShapeVec shape_;
    float *data_ = nullptr;
    int64_t size_ = 0;
    /** Granted block capacity in elements (>= size_). */
    int64_t cap_ = 0;
    /** Owning workspace, or nullptr for heap-backed storage. */
    Workspace *ws_ = nullptr;
};

/** c = a + b (allocating). */
Tensor add(const Tensor &a, const Tensor &b);

/** c = a - b (allocating). */
Tensor sub(const Tensor &a, const Tensor &b);

} // namespace optimus

#endif // OPTIMUS_TENSOR_TENSOR_HH
