/**
 * @file
 * Unit tests for the Tensor container and GEMM kernels.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "tensor/matmul.hh"
#include "tensor/tensor.hh"
#include "util/random.hh"

namespace optimus
{
namespace
{

TEST(Tensor, ZeroInitializedAndShaped)
{
    Tensor t = Tensor::zeros(3, 4);
    EXPECT_EQ(t.rank(), 2);
    EXPECT_EQ(t.rows(), 3);
    EXPECT_EQ(t.cols(), 4);
    EXPECT_EQ(t.size(), 12);
    for (int64_t i = 0; i < t.size(); ++i)
        EXPECT_EQ(t[i], 0.0f);
}

TEST(Tensor, FromValuesAndAt)
{
    Tensor t = Tensor::fromValues({2, 2}, {1.0f, 2.0f, 3.0f, 4.0f});
    EXPECT_EQ(t.at(0, 0), 1.0f);
    EXPECT_EQ(t.at(0, 1), 2.0f);
    EXPECT_EQ(t.at(1, 0), 3.0f);
    EXPECT_EQ(t.at(1, 1), 4.0f);
}

TEST(Tensor, ElementwiseOps)
{
    Tensor a = Tensor::fromValues({3}, {1.0f, 2.0f, 3.0f});
    Tensor b = Tensor::fromValues({3}, {0.5f, 0.5f, 0.5f});
    a.add(b);
    EXPECT_FLOAT_EQ(a[0], 1.5f);
    a.sub(b);
    EXPECT_FLOAT_EQ(a[0], 1.0f);
    a.scale(2.0f);
    EXPECT_FLOAT_EQ(a[2], 6.0f);
}

TEST(Tensor, Reductions)
{
    Tensor t = Tensor::fromValues({4}, {1.0f, -2.0f, 3.0f, -4.0f});
    EXPECT_DOUBLE_EQ(t.sum(), -2.0);
    EXPECT_FLOAT_EQ(t.maxAbs(), 4.0f);
    EXPECT_NEAR(t.norm(), std::sqrt(1.0 + 4.0 + 9.0 + 16.0), 1e-6);
}

TEST(Tensor, SliceAndSetRows)
{
    Tensor t = Tensor::fromValues({3, 2},
                                  {1, 2, 3, 4, 5, 6});
    Tensor mid = t.sliceRows(1, 2);
    EXPECT_EQ(mid.rows(), 1);
    EXPECT_FLOAT_EQ(mid.at(0, 0), 3.0f);
    EXPECT_FLOAT_EQ(mid.at(0, 1), 4.0f);

    Tensor repl = Tensor::fromValues({1, 2}, {9, 8});
    t.setRows(0, repl);
    EXPECT_FLOAT_EQ(t.at(0, 0), 9.0f);
    EXPECT_FLOAT_EQ(t.at(0, 1), 8.0f);
}

TEST(Tensor, Transpose)
{
    Tensor t = Tensor::fromValues({2, 3}, {1, 2, 3, 4, 5, 6});
    Tensor tt = t.transposed();
    EXPECT_EQ(tt.rows(), 3);
    EXPECT_EQ(tt.cols(), 2);
    EXPECT_FLOAT_EQ(tt.at(0, 1), 4.0f);
    EXPECT_FLOAT_EQ(tt.at(2, 0), 3.0f);
}

TEST(Tensor, ReshapedPreservesData)
{
    Tensor t = Tensor::fromValues({2, 3}, {1, 2, 3, 4, 5, 6});
    Tensor r = t.reshaped({3, 2});
    EXPECT_EQ(r.rows(), 3);
    EXPECT_FLOAT_EQ(r.at(2, 1), 6.0f);
}

TEST(Tensor, AllClose)
{
    Tensor a = Tensor::full({4}, 1.0f);
    Tensor b = Tensor::full({4}, 1.0f + 5e-6f);
    EXPECT_TRUE(a.allClose(b, 1e-5f));
    EXPECT_FALSE(a.allClose(b, 1e-6f));
}

TEST(Tensor, RandnStatistics)
{
    Rng rng(11);
    Tensor t = Tensor::randn({200, 50}, rng, 1.0f, 2.0f);
    double sum = t.sum();
    const double mean = sum / t.size();
    EXPECT_NEAR(mean, 1.0, 0.05);
    double var = 0.0;
    for (int64_t i = 0; i < t.size(); ++i)
        var += (t[i] - mean) * (t[i] - mean);
    var /= t.size();
    EXPECT_NEAR(std::sqrt(var), 2.0, 0.05);
}

TEST(Matmul, SmallKnownProduct)
{
    Tensor a = Tensor::fromValues({2, 3}, {1, 2, 3, 4, 5, 6});
    Tensor b = Tensor::fromValues({3, 2}, {7, 8, 9, 10, 11, 12});
    Tensor c = matmul(a, b);
    EXPECT_FLOAT_EQ(c.at(0, 0), 58.0f);
    EXPECT_FLOAT_EQ(c.at(0, 1), 64.0f);
    EXPECT_FLOAT_EQ(c.at(1, 0), 139.0f);
    EXPECT_FLOAT_EQ(c.at(1, 1), 154.0f);
}

TEST(Matmul, TransposeVariantsAgree)
{
    Rng rng(3);
    Tensor a = Tensor::randn({5, 7}, rng);
    Tensor b = Tensor::randn({5, 4}, rng);
    // A^T * B via explicit transpose vs matmulTN.
    Tensor expect = matmul(a.transposed(), b);
    Tensor got = matmulTN(a, b);
    EXPECT_TRUE(expect.allClose(got, 1e-5f));

    Tensor c = Tensor::randn({6, 7}, rng);
    Tensor expect_nt = matmul(a, c.transposed());
    Tensor got_nt = matmulNT(a, c);
    EXPECT_TRUE(expect_nt.allClose(got_nt, 1e-5f));
}

TEST(Matmul, AccumulateVariants)
{
    Rng rng(5);
    Tensor a = Tensor::randn({3, 4}, rng);
    Tensor b = Tensor::randn({4, 2}, rng);
    Tensor c = Tensor::full({3, 2}, 1.0f);
    Tensor expect = add(matmul(a, b), c);
    matmulAcc(c, a, b);
    EXPECT_TRUE(expect.allClose(c, 1e-5f));
}

TEST(Matmul, IdentityIsNeutral)
{
    Rng rng(6);
    Tensor a = Tensor::randn({4, 4}, rng);
    Tensor eye = Tensor::zeros(4, 4);
    for (int i = 0; i < 4; ++i)
        eye.at(i, i) = 1.0f;
    EXPECT_TRUE(matmul(a, eye).allClose(a, 1e-6f));
    EXPECT_TRUE(matmul(eye, a).allClose(a, 1e-6f));
}

// Shape sweep: (m, k, n) parameterized consistency of gemm against a
// naive reference.
class MatmulShapes
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{
};

TEST_P(MatmulShapes, MatchesNaiveReference)
{
    const auto [m, k, n] = GetParam();
    Rng rng(100 + m * 7 + k * 3 + n);
    Tensor a = Tensor::randn({m, k}, rng);
    Tensor b = Tensor::randn({k, n}, rng);
    Tensor c = matmul(a, b);

    for (int i = 0; i < m; ++i) {
        for (int j = 0; j < n; ++j) {
            double acc = 0.0;
            for (int p = 0; p < k; ++p)
                acc += static_cast<double>(a.at(i, p)) * b.at(p, j);
            EXPECT_NEAR(c.at(i, j), acc, 1e-3)
                << "at (" << i << "," << j << ")";
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MatmulShapes,
    ::testing::Values(std::make_tuple(1, 1, 1),
                      std::make_tuple(1, 8, 3),
                      std::make_tuple(7, 1, 5),
                      std::make_tuple(8, 8, 8),
                      std::make_tuple(13, 17, 11),
                      std::make_tuple(32, 64, 16)));

} // namespace
} // namespace optimus
