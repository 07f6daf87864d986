// Property-style sweeps (TEST_P / INSTANTIATE_TEST_SUITE_P) over the op
// library and data pipeline: invariants that must hold for every shape,
// seed, or configuration in the sweep.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "kg/mcq.h"
#include "kg/synth.h"
#include "tensor/nn.h"
#include "tensor/ops.h"
#include "text/tokenizer.h"
#include "util/rng.h"
#include "util/threadpool.h"

namespace infuserki {
namespace {

using tensor::Shape;
using tensor::Tensor;

// --- Softmax invariants across shapes and scales ---------------------------

class SoftmaxSweep
    : public ::testing::TestWithParam<std::tuple<size_t, size_t, float>> {};

TEST_P(SoftmaxSweep, RowsSumToOneAndOrderPreserved) {
  auto [rows, cols, scale] = GetParam();
  util::Rng rng(rows * 100 + cols);
  Tensor x = Tensor::Randn({rows, cols}, &rng, scale);
  Tensor y = tensor::Softmax(x);
  for (size_t r = 0; r < rows; ++r) {
    float sum = 0.0f;
    for (size_t c = 0; c < cols; ++c) {
      float v = y.at(r, c);
      EXPECT_GE(v, 0.0f);
      EXPECT_LE(v, 1.0f);
      sum += v;
    }
    EXPECT_NEAR(sum, 1.0f, 1e-4f);
    // Monotonicity: argmax of input == argmax of softmax.
    size_t arg_in = 0, arg_out = 0;
    for (size_t c = 1; c < cols; ++c) {
      if (x.at(r, c) > x.at(r, arg_in)) arg_in = c;
      if (y.at(r, c) > y.at(r, arg_out)) arg_out = c;
    }
    EXPECT_EQ(arg_in, arg_out);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ShapesAndScales, SoftmaxSweep,
    ::testing::Combine(::testing::Values(size_t{1}, size_t{5}),
                       ::testing::Values(size_t{2}, size_t{17}, size_t{64}),
                       ::testing::Values(0.5f, 5.0f, 50.0f)));

// --- Norm layers preserve shape and are scale-equivariant -------------------

class NormSweep : public ::testing::TestWithParam<std::tuple<size_t, size_t>> {
};

TEST_P(NormSweep, RmsNormScaleInvariance) {
  auto [rows, cols] = GetParam();
  util::Rng rng(rows * 31 + cols);
  Tensor x = Tensor::Randn({rows, cols}, &rng);
  Tensor w = Tensor::Full({cols}, 1.0f);
  Tensor y1 = tensor::RmsNorm(x, w);
  // RMSNorm(k * x) == RMSNorm(x) for k > 0 (up to eps effects).
  Tensor y2 = tensor::RmsNorm(tensor::MulScalar(x, 7.0f), w);
  for (size_t i = 0; i < y1.size(); ++i) {
    EXPECT_NEAR(y1.data()[i], y2.data()[i], 2e-2f);
  }
}

TEST_P(NormSweep, LayerNormShiftInvariance) {
  auto [rows, cols] = GetParam();
  util::Rng rng(rows * 37 + cols);
  Tensor x = Tensor::Randn({rows, cols}, &rng);
  Tensor w = Tensor::Full({cols}, 1.0f);
  Tensor b = Tensor::Zeros({cols});
  Tensor y1 = tensor::LayerNorm(x, w, b);
  // LayerNorm(x + c) == LayerNorm(x).
  Tensor y2 = tensor::LayerNorm(tensor::AddScalar(x, 3.0f), w, b);
  for (size_t i = 0; i < y1.size(); ++i) {
    EXPECT_NEAR(y1.data()[i], y2.data()[i], 1e-3f);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, NormSweep,
    ::testing::Combine(::testing::Values(size_t{1}, size_t{4}),
                       ::testing::Values(size_t{4}, size_t{33})));

// --- Matmul algebraic properties across shapes ------------------------------

class MatmulSweep
    : public ::testing::TestWithParam<std::tuple<size_t, size_t, size_t>> {
 protected:
  // Pools of fixed width, shared by every case: the global pool's width is
  // whatever the host has.
  static util::ThreadPool& Pool(size_t width) {
    static util::ThreadPool* one = new util::ThreadPool(1);
    static util::ThreadPool* four = new util::ThreadPool(4);
    return width == 1 ? *one : *four;
  }
};

std::vector<float> Random(size_t count, util::Rng* rng) {
  return Tensor::Randn({count}, rng).vec();
}

using GemmFn = void (*)(const float*, const float*, float*, size_t, size_t,
                        size_t, util::ThreadPool&);
using ReferenceFn = void (*)(const float*, const float*, float*, size_t,
                             size_t, size_t);

// B is [n, k] for NT and [k, n] for NN; both hold k * n floats.
void ExpectKernelMatchesReference(GemmFn kernel, ReferenceFn reference,
                                  size_t m, size_t k, size_t n,
                                  util::ThreadPool& pool, util::Rng* rng) {
  std::vector<float> a = Random(m * k, rng);
  std::vector<float> b = Random(k * n, rng);
  // A nonzero C: both paths accumulate into it.
  std::vector<float> expected = Random(m * n, rng);
  std::vector<float> actual = expected;
  reference(a.data(), b.data(), expected.data(), m, k, n);
  kernel(a.data(), b.data(), actual.data(), m, k, n, pool);
  ASSERT_EQ(std::memcmp(expected.data(), actual.data(),
                        expected.size() * sizeof(float)),
            0);
}

TEST_P(MatmulSweep, KernelEqualsScalarReferenceBitForBit) {
  auto [m, k, n] = GetParam();
  util::Rng rng(m * 7 + k * 3 + n);
  for (size_t width : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE(width);
    ExpectKernelMatchesReference(tensor::internal::GemmNTAcc,
                                 tensor::internal::GemmNTAccReference, m, k,
                                 n, Pool(width), &rng);
    ExpectKernelMatchesReference(tensor::internal::GemmAcc,
                                 tensor::internal::GemmAccReference, m, k, n,
                                 Pool(width), &rng);
  }
}

// Batched == sequential at the kernel: row i of an m-row product equals the
// 1-row product of A's row i, bit for bit, whatever the pool width.
TEST_P(MatmulSweep, RowOfBatchEqualsSingleRowProduct) {
  auto [m, k, n] = GetParam();
  util::Rng rng(m * 11 + k * 5 + n);
  std::vector<float> a = Random(m * k, &rng);
  std::vector<float> b = Random(k * n, &rng);
  for (GemmFn kernel :
       {tensor::internal::GemmNTAcc, tensor::internal::GemmAcc}) {
    for (size_t width : {size_t{1}, size_t{4}}) {
      std::vector<float> batch(m * n, 0.0f);
      kernel(a.data(), b.data(), batch.data(), m, k, n, Pool(width));
      for (size_t i = 0; i < m; ++i) {
        std::vector<float> row(n, 0.0f);
        kernel(a.data() + i * k, b.data(), row.data(), 1, k, n, Pool(width));
        ASSERT_EQ(std::memcmp(row.data(), batch.data() + i * n,
                              n * sizeof(float)),
                  0)
            << "row " << i << " at pool width " << width;
      }
    }
  }
}

// The naive loops the kernels replaced, kept as an independent oracle:
// plain serial sums in whatever order the compiler keeps.
void NaiveGemmNT(const float* a, const float* b, float* c, size_t m, size_t k,
                 size_t n) {
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (size_t p = 0; p < k; ++p) acc += a[i * k + p] * b[j * k + p];
      c[i * n + j] += acc;
    }
  }
}

void NaiveGemmNN(const float* a, const float* b, float* c, size_t m, size_t k,
                 size_t n) {
  for (size_t i = 0; i < m; ++i) {
    for (size_t p = 0; p < k; ++p) {
      for (size_t j = 0; j < n; ++j) {
        c[i * n + j] += a[i * k + p] * b[p * n + j];
      }
    }
  }
}

// Any two orders of a k-term float sum differ by at most twice the standard
// bound k * 2^-24 * sum |a_p * b_p| (C starts at zero, so no other rounding).
TEST_P(MatmulSweep, KernelAgreesWithNaiveLoopsWithinRoundingBound) {
  auto [m, k, n] = GetParam();
  util::Rng rng(m * 13 + k * 7 + n);
  std::vector<float> a = Random(m * k, &rng);
  std::vector<float> b = Random(k * n, &rng);
  const double unit = std::ldexp(1.0, -24);
  for (bool nt : {true, false}) {
    std::vector<float> kernel(m * n, 0.0f), naive(m * n, 0.0f);
    if (nt) {
      tensor::internal::GemmNTAcc(a.data(), b.data(), kernel.data(), m, k, n,
                                  Pool(4));
      NaiveGemmNT(a.data(), b.data(), naive.data(), m, k, n);
    } else {
      tensor::internal::GemmAcc(a.data(), b.data(), kernel.data(), m, k, n,
                                Pool(4));
      NaiveGemmNN(a.data(), b.data(), naive.data(), m, k, n);
    }
    for (size_t i = 0; i < m; ++i) {
      for (size_t j = 0; j < n; ++j) {
        double magnitude = 0.0;
        for (size_t p = 0; p < k; ++p) {
          float bv = nt ? b[j * k + p] : b[p * n + j];
          magnitude += std::fabs(double{a[i * k + p]} * bv);
        }
        double delta = std::fabs(double{kernel[i * n + j]} - naive[i * n + j]);
        ASSERT_LE(delta, 2.0 * k * unit * magnitude)
            << (nt ? "NT" : "NN") << " C[" << i << "][" << j << "]";
      }
    }
  }
}

TEST_P(MatmulSweep, DistributesOverAddition) {
  auto [m, k, n] = GetParam();
  util::Rng rng(m * 7 + k * 3 + n);
  Tensor a = Tensor::Randn({m, k}, &rng);
  Tensor b1 = Tensor::Randn({k, n}, &rng);
  Tensor b2 = Tensor::Randn({k, n}, &rng);
  Tensor lhs = tensor::Matmul(a, tensor::Add(b1, b2));
  Tensor rhs = tensor::Add(tensor::Matmul(a, b1), tensor::Matmul(a, b2));
  for (size_t i = 0; i < lhs.size(); ++i) {
    EXPECT_NEAR(lhs.data()[i], rhs.data()[i],
                1e-3f * (1.0f + std::fabs(rhs.data()[i])));
  }
}

// Register-block edges: every row tail (m mod 4), k tail (k mod 16) and
// column tail of the 4x4 / 2x8 / 1x16 NT and 64-column NN blocks, plus the
// paper-scale shapes (the vocabulary head has n = 1813).
INSTANTIATE_TEST_SUITE_P(
    Shapes, MatmulSweep,
    ::testing::Combine(
        ::testing::Values(size_t{1}, size_t{2}, size_t{3}, size_t{4},
                          size_t{5}, size_t{6}, size_t{7}, size_t{8},
                          size_t{9}, size_t{33}, size_t{256}),
        ::testing::Values(size_t{1}, size_t{5}, size_t{16}, size_t{17},
                          size_t{64}, size_t{100}, size_t{128}),
        ::testing::Values(size_t{1}, size_t{3}, size_t{4}, size_t{5},
                          size_t{64}, size_t{128}, size_t{1813})));

// 0 * NaN is NaN: a zero in A must not hide a NaN in B, forward or in the
// weight gradient.
TEST(Matmul, ZeroTimesNanPropagates) {
  const float nan = std::nanf("");
  Tensor a = Tensor::FromData({1, 2}, {0.0f, 1.0f});
  Tensor b = Tensor::FromData({2, 2}, {nan, nan, 1.0f, 1.0f});
  Tensor out = tensor::Matmul(a, b);
  EXPECT_TRUE(std::isnan(out.at(0, 0)));
  EXPECT_TRUE(std::isnan(out.at(0, 1)));

  // dB = A^T dC with dC = [[NaN, 1]]: row 0 of dB is 0 * dC.
  Tensor weights = Tensor::FromData({2, 2}, {1.0f, 2.0f, 3.0f, 4.0f},
                                    /*requires_grad=*/true);
  Tensor upstream = Tensor::FromData({1, 2}, {nan, 1.0f});
  tensor::SumAll(tensor::Mul(tensor::Matmul(a, weights), upstream))
      .Backward();
  const float* grad = weights.grad().data();
  EXPECT_TRUE(std::isnan(grad[0]));
  EXPECT_EQ(grad[1], 0.0f);
  EXPECT_TRUE(std::isnan(grad[2]));
  EXPECT_EQ(grad[3], 1.0f);
}

// --- MCQ construction invariants across KGs, templates, and seeds ----------

class McqSweep : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {
};

TEST_P(McqSweep, OptionsDistinctGoldPresentCorrectIndex) {
  auto [template_id, seed] = GetParam();
  kg::KnowledgeGraph kg =
      kg::SyntheticUmls({.num_triplets = 40, .seed = seed});
  kg::TemplateEngine templates;
  kg::McqBuilder builder(&kg, &templates);
  util::Rng rng(seed + 100);
  for (size_t index = 0; index < 12; ++index) {
    kg::Mcq mcq = builder.Build(index, template_id, &rng);
    EXPECT_EQ(mcq.template_id, template_id);
    const kg::Triplet& triplet = kg.triplets()[index];
    // Gold option is exactly the tail entity.
    EXPECT_EQ(mcq.options[static_cast<size_t>(mcq.correct)],
              kg.entity(triplet.tail).name);
    // No duplicates, and no option equals the head entity's own name
    // accidentally matching the answer slot semantics.
    for (size_t i = 0; i < 4; ++i) {
      for (size_t j = i + 1; j < 4; ++j) {
        EXPECT_NE(mcq.options[i], mcq.options[j]);
      }
    }
    // Question actually mentions the head entity.
    EXPECT_NE(mcq.question.find(kg.entity(triplet.head).name),
              std::string::npos);
  }
}

INSTANTIATE_TEST_SUITE_P(
    TemplatesAndSeeds, McqSweep,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5),
                       ::testing::Values(uint64_t{3}, uint64_t{77})));

// --- Tokenizer round-trip across generated KG text --------------------------

class TokenizerSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TokenizerSweep, EncodeDecodeRoundTripOnKgText) {
  kg::KnowledgeGraph kg =
      kg::SyntheticUmls({.num_triplets = 30, .seed = GetParam()});
  kg::TemplateEngine templates;
  std::vector<std::string> corpus;
  for (const kg::Triplet& triplet : kg.triplets()) {
    corpus.push_back(templates.Statement(kg, triplet));
    corpus.push_back(templates.Question(kg, triplet, 1));
  }
  text::Tokenizer tokenizer = text::Tokenizer::Build(corpus);
  for (const std::string& doc : corpus) {
    std::vector<int> ids = tokenizer.Encode(doc);
    // No unknown tokens on the build corpus.
    for (int id : ids) EXPECT_NE(id, text::kUnkId) << doc;
    // Round trip is the normalized (lower-case, space-separated) form.
    std::string decoded = tokenizer.Decode(ids).value();
    std::vector<int> again = tokenizer.Encode(decoded);
    EXPECT_EQ(ids, again) << doc;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TokenizerSweep,
                         ::testing::Values(uint64_t{1}, uint64_t{13},
                                           uint64_t{99}));

// --- Quantization error bound across block sizes ----------------------------

class QuantSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(QuantSweep, BlockwiseErrorBounded) {
  size_t block = GetParam();
  util::Rng rng(block);
  tensor::Linear linear(24, 24, &rng);
  std::vector<float> original = linear.weight().vec();
  linear.QuantizeWeights(block);
  // Per-block bound: |dq - w| <= absmax(block)/14.
  const std::vector<float>& quantized = linear.weight().vec();
  for (size_t begin = 0; begin < original.size(); begin += block) {
    size_t end = std::min(begin + block, original.size());
    float absmax = 0.0f;
    for (size_t i = begin; i < end; ++i) {
      absmax = std::max(absmax, std::fabs(original[i]));
    }
    for (size_t i = begin; i < end; ++i) {
      EXPECT_LE(std::fabs(quantized[i] - original[i]),
                absmax / 14.0f + 1e-6f);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Blocks, QuantSweep,
                         ::testing::Values(size_t{8}, size_t{32},
                                           size_t{1000}));

}  // namespace
}  // namespace infuserki
