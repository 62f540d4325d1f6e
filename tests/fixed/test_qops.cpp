#include "nodetr/fx/qops.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "nodetr/tensor/gemm.hpp"
#include "nodetr/tensor/ops.hpp"
#include "nodetr/tensor/rng.hpp"

namespace fx = nodetr::fx;
namespace nt = nodetr::tensor;

namespace {
const fx::FixedFormat kF32{32, 16};
const fx::FixedFormat kP24{24, 8};
}  // namespace

TEST(FixedTensor, FromFloatToFloatRoundTrip) {
  nt::Rng rng(1);
  auto t = rng.randn(nt::Shape{4, 4});
  auto q = fx::FixedTensor::from_float(t, kF32);
  EXPECT_EQ(q.shape(), t.shape());
  // Error bounded by half an LSB of 2^-16.
  EXPECT_LE(nt::max_abs_diff(q.to_float(), t), 0.5f / 65536.0f + 1e-9f);
}

TEST(FixedTensor, StorageBits) {
  fx::FixedTensor q(nt::Shape{10, 10}, kP24);
  EXPECT_EQ(q.storage_bits(), 100 * 24);
}

TEST(FixedTensor, ConvertedChangesFormat) {
  nt::Rng rng(2);
  auto t = rng.randn(nt::Shape{8});
  auto q = fx::FixedTensor::from_float(t, kF32);
  auto n = q.converted(fx::FixedFormat{16, 8});
  EXPECT_EQ(n.format().total_bits, 16);
  // 16(8): resolution 1/256; error bound one LSB (two roundings).
  EXPECT_LE(nt::max_abs_diff(n.to_float(), t), 1.0f / 256.0f);
}

TEST(QMatmul, MatchesFloatReferenceWithinQuantError) {
  nt::Rng rng(3);
  auto a = rng.randn(nt::Shape{6, 10});
  auto b = rng.randn(nt::Shape{10, 5});
  auto qa = fx::FixedTensor::from_float(a, kF32);
  auto qb = fx::FixedTensor::from_float(b, kP24);
  auto qc = fx::qmatmul(qa, qb, kF32);
  auto c = nt::matmul(a, b);
  // With 16 fractional bits on both sides the product error is tiny.
  EXPECT_LE(nt::max_abs_diff(qc.to_float(), c), 1e-2f);
}

TEST(QMatmul, ExactForIntegerValues) {
  // Integer-valued inputs are exactly representable: fixed == float.
  nt::Tensor a(nt::Shape{2, 2}, std::vector<float>{1, 2, 3, 4});
  nt::Tensor b(nt::Shape{2, 2}, std::vector<float>{5, 6, 7, 8});
  auto qc = fx::qmatmul(fx::FixedTensor::from_float(a, kF32),
                        fx::FixedTensor::from_float(b, kP24), kF32);
  auto c = qc.to_float();
  EXPECT_FLOAT_EQ(c.at(0, 0), 19.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 50.0f);
}

TEST(QMatmul, SaturatesOnOverflow) {
  // 8(4) output: max ~7.94. 3*3=9 saturates.
  fx::FixedFormat small{8, 4};
  nt::Tensor a(nt::Shape{1, 1}, 3.0f);
  nt::Tensor b(nt::Shape{1, 1}, 3.0f);
  auto qc = fx::qmatmul(fx::FixedTensor::from_float(a, small),
                        fx::FixedTensor::from_float(b, small), small);
  EXPECT_EQ(qc[0], small.raw_max());
}

TEST(QMatmulNT, MatchesQMatmulOnTransposedOperand) {
  nt::Rng rng(4);
  auto a = rng.randn(nt::Shape{5, 7});
  auto b = rng.randn(nt::Shape{6, 7});
  auto qa = fx::FixedTensor::from_float(a, kF32);
  auto qb = fx::FixedTensor::from_float(b, kF32);
  auto qbt = fx::FixedTensor::from_float(b.transposed(), kF32);
  auto c1 = fx::qmatmul_nt(qa, qb, kF32);
  auto c2 = fx::qmatmul(qa, qbt, kF32);
  for (nt::index_t i = 0; i < c1.numel(); ++i) EXPECT_EQ(c1[i], c2[i]);
}

TEST(QAdd, ExactAndSaturating) {
  fx::FixedFormat small{8, 4};
  nt::Tensor a(nt::Shape{2}, std::vector<float>{1.0f, 6.0f});
  nt::Tensor b(nt::Shape{2}, std::vector<float>{2.5f, 6.0f});
  auto c = fx::qadd(fx::FixedTensor::from_float(a, small), fx::FixedTensor::from_float(b, small));
  EXPECT_FLOAT_EQ(c.to_float()[0], 3.5f);
  EXPECT_EQ(c[1], small.raw_max());  // 12 > 7.94 saturates
}

TEST(QAdd, FormatMismatchThrows) {
  fx::FixedTensor a(nt::Shape{2}, kF32), b(nt::Shape{2}, kP24);
  EXPECT_THROW(fx::qadd(a, b), std::invalid_argument);
}

TEST(QRelu, ClampsNegatives) {
  nt::Tensor a(nt::Shape{3}, std::vector<float>{-1.5f, 0.0f, 2.25f});
  auto r = fx::qrelu(fx::FixedTensor::from_float(a, kF32));
  auto f = r.to_float();
  EXPECT_FLOAT_EQ(f[0], 0.0f);
  EXPECT_FLOAT_EQ(f[1], 0.0f);
  EXPECT_FLOAT_EQ(f[2], 2.25f);
}

TEST(QScale, ApproximatesFloatScaling) {
  nt::Rng rng(5);
  auto a = rng.randn(nt::Shape{16});
  const float s = 1.0f / std::sqrt(8.0f);
  auto qs = fx::qscale(fx::FixedTensor::from_float(a, kF32), s);
  EXPECT_LE(nt::max_abs_diff(qs.to_float(), a * s), 1e-3f);
}

TEST(QLayerNorm, NormalizesRows) {
  nt::Rng rng(6);
  auto x = rng.randn(nt::Shape{4, 32}, 3.0f, 2.0f);
  auto gamma = nt::Tensor::ones(nt::Shape{32});
  auto beta = nt::Tensor::zeros(nt::Shape{32});
  auto qy = fx::qlayernorm_rows(fx::FixedTensor::from_float(x, kF32),
                                fx::FixedTensor::from_float(gamma, kP24),
                                fx::FixedTensor::from_float(beta, kP24));
  auto y = qy.to_float();
  for (nt::index_t r = 0; r < 4; ++r) {
    auto row = y.slice0(r, r + 1);
    EXPECT_NEAR(nt::mean(row), 0.0f, 1e-2f);
    EXPECT_NEAR(nt::variance(row), 1.0f, 5e-2f);
  }
}

TEST(QLayerNorm, HigherRankNormalizesTheLastAxisLikeRows) {
  nt::Rng rng(16);
  auto x = rng.randn(nt::Shape{2, 3, 16}, 1.0f, 2.0f);
  auto gamma = rng.randn(nt::Shape{16});
  auto beta = rng.randn(nt::Shape{16});
  const auto qg = fx::FixedTensor::from_float(gamma, kP24);
  const auto qb = fx::FixedTensor::from_float(beta, kP24);
  auto y3 = fx::qlayernorm_rows(fx::FixedTensor::from_float(x, kF32), qg, qb);
  auto y2 = fx::qlayernorm_rows(fx::FixedTensor::from_float(x.reshape(nt::Shape{6, 16}), kF32),
                                qg, qb);
  ASSERT_EQ(y3.shape(), x.shape());
  for (nt::index_t i = 0; i < y3.numel(); ++i) ASSERT_EQ(y3[i], y2[i]) << i;
  const auto short_gamma = fx::FixedTensor::from_float(rng.randn(nt::Shape{8}), kP24);
  EXPECT_THROW((void)fx::qlayernorm_rows(fx::FixedTensor::from_float(x, kF32), short_gamma, qb),
               std::invalid_argument);
}

TEST(QLinear, MatchesFloatLinear) {
  nt::Rng rng(7);
  auto x = rng.randn(nt::Shape{3, 8});
  auto w = rng.randn(nt::Shape{4, 8});  // out x in
  auto b = rng.randn(nt::Shape{4});
  auto qy = fx::qlinear(fx::FixedTensor::from_float(x, kF32), fx::FixedTensor::from_float(w, kP24),
                        fx::FixedTensor::from_float(b, kP24), kF32);
  auto y = nt::matmul_nt(x, w);
  for (nt::index_t r = 0; r < 3; ++r)
    for (nt::index_t c = 0; c < 4; ++c) y.at(r, c) += b[c];
  EXPECT_LE(nt::max_abs_diff(qy.to_float(), y), 1e-2f);
}

namespace {

/// Scalar reference for the single-rounding linear contract: the bias is
/// folded into the wide accumulator at product scale and exactly one
/// round-half-away-from-zero narrowing happens at the output boundary.
fx::FixedTensor qlinear_scalar_ref(const fx::FixedTensor& x, const fx::FixedTensor& w_t,
                                   const fx::FixedTensor& bias, fx::FixedFormat out) {
  const nt::index_t m = x.shape().dim(0), k = x.shape().dim(1), n = w_t.shape().dim(0);
  const int prod_frac = x.format().frac_bits() + w_t.format().frac_bits();
  const int bshift = prod_frac - bias.format().frac_bits();
  fx::FixedTensor y(nt::Shape{m, n}, out);
  for (nt::index_t r = 0; r < m; ++r) {
    for (nt::index_t c = 0; c < n; ++c) {
      __int128 acc = static_cast<__int128>(bias[c]) << bshift;
      for (nt::index_t i = 0; i < k; ++i) {
        acc += static_cast<__int128>(x[r * k + i]) * w_t[c * k + i];
      }
      const int shift = prod_frac - out.frac_bits();
      __int128 v = acc;
      if (shift > 0) {
        const __int128 half = static_cast<__int128>(1) << (shift - 1);
        v = (v + (v >= 0 ? half : half - 1)) >> shift;
      } else if (shift < 0) {
        v <<= -shift;
      }
      if (v > out.raw_max()) v = out.raw_max();
      if (v < out.raw_min()) v = out.raw_min();
      y[r * n + c] = static_cast<std::int64_t>(v);
    }
  }
  return y;
}

}  // namespace

// Regression for the double-rounding bug: qlinear used to round the matmul
// into the output format, convert the bias separately (second rounding), and
// add saturating — off by one LSB whenever both roundings landed on ties.
// The accumulator must match the scalar reference bitwise, including at
// extreme scale gaps between the operand, bias, and output formats.
TEST(QLinear, BitwiseMatchesScalarReferenceAtExtremeScales) {
  nt::Rng rng(9);
  const fx::FixedFormat xf{32, 28};   // tiny steps, huge prod_frac
  const fx::FixedFormat wf{24, 20};
  const fx::FixedFormat bf{8, 4};     // coarse bias far from prod scale
  const fx::FixedFormat outs[] = {{8, 4}, {16, 8}, {32, 16}, {32, 24}};
  auto x = rng.randn(nt::Shape{5, 12}, 0.0f, 0.5f);
  auto w = rng.randn(nt::Shape{7, 12}, 0.0f, 0.5f);
  auto b = rng.randn(nt::Shape{7}, 0.0f, 2.0f);
  auto qx = fx::FixedTensor::from_float(x, xf);
  auto qw = fx::FixedTensor::from_float(w, wf);
  auto qb = fx::FixedTensor::from_float(b, bf);
  for (const auto& out : outs) {
    auto got = fx::qlinear(qx, qw, qb, out);
    auto want = qlinear_scalar_ref(qx, qw, qb, out);
    ASSERT_EQ(got.numel(), want.numel());
    for (nt::index_t i = 0; i < got.numel(); ++i) {
      EXPECT_EQ(got[i], want[i]) << "out=" << out.to_string() << " i=" << i;
    }
  }
}

// Deterministic half-LSB tie: the merged accumulator lands exactly between
// two output codes, where the old two-step rounding drifted.
TEST(QLinear, SingleRoundingAtTieBoundary) {
  const fx::FixedFormat f8{8, 4};
  // x*w = 1.0 * 0.5 = 0.5; bias = 0.03125 -> sum 0.53125 = 8.5 LSB at 8(4).
  // Half-away rounds to 9 LSB = 0.5625.
  auto qx = fx::FixedTensor::from_float(nt::Tensor(nt::Shape{1, 1}, 1.0f), fx::FixedFormat{16, 8});
  auto qw = fx::FixedTensor::from_float(nt::Tensor(nt::Shape{1, 1}, 0.5f), fx::FixedFormat{16, 8});
  auto qb = fx::FixedTensor::from_float(nt::Tensor(nt::Shape{1}, 0.03125f),
                                        fx::FixedFormat{16, 8});
  auto y = fx::qlinear(qx, qw, qb, f8);
  EXPECT_EQ(y[0], 9);
  // And the negative mirror rounds away from zero symmetrically.
  auto qxn = fx::FixedTensor::from_float(nt::Tensor(nt::Shape{1, 1}, -1.0f),
                                         fx::FixedFormat{16, 8});
  auto yn = fx::qlinear(qxn, qw, qb, f8);
  // -0.5 + 0.03125 = -0.46875 = -7.5 LSB -> -8 LSB half-away.
  EXPECT_EQ(yn[0], -8);
}

TEST(QuantErrorStats, ZeroForExactValues) {
  nt::Tensor t(nt::Shape{4}, std::vector<float>{1.0f, -2.0f, 0.5f, 0.25f});
  auto q = fx::FixedTensor::from_float(t, kF32);
  auto e = fx::quant_error(t, q);
  EXPECT_EQ(e.mean_abs, 0.0f);
  EXPECT_EQ(e.max_abs, 0.0f);
}

// Property: narrower feature formats give monotonically non-decreasing error
// (the Table VIII / Fig 9-10 premise).
TEST(QuantErrorStats, ErrorGrowsAsFormatNarrows) {
  nt::Rng rng(8);
  auto a = rng.randn(nt::Shape{8, 8});
  auto b = rng.randn(nt::Shape{8, 8});
  auto ref = nt::matmul(a, b);
  float prev = -1.0f;
  for (const auto& scheme : fx::table8_schemes()) {
    auto qc = fx::qmatmul(fx::FixedTensor::from_float(a, scheme.feature),
                          fx::FixedTensor::from_float(b, scheme.param), scheme.feature);
    const auto e = fx::quant_error(ref, qc);
    EXPECT_GE(e.max_abs + 1e-7f, prev) << "scheme " << scheme.to_string();
    prev = e.max_abs;
  }
}
