#include "nodetr/fx/qops.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "nodetr/tensor/arena.hpp"
#include "nodetr/tensor/ops.hpp"
#include "nodetr/tensor/parallel.hpp"
#include "wide.hpp"

namespace nodetr::fx {

namespace {

using nodetr::tensor::ScratchArena;

void check_rank2(const FixedTensor& t, const char* who) {
  if (t.shape().rank() != 2) throw std::invalid_argument(std::string(who) + ": rank must be 2");
}

/// C(m x n) = A(m x k) * Bt(n x k)^T where both operands are row-major, so
/// every inner product runs over two unit-stride spans. Fixed-point
/// accumulation is exact integer arithmetic — the result is bitwise identical
/// to any other accumulation order, so packing/blocking never perturbs the
/// bit-accurate datapath. When `bias` is non-null it holds n per-column
/// offsets already expressed at `prod_frac` fractional bits; they seed the
/// accumulators so the whole affine sum is rounded exactly once at the
/// output boundary (ap_fixed semantics — rounding the matmul and the bias
/// separately double-rounds).
void qgemm_nt(const std::int64_t* a, const std::int64_t* bt, std::int64_t* out, index_t m,
              index_t k, index_t n, int prod_frac, const FixedFormat& out_format,
              const wide_t* bias = nullptr) {
  nodetr::tensor::parallel_for(0, m, [&](index_t lo, index_t hi) {
    for (index_t i = lo; i < hi; ++i) {
      const std::int64_t* arow = a + i * k;
      std::int64_t* crow = out + i * n;
      index_t j = 0;
      // Two columns per pass share the A-row loads.
      for (; j + 2 <= n; j += 2) {
        const std::int64_t* b0 = bt + j * k;
        const std::int64_t* b1 = b0 + k;
        wide_t acc0 = bias ? bias[j] : 0, acc1 = bias ? bias[j + 1] : 0;
        for (index_t p = 0; p < k; ++p) {
          const wide_t av = arow[p];
          acc0 += av * b0[p];
          acc1 += av * b1[p];
        }
        crow[j] = narrow(acc0, prod_frac, out_format);
        crow[j + 1] = narrow(acc1, prod_frac, out_format);
      }
      for (; j < n; ++j) {
        const std::int64_t* brow = bt + j * k;
        wide_t acc = bias ? bias[j] : 0;
        for (index_t p = 0; p < k; ++p) acc += static_cast<wide_t>(arow[p]) * brow[p];
        crow[j] = narrow(acc, prod_frac, out_format);
      }
    }
  }, /*grain=*/8);
}

}  // namespace

FixedTensor qmatmul(const FixedTensor& a, const FixedTensor& b, FixedFormat out_format) {
  check_rank2(a, "qmatmul: a");
  check_rank2(b, "qmatmul: b");
  const index_t m = a.shape().dim(0), k = a.shape().dim(1), n = b.shape().dim(1);
  if (b.shape().dim(0) != k) throw std::invalid_argument("qmatmul: inner dimension mismatch");
  const int prod_frac = a.format().frac_bits() + b.format().frac_bits();
  FixedTensor c(Shape{m, n}, out_format);
  // Pack B^T once (tiled transpose) so the inner product is unit-stride
  // instead of striding by n through B, then reuse the _nt kernel.
  auto& arena = ScratchArena::local();
  ScratchArena::Scope scope(arena);
  std::int64_t* bt = arena.alloc<std::int64_t>(static_cast<std::size_t>(k * n));
  constexpr index_t kTile = 32;
  for (index_t p0 = 0; p0 < k; p0 += kTile) {
    const index_t p1 = std::min(p0 + kTile, k);
    for (index_t j0 = 0; j0 < n; j0 += kTile) {
      const index_t j1 = std::min(j0 + kTile, n);
      for (index_t j = j0; j < j1; ++j) {
        for (index_t p = p0; p < p1; ++p) bt[j * k + p] = b.raw()[p * n + j];
      }
    }
  }
  qgemm_nt(a.raw(), bt, c.raw(), m, k, n, prod_frac, out_format);
  return c;
}

FixedTensor qmatmul_nt(const FixedTensor& a, const FixedTensor& b, FixedFormat out_format) {
  check_rank2(a, "qmatmul_nt: a");
  check_rank2(b, "qmatmul_nt: b");
  const index_t m = a.shape().dim(0), k = a.shape().dim(1), n = b.shape().dim(0);
  if (b.shape().dim(1) != k) throw std::invalid_argument("qmatmul_nt: inner dimension mismatch");
  const int prod_frac = a.format().frac_bits() + b.format().frac_bits();
  FixedTensor c(Shape{m, n}, out_format);
  qgemm_nt(a.raw(), b.raw(), c.raw(), m, k, n, prod_frac, out_format);
  return c;
}

FixedTensor qadd(const FixedTensor& a, const FixedTensor& b) {
  if (!(a.shape() == b.shape())) throw std::invalid_argument("qadd: shape mismatch");
  if (!(a.format() == b.format())) throw std::invalid_argument("qadd: format mismatch");
  FixedTensor c(a.shape(), a.format());
  for (index_t i = 0; i < a.numel(); ++i) c[i] = saturate(a[i] + b[i], a.format());
  return c;
}

FixedTensor qrelu(const FixedTensor& a) {
  FixedTensor c(a.shape(), a.format());
  for (index_t i = 0; i < a.numel(); ++i) c[i] = a[i] > 0 ? a[i] : 0;
  return c;
}

FixedTensor qscale(const FixedTensor& a, float scale) {
  // The scale constant itself is quantized into the operand's format, as a
  // hardware constant multiplier would be.
  const std::int64_t qs = quantize(scale, a.format());
  const int prod_frac = 2 * a.format().frac_bits();
  FixedTensor c(a.shape(), a.format());
  for (index_t i = 0; i < a.numel(); ++i) {
    const wide_t p = static_cast<wide_t>(a[i]) * qs;
    c[i] = narrow(p, prod_frac, a.format());
  }
  return c;
}

FixedTensor qlayernorm_rows(const FixedTensor& x, const FixedTensor& gamma,
                            const FixedTensor& beta, float eps) {
  const index_t cols = x.shape().rank() > 0 ? x.shape().dim(-1) : 0;
  if (cols == 0 || gamma.numel() != cols || beta.numel() != cols) {
    throw std::invalid_argument("qlayernorm_rows: empty last axis or gamma/beta size mismatch");
  }
  const index_t rows = x.numel() / cols;
  const auto& ff = x.format();
  FixedTensor out(x.shape(), ff);
  const int gf = gamma.format().frac_bits();
  for (index_t r = 0; r < rows; ++r) {
    const std::int64_t* in = x.raw() + r * cols;
    std::int64_t* o = out.raw() + r * cols;
    // Exact integer mean/variance at the feature scale.
    wide_t s = 0, s2 = 0;
    for (index_t c = 0; c < cols; ++c) {
      s += in[c];
      s2 += static_cast<wide_t>(in[c]) * in[c];
    }
    const double n = static_cast<double>(cols);
    const double res = ff.resolution();
    const double mean = static_cast<double>(s) / n * res;
    const double ex2 = static_cast<double>(s2) / n * res * res;
    const double var = std::max(ex2 - mean * mean, 0.0);
    const double inv_std = 1.0 / std::sqrt(var + eps);
    // Normalize, apply gain/bias, requantize into the feature format.
    for (index_t c = 0; c < cols; ++c) {
      const double xv = static_cast<double>(in[c]) * res;
      const double g = static_cast<double>(gamma[c]) * std::ldexp(1.0, -gf);
      const double b = static_cast<double>(beta[c]) * std::ldexp(1.0, -gf);
      o[c] = quantize(static_cast<float>((xv - mean) * inv_std * g + b), ff);
    }
  }
  return out;
}

FixedTensor qlinear(const FixedTensor& x, const FixedTensor& weight_t, const FixedTensor& bias,
                    FixedFormat out_format) {
  if (bias.empty()) return qmatmul_nt(x, weight_t, out_format);
  check_rank2(x, "qlinear: x");
  check_rank2(weight_t, "qlinear: weight_t");
  const index_t m = x.shape().dim(0), k = x.shape().dim(1), n = weight_t.shape().dim(0);
  if (weight_t.shape().dim(1) != k) throw std::invalid_argument("qlinear: inner dimension mismatch");
  if (bias.numel() != n) throw std::invalid_argument("qlinear: bias size mismatch");
  const int prod_frac = x.format().frac_bits() + weight_t.format().frac_bits();
  // Raise the bias exactly to the accumulator's scale and let it seed the
  // dot products, so x*W^T + b is rounded once into out_format — rounding
  // the matmul first and the bias separately gave each output two roundings
  // and a bitwise mismatch against the single-pass HLS accumulator. The
  // widening shift is exact for every scheme (prod_frac >= bias frac_bits
  // whenever the feature format has any fractional bits); a hypothetically
  // coarser accumulator would round the bias constant once here instead.
  std::vector<wide_t> wide_bias(static_cast<std::size_t>(n));
  for (index_t j = 0; j < n; ++j) {
    wide_bias[static_cast<std::size_t>(j)] =
        rescale(bias[j], bias.format().frac_bits(), prod_frac);
  }
  FixedTensor y(Shape{m, n}, out_format);
  qgemm_nt(x.raw(), weight_t.raw(), y.raw(), m, k, n, prod_frac, out_format, wide_bias.data());
  return y;
}

QuantError quant_error(const Tensor& reference, const FixedTensor& result) {
  const Tensor approx = result.to_float();
  QuantError e;
  e.mean_abs = nodetr::tensor::mean_abs_diff(reference, approx);
  e.max_abs = nodetr::tensor::max_abs_diff(reference, approx);
  return e;
}

}  // namespace nodetr::fx
