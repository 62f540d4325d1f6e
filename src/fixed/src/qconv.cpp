#include "nodetr/fx/qconv.hpp"

#include <limits>
#include <stdexcept>

#include "nodetr/tensor/parallel.hpp"
#include "wide.hpp"

namespace nodetr::fx {

using nodetr::tensor::index_t;

namespace {

void check_nchw(const FixedTensor& x, const char* who) {
  if (x.shape().rank() != 4) throw std::invalid_argument(std::string(who) + ": rank must be 4");
}

}  // namespace

FixedTensor qconv2d(const FixedTensor& x, const FixedTensor& weight, const FixedTensor& bias,
                    const Conv2dGeom& g, FixedFormat out_format) {
  check_nchw(x, "qconv2d");
  const index_t n = x.shape().dim(0), h = x.shape().dim(2), w = x.shape().dim(3);
  const index_t ho = g.out_extent(h), wo = g.out_extent(w);
  const int prod_frac = x.format().frac_bits() + weight.format().frac_bits();
  FixedTensor out(nodetr::tensor::Shape{n, g.out_channels, ho, wo}, out_format);
  nodetr::tensor::parallel_for(0, n * g.out_channels, [&](index_t lo, index_t hi) {
    for (index_t soc = lo; soc < hi; ++soc) {
      const index_t s = soc / g.out_channels, oc = soc % g.out_channels;
      // Bias enters the accumulator at the product scale (pre-rounding).
      const wide_t bias_acc =
          bias.empty() ? 0 : rescale(bias[oc], bias.format().frac_bits(), prod_frac);
      for (index_t oy = 0; oy < ho; ++oy) {
        for (index_t ox = 0; ox < wo; ++ox) {
          wide_t acc = bias_acc;
          for (index_t ic = 0; ic < g.in_channels; ++ic) {
            const std::int64_t* src = x.raw() + (s * g.in_channels + ic) * h * w;
            const std::int64_t* ker =
                weight.raw() + ((oc * g.in_channels + ic) * g.kernel) * g.kernel;
            for (index_t ky = 0; ky < g.kernel; ++ky) {
              const index_t iy = oy * g.stride + ky - g.pad;
              if (iy < 0 || iy >= h) continue;
              for (index_t kx = 0; kx < g.kernel; ++kx) {
                const index_t ix = ox * g.stride + kx - g.pad;
                if (ix >= 0 && ix < w) {
                  acc += static_cast<wide_t>(src[iy * w + ix]) * ker[ky * g.kernel + kx];
                }
              }
            }
          }
          out[((s * g.out_channels + oc) * ho + oy) * wo + ox] =
              narrow(acc, prod_frac, out_format);
        }
      }
    }
  }, /*grain=*/1);
  return out;
}

FixedTensor qdepthwise_conv2d(const FixedTensor& x, const FixedTensor& weight,
                              const Conv2dGeom& g, FixedFormat out_format) {
  check_nchw(x, "qdepthwise_conv2d");
  const index_t n = x.shape().dim(0), c_ = x.shape().dim(1), h = x.shape().dim(2),
                w = x.shape().dim(3);
  const index_t ho = g.out_extent(h), wo = g.out_extent(w);
  const int prod_frac = x.format().frac_bits() + weight.format().frac_bits();
  FixedTensor out(nodetr::tensor::Shape{n, c_, ho, wo}, out_format);
  nodetr::tensor::parallel_for(0, n * c_, [&](index_t lo, index_t hi) {
    for (index_t sc = lo; sc < hi; ++sc) {
      const index_t c = sc % c_;
      const std::int64_t* src = x.raw() + sc * h * w;
      const std::int64_t* ker = weight.raw() + c * g.kernel * g.kernel;
      for (index_t oy = 0; oy < ho; ++oy) {
        for (index_t ox = 0; ox < wo; ++ox) {
          wide_t acc = 0;
          for (index_t ky = 0; ky < g.kernel; ++ky) {
            const index_t iy = oy * g.stride + ky - g.pad;
            if (iy < 0 || iy >= h) continue;
            for (index_t kx = 0; kx < g.kernel; ++kx) {
              const index_t ix = ox * g.stride + kx - g.pad;
              if (ix >= 0 && ix < w) {
                acc += static_cast<wide_t>(src[iy * w + ix]) * ker[ky * g.kernel + kx];
              }
            }
          }
          out[(sc * ho + oy) * wo + ox] = narrow(acc, prod_frac, out_format);
        }
      }
    }
  }, /*grain=*/1);
  return out;
}

FixedTensor qscale_shift_channels(const FixedTensor& x, const FixedTensor& scale,
                                  const FixedTensor& shift) {
  check_nchw(x, "qscale_shift_channels");
  const index_t n = x.shape().dim(0), c_ = x.shape().dim(1),
                plane = x.shape().dim(2) * x.shape().dim(3);
  if (scale.numel() != c_ || shift.numel() != c_) {
    throw std::invalid_argument("qscale_shift_channels: per-channel size mismatch");
  }
  const auto& ff = x.format();
  const int prod_frac = ff.frac_bits() + scale.format().frac_bits();
  FixedTensor out(x.shape(), ff);
  for (index_t sc = 0; sc < n * c_; ++sc) {
    const index_t c = sc % c_;
    const std::int64_t sh = convert_raw(shift[c], shift.format(), ff);
    for (index_t i = 0; i < plane; ++i) {
      const wide_t p = static_cast<wide_t>(x[sc * plane + i]) * scale[c];
      out[sc * plane + i] = saturate(narrow(p, prod_frac, ff) + sh, ff);
    }
  }
  return out;
}

FixedTensor qglobal_avg_pool(const FixedTensor& x) {
  check_nchw(x, "qglobal_avg_pool");
  const index_t n = x.shape().dim(0), c_ = x.shape().dim(1),
                plane = x.shape().dim(2) * x.shape().dim(3);
  const auto& ff = x.format();
  FixedTensor out(nodetr::tensor::Shape{n, c_}, ff);
  for (index_t sc = 0; sc < n * c_; ++sc) {
    wide_t acc = 0;
    for (index_t i = 0; i < plane; ++i) acc += x[sc * plane + i];
    // Division by the plane size with round-to-nearest.
    const wide_t half = plane / 2;
    const wide_t q = (acc + (acc >= 0 ? half : -half)) / plane;
    out[sc] = saturate(static_cast<std::int64_t>(q), ff);
  }
  return out;
}

FixedTensor qmax_pool(const FixedTensor& x, index_t kernel, index_t stride, index_t pad) {
  check_nchw(x, "qmax_pool");
  const index_t n = x.shape().dim(0), c_ = x.shape().dim(1), h = x.shape().dim(2),
                w = x.shape().dim(3);
  const index_t ho = (h + 2 * pad - kernel) / stride + 1;
  const index_t wo = (w + 2 * pad - kernel) / stride + 1;
  FixedTensor out(nodetr::tensor::Shape{n, c_, ho, wo}, x.format());
  for (index_t sc = 0; sc < n * c_; ++sc) {
    const std::int64_t* src = x.raw() + sc * h * w;
    for (index_t oy = 0; oy < ho; ++oy) {
      for (index_t ox = 0; ox < wo; ++ox) {
        std::int64_t best = std::numeric_limits<std::int64_t>::min();
        for (index_t ky = 0; ky < kernel; ++ky) {
          const index_t iy = oy * stride + ky - pad;
          if (iy < 0 || iy >= h) continue;
          for (index_t kx = 0; kx < kernel; ++kx) {
            const index_t ix = ox * stride + kx - pad;
            if (ix >= 0 && ix < w) best = std::max(best, src[iy * w + ix]);
          }
        }
        out[(sc * ho + oy) * wo + ox] =
            best == std::numeric_limits<std::int64_t>::min() ? 0 : best;
      }
    }
  }
  return out;
}

}  // namespace nodetr::fx
