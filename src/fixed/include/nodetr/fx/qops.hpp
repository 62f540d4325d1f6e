// Bit-accurate fixed-point kernels.
//
// Semantics mirror an HLS datapath built from ap_fixed<W,I,AP_RND,AP_SAT>:
// products are formed exactly at (fa+fb) fractional bits in a wide
// accumulator, and results are rounded/saturated into the destination format
// at the layer boundary. All kernels are deterministic and platform
// independent, so the software simulation reproduces the accelerator's
// numerics exactly.
#pragma once

#include "nodetr/fx/fixed_tensor.hpp"

namespace nodetr::fx {

/// C(MxN) = A(MxK) * B(KxN); A and B may use different formats. The exact
/// wide-product accumulation is rounded once into `out_format`.
[[nodiscard]] FixedTensor qmatmul(const FixedTensor& a, const FixedTensor& b,
                                  FixedFormat out_format);

/// C(MxN) = A(MxK) * B(NxK)^T.
[[nodiscard]] FixedTensor qmatmul_nt(const FixedTensor& a, const FixedTensor& b,
                                     FixedFormat out_format);

/// Elementwise sum. Operands must share a format; result saturates into it.
[[nodiscard]] FixedTensor qadd(const FixedTensor& a, const FixedTensor& b);

/// Elementwise ReLU (a comparator and a multiplexer in hardware).
[[nodiscard]] FixedTensor qrelu(const FixedTensor& a);

/// Multiply every element by a float scale factor, quantized to the operand's
/// own format before use (e.g. the 1/sqrt(D_h) attention scaling).
[[nodiscard]] FixedTensor qscale(const FixedTensor& a, float scale);

/// Row-wise LayerNorm over the last axis (the other axes index the rows),
/// with learned gain/bias in the parameter format. Mean/variance accumulate
/// exactly; the reciprocal square root uses a float approximation of the
/// hardware's iterative rsqrt, then requantizes (documented substitution).
[[nodiscard]] FixedTensor qlayernorm_rows(const FixedTensor& x, const FixedTensor& gamma,
                                          const FixedTensor& beta, float eps = 1e-5f);

/// Linear layer y = x * W^T + b with x in feature format, W/b in parameter
/// format, result in feature format. The bias joins the wide accumulator at
/// the product scale, so each output is rounded exactly once (matching a
/// single-pass ap_fixed MAC chain — no double rounding at the boundary).
[[nodiscard]] FixedTensor qlinear(const FixedTensor& x, const FixedTensor& weight_t,
                                  const FixedTensor& bias, FixedFormat out_format);

/// Error statistics between a float reference and a fixed-point result.
struct QuantError {
  float mean_abs = 0.0f;
  float max_abs = 0.0f;
};
[[nodiscard]] QuantError quant_error(const Tensor& reference, const FixedTensor& result);

}  // namespace nodetr::fx
