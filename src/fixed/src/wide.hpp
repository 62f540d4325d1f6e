// The wide accumulator of the bit-accurate kernels and its one rounding
// rule (shared by the fx kernels and format conversions).
#pragma once

#include <cstdint>

#include "nodetr/fx/format.hpp"

namespace nodetr::fx {

using wide_t = __int128;

/// Re-express `v` from `from_frac` to `to_frac` fractional bits: exact when
/// widening, rounded half away from zero when narrowing.
inline wide_t rescale(wide_t v, int from_frac, int to_frac) {
  const int shift = from_frac - to_frac;
  if (shift <= 0) return v << -shift;
  const wide_t half = wide_t{1} << (shift - 1);
  return (v + (v >= 0 ? half : half - 1)) >> shift;
}

/// Round a wide accumulator at `from_frac` fractional bits into `to`, then
/// saturate.
inline std::int64_t narrow(wide_t acc, int from_frac, const FixedFormat& to) {
  const wide_t r = rescale(acc, from_frac, to.frac_bits());
  if (r > to.raw_max()) return to.raw_max();
  if (r < to.raw_min()) return to.raw_min();
  return static_cast<std::int64_t>(r);
}

}  // namespace nodetr::fx
