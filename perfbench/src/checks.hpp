// Output checks of the benchmark, kept free of the code they judge so the
// self-test (selftest.cpp) can feed each one a deliberately wrong output.
// Tolerances are stated where the checks are called (workloads.cpp) and
// derived in perfbench/README.md.
#pragma once

#include <cstdint>
#include <span>
#include <string>

namespace perfbench {

struct Check {
  bool ok = true;
  std::string detail;    ///< what differed, for the failure message
  double measured = 0.0; ///< the compared quantity (max diff, relative diff)
};

/// Every element equal bit for bit (so -0.0 != 0.0 and NaN payloads count).
[[nodiscard]] Check bitwise_equal(std::span<const float> got, std::span<const float> want);
/// No NaN or infinity.
[[nodiscard]] Check all_finite(std::span<const float> got);
/// max |got - want| <= rel_tol * max |want|.
[[nodiscard]] Check within_relative(std::span<const float> got, std::span<const float> want,
                                    double rel_tol);
/// max |got - want| <= abs_tol.
[[nodiscard]] Check within_absolute(std::span<const float> got, std::span<const float> want,
                                    double abs_tol);
/// Index of the largest element is the same in both (first index on ties).
[[nodiscard]] Check same_argmax(std::span<const float> got, std::span<const float> want);
/// Two counts agree exactly.
[[nodiscard]] Check equal_count(std::int64_t got, std::int64_t want, const char* what);

/// Geometry of the MHSA IP at one design point, as the closed-form DMA count
/// sees it: tensor shapes only, nothing read back from the IP.
struct MhsaGeometry {
  std::int64_t dim = 64, height = 6, width = 6, heads = 4;
  bool relative_tables = true;  ///< rel_h (heads, H, Dh) + rel_w (heads, W, Dh)
  bool layer_norm = true;       ///< gamma + beta (D each)
};

/// Bytes one image moves over the HP port in the PS/PL hybrid when the
/// weights are streamed on every IP invocation and the final ODE block
/// invokes the IP `solver_steps` times: per invocation, the parameters
/// (3·D² projection words + heads·(H+W)·Dh relative-table words + 2·D
/// LayerNorm words), the input map (N·D words) and the output map (N·D
/// words), each word `word_bytes` wide.
[[nodiscard]] std::int64_t hybrid_dma_bytes_per_image(const MhsaGeometry& g,
                                                      std::int64_t word_bytes,
                                                      std::int64_t solver_steps);

}  // namespace perfbench
