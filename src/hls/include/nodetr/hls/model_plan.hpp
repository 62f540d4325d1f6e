// ModelPlan: one lowering of a trained network, shared by the whole-model
// fixed datapath and the full-model-on-PL projection (the paper's future
// work, Sec. VII). hls::lower walks the module tree once and does up front
// all work that does not depend on the input (BN folding, parameter
// quantization, MHSA IP construction); run_fixed executes the plan bit
// accurately and cost walks it with ConvCycleModel's per-kind formulas and
// the MHSA IP's cycle model. The plan is a snapshot of the weights: lower
// again after they change.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nodetr/fx/qconv.hpp"
#include "nodetr/hls/mhsa_ip.hpp"

namespace nodetr::hls {

using nodetr::tensor::Conv2dGeom;
using nodetr::tensor::Shape;

/// One layer's latency contribution.
struct LayerCost {
  std::string name;
  std::int64_t macs = 0;
  std::int64_t cycles = 0;
};

/// Cycle estimates for non-attention layers at a given unroll factor.
/// MACs are counted exactly from the geometry; the per-MAC pipeline cost is
/// the projection engine's (the same MAC array is time-shared).
class ConvCycleModel {
 public:
  explicit ConvCycleModel(index_t unroll = 128) : unroll_(unroll) {}

  [[nodiscard]] LayerCost conv2d(const std::string& name, index_t cin, index_t cout,
                                 index_t kernel, index_t out_h, index_t out_w) const;
  [[nodiscard]] LayerCost depthwise_separable(const std::string& name, index_t cin, index_t cout,
                                              index_t kernel, index_t out_h,
                                              index_t out_w) const;
  /// Elementwise layers (BN, ReLU, pooling): one op per element, fully
  /// pipelined.
  [[nodiscard]] LayerCost elementwise(const std::string& name, index_t elems) const;
  [[nodiscard]] LayerCost linear(const std::string& name, index_t in, index_t out) const;

 private:
  [[nodiscard]] LayerCost mac_layer(const std::string& name, std::int64_t macs) const;
  index_t unroll_;
};

enum class OpKind {
  kConv,                ///< dense conv (+ bias)
  kDepthwiseSeparable,  ///< depthwise conv then 1x1 pointwise conv
  kScaleShift,          ///< folded inference BatchNorm
  kRelu,
  kMaxPool,
  kGlobalAvgPool,
  kLinear,
  kLayerNorm,           ///< over the last axis
  kMhsa,                ///< the MHSA IP core
  kResidual,            ///< [relu](body(x) + skip(x)); an empty skip is identity
  kEuler,               ///< `steps` times z <- z + h * body(z)
};

struct PlanOp {
  OpKind kind = OpKind::kRelu;
  std::string name;  ///< the lowered module's name()
  Shape in, out;     ///< per image (no batch axis)
  /// Parameters in the scheme's parameter format: conv/linear weight and
  /// bias, DSC depthwise and pointwise weights, folded BN scale and shift,
  /// LayerNorm gain and bias. Empty when unused.
  fx::FixedTensor w0, w1;
  Conv2dGeom geom;   ///< conv; DSC depthwise stage; max-pool window
  Conv2dGeom geom2;  ///< DSC pointwise stage
  float eps = 0.0f;  ///< LayerNorm
  float h = 0.0f;    ///< Euler step size
  index_t steps = 0; ///< Euler iterations
  bool relu = false;  ///< Residual: ReLU after the add
  std::unique_ptr<MhsaIpCore> ip;
  std::vector<PlanOp> body, skip;  ///< Residual branches; Euler dynamics (body)
};

/// One executed op's PL cost. A Residual's add and an Euler node's update
/// z + h*f are charged to the node itself, once per execution.
struct OpCost {
  OpKind kind = OpKind::kRelu;
  std::size_t top = 0;  ///< index of the enclosing op in ModelPlan::ops
  LayerCost cost;
};

struct PlanCost {
  std::vector<OpCost> ops;  ///< model order; an Euler body once per step

  [[nodiscard]] std::int64_t total_cycles() const;
  /// Cycles spent in MHSA IP ops across all solver steps.
  [[nodiscard]] std::int64_t mhsa_cycles() const;
  [[nodiscard]] double total_ms() const { return total_cycles() * CycleModel::kClockNs * 1e-6; }
};

struct ModelPlan {
  std::vector<PlanOp> ops;
  Shape in;  ///< per-image input shape
  fx::QuantizationScheme scheme;

  /// Run a float batch (B, in...) through the fixed datapath: quantized into
  /// the feature format at the boundary, dequantized at the output.
  [[nodiscard]] Tensor run_fixed(const Tensor& x) const;
  /// Per-image cost of the whole plan on the PL, every MAC layer on the
  /// 128-lane engine of the paper's MHSA IP (ParallelPlan::paper()).
  [[nodiscard]] PlanCost cost() const;
};

/// Lower `model` for per-image input shape `chw` (inference semantics:
/// BatchNorm running statistics, Dropout as identity). Throws
/// std::invalid_argument for a module without a fixed-point implementation,
/// a non-Euler OdeBlock, an AdjointOdeBlock, softmax attention, or a shape
/// the model cannot take.
[[nodiscard]] ModelPlan lower(nodetr::nn::Module& model, fx::QuantizationScheme scheme,
                              Shape chw);

}  // namespace nodetr::hls
