#include "nodetr/hls/model_plan.hpp"

#include <cmath>
#include <stdexcept>

#include "nodetr/nn/nn.hpp"
#include "nodetr/ode/adjoint.hpp"
#include "nodetr/ode/ode_block.hpp"

namespace nodetr::hls {

namespace nn = nodetr::nn;
namespace ode = nodetr::ode;

namespace {

// Fixed-point MAC pipeline cost of the unrolled projection engine,
// calibrated in cycle_model.cpp (Table III): 17.02 cycles/MAC sequential,
// divided by the unroll factor when parallelized, plus fill overhead.
constexpr double kMacCycles = 40158722.0 / (9 * 512.0 * 512.0);
constexpr double kFillOverhead = 2267.0;
constexpr double kElemCycles = 1.1;  // pipelined elementwise op incl. streaming

void require(bool ok, const std::string& module, const char* what) {
  if (!ok) throw std::invalid_argument("hls::lower: " + module + ": " + what);
}

Shape conv_out(const Shape& in, const Conv2dGeom& g, const std::string& module) {
  require(in.rank() == 3 && in.dim(0) == g.in_channels, module, "input channel mismatch");
  return Shape{g.out_channels, g.out_extent(in.dim(1)), g.out_extent(in.dim(2))};
}

/// Append the ops of `m` applied to per-image shape `in`; returns the output
/// shape. The only module-type dispatch in hls.
Shape lower_into(nn::Module& m, const Shape& in, const fx::QuantizationScheme& scheme,
                 std::vector<PlanOp>& ops) {
  const auto q = [&](const Tensor& t) { return fx::FixedTensor::from_float(t, scheme.param); };
  if (dynamic_cast<nn::Sequential*>(&m) != nullptr ||
      dynamic_cast<nn::MhsaBlock*>(&m) != nullptr) {
    // Children are wired in execution order.
    Shape s = in;
    for (auto* child : m.children()) s = lower_into(*child, s, scheme, ops);
    return s;
  }
  if (dynamic_cast<nn::Dropout*>(&m) != nullptr) return in;  // identity at inference

  PlanOp op;
  op.name = m.name();
  op.in = in;
  op.out = in;
  if (auto* conv = dynamic_cast<nn::Conv2d*>(&m)) {
    op.kind = OpKind::kConv;
    op.geom = conv->geom();
    op.out = conv_out(in, op.geom, op.name);
    op.w0 = q(conv->weight().value);
    if (conv->has_bias()) op.w1 = q(conv->bias().value);
  } else if (auto* dsc = dynamic_cast<nn::DepthwiseSeparableConv*>(&m)) {
    op.kind = OpKind::kDepthwiseSeparable;
    op.geom = dsc->dw_geom();
    op.geom2 = dsc->pw_geom();
    op.out = conv_out(conv_out(in, op.geom, op.name), op.geom2, op.name);
    op.w0 = q(dsc->dw_weight().value);
    op.w1 = q(dsc->pw_weight().value);
  } else if (auto* bn = dynamic_cast<nn::BatchNorm2d*>(&m)) {
    // Fold the running statistics in float, then quantize scale and shift.
    const Tensor& mean = bn->running_mean();
    const Tensor& var = bn->running_var();
    const index_t c = mean.numel();
    Tensor scale(Shape{c}), shift(Shape{c});
    for (index_t i = 0; i < c; ++i) {
      const float istd = 1.0f / std::sqrt(var[i] + bn->eps());
      scale[i] = bn->gamma().value[i] * istd;
      shift[i] = bn->beta().value[i] - mean[i] * scale[i];
    }
    op.kind = OpKind::kScaleShift;
    op.w0 = q(scale);
    op.w1 = q(shift);
  } else if (dynamic_cast<nn::ReLU*>(&m) != nullptr) {
    op.kind = OpKind::kRelu;
  } else if (auto* pool = dynamic_cast<nn::MaxPool2d*>(&m)) {
    op.kind = OpKind::kMaxPool;
    op.geom = {.in_channels = in.dim(0), .out_channels = in.dim(0), .kernel = pool->kernel(),
               .stride = pool->stride(), .pad = pool->pad()};
    op.out = conv_out(in, op.geom, op.name);
  } else if (dynamic_cast<nn::GlobalAvgPool*>(&m) != nullptr) {
    op.kind = OpKind::kGlobalAvgPool;
    op.out = Shape{in.dim(0)};
  } else if (auto* lin = dynamic_cast<nn::Linear*>(&m)) {
    op.kind = OpKind::kLinear;
    require(in == Shape{lin->in_features()}, op.name, "input feature mismatch");
    op.out = Shape{lin->out_features()};
    op.w0 = q(lin->weight().value);
    if (lin->has_bias()) op.w1 = q(lin->bias().value);
  } else if (auto* ln = dynamic_cast<nn::LayerNorm*>(&m)) {
    op.kind = OpKind::kLayerNorm;
    auto params = ln->local_parameters();
    op.w0 = q(params[0]->value);
    op.w1 = q(params[1]->value);
    op.eps = ln->eps();
  } else if (auto* res = dynamic_cast<nn::Residual*>(&m)) {
    op.kind = OpKind::kResidual;
    op.out = lower_into(res->body(), in, scheme, op.body);
    if (res->skip() != nullptr) (void)lower_into(*res->skip(), in, scheme, op.skip);
    op.relu = res->final_relu();
  } else if (auto* ob = dynamic_cast<ode::OdeBlock*>(&m)) {
    require(ob->solver_kind() == ode::SolverKind::kEuler, op.name,
            "only Euler OdeBlocks are supported");
    op.kind = OpKind::kEuler;
    op.steps = ob->steps();
    // z <- z + h * f(z): h enters as a quantized hardware constant.
    op.h = (ob->t1() - ob->t0()) / static_cast<float>(ob->steps());
    (void)lower_into(ob->dynamics(), in, scheme, op.body);
  } else if (auto* mhsa = dynamic_cast<nn::MultiHeadSelfAttention*>(&m)) {
    const auto& mc = mhsa->config();
    require(mc.attention == nn::AttentionKind::kRelu, op.name,
            "the fixed MHSA datapath implements ReLU attention only (the paper's Eq. 16)");
    require(in == Shape{mc.dim, mc.height, mc.width}, op.name, "input shape mismatch");
    op.kind = OpKind::kMhsa;
    op.ip = std::make_unique<MhsaIpCore>(design_point_of(*mhsa, DataType::kFixed, scheme),
                                         MhsaWeights::from_module(*mhsa));
  } else if (dynamic_cast<ode::AdjointOdeBlock*>(&m) != nullptr) {
    throw std::invalid_argument(
        "hls::lower: AdjointOdeBlock is a training-time alternative; deploy with OdeBlock");
  } else if (m.children().size() == 1 && m.local_parameters().empty()) {
    // Transparent wrappers (e.g. models::OdeNet around its Sequential).
    return lower_into(*m.children()[0], in, scheme, ops);
  } else {
    throw std::invalid_argument("hls::lower: no fixed-point implementation for " + op.name);
  }
  ops.push_back(std::move(op));
  return ops.back().out;
}

fx::FixedTensor run_op(const PlanOp& op, fx::FixedTensor x, const fx::FixedFormat& ff);

fx::FixedTensor run_ops(const std::vector<PlanOp>& ops, fx::FixedTensor x,
                        const fx::FixedFormat& ff) {
  for (const PlanOp& op : ops) x = run_op(op, std::move(x), ff);
  return x;
}

fx::FixedTensor run_op(const PlanOp& op, fx::FixedTensor x, const fx::FixedFormat& ff) {
  switch (op.kind) {
    case OpKind::kConv: return fx::qconv2d(x, op.w0, op.w1, op.geom, ff);
    case OpKind::kDepthwiseSeparable:
      return fx::qconv2d(fx::qdepthwise_conv2d(x, op.w0, op.geom, ff), op.w1, {}, op.geom2, ff);
    case OpKind::kScaleShift: return fx::qscale_shift_channels(x, op.w0, op.w1);
    case OpKind::kRelu: return fx::qrelu(x);
    case OpKind::kMaxPool: return fx::qmax_pool(x, op.geom.kernel, op.geom.stride, op.geom.pad);
    case OpKind::kGlobalAvgPool: return fx::qglobal_avg_pool(x);
    case OpKind::kLinear: return fx::qlinear(x, op.w0, op.w1, ff);
    case OpKind::kLayerNorm: return fx::qlayernorm_rows(x, op.w0, op.w1, op.eps);
    case OpKind::kResidual: {
      fx::FixedTensor body = run_ops(op.body, x, ff);
      fx::FixedTensor sum = fx::qadd(body, op.skip.empty() ? x : run_ops(op.skip, x, ff));
      return op.relu ? fx::qrelu(sum) : sum;
    }
    case OpKind::kEuler:
      for (index_t s = 0; s < op.steps; ++s) {
        x = fx::qadd(x, fx::qscale(run_ops(op.body, x, ff), op.h));
      }
      return x;
    case OpKind::kMhsa: {
      // (B, D, H, W) -> per-image token matrices (N, D) through the IP.
      const index_t b = x.shape().dim(0), d = op.in.dim(0), n = op.in.numel() / d;
      fx::FixedTensor out(x.shape(), x.format()), tokens(Shape{n, d}, x.format());
      for (index_t s = 0; s < b; ++s) {
        const std::int64_t* src = x.raw() + s * d * n;
        for (index_t t = 0; t < n; ++t) {
          for (index_t c = 0; c < d; ++c) tokens[t * d + c] = src[c * n + t];
        }
        const fx::FixedTensor o = op.ip->run_fixed_tokens(tokens);
        std::int64_t* dst = out.raw() + s * d * n;
        for (index_t t = 0; t < n; ++t) {
          for (index_t c = 0; c < d; ++c) dst[c * n + t] = o[t * d + c];
        }
      }
      return out;
    }
  }
  throw std::logic_error("ModelPlan: unknown op kind");
}

void cost_op(const PlanOp& op, const ConvCycleModel& conv, std::size_t top,
             std::vector<OpCost>& out) {
  const auto charge = [&](LayerCost c) { out.push_back({op.kind, top, std::move(c)}); };
  const auto cost_all = [&](const std::vector<PlanOp>& ops) {
    for (const PlanOp& o : ops) cost_op(o, conv, top, out);
  };
  switch (op.kind) {
    case OpKind::kConv:
      charge(conv.conv2d(op.name, op.in.dim(0), op.out.dim(0), op.geom.kernel, op.out.dim(1),
                         op.out.dim(2)));
      return;
    case OpKind::kDepthwiseSeparable:
      charge(conv.depthwise_separable(op.name, op.in.dim(0), op.out.dim(0), op.geom.kernel,
                                      op.out.dim(1), op.out.dim(2)));
      return;
    case OpKind::kLinear: charge(conv.linear(op.name, op.in.numel(), op.out.numel())); return;
    case OpKind::kMhsa: charge({op.name, 0, op.ip->cycles_per_image().total()}); return;
    case OpKind::kResidual:
      cost_all(op.body);
      cost_all(op.skip);
      charge(conv.elementwise(op.name + " add", op.out.numel()));
      return;
    case OpKind::kEuler:
      for (index_t s = 0; s < op.steps; ++s) {
        cost_all(op.body);
        charge(conv.elementwise(op.name + " update", op.out.numel()));
      }
      return;
    default:  // BN, ReLU, pooling, LayerNorm: one pipelined op per output element
      charge(conv.elementwise(op.name, op.out.numel()));
      return;
  }
}

}  // namespace

LayerCost ConvCycleModel::mac_layer(const std::string& name, std::int64_t macs) const {
  if (unroll_ <= 1) return {name, macs, static_cast<std::int64_t>(macs * kMacCycles)};
  const double passes = std::ceil(static_cast<double>(macs) / static_cast<double>(unroll_));
  return {name, macs, static_cast<std::int64_t>(passes * kMacCycles + kFillOverhead)};
}

LayerCost ConvCycleModel::conv2d(const std::string& name, index_t cin, index_t cout,
                                 index_t kernel, index_t out_h, index_t out_w) const {
  return mac_layer(name, cin * cout * kernel * kernel * out_h * out_w);
}

LayerCost ConvCycleModel::depthwise_separable(const std::string& name, index_t cin, index_t cout,
                                              index_t kernel, index_t out_h,
                                              index_t out_w) const {
  // Depthwise K^2 per channel plus 1x1 pointwise mix.
  return mac_layer(name, (cin * kernel * kernel + cin * cout) * out_h * out_w);
}

LayerCost ConvCycleModel::elementwise(const std::string& name, index_t elems) const {
  return {name, 0, static_cast<std::int64_t>(elems * kElemCycles)};
}

LayerCost ConvCycleModel::linear(const std::string& name, index_t in, index_t out) const {
  return mac_layer(name, in * out);
}

std::int64_t PlanCost::total_cycles() const {
  std::int64_t t = 0;
  for (const OpCost& c : ops) t += c.cost.cycles;
  return t;
}

std::int64_t PlanCost::mhsa_cycles() const {
  std::int64_t t = 0;
  for (const OpCost& c : ops) t += c.kind == OpKind::kMhsa ? c.cost.cycles : 0;
  return t;
}

Tensor ModelPlan::run_fixed(const Tensor& x) const {
  const auto& d = x.shape().dims();
  if (d.empty() || Shape(std::vector<index_t>(d.begin() + 1, d.end())) != in) {
    throw std::invalid_argument("ModelPlan::run_fixed: expected (B, " + in.to_string() +
                                "), got " + x.shape().to_string());
  }
  return run_ops(ops, fx::FixedTensor::from_float(x, scheme.feature), scheme.feature).to_float();
}

PlanCost ModelPlan::cost() const {
  const ConvCycleModel conv(ParallelPlan::paper().unroll);
  PlanCost c;
  for (std::size_t i = 0; i < ops.size(); ++i) cost_op(ops[i], conv, i, c.ops);
  return c;
}

ModelPlan lower(nn::Module& model, fx::QuantizationScheme scheme, Shape chw) {
  ModelPlan plan{.ops = {}, .in = chw, .scheme = scheme};
  (void)lower_into(model, chw, scheme, plan.ops);
  return plan;
}

}  // namespace nodetr::hls
