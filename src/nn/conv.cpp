#include "nn/conv.hpp"

#include <algorithm>
#include <cmath>

namespace caltrain::nn {

namespace {
constexpr float kLeakySlope = 0.1F;

Shape ConvOutShape(Shape in, int filters, int ksize, int stride, int pad) {
  Shape out;
  out.w = (in.w + 2 * pad - ksize) / stride + 1;
  out.h = (in.h + 2 * pad - ksize) / stride + 1;
  out.c = filters;
  return out;
}
}  // namespace

ConvLayer::ConvLayer(Shape in, int filters, int ksize, int stride,
                     Activation activation)
    : Layer(in, ConvOutShape(in, filters, ksize, stride,
                             ksize == 1 ? 0 : ksize / 2)),
      filters_(filters),
      ksize_(ksize),
      stride_(stride),
      pad_(ksize == 1 ? 0 : ksize / 2),
      activation_(activation) {
  CALTRAIN_REQUIRE(filters > 0 && ksize > 0 && stride > 0,
                   "invalid conv parameters");
  const std::size_t weight_count = static_cast<std::size_t>(filters_) *
                                   in_shape_.c * ksize_ * ksize_;
  weights_.assign(weight_count, 0.0F);
  biases_.assign(static_cast<std::size_t>(filters_), 0.0F);
  weight_momentum_.assign(weight_count, 0.0F);
  bias_momentum_.assign(static_cast<std::size_t>(filters_), 0.0F);
}

std::string ConvLayer::Describe() const {
  return "conv " + std::to_string(filters_) + " " + std::to_string(ksize_) +
         "x" + std::to_string(ksize_) + "/" + std::to_string(stride_) + " " +
         in_shape_.ToString() + " -> " + out_shape_.ToString();
}

int ConvLayer::BlockSamples(int batch_n) noexcept {
  return std::min(batch_n, kConvBatchBlock);
}

float ConvLayer::EpilogueSlope() const noexcept {
  return activation_ == Activation::kLeakyRelu ? kLeakySlope : 1.0F;
}

void ConvLayer::SizeScratch(LayerScratch& scratch, int batch_n) const {
  // Sized once per batch shape from the network (no zero fill: every
  // element is overwritten by im2col / the activation-gradient copy /
  // the overwrite-mode GEMM before it is read).  Capacity is the Fast
  // block size; the Precise profile simply uses a 1-sample prefix.
  const std::size_t m = static_cast<std::size_t>(filters_);
  const std::size_t k =
      static_cast<std::size_t>(in_shape_.c) * ksize_ * ksize_;
  const std::size_t n = static_cast<std::size_t>(out_shape_.w) * out_shape_.h;
  const std::size_t bb =
      static_cast<std::size_t>(std::min(std::max(batch_n, 1),
                                        kConvBatchBlock));
  scratch.col.resize(k * n * bb);
  scratch.delta.resize(m * n * bb);
  scratch.col_delta.resize(k * n * bb);
}

void ConvLayer::Forward(const Batch& in, Batch& out,
                        const LayerContext& ctx) const {
  CALTRAIN_CHECK(ctx.scratch != nullptr, "conv forward needs workspace scratch");
  const std::size_t m = static_cast<std::size_t>(filters_);
  const std::size_t k = static_cast<std::size_t>(in_shape_.c) * ksize_ * ksize_;
  const std::size_t n = static_cast<std::size_t>(out_shape_.w) * out_shape_.h;

  LayerScratch& scratch = *ctx.scratch;
  const int bb = BlockSamples(in.n);
  if (scratch.col.size() < k * n * static_cast<std::size_t>(bb)) {
    SizeScratch(scratch, in.n);
  }

  const float slope = EpilogueSlope();
  for (int s0 = 0; s0 < in.n; s0 += bb) {
    const int cur = std::min(bb, in.n - s0);
    Im2ColBatch(in.Sample(s0), in.SampleSize(), cur, in_shape_.c, in_shape_.h,
                in_shape_.w, ksize_, stride_, pad_, scratch.col.data());
    // One wide GEMM per block; bias and activation live in the store
    // epilogue (no separate init/activation passes).
    ConvGemmBatched(ctx.profile, m, n, k, cur, weights_.data(),
                    scratch.col.data(), biases_.data(), slope,
                    out.Sample(s0));
  }
  // A single-block batch leaves the whole lowering in `col`; Backward
  // on the same pass (the workspace contract) reuses it.
  scratch.col_samples = in.n <= bb ? in.n : 0;
}

void ConvLayer::Backward(const Batch& in, const Batch& out,
                         const Batch& delta_out, Batch& delta_in,
                         const LayerContext& ctx) const {
  CALTRAIN_CHECK(ctx.scratch != nullptr && ctx.grads != nullptr,
                 "conv backward needs workspace scratch and gradients");
  const std::size_t m = static_cast<std::size_t>(filters_);
  const std::size_t k = static_cast<std::size_t>(in_shape_.c) * ksize_ * ksize_;
  const std::size_t n = static_cast<std::size_t>(out_shape_.w) * out_shape_.h;

  LayerScratch& scratch = *ctx.scratch;
  const int bb = BlockSamples(in.n);
  if (scratch.col.size() < k * n * static_cast<std::size_t>(bb) ||
      scratch.delta.size() < m * n * static_cast<std::size_t>(bb) ||
      scratch.col_delta.size() < k * n * static_cast<std::size_t>(bb)) {
    SizeScratch(scratch, in.n);
  }
  LayerGrads& grads = *ctx.grads;
  grads.EnsureSized(weights_.size(), biases_.size());

  const bool leaky = activation_ == Activation::kLeakyRelu;
  if (ctx.want_input_grad) delta_in.Zero();
  for (int s0 = 0; s0 < in.n; s0 += bb) {
    const int cur = std::min(bb, in.n - s0);
    const std::size_t wn = static_cast<std::size_t>(cur) * n;

    // Activation gradient, fused into the copy that lays delta out
    // wide: row f of delta_wide[m x cur*n] holds sample s0+si's filter
    // row at column offset si*n (matching the wide im2col layout).
    // Leaky ReLU preserves sign, so the post-activation output
    // determines which branch was taken.  Then the bias gradients:
    // per-sample row sums (sample order, matching the seed's
    // accumulation grouping on both profiles).
    for (int si = 0; si < cur; ++si) {
      const float* d_out = delta_out.Sample(s0 + si);
      const float* o = out.Sample(s0 + si);
      float* rows = scratch.delta.data() + static_cast<std::size_t>(si) * n;
      for (std::size_t f = 0; f < m; ++f) {
        if (leaky) {
          LeakyReluGradient(d_out + f * n, o + f * n, n, kLeakySlope,
                            rows + f * wn);
        } else {
          std::copy(d_out + f * n, d_out + (f + 1) * n, rows + f * wn);
        }
      }
      AddRowSums(rows, m, n, wn, grads.bias_grads.data());
    }

    // Column buffer: when the whole batch was lowered as one block in
    // Forward (training shards always are), `col` still holds exactly
    // this block's lowering — skip the im2col re-run.  The cache is
    // consume-once (reset below): a second Backward without a fresh
    // Forward re-lowers instead of trusting a stale buffer.
    if (scratch.col_samples != in.n || in.n > bb) {
      Im2ColBatch(in.Sample(s0), in.SampleSize(), cur, in_shape_.c,
                  in_shape_.h, in_shape_.w, ksize_, stride_, pad_,
                  scratch.col.data());
    }
    scratch.col_samples = 0;

    // Weight gradients (dW += delta_wide * col^T) and, when requested,
    // the column-space input gradient (col_delta = W^T * delta_wide,
    // overwrite mode — no zero fill).
    float* col_delta =
        ctx.want_input_grad ? scratch.col_delta.data() : nullptr;
    ConvGemmBackward(ctx.profile, m, n, k, cur, weights_.data(),
                     scratch.delta.data(), scratch.col.data(),
                     grads.weight_grads.data(), col_delta);
    if (col_delta != nullptr) {
      Col2ImBatch(col_delta, cur, in_shape_.c, in_shape_.h, in_shape_.w,
                  ksize_, stride_, pad_, delta_in.Sample(s0),
                  delta_in.SampleSize());
    }
  }
}

void ConvLayer::Update(const SgdConfig& config, int batch_size,
                       LayerGrads& grads) {
  grads.EnsureSized(weights_.size(), biases_.size());
  detail::ApplyDpSanitization(config, grads.weight_grads, grads.bias_grads);
  const float scale = config.learning_rate / static_cast<float>(batch_size);
  for (std::size_t i = 0; i < weights_.size(); ++i) {
    weight_momentum_[i] = config.momentum * weight_momentum_[i] -
                          scale * grads.weight_grads[i] -
                          config.learning_rate * config.weight_decay *
                              weights_[i];
    weights_[i] += weight_momentum_[i];
    grads.weight_grads[i] = 0.0F;
  }
  for (std::size_t i = 0; i < biases_.size(); ++i) {
    bias_momentum_[i] =
        config.momentum * bias_momentum_[i] - scale * grads.bias_grads[i];
    biases_[i] += bias_momentum_[i];
    grads.bias_grads[i] = 0.0F;
  }
}

void ConvLayer::InitWeights(Rng& rng) {
  // Gaussian initialization scaled by fan-in (paper Sec. VI-A notes the
  // weights are sampled from a Gaussian distribution).
  const float fan_in =
      static_cast<float>(in_shape_.c) * static_cast<float>(ksize_ * ksize_);
  const float stddev = std::sqrt(2.0F / fan_in);
  for (float& w : weights_) w = rng.Gaussian(0.0F, stddev);
  std::fill(biases_.begin(), biases_.end(), 0.0F);
}

void ConvLayer::SerializeWeights(ByteWriter& writer) const {
  writer.WriteF32Vector(weights_);
  writer.WriteF32Vector(biases_);
}

void ConvLayer::DeserializeWeights(ByteReader& reader) {
  std::vector<float> w = reader.ReadF32Vector();
  std::vector<float> b = reader.ReadF32Vector();
  CALTRAIN_REQUIRE(w.size() == weights_.size() && b.size() == biases_.size(),
                   "conv weight blob shape mismatch");
  weights_ = std::move(w);
  biases_ = std::move(b);
}

std::uint64_t ConvLayer::ForwardFlopsPerSample() const noexcept {
  return 2ULL * static_cast<std::uint64_t>(filters_) * in_shape_.c * ksize_ *
         ksize_ * out_shape_.w * out_shape_.h;
}

std::size_t ConvLayer::WeightBytes() const noexcept {
  return (weights_.size() + biases_.size()) * sizeof(float);
}

}  // namespace caltrain::nn
