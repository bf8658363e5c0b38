#include "nn/pool.hpp"

#include <limits>

namespace caltrain::nn {

MaxPoolLayer::MaxPoolLayer(Shape in, int ksize, int stride)
    : Layer(in, Shape{(in.w + stride - 1) / stride,
                      (in.h + stride - 1) / stride, in.c}),
      ksize_(ksize),
      stride_(stride) {
  CALTRAIN_REQUIRE(ksize > 0 && stride > 0, "invalid maxpool parameters");
}

std::string MaxPoolLayer::Describe() const {
  return "max " + std::to_string(ksize_) + "x" + std::to_string(ksize_) + "/" +
         std::to_string(stride_) + " " + in_shape_.ToString() + " -> " +
         out_shape_.ToString();
}

void MaxPoolLayer::Forward(const Batch& in, Batch& out,
                           const LayerContext& ctx) const {
  CALTRAIN_CHECK(ctx.scratch != nullptr,
                 "maxpool forward needs workspace scratch");
  const std::size_t out_plane =
      static_cast<std::size_t>(out_shape_.w) * out_shape_.h;
  // Every slot is written below; Backward reads it after any Forward,
  // eval-mode ones included (gradient inversion).
  std::vector<std::int32_t>& argmax = ctx.scratch->argmax;
  argmax.resize(static_cast<std::size_t>(in.n) * out_shape_.Flat());
  // 2x2/2 over even planes at least 8 wide: every window is whole, so
  // the vectorized kernel's select chain gives the generic loop's
  // winners (same winner on ties, NaN and -inf).
  const bool two_by_two = ksize_ == 2 && stride_ == 2 && in_shape_.w >= 8 &&
                          in_shape_.w % 2 == 0 && in_shape_.h % 2 == 0;

  for (int s = 0; s < in.n; ++s) {
    const float* src = in.Sample(s);
    float* dst = out.Sample(s);
    std::int32_t* winners =
        argmax.data() + static_cast<std::size_t>(s) * out_shape_.Flat();
    for (int c = 0; c < in_shape_.c; ++c) {
      const float* plane =
          src + static_cast<std::size_t>(c) * in_shape_.h * in_shape_.w;
      if (two_by_two) {
        const std::size_t off = static_cast<std::size_t>(c) * out_plane;
        MaxPool2x2(plane, in_shape_.h, in_shape_.w, dst + off, winners + off);
        continue;
      }
      for (int oy = 0; oy < out_shape_.h; ++oy) {
        const std::size_t out_row =
            static_cast<std::size_t>(c) * out_plane + oy * out_shape_.w;
        for (int ox = 0; ox < out_shape_.w; ++ox) {
          float best = -std::numeric_limits<float>::infinity();
          std::int32_t best_idx = 0;
          for (int ky = 0; ky < ksize_; ++ky) {
            const int iy = oy * stride_ + ky;
            if (iy >= in_shape_.h) continue;
            for (int kx = 0; kx < ksize_; ++kx) {
              const int ix = ox * stride_ + kx;
              if (ix >= in_shape_.w) continue;
              const std::int32_t idx = iy * in_shape_.w + ix;
              if (plane[idx] > best) {
                best = plane[idx];
                best_idx = idx;
              }
            }
          }
          dst[out_row + ox] = best;
          winners[out_row + ox] = best_idx;
        }
      }
    }
  }
}

void MaxPoolLayer::Backward(const Batch& in, const Batch& /*out*/,
                            const Batch& delta_out, Batch& delta_in,
                            const LayerContext& ctx) const {
  CALTRAIN_CHECK(ctx.scratch != nullptr &&
                     ctx.scratch->argmax.size() ==
                         static_cast<std::size_t>(in.n) * out_shape_.Flat(),
                 "maxpool backward without a matching forward argmax");
  delta_in.Zero();
  const std::size_t in_plane =
      static_cast<std::size_t>(in_shape_.w) * in_shape_.h;
  const std::size_t out_plane =
      static_cast<std::size_t>(out_shape_.w) * out_shape_.h;
  for (int s = 0; s < in.n; ++s) {
    const float* d_out = delta_out.Sample(s);
    float* d_in = delta_in.Sample(s);
    const std::int32_t* winners =
        ctx.scratch->argmax.data() +
        static_cast<std::size_t>(s) * out_shape_.Flat();
    for (int c = 0; c < in_shape_.c; ++c) {
      float* d_in_plane = d_in + static_cast<std::size_t>(c) * in_plane;
      const std::size_t base = static_cast<std::size_t>(c) * out_plane;
      for (std::size_t j = 0; j < out_plane; ++j) {
        d_in_plane[winners[base + j]] += d_out[base + j];
      }
    }
  }
}

AvgPoolLayer::AvgPoolLayer(Shape in) : Layer(in, Shape{1, 1, in.c}) {}

std::string AvgPoolLayer::Describe() const {
  return "avg " + in_shape_.ToString() + " -> " + out_shape_.ToString();
}

void AvgPoolLayer::Forward(const Batch& in, Batch& out,
                           const LayerContext& /*ctx*/) const {
  const std::size_t plane =
      static_cast<std::size_t>(in_shape_.w) * in_shape_.h;
  for (int s = 0; s < in.n; ++s) {
    const float* src = in.Sample(s);
    float* dst = out.Sample(s);
    for (int c = 0; c < in_shape_.c; ++c) {
      const float* p = src + static_cast<std::size_t>(c) * plane;
      float acc = 0.0F;
      for (std::size_t j = 0; j < plane; ++j) acc += p[j];
      dst[c] = acc / static_cast<float>(plane);
    }
  }
}

void AvgPoolLayer::Backward(const Batch& in, const Batch& /*out*/,
                            const Batch& delta_out, Batch& delta_in,
                            const LayerContext& /*ctx*/) const {
  const std::size_t plane =
      static_cast<std::size_t>(in_shape_.w) * in_shape_.h;
  const float inv = 1.0F / static_cast<float>(plane);
  for (int s = 0; s < in.n; ++s) {
    const float* d_out = delta_out.Sample(s);
    float* d_in = delta_in.Sample(s);
    for (int c = 0; c < in_shape_.c; ++c) {
      float* p = d_in + static_cast<std::size_t>(c) * plane;
      const float g = d_out[c] * inv;
      for (std::size_t j = 0; j < plane; ++j) p[j] = g;
    }
  }
}

}  // namespace caltrain::nn
