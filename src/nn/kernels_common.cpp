// Profile-independent kernels: batched-wide im2col / col2im, and the
// branch-free elementwise training passes.
//
// Both lower a block of samples side by side into one wide column
// buffer (see kernels.hpp).  For a same-size stride-1 conv (every conv
// in the presets) an im2col row is the input plane shifted by the
// kernel offset: one contiguous copy plus zeroed borders.  Otherwise
// each output row is a zero fill plus one (strided) gather of its valid
// columns, and col2im is one += run per row; the valid row and column
// ranges are computed once per kernel offset.  Large lowerings
// dispatch rows through the thread pool.  Every parallel unit writes a
// disjoint region with the same inner order as the serial loop, so
// results are identical at any thread count; inside an existing
// parallel region (the data-parallel training shards) everything runs
// inline.
#include "nn/kernels.hpp"

#include <algorithm>
#include <cstring>
#include <limits>

#include "util/threadpool.hpp"

namespace caltrain::nn {

namespace {
// 4-lane vectors (one xmm on the baseline ISA); aligned(4): loads and
// stores go to arbitrary float addresses.
typedef float Vec4 __attribute__((vector_size(16), aligned(4)));
typedef std::int32_t Vec4i __attribute__((vector_size(16), aligned(4)));

inline Vec4 Load(const float* p) noexcept {
  Vec4 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

/// Rows [0, R) of AddRowSums as R interleaved independent chains.
template <std::size_t R>
inline void AddRowSumsTile(const float* in, std::size_t n, std::size_t ld,
                           float* sums) noexcept {
  float acc[R] = {};
  for (std::size_t j = 0; j < n; ++j) {
#pragma GCC unroll 8
    for (std::size_t r = 0; r < R; ++r) acc[r] += in[r * ld + j];
  }
  for (std::size_t r = 0; r < R; ++r) sums[r] += acc[r];
}

/// Lowerings moving fewer floats than this run inline: below it the
/// pool hand-off costs more than the copy (shape-only, so results stay
/// thread-count independent either way).
constexpr std::size_t kParallelMinFloats = std::size_t{1} << 18;

/// The outputs [lo, hi) whose input index o*stride - pad + koff lies in
/// [0, extent): possibly empty, always within [0, out).  (Truncating
/// division only misrounds negative bounds, which clamp to 0 anyway.)
struct Run {
  int lo, hi;
};
inline Run ValidRun(int extent, int koff, int stride, int pad,
                    int out) noexcept {
  // Stride 1 (every preset) skips the integer divisions.
  const auto ceil_div = [stride](int n) {
    return stride == 1 ? n : (n + stride - 1) / stride;
  };
  const int lo = std::clamp(ceil_div(pad - koff), 0, out);
  return {lo, std::clamp(ceil_div(extent + pad - koff), lo, out)};
}

/// Writes one im2col row (channel plane `in_c`, kernel offset ky/kx)
/// of out_h*out_w values into `col_row`.
inline void Im2ColRow(const float* in_c, int height, int width, int ky,
                      int kx, int stride, int pad, int out_h, int out_w,
                      float* col_row) noexcept {
  const Run rows = ValidRun(height, ky, stride, pad, out_h);
  const Run cols = ValidRun(width, kx, stride, pad, out_w);
  if (stride == 1 && out_w == width && rows.lo < rows.hi &&
      cols.lo < cols.hi) {
    // Same-size plane: the row is the input plane shifted by
    // (ky - pad, kx - pad).  One copy spans the in-range rows from their
    // first valid element to their last; then the rows outside the
    // plane and the wrapped columns (strided stores) are zeroed.
    const int first = rows.lo * out_w + cols.lo;
    const int last = (rows.hi - 1) * out_w + cols.hi;
    const int shift = (ky - pad) * width + kx - pad;
    std::copy(in_c + (first + shift), in_c + (last + shift), col_row + first);
    std::fill(col_row, col_row + rows.lo * out_w, 0.0F);
    std::fill(col_row + rows.hi * out_w, col_row + out_h * out_w, 0.0F);
    const auto zero_column = [&](int ox) {
      for (int oy = rows.lo; oy < rows.hi; ++oy) {
        col_row[oy * out_w + ox] = 0.0F;
      }
    };
    for (int ox = 0; ox < cols.lo; ++ox) zero_column(ox);
    for (int ox = cols.hi; ox < out_w; ++ox) zero_column(ox);
    return;
  }
  std::fill_n(col_row, out_h * out_w, 0.0F);
  for (int oy = rows.lo; oy < rows.hi; ++oy) {
    const float* in_row =
        in_c + static_cast<std::size_t>(oy * stride - pad + ky) * width;
    float* out_row = col_row + static_cast<std::size_t>(oy) * out_w;
    for (int ox = cols.lo; ox < cols.hi; ++ox) {
      out_row[ox] = in_row[ox * stride - pad + kx];
    }
  }
}

/// Scatter-adds one channel's ksize*ksize column rows back into the
/// channel plane `in_c`: one += run per in-range output row, each
/// input element receiving its adds in (kernel offset, output row,
/// output column) order.  Rows of the column block are `ld` floats
/// apart.
inline void Col2ImChannel(const float* col_c, std::size_t ld, int height,
                          int width, int ksize, int stride, int pad,
                          int out_h, int out_w, float* in_c) noexcept {
  for (int kidx = 0; kidx < ksize * ksize; ++kidx) {
    const int ky = kidx / ksize;
    const int kx = kidx % ksize;
    const Run rows = ValidRun(height, ky, stride, pad, out_h);
    const Run cols = ValidRun(width, kx, stride, pad, out_w);
    for (int oy = rows.lo; oy < rows.hi; ++oy) {
      float* in_row =
          in_c + static_cast<std::size_t>(oy * stride - pad + ky) * width;
      const float* col_row = col_c + static_cast<std::size_t>(kidx) * ld +
                             static_cast<std::size_t>(oy) * out_w;
      for (int ox = cols.lo; ox < cols.hi; ++ox) {
        in_row[ox * stride - pad + kx] += col_row[ox];
      }
    }
  }
}

// The guard deliberately short-circuits *before* the std::function
// type erasure inside ParallelFor (same pattern as the GEMM bodies'
// ForEachRowBlock): the nested/serial/small case is the per-shard
// training and single-probe hot path and must cost exactly the plain
// loop.
template <typename Fn>
inline void ForEachUnit(std::size_t count, std::size_t floats, Fn&& fn) {
  if (count < 2 || floats < kParallelMinFloats ||
      util::Parallelism::threads() <= 1 || util::InParallelRegion()) {
    for (std::size_t u = 0; u < count; ++u) fn(u);
    return;
  }
  util::ParallelFor(0, count, std::forward<Fn>(fn));
}
}  // namespace

void Im2ColBatch(const float* in, std::size_t sample_stride, int batch,
                 int channels, int height, int width, int ksize, int stride,
                 int pad, float* col_wide) {
  const int out_h = (height + 2 * pad - ksize) / stride + 1;
  const int out_w = (width + 2 * pad - ksize) / stride + 1;
  const std::size_t out_hw = static_cast<std::size_t>(out_h) * out_w;
  const std::size_t rows =
      static_cast<std::size_t>(channels) * ksize * ksize;
  const std::size_t ld = static_cast<std::size_t>(batch) * out_hw;
  const int channel_cols = ksize * ksize;
  // One unit per (sample, column-row): disjoint destination rows, so
  // the parallel sweep is a pure deterministic copy.
  const std::size_t units = static_cast<std::size_t>(batch) * rows;
  ForEachUnit(units, units * out_hw, [=](std::size_t u) {
    const std::size_t s = u / rows;
    const std::size_t row = u % rows;
    const int c = static_cast<int>(row) / channel_cols;
    const int kidx = static_cast<int>(row) % channel_cols;
    const float* in_c = in + s * sample_stride +
                        static_cast<std::size_t>(c) * height * width;
    Im2ColRow(in_c, height, width, kidx / ksize, kidx % ksize, stride, pad,
              out_h, out_w, col_wide + row * ld + s * out_hw);
  });
}

void Col2ImBatch(const float* col_wide, int batch, int channels, int height,
                 int width, int ksize, int stride, int pad, float* in,
                 std::size_t sample_stride) {
  const int out_h = (height + 2 * pad - ksize) / stride + 1;
  const int out_w = (width + 2 * pad - ksize) / stride + 1;
  const std::size_t out_hw = static_cast<std::size_t>(out_h) * out_w;
  const std::size_t ld = static_cast<std::size_t>(batch) * out_hw;
  const std::size_t channel_cols = static_cast<std::size_t>(ksize) * ksize;
  // One unit per (sample, channel): each scatter region is disjoint
  // and keeps the serial within-channel accumulation order.
  const std::size_t units = static_cast<std::size_t>(batch) * channels;
  ForEachUnit(units, units * channel_cols * out_hw, [=](std::size_t u) {
    const std::size_t s = u / static_cast<std::size_t>(channels);
    const int c = static_cast<int>(u % static_cast<std::size_t>(channels));
    Col2ImChannel(col_wide + s * out_hw +
                      static_cast<std::size_t>(c) * channel_cols * ld,
                  ld, height, width, ksize, stride, pad, out_h, out_w,
                  in + s * sample_stride +
                      static_cast<std::size_t>(c) * height * width);
  });
}

// Each pass computes every candidate and selects on the compare the
// scalar loop branches on.  A select keeps the chosen operand's bits,
// and the unchosen product is discarded, so the bits are the scalar
// loop's; without the data-dependent branch (GCC neither if-converts
// nor vectorizes the scalar form under -ftrapping-math) the passes run
// at vector speed on data the branch predictor cannot learn.
void LeakyReluGradient(const float* grad, const float* out, std::size_t n,
                       float slope, float* delta) noexcept {
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const Vec4 g = Load(grad + j);
    const Vec4 d = Load(out + j) < 0.0F ? g * slope : g;
    std::memcpy(delta + j, &d, sizeof d);
  }
  for (; j < n; ++j) delta[j] = out[j] < 0.0F ? grad[j] * slope : grad[j];
}

void AddRowSums(const float* in, std::size_t rows, std::size_t n,
                std::size_t ld, float* sums) noexcept {
  std::size_t f = 0;
  for (; f + 8 <= rows; f += 8) AddRowSumsTile<8>(in + f * ld, n, ld, sums + f);
  if (f + 4 <= rows) {
    AddRowSumsTile<4>(in + f * ld, n, ld, sums + f);
    f += 4;
  }
  for (; f < rows; ++f) AddRowSumsTile<1>(in + f * ld, n, ld, sums + f);
}

void MaxPool2x2(const float* plane, int height, int width, float* out,
                std::int32_t* argmax) noexcept {
  const int out_w = width / 2;
  const Vec4i even = {0, 2, 4, 6};
  for (int oy = 0; oy < height / 2; ++oy) {
    const std::int32_t top = 2 * oy * width;
    const float* row0 = plane + top;
    const float* row1 = row0 + width;
    float* dst = out + static_cast<std::size_t>(oy) * out_w;
    std::int32_t* winners = argmax + static_cast<std::size_t>(oy) * out_w;
    // Four outputs a step: de-interleave the even and odd columns of
    // both input rows, then run the window's chain lane-wise.  A row
    // whose width is not a multiple of 4 ends with a step overlapping
    // the previous one (it rewrites the same values).
    const auto four = [&](int ox) {
      const std::size_t col = 2 * static_cast<std::size_t>(ox);
      const Vec4 t0 = Load(row0 + col);
      const Vec4 t1 = Load(row0 + col + 4);
      const Vec4 b0 = Load(row1 + col);
      const Vec4 b1 = Load(row1 + col + 4);
      const Vec4 cand[4] = {__builtin_shufflevector(t0, t1, 0, 2, 4, 6),
                            __builtin_shufflevector(t0, t1, 1, 3, 5, 7),
                            __builtin_shufflevector(b0, b1, 0, 2, 4, 6),
                            __builtin_shufflevector(b0, b1, 1, 3, 5, 7)};
      const Vec4i base = top + 2 * ox + even;
      const Vec4i idx[4] = {base, base + 1, base + width, base + width + 1};
      Vec4 best = Vec4{} - std::numeric_limits<float>::infinity();
      Vec4i best_idx = {};
      for (int e = 0; e < 4; ++e) {
        const Vec4i wins = cand[e] > best;
        best = wins ? cand[e] : best;
        best_idx = wins ? idx[e] : best_idx;
      }
      std::memcpy(dst + ox, &best, sizeof best);
      std::memcpy(winners + ox, &best_idx, sizeof best_idx);
    };
    for (int ox = 0; ox + 4 <= out_w; ox += 4) four(ox);
    if (out_w % 4 != 0) four(out_w - 4);
  }
}

}  // namespace caltrain::nn
