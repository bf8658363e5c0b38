// NN substrate tests: kernel correctness, per-layer behaviour, numeric
// gradient checks against backprop, serialization, and end-to-end
// learning on a trivially separable problem.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <numeric>
#include <tuple>

#include "nn/augment.hpp"
#include "nn/connected.hpp"
#include "nn/conv.hpp"
#include "nn/dropout.hpp"
#include "nn/kernels.hpp"
#include "nn/network.hpp"
#include "nn/pool.hpp"
#include "nn/presets.hpp"
#include "nn/softmax.hpp"
#include "nn/trainer.hpp"
#include "util/error.hpp"
#include "util/threadpool.hpp"

namespace caltrain::nn {
namespace {

TEST(ShapeTest, FlatAndEquality) {
  const Shape s{28, 28, 3};
  EXPECT_EQ(s.Flat(), 28U * 28U * 3U);
  EXPECT_EQ(s, (Shape{28, 28, 3}));
  EXPECT_NE(s, (Shape{28, 28, 4}));
}

TEST(BatchTest, SampleAccess) {
  Batch b(2, Shape{2, 2, 1});
  b.Sample(1)[3] = 5.0F;
  EXPECT_EQ(b.data[7], 5.0F);
  EXPECT_EQ(b.SampleSize(), 4U);
  EXPECT_EQ(b.TotalBytes(), 8U * sizeof(float));
}

TEST(KernelsTest, GemmSmallKnownResult) {
  // [1 2; 3 4] * [5 6; 7 8] = [19 22; 43 50]
  const float a[] = {1, 2, 3, 4};
  const float b[] = {5, 6, 7, 8};
  float c_fast[4] = {0, 0, 0, 0};
  float c_precise[4] = {0, 0, 0, 0};
  GemmFast(2, 2, 2, a, b, c_fast);
  GemmPrecise(2, 2, 2, a, b, c_precise);
  const float expected[] = {19, 22, 43, 50};
  for (int i = 0; i < 4; ++i) {
    EXPECT_FLOAT_EQ(c_fast[i], expected[i]);
    EXPECT_FLOAT_EQ(c_precise[i], expected[i]);
  }
}

TEST(KernelsTest, FastAndPreciseAgree) {
  Rng rng(77);
  constexpr std::size_t m = 9, n = 17, k = 13;
  std::vector<float> a(m * k), b(k * n);
  for (float& x : a) x = rng.Gaussian();
  for (float& x : b) x = rng.Gaussian();
  std::vector<float> c1(m * n, 0.0F), c2(m * n, 0.0F);
  GemmFast(m, n, k, a.data(), b.data(), c1.data());
  GemmPrecise(m, n, k, a.data(), b.data(), c2.data());
  for (std::size_t i = 0; i < c1.size(); ++i) EXPECT_NEAR(c1[i], c2[i], 1e-4F);
}

TEST(KernelsTest, GemmTransAMatchesExplicit) {
  Rng rng(78);
  constexpr std::size_t m = 5, n = 7, k = 4;
  std::vector<float> a_t(k * m), b(k * n);  // A stored [k x m]
  for (float& x : a_t) x = rng.Gaussian();
  for (float& x : b) x = rng.Gaussian();
  // Explicit transpose + plain GEMM.
  std::vector<float> a(m * k);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < k; ++j) a[i * k + j] = a_t[j * m + i];
  std::vector<float> c1(m * n, 0.0F), c2(m * n, 0.0F);
  GemmPrecise(m, n, k, a.data(), b.data(), c1.data());
  GemmTransAPrecise(m, n, k, a_t.data(), b.data(), c2.data());
  for (std::size_t i = 0; i < c1.size(); ++i) EXPECT_NEAR(c1[i], c2[i], 1e-5F);
}

TEST(KernelsTest, GemmTransBMatchesExplicit) {
  Rng rng(79);
  constexpr std::size_t m = 5, n = 7, k = 4;
  std::vector<float> a(m * k), b_t(n * k);  // B stored [n x k]
  for (float& x : a) x = rng.Gaussian();
  for (float& x : b_t) x = rng.Gaussian();
  std::vector<float> b(k * n);
  for (std::size_t i = 0; i < k; ++i)
    for (std::size_t j = 0; j < n; ++j) b[i * n + j] = b_t[j * k + i];
  std::vector<float> c1(m * n, 0.0F), c2(m * n, 0.0F);
  GemmPrecise(m, n, k, a.data(), b.data(), c1.data());
  GemmTransBPrecise(m, n, k, a.data(), b_t.data(), c2.data());
  for (std::size_t i = 0; i < c1.size(); ++i) EXPECT_NEAR(c1[i], c2[i], 1e-5F);
}

TEST(KernelsTest, ParallelGemmFastIsBitIdenticalToSerial) {
  // The fast kernels dispatch row blocks through the thread pool; the
  // row-blocked partition must leave results bit-identical to the
  // serial (threads=1) kernel for every thread count.  Shapes are
  // deliberately odd — m, n, k not divisible by the row grain or any
  // thread count — so blocks are uneven.  Only GEMMs of at least 2^21
  // multiply-adds enter the pool; {1031, 7, 301} is one that takes the
  // naive row-blocked path (n < NR) above that gate.
  struct Shape3 {
    std::size_t m, n, k;
  };
  const Shape3 shapes[] = {{37, 29, 17}, {1, 5, 3},    {33, 1, 7},
                           {8, 64, 64},  {63, 31, 15}, {5, 3, 1},
                           {1031, 7, 301}};
  for (const Shape3& s : shapes) {
    Rng rng(1000 + s.m);
    std::vector<float> a(s.m * s.k), b_plain(s.k * s.n), b_trans(s.n * s.k),
        a_trans(s.k * s.m);
    for (float& x : a) x = rng.Gaussian();
    for (float& x : b_plain) x = rng.Gaussian();
    for (float& x : b_trans) x = rng.Gaussian();
    for (float& x : a_trans) x = rng.Gaussian();

    std::vector<float> serial(s.m * s.n), parallel(s.m * s.n);
    const auto run_all = [&](std::vector<float>& c,
                             void (*gemm)(std::size_t, std::size_t,
                                          std::size_t, const float*,
                                          const float*, float*) noexcept,
                             const float* lhs, const float* rhs) {
      std::fill(c.begin(), c.end(), 0.25F);  // nonzero: kernels accumulate
      gemm(s.m, s.n, s.k, lhs, rhs, c.data());
    };

    for (const auto& [kernel, lhs, rhs] :
         {std::tuple{&GemmFast, a.data(), b_plain.data()},
          std::tuple{&GemmTransAFast, a_trans.data(), b_plain.data()},
          std::tuple{&GemmTransBFast, a.data(), b_trans.data()}}) {
      {
        util::ScopedThreads one(1);
        run_all(serial, kernel, lhs, rhs);
      }
      for (unsigned threads : {2U, 4U, 7U}) {
        util::ScopedThreads many(threads);
        run_all(parallel, kernel, lhs, rhs);
        ASSERT_EQ(0, std::memcmp(serial.data(), parallel.data(),
                                 serial.size() * sizeof(float)))
            << "m=" << s.m << " n=" << s.n << " k=" << s.k
            << " threads=" << threads;
      }
    }
  }
}

TEST(KernelsTest, Im2ColIdentityFor1x1) {
  // 1x1 kernel with no padding: col == input.
  const std::vector<float> in = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<float> col(8, 0.0F);
  Im2ColBatch(in.data(), in.size(), 1, 2, 2, 2, 1, 1, 0, col.data());
  EXPECT_EQ(col, in);
}

TEST(KernelsTest, Col2ImIsAdjointOfIm2Col) {
  // <Im2Col(x), y> == <x, Col2Im(y)> for all x, y (adjoint property a
  // correct gradient scatter must satisfy).
  Rng rng(80);
  constexpr int c = 2, h = 5, w = 4, k = 3, stride = 1, pad = 1;
  const int out_h = h, out_w = w;
  const std::size_t in_size = static_cast<std::size_t>(c) * h * w;
  const std::size_t col_size =
      static_cast<std::size_t>(c) * k * k * out_h * out_w;
  std::vector<float> x(in_size), y(col_size);
  for (float& v : x) v = rng.Gaussian();
  for (float& v : y) v = rng.Gaussian();

  std::vector<float> col(col_size, 0.0F);
  Im2ColBatch(x.data(), in_size, 1, c, h, w, k, stride, pad, col.data());
  double lhs = 0.0;
  for (std::size_t i = 0; i < col_size; ++i) lhs += col[i] * y[i];

  std::vector<float> back(in_size, 0.0F);
  Col2ImBatch(y.data(), 1, c, h, w, k, stride, pad, back.data(), in_size);
  double rhs = 0.0;
  for (std::size_t i = 0; i < in_size; ++i) rhs += x[i] * back[i];

  EXPECT_NEAR(lhs, rhs, 1e-3);
}

// Lowering geometries for the exact reference tests: stride 1/2, ksize
// 1/3/5, pad 0/1/2, widths 1-7 (width < ksize leaves some kernel
// offsets an empty copy run), non-square planes, batch 1 and 3, plus
// one block large enough for the pool-dispatched path.
struct LoweringCase {
  int batch, channels, height, width, ksize, stride, pad;
  [[nodiscard]] int out_h() const {
    return (height + 2 * pad - ksize) / stride + 1;
  }
  [[nodiscard]] int out_w() const {
    return (width + 2 * pad - ksize) / stride + 1;
  }
  [[nodiscard]] std::size_t sample() const {
    return static_cast<std::size_t>(channels) * height * width;
  }
  [[nodiscard]] std::size_t col_rows() const {
    return static_cast<std::size_t>(channels) * ksize * ksize;
  }
  [[nodiscard]] std::size_t out_hw() const {
    return static_cast<std::size_t>(out_h()) * out_w();
  }
};

std::vector<LoweringCase> LoweringCases() {
  std::vector<LoweringCase> cases;
  for (int batch : {1, 3}) {
    for (int stride : {1, 2}) {
      for (int ksize : {1, 3, 5}) {
        for (int pad : {0, 1, 2}) {
          for (int width = 1; width <= 7; ++width) {
            for (int height : {2, 5}) {
              const LoweringCase lc{batch, 2,      height, width,
                                    ksize, stride, pad};
              if (width + 2 * pad < ksize || height + 2 * pad < ksize) {
                continue;
              }
              cases.push_back(lc);
            }
          }
        }
      }
    }
  }
  cases.push_back(LoweringCase{3, 16, 28, 28, 3, 1, 1});  // >= 2^18 floats
  return cases;
}

// Today's per-element lowering formula: column row (c, ky, kx), output
// (oy, ox) of sample s reads input (oy*stride - pad + ky,
// ox*stride - pad + kx), zero outside the plane.
void ReferenceIm2Col(const LoweringCase& g, const float* in, float* col) {
  const std::size_t ld = static_cast<std::size_t>(g.batch) * g.out_hw();
  for (int s = 0; s < g.batch; ++s) {
    for (std::size_t row = 0; row < g.col_rows(); ++row) {
      const int c = static_cast<int>(row) / (g.ksize * g.ksize);
      const int ky = static_cast<int>(row) / g.ksize % g.ksize;
      const int kx = static_cast<int>(row) % g.ksize;
      for (int oy = 0; oy < g.out_h(); ++oy) {
        for (int ox = 0; ox < g.out_w(); ++ox) {
          const int iy = oy * g.stride - g.pad + ky;
          const int ix = ox * g.stride - g.pad + kx;
          const bool inside =
              iy >= 0 && iy < g.height && ix >= 0 && ix < g.width;
          col[row * ld + s * g.out_hw() +
              static_cast<std::size_t>(oy) * g.out_w() + ox] =
              inside ? in[s * g.sample() +
                          (static_cast<std::size_t>(c) * g.height + iy) *
                              g.width +
                          ix]
                     : 0.0F;
        }
      }
    }
  }
}

// The matching scatter-add, in today's order per input element:
// kernel offset, then output row, then output column.
void ReferenceCol2Im(const LoweringCase& g, const float* col, float* in) {
  const std::size_t ld = static_cast<std::size_t>(g.batch) * g.out_hw();
  for (int s = 0; s < g.batch; ++s) {
    for (std::size_t row = 0; row < g.col_rows(); ++row) {
      const int c = static_cast<int>(row) / (g.ksize * g.ksize);
      const int ky = static_cast<int>(row) / g.ksize % g.ksize;
      const int kx = static_cast<int>(row) % g.ksize;
      for (int oy = 0; oy < g.out_h(); ++oy) {
        for (int ox = 0; ox < g.out_w(); ++ox) {
          const int iy = oy * g.stride - g.pad + ky;
          const int ix = ox * g.stride - g.pad + kx;
          if (iy < 0 || iy >= g.height || ix < 0 || ix >= g.width) continue;
          in[s * g.sample() +
             (static_cast<std::size_t>(c) * g.height + iy) * g.width + ix] +=
              col[row * ld + s * g.out_hw() +
                  static_cast<std::size_t>(oy) * g.out_w() + ox];
        }
      }
    }
  }
}

std::string Describe(const LoweringCase& g) {
  return "batch=" + std::to_string(g.batch) + " c=" +
         std::to_string(g.channels) + " " + std::to_string(g.height) + "x" +
         std::to_string(g.width) + " k=" + std::to_string(g.ksize) +
         " stride=" + std::to_string(g.stride) +
         " pad=" + std::to_string(g.pad);
}

TEST(KernelsTest, Im2ColBatchMatchesElementwiseReference) {
  Rng rng(81);
  for (const LoweringCase& g : LoweringCases()) {
    std::vector<float> in(g.sample() * g.batch);
    for (float& v : in) v = rng.Gaussian();
    const std::size_t col_size = g.col_rows() * g.out_hw() * g.batch;
    std::vector<float> expected(col_size);
    ReferenceIm2Col(g, in.data(), expected.data());
    for (unsigned threads : {1U, 4U}) {
      util::ScopedThreads guard(threads);
      std::vector<float> got(col_size, std::nanf(""));
      Im2ColBatch(in.data(), g.sample(), g.batch, g.channels, g.height,
                  g.width, g.ksize, g.stride, g.pad, got.data());
      ASSERT_EQ(0, std::memcmp(expected.data(), got.data(),
                               col_size * sizeof(float)))
          << Describe(g) << " threads=" << threads;
    }
  }
}

TEST(KernelsTest, Col2ImBatchMatchesElementwiseReference) {
  Rng rng(82);
  for (const LoweringCase& g : LoweringCases()) {
    std::vector<float> col(g.col_rows() * g.out_hw() * g.batch);
    for (float& v : col) v = rng.Gaussian();
    // Non-zero starting planes: the scatter accumulates.
    std::vector<float> base(g.sample() * g.batch);
    for (float& v : base) v = rng.Gaussian();
    std::vector<float> expected = base;
    ReferenceCol2Im(g, col.data(), expected.data());
    for (unsigned threads : {1U, 4U}) {
      util::ScopedThreads guard(threads);
      std::vector<float> got = base;
      Col2ImBatch(col.data(), g.batch, g.channels, g.height, g.width,
                  g.ksize, g.stride, g.pad, got.data(), g.sample());
      ASSERT_EQ(0, std::memcmp(expected.data(), got.data(),
                               got.size() * sizeof(float)))
          << Describe(g) << " threads=" << threads;
    }
  }
}

TEST(ConvTest, OutputShapes) {
  const ConvLayer c3(Shape{28, 28, 3}, 16, 3, 1, Activation::kLeakyRelu);
  EXPECT_EQ(c3.out_shape(), (Shape{28, 28, 16}));  // same padding
  const ConvLayer c1(Shape{7, 7, 16}, 10, 1, 1, Activation::kLinear);
  EXPECT_EQ(c1.out_shape(), (Shape{7, 7, 10}));
}

TEST(ConvTest, IdentityKernelForward) {
  // A 1x1 conv with weight 1 and bias 0 copies its input channel.
  ConvLayer conv(Shape{3, 3, 1}, 1, 1, 1, Activation::kLinear);
  conv.weights()[0] = 1.0F;
  Batch in(1, Shape{3, 3, 1});
  std::iota(in.data.begin(), in.data.end(), 1.0F);
  Batch out(1, conv.out_shape());
  LayerScratch scratch;
  LayerContext ctx;
  ctx.scratch = &scratch;
  conv.Forward(in, out, ctx);
  for (std::size_t i = 0; i < in.data.size(); ++i) {
    EXPECT_FLOAT_EQ(out.data[i], in.data[i]);
  }
}

TEST(ConvTest, LeakyActivationApplied) {
  ConvLayer conv(Shape{1, 1, 1}, 1, 1, 1, Activation::kLeakyRelu);
  conv.weights()[0] = 1.0F;
  Batch in(1, Shape{1, 1, 1});
  in.data[0] = -2.0F;
  Batch out(1, conv.out_shape());
  LayerScratch scratch;
  LayerContext ctx;
  ctx.scratch = &scratch;
  conv.Forward(in, out, ctx);
  EXPECT_FLOAT_EQ(out.data[0], -0.2F);
}

// Numeric-vs-analytic gradient check through a conv layer feeding a
// quadratic loss L = 0.5 * sum(out^2), whose dL/dout = out.
TEST(ConvTest, GradientCheckWeightsAndInput) {
  Rng rng(42);
  ConvLayer conv(Shape{5, 5, 2}, 3, 3, 1, Activation::kLeakyRelu);
  conv.InitWeights(rng);
  Batch in(1, Shape{5, 5, 2});
  for (float& x : in.data) x = rng.Gaussian();

  LayerScratch scratch;
  LayerGrads grads;
  LayerContext ctx;
  ctx.scratch = &scratch;
  ctx.grads = &grads;
  Batch out(1, conv.out_shape());
  conv.Forward(in, out, ctx);
  Batch delta_out = out;  // dL/dout = out for the quadratic loss
  Batch delta_in(1, conv.in_shape());
  conv.Backward(in, out, delta_out, delta_in, ctx);
  const std::vector<float> analytic_wgrad = grads.weight_grads;

  const auto loss = [&]() {
    Batch tmp(1, conv.out_shape());
    conv.Forward(in, tmp, ctx);
    double acc = 0.0;
    for (float v : tmp.data) acc += 0.5 * static_cast<double>(v) * v;
    return acc;
  };

  constexpr float kEps = 1e-3F;
  for (std::size_t wi : {std::size_t{0}, std::size_t{7}, std::size_t{31}}) {
    const float saved = conv.weights()[wi];
    conv.weights()[wi] = saved + kEps;
    const double up = loss();
    conv.weights()[wi] = saved - kEps;
    const double down = loss();
    conv.weights()[wi] = saved;
    const double numeric = (up - down) / (2.0 * kEps);
    EXPECT_NEAR(analytic_wgrad[wi], numeric, 2e-2)
        << "weight index " << wi;
  }

  // Input gradient.
  for (std::size_t xi : {std::size_t{0}, std::size_t{12}, std::size_t{49}}) {
    const float saved = in.data[xi];
    in.data[xi] = saved + kEps;
    const double up = loss();
    in.data[xi] = saved - kEps;
    const double down = loss();
    in.data[xi] = saved;
    const double numeric = (up - down) / (2.0 * kEps);
    EXPECT_NEAR(delta_in.data[xi], numeric, 2e-2) << "input index " << xi;
  }
}

TEST(ConnectedTest, GradientCheck) {
  Rng rng(43);
  ConnectedLayer fc(Shape{2, 2, 2}, 5, Activation::kLeakyRelu);
  fc.InitWeights(rng);
  Batch in(2, Shape{2, 2, 2});
  for (float& x : in.data) x = rng.Gaussian();

  LayerScratch scratch;
  LayerGrads grads;
  LayerContext ctx;
  ctx.scratch = &scratch;
  ctx.grads = &grads;
  Batch out(2, fc.out_shape());
  fc.Forward(in, out, ctx);
  Batch delta_out = out;
  Batch delta_in(2, fc.in_shape());
  fc.Backward(in, out, delta_out, delta_in, ctx);
  const std::vector<float> analytic = grads.weight_grads;

  const auto loss = [&]() {
    Batch tmp(2, fc.out_shape());
    fc.Forward(in, tmp, ctx);
    double acc = 0.0;
    for (float v : tmp.data) acc += 0.5 * static_cast<double>(v) * v;
    return acc;
  };
  constexpr float kEps = 1e-3F;
  for (std::size_t wi : {std::size_t{0}, std::size_t{11}, std::size_t{39}}) {
    const float saved = fc.weights()[wi];
    fc.weights()[wi] = saved + kEps;
    const double up = loss();
    fc.weights()[wi] = saved - kEps;
    const double down = loss();
    fc.weights()[wi] = saved;
    EXPECT_NEAR(analytic[wi], (up - down) / (2.0 * kEps), 2e-2);
  }
}

TEST(MaxPoolTest, ForwardPicksMaxAndBackwardRoutes) {
  MaxPoolLayer pool(Shape{4, 4, 1}, 2, 2);
  Batch in(1, Shape{4, 4, 1});
  std::iota(in.data.begin(), in.data.end(), 1.0F);  // 1..16 row-major
  Batch out(1, pool.out_shape());
  LayerScratch scratch;
  LayerContext ctx;
  ctx.scratch = &scratch;
  pool.Forward(in, out, ctx);
  EXPECT_EQ(out.shape, (Shape{2, 2, 1}));
  EXPECT_FLOAT_EQ(out.data[0], 6.0F);
  EXPECT_FLOAT_EQ(out.data[1], 8.0F);
  EXPECT_FLOAT_EQ(out.data[2], 14.0F);
  EXPECT_FLOAT_EQ(out.data[3], 16.0F);

  Batch delta_out(1, pool.out_shape());
  delta_out.data = {1.0F, 2.0F, 3.0F, 4.0F};
  Batch delta_in(1, pool.in_shape());
  pool.Backward(in, out, delta_out, delta_in, ctx);
  // Gradient lands only on the argmax positions.
  EXPECT_FLOAT_EQ(delta_in.data[5], 1.0F);   // value 6
  EXPECT_FLOAT_EQ(delta_in.data[7], 2.0F);   // value 8
  EXPECT_FLOAT_EQ(delta_in.data[13], 3.0F);  // value 14
  EXPECT_FLOAT_EQ(delta_in.data[15], 4.0F);  // value 16
  double total = 0.0;
  for (float v : delta_in.data) total += v;
  EXPECT_NEAR(total, 10.0, 1e-6);
}

// Today's generic max-pool loop: window rows outer, columns inner,
// strict `>` against a -inf seed, winner index 0 when nothing beats it.
void ReferenceMaxPool(const Batch& in, Shape out_shape, int ksize,
                      int stride, std::vector<float>& out,
                      std::vector<std::int32_t>& winners) {
  const Shape is = in.shape;
  const std::size_t out_plane =
      static_cast<std::size_t>(out_shape.w) * out_shape.h;
  out.assign(static_cast<std::size_t>(in.n) * out_shape.Flat(), 0.0F);
  winners.assign(out.size(), -1);
  for (int s = 0; s < in.n; ++s) {
    for (int c = 0; c < is.c; ++c) {
      const float* plane =
          in.Sample(s) + static_cast<std::size_t>(c) * is.h * is.w;
      for (int oy = 0; oy < out_shape.h; ++oy) {
        for (int ox = 0; ox < out_shape.w; ++ox) {
          float best = -std::numeric_limits<float>::infinity();
          std::int32_t best_idx = 0;
          for (int ky = 0; ky < ksize; ++ky) {
            for (int kx = 0; kx < ksize; ++kx) {
              const int iy = oy * stride + ky;
              const int ix = ox * stride + kx;
              if (iy >= is.h || ix >= is.w) continue;
              const std::int32_t idx = iy * is.w + ix;
              if (plane[idx] > best) {
                best = plane[idx];
                best_idx = idx;
              }
            }
          }
          const std::size_t o = static_cast<std::size_t>(s) *
                                    out_shape.Flat() +
                                c * out_plane + oy * out_shape.w + ox;
          out[o] = best;
          winners[o] = best_idx;
        }
      }
    }
  }
}

TEST(MaxPoolTest, TwoByTwoFastPathMatchesGenericLoop) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  Rng rng(83);
  struct PoolCase {
    Shape in;
    int ksize, stride;
  };
  // Even planes take the 2x2 fast path; odd dims and other geometries
  // take the generic loop.
  for (const PoolCase& pc :
       {PoolCase{Shape{6, 4, 3}, 2, 2}, PoolCase{Shape{28, 28, 8}, 2, 2},
        PoolCase{Shape{7, 5, 2}, 2, 2}, PoolCase{Shape{6, 5, 2}, 2, 2},
        PoolCase{Shape{6, 6, 2}, 3, 2}, PoolCase{Shape{5, 5, 1}, 2, 1}}) {
    MaxPoolLayer pool(pc.in, pc.ksize, pc.stride);
    Batch in(2, pc.in);
    for (float& v : in.data) v = static_cast<float>(rng.UniformU64(4)) - 1.5F;
    // Plane 0 of sample 0 leads with hand-made windows: a tie, NaN
    // first / later, -inf, and an all-NaN window.
    const std::tuple<int, int, float> marks[] = {
        {0, 0, 2.0F}, {0, 1, 2.0F}, {1, 0, 2.0F}, {1, 1, 1.0F},
        {0, 2, nan},  {0, 3, -1.0F}, {1, 2, 3.0F}, {1, 3, nan},
        {2, 0, -inf}, {2, 1, -inf}, {3, 0, -inf}, {3, 1, -inf},
        {2, 2, nan},  {2, 3, nan},  {3, 2, nan},  {3, 3, nan}};
    for (const auto& [y, x, v] : marks) {
      in.data[static_cast<std::size_t>(y) * pc.in.w + x] = v;
    }

    std::vector<float> expected;
    std::vector<std::int32_t> expected_winners;
    ReferenceMaxPool(in, pool.out_shape(), pc.ksize, pc.stride, expected,
                     expected_winners);

    Batch out(2, pool.out_shape());
    LayerScratch scratch;
    scratch.argmax.assign(expected_winners.size() + 7, 12345);  // stale
    LayerContext ctx;
    ctx.training = false;  // eval mode, as gradient inversion runs it
    ctx.scratch = &scratch;
    pool.Forward(in, out, ctx);
    const std::string what = pool.Describe();
    ASSERT_EQ(0, std::memcmp(expected.data(), out.data.data(),
                             expected.size() * sizeof(float)))
        << what;
    ASSERT_EQ(scratch.argmax, expected_winners) << what;

    Batch delta_out(2, pool.out_shape());
    for (float& v : delta_out.data) v = rng.Gaussian();
    Batch delta_in(2, pool.in_shape());
    pool.Backward(in, out, delta_out, delta_in, ctx);
    std::vector<float> expected_delta(delta_in.data.size(), 0.0F);
    const std::size_t out_plane =
        static_cast<std::size_t>(pool.out_shape().w) * pool.out_shape().h;
    const std::size_t in_plane = static_cast<std::size_t>(pc.in.w) * pc.in.h;
    for (std::size_t o = 0; o < expected_winners.size(); ++o) {
      const std::size_t s = o / pool.out_shape().Flat();
      const std::size_t c = o % pool.out_shape().Flat() / out_plane;
      expected_delta[s * pc.in.Flat() + c * in_plane + expected_winners[o]] +=
          delta_out.data[o];
    }
    ASSERT_EQ(0, std::memcmp(expected_delta.data(), delta_in.data.data(),
                             expected_delta.size() * sizeof(float)))
        << what;
  }
}

TEST(AvgPoolTest, ForwardMeanBackwardUniform) {
  AvgPoolLayer pool(Shape{2, 2, 2});
  Batch in(1, Shape{2, 2, 2});
  in.data = {1, 2, 3, 4, 10, 20, 30, 40};
  Batch out(1, pool.out_shape());
  LayerContext ctx;
  pool.Forward(in, out, ctx);
  EXPECT_FLOAT_EQ(out.data[0], 2.5F);
  EXPECT_FLOAT_EQ(out.data[1], 25.0F);

  Batch delta_out(1, pool.out_shape());
  delta_out.data = {4.0F, 8.0F};
  Batch delta_in(1, pool.in_shape());
  pool.Backward(in, out, delta_out, delta_in, ctx);
  EXPECT_FLOAT_EQ(delta_in.data[0], 1.0F);
  EXPECT_FLOAT_EQ(delta_in.data[4], 2.0F);
}

TEST(DropoutTest, EvalModeIsIdentity) {
  DropoutLayer drop(Shape{4, 4, 1}, 0.5F);
  Batch in(1, Shape{4, 4, 1});
  std::iota(in.data.begin(), in.data.end(), 1.0F);
  Batch out(1, drop.out_shape());
  LayerContext ctx;  // training = false
  drop.Forward(in, out, ctx);
  EXPECT_EQ(out.data, in.data);
}

TEST(DropoutTest, TrainModeZerosAndScales) {
  DropoutLayer drop(Shape{10, 10, 4}, 0.5F);
  Batch in(1, Shape{10, 10, 4});
  std::fill(in.data.begin(), in.data.end(), 1.0F);
  Batch out(1, drop.out_shape());
  Rng rng(5);
  LayerScratch scratch;
  LayerContext ctx;
  ctx.training = true;
  ctx.rng = &rng;
  ctx.scratch = &scratch;
  drop.Forward(in, out, ctx);
  int zeros = 0, scaled = 0;
  for (float v : out.data) {
    if (v == 0.0F) ++zeros;
    else if (std::abs(v - 2.0F) < 1e-6F) ++scaled;
    else FAIL() << "unexpected dropout output " << v;
  }
  EXPECT_GT(zeros, 100);
  EXPECT_GT(scaled, 100);

  // Backward uses the same mask.
  Batch delta_out(1, drop.out_shape());
  std::fill(delta_out.data.begin(), delta_out.data.end(), 1.0F);
  Batch delta_in(1, drop.in_shape());
  drop.Backward(in, out, delta_out, delta_in, ctx);
  for (std::size_t i = 0; i < out.data.size(); ++i) {
    EXPECT_EQ(delta_in.data[i] == 0.0F, out.data[i] == 0.0F);
  }
}

TEST(SoftmaxCostTest, LossOfUniformLogitsIsLogN) {
  NetworkSpec spec;
  spec.input = Shape{1, 1, 4};
  spec.layers = {LayerSpec{.kind = LayerKind::kSoftmax},
                 LayerSpec{.kind = LayerKind::kCost}};
  Network net(spec);
  Batch in(1, Shape{1, 1, 4});
  std::fill(in.data.begin(), in.data.end(), 0.0F);
  std::vector<int> labels = {2};
  LayerContext ctx;
  ctx.labels = &labels;
  LayerWorkspace ws;
  net.ForwardRange(&in, 0, net.NumLayers(), ctx, ws);
  EXPECT_NEAR(net.LossOf(ws), std::log(4.0F), 1e-5F);
}

TEST(SoftmaxCostTest, CombinedGradientIsProbsMinusOneHot) {
  NetworkSpec spec;
  spec.input = Shape{1, 1, 3};
  spec.layers = {LayerSpec{.kind = LayerKind::kSoftmax},
                 LayerSpec{.kind = LayerKind::kCost}};
  Network net(spec);
  Batch in(1, Shape{1, 1, 3});
  in.data = {1.0F, 2.0F, 3.0F};
  std::vector<int> labels = {0};
  LayerContext ctx;
  ctx.training = true;
  ctx.labels = &labels;
  LayerWorkspace ws;
  net.ForwardRange(&in, 0, net.NumLayers(), ctx, ws);
  net.BackwardRange(0, net.NumLayers(), ctx, ws);
  const Batch& probs = ws.activations[0];
  // Delta entering the softmax (= what a preceding layer would see) is
  // probs - onehot.
  const Batch& delta = ws.deltas[0];
  // deltas[0] is dL/d(softmax output) which equals the cost layer's
  // pass-down (probs - onehot) by the pairing convention.
  EXPECT_NEAR(delta.data[0], probs.data[0] - 1.0F, 1e-6F);
  EXPECT_NEAR(delta.data[1], probs.data[1], 1e-6F);
  EXPECT_NEAR(delta.data[2], probs.data[2], 1e-6F);
}

TEST(NetworkTest, CostWithoutSoftmaxRejected) {
  NetworkSpec spec;
  spec.input = Shape{1, 1, 3};
  spec.layers = {LayerSpec{.kind = LayerKind::kCost}};
  EXPECT_THROW(Network net(spec), Error);
}

TEST(NetworkTest, Table1ShapesMatchPaper) {
  Rng rng(1);
  Network net = BuildNetwork(Table1Spec(), rng);
  ASSERT_EQ(net.NumLayers(), 10);
  EXPECT_EQ(net.layer(0).out_shape(), (Shape{28, 28, 128}));
  EXPECT_EQ(net.layer(1).out_shape(), (Shape{28, 28, 128}));
  EXPECT_EQ(net.layer(2).out_shape(), (Shape{14, 14, 128}));
  EXPECT_EQ(net.layer(3).out_shape(), (Shape{14, 14, 64}));
  EXPECT_EQ(net.layer(4).out_shape(), (Shape{7, 7, 64}));
  EXPECT_EQ(net.layer(5).out_shape(), (Shape{7, 7, 128}));
  EXPECT_EQ(net.layer(6).out_shape(), (Shape{7, 7, 10}));
  EXPECT_EQ(net.layer(7).out_shape(), (Shape{1, 1, 10}));
  EXPECT_EQ(net.NumClasses(), 10);
  EXPECT_EQ(net.PenultimateIndex(), 7);  // avg pool output is the embedding
}

TEST(NetworkTest, Table2ShapesMatchPaper) {
  Rng rng(1);
  Network net = BuildNetwork(Table2Spec(), rng);
  ASSERT_EQ(net.NumLayers(), 18);
  EXPECT_EQ(net.layer(2).out_shape(), (Shape{28, 28, 128}));
  EXPECT_EQ(net.layer(3).out_shape(), (Shape{14, 14, 128}));
  EXPECT_EQ(net.layer(7).out_shape(), (Shape{14, 14, 256}));
  EXPECT_EQ(net.layer(8).out_shape(), (Shape{7, 7, 256}));
  EXPECT_EQ(net.layer(12).out_shape(), (Shape{7, 7, 512}));
  EXPECT_EQ(net.layer(14).out_shape(), (Shape{7, 7, 10}));
  EXPECT_EQ(net.layer(15).out_shape(), (Shape{1, 1, 10}));
}

TEST(NetworkTest, ScaledPresetKeepsTopology) {
  Rng rng(1);
  Network net = BuildNetwork(Table2Spec(8), rng);
  ASSERT_EQ(net.NumLayers(), 18);
  EXPECT_EQ(net.layer(0).out_shape().c, 16);
  EXPECT_EQ(net.layer(14).out_shape().c, 10);  // class conv never scaled
}

TEST(NetworkTest, SerializationRoundTripPreservesPredictions) {
  Rng rng(21);
  Network net = BuildNetwork(Table1Spec(16), rng);
  Image img(Shape{28, 28, 3});
  for (float& p : img.pixels) p = rng.UniformFloat();
  LayerWorkspace ws;
  const auto before = net.PredictOne(img, ws);
  const Bytes blob = net.SerializeModel();
  Network restored = Network::DeserializeModel(blob);
  LayerWorkspace restored_ws;
  const auto after = restored.PredictOne(img, restored_ws);
  ASSERT_EQ(before.size(), after.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_FLOAT_EQ(before[i], after[i]);
  }
}

TEST(NetworkTest, WeightRangeRoundTrip) {
  Rng rng(22);
  Network a = BuildNetwork(Table1Spec(16), rng);
  Network b = BuildNetwork(Table1Spec(16), rng);  // different init
  // Copy layers [0, 2) (the FrontNet) from a to b.
  const Bytes blob = a.SerializeWeightRange(0, 2);
  b.DeserializeWeightRange(0, 2, blob);
  EXPECT_EQ(b.SerializeWeightRange(0, 2), blob);
  EXPECT_NE(b.SerializeWeightRange(2, 7), a.SerializeWeightRange(2, 7));
}

TEST(NetworkTest, FlopsAccountingMonotone) {
  Rng rng(23);
  Network net = BuildNetwork(Table2Spec(8), rng);
  const auto front = net.FlopsPerSample(0, 4);
  const auto all = net.FlopsPerSample(0, net.NumLayers());
  EXPECT_GT(front, 0U);
  EXPECT_GT(all, front);
  EXPECT_GT(net.WeightBytes(0, net.NumLayers()), net.WeightBytes(0, 1));
}

TEST(NetworkTest, PartitionedForwardMatchesFullForward) {
  // Running [0,k) then [k,N) must equal a single full pass (eval mode).
  Rng rng(24);
  Network net = BuildNetwork(Table1Spec(16), rng);
  Batch in(3, Shape{28, 28, 3});
  for (float& x : in.data) x = rng.UniformFloat();

  LayerContext ctx;
  LayerWorkspace ws;
  net.ForwardRange(&in, 0, net.NumLayers(), ctx, ws);
  const std::vector<float> full = ws.activations[8].data;  // softmax out

  net.ForwardRange(&in, 0, 2, ctx, ws);
  net.ForwardRange(nullptr, 2, net.NumLayers(), ctx, ws);
  const std::vector<float> split = ws.activations[8].data;
  ASSERT_EQ(full.size(), split.size());
  for (std::size_t i = 0; i < full.size(); ++i) {
    EXPECT_FLOAT_EQ(full[i], split[i]);
  }
}

TEST(TrainerTest, LearnsSeparableProblem) {
  // Two classes distinguished by mean intensity: class 0 dark, class 1
  // bright.  A Table-1-style tiny net must reach >= 90% top-1 quickly.
  Rng rng(31);
  std::vector<Image> train_images, test_images;
  std::vector<int> train_labels, test_labels;
  const auto make = [&](int label) {
    Image img(Shape{28, 28, 3});
    const float base = label == 0 ? 0.2F : 0.8F;
    for (float& p : img.pixels) p = base + 0.1F * rng.Gaussian();
    return img;
  };
  for (int i = 0; i < 120; ++i) {
    const int label = i % 2;
    train_images.push_back(make(label));
    train_labels.push_back(label);
  }
  for (int i = 0; i < 40; ++i) {
    const int label = i % 2;
    test_images.push_back(make(label));
    test_labels.push_back(label);
  }

  Network net = BuildNetwork(Table1Spec(32, 2), rng);
  TrainOptions options;
  options.epochs = 3;
  options.batch_size = 16;
  options.sgd.learning_rate = 0.05F;
  options.augment = false;
  options.seed = 99;
  const auto history = TrainNetwork(net, train_images, train_labels,
                                    test_images, test_labels, options);
  ASSERT_EQ(history.size(), 3U);
  EXPECT_GE(history.back().top1, 0.9);
  EXPECT_GE(history.back().top2, 0.999);  // 2 classes -> top2 is always hit
}

TEST(TrainerTest, TrainStepBitIdenticalAcrossThreadCounts) {
  // The deterministic data-parallel TrainStep: fixed-size shards,
  // per-shard dropout RNG streams, and fixed-order gradient reduction
  // make trained weights and losses bit-identical at any thread count.
  // Table-2 topology so dropout masks (workspace scratch + derived RNG
  // streams) are exercised.
  const auto run = [](unsigned threads) {
    util::ScopedThreads guard(threads);
    Rng rng(55);
    Network net = BuildNetwork(Table2Spec(32, 2), rng);
    Batch batch(16, Shape{28, 28, 3});
    Rng fill(56);
    for (float& x : batch.data) x = fill.UniformFloat();
    std::vector<int> labels(16);
    for (std::size_t i = 0; i < labels.size(); ++i) {
      labels[i] = static_cast<int>(i % 2);
    }
    SgdConfig sgd;
    Rng train_rng(57);
    std::vector<float> losses;
    for (int step = 0; step < 3; ++step) {
      losses.push_back(net.TrainStep(batch, labels, sgd, train_rng));
    }
    return std::make_pair(losses,
                          net.SerializeWeightRange(0, net.NumLayers()));
  };
  const auto serial = run(1);
  for (const unsigned threads : {2U, 3U, 8U}) {
    const auto parallel = run(threads);
    EXPECT_EQ(parallel.first, serial.first)
        << "losses diverged at threads=" << threads;
    EXPECT_EQ(parallel.second, serial.second)
        << "weights diverged at threads=" << threads;
  }
}

TEST(TrainerTest, EvaluateTopKBounds) {
  Rng rng(32);
  Network net = BuildNetwork(Table1Spec(32, 2), rng);
  std::vector<Image> images(4, Image(Shape{28, 28, 3}));
  std::vector<int> labels = {0, 1, 0, 1};
  const double top1 = EvaluateTopK(net, images, labels, 1);
  const double top2 = EvaluateTopK(net, images, labels, 2);
  EXPECT_GE(top1, 0.0);
  EXPECT_LE(top1, 1.0);
  EXPECT_NEAR(top2, 1.0, 1e-9);
}

TEST(AugmentTest, FlipIsInvolution) {
  Rng rng(33);
  Image img(Shape{8, 8, 3});
  for (float& p : img.pixels) p = rng.UniformFloat();
  const Image back = FlipHorizontal(FlipHorizontal(img));
  EXPECT_EQ(back.pixels, img.pixels);
}

TEST(AugmentTest, RotateZeroIsIdentity) {
  Rng rng(34);
  Image img(Shape{8, 8, 1});
  for (float& p : img.pixels) p = rng.UniformFloat();
  const Image rotated = Rotate(img, 0.0F);
  for (std::size_t i = 0; i < img.pixels.size(); ++i) {
    EXPECT_NEAR(rotated.pixels[i], img.pixels[i], 1e-5F);
  }
}

TEST(AugmentTest, TranslateMovesPixels) {
  Image img(Shape{4, 4, 1});
  img.At(0, 1, 1) = 1.0F;
  const Image shifted = Translate(img, 1, 2);
  EXPECT_FLOAT_EQ(shifted.At(0, 3, 2), 1.0F);
  EXPECT_FLOAT_EQ(shifted.At(0, 1, 1), 0.0F);
}

TEST(AugmentTest, BrightnessContrastClamps) {
  Image img(Shape{2, 2, 1});
  img.pixels = {0.0F, 0.5F, 0.9F, 1.0F};
  const Image out = AdjustBrightnessContrast(img, 0.5F, 1.0F);
  for (float p : out.pixels) {
    EXPECT_GE(p, 0.0F);
    EXPECT_LE(p, 1.0F);
  }
  EXPECT_FLOAT_EQ(out.pixels[0], 0.5F);
  EXPECT_FLOAT_EQ(out.pixels[3], 1.0F);
}

TEST(AugmentTest, AugmentIsDeterministicGivenRng) {
  Image img(Shape{8, 8, 3});
  Rng fill(35);
  for (float& p : img.pixels) p = fill.UniformFloat();
  Rng a(7), b(7);
  const AugmentOptions options;
  const Image out_a = Augment(img, options, a);
  const Image out_b = Augment(img, options, b);
  EXPECT_EQ(out_a.pixels, out_b.pixels);
}


TEST(NetworkEdgeTest, EmbeddingAtLayerBounds) {
  Rng rng(200);
  Network net = BuildNetwork(Table1Spec(32), rng);
  Image img(Shape{28, 28, 3});
  LayerWorkspace ws;
  const KernelProfile fast = KernelProfile::kFast;
  EXPECT_THROW((void)net.EmbeddingAtLayer(img, -1, fast, ws), Error);
  EXPECT_THROW((void)net.EmbeddingAtLayer(img, 99, fast, ws), Error);
  const auto early = net.EmbeddingAtLayer(img, 0, fast, ws);
  EXPECT_EQ(early.size(), net.layer(0).out_shape().Flat());
}

TEST(NetworkEdgeTest, ArchitectureTableListsEveryLayer) {
  Rng rng(201);
  Network net = BuildNetwork(Table2Spec(32), rng);
  const std::string table = net.ArchitectureTable();
  EXPECT_NE(table.find("conv"), std::string::npos);
  EXPECT_NE(table.find("dropout"), std::string::npos);
  EXPECT_NE(table.find("softmax"), std::string::npos);
  // 18 data rows + header.
  EXPECT_EQ(static_cast<int>(std::count(table.begin(), table.end(),
                                        '\n')),
            19);
}

TEST(NetworkEdgeTest, ForwardRangeValidatesInput) {
  Rng rng(202);
  Network net = BuildNetwork(Table1Spec(32), rng);
  LayerContext ctx;
  LayerWorkspace ws;
  Batch wrong_shape(1, Shape{8, 8, 3});
  EXPECT_THROW(net.ForwardRange(&wrong_shape, 0, 2, ctx, ws), Error);
  EXPECT_THROW(net.ForwardRange(nullptr, 0, 2, ctx, ws), Error);
  Batch ok(1, Shape{28, 28, 3});
  EXPECT_THROW(net.ForwardRange(&ok, 2, 1, ctx, ws), Error);  // bad range
}

TEST(NetworkEdgeTest, DeserializeRejectsCorruptBlob) {
  Rng rng(203);
  Network net = BuildNetwork(Table1Spec(32), rng);
  Bytes blob = net.SerializeModel();
  blob.resize(blob.size() / 2);  // truncate
  EXPECT_THROW((void)Network::DeserializeModel(blob), Error);
  Bytes extended = net.SerializeModel();
  extended.push_back(0x00);  // trailing garbage
  EXPECT_THROW((void)Network::DeserializeModel(extended), Error);
}

// Byte offsets into a serialized model: the spec header is w, h, c and
// the layer count (u32 each), then 22 bytes per layer — kind (u8),
// filters, ksize, stride (u32), activation (u8), dropout p (f32),
// outputs (u32) — then the weights.
constexpr std::size_t kLayerCountAt = 12;
constexpr std::size_t kFirstKindAt = 16;
constexpr std::size_t kFirstFiltersAt = 17;
constexpr std::size_t kFirstKsizeAt = 21;
constexpr std::size_t kFirstActivationAt = 29;

Bytes DecodeTestModel() {
  Rng rng(205);
  return BuildNetwork(Table1Spec(16), rng).SerializeModel();
}

void PutU32(Bytes& blob, std::size_t at, std::uint32_t value) {
  for (std::size_t i = 0; i < 4; ++i) {
    blob[at + i] = static_cast<std::uint8_t>(value >> (8 * i));
  }
}

TEST(ModelDecodeTest, UnknownLayerKindThrows) {
  for (const std::uint8_t kind : {7, 0x80, 0xff}) {
    Bytes blob = DecodeTestModel();
    blob[kFirstKindAt] = kind;
    EXPECT_THROW((void)Network::DeserializeModel(blob), Error) << int{kind};
  }
  Bytes blob = DecodeTestModel();
  blob[kFirstActivationAt] = 2;
  EXPECT_THROW((void)Network::DeserializeModel(blob), Error);
  // A spec built in code reaches the constructor's switch directly.
  NetworkSpec spec;
  spec.input = Shape{4, 4, 1};
  spec.layers = {LayerSpec{.kind = static_cast<LayerKind>(9)}};
  EXPECT_THROW(Network net(spec), Error);
}

TEST(ModelDecodeTest, HugeLayerCountThrows) {
  for (const std::uint32_t count : {0xffffffffU, 0x10000000U, 1000U}) {
    Bytes blob = DecodeTestModel();
    PutU32(blob, kLayerCountAt, count);
    EXPECT_THROW((void)Network::DeserializeModel(blob), Error) << count;
  }
}

TEST(ModelDecodeTest, OversizedFilterThrowsBeforeAllocating) {
  // 0x14d101b6 filters is past the dimension bound; 2^16 filters is
  // within it but declares ~7 MB of weights that the blob does not
  // hold; so does a 2^16 x 2^16 kernel.
  for (const std::uint32_t filters : {0x14d101b6U, 0xffffffffU, 1U << 16}) {
    Bytes blob = DecodeTestModel();
    PutU32(blob, kFirstFiltersAt, filters);
    EXPECT_THROW((void)Network::DeserializeModel(blob), Error) << filters;
  }
  Bytes blob = DecodeTestModel();
  PutU32(blob, kFirstKsizeAt, 1U << 16);
  EXPECT_THROW((void)Network::DeserializeModel(blob), Error);
  blob = DecodeTestModel();
  PutU32(blob, 0, 0);  // input width 0
  EXPECT_THROW((void)Network::DeserializeModel(blob), Error);
}

TEST(ModelDecodeTest, TruncatedBlobThrows) {
  const Bytes blob = DecodeTestModel();
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{1}, kLayerCountAt, kFirstKindAt,
        kFirstFiltersAt + 2, std::size_t{200}, blob.size() / 2,
        blob.size() - 1}) {
    const Bytes truncated(blob.begin(),
                          blob.begin() + static_cast<std::ptrdiff_t>(keep));
    EXPECT_THROW((void)Network::DeserializeModel(truncated), Error) << keep;
  }
}

TEST(FaceNetSpecTest, ShapesAndPenultimate) {
  Rng rng(204);
  Network net = BuildNetwork(FaceNetSpec(Shape{32, 32, 3}, 8, 64, 8), rng);
  EXPECT_EQ(net.NumClasses(), 8);
  // Penultimate is the identity-logits FC (VGG-Face fc8 analog).
  EXPECT_EQ(net.layer(net.PenultimateIndex()).out_shape(),
            (Shape{1, 1, 8}));
  // The wide embedding FC sits directly before it.
  EXPECT_EQ(net.layer(net.PenultimateIndex() - 1).out_shape(),
            (Shape{1, 1, 64}));
}

}  // namespace
}  // namespace caltrain::nn
