// GEMM substrate parity suite (PR 3).
//
// The Fast profile routes non-trivial shapes through the cache-blocked
// register-tiled core (gemm_tile.inc) while Precise keeps the naive
// serial-order loops; these tests pin the two contracts that refactor
// must preserve:
//  * parity — tiled Fast results match the Precise reference within a
//    k-scaled tolerance across odd/tail shapes (every m, n, k
//    combination of {1, 3, 5, 17, 33, 63} plus block-boundary shapes
//    that cross the KC/MC/NC plan), for all three storage orders and
//    the epilogue variants;
//  * determinism — Fast results (tiled or fallback, epilogue or not,
//    batched conv included) are bit-identical at threads 1/2/3/8.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "nn/kernels.hpp"
#include "util/rng.hpp"
#include "util/threadpool.hpp"

namespace caltrain::nn {
namespace {

struct GemmShape {
  std::size_t m, n, k;
};

std::vector<GemmShape> OddTailShapes() {
  const std::size_t dims[] = {1, 3, 5, 17, 33, 63};
  std::vector<GemmShape> shapes;
  for (std::size_t m : dims) {
    for (std::size_t n : dims) {
      for (std::size_t k : dims) shapes.push_back({m, n, k});
    }
  }
  return shapes;
}

/// Shapes that cross the tiled block plan: multiple KC slabs (k > 256),
/// multiple MC blocks (m > 72), multiple NC panels (n > 2048), and the
/// paper's 10-layer conv lowerings.
std::vector<GemmShape> BlockCrossingShapes() {
  return {
      {100, 260, 300},  // crosses MC and KC with tails everywhere
      {73, 2070, 17},   // crosses NC with a one-row MC tail
      {6, 33, 513},     // three KC slabs on a single tile row
      {128, 784, 27},   // Table-1 layer-1 conv GEMM
      {10, 49, 128},    // Table-1 1x1 head conv GEMM
      {256, 256, 256},  // bench shape: many panel-grid items per slab
      {80, 2100, 260},  // two NC panels x two KC slabs x two MC blocks
  };
}

float ParityTolerance(std::size_t k) {
  // Random Gaussian operands: |sum of k products| ~ sqrt(k), and the
  // tiled/naive orders differ by O(eps) per step.
  return 1e-4F * (1.0F + std::sqrt(static_cast<float>(k)));
}

void FillGaussian(std::vector<float>& v, Rng& rng) {
  for (float& x : v) x = rng.Gaussian();
}

TEST(GemmParityTest, FastMatchesPreciseAcrossOddTailShapes) {
  for (const GemmShape& s : OddTailShapes()) {
    Rng rng(100 + s.m * 37 + s.n * 11 + s.k);
    std::vector<float> a(s.m * s.k), b(s.k * s.n), a_t(s.k * s.m),
        b_t(s.n * s.k);
    FillGaussian(a, rng);
    FillGaussian(b, rng);
    FillGaussian(a_t, rng);
    FillGaussian(b_t, rng);
    const float tol = ParityTolerance(s.k);

    std::vector<float> fast(s.m * s.n, 0.5F), precise(s.m * s.n, 0.5F);
    GemmFast(s.m, s.n, s.k, a.data(), b.data(), fast.data());
    GemmPrecise(s.m, s.n, s.k, a.data(), b.data(), precise.data());
    for (std::size_t i = 0; i < fast.size(); ++i) {
      ASSERT_NEAR(fast[i], precise[i], tol)
          << "Gemm m=" << s.m << " n=" << s.n << " k=" << s.k << " i=" << i;
    }

    std::fill(fast.begin(), fast.end(), 0.5F);
    std::fill(precise.begin(), precise.end(), 0.5F);
    GemmTransAFast(s.m, s.n, s.k, a_t.data(), b.data(), fast.data());
    GemmTransAPrecise(s.m, s.n, s.k, a_t.data(), b.data(), precise.data());
    for (std::size_t i = 0; i < fast.size(); ++i) {
      ASSERT_NEAR(fast[i], precise[i], tol)
          << "GemmTransA m=" << s.m << " n=" << s.n << " k=" << s.k;
    }

    std::fill(fast.begin(), fast.end(), 0.5F);
    std::fill(precise.begin(), precise.end(), 0.5F);
    GemmTransBFast(s.m, s.n, s.k, a.data(), b_t.data(), fast.data());
    GemmTransBPrecise(s.m, s.n, s.k, a.data(), b_t.data(), precise.data());
    for (std::size_t i = 0; i < fast.size(); ++i) {
      ASSERT_NEAR(fast[i], precise[i], tol)
          << "GemmTransB m=" << s.m << " n=" << s.n << " k=" << s.k;
    }
  }
}

TEST(GemmParityTest, EpilogueMatchesReferenceOnBothProfiles) {
  // Overwrite mode with row/col bias and leaky activation, checked
  // against an explicitly computed reference on shapes that use both
  // the tiled core and the naive fallback.
  for (const GemmShape& s : std::vector<GemmShape>{
           {5, 7, 3}, {33, 63, 17}, {100, 260, 300}}) {
    Rng rng(7 + s.m + s.n + s.k);
    std::vector<float> a(s.m * s.k), b(s.k * s.n), row_bias(s.m),
        col_bias(s.n);
    FillGaussian(a, rng);
    FillGaussian(b, rng);
    FillGaussian(row_bias, rng);
    FillGaussian(col_bias, rng);

    std::vector<float> expected(s.m * s.n);
    for (std::size_t i = 0; i < s.m; ++i) {
      for (std::size_t j = 0; j < s.n; ++j) {
        double acc = 0.0;
        for (std::size_t p = 0; p < s.k; ++p) {
          acc += static_cast<double>(a[i * s.k + p]) * b[p * s.n + j];
        }
        double v = acc + row_bias[i] + col_bias[j];
        if (v < 0.0) v *= 0.1;
        expected[i * s.n + j] = static_cast<float>(v);
      }
    }

    GemmEpilogue epi;
    epi.accumulate = false;
    epi.row_bias = row_bias.data();
    epi.col_bias = col_bias.data();
    epi.negative_slope = 0.1F;
    const float tol = ParityTolerance(s.k);
    std::vector<float> got(s.m * s.n, -123.0F);  // garbage: must be ignored
    GemmExFast(s.m, s.n, s.k, a.data(), b.data(), got.data(), epi);
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_NEAR(got[i], expected[i], tol) << "fast epilogue i=" << i;
    }
    std::fill(got.begin(), got.end(), -123.0F);
    GemmExPrecise(s.m, s.n, s.k, a.data(), b.data(), got.data(), epi);
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_NEAR(got[i], expected[i], tol) << "precise epilogue i=" << i;
    }
  }
}

TEST(GemmParityTest, ConvGemmBatchedMatchesPerSampleLowering) {
  // One wide batched GEMM must agree with per-sample epilogue GEMMs on
  // both profiles (the Precise build *is* the per-sample loop; the
  // Fast build scatters a single wide GEMM across sample planes).
  constexpr std::size_t m = 9, n = 21, k = 30;
  constexpr int batch = 5;
  Rng rng(321);
  std::vector<float> w(m * k), col(k * batch * n), bias(m);
  FillGaussian(w, rng);
  FillGaussian(col, rng);
  FillGaussian(bias, rng);

  std::vector<float> expected(static_cast<std::size_t>(batch) * m * n);
  for (int s = 0; s < batch; ++s) {
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        double acc = bias[i];
        for (std::size_t p = 0; p < k; ++p) {
          acc += static_cast<double>(w[i * k + p]) *
                 col[p * batch * n + static_cast<std::size_t>(s) * n + j];
        }
        if (acc < 0.0) acc *= 0.1;
        expected[static_cast<std::size_t>(s) * m * n + i * n + j] =
            static_cast<float>(acc);
      }
    }
  }

  const float tol = ParityTolerance(k);
  for (KernelProfile profile :
       {KernelProfile::kFast, KernelProfile::kPrecise}) {
    std::vector<float> out(expected.size(), -7.0F);
    ConvGemmBatched(profile, m, n, k, batch, w.data(), col.data(),
                    bias.data(), 0.1F, out.data());
    for (std::size_t i = 0; i < out.size(); ++i) {
      ASSERT_NEAR(out[i], expected[i], tol)
          << (profile == KernelProfile::kFast ? "fast" : "precise")
          << " batched conv i=" << i;
    }
  }
}

TEST(GemmDeterminismTest, FastResultsBitIdenticalAcrossThreadCounts) {
  // The tiled block plan is fixed and parallel dispatch only splits
  // disjoint output tiles, so every Fast entry point must produce
  // byte-identical results at threads 1/2/3/8 — including shapes that
  // cross KC/MC/NC block boundaries and the epilogue variants.
  std::vector<GemmShape> shapes = OddTailShapes();
  const std::vector<GemmShape> crossing = BlockCrossingShapes();
  shapes.insert(shapes.end(), crossing.begin(), crossing.end());

  for (const GemmShape& s : shapes) {
    Rng rng(5000 + s.m * 13 + s.n * 7 + s.k);
    std::vector<float> a(s.m * s.k), b(s.k * s.n), a_t(s.k * s.m),
        b_t(s.n * s.k), row_bias(s.m);
    FillGaussian(a, rng);
    FillGaussian(b, rng);
    FillGaussian(a_t, rng);
    FillGaussian(b_t, rng);
    FillGaussian(row_bias, rng);

    GemmEpilogue epi;
    epi.accumulate = false;
    epi.row_bias = row_bias.data();
    epi.negative_slope = 0.1F;

    using Runner = void (*)(const GemmShape&, const float*, const float*,
                            const float*, const GemmEpilogue&, float*);
    static constexpr Runner runners[] = {
        [](const GemmShape& s2, const float* pa, const float*,
           const float* pb, const GemmEpilogue&, float* c) {
          GemmFast(s2.m, s2.n, s2.k, pa, pb, c);
        },
        [](const GemmShape& s2, const float*, const float* pat,
           const float* pb, const GemmEpilogue&, float* c) {
          GemmTransAFast(s2.m, s2.n, s2.k, pat, pb, c);
        },
        [](const GemmShape& s2, const float* pa, const float* pbt,
           const float*, const GemmEpilogue&, float* c) {
          GemmTransBFast(s2.m, s2.n, s2.k, pa, pbt, c);
        },
        [](const GemmShape& s2, const float* pa, const float*,
           const float* pb, const GemmEpilogue& e, float* c) {
          GemmExFast(s2.m, s2.n, s2.k, pa, pb, c, e);
        },
    };
    const float* operands[][3] = {
        {a.data(), nullptr, b.data()},
        {nullptr, a_t.data(), b.data()},
        {a.data(), b_t.data(), nullptr},
        {a.data(), nullptr, b.data()},
    };

    std::vector<float> serial(s.m * s.n), parallel(s.m * s.n);
    for (std::size_t r = 0; r < 4; ++r) {
      {
        util::ScopedThreads one(1);
        std::fill(serial.begin(), serial.end(), 0.25F);
        runners[r](s, operands[r][0], operands[r][1], operands[r][2], epi,
                   serial.data());
      }
      for (unsigned threads : {2U, 3U, 8U}) {
        util::ScopedThreads many(threads);
        std::fill(parallel.begin(), parallel.end(), 0.25F);
        runners[r](s, operands[r][0], operands[r][1], operands[r][2], epi,
                   parallel.data());
        ASSERT_EQ(0, std::memcmp(serial.data(), parallel.data(),
                                 serial.size() * sizeof(float)))
            << "runner=" << r << " m=" << s.m << " n=" << s.n
            << " k=" << s.k << " threads=" << threads;
      }
    }
  }
}

TEST(GemmDeterminismTest, ConvGemmBatchedBitIdenticalAcrossThreadCounts) {
  constexpr std::size_t m = 13, n = 37, k = 45;
  constexpr int batch = 7;
  Rng rng(99);
  std::vector<float> w(m * k), col(k * batch * n), bias(m);
  FillGaussian(w, rng);
  FillGaussian(col, rng);
  FillGaussian(bias, rng);

  std::vector<float> serial(static_cast<std::size_t>(batch) * m * n);
  {
    util::ScopedThreads one(1);
    ConvGemmBatchedFast(m, n, k, batch, w.data(), col.data(), bias.data(),
                        0.1F, serial.data());
  }
  std::vector<float> parallel(serial.size());
  for (unsigned threads : {2U, 3U, 8U}) {
    util::ScopedThreads many(threads);
    ConvGemmBatchedFast(m, n, k, batch, w.data(), col.data(), bias.data(),
                        0.1F, parallel.data());
    ASSERT_EQ(0, std::memcmp(serial.data(), parallel.data(),
                             serial.size() * sizeof(float)))
        << "threads=" << threads;
  }
}

/// Reference for the batched conv forward: one wide GemmExFast over
/// the whole lowering (the tiled core on every shape the small-filter
/// path serves), scattered into the sample planes.
std::vector<float> WideConvReference(std::size_t m, std::size_t n,
                                     std::size_t k, int batch,
                                     const std::vector<float>& w,
                                     const std::vector<float>& col,
                                     const std::vector<float>& bias) {
  const std::size_t wn = static_cast<std::size_t>(batch) * n;
  std::vector<float> wide(m * wn);
  GemmEpilogue epi;
  epi.accumulate = false;
  epi.row_bias = bias.data();
  epi.negative_slope = 0.1F;
  GemmExFast(m, wn, k, w.data(), col.data(), wide.data(), epi);
  std::vector<float> planes(wide.size());
  for (int s = 0; s < batch; ++s) {
    for (std::size_t i = 0; i < m; ++i) {
      std::memcpy(&planes[(static_cast<std::size_t>(s) * m + i) * n],
                  &wide[i * wn + static_cast<std::size_t>(s) * n],
                  n * sizeof(float));
    }
  }
  return planes;
}

TEST(GemmDeterminismTest, SmallFilterConvMatchesTiledCoreBitForBit) {
  // Single-sample small-filter forwards skip both packs; every output
  // element must keep the tiled core's bits, at every thread count.
  // m=16, n=784, k=256, batch=1 is above the 2^21-MAC pool gate, so its
  // column blocks fan out.  Batches of 3 and 8 and n=9 (under one tile)
  // stay on the wide tiled core; n=271 ends in a 143-column block with
  // an overlapping last tile.
  for (std::size_t m : {1, 3, 4, 5, 8, 10, 16}) {
    for (std::size_t n : {9, 16, 17, 49, 196, 271, 784}) {
      for (std::size_t k : {8, 27, 72, 256}) {
        for (int batch : {1, 3, 8}) {
          Rng rng(m * 1000003 + n * 1009 + k * 31 + batch);
          std::vector<float> w(m * k), col(k * batch * n), bias(m);
          FillGaussian(w, rng);
          FillGaussian(col, rng);
          FillGaussian(bias, rng);
          const std::vector<float> expected =
              WideConvReference(m, n, k, batch, w, col, bias);
          for (unsigned threads : {1U, 4U}) {
            util::ScopedThreads scoped(threads);
            std::vector<float> got(expected.size(), -7.0F);
            ConvGemmBatchedFast(m, n, k, batch, w.data(), col.data(),
                                bias.data(), 0.1F, got.data());
            ASSERT_EQ(0, std::memcmp(got.data(), expected.data(),
                                     got.size() * sizeof(float)))
                << "m=" << m << " n=" << n << " k=" << k
                << " batch=" << batch << " threads=" << threads;
          }
        }
      }
    }
  }
}

TEST(GemmDeterminismTest, SmallFilterConvKeepsSpecialValuesBitForBit) {
  // One sample, on the direct kernel, with an overlapping last tile.
  constexpr std::size_t m = 8, n = 196, k = 27;
  constexpr int batch = 1;
  const float inf = std::numeric_limits<float>::infinity();
  const float specials[] = {std::numeric_limits<float>::quiet_NaN(), -0.0F,
                            inf, -inf};
  Rng rng(4242);
  std::vector<float> w(m * k), col(k * batch * n), bias(m);
  FillGaussian(w, rng);
  FillGaussian(col, rng);
  FillGaussian(bias, rng);
  for (std::size_t i = 0; i < col.size(); i += 37) col[i] = specials[i % 4];
  for (std::size_t i = 5; i < w.size(); i += 41) w[i] = specials[i % 4];
  bias[2] = -0.0F;
  const std::vector<float> expected =
      WideConvReference(m, n, k, batch, w, col, bias);
  for (unsigned threads : {1U, 4U}) {
    util::ScopedThreads scoped(threads);
    std::vector<float> got(expected.size(), -7.0F);
    ConvGemmBatchedFast(m, n, k, batch, w.data(), col.data(), bias.data(),
                        0.1F, got.data());
    ASSERT_EQ(0, std::memcmp(got.data(), expected.data(),
                             got.size() * sizeof(float)))
        << "threads=" << threads;
  }
}

TEST(GemmDeterminismTest, BatchedIm2ColMatchesPerSample) {
  // The wide batched im2col must be a pure re-layout of the per-sample
  // im2col (exact equality), at every thread count.
  constexpr int channels = 3, height = 9, width = 7, ksize = 3, stride = 1,
                pad = 1, batch = 4;
  const int out_h = height, out_w = width;
  const std::size_t out_hw = static_cast<std::size_t>(out_h) * out_w;
  const std::size_t rows = static_cast<std::size_t>(channels) * ksize * ksize;
  const std::size_t sample = static_cast<std::size_t>(channels) * height *
                             width;

  Rng rng(17);
  std::vector<float> in(sample * batch);
  FillGaussian(in, rng);

  std::vector<float> per_sample(rows * out_hw);
  std::vector<float> wide(rows * out_hw * batch);
  for (unsigned threads : {1U, 3U}) {
    util::ScopedThreads guard(threads);
    Im2ColBatch(in.data(), sample, batch, channels, height, width, ksize,
                stride, pad, wide.data());
    for (int s = 0; s < batch; ++s) {
      Im2ColBatch(in.data() + static_cast<std::size_t>(s) * sample, sample,
                  1, channels, height, width, ksize, stride, pad,
                  per_sample.data());
      for (std::size_t r = 0; r < rows; ++r) {
        ASSERT_EQ(0,
                  std::memcmp(per_sample.data() + r * out_hw,
                              wide.data() + r * out_hw * batch +
                                  static_cast<std::size_t>(s) * out_hw,
                              out_hw * sizeof(float)))
            << "threads=" << threads << " s=" << s << " row=" << r;
      }
    }
  }
}

TEST(GemmDeterminismTest, BatchedCol2ImMatchesPerSample) {
  constexpr int channels = 5, height = 8, width = 6, ksize = 3, stride = 1,
                pad = 1, batch = 3;
  const int out_h = height, out_w = width;
  const std::size_t out_hw = static_cast<std::size_t>(out_h) * out_w;
  const std::size_t rows = static_cast<std::size_t>(channels) * ksize * ksize;
  const std::size_t sample = static_cast<std::size_t>(channels) * height *
                             width;

  Rng rng(23);
  std::vector<float> wide(rows * out_hw * batch);
  FillGaussian(wide, rng);

  // Per-sample reference: copy each sample's columns out of the wide
  // buffer and scatter it as a batch of one.
  std::vector<float> expected(sample * batch, 0.0F);
  std::vector<float> col(rows * out_hw);
  for (int s = 0; s < batch; ++s) {
    for (std::size_t r = 0; r < rows; ++r) {
      std::memcpy(col.data() + r * out_hw,
                  wide.data() + r * out_hw * batch +
                      static_cast<std::size_t>(s) * out_hw,
                  out_hw * sizeof(float));
    }
    Col2ImBatch(col.data(), 1, channels, height, width, ksize, stride, pad,
                expected.data() + static_cast<std::size_t>(s) * sample,
                sample);
  }

  std::vector<float> got(sample * batch);
  for (unsigned threads : {1U, 2U, 8U}) {
    util::ScopedThreads guard(threads);
    std::fill(got.begin(), got.end(), 0.0F);
    Col2ImBatch(wide.data(), batch, channels, height, width, ksize, stride,
                pad, got.data(), sample);
    ASSERT_EQ(0, std::memcmp(expected.data(), got.data(),
                             got.size() * sizeof(float)))
        << "threads=" << threads;
  }
}

}  // namespace
}  // namespace caltrain::nn
