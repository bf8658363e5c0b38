// GEMM substrate parity suite (PR 3).
//
// The Fast profile routes non-trivial shapes through the cache-blocked
// register-tiled core (gemm_tile.inc); Precise runs strict-FP register
// tiles with the serial loops' bits (pinned by the Precise* cases at the
// end).  These tests pin the contracts both must keep:
//  * parity — tiled Fast results match the Precise reference within a
//    k-scaled tolerance across odd/tail shapes (every m, n, k
//    combination of {1, 3, 5, 17, 33, 63} plus block-boundary shapes
//    that cross the KC/MC/NC plan), for all three storage orders and
//    the epilogue variants;
//  * determinism — Fast results (tiled or fallback, epilogue or not,
//    batched conv included) are bit-identical at threads 1/2/3/8.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
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

// ---- Strict-FP Precise tiles ---------------------------------------
// The Precise kernels run register tiles (per ISA tier: up to 8 rows x
// 32 columns for the AXPY forms, 8 rows of A x 8 outputs for the dot
// form) but must keep the serial loops' exact chain per output.  The
// references below are those loops (this file is built with
// -ffp-contract=off, like the Precise kernels, so no build contracts
// them), and the Precise outputs must match them bit for bit.

/// Epilogue seed of C(i, j), then C += A(i, p) * B(p, j) for p
/// ascending, then the leaky slope.  A(i, p) at a[i*a_rs + p*a_cs].
void ReferenceAxpy(std::size_t m, std::size_t n, std::size_t k,
                   const float* a, std::size_t a_rs, std::size_t a_cs,
                   const float* b, std::size_t ldb, float* c,
                   std::size_t ldc, const GemmEpilogue& e) {
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      float v = e.accumulate ? c[i * ldc + j] : 0.0F;
      if (e.row_bias != nullptr) {
        v = e.accumulate ? v + e.row_bias[i] : e.row_bias[i];
      }
      if (e.col_bias != nullptr) v += e.col_bias[j];
      for (std::size_t p = 0; p < k; ++p) {
        v += a[i * a_rs + p * a_cs] * b[p * ldb + j];
      }
      if (e.negative_slope != 1.0F && v < 0.0F) v *= e.negative_slope;
      c[i * ldc + j] = v;
    }
  }
}

/// Epilogue seed of C(i, j) plus the dot of A row i and B row j (a sum
/// from 0 over p ascending), then the leaky slope.
void ReferenceDot(std::size_t m, std::size_t n, std::size_t k,
                  const float* a, std::size_t lda, const float* b,
                  std::size_t ldb, float* c, std::size_t ldc,
                  const GemmEpilogue& e) {
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      float v = e.accumulate ? c[i * ldc + j] : 0.0F;
      if (e.row_bias != nullptr) {
        v = e.accumulate ? v + e.row_bias[i] : e.row_bias[i];
      }
      if (e.col_bias != nullptr) v += e.col_bias[j];
      float sum = 0.0F;
      for (std::size_t p = 0; p < k; ++p) {
        sum += a[i * lda + p] * b[j * ldb + p];
      }
      v += sum;
      if (e.negative_slope != 1.0F && v < 0.0F) v *= e.negative_slope;
      c[i * ldc + j] = v;
    }
  }
}

/// Overwrite / accumulate, with and without row and column biases, at
/// slopes 0.1 and 1.
std::vector<GemmEpilogue> EpilogueVariants(const float* row_bias,
                                           const float* col_bias) {
  std::vector<GemmEpilogue> out;
  for (bool accumulate : {false, true}) {
    for (int bias = 0; bias < 4; ++bias) {
      for (float slope : {0.1F, 1.0F}) {
        GemmEpilogue e;
        e.accumulate = accumulate;
        e.row_bias = (bias & 1) != 0 ? row_bias : nullptr;
        e.col_bias = (bias & 2) != 0 ? col_bias : nullptr;
        e.negative_slope = slope;
        out.push_back(e);
      }
    }
  }
  return out;
}

/// Checks GemmEx / TransAEx / TransBEx Precise against the references
/// on one shape, every epilogue variant.
void ExpectPreciseFormsMatchReference(std::size_t m, std::size_t n,
                                      std::size_t k,
                                      const std::vector<float>& a,
                                      const std::vector<float>& b,
                                      const std::vector<float>& c0,
                                      const std::vector<float>& row_bias,
                                      const std::vector<float>& col_bias) {
  for (const GemmEpilogue& e :
       EpilogueVariants(row_bias.data(), col_bias.data())) {
    SCOPED_TRACE(::testing::Message()
                 << "m=" << m << " n=" << n << " k=" << k
                 << " accumulate=" << e.accumulate
                 << " row_bias=" << (e.row_bias != nullptr)
                 << " col_bias=" << (e.col_bias != nullptr)
                 << " slope=" << e.negative_slope);
    std::vector<float> want = c0, got = c0;
    ReferenceAxpy(m, n, k, a.data(), k, 1, b.data(), n, want.data(), n, e);
    GemmExPrecise(m, n, k, a.data(), b.data(), got.data(), e);
    ASSERT_EQ(0, std::memcmp(want.data(), got.data(), want.size() * 4))
        << "GemmEx";
    want = c0;
    got = c0;
    ReferenceAxpy(m, n, k, a.data(), 1, m, b.data(), n, want.data(), n, e);
    GemmTransAExPrecise(m, n, k, a.data(), b.data(), got.data(), e);
    ASSERT_EQ(0, std::memcmp(want.data(), got.data(), want.size() * 4))
        << "GemmTransAEx";
    want = c0;
    got = c0;
    ReferenceDot(m, n, k, a.data(), k, b.data(), k, want.data(), n, e);
    GemmTransBExPrecise(m, n, k, a.data(), b.data(), got.data(), e);
    ASSERT_EQ(0, std::memcmp(want.data(), got.data(), want.size() * 4))
        << "GemmTransBEx";
  }
}

TEST(GemmDeterminismTest, PreciseTilesMatchSerialLoopsBitForBit) {
  // m, n and k below, at and across every tier's tile sizes (AXPY rows
  // 4 / 8, columns 4 / 8 / 16 / 32 and their doubles; dot lanes 4 / 8,
  // outputs 8), so every full tile, row tail, column tail and staged
  // remainder runs.  The n x k operand is sized for both B layouts.
  for (std::size_t m : {1, 3, 4, 5, 8, 9, 12, 17}) {
    for (std::size_t n : {1, 3, 4, 7, 8, 9, 16, 17, 31, 32, 33, 49, 65}) {
      for (std::size_t k : {0, 1, 2, 7, 27}) {
        Rng rng(m * 7919 + n * 104729 + k);
        std::vector<float> a(std::max(m, k) * std::max(m, k) + 1),
            b(n * k + 1), c0(m * n), row_bias(m), col_bias(n);
        FillGaussian(a, rng);
        FillGaussian(b, rng);
        FillGaussian(c0, rng);
        FillGaussian(row_bias, rng);
        FillGaussian(col_bias, rng);
        ExpectPreciseFormsMatchReference(m, n, k, a, b, c0, row_bias,
                                         col_bias);
        if (HasFatalFailure()) return;
      }
    }
  }
}

TEST(GemmDeterminismTest, PreciseTilesKeepSpecialValuesBitForBit) {
  // NaN, -0.0 and +-inf in A, B, C and both biases of one shape with
  // full and tail tiles in every tier.
  constexpr std::size_t m = 9, n = 37, k = 11;
  const float inf = std::numeric_limits<float>::infinity();
  const float specials[] = {std::numeric_limits<float>::quiet_NaN(), -0.0F,
                            inf, -inf};
  Rng rng(777);
  std::vector<float> a(m * k + k * m), b(n * k), c0(m * n), row_bias(m),
      col_bias(n);
  FillGaussian(a, rng);
  FillGaussian(b, rng);
  FillGaussian(c0, rng);
  FillGaussian(row_bias, rng);
  FillGaussian(col_bias, rng);
  for (std::size_t i = 3; i < a.size(); i += 29) a[i] = specials[i % 4];
  for (std::size_t i = 0; i < b.size(); i += 31) b[i] = specials[i % 4];
  for (std::size_t i = 1; i < c0.size(); i += 23) c0[i] = specials[i % 4];
  row_bias[4] = -0.0F;
  col_bias[5] = -0.0F;
  col_bias[20] = std::numeric_limits<float>::quiet_NaN();
  ExpectPreciseFormsMatchReference(m, n, k, a, b, c0, row_bias, col_bias);
}

TEST(GemmDeterminismTest, PreciseConvGemmsMatchSerialLoopsBitForBit) {
  // The conv entry points address one sample inside the wide buffers
  // (B and C rows batch*n apart, n < the stride).  Forward: overwrite,
  // row bias, slope 0.1.  Backward: the weight gradients accumulate
  // sample by sample, col_delta is overwritten.
  for (std::size_t n : {49, 196}) {
    for (int batch : {1, 3, 4}) {
      constexpr std::size_t m = 8, k = 27;
      const std::size_t wn = static_cast<std::size_t>(batch) * n;
      Rng rng(n * 31 + static_cast<std::size_t>(batch));
      std::vector<float> w(m * k), col(k * wn), bias(m), delta(m * wn),
          dw0(m * k);
      FillGaussian(w, rng);
      FillGaussian(col, rng);
      FillGaussian(bias, rng);
      FillGaussian(delta, rng);
      FillGaussian(dw0, rng);

      std::vector<float> out_ref(m * wn), dw_ref = dw0, cd_ref(k * wn);
      GemmEpilogue fwd;
      fwd.accumulate = false;
      fwd.row_bias = bias.data();
      fwd.negative_slope = 0.1F;
      GemmEpilogue overwrite;
      overwrite.accumulate = false;
      for (int s = 0; s < batch; ++s) {
        const std::size_t off = static_cast<std::size_t>(s) * n;
        ReferenceAxpy(m, n, k, w.data(), k, 1, col.data() + off, wn,
                      out_ref.data() + off * m, n, fwd);
        ReferenceDot(m, k, n, delta.data() + off, wn, col.data() + off, wn,
                     dw_ref.data(), k, GemmEpilogue{});
        ReferenceAxpy(k, n, m, w.data(), 1, k, delta.data() + off, wn,
                      cd_ref.data() + off, wn, overwrite);
      }
      for (unsigned threads : {1U, 4U}) {
        util::ScopedThreads scoped(threads);
        std::vector<float> out(m * wn, -7.0F), dw = dw0, cd(k * wn, -7.0F);
        ConvGemmBatchedPrecise(m, n, k, batch, w.data(), col.data(),
                               bias.data(), 0.1F, out.data());
        ConvGemmBackwardPrecise(m, n, k, batch, w.data(), delta.data(),
                                col.data(), dw.data(), cd.data());
        SCOPED_TRACE(::testing::Message() << "n=" << n << " batch=" << batch
                                          << " threads=" << threads);
        ASSERT_EQ(0, std::memcmp(out.data(), out_ref.data(), out.size() * 4))
            << "forward";
        ASSERT_EQ(0, std::memcmp(dw.data(), dw_ref.data(), dw.size() * 4))
            << "weight grads";
        ASSERT_EQ(0, std::memcmp(cd.data(), cd_ref.data(), cd.size() * 4))
            << "col_delta";
      }
    }
  }
}

/// FNV-1a over the bytes of `v`, folded into `h`.
void HashFloats(const std::vector<float>& v, std::uint64_t& h) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(v.data());
  for (std::size_t i = 0; i < v.size() * sizeof(float); ++i) {
    h = (h ^ bytes[i]) * 1099511628211ULL;
  }
}

void FillUniform(std::vector<float>& v, Rng& rng) {
  for (float& x : v) x = rng.UniformFloat(-1.0F, 1.0F);
}

TEST(GemmDeterminismTest, PreciseOutputsMatchGoldenHash) {
  // The Precise bits are fixed on every host and build: strict IEEE
  // float, no contraction.  The constant was recorded from the portable
  // build of the serial-loop Precise kernels.  A build that fuses
  // `acc + a * b` into an FMA (say -march=native without
  // -ffp-contract=off on gemm_precise.cpp) or reorders a sum fails here.
  std::uint64_t h = 14695981039346656037ULL;
  const GemmShape shapes[] = {
      {1, 1, 1}, {5, 17, 3}, {8, 49, 36}, {13, 70, 27}, {33, 100, 72}};
  for (const GemmShape& s : shapes) {
    Rng rng(s.m * 1000 + s.n * 10 + s.k);
    std::vector<float> a(s.m * s.k), b(s.k * s.n), c0(s.m * s.n),
        row_bias(s.m), col_bias(s.n);
    FillUniform(a, rng);
    FillUniform(b, rng);
    FillUniform(c0, rng);
    FillUniform(row_bias, rng);
    FillUniform(col_bias, rng);
    for (const GemmEpilogue& e :
         EpilogueVariants(row_bias.data(), col_bias.data())) {
      std::vector<float> c = c0;
      GemmExPrecise(s.m, s.n, s.k, a.data(), b.data(), c.data(), e);
      HashFloats(c, h);
      c = c0;
      GemmTransAExPrecise(s.m, s.n, s.k, a.data(), b.data(), c.data(), e);
      HashFloats(c, h);
      c = c0;
      GemmTransBExPrecise(s.m, s.n, s.k, a.data(), b.data(), c.data(), e);
      HashFloats(c, h);
    }
  }
  // One conv forward and one backward pass over a 4-sample block.
  constexpr std::size_t m = 8, n = 196, k = 72;
  constexpr int batch = 4;
  const std::size_t wn = batch * n;
  Rng rng(2026);
  std::vector<float> w(m * k), col(k * wn), bias(m), delta(m * wn),
      dw(m * k), out(m * wn), cd(k * wn);
  FillUniform(w, rng);
  FillUniform(col, rng);
  FillUniform(bias, rng);
  FillUniform(delta, rng);
  FillUniform(dw, rng);
  ConvGemmBatchedPrecise(m, n, k, batch, w.data(), col.data(), bias.data(),
                         0.1F, out.data());
  ConvGemmBackwardPrecise(m, n, k, batch, w.data(), delta.data(), col.data(),
                          dw.data(), cd.data());
  HashFloats(out, h);
  HashFloats(dw, h);
  HashFloats(cd, h);
  EXPECT_EQ(h, 0x4f8093647ecc7bc5ULL);
}

}  // namespace
}  // namespace caltrain::nn
