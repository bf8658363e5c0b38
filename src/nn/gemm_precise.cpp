// Strict-FP GEMM build modeling in-enclave execution; see kernels.hpp.
// Every output keeps the chain of the serial reference loops:
//   AXPY forms (Gemm, TransA, conv forward and col_delta):
//     c = seed(i, j); for p = 0..k-1: c = c + a(i,p) * b(p,j); act(c)
//   dot form (TransB, conv weight gradients):
//     s = 0; for p = 0..k-1: s = s + a(i,p) * b(j,p); act(seed(i,j) + s)
// seed(i, j) = (accumulate ? C : 0) + row bias + col bias in that order
// (an overwrite with a row bias starts from the bias itself); act is
// the leaky slope.  One register-tiled AXPY body runs both forms, vector
// lanes over independent outputs, never over p.
#include <algorithm>
#include <cstddef>
#include <cstring>
#include <vector>

#include "nn/kernels.hpp"

namespace caltrain::nn {
namespace {

// 4-, 8- and 16-float vectors (one xmm / ymm / zmm where the ISA has
// it).  aligned(4): loads and stores go to arbitrary float addresses.
typedef float Vec4 __attribute__((vector_size(16), aligned(4)));
typedef float Vec8 __attribute__((vector_size(32), aligned(4)));
typedef float Vec16 __attribute__((vector_size(64), aligned(4)));

// Everything below a tier's entry point inlines into it, so it is
// compiled for that tier's ISA.  Vectors pass by reference: by value, a
// vector wider than the baseline ISA's changes the ABI (-Wpsabi).
#define CALTRAIN_STRICT_INLINE [[gnu::always_inline]] inline

template <typename Vec>
CALTRAIN_STRICT_INLINE void Load(const float* p, Vec& v) {
  std::memcpy(&v, p, sizeof v);
}

/// Per-thread packing buffers, sticky capacity.
enum Slot { kTransposedA, kDotSums, kSlots };
float* Scratch(Slot slot, std::size_t floats) {
  thread_local std::vector<float> bufs[kSlots];
  if (bufs[slot].size() < floats) bufs[slot].resize(floats);
  return bufs[slot].data();
}

/// seed(i, j), reading C(i, j) at `c` only when accumulating.
CALTRAIN_STRICT_INLINE float Seed(const GemmEpilogue& e, std::size_t i,
                                  std::size_t j, const float* c) {
  float v = e.accumulate ? *c : 0.0F;
  if (e.row_bias != nullptr) {
    v = e.accumulate ? v + e.row_bias[i] : e.row_bias[i];
  }
  return e.col_bias != nullptr ? v + e.col_bias[j] : v;
}

CALTRAIN_STRICT_INLINE float Act(const GemmEpilogue& e, float v) {
  return e.negative_slope != 1.0F && v < 0.0F ? v * e.negative_slope : v;
}

/// C[m x n] = epi(A * B): A(i, p) at a[i*a_rs + p*a_cs], B row p at
/// b + p*ldb, C row i at c + i*ldc.
struct Axpy {
  std::size_t m, n, k;
  const float* a;
  std::size_t a_rs, a_cs;
  const float* b;
  std::size_t ldb;
  float* c;
  std::size_t ldc;
  GemmEpilogue epi;
};

/// Rows [i0, i0+R) x columns [j, j + V*L): the seeds, the p chains in
/// registers, the activation, the store.
template <typename Vec, std::size_t R, std::size_t V>
CALTRAIN_STRICT_INLINE void AxpyTile(const Axpy& d, std::size_t i0,
                                     std::size_t j) {
  constexpr std::size_t L = sizeof(Vec) / sizeof(float);
  // Local copies: stores through `c` could alias `d`, forcing reloads.
  const GemmEpilogue e = d.epi;
  const std::size_t ldc = d.ldc;
  float* c = d.c + i0 * ldc + j;
  Vec acc[R][V] = {};
#pragma GCC unroll 16
  for (std::size_t r = 0; r < R; ++r) {
    const float rb = e.row_bias != nullptr ? e.row_bias[i0 + r] : 0.0F;
#pragma GCC unroll 16
    for (std::size_t v = 0; v < V; ++v) {
      if (e.accumulate) {
        Load(c + r * ldc + v * L, acc[r][v]);
        if (e.row_bias != nullptr) acc[r][v] += rb;
      } else {
        acc[r][v] = rb - Vec{};  // rb - (+0) is rb, -0 included
      }
      if (e.col_bias != nullptr) {
        Vec cb;
        Load(e.col_bias + j + v * L, cb);
        acc[r][v] += cb;
      }
    }
  }
  for (std::size_t p = 0; p < d.k; ++p) {
    const float* bp = d.b + p * d.ldb + j;
    Vec bv[V];
    for (std::size_t v = 0; v < V; ++v) Load(bp + v * L, bv[v]);
    const float* ap = d.a + i0 * d.a_rs + p * d.a_cs;
    for (std::size_t r = 0; r < R; ++r) {
      const float av = ap[r * d.a_rs];
      for (std::size_t v = 0; v < V; ++v) acc[r][v] += av * bv[v];
    }
  }
#pragma GCC unroll 16
  for (std::size_t r = 0; r < R; ++r) {
#pragma GCC unroll 16
    for (std::size_t v = 0; v < V; ++v) {
      if (e.negative_slope != 1.0F) {
        acc[r][v] = acc[r][v] < 0.0F ? acc[r][v] * e.negative_slope
                                     : acc[r][v];
      }
      std::memcpy(c + r * ldc + v * L, &acc[r][v], sizeof(Vec));
    }
  }
}

/// Columns [j, n) of rows [i0, i0+R): tiles of V vectors, then of one,
/// then of 4 lanes, then the last n % 4 columns one at a time (R
/// independent scalar chains).
template <typename Vec, std::size_t R, std::size_t V>
CALTRAIN_STRICT_INLINE void AxpyColumns(const Axpy& d, std::size_t i0,
                                        std::size_t j) {
  constexpr std::size_t L = sizeof(Vec) / sizeof(float);
  for (; j + V * L <= d.n; j += V * L) AxpyTile<Vec, R, V>(d, i0, j);
  if constexpr (V > 1) {
    AxpyColumns<Vec, R, V - 1>(d, i0, j);
  } else if constexpr (L > 4) {
    AxpyColumns<Vec4, R, 1>(d, i0, j);
  } else {
    for (float* c = d.c + i0 * d.ldc; j < d.n; ++j) {
      float v[R];
      for (std::size_t r = 0; r < R; ++r) {
        v[r] = Seed(d.epi, i0 + r, j, c + r * d.ldc + j);
      }
      for (std::size_t p = 0; p < d.k; ++p) {
        const float* ap = d.a + i0 * d.a_rs + p * d.a_cs;
        for (std::size_t r = 0; r < R; ++r) {
          v[r] += ap[r * d.a_rs] * d.b[p * d.ldb + j];
        }
      }
      for (std::size_t r = 0; r < R; ++r) c[r * d.ldc + j] = Act(d.epi, v[r]);
    }
  }
}

/// `rows` <= R rows from i0, as tiles of exactly `rows` rows.
template <typename Vec, std::size_t R, std::size_t V>
CALTRAIN_STRICT_INLINE void AxpyRows(const Axpy& d, std::size_t i0,
                                     std::size_t rows) {
  if constexpr (R > 1) {
    if (rows < R) return AxpyRows<Vec, R - 1, V>(d, i0, rows);
  }
  AxpyColumns<Vec, R, V>(d, i0, 0);
}

template <typename Vec, std::size_t R, std::size_t V>
CALTRAIN_STRICT_INLINE void AxpyBody(const Axpy& d) {
  for (std::size_t i0 = 0; i0 < d.m; i0 += R) {
    AxpyRows<Vec, R, V>(d, i0, std::min(R, d.m - i0));
  }
}

// One AXPY body per ISA tier, its tile sized to the tier's vector
// registers so no accumulator spills: 8 x 32 (16 zmm) on AVX-512, 4 x 16
// (8 ymm) on AVX2, 4 x 8 (8 xmm) on the baseline.  Outputs under 16
// columns wide (dot sums over a few rows of A) run 8 x 8 tiles (8 ymm)
// on AVX-512 instead of half-empty zmm ones.
void AxpyBase(const Axpy& d) { AxpyBody<Vec4, 4, 2>(d); }
#if defined(__x86_64__)
[[gnu::target("avx512f,avx512vl")]] void AxpyAvx512(const Axpy& d) {
  AxpyBody<Vec16, 8, 2>(d);
}
[[gnu::target("avx512f,avx512vl")]] void AxpyAvx512Narrow(const Axpy& d) {
  AxpyBody<Vec8, 8, 1>(d);
}
[[gnu::target("avx2")]] void AxpyAvx2(const Axpy& d) {
  AxpyBody<Vec8, 4, 2>(d);
}
#endif

struct Bodies {
  void (*wide)(const Axpy&);
  void (*narrow)(const Axpy&);
};

/// Runs `d` on the widest tier this CPU has, chosen once.  Every tier
/// and tile computes the same bits; only the speed differs.
void RunAxpy(const Axpy& d) {
  static const Bodies bodies = [] {
#if defined(__x86_64__)
    if (__builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("avx512vl")) {
      return Bodies{&AxpyAvx512, &AxpyAvx512Narrow};
    }
    if (__builtin_cpu_supports("avx2")) return Bodies{&AxpyAvx2, &AxpyAvx2};
#endif
    return Bodies{&AxpyBase, &AxpyBase};
  }();
  (d.n < 16 ? bodies.narrow : bodies.wide)(d);
}

/// C[m x n] = epi(A * B^T): A row i at a + i*lda, B row j at b + j*ldb,
/// C row i at c + i*ldc.  The dot products S(j, i) run as one AXPY
/// (seed 0) over A^T packed [k x m], lanes over rows of A; each sum is
/// then added to its seeded output once.
void RunDot(std::size_t m, std::size_t n, std::size_t k, const float* a,
            std::size_t lda, const float* b, std::size_t ldb, float* c,
            std::size_t ldc, const GemmEpilogue& e) {
  float* at = Scratch(kTransposedA, k * m);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t p = 0; p < k; ++p) at[p * m + i] = a[i * lda + p];
  }
  float* sums = Scratch(kDotSums, n * m);
  GemmEpilogue zero;
  zero.accumulate = false;
  RunAxpy(Axpy{n, m, k, b, ldb, 1, at, m, sums, m, zero});
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      float* cij = c + i * ldc + j;
      *cij = Act(e, Seed(e, i, j, cij) + sums[j * m + i]);
    }
  }
}

}  // namespace

void GemmExPrecise(std::size_t m, std::size_t n, std::size_t k,
                   const float* a, const float* b, float* c,
                   const GemmEpilogue& epi) noexcept {
  RunAxpy(Axpy{m, n, k, a, k, 1, b, n, c, n, epi});
}

void GemmTransAExPrecise(std::size_t m, std::size_t n, std::size_t k,
                         const float* a, const float* b, float* c,
                         const GemmEpilogue& epi) noexcept {
  RunAxpy(Axpy{m, n, k, a, 1, m, b, n, c, n, epi});  // A is [k x m]
}

void GemmTransBExPrecise(std::size_t m, std::size_t n, std::size_t k,
                         const float* a, const float* b, float* c,
                         const GemmEpilogue& epi) noexcept {
  RunDot(m, n, k, a, k, b, k, c, n, epi);
}

void GemmPrecise(std::size_t m, std::size_t n, std::size_t k, const float* a,
                 const float* b, float* c) noexcept {
  GemmExPrecise(m, n, k, a, b, c, GemmEpilogue{});
}

void GemmTransAPrecise(std::size_t m, std::size_t n, std::size_t k,
                       const float* a, const float* b, float* c) noexcept {
  GemmTransAExPrecise(m, n, k, a, b, c, GemmEpilogue{});
}

void GemmTransBPrecise(std::size_t m, std::size_t n, std::size_t k,
                       const float* a, const float* b, float* c) noexcept {
  GemmTransBExPrecise(m, n, k, a, b, c, GemmEpilogue{});
}

void ConvGemmBatchedPrecise(std::size_t m, std::size_t n, std::size_t k,
                            int batch, const float* weights,
                            const float* col_wide, const float* bias,
                            float negative_slope, float* out) noexcept {
  // Sample by sample over its columns of the wide buffer.
  GemmEpilogue epi;
  epi.accumulate = false;
  epi.row_bias = bias;
  epi.negative_slope = negative_slope;
  const std::size_t wn = static_cast<std::size_t>(batch) * n;
  for (std::size_t s = 0; s < static_cast<std::size_t>(batch); ++s) {
    RunAxpy(Axpy{m, n, k, weights, k, 1, col_wide + s * n, wn,
                 out + s * m * n, n, epi});
  }
}

void ConvGemmBackwardPrecise(std::size_t m, std::size_t n, std::size_t k,
                             int batch, const float* weights,
                             const float* delta_wide, const float* col_wide,
                             float* weight_grads,
                             float* col_delta) noexcept {
  // Sample by sample: dW[m x k] += delta_s * col_s^T, then
  // col_delta_s[k x n] = W^T * delta_s (overwrite).
  const std::size_t wn = static_cast<std::size_t>(batch) * n;
  GemmEpilogue overwrite;
  overwrite.accumulate = false;
  for (std::size_t s = 0; s < static_cast<std::size_t>(batch); ++s) {
    const std::size_t off = s * n;
    RunDot(m, k, n, delta_wide + off, wn, col_wide + off, wn, weight_grads,
           k, GemmEpilogue{});
    if (col_delta != nullptr) {
      RunAxpy(Axpy{k, n, m, weights, 1, k, delta_wide + off, wn,
                   col_delta + off, wn, overwrite});
    }
  }
}

}  // namespace caltrain::nn
