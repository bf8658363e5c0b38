// Fast-math GEMM build; see kernels.hpp.  This translation unit is
// compiled with -O3 -ffast-math (set in CMakeLists.txt).
//
// Public Fast entry points gate on shape: non-trivial GEMMs run the
// cache-blocked register-tiled core (gemm_tile.inc), tiny shapes run
// the naive row-blocked bodies (gemm_body.inc), single-sample
// small-filter conv forwards a pack-free direct kernel.  The gates
// depend only on the shape, so the thread-count bit-identity contract
// holds on every path.
#include "nn/kernels.hpp"

#include "nn/gemm_body.inc"
#include "nn/gemm_tile.inc"

namespace caltrain::nn {

void GemmExFast(std::size_t m, std::size_t n, std::size_t k, const float* a,
                const float* b, float* c, const GemmEpilogue& epi) noexcept {
  if (tiled::UseTiled(m, n, k)) {
    tiled::TiledGemmEx(m, n, k, tiled::Mat{a, k, 1}, tiled::Mat{b, n, 1}, c,
                       /*n_per=*/n, /*sstride=*/0, epi);
    return;
  }
  NaiveGemmEx(m, n, k, a, b, c, epi);
}

void GemmTransAExFast(std::size_t m, std::size_t n, std::size_t k,
                      const float* a, const float* b, float* c,
                      const GemmEpilogue& epi) noexcept {
  if (tiled::UseTiled(m, n, k)) {
    // A stored [k x m]: element (i, p) at a[p*m + i].
    tiled::TiledGemmEx(m, n, k, tiled::Mat{a, 1, m}, tiled::Mat{b, n, 1}, c,
                       n, 0, epi);
    return;
  }
  NaiveGemmTransAEx(m, n, k, a, b, c, epi);
}

void GemmTransBExFast(std::size_t m, std::size_t n, std::size_t k,
                      const float* a, const float* b, float* c,
                      const GemmEpilogue& epi) noexcept {
  if (tiled::UseTiled(m, n, k)) {
    // B stored [n x k]: element (p, j) at b[j*k + p].
    tiled::TiledGemmEx(m, n, k, tiled::Mat{a, k, 1}, tiled::Mat{b, 1, k}, c,
                       n, 0, epi);
    return;
  }
  NaiveGemmTransBEx(m, n, k, a, b, c, epi);
}

void GemmFast(std::size_t m, std::size_t n, std::size_t k, const float* a,
              const float* b, float* c) noexcept {
  GemmExFast(m, n, k, a, b, c, GemmEpilogue{});
}

void GemmTransAFast(std::size_t m, std::size_t n, std::size_t k,
                    const float* a, const float* b, float* c) noexcept {
  GemmTransAExFast(m, n, k, a, b, c, GemmEpilogue{});
}

void GemmTransBFast(std::size_t m, std::size_t n, std::size_t k,
                    const float* a, const float* b, float* c) noexcept {
  GemmTransBExFast(m, n, k, a, b, c, GemmEpilogue{});
}

void ConvGemmBatchedFast(std::size_t m, std::size_t n, std::size_t k,
                         int batch, const float* weights,
                         const float* col_wide, const float* bias,
                         float negative_slope, float* out) noexcept {
  const std::size_t n_total = static_cast<std::size_t>(batch) * n;
  if (batch == 1 && tiled::UseTiled(m, n, k) && m <= tiled::kDirectMaxM &&
      k <= tiled::KC) {
    return tiled::DirectConvForward(m, n, k, weights, col_wide, bias,
                                    negative_slope, out);
  }
  if (tiled::UseTiled(m, n_total, k)) {
    GemmEpilogue epi;
    epi.accumulate = false;
    epi.row_bias = bias;
    epi.negative_slope = negative_slope;
    // One wide GEMM; the store phase scatters columns to sample planes.
    tiled::TiledGemmEx(m, n_total, k, tiled::Mat{weights, k, 1},
                       tiled::Mat{col_wide, n_total, 1}, out,
                       /*n_per=*/n, /*sstride=*/m * n, epi);
    return;
  }
  NaiveConvGemmBatched(m, n, k, batch, weights, col_wide, bias,
                       negative_slope, out);
}

void ConvGemmBackwardFast(std::size_t m, std::size_t n, std::size_t k,
                          int batch, const float* weights,
                          const float* delta_wide, const float* col_wide,
                          float* weight_grads, float* col_delta) noexcept {
  const std::size_t wn = static_cast<std::size_t>(batch) * n;
  // dW[m x k] += delta_wide[m x wn] * col_wide^T (col_wide stored
  // [k x wn]).
  GemmTransBExFast(m, k, wn, delta_wide, col_wide, weight_grads,
                   GemmEpilogue{});
  if (col_delta != nullptr) {
    // col_delta[k x wn] = W^T[k x m] * delta_wide, overwrite mode.
    GemmEpilogue overwrite;
    overwrite.accumulate = false;
    GemmTransAExFast(k, wn, m, weights, delta_wide, col_delta, overwrite);
  }
}

}  // namespace caltrain::nn
