// Compute kernels with two compiled variants.
//
// kFast is built with -O3 -ffast-math and models the ML-accelerated
// path available *outside* an SGX enclave.  kPrecise is built with -O3
// -ffp-contract=off and no fast-math (strict IEEE float: no
// reassociation, no contraction), mirroring the paper's observation
// (Sec. VI-C) that -ffast-math-style floating acceleration is
// ineffective for enclaved code.  Both compute the same GEMM; the
// measured speed difference is what the Fig. 6 benchmark reports as
// in-enclave overhead.
//
// Kernel architecture: the Fast profile routes non-trivial shapes
// through a cache-blocked, register-tiled micro-kernel (gemm_tile.inc)
// — A/B packed into per-thread workspace panels, a 6x16 register tile
// with zero-padded edges, runtime ISA dispatch via target_clones.  The
// Precise profile (gemm_precise.cpp) runs register tiles sized per ISA
// tier, but every output keeps the operation chain of the serial loops,
// so its bits are the same on every ISA, build and thread count.  The
// tiled block plan (KC/MC/NC/MR/NR) is fixed and independent of the
// thread count, and parallel dispatch only ever splits disjoint output
// tiles, so Fast results stay bit-identical at any thread count (the
// PR 2 determinism contract).  Single-sample small-filter conv forwards
// (m <= 16, k <= KC, >= 16 columns) run a pack-free direct kernel that
// shares the tiled core's FMA loop and epilogue, hence its bits.
//
// Conv lowering (kernels_common.cpp) is pure data movement: contiguous
// copies and += runs, bit-identical to the per-element formula.
// Lowerings under 2^18 floats and GEMMs under 2^21 MACs never enter the
// thread pool, so a single-probe forward runs inline.
#pragma once

#include <cstddef>
#include <cstdint>

namespace caltrain::nn {

enum class KernelProfile {
  kFast,     ///< host path (fast-math, vectorizable)
  kPrecise,  ///< in-enclave path (strict FP semantics)
};

/// Optional fused tail applied by the *Ex GEMM entry points.
///
/// Semantics (per output element, after the full k-reduction):
///   base = accumulate ? C_old : 0
///   v    = base + sum_k + row_bias[i] + col_bias[j]
///   C    = (v < 0) ? v * negative_slope : v
/// negative_slope == 1 is the identity activation; 0.1 is the leaky
/// ReLU used by the conv/connected layers.  Null biases contribute 0.
struct GemmEpilogue {
  bool accumulate = true;           ///< false: overwrite C with the result
  const float* row_bias = nullptr;  ///< added to every element of row i
  const float* col_bias = nullptr;  ///< added to every element of col j
  float negative_slope = 1.0F;      ///< leaky-ReLU slope; 1 = identity
};

/// C[m x n] += A[m x k] * B[k x n], row-major, fast-math build.
void GemmFast(std::size_t m, std::size_t n, std::size_t k, const float* a,
              const float* b, float* c) noexcept;

/// Same contract, strict-FP build.
void GemmPrecise(std::size_t m, std::size_t n, std::size_t k, const float* a,
                 const float* b, float* c) noexcept;

/// C[m x n] += A^T[m x k] * B[k x n] where A is stored as [k x m].
void GemmTransAFast(std::size_t m, std::size_t n, std::size_t k,
                    const float* a, const float* b, float* c) noexcept;
void GemmTransAPrecise(std::size_t m, std::size_t n, std::size_t k,
                       const float* a, const float* b, float* c) noexcept;

/// C[m x n] += A[m x k] * B^T[k x n] where B is stored as [n x k].
void GemmTransBFast(std::size_t m, std::size_t n, std::size_t k,
                    const float* a, const float* b, float* c) noexcept;
void GemmTransBPrecise(std::size_t m, std::size_t n, std::size_t k,
                       const float* a, const float* b, float* c) noexcept;

/// Epilogue-fused variants of the three forms above.  With the default
/// epilogue they are exactly the legacy accumulate kernels; with
/// accumulate=false they overwrite C (no caller-side zero fill needed),
/// and bias/activation fold into the final store.
void GemmExFast(std::size_t m, std::size_t n, std::size_t k, const float* a,
                const float* b, float* c, const GemmEpilogue& epi) noexcept;
void GemmExPrecise(std::size_t m, std::size_t n, std::size_t k,
                   const float* a, const float* b, float* c,
                   const GemmEpilogue& epi) noexcept;
void GemmTransAExFast(std::size_t m, std::size_t n, std::size_t k,
                      const float* a, const float* b, float* c,
                      const GemmEpilogue& epi) noexcept;
void GemmTransAExPrecise(std::size_t m, std::size_t n, std::size_t k,
                         const float* a, const float* b, float* c,
                         const GemmEpilogue& epi) noexcept;
void GemmTransBExFast(std::size_t m, std::size_t n, std::size_t k,
                      const float* a, const float* b, float* c,
                      const GemmEpilogue& epi) noexcept;
void GemmTransBExPrecise(std::size_t m, std::size_t n, std::size_t k,
                         const float* a, const float* b, float* c,
                         const GemmEpilogue& epi) noexcept;

/// Batched conv forward GEMM over a block of `batch` samples lowered
/// side by side: col_wide is [k x batch*n] with sample s occupying
/// columns [s*n, (s+1)*n), out is `batch` consecutive sample planes of
/// [m x n] each (the network's batch layout), and for every sample
///   out_s = leaky(weights[m x k] * col_s + bias)   (overwrite).
/// The Fast build runs a pack-free kernel for one sample with m <= 16,
/// else one wide tiled GEMM (same bits); the Precise build runs sample
/// by sample with the chain of the unbatched serial loop.
void ConvGemmBatchedFast(std::size_t m, std::size_t n, std::size_t k,
                         int batch, const float* weights,
                         const float* col_wide, const float* bias,
                         float negative_slope, float* out) noexcept;
void ConvGemmBatchedPrecise(std::size_t m, std::size_t n, std::size_t k,
                            int batch, const float* weights,
                            const float* col_wide, const float* bias,
                            float negative_slope, float* out) noexcept;

/// Batched conv backward GEMMs over one lowered block (wide layout as
/// ConvGemmBatched; delta_wide is [m x batch*n], sample s at column
/// offset s*n):
///   weight_grads[m x k] += delta_wide * col_wide^T
///   col_delta[k x batch*n] = weights^T * delta_wide    (overwrite;
///                            skipped when col_delta == nullptr)
/// The Fast build issues two wide tiled GEMMs; the Precise build runs
/// both sample by sample with the chains of the unbatched serial loops.
void ConvGemmBackwardFast(std::size_t m, std::size_t n, std::size_t k,
                          int batch, const float* weights,
                          const float* delta_wide, const float* col_wide,
                          float* weight_grads, float* col_delta) noexcept;
void ConvGemmBackwardPrecise(std::size_t m, std::size_t n, std::size_t k,
                             int batch, const float* weights,
                             const float* delta_wide, const float* col_wide,
                             float* weight_grads, float* col_delta) noexcept;

/// Dispatch helpers.
inline void GemmTransA(KernelProfile p, std::size_t m, std::size_t n,
                       std::size_t k, const float* a, const float* b,
                       float* c) noexcept {
  (p == KernelProfile::kFast) ? GemmTransAFast(m, n, k, a, b, c)
                              : GemmTransAPrecise(m, n, k, a, b, c);
}
inline void GemmEx(KernelProfile p, std::size_t m, std::size_t n,
                   std::size_t k, const float* a, const float* b, float* c,
                   const GemmEpilogue& epi) noexcept {
  (p == KernelProfile::kFast) ? GemmExFast(m, n, k, a, b, c, epi)
                              : GemmExPrecise(m, n, k, a, b, c, epi);
}
inline void GemmTransBEx(KernelProfile p, std::size_t m, std::size_t n,
                         std::size_t k, const float* a, const float* b,
                         float* c, const GemmEpilogue& epi) noexcept {
  (p == KernelProfile::kFast) ? GemmTransBExFast(m, n, k, a, b, c, epi)
                              : GemmTransBExPrecise(m, n, k, a, b, c, epi);
}
inline void ConvGemmBatched(KernelProfile p, std::size_t m, std::size_t n,
                            std::size_t k, int batch, const float* weights,
                            const float* col_wide, const float* bias,
                            float negative_slope, float* out) noexcept {
  (p == KernelProfile::kFast)
      ? ConvGemmBatchedFast(m, n, k, batch, weights, col_wide, bias,
                            negative_slope, out)
      : ConvGemmBatchedPrecise(m, n, k, batch, weights, col_wide, bias,
                               negative_slope, out);
}
inline void ConvGemmBackward(KernelProfile p, std::size_t m, std::size_t n,
                             std::size_t k, int batch, const float* weights,
                             const float* delta_wide, const float* col_wide,
                             float* weight_grads, float* col_delta) noexcept {
  (p == KernelProfile::kFast)
      ? ConvGemmBackwardFast(m, n, k, batch, weights, delta_wide, col_wide,
                             weight_grads, col_delta)
      : ConvGemmBackwardPrecise(m, n, k, batch, weights, delta_wide, col_wide,
                                weight_grads, col_delta);
}

/// Batched im2col (ksize x ksize, `stride`, symmetric zero `pad`):
/// samples [0, batch) of `in` ([c][h][w] planes `sample_stride` floats
/// apart) land side by side in col_wide [c*ksize*ksize x
/// batch*out_h*out_w], sample s at column offset s*out_h*out_w.  Large
/// lowerings dispatch rows through the thread pool — across samples
/// and column rows — with every row written by exactly one thread
/// (pure copies, so the result is identical at any thread count).
void Im2ColBatch(const float* in, std::size_t sample_stride, int batch,
                 int channels, int height, int width, int ksize, int stride,
                 int pad, float* col_wide);

/// Batched inverse: scatter-adds sample s's columns (offset
/// s*out_h*out_w, leading dimension batch*out_h*out_w) of col_wide into
/// the s-th output plane.  Large blocks run (sample, channel) pairs in
/// parallel — each pair's scatter region is disjoint, and the
/// within-pair order matches the serial loop, so results are
/// thread-count independent.
void Col2ImBatch(const float* col_wide, int batch, int channels, int height,
                 int width, int ksize, int stride, int pad, float* in,
                 std::size_t sample_stride);

/// Branch-free elementwise training passes, each with the bits of the
/// loop it documents on every input (-0.0, NaN payloads, inf, denormal).
/// Leaky-ReLU gradient: delta[j] = out[j] < 0 ? grad[j] * slope : grad[j].
void LeakyReluGradient(const float* grad, const float* out, std::size_t n,
                       float slope, float* delta) noexcept;

/// Bias-gradient row sums: for each row f in [0, rows)
///   acc = 0; for j = 0..n-1: acc = acc + in[f*ld + j]; sums[f] += acc.
void AddRowSums(const float* in, std::size_t rows, std::size_t n,
                std::size_t ld, float* sums) noexcept;

/// 2x2/2 max-pool of one [height x width] plane (both even, width >= 8)
/// into [height/2 x width/2] `out`, with the plane index of each winner
/// in `argmax`.  Per output, starting from (-inf, 0), the window's four
/// elements (row-major) replace the best only when `>` it: ties keep
/// the earlier element, NaN never wins, and an all-NaN or all--inf
/// window keeps index 0.
void MaxPool2x2(const float* plane, int height, int width, float* out,
                std::int32_t* argmax) noexcept;

}  // namespace caltrain::nn
