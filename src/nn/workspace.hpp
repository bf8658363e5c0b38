// Externalized per-pass state for stateless layer execution.
//
// Layers are immutable during Forward/Backward (both are const on the
// layer): every piece of per-pass scratch — dropout keep masks, im2col
// buffers, pooling argmax indices, cost-layer bookkeeping — lives in a
// LayerScratch slot, and every accumulated weight gradient lives in a
// GradientAccumulator, both owned by a LayerWorkspace *outside* the
// network.  A const Network plus one LayerWorkspace per worker is
// therefore safely shareable across threads; this is the basis of the
// data-parallel TrainBatch (core/partitioned.hpp) and the replica-free
// fingerprint stage (linkage/fingerprint.hpp).
//
// Determinism: MakeTrainShards decomposes a mini-batch into
// fixed-size shards *independent of the thread count* and draws one
// RNG seed per shard in shard order.  Workers process whole shards,
// and gradients are reduced in shard order, so a data-parallel
// training step is bit-identical at any thread count (same contract as
// the row-blocked parallel GEMM).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

#include "nn/tensor.hpp"
#include "util/rng.hpp"

namespace caltrain::nn {

class Network;

/// Per-layer weight-gradient buffers.  Weight-free layers keep both
/// vectors empty; weighted layers size them lazily on first use.
struct LayerGrads {
  std::vector<float> weight_grads;
  std::vector<float> bias_grads;

  /// Sizes (zero-filled) the buffers if they are not already sized.
  void EnsureSized(std::size_t weight_count, std::size_t bias_count);
  /// Zero-fills without releasing storage.
  void Zero() noexcept;
  /// Element-wise `this += other`.  An empty `other` is a no-op; an
  /// empty `this` becomes a copy of `other`.
  void Add(const LayerGrads& other);
  [[nodiscard]] std::size_t TotalBytes() const noexcept;
};

/// Per-worker weight gradients for a whole network, indexed by layer.
class GradientAccumulator {
 public:
  GradientAccumulator() = default;
  explicit GradientAccumulator(const Network& net);

  void Reset(const Network& net);
  [[nodiscard]] LayerGrads& at(int layer);
  [[nodiscard]] const LayerGrads& at(int layer) const;
  [[nodiscard]] int NumLayers() const noexcept {
    return static_cast<int>(layers_.size());
  }
  void Zero() noexcept;
  /// Fixed-order reduction step: `this += other`, layer by layer.
  void Add(const GradientAccumulator& other);
  [[nodiscard]] std::size_t TotalBytes() const noexcept;

 private:
  std::vector<LayerGrads> layers_;
};

/// Allocator of 64-byte (cache-line) aligned blocks.  The Fast direct
/// conv kernel loads 16-float rows of the lowering in place, so a
/// lowering that starts off a line boundary splits every load in two:
/// the 28x28 layers' GEMM ran 9-35% slower at a 16-48 byte offset,
/// and which offset malloc returned depended on the heap's history.
template <class T>
struct CacheLineAllocator {
  using value_type = T;
  static constexpr std::align_val_t kAlign{64};
  CacheLineAllocator() = default;
  template <class U>
  CacheLineAllocator(const CacheLineAllocator<U>& /*other*/) noexcept {}
  T* allocate(std::size_t count) {
    return static_cast<T*>(::operator new(count * sizeof(T), kAlign));
  }
  void deallocate(T* p, std::size_t /*count*/) noexcept {
    ::operator delete(p, kAlign);
  }
  friend bool operator==(CacheLineAllocator, CacheLineAllocator) noexcept {
    return true;
  }
};

/// Per-pass mutable scratch of one layer.  Which fields a layer uses
/// is the layer's business; unused fields stay empty.  Conv layers
/// size their three float buffers for a whole lowering block (up to
/// kConvBatchBlock samples side by side) via Layer::SizeScratch —
/// sized once per batch shape, never zero-filled (every element is
/// overwritten before it is read).
struct LayerScratch {
  /// conv: wide im2col [k x block*n], cache-line aligned
  std::vector<float, CacheLineAllocator<float>> col;
  std::vector<float> delta;          ///< conv: wide act-grad [m x block*n];
                                     ///< connected: activation-grad copy
  std::vector<float> col_delta;      ///< conv: wide input grad [k x block*n]
  int col_samples = 0;               ///< conv: samples `col` currently holds
                                     ///< (when the whole batch fit one
                                     ///< block); lets Backward reuse the
                                     ///< forward lowering instead of
                                     ///< re-running im2col
  std::vector<std::uint8_t> mask;    ///< dropout: 1 = kept
  std::vector<std::int32_t> argmax;  ///< maxpool: winner index per output
  float loss = 0.0F;                 ///< cost: mean loss of the last forward
  std::vector<int> labels;           ///< cost: labels of the last forward
  std::vector<double> sample_losses; ///< cost: per-sample -log p, in order

  [[nodiscard]] std::size_t TotalBytes() const noexcept;
};

/// Everything mutable a forward/backward pass needs: the input copy,
/// per-layer activations and deltas, per-layer scratch, and the
/// gradient accumulator.  Reusable across batches; one per worker.
class LayerWorkspace {
 public:
  LayerWorkspace() = default;
  explicit LayerWorkspace(const Network& net);

  /// (Re)sizes the per-layer slots for `net`.  Buffers are allocated
  /// lazily by the layers themselves on first use.
  void Reset(const Network& net);

  Batch input;                    ///< copy of the current batch input
  std::vector<Batch> activations; ///< output of layer i
  std::vector<Batch> deltas;      ///< dL/d(output of layer i)
  Batch input_delta;              ///< dL/d(network input)
  int batch = 0;                  ///< current batch size
  std::vector<LayerScratch> scratch;
  GradientAccumulator grads;

  [[nodiscard]] std::size_t TotalBytes() const noexcept;
};

/// Copies samples [begin, end) of `src` into `dst` (resizing it).
void SliceBatch(const Batch& src, int begin, int end, Batch& dst);

/// One unit of the deterministic data-parallel training step: a
/// contiguous sample range plus the seed of its private RNG stream.
struct TrainShard {
  int begin = 0;
  int end = 0;
  std::uint64_t rng_seed = 0;
};

/// Samples per shard.  Fixed (never derived from the thread count) so
/// the shard decomposition — and therefore every float grouping in the
/// gradient reduction — is identical at any thread count.  Kept at 4
/// (below nn::kConvBatchBlock) so a batch of 32 still fans out to 8
/// workers while each shard's conv layers lower all of its samples in
/// a single wide im2col + batched-GEMM block.
inline constexpr int kTrainShardSamples = 4;

/// Decomposes a batch of `batch_n` samples into fixed-size shards and
/// draws one seed per shard (in shard order) from `rng`.
[[nodiscard]] std::vector<TrainShard> MakeTrainShards(int batch_n, Rng& rng);

/// Grows `workspaces` to `count` entries sized for `net`.
void EnsureShardWorkspaces(
    const Network& net,
    std::vector<std::unique_ptr<LayerWorkspace>>& workspaces,
    std::size_t count);

/// Fixed-order gradient reduction over the first `count` workspaces:
/// accumulates workspaces[1..count) into workspaces[0]'s accumulator
/// in shard order (never thread order) and zeroes the sources.
/// Returns the reduced accumulator.
GradientAccumulator& ReduceShardGrads(
    std::vector<std::unique_ptr<LayerWorkspace>>& workspaces,
    std::size_t count);

/// Mean loss over the first `count` workspaces' cost-layer scratch
/// (`cost_layer` indexes the slot): per-sample losses summed in sample
/// order, so the result is independent of the shard grouping.
[[nodiscard]] float SumShardLosses(
    const std::vector<std::unique_ptr<LayerWorkspace>>& workspaces,
    std::size_t count, int cost_layer, int batch_n);

}  // namespace caltrain::nn
