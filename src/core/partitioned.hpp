// Partitioned training (paper Sec. IV-B).
//
// The network stack is split at `front_layers`: the FrontNet runs
// inside the training enclave (strict-FP kernels, EPC residency charged
// for its weights, activations and deltas), the BackNet runs outside on
// the fast path.  Per batch:
//
//   ECALL  { FrontNet forward }            — data never leaves plaintext
//   OCALL  { IRs out }  -> BackNet forward/backward outside
//   ECALL  { deltas in; FrontNet backward; FrontNet update }
//
// The boundary traffic (intermediate representations outward, deltas
// inward) is exactly the paper's full-training-lifecycle partitioning.
//
// TrainBatch is *data-parallel*: the mini-batch is decomposed into
// fixed-size shards (nn::MakeTrainShards — never a function of the
// thread count), each shard runs forward/backward against the shared
// const network in its own nn::LayerWorkspace with its own derived RNG
// stream, and the per-shard gradients are reduced in shard order
// before a single Update with DP-SGD sanitization applied once to the
// reduced gradients.  Results are therefore bit-identical at any
// thread count, and threads=1 executes the same shard plan inline.
#pragma once

#include "enclave/enclave.hpp"
#include "nn/network.hpp"
#include "nn/trainer.hpp"

namespace caltrain::core {

struct PartitionStats {
  std::uint64_t batches = 0;
  std::uint64_t ir_bytes_out = 0;     ///< IR traffic across the boundary
  std::uint64_t delta_bytes_in = 0;   ///< gradient traffic back in
};

/// Drives one network through partitioned forward/backward/update.
/// front_layers == 0 degenerates to fully-outside training;
/// front_layers == NumLayers() runs everything in the enclave.
class PartitionedTrainer {
 public:
  PartitionedTrainer(nn::Network& net, enclave::Enclave& enclave,
                     int front_layers);
  ~PartitionedTrainer();

  PartitionedTrainer(const PartitionedTrainer&) = delete;
  PartitionedTrainer& operator=(const PartitionedTrainer&) = delete;

  /// Moves the split point (dynamic re-assessment between epochs).
  void SetFrontLayers(int front_layers);
  [[nodiscard]] int front_layers() const noexcept { return front_layers_; }

  /// One SGD step on a decrypted batch already inside the enclave.
  /// Returns the batch loss.
  float TrainBatch(const nn::Batch& input, const std::vector<int>& labels,
                   const nn::SgdConfig& sgd, Rng& rng);

  /// Eval-mode forward returning class probabilities (FrontNet still
  /// runs enclaved — inference inputs get the same protection).
  [[nodiscard]] std::vector<std::vector<float>> Predict(
      const nn::Batch& input);

  [[nodiscard]] const PartitionStats& stats() const noexcept {
    return stats_;
  }
  [[nodiscard]] nn::Network& network() noexcept { return net_; }

  /// Bytes held by the per-shard training workspaces (bench metric:
  /// the data-parallel working set beyond the shared model).
  [[nodiscard]] std::size_t WorkspaceBytes() const noexcept;

 private:
  void AllocateEpcRegions();
  void ReleaseEpcRegions();
  void TouchFrontNet(int batch_size);

  nn::Network& net_;
  enclave::Enclave& enclave_;
  int front_layers_;
  enclave::RegionId weights_region_ = 0;
  enclave::RegionId activation_region_ = 0;
  bool regions_allocated_ = false;
  int last_batch_size_ = 0;
  PartitionStats stats_;
  /// One workspace per shard, reused across batches.
  std::vector<std::unique_ptr<nn::LayerWorkspace>> shard_ws_;
  /// Workspace of the eval-mode Predict path.
  nn::LayerWorkspace predict_ws_;
};

}  // namespace caltrain::core
