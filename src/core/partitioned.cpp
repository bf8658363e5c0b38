#include "core/partitioned.hpp"

#include "util/error.hpp"
#include "util/threadpool.hpp"

namespace caltrain::core {

PartitionedTrainer::PartitionedTrainer(nn::Network& net,
                                       enclave::Enclave& enclave,
                                       int front_layers)
    : net_(net), enclave_(enclave), front_layers_(front_layers) {
  CALTRAIN_REQUIRE(front_layers >= 0 && front_layers <= net.NumLayers(),
                   "front_layers out of range");
  AllocateEpcRegions();
}

PartitionedTrainer::~PartitionedTrainer() { ReleaseEpcRegions(); }

void PartitionedTrainer::ReleaseEpcRegions() {
  if (!regions_allocated_) return;
  enclave_.epc().Free(weights_region_);
  enclave_.epc().Free(activation_region_);
  regions_allocated_ = false;
}

void PartitionedTrainer::AllocateEpcRegions() {
  ReleaseEpcRegions();
  last_batch_size_ = 0;
  if (front_layers_ == 0) return;
  weights_region_ = enclave_.epc().Allocate(
      "frontnet-weights", net_.WeightBytes(0, front_layers_));
  // Activation region is sized on first batch (depends on batch size).
  activation_region_ = enclave_.epc().Allocate("frontnet-activations", 0);
  regions_allocated_ = true;
}

void PartitionedTrainer::SetFrontLayers(int front_layers) {
  CALTRAIN_REQUIRE(front_layers >= 0 && front_layers <= net_.NumLayers(),
                   "front_layers out of range");
  if (front_layers == front_layers_) return;
  front_layers_ = front_layers;
  AllocateEpcRegions();
}

void PartitionedTrainer::TouchFrontNet(int batch_size) {
  if (front_layers_ == 0) return;
  if (batch_size != last_batch_size_) {
    // Activations + deltas for every front layer, plus the input batch:
    // this is the in-enclave working set beyond the weights.
    std::size_t activation_bytes =
        static_cast<std::size_t>(batch_size) * net_.input_shape().Flat() *
        sizeof(float);
    for (int i = 0; i < front_layers_; ++i) {
      activation_bytes += 2 *
                          static_cast<std::size_t>(batch_size) *
                          net_.layer(i).out_shape().Flat() * sizeof(float);
    }
    enclave_.epc().Resize(activation_region_, activation_bytes);
    last_batch_size_ = batch_size;
  }
  enclave_.epc().Touch(weights_region_);
  enclave_.epc().Touch(activation_region_);
}

std::size_t PartitionedTrainer::WorkspaceBytes() const noexcept {
  std::size_t total = 0;
  for (const auto& ws : shard_ws_) total += ws->TotalBytes();
  return total;
}

float PartitionedTrainer::TrainBatch(const nn::Batch& input,
                                     const std::vector<int>& labels,
                                     const nn::SgdConfig& sgd, Rng& rng) {
  CALTRAIN_REQUIRE(static_cast<int>(labels.size()) == input.n,
                   "label count != batch size");
  const int total = net_.NumLayers();
  const int k = front_layers_;

  // Shard plan and per-shard RNG streams: both depend only on the
  // batch size and the incoming RNG state, never on the thread count.
  const std::vector<nn::TrainShard> shards = nn::MakeTrainShards(input.n, rng);
  nn::EnsureShardWorkspaces(net_, shard_ws_, shards.size());
  std::vector<Rng> shard_rngs;
  shard_rngs.reserve(shards.size());
  std::vector<std::vector<int>> shard_labels(shards.size());
  for (std::size_t s = 0; s < shards.size(); ++s) {
    shard_rngs.emplace_back(shards[s].rng_seed);
    shard_labels[s].assign(labels.begin() + shards[s].begin,
                           labels.begin() + shards[s].end);
  }
  const auto shard_ctx = [&](std::size_t s, nn::KernelProfile profile) {
    nn::LayerContext ctx;
    ctx.training = true;
    ctx.rng = &shard_rngs[s];
    ctx.profile = profile;
    ctx.labels = &shard_labels[s];
    ctx.want_input_grad = false;  // nothing consumes dL/d(input) here
    return ctx;
  };

  if (k > 0) {
    // FrontNet forward inside the enclave: one multi-threaded ECALL,
    // every worker sharing the const network with its own workspace.
    enclave_.Ecall([&] {
      TouchFrontNet(input.n);
      util::ParallelFor(0, shards.size(), [&](std::size_t s) {
        nn::LayerWorkspace& ws = *shard_ws_[s];
        nn::SliceBatch(input, shards[s].begin, shards[s].end, ws.input);
        net_.ForwardRange(&ws.input, 0, k,
                          shard_ctx(s, nn::KernelProfile::kPrecise), ws);
      });
    });
    // IRs cross the boundary outward.  (Only this batch's shards —
    // shard_ws_ may hold more entries from an earlier, larger batch.)
    enclave_.Ocall([&] {
      for (std::size_t s = 0; s < shards.size(); ++s) {
        stats_.ir_bytes_out +=
            shard_ws_[s]->activations[static_cast<std::size_t>(k - 1)]
                .TotalBytes();
      }
    });
  }
  if (k < total) {
    // BackNet forward + backward outside on the fast path.
    util::ParallelFor(0, shards.size(), [&](std::size_t s) {
      nn::LayerWorkspace& ws = *shard_ws_[s];
      const nn::LayerContext ctx = shard_ctx(s, nn::KernelProfile::kFast);
      if (k == 0) {
        nn::SliceBatch(input, shards[s].begin, shards[s].end, ws.input);
        net_.ForwardRange(&ws.input, 0, total, ctx, ws);
      } else {
        net_.ForwardRange(nullptr, k, total, ctx, ws);
      }
      net_.BackwardRange(k, total, ctx, ws);
    });
  }
  if (k > 0) {
    if (k < total) {
      // Deltas cross the boundary inward.
      for (std::size_t s = 0; s < shards.size(); ++s) {
        stats_.delta_bytes_in +=
            shard_ws_[s]->deltas[static_cast<std::size_t>(k - 1)].TotalBytes();
      }
    }
    enclave_.Ecall([&] {
      TouchFrontNet(input.n);
      util::ParallelFor(0, shards.size(), [&](std::size_t s) {
        net_.BackwardRange(0, k, shard_ctx(s, nn::KernelProfile::kPrecise),
                           *shard_ws_[s]);
      });
    });
  }

  // Fixed-order reduction: shard order, never thread order, so the
  // float grouping is identical at any thread count.
  nn::GradientAccumulator& grads =
      nn::ReduceShardGrads(shard_ws_, shards.size());
  // Update applies DP-SGD sanitization once, on the reduced gradients,
  // then steps the weights — FrontNet inside the enclave.
  if (k > 0) {
    enclave_.Ecall([&] {
      TouchFrontNet(input.n);
      net_.UpdateRange(0, k, sgd, input.n, grads);
    });
  }
  if (k < total) {
    net_.UpdateRange(k, total, sgd, input.n, grads);
  }

  ++stats_.batches;

  const int cost = net_.CostIndex();
  CALTRAIN_REQUIRE(cost >= 0, "network has no cost layer");
  return nn::SumShardLosses(shard_ws_, shards.size(), cost, input.n);
}

std::vector<std::vector<float>> PartitionedTrainer::Predict(
    const nn::Batch& input) {
  const int k = front_layers_;
  nn::LayerContext enclave_ctx;
  enclave_ctx.profile = nn::KernelProfile::kPrecise;
  nn::LayerContext host_ctx;
  host_ctx.profile = nn::KernelProfile::kFast;

  const int out_layer =
      net_.SoftmaxIndex() >= 0 ? net_.SoftmaxIndex() + 1 : net_.NumLayers();
  const int front = std::min(k, out_layer);
  if (front > 0) {
    enclave_.Ecall([&] {
      TouchFrontNet(input.n);
      net_.ForwardRange(&input, 0, front, enclave_ctx, predict_ws_);
    });
    enclave_.Ocall([&] {
      stats_.ir_bytes_out +=
          predict_ws_.activations[static_cast<std::size_t>(front - 1)]
              .TotalBytes();
    });
  }
  if (front < out_layer) {
    net_.ForwardRange(front == 0 ? &input : nullptr, front, out_layer,
                      host_ctx, predict_ws_);
  }
  const nn::Batch& out =
      predict_ws_.activations[static_cast<std::size_t>(out_layer - 1)];
  std::vector<std::vector<float>> result(static_cast<std::size_t>(input.n));
  for (int s = 0; s < input.n; ++s) {
    result[static_cast<std::size_t>(s)].assign(
        out.Sample(s), out.Sample(s) + out.SampleSize());
  }
  return result;
}

}  // namespace caltrain::core
