#include "nn/network.hpp"

#include <algorithm>
#include <cstdint>
#include <sstream>

#include "nn/connected.hpp"
#include "nn/conv.hpp"
#include "nn/dropout.hpp"
#include "nn/pool.hpp"
#include "nn/softmax.hpp"
#include "util/threadpool.hpp"

namespace caltrain::nn {

const char* LayerKindName(LayerKind kind) noexcept {
  switch (kind) {
    case LayerKind::kConv:
      return "conv";
    case LayerKind::kMaxPool:
      return "max";
    case LayerKind::kAvgPool:
      return "avg";
    case LayerKind::kDropout:
      return "dropout";
    case LayerKind::kConnected:
      return "connected";
    case LayerKind::kSoftmax:
      return "softmax";
    case LayerKind::kCost:
      return "cost";
  }
  return "?";
}

void NetworkSpec::Serialize(ByteWriter& writer) const {
  writer.WriteU32(static_cast<std::uint32_t>(input.w));
  writer.WriteU32(static_cast<std::uint32_t>(input.h));
  writer.WriteU32(static_cast<std::uint32_t>(input.c));
  writer.WriteU32(static_cast<std::uint32_t>(layers.size()));
  for (const LayerSpec& l : layers) {
    writer.WriteU8(static_cast<std::uint8_t>(l.kind));
    writer.WriteU32(static_cast<std::uint32_t>(l.filters));
    writer.WriteU32(static_cast<std::uint32_t>(l.ksize));
    writer.WriteU32(static_cast<std::uint32_t>(l.stride));
    writer.WriteU8(static_cast<std::uint8_t>(l.activation));
    writer.WriteF32(l.dropout_p);
    writer.WriteU32(static_cast<std::uint32_t>(l.outputs));
  }
}

namespace {

/// Bound on every decoded dimension, so the shape arithmetic below and
/// in the layer constructors stays far from int overflow.
constexpr std::uint32_t kMaxSpecDim = 1U << 16;
/// Serialized bytes of one LayerSpec (two u8 fields, five 4-byte ones).
constexpr std::size_t kLayerSpecBytes = 22;

int ReadDim(ByteReader& reader, bool allow_zero) {
  const std::uint32_t value = reader.ReadU32();
  CALTRAIN_REQUIRE((allow_zero || value > 0) && value <= kMaxSpecDim,
                   "model spec dimension out of range");
  return static_cast<int>(value);
}

/// Weight + bias count of a conv or connected layer over input `in`
/// (0 for the unweighted kinds), saturating at SIZE_MAX.
std::size_t WeightCount(const LayerSpec& l, Shape in) {
  const auto dim = [](int v) {
    return static_cast<std::size_t>(std::max(v, 0));
  };
  std::size_t units = 0;
  std::size_t per_unit = 0;
  if (l.kind == LayerKind::kConv) {
    units = dim(l.filters);
    per_unit = dim(in.c) * dim(l.ksize) * dim(l.ksize) + 1;
  } else if (l.kind == LayerKind::kConnected) {
    units = dim(l.outputs);
    per_unit = dim(in.w) * dim(in.h) * dim(in.c) + 1;
  }
  std::size_t count = 0;
  return __builtin_mul_overflow(units, per_unit, &count) ? SIZE_MAX : count;
}

}  // namespace

NetworkSpec NetworkSpec::Deserialize(ByteReader& reader) {
  NetworkSpec spec;
  spec.input.w = ReadDim(reader, false);
  spec.input.h = ReadDim(reader, false);
  spec.input.c = ReadDim(reader, false);
  const std::uint32_t count = reader.ReadU32();
  CALTRAIN_REQUIRE(count <= reader.remaining() / kLayerSpecBytes,
                   "model spec layer count exceeds the blob");
  spec.layers.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    LayerSpec l;
    const std::uint8_t kind = reader.ReadU8();
    CALTRAIN_REQUIRE(kind <= static_cast<std::uint8_t>(LayerKind::kCost),
                     "unknown layer kind in model spec");
    l.kind = static_cast<LayerKind>(kind);
    l.filters = ReadDim(reader, true);
    l.ksize = ReadDim(reader, true);
    l.stride = ReadDim(reader, true);
    const std::uint8_t activation = reader.ReadU8();
    CALTRAIN_REQUIRE(
        activation <= static_cast<std::uint8_t>(Activation::kLeakyRelu),
        "unknown activation in model spec");
    l.activation = static_cast<Activation>(activation);
    l.dropout_p = reader.ReadF32();
    l.outputs = ReadDim(reader, true);
    spec.layers.push_back(l);
  }
  return spec;
}

Network::Network(const NetworkSpec& spec) : Network(spec, SIZE_MAX) {}

Network::Network(const NetworkSpec& spec, std::size_t weight_bytes)
    : spec_(spec) {
  CALTRAIN_REQUIRE(!spec.layers.empty(), "network needs at least one layer");
  Shape current = spec.input;
  for (std::size_t i = 0; i < spec.layers.size(); ++i) {
    const LayerSpec& l = spec.layers[i];
    const std::size_t floats = WeightCount(l, current);
    CALTRAIN_REQUIRE(floats <= weight_bytes / sizeof(float),
                     "model spec declares more weights than its blob holds");
    weight_bytes -= floats * sizeof(float);
    switch (l.kind) {
      case LayerKind::kConv:
        layers_.push_back(std::make_unique<ConvLayer>(
            current, l.filters, l.ksize, l.stride, l.activation));
        break;
      case LayerKind::kMaxPool:
        layers_.push_back(
            std::make_unique<MaxPoolLayer>(current, l.ksize, l.stride));
        break;
      case LayerKind::kAvgPool:
        layers_.push_back(std::make_unique<AvgPoolLayer>(current));
        break;
      case LayerKind::kDropout:
        layers_.push_back(
            std::make_unique<DropoutLayer>(current, l.dropout_p));
        break;
      case LayerKind::kConnected:
        layers_.push_back(std::make_unique<ConnectedLayer>(
            current, l.outputs, l.activation));
        break;
      case LayerKind::kSoftmax:
        layers_.push_back(std::make_unique<SoftmaxLayer>(current));
        break;
      case LayerKind::kCost:
        CALTRAIN_REQUIRE(
            i > 0 && spec.layers[i - 1].kind == LayerKind::kSoftmax,
            "cost layer must directly follow softmax (combined gradient)");
        layers_.push_back(std::make_unique<CostLayer>(current));
        break;
      default:
        ThrowError(ErrorKind::kInvalidArgument, "unknown layer kind");
    }
    current = layers_.back()->out_shape();
  }
}

void Network::InitWeights(Rng& rng) {
  for (auto& layer : layers_) layer->InitWeights(rng);
}

int Network::NumClasses() const {
  const int idx = SoftmaxIndex();
  CALTRAIN_REQUIRE(idx >= 0, "network has no softmax layer");
  return layers_[static_cast<std::size_t>(idx)]->out_shape().c;
}

int Network::SoftmaxIndex() const noexcept {
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    if (layers_[i]->kind() == LayerKind::kSoftmax) return static_cast<int>(i);
  }
  return -1;
}

int Network::PenultimateIndex() const {
  const int idx = SoftmaxIndex();
  CALTRAIN_REQUIRE(idx > 0, "network has no layer before softmax");
  return idx - 1;
}

int Network::CostIndex() const noexcept {
  for (std::size_t i = layers_.size(); i > 0; --i) {
    if (layers_[i - 1]->kind() == LayerKind::kCost) {
      return static_cast<int>(i - 1);
    }
  }
  return -1;
}

void Network::CheckRange(int from, int to) const {
  CALTRAIN_REQUIRE(from >= 0 && to <= NumLayers() && from < to,
                   "bad layer range");
}

void Network::ForwardRange(const Batch* input, int from, int to,
                           const LayerContext& ctx, LayerWorkspace& ws) const {
  CheckRange(from, to);
  if (static_cast<int>(ws.activations.size()) != NumLayers()) {
    Batch staged = std::move(ws.input);  // the caller may pass &ws.input
    ws.Reset(*this);
    ws.input = std::move(staged);
  }
  const Batch* current;
  if (from == 0) {
    CALTRAIN_REQUIRE(input != nullptr, "ForwardRange from 0 needs an input");
    CALTRAIN_REQUIRE(input->shape == spec_.input, "input shape mismatch");
    if (input != &ws.input) ws.input = *input;
    ws.batch = ws.input.n;
    current = &ws.input;
  } else {
    CALTRAIN_REQUIRE(ws.activations[static_cast<std::size_t>(from - 1)].n ==
                         ws.batch,
                     "ForwardRange continuation without prior forward");
    current = &ws.activations[static_cast<std::size_t>(from - 1)];
  }
  for (int i = from; i < to; ++i) {
    const Layer& layer = *layers_[static_cast<std::size_t>(i)];
    Batch& out = ws.activations[static_cast<std::size_t>(i)];
    if (out.n != ws.batch || out.shape != layer.out_shape()) {
      out = Batch(ws.batch, layer.out_shape());
      // Size the layer's scratch once per batch shape so the hot loop
      // below never reallocates (or zero-fills) inside Forward/Backward.
      layer.SizeScratch(ws.scratch[static_cast<std::size_t>(i)], ws.batch);
    }
    LayerContext layer_ctx = ctx;
    layer_ctx.scratch = &ws.scratch[static_cast<std::size_t>(i)];
    layer_ctx.grads = &ws.grads.at(i);
    layer.Forward(*current, out, layer_ctx);
    current = &out;
  }
}

void Network::BackwardRange(int from, int to, const LayerContext& ctx,
                            LayerWorkspace& ws) const {
  CheckRange(from, to);
  CALTRAIN_REQUIRE(static_cast<int>(ws.activations.size()) == NumLayers(),
                   "BackwardRange without a prior forward in this workspace");
  for (int i = to - 1; i >= from; --i) {
    const Layer& layer = *layers_[static_cast<std::size_t>(i)];
    const Batch& in =
        (i == 0) ? ws.input : ws.activations[static_cast<std::size_t>(i - 1)];
    const Batch& out = ws.activations[static_cast<std::size_t>(i)];
    Batch& delta_out = ws.deltas[static_cast<std::size_t>(i)];
    if (delta_out.n != ws.batch || delta_out.shape != layer.out_shape()) {
      delta_out = Batch(ws.batch, layer.out_shape());
    }
    Batch& delta_in =
        (i == 0) ? ws.input_delta : ws.deltas[static_cast<std::size_t>(i - 1)];
    if (delta_in.n != ws.batch || delta_in.shape != layer.in_shape()) {
      delta_in = Batch(ws.batch, layer.in_shape());
    }
    LayerContext layer_ctx = ctx;
    layer_ctx.scratch = &ws.scratch[static_cast<std::size_t>(i)];
    layer_ctx.grads = &ws.grads.at(i);
    // Every layer above index 0 feeds the layer below; only the true
    // network input gradient is optional.
    layer_ctx.want_input_grad = i > 0 || ctx.want_input_grad;
    layer.Backward(in, out, delta_out, delta_in, layer_ctx);
  }
}

void Network::UpdateRange(int from, int to, const SgdConfig& config,
                          int batch_size, GradientAccumulator& grads) {
  CheckRange(from, to);
  for (int i = from; i < to; ++i) {
    layers_[static_cast<std::size_t>(i)]->Update(config, batch_size,
                                                 grads.at(i));
  }
}

float Network::TrainStep(const Batch& input, const std::vector<int>& labels,
                         const SgdConfig& config, Rng& rng,
                         KernelProfile profile) {
  CALTRAIN_REQUIRE(static_cast<int>(labels.size()) == input.n,
                   "label count != batch size");
  const int total = NumLayers();
  const int cost = CostIndex();
  CALTRAIN_REQUIRE(cost >= 0, "network has no cost layer");

  // Fixed-size shards and per-shard RNG streams, both independent of
  // the thread count (see workspace.hpp).  A shard's kTrainShardSamples
  // samples are below kConvBatchBlock, so every conv layer lowers a
  // whole shard as one wide im2col + batched GEMM block.
  const std::vector<TrainShard> shards = MakeTrainShards(input.n, rng);
  EnsureShardWorkspaces(*this, shard_ws_, shards.size());
  std::vector<Rng> shard_rngs;
  shard_rngs.reserve(shards.size());
  for (const TrainShard& shard : shards) shard_rngs.emplace_back(shard.rng_seed);

  util::ParallelFor(0, shards.size(), [&](std::size_t s) {
    const TrainShard& shard = shards[s];
    LayerWorkspace& ws = *shard_ws_[s];
    SliceBatch(input, shard.begin, shard.end, ws.input);
    const std::vector<int> shard_labels(
        labels.begin() + shard.begin, labels.begin() + shard.end);
    LayerContext ctx;
    ctx.training = true;
    ctx.rng = &shard_rngs[s];
    ctx.profile = profile;
    ctx.labels = &shard_labels;
    ctx.want_input_grad = false;  // nothing consumes dL/d(input) here
    ForwardRange(&ws.input, 0, total, ctx, ws);
    BackwardRange(0, total, ctx, ws);
  });

  // Fixed-order gradient reduction: shard order, never thread order.
  UpdateRange(0, total, config, input.n,
              ReduceShardGrads(shard_ws_, shards.size()));
  return SumShardLosses(shard_ws_, shards.size(), cost, input.n);
}

void Network::ReleaseTrainingWorkspaces() noexcept { shard_ws_.clear(); }

std::vector<std::vector<float>> Network::Predict(const Batch& input,
                                                 LayerWorkspace& ws,
                                                 KernelProfile profile) const {
  LayerContext ctx;
  ctx.profile = profile;
  const int out_layer = SoftmaxIndex() >= 0 ? SoftmaxIndex() + 1 : NumLayers();
  ForwardRange(&input, 0, out_layer, ctx, ws);
  const Batch& out = ws.activations[static_cast<std::size_t>(out_layer - 1)];
  std::vector<std::vector<float>> result(static_cast<std::size_t>(input.n));
  for (int s = 0; s < input.n; ++s) {
    result[static_cast<std::size_t>(s)].assign(
        out.Sample(s), out.Sample(s) + out.SampleSize());
  }
  return result;
}

namespace {
/// Loads one image into ws.input, reusing its buffer when the shape
/// already matches.
void LoadSingle(const Image& image, LayerWorkspace& ws) {
  if (ws.input.n != 1 || ws.input.shape != image.shape) {
    ws.input = Batch(1, image.shape);
  }
  ws.input.data = image.pixels;
}
}  // namespace

std::vector<float> Network::PredictOne(const Image& image, LayerWorkspace& ws,
                                       KernelProfile profile) const {
  LoadSingle(image, ws);
  return Predict(ws.input, ws, profile).front();
}

std::vector<float> Network::EmbeddingAtLayer(const Image& image, int layer,
                                             KernelProfile profile,
                                             LayerWorkspace& ws) const {
  CALTRAIN_REQUIRE(layer >= 0 && layer < NumLayers(),
                   "embedding layer out of range");
  LayerContext ctx;
  ctx.profile = profile;
  LoadSingle(image, ws);
  ForwardRange(&ws.input, 0, layer + 1, ctx, ws);
  const Batch& out = ws.activations[static_cast<std::size_t>(layer)];
  return std::vector<float>(out.data.begin(), out.data.end());
}

std::vector<std::vector<float>> Network::AllActivations(
    const Image& image, LayerWorkspace& ws, KernelProfile profile) const {
  LayerContext ctx;
  ctx.profile = profile;
  LoadSingle(image, ws);
  ForwardRange(&ws.input, 0, NumLayers(), ctx, ws);
  std::vector<std::vector<float>> result;
  result.reserve(layers_.size());
  for (const Batch& act : ws.activations) {
    result.emplace_back(act.data.begin(), act.data.end());
  }
  return result;
}

float Network::LossOf(const LayerWorkspace& ws) const {
  const int cost = CostIndex();
  CALTRAIN_REQUIRE(cost >= 0, "network has no cost layer");
  CALTRAIN_REQUIRE(ws.scratch.size() == layers_.size(),
                   "workspace not sized for this network");
  return ws.scratch[static_cast<std::size_t>(cost)].loss;
}

Bytes Network::SerializeModel() const {
  ByteWriter writer;
  spec_.Serialize(writer);
  for (const auto& layer : layers_) layer->SerializeWeights(writer);
  return writer.Take();
}

Network Network::DeserializeModel(BytesView blob) {
  ByteReader reader(blob);
  const NetworkSpec spec = NetworkSpec::Deserialize(reader);
  Network net(spec, reader.remaining());
  for (auto& layer : net.layers_) layer->DeserializeWeights(reader);
  CALTRAIN_REQUIRE(reader.AtEnd(), "trailing bytes after model blob");
  return net;
}

Bytes Network::SerializeWeightRange(int from, int to) const {
  CheckRange(from, to);
  ByteWriter writer;
  for (int i = from; i < to; ++i) {
    layers_[static_cast<std::size_t>(i)]->SerializeWeights(writer);
  }
  return writer.Take();
}

void Network::DeserializeWeightRange(int from, int to, BytesView blob) {
  CheckRange(from, to);
  ByteReader reader(blob);
  for (int i = from; i < to; ++i) {
    layers_[static_cast<std::size_t>(i)]->DeserializeWeights(reader);
  }
  CALTRAIN_REQUIRE(reader.AtEnd(), "trailing bytes after weight range blob");
}

std::string Network::ArchitectureTable() const {
  std::ostringstream os;
  os << "Layer  Type       Filter  Size      Input        Output\n";
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    const Layer& l = *layers_[i];
    os << (i + 1) << "\t" << LayerKindName(l.kind()) << "\t"
       << l.Describe() << "\n";
  }
  return os.str();
}

std::uint64_t Network::FlopsPerSample(int from, int to) const {
  CheckRange(from, to);
  std::uint64_t total = 0;
  for (int i = from; i < to; ++i) {
    total += layers_[static_cast<std::size_t>(i)]->ForwardFlopsPerSample();
  }
  return total;
}

std::size_t Network::WeightBytes(int from, int to) const {
  CheckRange(from, to);
  std::size_t total = 0;
  for (int i = from; i < to; ++i) {
    total += layers_[static_cast<std::size_t>(i)]->WeightBytes();
  }
  return total;
}

Network BuildNetwork(const NetworkSpec& spec, Rng& rng) {
  Network net(spec);
  net.InitWeights(rng);
  return net;
}

}  // namespace caltrain::nn
