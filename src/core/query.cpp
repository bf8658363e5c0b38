#include "core/query.hpp"

#include <algorithm>

#include "linkage/fingerprint.hpp"
#include "util/mathx.hpp"
#include "util/threadpool.hpp"

namespace caltrain::core {

namespace {

/// One eval-mode forward pass through `ws` against the shared const
/// model, yielding both the softmax prediction and the normalized
/// fingerprint at `fingerprint_layer`.  The fingerprint layer precedes
/// softmax, so its activation falls out of the same pass that produces
/// the prediction — one forward instead of the two the query stage
/// used to pay.
void PredictAndFingerprint(const nn::Network& model, const nn::Image& input,
                           int fingerprint_layer, nn::LayerWorkspace& ws,
                           MispredictionReport& report) {
  const int softmax = model.SoftmaxIndex();
  const int out_layer = softmax >= 0 ? softmax + 1 : model.NumLayers();
  const int stop = std::max(out_layer, fingerprint_layer + 1);
  nn::LayerContext ctx;  // eval mode, Fast profile — same as PredictOne
  if (ws.input.n != 1 || ws.input.shape != input.shape) {
    ws.input = nn::Batch(1, input.shape);
  }
  ws.input.data = input.pixels;
  model.ForwardRange(&ws.input, 0, stop, ctx, ws);

  const nn::Batch& probs =
      ws.activations[static_cast<std::size_t>(out_layer - 1)];
  report.predicted_label = static_cast<int>(ArgMax(probs.data));
  const nn::Batch& embedding =
      ws.activations[static_cast<std::size_t>(fingerprint_layer)];
  report.fingerprint.assign(embedding.data.begin(), embedding.data.end());
  L2NormalizeInPlace(report.fingerprint);
}

}  // namespace

QueryService::QueryService(nn::Network model,
                           linkage::LinkageDatabase database,
                           int fingerprint_layer)
    : model_(std::move(model)),
      database_(std::move(database)),
      fingerprint_layer_(fingerprint_layer < 0 ? model_.PenultimateIndex()
                                               : fingerprint_layer),
      ws_(model_) {}

MispredictionReport QueryService::Investigate(const nn::Image& input,
                                              std::size_t k) {
  return InvestigateWith(ws_, input, k);
}

MispredictionReport QueryService::InvestigateWith(nn::LayerWorkspace& ws,
                                                  const nn::Image& input,
                                                  std::size_t k) {
  MispredictionReport report;
  PredictAndFingerprint(model_, input, fingerprint_layer_, ws, report);
  report.neighbors =
      database_.QueryNearest(report.fingerprint, report.predicted_label, k);
  return report;
}

std::vector<MispredictionReport> QueryService::InvestigateBatch(
    const std::vector<nn::Image>& inputs, std::size_t k) {
  std::vector<MispredictionReport> reports(inputs.size());
  // Forward passes are independent per input and run against the
  // shared const model, one activation workspace per worker block —
  // bit-identical at any thread count (same contract as
  // TrainingServer::FingerprintAll).
  util::ParallelForBlocked(0, inputs.size(),
                           [&](std::size_t b0, std::size_t b1) {
    nn::LayerWorkspace ws(model_);
    for (std::size_t i = b0; i < b1; ++i) {
      PredictAndFingerprint(model_, inputs[i], fingerprint_layer_, ws,
                            reports[i]);
    }
  });

  std::vector<linkage::Fingerprint> fingerprints(inputs.size());
  std::vector<int> labels(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    fingerprints[i] = reports[i].fingerprint;
    labels[i] = reports[i].predicted_label;
  }
  std::vector<std::vector<linkage::QueryMatch>> neighbors =
      database_.QueryNearestBatch(fingerprints, labels, k);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    reports[i].neighbors = std::move(neighbors[i]);
  }
  return reports;
}

bool QueryService::VerifyTurnedInData(std::uint64_t tuple_id,
                                      const nn::Image& image,
                                      int label) const {
  return database_.VerifySubmission(tuple_id, image, label);
}

}  // namespace caltrain::core
