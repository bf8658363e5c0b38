#include "attack/trojan.hpp"

#include "util/error.hpp"
#include "util/mathx.hpp"

namespace caltrain::attack {

namespace {

/// The trigger is a fixed high-contrast checker of magenta/yellow — the
/// kind of salient, input-space pattern trojan triggers are inverted to.
float TriggerValue(int channel, int py, int px) noexcept {
  const bool checker = ((py + px) % 2) == 0;
  switch (channel) {
    case 0: return 1.0F;                       // R always saturated
    case 1: return checker ? 1.0F : 0.0F;      // G checkers
    default: return checker ? 0.0F : 1.0F;     // B anti-checkers
  }
}

}  // namespace

nn::Image ApplyTrigger(const nn::Image& image, const TriggerOptions& options) {
  CALTRAIN_REQUIRE(options.size > 0 &&
                       options.size + options.margin <= image.shape.w &&
                       options.size + options.margin <= image.shape.h,
                   "trigger does not fit in the image");
  nn::Image out = image;
  const int x0 = image.shape.w - options.margin - options.size;
  const int y0 = image.shape.h - options.margin - options.size;
  for (int c = 0; c < std::min(3, image.shape.c); ++c) {
    for (int py = 0; py < options.size; ++py) {
      for (int px = 0; px < options.size; ++px) {
        out.At(c, y0 + py, x0 + px) = TriggerValue(c, py, px);
      }
    }
  }
  return out;
}

bool HasTrigger(const nn::Image& image, const TriggerOptions& options) {
  const int x0 = image.shape.w - options.margin - options.size;
  const int y0 = image.shape.h - options.margin - options.size;
  if (x0 < 0 || y0 < 0) return false;
  double error = 0.0;
  int count = 0;
  for (int c = 0; c < std::min(3, image.shape.c); ++c) {
    for (int py = 0; py < options.size; ++py) {
      for (int px = 0; px < options.size; ++px) {
        const float expected = TriggerValue(c, py, px);
        error += std::abs(image.At(c, y0 + py, x0 + px) - expected);
        ++count;
      }
    }
  }
  return count > 0 && (error / count) < 0.05;
}

data::LabeledDataset MakePoisonedSet(const data::LabeledDataset& donors,
                                     int target_class,
                                     const std::string& source,
                                     const TriggerOptions& options) {
  data::LabeledDataset out;
  out.images.reserve(donors.size());
  for (const nn::Image& img : donors.images) {
    out.Append(ApplyTrigger(img, options), target_class, source);
  }
  return out;
}

data::LabeledDataset MakeMislabeledSet(const data::LabeledDataset& donors,
                                       int target_class,
                                       const std::string& source) {
  data::LabeledDataset out;
  out.images.reserve(donors.size());
  for (const nn::Image& img : donors.images) {
    out.Append(img, target_class, source);
  }
  return out;
}

std::vector<nn::Image> StampAll(const std::vector<nn::Image>& images,
                                const TriggerOptions& options) {
  std::vector<nn::Image> out;
  out.reserve(images.size());
  for (const nn::Image& img : images) out.push_back(ApplyTrigger(img, options));
  return out;
}

double AttackSuccessRate(const nn::Network& net,
                         const std::vector<nn::Image>& triggered,
                         int target_class) {
  if (triggered.empty()) return 0.0;
  std::size_t hits = 0;
  nn::LayerWorkspace ws(net);
  for (const nn::Image& img : triggered) {
    const auto probs = net.PredictOne(img, ws);
    if (static_cast<int>(ArgMax(probs)) == target_class) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(triggered.size());
}

TrojanAttackResult RetrainWithPoison(
    nn::Network& net, const data::LabeledDataset& benign_train,
    const data::LabeledDataset& poisoned,
    const std::vector<nn::Image>& benign_test,
    const std::vector<int>& benign_test_labels,
    const std::vector<nn::Image>& trigger_probes, int target_class,
    const nn::TrainOptions& options) {
  TrojanAttackResult result;
  result.benign_top1_before =
      nn::EvaluateTopK(net, benign_test, benign_test_labels, 1);

  data::LabeledDataset combined = benign_train;
  combined.Merge(poisoned);
  Rng rng(options.seed ^ 0x7403a4);
  combined.Shuffle(rng);

  (void)nn::TrainNetwork(net, combined.images, combined.labels, {}, {},
                         options);

  result.benign_top1_after =
      nn::EvaluateTopK(net, benign_test, benign_test_labels, 1);
  result.attack_success_rate =
      AttackSuccessRate(net, trigger_probes, target_class);
  return result;
}

}  // namespace caltrain::attack
