// Trojaning Attack harness (paper Sec. VI-D, after Liu et al. NDSS'18).
//
// The original artifact (TrojanNN's trojaned VGG-Face model + poisoned
// data) is not available offline, so this module reproduces the attack
// itself: stamp a fixed trigger patch in the bottom-right corner of
// donor images from *other* classes, relabel them to the attacker's
// target class, and retrain the victim model until the backdoor is
// installed — trigger-stamped inputs of any identity classify as the
// target while benign accuracy is preserved.  The module also injects
// plainly mislabeled data, reproducing the paper's observation that
// VGG-Face class 0 (A.J.Buckley) contained ~24% mislabeled images.
#pragma once

#include "data/dataset.hpp"
#include "nn/network.hpp"
#include "nn/trainer.hpp"

namespace caltrain::attack {

struct TriggerOptions {
  int size = 3;     ///< square patch side, pixels (~0.9% of a 32x32 face,
                    ///< comparable to TrojanNN's logo fraction of 224x224)
  int margin = 1;   ///< offset from the bottom-right corner
};

/// Returns a copy of `image` with the trojan trigger stamped in the
/// bottom-right corner (the paper's Fig. 8 trigger position).
[[nodiscard]] nn::Image ApplyTrigger(const nn::Image& image,
                                     const TriggerOptions& options = {});

/// True if `image` carries the trigger pattern (ground-truth helper for
/// the detection metrics; CalTrain itself never gets this oracle).
[[nodiscard]] bool HasTrigger(const nn::Image& image,
                              const TriggerOptions& options = {});

/// Builds the poisoned training set: every donor image (any class) is
/// trigger-stamped and relabeled to `target_class`.
[[nodiscard]] data::LabeledDataset MakePoisonedSet(
    const data::LabeledDataset& donors, int target_class,
    const std::string& source, const TriggerOptions& options = {});

/// Builds a mislabeled set: donor images relabeled to `target_class`
/// with NO trigger (low-quality data, not an intentional backdoor).
[[nodiscard]] data::LabeledDataset MakeMislabeledSet(
    const data::LabeledDataset& donors, int target_class,
    const std::string& source);

/// Trigger-stamps `images` without relabeling (test-time probes).
[[nodiscard]] std::vector<nn::Image> StampAll(
    const std::vector<nn::Image>& images, const TriggerOptions& options = {});

/// Fraction of `triggered` inputs the model classifies as
/// `target_class` (the attack success rate).
[[nodiscard]] double AttackSuccessRate(const nn::Network& net,
                                       const std::vector<nn::Image>& triggered,
                                       int target_class);

struct TrojanAttackResult {
  double benign_top1_before = 0.0;
  double benign_top1_after = 0.0;
  double attack_success_rate = 0.0;
};

/// Runs the retraining step of the Trojaning Attack: fine-tunes `net`
/// on benign + poisoned data until the backdoor sticks, and reports
/// benign accuracy before/after plus the attack success rate on held-
/// out trigger probes.
[[nodiscard]] TrojanAttackResult RetrainWithPoison(
    nn::Network& net, const data::LabeledDataset& benign_train,
    const data::LabeledDataset& poisoned,
    const std::vector<nn::Image>& benign_test,
    const std::vector<int>& benign_test_labels,
    const std::vector<nn::Image>& trigger_probes, int target_class,
    const nn::TrainOptions& options);

}  // namespace caltrain::attack
