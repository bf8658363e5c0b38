// Ablation: which layer's embedding makes the best fingerprint?
//
// The paper fingerprints the penultimate layer ("the most important
// features extracted through all previous layers").  This harness
// sweeps candidate layers of the trojaned face model — an early conv,
// the last conv, the wide embedding FC, and the penultimate logits —
// and evaluates Experiment IV's detection metrics at each.
#include <cstdio>
#include <vector>

#include "attack/trojan.hpp"
#include "bench_common.hpp"
#include "data/packaging.hpp"
#include "data/synthetic_faces.hpp"
#include "linkage/fingerprint.hpp"
#include "linkage/linkage_db.hpp"
#include "linkage/metrics.hpp"
#include "nn/presets.hpp"
#include "nn/trainer.hpp"
#include "util/mathx.hpp"

using namespace caltrain;

int main(int argc, char** argv) {
  const bench::BenchProfile profile = bench::ParseArgs(argc, argv);
  bench::PrintHeader("Ablation — fingerprint layer choice", profile);

  data::SyntheticFacesOptions face_options;
  face_options.identities = profile.identities;
  data::SyntheticFaces faces(face_options);
  Rng rng(profile.seed);
  const int target = 0;

  // Clean training, then the trojan retraining (attack module, no
  // server — this ablation is about the fingerprint, not the pipeline).
  data::LabeledDataset train = faces.Generate(
      profile.faces_per_identity_train * profile.identities, rng);
  data::AssignSource(train, "honest");
  const data::LabeledDataset test = faces.Generate(
      profile.faces_per_identity_test * profile.identities, rng);

  nn::Network net = nn::BuildNetwork(
      nn::FaceNetSpec(faces.shape(), profile.identities,
                      profile.embedding_dim, profile.face_scale),
      rng);
  nn::TrainOptions options;
  options.epochs = profile.full ? 12 : 8;
  options.batch_size = 32;
  options.sgd.learning_rate = 0.01F;
  options.augment = false;
  options.seed = profile.seed + 1;
  std::printf("[setup] clean training...\n");
  (void)nn::TrainNetwork(net, train.images, train.labels, test.images,
                         test.labels, options);

  data::LabeledDataset donors;
  for (int id = 1; id < profile.identities - 1; ++id) {
    donors.Merge(faces.GenerateForIdentity(
        id, profile.faces_per_identity_train / 4, rng));
  }
  const data::LabeledDataset poisoned =
      attack::MakePoisonedSet(donors, target, "mallory");
  std::vector<nn::Image> probe_faces;
  for (int id = 1; id < profile.identities; ++id) {
    for (int i = 0; i < 4; ++i) probe_faces.push_back(faces.Sample(id, rng));
  }
  nn::TrainOptions retrain = options;
  retrain.epochs = profile.full ? 5 : 4;
  retrain.sgd.learning_rate = 0.005F;
  std::printf("[setup] trojan retraining...\n");
  const attack::TrojanAttackResult attack_result = attack::RetrainWithPoison(
      net, train, poisoned, test.images, test.labels,
      attack::StampAll(probe_faces), target, retrain);
  std::printf("[setup] attack success %.1f%%, benign top-1 %.1f%%\n",
              100.0 * attack_result.attack_success_rate,
              100.0 * attack_result.benign_top1_after);

  // Candidate fingerprint layers.
  data::LabeledDataset combined = train;
  combined.Merge(poisoned);
  struct Candidate { const char* name; int layer; };
  std::vector<Candidate> candidates;
  int first_conv = -1, last_conv = -1, embedding_fc = -1;
  for (int i = 0; i < net.NumLayers(); ++i) {
    if (net.layer(i).kind() == nn::LayerKind::kConv) {
      if (first_conv < 0) first_conv = i;
      last_conv = i;
    }
    if (net.layer(i).kind() == nn::LayerKind::kConnected &&
        embedding_fc < 0) {
      embedding_fc = i;
    }
  }
  candidates.push_back({"first conv", first_conv});
  candidates.push_back({"last conv", last_conv});
  candidates.push_back({"embedding FC", embedding_fc});
  candidates.push_back({"penultimate (paper)", net.PenultimateIndex()});

  std::printf("\n%-22s %-8s %-12s %-12s %-12s\n", "fingerprint layer", "dim",
              "precision", "recall", "attribution");
  nn::LayerWorkspace ws;
  for (const Candidate& c : candidates) {
    // Build the linkage DB at this layer.
    linkage::LinkageDatabase db;
    linkage::ProvenanceMap provenance;
    for (std::size_t i = 0; i < combined.size(); ++i) {
      const auto id = db.Insert(
          linkage::ExtractFingerprintAt(net, combined.images[i], c.layer, ws),
          combined.labels[i], combined.sources[i],
          data::HashTrainingInstance(combined.images[i],
                                     combined.labels[i]));
      if (combined.sources[i] == "mallory") {
        provenance[id] = linkage::ProvenanceTag::kPoisoned;
      }
    }
    // Query every hijacked probe.
    std::vector<std::vector<linkage::QueryMatch>> per_probe;
    for (const nn::Image& face : probe_faces) {
      const nn::Image probe = attack::ApplyTrigger(face);
      const auto probs = net.PredictOne(probe, ws);
      if (static_cast<int>(ArgMax(probs)) != target) continue;
      per_probe.push_back(db.QueryNearest(
          linkage::ExtractFingerprintAt(net, probe, c.layer, ws), target, 9));
    }
    const auto eval =
        linkage::EvaluateAccountability(per_probe, provenance, "mallory");
    std::printf("%-22s %-8zu %-12.3f %-12.3f %-12.3f\n", c.name,
                net.layer(c.layer).out_shape().Flat(), eval.precision_bad,
                eval.recall_poisoned, eval.source_attribution);
  }
  std::printf("\npaper design point: deep-layer embeddings (penultimate /\n"
              "embedding FC) should dominate early-layer features for\n"
              "poisoned-data discovery.\n");
  return 0;
}
