// Reproduces Fig. 7: locally-linear-embedding visualization of the
// target-class face fingerprints.
//
// Paper result shape: the trojaned training data ("x") and trojaned
// testing data ("o") overlap each other while both sit apart from the
// normal training data ("+") of the same class — the cluster structure
// that makes nearest-neighbour accountability work.
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_trojan_common.hpp"
#include "linkage/fingerprint.hpp"
#include "linkage/lle.hpp"

using namespace caltrain;

int main(int argc, char** argv) {
  const bench::BenchProfile profile = bench::ParseArgs(argc, argv);
  bench::PrintHeader("Figure 7 — LLE of trojaned face fingerprints",
                     profile);
  auto lab = bench::BuildTrojanLab(profile);

  // Collect class-0 fingerprints: normal train / trojaned train, from
  // the linkage DB; trojaned test, freshly probed through the model.
  std::vector<std::vector<float>> points;
  std::vector<char> tags;  // '+', 'x', 'o'
  for (std::uint64_t id : lab->database.IdsForLabel(lab->target_class)) {
    const auto& tuple = lab->database.tuple(id);
    if (tuple.source == "lazy") continue;  // Fig. 7 plots 3 groups
    points.push_back(tuple.fingerprint);
    tags.push_back(tuple.source == "mallory" ? 'x' : '+');
  }
  Rng rng(profile.seed + 77);
  nn::LayerWorkspace ws;
  for (int id = 1; id < profile.identities; ++id) {
    for (int i = 0; i < 3; ++i) {
      const nn::Image probe =
          attack::ApplyTrigger(lab->faces.Sample(id, rng));
      points.push_back(linkage::ExtractFingerprintAt(
          lab->query->model(), probe, lab->fingerprint_layer, ws));
      tags.push_back('o');
    }
  }
  std::printf("[lle] embedding %zu fingerprints (dim %zu) to 2-D...\n",
              points.size(), points[0].size());
  linkage::LleOptions lle_options;
  lle_options.neighbors = 10;
  const auto coords = linkage::LocallyLinearEmbedding(points, lle_options);

  std::printf("\nFig. 7 series — 2-D LLE coordinates "
              "(+ normal train, x trojaned train, o trojaned test):\n");
  for (std::size_t i = 0; i < coords.size(); ++i) {
    std::printf("%c % .5f % .5f\n", tags[i], coords[i][0], coords[i][1]);
  }

  // Quantitative shape check: trojaned-train and trojaned-test
  // centroids are close to each other, both far from the normal one.
  double cx[3] = {0, 0, 0}, cy[3] = {0, 0, 0};
  int n[3] = {0, 0, 0};
  const auto group = [](char tag) { return tag == '+' ? 0 : tag == 'x' ? 1 : 2; };
  for (std::size_t i = 0; i < coords.size(); ++i) {
    const int g = group(tags[i]);
    cx[g] += coords[i][0];
    cy[g] += coords[i][1];
    ++n[g];
  }
  for (int g = 0; g < 3; ++g) {
    cx[g] /= n[g];
    cy[g] /= n[g];
  }
  const double trojan_pair = std::hypot(cx[1] - cx[2], cy[1] - cy[2]);
  const double normal_to_trojan_train =
      std::hypot(cx[0] - cx[1], cy[0] - cy[1]);
  const double normal_to_trojan_test =
      std::hypot(cx[0] - cx[2], cy[0] - cy[2]);
  std::printf("\ncentroid distances: trojan-train<->trojan-test %.4f,\n"
              "  normal<->trojan-train %.4f, normal<->trojan-test %.4f\n",
              trojan_pair, normal_to_trojan_train, normal_to_trojan_test);
  const bool shape = trojan_pair < normal_to_trojan_train &&
                     trojan_pair < normal_to_trojan_test;
  std::printf("paper shape (trojaned train/test overlap, both apart from\n"
              "normal data): reproduced %s\n", shape ? "YES" : "NO");
  return shape ? 0 : 1;
}
