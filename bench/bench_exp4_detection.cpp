// Reproduces Experiment IV's headline claim: CalTrain "can accurately
// and precisely identify the poisoned and mislabeled training data, and
// further discover the malicious training participants."
//
// For every trojaned test probe (all non-target identities), queries
// the top-9 same-class neighbours and evaluates: precision of bad-data
// retrieval, per-probe poisoned-data recall, and attribution of the
// malicious participant.  Also reports the attack's own success rate
// and the stealthiness condition (benign accuracy preserved).
#include <cstdio>
#include <vector>

#include "bench_trojan_common.hpp"

using namespace caltrain;

int main(int argc, char** argv) {
  const bench::BenchProfile profile = bench::ParseArgs(argc, argv);
  bench::PrintHeader("Experiment IV — accountability metrics", profile);
  auto lab = bench::BuildTrojanLab(profile);
  Rng rng(profile.seed + 99);

  std::vector<std::vector<linkage::QueryMatch>> per_probe;
  std::size_t mispredicted = 0;
  nn::LayerWorkspace ws;
  for (int id = 1; id < profile.identities; ++id) {
    for (int i = 0; i < 5; ++i) {
      const nn::Image probe =
          attack::ApplyTrigger(lab->faces.Sample(id, rng));
      const core::MispredictionReport report =
          lab->query->InvestigateWith(ws, probe, 9);
      if (report.predicted_label != lab->target_class) continue;
      ++mispredicted;
      per_probe.push_back(report.neighbors);
    }
  }

  const linkage::AccountabilityEval eval = linkage::EvaluateAccountability(
      per_probe, lab->provenance, "mallory");

  std::printf("\nExperiment IV results:\n");
  std::printf("  attack success rate            : %.1f%%\n",
              100.0 * lab->attack_success);
  std::printf("  benign top-1 accuracy          : %.1f%%\n",
              100.0 * lab->benign_top1);
  std::printf("  probes hijacked to target class: %zu\n", mispredicted);
  std::printf("  bad-data precision (top-9)     : %.1f%%\n",
              100.0 * eval.precision_bad);
  std::printf("  poisoned-data recall per probe : %.1f%%\n",
              100.0 * eval.recall_poisoned);
  std::printf("  malicious-source attribution   : %.1f%%\n",
              100.0 * eval.source_attribution);
  std::printf("  neighbours retrieved           : %zu\n", eval.retrieved);

  const bool reproduced = eval.precision_bad >= 0.8 &&
                          eval.recall_poisoned >= 0.9 &&
                          eval.source_attribution >= 0.8;
  std::printf("\npaper claim (precise + accurate discovery of poisoned/\n"
              "mislabeled data and the responsible participant): %s\n",
              reproduced ? "REPRODUCED" : "NOT reproduced");
  return reproduced ? 0 : 1;
}
