// Query stage (paper Fig. 2, right).
//
// A model user who hits an erroneous prediction passes the problematic
// input through the model, takes the predicted label Y and penultimate
// fingerprint F, and queries the linkage database for the closest
// training fingerprints in class Y.  The returned sources name the
// participants to solicit; their turned-in data is verified against the
// recorded hash digest H before forensic analysis.
#pragma once

#include <string>
#include <vector>

#include "linkage/linkage_db.hpp"
#include "nn/network.hpp"

namespace caltrain::core {

struct MispredictionReport {
  int predicted_label = 0;
  linkage::Fingerprint fingerprint;
  std::vector<linkage::QueryMatch> neighbors;  ///< closest first
};

class QueryService {
 public:
  /// `fingerprint_layer` must match the layer the database was built
  /// with (-1 = penultimate, the paper's choice).
  QueryService(nn::Network model, linkage::LinkageDatabase database,
               int fingerprint_layer = -1);

  /// Investigates one (mis)predicted input in a caller-held workspace:
  /// one forward pass yields both the prediction and the fingerprint,
  /// then the k nearest same-class training instances are returned with
  /// sources.  Safe for concurrent callers with distinct workspaces: the
  /// forward pass shares the const model, and the segmented database
  /// supports concurrent queries — the async serving layer
  /// (serve::Service) fans these out over the pool.
  [[nodiscard]] MispredictionReport InvestigateWith(nn::LayerWorkspace& ws,
                                                    const nn::Image& input,
                                                    std::size_t k);

  /// Batched form: the per-input forward passes fan out over the pool
  /// (shared const model, one workspace per worker), then every kNN
  /// lookup goes through the parallel batched database query.
  /// result[i] == InvestigateWith(ws, inputs[i], k), element-wise
  /// identical at every thread count.
  [[nodiscard]] std::vector<MispredictionReport> InvestigateBatch(
      const std::vector<nn::Image>& inputs, std::size_t k);

  /// Verifies data turned in by a participant against the linkage hash.
  [[nodiscard]] bool VerifyTurnedInData(std::uint64_t tuple_id,
                                        const nn::Image& image,
                                        int label) const;

  [[nodiscard]] const linkage::LinkageDatabase& database() const noexcept {
    return database_;
  }
  [[nodiscard]] nn::Network& model() noexcept { return model_; }

 private:
  nn::Network model_;
  linkage::LinkageDatabase database_;
  int fingerprint_layer_;
};

}  // namespace caltrain::core
