#include "linkage/fingerprint.hpp"

#include "util/mathx.hpp"

namespace caltrain::linkage {

Fingerprint ExtractFingerprint(nn::Network& net, const nn::Image& image) {
  Fingerprint embedding = net.EmbeddingOf(image);
  L2NormalizeInPlace(embedding);
  return embedding;
}

Fingerprint ExtractFingerprintAt(nn::Network& net, const nn::Image& image,
                                 int layer) {
  Fingerprint embedding = net.EmbeddingAtLayer(image, layer);
  L2NormalizeInPlace(embedding);
  return embedding;
}

Fingerprint ExtractFingerprintAt(const nn::Network& net,
                                 const nn::Image& image, int layer,
                                 nn::LayerWorkspace& ws) {
  Fingerprint embedding =
      net.EmbeddingAtLayer(image, layer, nn::KernelProfile::kFast, ws);
  L2NormalizeInPlace(embedding);
  return embedding;
}

double FingerprintDistance(const Fingerprint& a, const Fingerprint& b) {
  return L2Distance(a, b);
}

}  // namespace caltrain::linkage
