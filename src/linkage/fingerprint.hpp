// Fingerprint extraction (paper Sec. IV-C).
//
// The fingerprint F of a training instance is its L2-normalized feature
// embedding at the penultimate layer (the layer before softmax) of the
// trained model.  Fingerprints support distance queries but are one-way:
// without the (encrypted, enclave-held) FrontNet an adversary cannot
// run input-reconstruction techniques against them.
#pragma once

#include <vector>

#include "nn/network.hpp"
#include "nn/tensor.hpp"

namespace caltrain::linkage {

using Fingerprint = std::vector<float>;

/// Extracts the normalized embedding of `image` at `layer` with a const
/// forward pass through `ws` against the shared network.  The paper
/// fingerprints the penultimate layer (Network::PenultimateIndex); for
/// networks with few classes a wider feature layer carries more
/// within-class structure (see the fingerprint-layer ablation bench).
[[nodiscard]] Fingerprint ExtractFingerprintAt(const nn::Network& net,
                                               const nn::Image& image,
                                               int layer,
                                               nn::LayerWorkspace& ws);

/// L2 distance between two fingerprints (the paper's query metric).
[[nodiscard]] double FingerprintDistance(const Fingerprint& a,
                                         const Fingerprint& b);

}  // namespace caltrain::linkage
