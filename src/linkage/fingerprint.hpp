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

/// Extracts the normalized penultimate-layer embedding of `image`.
[[nodiscard]] Fingerprint ExtractFingerprint(nn::Network& net,
                                             const nn::Image& image);

/// Extracts a normalized embedding from an arbitrary layer.  The paper
/// fingerprints the penultimate layer; for networks with few classes a
/// wider feature layer carries more within-class structure (see the
/// fingerprint-layer ablation bench).
[[nodiscard]] Fingerprint ExtractFingerprintAt(nn::Network& net,
                                               const nn::Image& image,
                                               int layer);

/// Thread-safe variant: const forward pass through `ws` against the
/// shared network (no model replica, no mutation of `net`).
[[nodiscard]] Fingerprint ExtractFingerprintAt(const nn::Network& net,
                                               const nn::Image& image,
                                               int layer,
                                               nn::LayerWorkspace& ws);

/// L2 distance between two fingerprints (the paper's query metric).
[[nodiscard]] double FingerprintDistance(const Fingerprint& a,
                                         const Fingerprint& b);

}  // namespace caltrain::linkage
