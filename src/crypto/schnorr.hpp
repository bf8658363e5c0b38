// Schnorr signatures over the M127 group.
//
// Stands in for the Intel attestation signature chain: the simulated
// "processor" holds a Schnorr keypair and signs enclave quotes
// (measurement + report data); participants verify against the
// attestation service's published public key.  Same protocol shape as
// EPID/ECDSA quotes, simulation-grade group size (see group.hpp).
#pragma once

#include "crypto/drbg.hpp"
#include "crypto/group.hpp"
#include "util/bytes.hpp"

namespace caltrain::crypto {

struct SchnorrKeyPair {
  U128 secret = 0;          ///< x
  U128 public_value = 0;    ///< y = g^x mod p
};

struct SchnorrSignature {
  U128 commitment = 0;  ///< R = g^k mod p
  U128 response = 0;    ///< s = k + e*x mod (p-1)
};

[[nodiscard]] SchnorrKeyPair SchnorrGenerate(HmacDrbg& drbg);

/// Signs `message` with a fresh nonce from `drbg`.
[[nodiscard]] SchnorrSignature SchnorrSign(const SchnorrKeyPair& key,
                                           BytesView message, HmacDrbg& drbg);

/// Verifies g^s == R * y^e, with e = H(R || y || message).
[[nodiscard]] bool SchnorrVerify(U128 public_value, BytesView message,
                                 const SchnorrSignature& signature) noexcept;

/// Serialization for embedding signatures in quotes.
[[nodiscard]] Bytes SerializeSignature(const SchnorrSignature& signature);
[[nodiscard]] SchnorrSignature DeserializeSignature(BytesView data);

/// One signature-verification instance for SchnorrVerifyBatch.  The
/// message is viewed, not copied; it must outlive the call.
struct SchnorrBatchItem {
  U128 public_value = 0;
  BytesView message{};
  SchnorrSignature signature{};
};

/// Verifies a batch with one random-linear-combination aggregate check
/// instead of two full exponentiations per item: with odd 64-bit
/// weights z_i drawn from an HMAC-DRBG seeded by a hash of the whole
/// batch, all signatures are valid iff
///   g^{sum z_i s_i} == prod R_i^{z_i} * prod_y y^{sum z_i e_i}
/// (up to a 2^-64 aggregation collision).
///
/// The seed hashes (R_i, s_i, y_i, e_i) per item, not the messages.
/// The check above reads the message m_i only through the challenge
/// e_i = H(R_i || y_i || m_i), so fixing the seed's inputs fixes every
/// value the equation sees: a forger who wants weights that cancel a
/// bad item must change some R_i, s_i, y_i or m_i, and changing m_i
/// changes e_i (short of a hash collision), which re-draws every
/// weight.  Hashing each message a second time would bind nothing
/// more; each message is hashed once, for its challenge.  The public-key side groups
/// by distinct y, so a batch from one participant — the ingest shape —
/// costs one ladder for the whole batch plus ~32 multiplies per item.
/// On aggregate mismatch the batch is bisected, with an exact per-item
/// g^{s_i} == R_i * y_i^{e_i} check at the leaves, so every invalid
/// item is attributed precisely.  Returns the indices of invalid items
/// in ascending order; empty means the batch verified.
[[nodiscard]] std::vector<std::size_t> SchnorrVerifyBatch(
    std::span<const SchnorrBatchItem> items);

}  // namespace caltrain::crypto
