// Remote attestation (simulated).
//
// Protocol shape mirrors Intel's flow (paper Sec. IV-A "Establishing a
// Training Enclave"): the processor produces a signed *quote* over the
// enclave measurement plus caller-chosen report data (here: the
// enclave's ephemeral DH public key, binding the secure channel to the
// attested enclave).  Participants verify the quote against the
// attestation service's public key and check the measurement against
// the code they reviewed, and only then provision their symmetric data
// keys.
#pragma once

#include "crypto/schnorr.hpp"
#include "enclave/enclave.hpp"
#include "util/bytes.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace caltrain::enclave {

struct Quote {
  crypto::Sha256Digest measurement{};
  Bytes report_data;
  crypto::SchnorrSignature signature;

  [[nodiscard]] Bytes Serialize() const;
  [[nodiscard]] static Quote Deserialize(BytesView blob);

  /// The byte string the signature covers.
  [[nodiscard]] Bytes SignedBody() const;
};

/// The simulated processor / Intel Attestation Service: owns the
/// attestation keypair and signs quotes for enclaves running on "this"
/// machine.
class AttestationService {
 public:
  explicit AttestationService(std::uint64_t seed);

  [[nodiscard]] crypto::U128 public_key() const noexcept {
    return key_.public_value;
  }

  /// Issues a quote for `enclave` embedding `report_data`.  Safe to
  /// call concurrently: the signing nonce draws are serialized.
  [[nodiscard]] Quote GenerateQuote(const Enclave& enclave,
                                    BytesView report_data)
      EXCLUDES(drbg_mu_);

  /// Participant-side verification against the published service key.
  [[nodiscard]] static bool VerifyQuote(crypto::U128 service_public_key,
                                        const Quote& quote) noexcept;

 private:
  util::Mutex drbg_mu_;
  crypto::HmacDrbg drbg_ GUARDED_BY(drbg_mu_);
  crypto::SchnorrKeyPair key_;
};

}  // namespace caltrain::enclave
