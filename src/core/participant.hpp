// A training participant (paper Fig. 1: participants A-D).
//
// Owns a private local dataset, a symmetric data key and a record-signing
// keypair.  The participant attests the server's training enclave,
// provisions its data key and signing public key over the secure
// channel, uploads signed encrypted records, and — after each
// epoch — can run the information-exposure assessment on the released
// semi-trained model to vote on the FrontNet depth.
#pragma once

#include <string>

#include "assess/exposure.hpp"
#include "core/server.hpp"
#include "data/dataset.hpp"
#include "data/packaging.hpp"

namespace caltrain::core {

/// Transport abstraction for the provisioning flow: each method carries
/// one opaque handshake/provisioning message to the training server and
/// returns its reply.  An in-process implementation calls
/// TrainingServer directly; the networking layer (net::Client) tunnels
/// the same opaque blobs through wire frames — the secure channel's
/// end-to-end guarantees do not depend on the hop in between.
class ProvisionTransport {
 public:
  virtual ~ProvisionTransport() = default;
  /// Delivers the client hello; returns the server hello.  Throws on
  /// transport failure or a server-side handshake rejection.
  virtual Bytes ProvisionHello(const std::string& participant_id,
                               BytesView client_hello) = 0;
  /// Delivers the client finished message; false = server rejected.
  virtual bool ProvisionFinished(const std::string& participant_id,
                                 BytesView finished) = 0;
  /// Delivers the protected key-provision record; false = rejected.
  virtual bool ProvisionKey(const std::string& participant_id,
                            BytesView record) = 0;
};

class Participant {
 public:
  /// `seed` derives the key and all client-side randomness.
  Participant(std::string id, data::LabeledDataset local_data,
              std::uint64_t seed);

  [[nodiscard]] const std::string& id() const noexcept { return id_; }
  [[nodiscard]] const data::LabeledDataset& local_data() const noexcept {
    return local_data_;
  }
  [[nodiscard]] BytesView data_key() const noexcept { return data_key_; }
  /// Public half of the record-signing keypair provisioned alongside
  /// the data key; the server batch-verifies upload signatures with it.
  [[nodiscard]] crypto::U128 signing_public_key() const noexcept {
    return signing_key_.public_value;
  }

  /// Attested handshake, then provisioning of the data key and signing
  /// public key, in-process against `server`.  Records are uploaded
  /// separately (serve::Service upload sessions, or
  /// TrainingServer::AuthenticateRecords + CommitRecords).  Throws
  /// Error(kAuthFailure) on attestation or provisioning failure.
  void Provision(TrainingServer& server,
                 const crypto::Sha256Digest& expected_measurement);

  /// Same attested handshake + key provisioning, but with every message
  /// carried by `transport` — the path remote participants take through
  /// net::Client.  `attestation_public_key` comes from the server's
  /// published hello (the wire handshake pins it), and the handshake
  /// verifies `expected_measurement` against it exactly as the
  /// in-process flow does.  Throws Error(kAuthFailure) on attestation
  /// or provisioning failure.
  void ProvisionVia(ProvisionTransport& transport,
                    crypto::U128 attestation_public_key,
                    const crypto::Sha256Digest& expected_measurement);

  /// Seals and signs every local record with the provisioned keys
  /// (upload wire form, in local-data order).
  [[nodiscard]] std::vector<data::EncryptedRecord> PackRecords() const;

  /// Participant-side dynamic re-assessment (paper Sec. IV-B): runs the
  /// exposure framework on the semi-trained model with `probes` drawn
  /// from the participant's own private data, against the participant's
  /// IRValNet oracle.  Returns the recommended FrontNet depth.
  [[nodiscard]] int AssessSemiTrainedModel(nn::Network& semi_trained,
                                           nn::Network& validator,
                                           std::size_t probe_count) const;

  /// Forensic cooperation (paper Sec. IV-C): asked for the original data
  /// of training instance `local_index`, turn it in for hash
  /// verification.
  [[nodiscard]] std::pair<nn::Image, int> TurnInInstance(
      std::size_t local_index) const;

 private:
  std::string id_;
  data::LabeledDataset local_data_;
  Bytes data_key_;
  crypto::SchnorrKeyPair signing_key_;
  std::uint64_t seed_;
  crypto::HmacDrbg drbg_;
};

}  // namespace caltrain::core
