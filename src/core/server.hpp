// The CalTrain training server (paper Fig. 1 / Fig. 2).
//
// Owns the training enclave, the fingerprinting enclave, and the
// per-participant state.  The pipeline:
//
//   1. Provisioning — participants attest the training enclave over the
//      secure channel and provision their symmetric data keys.
//   2. Upload — participants submit AES-GCM-encrypted records; the
//      enclave authenticates each record with the provisioned key and
//      discards failures (unregistered sources / tampering).
//   3. Training — encrypted records are shuffled into mini-batches and
//      decrypted/augmented/trained *inside* the enclave, with the
//      FrontNet/BackNet split of PartitionedTrainer.  After each epoch
//      the semi-trained model is released for participant re-assessment
//      and the split can move (dynamic re-assessment, Sec. IV-B).
//   4. Fingerprinting — a second enclave encloses the whole trained
//      network once and emits the linkage database (Sec. IV-C).
//   5. Release — each participant receives the model with the FrontNet
//      encrypted under its own provisioned key.
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/partitioned.hpp"
#include "data/packaging.hpp"
#include "enclave/attestation.hpp"
#include "enclave/enclave.hpp"
#include "linkage/linkage_db.hpp"
#include "nn/network.hpp"
#include "nn/trainer.hpp"
#include "securechannel/handshake.hpp"
#include "securechannel/record.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace caltrain::core {

struct ServerConfig {
  Bytes training_code_identity = BytesOf("caltrain training pipeline v1");
  Bytes fingerprint_code_identity = BytesOf("caltrain fingerprint stage v1");
  enclave::EpcConfig epc;
  std::uint64_t seed = 1;
};

struct TrainReport {
  std::vector<nn::EpochStats> epochs;
  std::vector<int> front_layers_per_epoch;  ///< split after re-assessment
  PartitionStats partition;
  enclave::EpcStats epc;
  enclave::TransitionStats transitions;
  std::size_t records_trained = 0;
  std::size_t records_rejected = 0;
};

struct PartitionedTrainOptions {
  nn::SgdConfig sgd;
  int batch_size = 32;
  int epochs = 12;
  int front_layers = 2;
  /// Continue from the currently held model instead of re-initializing
  /// (used when later-arriving data fine-tunes an existing model, as in
  /// the Trojaning Attack's retraining step).
  bool resume = false;
  /// Optional initial weight blob (SerializeWeightRange over the whole
  /// network).  Lets experiments start the enclave-trained model from
  /// the same initialization as a baseline model.
  Bytes initial_weights;
  bool augment = true;
  nn::AugmentOptions augment_options;
  std::uint64_t seed = 1;
  /// Optional dynamic re-assessment hook: called after each epoch with
  /// the semi-trained model; the returned value (if any) becomes the
  /// FrontNet depth for the next epoch.  This is where participants'
  /// consensus plugs in.
  std::function<std::optional<int>(const nn::Network&, int epoch)>
      reassess;
  /// Optional held-out evaluation set (accuracy per epoch).
  const std::vector<nn::Image>* test_images = nullptr;
  const std::vector<int>* test_labels = nullptr;
};

class TrainingServer {
 public:
  explicit TrainingServer(ServerConfig config = {});

  // --- attestation surface (what participants see) ---------------------
  [[nodiscard]] crypto::U128 attestation_public_key() const noexcept;
  [[nodiscard]] const crypto::Sha256Digest& training_measurement()
      const noexcept;

  // --- phase 1: key provisioning ---------------------------------------
  /// Handshake messages are relayed verbatim from the participant.
  [[nodiscard]] Bytes HandleClientHello(const std::string& participant_id,
                                        BytesView client_hello);
  [[nodiscard]] bool HandleClientFinished(const std::string& participant_id,
                                          BytesView client_finished);
  /// The first record on the established channel carries the
  /// participant's symmetric data key and record-signing public key.
  /// Returns false (and provisions nothing) on any channel failure or
  /// malformed pair.
  [[nodiscard]] bool HandleKeyProvision(const std::string& participant_id,
                                        BytesView record);

  [[nodiscard]] bool IsProvisioned(const std::string& participant_id) const;

  // --- directory durability (persist::ServiceLog hooks) -----------------
  /// Monotonic counter bumped on every successful provisioning.  The
  /// serving layer journals a fresh directory snapshot whenever the
  /// version it last logged falls behind this one.
  [[nodiscard]] std::uint64_t directory_version() const noexcept {
    return directory_version_.load(std::memory_order_acquire);
  }

  /// Wire snapshot of every provisioned participant's credentials
  /// (id, data key, signing public key), in id order — the state
  /// Train/FingerprintAll need to re-open stored records after a
  /// restart.  Handshake transcripts are deliberately excluded: a
  /// recovered server requires re-attestation for *new* provisioning,
  /// which is the honest post-crash posture.
  [[nodiscard]] Bytes SerializeDirectory() const;

  /// Rebuilds the participant directory from SerializeDirectory output
  /// and pins the version counter.  Recovery-only: requires an empty
  /// directory (no provisioned participants yet).  Throws
  /// Error(kInvalidArgument) on a credential pair HandleKeyProvision
  /// would refuse.
  void RestoreDirectory(BytesView blob, std::uint64_t version);

  /// Installs a model snapshot (Network::SerializeModel bytes) and the
  /// released FrontNet depth, as if Train had just returned.
  void RestoreModel(BytesView model_blob, int front_layers);

  [[nodiscard]] int released_front_layers() const noexcept {
    return released_front_layers_;
  }

  // --- phase 2: encrypted data upload ----------------------------------
  /// Authenticates each record inside the enclave: its Schnorr
  /// signature against the provisioned signing key (a record without
  /// one is rejected), then its GCM tag and instance header against the
  /// provisioned data key.  `batch_size` records per enclave transition
  /// (one enclave::TransitionGuard per batch).  Returns per-record
  /// accept flags; commits nothing.  Thread-safe for concurrent callers.
  [[nodiscard]] std::vector<char> AuthenticateRecords(
      const std::vector<data::EncryptedRecord>& records,
      std::size_t batch_size);

  /// Moves the accepted records into the training set (no copy under
  /// the store's lock) and folds the rest into the rejection counter;
  /// returns the number accepted.  Thread-safe; the relative order of
  /// concurrent commits is the caller's contract (serve::Service commits
  /// in ticket order, so the record order is the submission order at any
  /// thread count).
  std::size_t CommitRecords(std::vector<data::EncryptedRecord> records,
                            const std::vector<char>& accepted);

  [[nodiscard]] std::size_t accepted_records() const noexcept {
    return accepted_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t rejected_records() const noexcept {
    return rejected_.load(std::memory_order_relaxed);
  }

  // --- phase 3: partitioned training -----------------------------------
  /// Trains `spec` on all accepted records; the model stays owned by the
  /// server until released.  Each batch is one ECALL: its records are
  /// re-authenticated and decrypted across the pool straight into their
  /// batch slots, then checked and augmented in batch order, so the
  /// first bad record fails the round and the weights are identical at
  /// every thread count.  Throws kInvalidArgument naming the source of
  /// a record whose shape is not the model input's.
  TrainReport Train(const nn::NetworkSpec& spec,
                    const PartitionedTrainOptions& options);

  [[nodiscard]] nn::Network& model();

  // --- phase 4: fingerprinting stage ------------------------------------
  /// Runs the fingerprinting enclave over every accepted record with the
  /// trained model fully enclosed; returns the linkage database.  One
  /// ECALL for the whole pass: workers open and fingerprint disjoint
  /// record blocks against the shared model, and tuples are inserted in
  /// record order, so the database bytes match at every thread count.
  /// `fingerprint_layer` selects the embedding layer (-1 = the paper's
  /// penultimate layer).
  [[nodiscard]] linkage::LinkageDatabase FingerprintAll(
      int fingerprint_layer = -1);

  // --- phase 5: model release -------------------------------------------
  /// Released model for one participant: spec + plaintext BackNet
  /// weights + FrontNet weights sealed under the participant's key.
  struct ReleasedModel {
    std::string participant_id;  ///< who this release is encrypted for
    Bytes spec_blob;
    int front_layers = 0;
    Bytes backnet_weights;            ///< plaintext
    Bytes frontnet_iv, frontnet_ciphertext, frontnet_tag;  ///< AES-GCM
  };
  [[nodiscard]] ReleasedModel ReleaseModelFor(
      const std::string& participant_id);

  /// Participant-side: decrypt and reassemble the released model.
  [[nodiscard]] static nn::Network AssembleReleasedModel(
      const ReleasedModel& released, BytesView participant_key);

  [[nodiscard]] enclave::Enclave& training_enclave() noexcept {
    return *training_enclave_;
  }

 private:
  /// Immutable provisioned key material.  Published as a shared_ptr
  /// snapshot: concurrent ingest workers copy the pointer out under
  /// the directory lock and keep the cipher alive even if the
  /// participant re-provisions (which swaps in a *new* Credentials
  /// object instead of mutating this one).
  struct Credentials {
    Credentials(Bytes key, crypto::U128 signing_pub)
        : data_key(std::move(key)), cipher(data_key), sign_pub(signing_pub) {}
    Bytes data_key;         ///< provisioned symmetric key (enclave-held)
    crypto::AesGcm cipher;  ///< cached key schedule
    /// Record-signing public key every upload is verified against.
    crypto::U128 sign_pub;
  };

  /// Reads a (data key, signing public key) pair as provisioning and
  /// the directory snapshot both encode it.  Throws
  /// Error(kInvalidArgument) unless the key is 16 or 32 bytes and the
  /// public key lies in [2, p).
  [[nodiscard]] static std::shared_ptr<const Credentials> ReadCredentials(
      ByteReader& reader);

  struct ParticipantState {
    std::unique_ptr<securechannel::ServerHandshake> handshake;
    std::unique_ptr<securechannel::RecordReader> reader;
    /// nullptr until provisioned; guarded by participants_mu_.
    std::shared_ptr<const Credentials> creds;
  };

  ParticipantState& StateOf(const std::string& participant_id);
  [[nodiscard]] std::shared_ptr<const Credentials> CredentialsOf(
      const std::string& participant_id) const;

  ServerConfig config_;
  enclave::AttestationService attestation_;
  std::unique_ptr<enclave::Enclave> training_enclave_;
  std::unique_ptr<enclave::Enclave> fingerprint_enclave_;
  /// Guards the participant directory's structure and the `creds`
  /// pointer of every entry (readers copy the shared_ptr out under a
  /// shared lock; provisioning swaps in a new immutable snapshot under
  /// an exclusive lock).  Handshake state is owned by the provisioning
  /// flow, which is serial per participant.
  mutable util::SharedMutex participants_mu_;
  std::map<std::string, ParticipantState> participants_
      GUARDED_BY(participants_mu_);
  /// Guards records_.  Concurrent upload sessions append under it;
  /// Train / FingerprintAll hold it across their read passes (they run
  /// once ingest has quiesced, so the lock is uncontended there — it
  /// turns the quiescence convention into an enforced invariant).
  util::Mutex records_mu_;
  std::vector<data::EncryptedRecord> records_ GUARDED_BY(records_mu_);
  std::atomic<std::size_t> accepted_{0};
  std::atomic<std::size_t> rejected_{0};
  std::atomic<std::uint64_t> directory_version_{0};
  /// Owned by the phase pipeline (train -> fingerprint -> release runs
  /// on one logical strand; serve::Service serializes via its strand).
  std::optional<nn::Network> model_;
  int released_front_layers_ = 0;
};

}  // namespace caltrain::core
