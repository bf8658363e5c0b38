// Participant-side data packaging (paper Sec. IV-A).
//
// Each participant locally seals every training record with its own
// symmetric key using AES-256-GCM.  Per the threat model, the class
// label travels in the clear (participants "release the training data
// labels attached to their corresponding (encrypted) training
// instances") but is covered by the authentication tag via the AAD, so
// a label cannot be flipped in transit.  The enclave verifies the tag
// with the provisioned key — records from unregistered sources or
// tampered channels fail authentication and are discarded.
#pragma once

#include <optional>
#include <string>

#include "crypto/drbg.hpp"
#include "crypto/gcm.hpp"
#include "crypto/schnorr.hpp"
#include "crypto/sha256.hpp"
#include "data/dataset.hpp"
#include "nn/tensor.hpp"
#include "util/serial.hpp"

namespace caltrain::data {

/// Wire form of one encrypted training record.
struct EncryptedRecord {
  std::string participant_id;  ///< claimed source (authenticated via AAD)
  int label = 0;               ///< plaintext label (authenticated via AAD)
  Bytes iv;                    ///< 12-byte GCM nonce
  Bytes ciphertext;            ///< encrypted serialized image
  Bytes tag;                   ///< 16-byte GCM tag
  /// Optional 32-byte Schnorr signature over SignedPortion(), made with
  /// the participant's provisioned signing key.  Empty for participants
  /// that provision only a data key (legacy flow); the server then
  /// authenticates via the GCM tag alone.
  Bytes signature;

  /// The bytes the upload signature covers: every field except the
  /// signature itself, in Serialize() order.
  [[nodiscard]] Bytes SignedPortion() const;

  /// Exact byte count Serialize() produces — lets bulk encoders
  /// (the upload wire codec) reserve once instead of growing.
  [[nodiscard]] std::size_t SerializedSize() const noexcept;
  /// Appends the Serialize() bytes to an existing writer, no temp.
  void SerializeTo(ByteWriter& writer) const;
  [[nodiscard]] Bytes Serialize() const;
  [[nodiscard]] static EncryptedRecord Deserialize(BytesView blob);
};

/// Result of in-enclave verification + decryption.
struct VerifiedRecord {
  nn::Image image;
  int label = 0;
  std::string participant_id;
  crypto::Sha256Digest content_hash{};  ///< H of the linkage tuple
};

/// What the ingest accept test learns about a sealed instance without
/// decoding its pixels: the shape and label its header declares.
struct InstanceHeader {
  nn::Shape shape;
  int label = 0;
};

/// Canonical serialization of (image, label) — the bytes that are
/// encrypted and the bytes the linkage hash H covers.
[[nodiscard]] Bytes SerializeTrainingInstance(const nn::Image& image,
                                              int label);
/// Throws Error(kInvalidArgument) unless the float count equals
/// shape.Flat() and exactly fills the blob; the header is checked
/// before anything is allocated from it.
[[nodiscard]] std::pair<nn::Image, int> DeserializeTrainingInstance(
    BytesView blob);

/// Hash digest H over the canonical instance bytes.
[[nodiscard]] crypto::Sha256Digest HashTrainingInstance(const nn::Image& image,
                                                        int label);

/// Participant-side packer: one per participant, bound to its key.
/// With a signing key attached, every packed record also carries a
/// Schnorr signature over its wire bytes, which the server verifies in
/// aggregated batches (crypto::SchnorrVerifyBatch) on the ingest path.
class DataPackager {
 public:
  DataPackager(std::string participant_id, BytesView key,
               std::uint64_t nonce_seed,
               std::optional<crypto::SchnorrKeyPair> signing_key =
                   std::nullopt);

  [[nodiscard]] EncryptedRecord Pack(const nn::Image& image, int label);

  /// Packs a whole local dataset.
  [[nodiscard]] std::vector<EncryptedRecord> PackAll(
      const LabeledDataset& dataset);

  [[nodiscard]] const std::string& participant_id() const noexcept {
    return participant_id_;
  }

 private:
  std::string participant_id_;
  crypto::AesGcm cipher_;
  crypto::HmacDrbg nonce_drbg_;
  std::optional<crypto::SchnorrKeyPair> signing_key_;
};

/// Enclave-side opener: verifies authenticity/integrity with the
/// provisioned key and decrypts.  Returns nullopt when the record fails
/// authentication (forged source, bit-flips, flipped label) — the
/// caller must discard it (paper: "injected training data from
/// unregistered training participants will be discarded").
[[nodiscard]] std::optional<VerifiedRecord> OpenRecord(
    const EncryptedRecord& record, BytesView key);

/// Same, with a caller-held cipher (avoids re-deriving the AES key
/// schedule and GHASH tables per record on hot paths).
[[nodiscard]] std::optional<VerifiedRecord> OpenRecord(
    const EncryptedRecord& record, const crypto::AesGcm& cipher);

/// Training-side open: the same authentication and accept test as
/// OpenRecord, without the linkage content hash (training never reads
/// it).  Returns the record's header, or nullopt exactly where
/// OpenRecord would reject.  When the header's shape equals
/// batch.shape, the pixels are decoded straight into batch slot
/// `slot`; otherwise the slot is left untouched and the caller reports
/// the mismatch.  Distinct slots may be filled concurrently.
[[nodiscard]] std::optional<InstanceHeader> OpenRecordInto(
    const EncryptedRecord& record, const crypto::AesGcm& cipher,
    nn::Batch& batch, int slot);

/// The ingest accept test: GCM-opens every record (records[i] with
/// ciphers[i]) and checks its instance header — shape, label, and a
/// float count equal to shape.Flat() that exactly fills the plaintext —
/// without decoding pixels or hashing (training re-opens each record
/// with OpenRecordInto, fingerprinting with OpenRecord).  results[i] is
/// nullopt exactly where OpenRecord(records[i], ciphers[i]) would
/// reject.
[[nodiscard]] std::vector<std::optional<InstanceHeader>> OpenRecordsBatch(
    std::span<const EncryptedRecord* const> records,
    std::span<const crypto::AesGcm* const> ciphers);

}  // namespace caltrain::data
